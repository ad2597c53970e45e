"""Checks on the numeric fields of wire documents.

Specs and job requests arrive as JSON, so every count and every
physical quantity is checked on construction and refused with
``ValueError``.  Booleans are refused wherever a number is expected,
although ``bool`` subclasses ``int``: a JSON ``true`` is never a count
or a temperature.
"""

from __future__ import annotations

import math
import numbers
from typing import Any


def finite_real(value: Any, what: str) -> float:
    """``value`` as a float; ``ValueError`` unless finite and real."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def require_finite(obj: Any, *names: str) -> None:
    """Raise ``ValueError`` unless each set field is finite and real."""
    for name in names:
        value = getattr(obj, name)
        if value is not None:
            finite_real(value, name)


def require_int(obj: Any, *names: str, minimum: int = 1) -> None:
    """Raise ``ValueError`` unless each set field is an integer
    ``>= minimum`` (a fractional or boolean count is refused)."""
    for name in names:
        value = getattr(obj, name)
        if value is not None and (isinstance(value, bool)
                                  or not isinstance(value, int)
                                  or value < minimum):
            bound = ("a positive integer" if minimum == 1
                     else f"an integer >= {minimum}")
            raise ValueError(f"{name} must be {bound}, got {value!r}")

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


def finite_real(value: Any, what: str, positive: bool = False) -> float:
    """``value`` as a float; ``ValueError`` unless finite and real (and,
    with ``positive``, above zero)."""
    try:
        number = (float(value) if isinstance(value, numbers.Real)
                  and not isinstance(value, bool) else math.nan)
    except OverflowError:  # an integer past the float range
        number = math.nan
    if not math.isfinite(number):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    if positive and number <= 0.0:
        raise ValueError(f"{what} must be positive, got {value!r}")
    return number


def require_finite(obj: Any, *names: str) -> None:
    """Raise ``ValueError`` unless each set field is finite and real."""
    for name in names:
        value = getattr(obj, name)
        if value is not None:
            finite_real(value, name)


def require_int(obj: Any, *names: str, minimum: int = 1,
                optional: bool = False) -> None:
    """Raise ``ValueError`` unless each field is an integer
    ``>= minimum`` (a fractional or boolean count is refused); with
    ``optional`` an unset (``None``) field passes."""
    for name in names:
        value = getattr(obj, name)
        if value is None and optional:
            continue
        if (isinstance(value, bool) or not isinstance(value, int)
                or value < minimum):
            bound = ("a positive integer" if minimum == 1
                     else f"an integer >= {minimum}")
            raise ValueError(f"{name} must be {bound}, got {value!r}")


def require_bool(obj: Any, *names: str) -> None:
    """Raise ``ValueError`` unless each field is a boolean (a JSON
    ``"no"`` or ``0`` is not read by its truthiness)."""
    for name in names:
        value = getattr(obj, name)
        if not isinstance(value, bool):
            raise ValueError(f"{name} must be true or false, got {value!r}")

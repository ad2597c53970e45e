"""Failure-rate / sigma-level conversions (Eq. 3 machinery).

The paper's offset-voltage specification is defined through Eq. (3):
an SA instance fails if its required input offset lies outside
``[-Voffset, +Voffset]``; the specification is the ``Voffset`` at which
the failure probability equals the target rate (1e-9), evaluated under
the fitted normal offset distribution.
"""

from __future__ import annotations

import math

from scipy import optimize, special

from ..constants import FAILURE_RATE_TARGET


def sigma_level(failure_rate: float) -> float:
    """Two-sided sigma multiplier for a centred distribution.

    For ``mu = 0`` Eq. (3) reduces to ``2*Phi(-z) = fr``; the paper
    quotes ``z = 6.1`` for ``fr = 1e-9``.
    """
    if not 0.0 < failure_rate < 1.0:
        raise ValueError("failure rate must be in (0, 1)")
    return float(-special.ndtri(failure_rate / 2.0))


def failure_rate_at(voffset: float, mu: float, sigma: float) -> float:
    """Failure probability of Eq. (3) for a given spec and distribution."""
    if not math.isfinite(sigma) or sigma <= 0.0:
        raise ValueError("sigma must be positive and finite")
    if not math.isfinite(mu):
        raise ValueError("mu must be finite")
    if voffset < 0.0:
        raise ValueError("voffset must be non-negative")
    upper = special.ndtr((voffset - mu) / sigma)
    lower = special.ndtr((-voffset - mu) / sigma)
    return float(1.0 - (upper - lower))


def offset_spec(mu: float, sigma: float,
                failure_rate: float = FAILURE_RATE_TARGET) -> float:
    """Solve Eq. (3) numerically for the offset-voltage specification.

    Returns the smallest ``Voffset`` whose failure probability does not
    exceed ``failure_rate``.  For ``mu = 0`` this equals
    ``sigma_level(fr) * sigma`` (~6.1 sigma at 1e-9); for shifted
    distributions the far tail dominates and the spec approaches
    ``|mu| + z1 * sigma`` with the one-sided ``z1``.

    A degenerate fit (``sigma <= 0``, non-finite moments — e.g. from an
    all-NaN offset population) or a failure-rate target at or beyond
    0.5 (where Eq. (3) stops describing a tail) is rejected rather than
    silently producing a meaningless spec.
    """
    if not math.isfinite(sigma) or sigma <= 0.0:
        raise ValueError("sigma must be positive and finite")
    if not math.isfinite(mu):
        raise ValueError("mu must be finite")
    if not 0.0 < failure_rate < 0.5:
        raise ValueError("failure rate must be in (0, 0.5)")
    z_two_sided = sigma_level(failure_rate)
    upper = abs(mu) + (z_two_sided + 1.0) * sigma

    def excess(voffset: float) -> float:
        return failure_rate_at(voffset, mu, sigma) - failure_rate

    if excess(upper) > 0.0:
        # Pathological target; widen until bracketed.
        while excess(upper) > 0.0:
            upper *= 2.0
    return float(optimize.brentq(excess, 0.0, upper, xtol=1e-9))

"""Zipf reference mass, Zipf deviation, and exponent fitting.

The reference profile over a rank segment a..b is f_a / r**g, anchored at the
observed frequency of the segment's first rank. The deviation J compares the
observed segment mass against that reference mass.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, repeat
from operator import add, mul, truediv

from .profile import RankedProfile, segment_mass


@dataclass(frozen=True)
class ZipfFit:
    """Exponent g plus the anchored segment it applies to. f_a is the observed
    frequency at rank a, not a fitted intercept."""
    g: float
    f_a: float
    a: int
    b: int

    def __post_init__(self):
        if not 1 <= self.a <= self.b:
            raise ValueError(f"invalid rank segment {self.a}..{self.b}")


def zipf_fit_for(p: RankedProfile, g: float, a: int = 1, b: int | None = None) -> ZipfFit:
    """Build a ZipfFit for a profile segment, reading the anchor frequency f_a
    off the profile."""
    if b is None:
        b = p.D
    if not 1 <= a <= b <= p.D:
        raise ValueError(f"rank segment {a}..{b} outside 1..{p.D}")
    return ZipfFit(g=g, f_a=p.frequency(a), a=a, b=b)


def zipf_reference(p: RankedProfile, fit: ZipfFit) -> float:
    """Reference mass Z_{a,b} = sum over r=a..b of f_a / r**g."""
    if not fit.b <= p.D:
        raise ValueError(f"segment end {fit.b} beyond profile diversity {p.D}")
    if p.L <= 0:
        raise ValueError("reference mass undefined for an empty profile")
    return sum(map(truediv, repeat(fit.f_a), map(pow, range(fit.a, fit.b + 1), repeat(fit.g))))


def zipf_deviation(p: RankedProfile, fit: ZipfFit) -> float:
    """J_{1,D} = (L_{1,D} - Z_{1,D}) / Z_{1,D}, the relative excess of the
    observed mass over the Zipf reference. Requires a whole-profile fit."""
    if p.D == 0:
        raise ValueError("Zipf deviation undefined for an empty profile")
    if (fit.a, fit.b) != (1, p.D):
        raise ValueError("Zipf deviation is defined over the whole profile (a=1, b=D)")
    z = zipf_reference(p, fit)
    return (segment_mass(p, 1, p.D) - z) / z


# log r and the running sums of (log r)**2 for r = 1, 2, ...; a longer pair
# replaces the whole tuple, so a caller never sees the two out of step
_log_tables: tuple[list[float], list[float]] = ([], [])


def fit_zipf_exponent(p: RankedProfile) -> float:
    """Least-squares exponent in log-log space with the intercept anchored at
    log f_1: minimizes sum over ranks of (log f_r - (log f_1 - g log r))**2.
    The closed form is g = sum(log r * (log f_1 - log f_r)) / sum((log r)**2).
    """
    if p.D < 3:
        raise ValueError(f"need at least 3 ranks to fit an exponent, got {p.D}")
    global _log_tables
    log_r, sq_sums = _log_tables
    if len(log_r) < p.D:
        log_r = list(map(math.log, range(1, 2 * p.D)))
        sq_sums = list(accumulate(map(mul, log_r, log_r)))
        _log_tables = log_r, sq_sums
    log_f1 = math.log(p.freqs[0])
    ratios = {f: log_f1 - math.log(f) for f in set(p.freqs)}
    # reduce adds left to right, as a loop would; sum compensates on 3.12+
    num = reduce(add, map(mul, log_r, map(ratios.__getitem__, p.freqs)), 0.0)
    return num / sq_sums[p.D - 1]

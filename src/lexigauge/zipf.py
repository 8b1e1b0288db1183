"""Zipf reference mass, Zipf deviation, and exponent fitting.

The reference profile is f_1 / r**g over the ranks r = 1..D, anchored at the
observed top frequency. The deviation J compares the observed mass of the
whole profile against that reference mass.
"""
from __future__ import annotations

import math
from functools import reduce
from itertools import accumulate, repeat
from operator import add, mul, truediv

from .profile import RankedProfile


def zipf_reference(p: RankedProfile, g: float) -> float:
    """Reference mass Z_{1,D} = sum over r=1..D of f_1 / r**g."""
    if p.D == 0:
        raise ValueError("reference mass undefined for an empty profile")
    return sum(map(truediv, repeat(p.freqs[0]), map(pow, range(1, p.D + 1), repeat(g))))


def zipf_deviation(p: RankedProfile, g: float) -> float:
    """J_{1,D} = (L_{1,D} - Z_{1,D}) / Z_{1,D}, the relative excess of the
    observed mass over the Zipf reference with exponent g."""
    z = zipf_reference(p, g)
    # sum, not p.L: on 3.12+ it compensates rounding, as the loop oracle's does
    return (sum(p.freqs) - z) / z


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

"""Zipf reference mass, Zipf deviation, and exponent fitting.

The reference profile is f_1 / r**g over the ranks r = 1..D, anchored at the
observed top frequency. The deviation J compares the observed mass of the
whole profile against that reference mass. The per-rank sums expand the
profile's frequency spectrum against shared float tables of r and log r.
"""
from __future__ import annotations

import math
from collections import deque
from itertools import accumulate, repeat
from operator import mul, truediv

from .profile import RankedProfile

# r, log r and the running sums of (log r)**2 for r = 1, 2, ...; a longer
# table replaces the whole tuple, so a caller never sees the three out of step
_log_tables: tuple[list[float], list[float], list[float]] = ([], [], [])


def _rank_tables(D: int) -> tuple[list[float], list[float], list[float]]:
    global _log_tables
    if len(_log_tables[0]) < D:
        # float(r) is exact below 2**53, so float(r) ** g is r ** g
        ranks = list(map(float, range(1, 2 * D)))
        log_r = list(map(math.log, ranks))
        _log_tables = ranks, log_r, list(accumulate(map(mul, log_r, log_r)))
    return _log_tables


def zipf_reference(p: RankedProfile, g: float) -> float:
    """Reference mass Z_{1,D} = sum over r=1..D of f_1 / r**g."""
    if p.D == 0:
        raise ValueError("reference mass undefined for an empty profile")
    ranks = _rank_tables(p.D)[0]
    return sum(map(truediv, repeat(float(p.spectrum[0][0])), map(pow, ranks[:p.D], repeat(g))))


def zipf_deviation(p: RankedProfile, g: float) -> float:
    """J_{1,D} = (L_{1,D} - Z_{1,D}) / Z_{1,D}, the relative excess of the
    observed mass over the Zipf reference with exponent g."""
    z = zipf_reference(p, g)
    # a per-rank sum, not p.L: on 3.12+ it compensates rounding, as the loop oracle's does
    return (sum(p.per_rank(p.spectrum[0])) - z) / z


def fit_zipf_exponent(p: RankedProfile) -> float:
    """Least-squares exponent in log-log space with the intercept anchored at
    log f_1: minimizes sum over ranks of (log f_r - (log f_1 - g log r))**2.
    The closed form is g = sum(log r * (log f_1 - log f_r)) / sum((log r)**2).
    """
    if p.D < 3:
        raise ValueError(f"need at least 3 ranks to fit an exponent, got {p.D}")
    _, log_r, sq_sums = _rank_tables(p.D)
    fs = p.spectrum[0]
    log_f1 = math.log(fs[0])
    terms = map(mul, log_r, p.per_rank([log_f1 - math.log(f) for f in fs]))
    # accumulate adds left to right, as a loop would; sum compensates on 3.12+
    num = deque(accumulate(terms, initial=0.0), maxlen=1)[0]
    return num / sq_sums[p.D - 1]

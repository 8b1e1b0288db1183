"""Zipf reference mass, Zipf deviation, and exponent fitting.

The reference profile is f_1 / r**g over the ranks r = 1..D, anchored at the
observed top frequency. The deviation J compares the observed mass of the
whole profile against that reference mass. The fit adds one term per run of
the frequency spectrum and the reference mass has a closed-form tail: both
agree with rank-by-rank loops to about 1e-14 relative, not bit for bit.
"""
from __future__ import annotations

import math
from itertools import accumulate
from operator import mul

from .profile import RankedProfile

# at index n, the sums of log r and of (log r)**2 over r = 1..n; grown as a pair
_log_sums: tuple[list[float], list[float]] = ([0.0], [0.0])

# B_2k / (2k)! for k = 1..5, the Euler-Maclaurin weights of the odd derivatives
_BERNOULLI = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160)


def zipf_reference(p: RankedProfile, g: float) -> float:
    """Reference mass Z_{1,D} = sum over r=1..D of f_1 / r**g. For 0 < g <= 3
    and D > 24, ranks 12..D are summed by Euler-Maclaurin (error below 1e-15
    relative); otherwise rank by rank, which is exact at g = 0. A mass out of
    float range (g far from 0) raises ValueError naming g and D."""
    D = p.D
    if D == 0:
        raise ValueError("reference mass undefined for an empty profile")
    f1 = p.spectrum[0][0]
    try:
        if not (0 < g <= 3 and D > 24):
            z = sum(f1 / r ** g for r in range(1, D + 1))
        else:
            a, pa, pb = 12, 12 ** -g, D ** -g
            log_ratio = math.log(D / a)
            u = (1 - g) * log_ratio
            # the integral of x**-g from a to D, through expm1 so g near 1 loses no digits
            s = (sum(r ** -g for r in range(1, a)) + (pa + pb) / 2
                 + a * pa * (math.expm1(u) / u * log_ratio if u else log_ratio))
            # the m-th derivative of x**-g, for odd m, is -(g)_m x**(-g-m)
            xa, xb, rising = pa / a, pb / D, g
            for m, weight in zip((1, 3, 5, 7, 9), _BERNOULLI):
                s += weight * rising * (xa - xb)
                xa, xb, rising = xa / a**2, xb / D**2, rising * (g + m) * (g + m + 1)
            z = f1 * s
    except ArithmeticError:  # r ** g overflowed, or underflowed to 0
        z = math.nan
    if not 0 < z < math.inf:
        raise ValueError(f"Zipf reference mass for g={g} over D={D} ranks is out of floating-point range")
    return z


def zipf_deviation(p: RankedProfile, g: float) -> float:
    """J_{1,D} = (L_{1,D} - Z_{1,D}) / Z_{1,D}, the relative excess of the
    observed mass over the Zipf reference with exponent g."""
    z = zipf_reference(p, g)
    return (p.L - z) / z


def fit_zipf_exponent(p: RankedProfile) -> float:
    """Least-squares exponent in log-log space with the intercept anchored at
    log f_1: minimizes sum over ranks of (log f_r - (log f_1 - g log r))**2.
    The closed form is g = sum(log r * (log f_1 - log f_r)) / sum((log r)**2)."""
    global _log_sums
    if p.D < 3:
        raise ValueError(f"need at least 3 ranks to fit an exponent, got {p.D}")
    if len(_log_sums[0]) <= p.D:
        log_r = list(map(math.log, range(1, 2 * p.D)))
        _log_sums = (list(accumulate(log_r, initial=0.0)),
                     list(accumulate(map(mul, log_r, log_r), initial=0.0)))
    log_sums, sq_sums = _log_sums
    fs, ks = p.spectrum
    log_f1 = math.log(fs[0])
    num, end = 0.0, 0
    for f, k in zip(fs, ks):  # ranks end+1..end+k share frequency f
        num += (log_f1 - math.log(f)) * (log_sums[end + k] - log_sums[end])
        end += k
    return num / sq_sums[p.D]

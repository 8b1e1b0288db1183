"""Group statistics: mean/std summaries, two-sample t-tests, Pearson
correlation, and ordinary least-squares trend lines.

The t-test p-value needs the t-distribution CDF, which reduces to the
regularized incomplete beta function I_x(a, b). That is implemented here
directly (continued fraction with modified Lentz evaluation, switching to
the symmetric complement for fast convergence) so the statistics carry no
dependency beyond math.lgamma. Accuracy is about 1e-10 over the needed
range, checked against an independent implementation in the test suite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from operator import sub


@dataclass(frozen=True)
class GroupSummary:
    n: int
    mean: float
    std: float


@dataclass(frozen=True)
class TrendFit:
    slope: float
    intercept: float


def summarize(values: list[float]) -> GroupSummary:
    """Mean and sample standard deviation (n-1 denominator; 0 when n=1)."""
    n = len(values)
    if n == 0:
        raise ValueError("cannot summarize an empty group")
    mean = sum(values) / n
    if n == 1:
        return GroupSummary(n=1, mean=mean, std=0.0)
    var = sum(map(pow, map(sub, values, repeat(mean)), repeat(2))) / (n - 1)
    return GroupSummary(n=n, mean=mean, std=math.sqrt(var))


def _betacf(a: float, b: float, x: float) -> float:
    # Continued fraction for the incomplete beta function, evaluated with
    # the modified Lentz method. Standard even/odd coefficient recurrence:
    # d_{2m} = m(b-m)x / ((a+2m-1)(a+2m)), d_{2m+1} = -(a+m)(a+b+m)x / ...
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 500):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise ArithmeticError(f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})")


def betai(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b) for a, b > 0 and
    x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ValueError("shape parameters must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0,1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    # The continued fraction converges fast only below the distribution's
    # bulk; use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) on the other side.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _t_sf_two_tailed(t: float, df: float) -> float:
    """Two-tailed p for a t statistic: P(|T| >= |t|) = I_{df/(df+t^2)}(df/2, 1/2)."""
    return betai(df / 2.0, 0.5, df / (df + t * t))


def t_test(a: list[float], b: list[float], welch: bool = False) -> float:
    """Two-tailed two-sample t-test p-value. Pooled-variance Student test by
    default; welch=True switches to the unequal-variance variant for
    sensitivity checks."""
    na, nb = len(a), len(b)
    if na < 2 or nb < 2:
        raise ValueError("both samples need at least 2 values")
    # Centred on one shared value, exactly shifted samples give the same
    # p-value; the min keeps t_test(a, b) == t_test(b, a).
    ref = min(a[0], b[0])
    sa, sb = summarize([v - ref for v in a]), summarize([v - ref for v in b])
    va, vb = sa.std ** 2, sb.std ** 2
    diff = sa.mean - sb.mean
    if welch:
        se2 = va / na + vb / nb
        if se2 == 0.0:
            return 1.0 if diff == 0.0 else 0.0
        # Welch-Satterthwaite df from each sample's share of se2: squaring
        # the shares themselves could underflow to a zero denominator
        wa, wb = va / na / se2, vb / nb / se2
        df = 1.0 / (wa * wa / (na - 1) + wb * wb / (nb - 1))
        t = diff / math.sqrt(se2)
    else:
        df = na + nb - 2
        pooled = ((na - 1) * va + (nb - 1) * vb) / df
        if pooled == 0.0:
            return 1.0 if diff == 0.0 else 0.0
        t = diff / math.sqrt(pooled * (1.0 / na + 1.0 / nb))
    return _t_sf_two_tailed(t, df)


def pearson(x: list[float], y: list[float]) -> float:
    """Sample Pearson correlation coefficient."""
    n = len(x)
    if n != len(y):
        raise ValueError(f"length mismatch: {n} vs {len(y)}")
    if n < 2:
        raise ValueError("correlation needs at least 2 points")
    mx = sum(x) / n
    my = sum(y) / n
    sxx = sum((v - mx) ** 2 for v in x)
    syy = sum((v - my) ** 2 for v in y)
    if sxx == 0.0 or syy == 0.0:
        raise ValueError("correlation undefined for a zero-variance sample")
    sxy = sum((xv - mx) * (yv - my) for xv, yv in zip(x, y))
    return sxy / math.sqrt(sxx * syy)


def linear_regression(x: list[float], y: list[float]) -> TrendFit:
    """Ordinary least squares line y = slope * x + intercept."""
    n = len(x)
    if n != len(y):
        raise ValueError(f"length mismatch: {n} vs {len(y)}")
    if n < 2:
        raise ValueError("regression needs at least 2 points")
    mx = sum(x) / n
    my = sum(y) / n
    sxx = sum((v - mx) ** 2 for v in x)
    if sxx == 0.0:
        raise ValueError("regression undefined when all x values are equal")
    sxy = sum((xv - mx) * (yv - my) for xv, yv in zip(x, y))
    slope = sxy / sxx
    return TrendFit(slope=slope, intercept=my - slope * mx)

"""Reference profile and measures for the equivalence tests: the per-symbol
sort and the rank-by-rank loops that lexigauge.profile must agree with,
float for float, and lexigauge.zipf within 1e-12."""
from __future__ import annotations

import math


def loop_entries(counts: dict[str, float]) -> tuple[tuple[str, float], ...]:
    return tuple(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))


def loop_L(entries) -> float:
    total = 0
    for _, f in entries:
        total += f
    return total


def loop_entropy(entries) -> float:
    D = len(entries)
    if D == 1:
        return 0.0
    L = loop_L(entries)
    bits = -sum((f / L) * math.log2(f / L) for _, f in entries)
    return min(bits / math.log2(D), 1.0)


def loop_fit_zipf_exponent(entries) -> float:
    log_f1 = math.log(entries[0][1])
    num = 0.0
    den = 0.0
    for r, (_, f) in enumerate(entries, start=1):
        lr = math.log(r)
        num += lr * (log_f1 - math.log(f))
        den += lr * lr
    return num / den


def loop_zipf_reference(f_a: float, g: float, a: int, b: int) -> float:
    return sum(f_a / r ** g for r in range(a, b + 1))


def loop_zipf_deviation(entries, g: float) -> float:
    z = loop_zipf_reference(entries[0][1], g, 1, len(entries))
    return (loop_L(entries) - z) / z

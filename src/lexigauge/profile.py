"""Ranked symbol-frequency profiles and the scalar measures computed on them:
length, diversity, specific diversity, segment mass, and normalized entropy.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

from .tokenizer import TokenizedText


@dataclass(frozen=True)
class RankedProfile:
    """Symbols sorted by descending frequency.

    entries[r-1] is (symbol, f_r) for rank r. build_profile produces integer
    counts; synthetic profiles with real-valued frequencies are accepted as
    well, so model-matching reference profiles can be expressed exactly.
    """
    entries: tuple[tuple[str, float], ...]
    L: float = field(init=False)

    def __post_init__(self):
        prev = math.inf
        total = 0
        for symbol, f in self.entries:
            if not f > 0:
                raise ValueError(f"frequency of {symbol!r} must be positive, got {f}")
            if f > prev:
                raise ValueError("frequencies must be non-increasing by rank")
            prev = f
            total += f
        object.__setattr__(self, "L", total)

    @property
    def D(self) -> int:
        return len(self.entries)

    def frequency(self, rank: int) -> float:
        """f_r for 1-based rank r."""
        if not 1 <= rank <= self.D:
            raise ValueError(f"rank {rank} outside 1..{self.D}")
        return self.entries[rank - 1][1]

    @classmethod
    def from_frequencies(cls, freqs) -> "RankedProfile":
        """Profile over anonymous symbols, one per frequency. Frequencies must
        already be sorted in descending order."""
        return cls(tuple((f"s{i+1}", float(f)) for i, f in enumerate(freqs)))


def build_profile(t: TokenizedText) -> RankedProfile:
    """Count each distinct symbol and rank by descending frequency. Ties are
    broken by ascending symbol code-point order so output is deterministic."""
    return RankedProfile(tuple(sorted(t.counts.items(), key=lambda kv: (-kv[1], kv[0]))))


def specific_diversity(p: RankedProfile) -> float:
    """d = D / L, the per-symbol vocabulary richness, in (0, 1]."""
    if p.D == 0:
        raise ValueError("specific diversity undefined for an empty profile")
    return p.D / p.L


def segment_mass(p: RankedProfile, a: int, b: int) -> float:
    """Total symbol appearances over the rank segment a..b (inclusive)."""
    if not 1 <= a <= b <= p.D:
        raise ValueError(f"rank segment {a}..{b} outside 1..{p.D}")
    return sum(f for _, f in p.entries[a - 1:b])


def entropy(p: RankedProfile) -> float:
    """Shannon entropy of the frequency distribution, log base D, in [0, 1].

    The base-D logarithm is undefined at D = 1; a single-symbol profile has no
    uncertainty and is defined to have entropy 0.
    """
    if p.D == 0:
        raise ValueError("entropy undefined for an empty profile")
    if p.D == 1:
        return 0.0
    L = p.L
    bits = -sum((f / L) * math.log2(f / L) for _, f in p.entries)
    # summation rounding can land an ulp above 1 on uniform profiles
    return min(bits / math.log2(p.D), 1.0)


def dump_profile(p: RankedProfile) -> str:
    """Delimited rank,symbol,frequency text for plot emission. Symbols that
    collide with the delimiter (the comma symbol itself) are quoted."""
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["rank", "symbol", "frequency"])
    for r, (sym, f) in enumerate(p.entries, start=1):
        w.writerow([r, sym, int(f) if float(f).is_integer() else repr(f)])
    return out.getvalue()

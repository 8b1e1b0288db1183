"""Ranked symbol-frequency profiles and the scalar measures computed on them:
length, diversity, specific diversity, and normalized entropy.
"""
from __future__ import annotations

import math
from collections import Counter
from functools import cached_property
from itertools import chain, repeat
from operator import itemgetter, mul

from .tokenizer import TokenizedText


class RankedProfile:
    """Symbol frequencies ranked in descending order, held as their spectrum.

    Built from a symbol -> frequency mapping whose values are all positive;
    real values are accepted, so model-matching reference profiles can be
    expressed exactly. spectrum is (fs, ks): the distinct frequencies in
    descending order, and how many ranks have each, so ranks 1..ks[0] have
    frequency fs[0], the next ks[1] ranks fs[1], and so on. D (the number of
    ranks), L (the total mass) and every measure read the spectrum only.
    entries[r-1] is (symbol, f_r) for rank r, ties in ascending symbol code
    point order; the symbols are ranked only when it is first read.
    """

    def __init__(self, counts: dict[str, float]):
        self._counts = counts
        runs = Counter(counts.values())
        # one check per run, not per rank; `not f > 0` also rejects nan
        if not all(f > 0 for f in runs):
            symbol, f = next((s, f) for s, f in counts.items() if not f > 0)
            raise ValueError(f"frequency of {symbol!r} must be positive, got {f}")
        # lists, not tuples: a tuple freed onto its free list stays counted
        # towards the next cyclic collection, so tuples run the collector more often
        fs = sorted(runs, reverse=True)
        self.spectrum = fs, list(map(runs.__getitem__, fs))
        self.D = len(counts)
        self.L = sum(map(mul, *self.spectrum))

    @cached_property
    def entries(self) -> tuple[tuple[str, float], ...]:
        # a stable sort by count keeps the ascending symbol order within ties
        return tuple(sorted(sorted(self._counts.items()), key=itemgetter(1), reverse=True))

    @classmethod
    def from_frequencies(cls, freqs) -> "RankedProfile":
        """Profile over anonymous symbols s1, s2, ..., one per frequency, in
        any order; the profile ranks them."""
        return cls({f"s{i+1}": float(f) for i, f in enumerate(freqs)})


def build_profile(t: TokenizedText) -> RankedProfile:
    """The profile of a text's symbol counts."""
    return RankedProfile(t.counts)


def specific_diversity(p: RankedProfile) -> float:
    """d = D / L, the per-symbol vocabulary richness, in (0, 1]."""
    if p.D == 0:
        raise ValueError("specific diversity undefined for an empty profile")
    return p.D / p.L


def entropy(p: RankedProfile) -> float:
    """Shannon entropy of the frequency distribution, log base D, in [0, 1].

    The base-D logarithm is undefined at D = 1; a single-symbol profile has no
    uncertainty and is defined to have entropy 0.
    """
    if p.D == 0:
        raise ValueError("entropy undefined for an empty profile")
    if p.D == 1:
        return 0.0
    L, (fs, ks) = p.L, p.spectrum
    # one term per run, summed once per rank in rank order
    bits = -sum(chain.from_iterable(map(repeat, [(f / L) * math.log2(f / L) for f in fs], ks)))
    # summation rounding can land an ulp above 1 on uniform profiles
    return min(bits / math.log2(p.D), 1.0)

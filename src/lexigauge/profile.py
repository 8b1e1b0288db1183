"""Ranked symbol-frequency profiles and the scalar measures computed on them:
length, diversity, specific diversity, and normalized entropy.
"""
from __future__ import annotations

import csv
import io
import math
from collections import Counter
from functools import cached_property
from itertools import chain, repeat
from operator import itemgetter, mul

from .tokenizer import TokenizedText


class RankedProfile:
    """Symbol frequencies ranked in descending order, held as their spectrum.

    spectrum is (fs, ks): the distinct frequencies in descending order, and
    how many ranks have each, so ranks 1..ks[0] have frequency fs[0], the
    next ks[1] ranks fs[1], and so on. D (the number of ranks), L (the total
    mass) and every measure read the spectrum only. entries[r-1] is
    (symbol, f_r) for rank r; it is built when first read, and a profile
    built from a symbol -> count mapping ranks its symbols only then.
    Synthetic profiles with real-valued frequencies are accepted as well, so
    model-matching reference profiles can be expressed exactly.
    """

    def __init__(self, entries: tuple[tuple[str, float], ...] = (), counts: dict[str, int] | None = None):
        if counts is None:
            prev = math.inf
            total = 0
            for symbol, f in entries:
                if not f > 0:
                    raise ValueError(f"frequency of {symbol!r} must be positive, got {f}")
                if f > prev:
                    raise ValueError("frequencies must be non-increasing by rank")
                prev = f
                total += f
            self.entries = tuple(entries)
            freqs = [f for _, f in self.entries]
        else:
            self._counts = counts
            freqs = counts.values()
        runs = Counter(freqs)
        # lists, not tuples: a tuple freed onto its free list stays counted
        # towards the next cyclic collection, so tuples run the collector more often
        fs = sorted(runs, reverse=True)
        self.spectrum = fs, list(map(runs.__getitem__, fs))
        self.D = len(freqs)
        # counts sum exactly by run; real values keep the loop's order of additions
        self.L = total if counts is None else sum(map(mul, *self.spectrum))

    @cached_property
    def entries(self) -> tuple[tuple[str, float], ...]:
        # a stable sort by count keeps the ascending symbol order within ties
        return tuple(sorted(sorted(self._counts.items()), key=itemgetter(1), reverse=True))

    def per_rank(self, values):
        """Iterate values[i] ks[i] times for each run i: one value per rank."""
        return chain.from_iterable(map(repeat, values, self.spectrum[1]))

    @classmethod
    def from_frequencies(cls, freqs) -> "RankedProfile":
        """Profile over anonymous symbols, one per frequency. Frequencies must
        already be sorted in descending order."""
        return cls(tuple((f"s{i+1}", float(f)) for i, f in enumerate(freqs)))


def build_profile(t: TokenizedText) -> RankedProfile:
    """Count each distinct symbol and rank by descending frequency. Ties are
    broken by ascending symbol code-point order so output is deterministic."""
    return RankedProfile(counts=t.counts)


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
    L = p.L
    # one term per run, summed once per rank in rank order
    bits = -sum(p.per_rank([(f / L) * math.log2(f / L) for f in p.spectrum[0]]))
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

import math
from operator import mul

import loop_profile
import pytest
from hypothesis import example, given, settings, strategies as st

from lexigauge.profile import (
    RankedProfile,
    build_profile,
    entropy,
    specific_diversity,
)
from lexigauge.tokenizer import TokenizedText, tokenize
from lexigauge.zipf import fit_zipf_exponent, zipf_deviation, zipf_reference


def test_build_profile_ranks_by_frequency():
    p = build_profile(tokenize("b a b c b a"))
    assert p.entries == (("b", 3), ("a", 2), ("c", 1))
    assert p.D == 3
    assert p.L == 6


def test_tie_break_is_by_symbol():
    p = build_profile(tokenize("b a"))
    assert p.entries == (("a", 1), ("b", 1))


def test_profile_validation():
    with pytest.raises(ValueError):
        RankedProfile.from_frequencies([1, 0])  # non-positive
    for f in (0, -1, math.nan):
        with pytest.raises(ValueError, match=rf"frequency of 'b' must be positive, got {f}"):
            RankedProfile({"a": 2, "b": f, "c": 1})


def test_real_valued_frequencies_allowed():
    p = RankedProfile.from_frequencies([2.5, 1.25])
    assert p.L == pytest.approx(3.75)


def test_specific_diversity():
    p = build_profile(tokenize("a b a"))
    assert specific_diversity(p) == pytest.approx(2 / 3)
    with pytest.raises(ValueError):
        specific_diversity(RankedProfile({}))


def test_entropy_known_values():
    assert entropy(RankedProfile.from_frequencies([5])) == 0.0
    assert entropy(RankedProfile.from_frequencies([3, 3, 3])) == pytest.approx(1.0, abs=1e-12)
    # hand value for the (2,1,1) profile
    assert entropy(RankedProfile.from_frequencies([2, 1, 1])) == pytest.approx(
        0.9463946303571862, abs=1e-15
    )
    with pytest.raises(ValueError):
        entropy(RankedProfile({}))


counts = st.lists(st.integers(min_value=1, max_value=500), min_size=2, max_size=40)


@given(counts)
def test_entropy_bounds(cs):
    p = RankedProfile.from_frequencies(sorted(cs, reverse=True))
    h = entropy(p)
    assert 0.0 <= h <= 1.0 + 1e-12


@given(counts)
def test_entropy_ignores_symbol_names(cs):
    ordered = sorted(cs, reverse=True)
    p = RankedProfile({f"s{i}": float(c) for i, c in enumerate(ordered)})
    q = RankedProfile({f"titled-{i}": float(c) for i, c in enumerate(ordered)})
    assert entropy(p) == entropy(q)


@given(st.integers(min_value=2, max_value=400), st.integers(min_value=1, max_value=50))
def test_entropy_uniform_is_one(D, f):
    p = RankedProfile.from_frequencies([f] * D)
    assert abs(entropy(p) - 1.0) < 1e-12


@given(st.lists(st.integers(min_value=1, max_value=200), min_size=3, max_size=30))
def test_merging_symbols_lowers_raw_entropy(cs):
    # The normalized measure can rise when D drops, so the monotone property
    # holds for the unnormalized entropy h * log2(D).
    ordered = sorted(cs, reverse=True)
    p = RankedProfile.from_frequencies(ordered)
    merged = sorted(ordered[2:] + [ordered[0] + ordered[1]], reverse=True)
    q = RankedProfile.from_frequencies(merged)
    raw_p = entropy(p) * math.log2(p.D)
    raw_q = entropy(q) * math.log2(q.D) if q.D > 1 else 0.0
    assert raw_q <= raw_p + 1e-9


# Count maps where the rank-frequency path and the per-symbol loop could part
# ways: many tied counts, one to three symbols, and symbols that differ only
# in non-ASCII code points.
SYMBOLS = st.text(alphabet="abzßİıñé’…,.¿0٣ǅ", min_size=1, max_size=3)
int_counts = st.dictionaries(SYMBOLS, st.integers(min_value=1, max_value=6), min_size=1, max_size=60)
small_counts = st.dictionaries(SYMBOLS, st.integers(min_value=1, max_value=3), min_size=1, max_size=3)
float_counts = st.dictionaries(
    SYMBOLS, st.sampled_from([0.5, 1.0, 1.25, 3.0, 1e-3, 1 / 3, 1000.75]), min_size=1, max_size=40)


# Count maps with hundreds to a few thousand ranks, so the shared rank tables
# grow between examples: Zipf-like counts, distinct at the head and tied in
# long runs at the tail, over symbols whose order is not the rank order.
large_counts = st.builds(
    lambda D, top, s: {f"w{r * 7919 % D:05d}": max(1, round(top / r ** s)) for r in range(1, D + 1)},
    st.integers(min_value=200, max_value=3000),
    st.integers(min_value=1, max_value=5000),
    st.floats(min_value=0.3, max_value=2.0),
)


def _assert_matches_loops(p, counts):
    entries = loop_profile.loop_entries(counts)
    fs, ks = p.spectrum
    assert sum(ks) == p.D
    assert all(a > b for a, b in zip(fs, fs[1:]))
    assert sum(map(mul, fs, ks)) == p.L
    assert p.entries == entries
    assert p.D == len(entries)
    if all(isinstance(f, int) for f in fs):
        assert p.L == loop_profile.loop_L(entries)
        assert entropy(p) == loop_profile.loop_entropy(entries)
    else:  # a float total depends on the order of its additions
        assert p.L == pytest.approx(loop_profile.loop_L(entries), rel=1e-12)
        assert entropy(p) == pytest.approx(loop_profile.loop_entropy(entries), rel=1e-12)
    g = 0.0
    if p.D >= 3:
        g = fit_zipf_exponent(p)
        loop_g = loop_profile.loop_fit_zipf_exponent(entries)  # summed in another order
        assert abs(g - loop_g) <= 1e-12 * abs(loop_g)
    _assert_zipf_mass_matches_the_loops(p, entries, g)


def _assert_zipf_mass_matches_the_loops(p, entries, g):
    # for 0 < g <= 3 and D > 24 the reference mass takes ranks 12..D in closed
    # form, so it and j agree with the loops to a bound, not bit for bit
    z = zipf_reference(p, g)
    loop_z = loop_profile.loop_zipf_reference(entries[0][1], g, 1, p.D)
    assert abs(z - loop_z) <= 1e-12 * loop_z
    j = zipf_deviation(p, g)
    loop_j = loop_profile.loop_zipf_deviation(entries, g)
    assert abs(j - loop_j) <= 1e-12 * max(1.0, abs(loop_j))


def _built(counts):
    return build_profile(TokenizedText(counts=counts, L=sum(counts.values()), L_w=0, L_ph=0, L_CH=0))


@settings(max_examples=300)
@given(st.one_of(int_counts, small_counts))
@example({"a": 7})  # one symbol
@example({"a": 3, "b": 3, "c": 3, "d": 3})  # one run: all counts equal
@example({"a": 5, "b": 4, "c": 3, "d": 2, "e": 1})  # every count distinct
@example({f"w{r:02d}": 30 - r for r in range(24)})  # D = 24: the reference mass per rank
@example({f"w{r:02d}": 30 - r for r in range(25)})  # D = 25: the Euler-Maclaurin tail
def test_built_profile_matches_the_loops(counts):
    _assert_matches_loops(_built(counts), counts)


@pytest.mark.parametrize("D", [3, 24, 25, 400])
def test_uniform_profile_fits_exactly_zero(D):
    counts = {f"w{r:03d}": 2 for r in range(D)}
    p = _built(counts)
    assert fit_zipf_exponent(p) == 0.0
    assert zipf_deviation(p, 0.0) == 0.0
    _assert_matches_loops(p, counts)


# Zipf-like count maps on either side of the D = 24 switch, with exponents at
# and around g = 1 (where the tail's integral is a logarithm), at the ends of
# the 0 < g <= 3 range of the closed-form tail, and outside it
zipf_counts = st.builds(
    lambda D, top: {f"w{r:04d}": max(1, top // (r + 1)) for r in range(D)},
    st.integers(min_value=1, max_value=2000), st.integers(min_value=1, max_value=5000))


@settings(max_examples=200, deadline=None)
@given(zipf_counts, st.floats(min_value=-2.0, max_value=5.0))
@example({f"w{r:02d}": 30 - r for r in range(24)}, 1.0)
@example({f"w{r:02d}": 30 - r for r in range(25)}, 1.0)
@example({f"w{r:03d}": 500 // (r + 1) for r in range(300)}, 1.0)
@example({f"w{r:03d}": 500 // (r + 1) for r in range(300)}, 1.0 + 1e-12)
@example({f"w{r:03d}": 500 // (r + 1) for r in range(300)}, 1.0 - 1e-12)
@example({f"w{r:03d}": 500 // (r + 1) for r in range(300)}, 5e-324)
@example({f"w{r:03d}": 500 // (r + 1) for r in range(300)}, 3.0)
@example({f"w{r:03d}": 500 // (r + 1) for r in range(300)}, 3.5)  # per rank
@example({f"w{r:03d}": 500 // (r + 1) for r in range(300)}, -0.5)  # per rank
def test_zipf_mass_matches_the_loops_at_any_exponent(counts, g):
    _assert_zipf_mass_matches_the_loops(_built(counts), loop_profile.loop_entries(counts), g)


@pytest.mark.parametrize("g", [-400.0, -150.0, 400.0])
def test_an_extreme_exponent_names_g_and_D(g):
    p = RankedProfile.from_frequencies(range(140, 0, -1))
    with pytest.raises(ValueError, match=rf"g={g} over D=140 ranks is out of floating-point range"):
        zipf_reference(p, g)


@settings(max_examples=40, deadline=None)
@given(large_counts)
def test_large_built_profile_matches_the_loops(counts):
    _assert_matches_loops(_built(counts), counts)


@settings(max_examples=300)
@given(float_counts)
def test_hand_built_profile_matches_the_loops(counts):
    _assert_matches_loops(RankedProfile(counts), counts)


def test_measures_do_not_rank_symbols():
    p = build_profile(tokenize("the cat and the dog and the bird, and a cat."))
    d, h = specific_diversity(p), entropy(p)
    g = fit_zipf_exponent(p)
    j = zipf_deviation(p, g)
    assert (p.D, p.L, p.spectrum) == (8, 13, ([3, 2, 1], [2, 1, 5]))
    assert 0 < d < 1 and 0 < h < 1 and g > 0 and j != 0
    assert "entries" not in vars(p)
    assert p.entries[0] == ("and", 3)
    assert "entries" in vars(p)

import math

import pytest
from hypothesis import given, settings, strategies as st

from lexigauge.corpus import GroupKey, Language, load_bundled_tables, select_group
from lexigauge.stats import (
    GroupSummary,
    betai,
    linear_regression,
    pearson,
    summarize,
    t_test,
)


def test_summarize_hand_values():
    s = summarize([1, 2, 3])
    assert s == GroupSummary(n=3, mean=2.0, std=1.0)
    assert summarize([5]) == GroupSummary(n=1, mean=5.0, std=0.0)
    with pytest.raises(ValueError):
        summarize([])


@settings(max_examples=300)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=40))
def test_summarize_matches_the_generator_form_bit_for_bit(values):
    # the squared deviations summed in C are the same floats, added in the
    # same order, as the generator expression they replaced
    mean = sum(values) / len(values)
    try:
        std = math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1))
    except OverflowError:  # a square past the float range: both forms raise
        with pytest.raises(OverflowError):
            summarize(values)
        return
    s = summarize(values)
    assert (s.mean.hex(), s.std.hex()) == (mean.hex(), std.hex())


def test_t_test_identical_samples():
    a = [1.0, 2.0, 3.0, 4.0]
    assert t_test(a, list(a)) == pytest.approx(1.0)


def test_t_test_hand_value():
    p = t_test([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
    assert p == pytest.approx(0.34659350708733416, abs=1e-12)


def test_t_test_zero_variance():
    assert t_test([2.0, 2.0, 2.0], [2.0, 2.0]) == 1.0
    assert t_test([2.0, 2.0, 2.0], [3.0, 3.0]) == 0.0


def test_welch_with_a_tiny_variance():
    # the squared variance shares underflow to 0 unless taken relative to
    # their sum; here t = -1 on 1 degree of freedom
    assert t_test([0.0, 0.0], [0.0, 3.4e-118], welch=True) == pytest.approx(0.5, abs=1e-12)


def test_t_test_needs_two_per_sample():
    with pytest.raises(ValueError):
        t_test([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        t_test([1.0, 2.0], [])


def test_welch_variant_differs_under_unequal_variance():
    a = [0.0, 0.1, -0.1, 0.05, -0.05]
    b = [1.0, 5.0, -3.0, 8.0, -6.0, 2.0, 9.0]
    pooled = t_test(a, b)
    welch = t_test(a, b, welch=True)
    assert pooled != welch
    assert 0.0 <= welch <= 1.0


def test_bundled_table_diversity_p_value():
    rows = load_bundled_tables()
    nob = [r.d_rel for r in select_group(rows, GroupKey(Language.ENGLISH, True))]
    non = [r.d_rel for r in select_group(rows, GroupKey(Language.ENGLISH, False))]
    p = t_test(nob, non)
    assert p == pytest.approx(0.0019449877777681307, abs=1e-15)
    assert abs(p / 0.00186 - 1) < 0.20


def test_pearson_exact_lines():
    x = [1.0, 2.0, 3.0, 4.0]
    assert pearson(x, [2 * v + 1 for v in x]) == pytest.approx(1.0)
    assert pearson(x, [-v for v in x]) == pytest.approx(-1.0)


def test_pearson_errors():
    with pytest.raises(ValueError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        pearson([1.0], [2.0])
    with pytest.raises(ValueError):
        pearson([1.0, 2.0], [1.0, 2.0, 3.0])


def test_linear_regression_exact_line():
    x = [0.0, 1.0, 2.0, 3.0]
    fit = linear_regression(x, [3 * v - 5 for v in x])
    assert fit.slope == pytest.approx(3.0, abs=1e-12)
    assert fit.intercept == pytest.approx(-5.0, abs=1e-12)


def test_linear_regression_hand_case():
    fit = linear_regression([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert fit.intercept == pytest.approx(1 / 3, abs=1e-12)


def test_linear_regression_degenerate():
    with pytest.raises(ValueError):
        linear_regression([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


def test_betai_edges():
    assert betai(2.0, 3.0, 0.0) == 0.0
    assert betai(2.0, 3.0, 1.0) == 1.0
    with pytest.raises(ValueError):
        betai(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        betai(1.0, 1.0, 1.5)


def test_betai_uniform_case():
    # I_x(1,1) is the identity
    for x in (0.1, 0.25, 0.5, 0.9):
        assert betai(1.0, 1.0, x) == pytest.approx(x, abs=1e-12)


def test_betai_against_scipy():
    special = pytest.importorskip("scipy.special")
    shapes = (0.5, 1.0, 2.5, 10.0, 50.0, 200.0)
    xs = (0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999)
    for a in shapes:
        for b in shapes:
            for x in xs:
                assert betai(a, b, x) == pytest.approx(
                    float(special.betainc(a, b, x)), abs=1e-10
                ), (a, b, x)


samples = st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=25)


@given(samples, samples)
def test_t_test_symmetry(a, b):
    assert t_test(a, b) == t_test(b, a)
    assert t_test(a, b, welch=True) == t_test(b, a, welch=True)


# Adding a shift to a float can round away a small spread: [0, 1.2e-38] + 1
# is [1, 1], so the shifted samples are no longer the same data and no t-test
# can give them the same p-value. The property is checked where the shift is
# exact in floating point: multiples of 2**-10 in [-100, 100] and integer
# shifts, so fractional values and spreads down to 2**-10 stay covered.
dyadic_samples = st.lists(
    st.integers(min_value=-100 * 2**10, max_value=100 * 2**10).map(lambda k: k / 2**10),
    min_size=2,
    max_size=25,
)


@settings(max_examples=50)
@given(dyadic_samples, dyadic_samples, st.integers(min_value=-50, max_value=50).map(float),
       st.booleans())
def test_t_test_location_equivariance(a, b, shift, welch):
    # t_test centres both samples on one of their values, so an exact shift
    # gives exactly the same centred data and the same p-value
    p1 = t_test(a, b, welch=welch)
    p2 = t_test([v + shift for v in a], [v + shift for v in b], welch=welch)
    assert p1 == p2


@pytest.mark.parametrize("welch", [False, True])
def test_t_test_exact_under_shift_of_clustered_samples(welch):
    # Without centring, the sample means round differently at the two
    # magnitudes and the p-values differ by about 1.4e-11.
    a = [k / 1024 for k in (-89403, -89399, -89402, -89401, -89400, -89402, -89399, -89403,
                            -89399)]
    b = [k / 1024 for k in (-89399, -89402, -89403, -89399, -89399, -89402, -89401, -89403,
                            -89399, -89403, -89399)]
    shifted = t_test([v - 43 for v in a], [v - 43 for v in b], welch=welch)
    assert t_test(a, b, welch=welch) == shifted


@settings(max_examples=50)
@given(
    samples,
    st.floats(min_value=0.1, max_value=10),
    st.floats(min_value=-5, max_value=5),
)
def test_pearson_affine_invariance(x, scale, offset):
    # spread floor keeps y = 2x - 1 from collapsing to a constant in floats
    if max(x) - min(x) < 1e-6:
        return
    y = [2 * v - 1 for v in x]
    base = pearson(x, y)
    scaled = pearson([scale * v + offset for v in x], y)
    assert scaled == pytest.approx(base, abs=1e-9)
    flipped = pearson([-scale * v + offset for v in x], y)
    assert flipped == pytest.approx(-base, abs=1e-9)


@settings(max_examples=50)
@given(samples, samples)
def test_regression_residuals_orthogonal(x, y):
    n = min(len(x), len(y))
    x, y = x[:n], y[:n]
    if n < 2 or max(x) - min(x) < 1e-6:
        return
    fit = linear_regression(x, y)
    residuals = [yv - (fit.slope * xv + fit.intercept) for xv, yv in zip(x, y)]
    dot = sum(r * xv for r, xv in zip(residuals, x))
    scale = max(1.0, sum(abs(xv) for xv in x) * max(abs(r) for r in residuals) if residuals else 1.0)
    assert abs(dot) / scale < 1e-8

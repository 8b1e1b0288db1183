import pytest
from hypothesis import given, strategies as st

from lexigauge.profile import RankedProfile
from lexigauge.zipf import fit_zipf_exponent, zipf_deviation, zipf_reference


def test_reference_mass_hand_value():
    # harmonic sum: 8 * (1 + 1/2 + 1/3 + 1/4)
    p = RankedProfile.from_frequencies([8, 4, 2, 1])
    assert zipf_reference(p, 1.0) == pytest.approx(16.666666666666664, abs=1e-12)
    assert zipf_deviation(p, 1.0) == pytest.approx(-0.1, abs=1e-12)


def test_exact_power_profile_has_zero_deviation():
    g = 1.3
    p = RankedProfile.from_frequencies([100.0 / r**g for r in range(1, 40)])
    assert abs(zipf_deviation(p, g)) < 1e-12


def test_empty_profile_has_no_deviation():
    with pytest.raises(ValueError, match="empty profile"):
        zipf_deviation(RankedProfile(()), 1.0)


def test_fitted_exponent_known_profiles():
    near_zipf = RankedProfile.from_frequencies([round(1000 / r) for r in range(1, 51)])
    g1 = fit_zipf_exponent(near_zipf)
    assert g1 == pytest.approx(1.0005461700809148, abs=1e-9)
    assert abs(g1 - 1.0) < 0.02

    near_square = RankedProfile.from_frequencies([round(1000 / r**2) for r in range(1, 21)])
    g2 = fit_zipf_exponent(near_square)
    assert g2 == pytest.approx(2.0123907234620138, abs=1e-9)
    assert abs(g2 - 2.0) < 0.02 * 2.0


def test_uniform_profile_fits_flat():
    p = RankedProfile.from_frequencies([7] * 10)
    assert fit_zipf_exponent(p) == 0.0


def test_fit_needs_three_ranks():
    with pytest.raises(ValueError):
        fit_zipf_exponent(RankedProfile.from_frequencies([3, 1]))


@given(
    st.floats(min_value=0.1, max_value=2.5),
    st.integers(min_value=3, max_value=60),
    st.floats(min_value=10.0, max_value=1e5),
)
def test_fit_recovers_exact_power_laws(g, D, f1):
    p = RankedProfile.from_frequencies([f1 / r**g for r in range(1, D + 1)])
    assert fit_zipf_exponent(p) == pytest.approx(g, abs=1e-10)


@given(st.lists(st.integers(min_value=1, max_value=1000), min_size=3, max_size=50))
def test_deviation_sign_matches_mass_comparison(cs):
    p = RankedProfile.from_frequencies(sorted(cs, reverse=True))
    z = zipf_reference(p, 1.0)
    j = zipf_deviation(p, 1.0)
    assert j == pytest.approx((p.L - z) / z, rel=1e-12)

import math

import pytest
from hypothesis import example, given, strategies as st

from lexigauge.corpus import GroupKey, Language, load_bundled_tables, select_group
from lexigauge.models import load_language_params
from lexigauge.targets import RECORDED_DIRECTIONS, RECORDED_SCALE_FACTORS
from lexigauge.wqs import (
    StylePoint,
    WqsCoefficients,
    build_scale,
    class_center,
    direction_vector,
    load_wqs_presets,
    reconstruct,
    wqs,
)

# Group centers recomputed from the bundled tables. The recorded center for
# the en-nobel group (0.0269, -0.00567, -0.05779) is not reproducible from
# the bundled rows in its first coordinate; these are the stable recomputed
# values the table rows actually yield.
CENTERS = {
    "en-nobel": (0.06978648648648651, -0.004508108108108108, -0.057797297297297275),
    "en-non": (-0.01800792079207921, 0.00476039603960396, 0.03231089108910891),
    "es-nobel": (0.10153684210526316, -0.016847368421052635, -0.1915526315789474),
    "es-non": (0.0014743589743589735, 0.0043119658119658115, -0.10195726495726495),
}


@pytest.fixture(scope="module")
def presets():
    return load_wqs_presets()


@pytest.fixture(scope="module")
def rows():
    return load_bundled_tables()


def style_points(rows):
    return [StylePoint(r.d_rel, r.h_rel, r.j) for r in rows]


def test_class_center_midpoint():
    c = class_center([StylePoint(1, 1, 1), StylePoint(3, 3, 3)])
    assert (c.d_rel, c.h_rel, c.j) == (2, 2, 2)


def test_class_center_single_point():
    p = StylePoint(0.1, -0.2, 0.3)
    assert class_center([p]) == p
    c = class_center([p, p, p])
    assert (c.d_rel, c.h_rel, c.j) == pytest.approx((0.1, -0.2, 0.3), abs=1e-15)


def test_class_center_empty_errors():
    with pytest.raises(ValueError):
        class_center([])


def test_group_centers_from_bundled_tables(rows):
    for label, key in (
        ("en-nobel", GroupKey(Language.ENGLISH, True)),
        ("en-non", GroupKey(Language.ENGLISH, False)),
        ("es-nobel", GroupKey(Language.SPANISH, True)),
        ("es-non", GroupKey(Language.SPANISH, False)),
    ):
        c = class_center(style_points(select_group(rows, key)))
        expect = CENTERS[label]
        assert c.d_rel == pytest.approx(expect[0], abs=1e-12)
        assert c.h_rel == pytest.approx(expect[1], abs=1e-12)
        assert c.j == pytest.approx(expect[2], abs=1e-12)
    # the recorded en-nobel center matches in its second and third coordinates
    en_nob = CENTERS["en-nobel"]
    assert en_nob[1] == pytest.approx(-0.00567, abs=0.005)
    assert en_nob[2] == pytest.approx(-0.05779, abs=0.005)


def test_direction_vector_hand_cases():
    d = direction_vector(StylePoint(0, 0, 0), StylePoint(3, 0, 4))
    assert (d.d_rel, d.h_rel, d.j) == pytest.approx((0.6, 0.0, 0.8))
    d2 = direction_vector(StylePoint(1, 1, 1), StylePoint(1, 1, 2))
    assert (d2.d_rel, d2.h_rel, d2.j) == pytest.approx((0.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        direction_vector(StylePoint(1, 2, 3), StylePoint(1, 2, 3))


def test_direction_between_recorded_centers():
    # normalized difference of the recorded group centers; the second
    # component works out to -0.09998, not the -0.0100 sometimes quoted
    d = direction_vector(
        StylePoint(-0.05741, 0.00318, -0.03232), StylePoint(0.0269, -0.00567, -0.05779)
    )
    assert d.d_rel == pytest.approx(0.95247, abs=2e-5)
    assert d.h_rel == pytest.approx(-0.09998, abs=2e-5)
    assert d.j == pytest.approx(-0.28774, abs=2e-5)


def test_build_scale_reproduces_preset_weights(presets):
    for code, scale in RECORDED_SCALE_FACTORS.items():
        verbatim = presets[f"verbatim-{code}"]
        built = build_scale(verbatim.origin, StylePoint(*RECORDED_DIRECTIONS[code]), scale)
        assert built.weights.d_rel == pytest.approx(verbatim.weights.d_rel, abs=1e-3)
        assert built.weights.h_rel == pytest.approx(verbatim.weights.h_rel, abs=1e-3)
        assert built.weights.j == pytest.approx(verbatim.weights.j, abs=1e-3)


def test_build_scale_validation():
    unit = StylePoint(1.0, 0.0, 0.0)
    assert build_scale(StylePoint(0, 0, 0), unit, 1.0).weights == unit
    with pytest.raises(ValueError):
        build_scale(StylePoint(0, 0, 0), StylePoint(1.0, 1.0, 0.0), 2.0)
    with pytest.raises(ValueError):
        build_scale(StylePoint(0, 0, 0), unit, 0.0)


def test_scale_on_recorded_example_row(presets, rows):
    point = StylePoint(-0.1684, 0.0049, -0.1156)
    value = wqs(presets["verbatim-en"], point)
    assert value == pytest.approx(0.09041502800000001, abs=1e-12)
    assert value == pytest.approx(0.0904, abs=0.0005)
    # the reconstructed scale lands elsewhere for the same row
    reconstructed = reconstruct(rows, Language.ENGLISH, RECORDED_SCALE_FACTORS["en"])
    assert wqs(reconstructed, point) == pytest.approx(0.00788803949043937, abs=1e-12)


def test_scale_zero_at_origin(presets):
    for label in ("verbatim-en", "verbatim-es"):
        coeffs = presets[label]
        assert wqs(coeffs, coeffs.origin) == 0.0


def test_scale_at_zero_point(presets):
    assert wqs(presets["verbatim-en"], StylePoint(0, 0, 0)) == pytest.approx(0.3403, abs=0.0005)


# The weights the preset file stored, to 10 significant digits, before the
# reconstructed presets were derived from the tables at load time.
FORMERLY_STORED_WEIGHTS = {
    "en": (5.625485433, -0.5938856094, -5.773742506),
    "es": (5.593741015, -1.18285927, -5.008603238),
}


def test_reconstructed_presets_are_rebuilt_from_centers(rows):
    params = load_language_params()
    for language in Language:
        code = language.code.lower()
        built = reconstruct(rows, language, RECORDED_SCALE_FACTORS[code])
        assert params[language].wqs_reconstructed == built
        origin, weights = built.origin, built.weights
        assert (origin.d_rel, origin.h_rel, origin.j) == pytest.approx(
            CENTERS[f"{code}-non"], abs=1e-12)
        assert (weights.d_rel, weights.h_rel, weights.j) == pytest.approx(
            FORMERLY_STORED_WEIGHTS[code], abs=1e-9)
        assert weights.norm() == pytest.approx(RECORDED_SCALE_FACTORS[code], abs=1e-12)


@pytest.mark.parametrize("nobel", [True, False])
def test_reconstruct_names_the_language_of_an_empty_group(rows, nobel):
    kept = [r for r in rows if r.entry.language is Language.SPANISH or r.entry.nobel is not nobel]
    with pytest.raises(ValueError, match="^cannot reconstruct the English scale: class center "
                                         "of an empty group is undefined$"):
        reconstruct(kept, Language.ENGLISH, 1.0)
    assert reconstruct(kept, Language.SPANISH, 1.0) == reconstruct(rows, Language.SPANISH, 1.0)


def test_coefficients_validation():
    with pytest.raises(ValueError):
        WqsCoefficients(origin=StylePoint(0, 0, 0), weights=StylePoint(0, 0, 0))


coords = st.floats(min_value=-2.0, max_value=2.0)
points = st.builds(StylePoint, coords, coords, coords)


@given(points, points)
def test_scale_linearity(p, delta):
    coeffs = load_wqs_presets()["verbatim-en"]
    moved = StylePoint(p.d_rel + delta.d_rel, p.h_rel + delta.h_rel, p.j + delta.j)
    lhs = wqs(coeffs, moved) - wqs(coeffs, p)
    rhs = (
        coeffs.weights.d_rel * delta.d_rel
        + coeffs.weights.h_rel * delta.h_rel
        + coeffs.weights.j * delta.j
    )
    assert lhs == pytest.approx(rhs, abs=1e-9)


@given(points, st.floats(min_value=1e-4, max_value=1.0))
def test_scale_sign_pattern(p, step):
    for label in ("verbatim-en", "verbatim-es"):
        coeffs = load_wqs_presets()[label]
        base = wqs(coeffs, p)
        assert wqs(coeffs, StylePoint(p.d_rel + step, p.h_rel, p.j)) > base
        assert wqs(coeffs, StylePoint(p.d_rel, p.h_rel + step, p.j)) < base
        assert wqs(coeffs, StylePoint(p.d_rel, p.h_rel, p.j + step)) < base


@given(points, points)
@example(StylePoint(0.0, 0.0, 0.0), StylePoint(0.0, 0.0, 1.6221562053550396e-158))
def test_direction_vector_is_unit(a, b):
    diff = b - a
    if diff.norm() == 0:
        return
    d = direction_vector(a, b)
    assert abs(d.norm() - 1.0) < 1e-9

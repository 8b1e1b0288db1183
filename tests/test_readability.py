import dataclasses

import pytest
from hypothesis import given, strategies as st

from lexigauge.corpus import Language
from lexigauge.models import load_language_params
from lexigauge.readability import (
    ReadabilityInputs,
    ipsz,
    readability_inputs,
    res,
    score,
)
from lexigauge.tokenizer import SymbolToken, TokenKind, TokenizedText, tokenize


@pytest.fixture(scope="module")
def en_params():
    return load_language_params()[Language.ENGLISH]


@pytest.fixture(scope="module")
def es_params():
    return load_language_params()[Language.SPANISH]


def synthetic_counts(L_CH, L_w, L_ph):
    # direct construction; the symbol counts are irrelevant to the rate math
    return TokenizedText(counts={}, L=L_w + L_ph, L_w=L_w, L_ph=L_ph, L_CH=L_CH)


def test_rate_inputs_hand_case(en_params):
    t = synthetic_counts(L_CH=714, L_w=100, L_ph=5)
    inputs = readability_inputs(t, en_params)
    assert inputs.W == pytest.approx(2.0, rel=1e-12)
    assert inputs.S == pytest.approx(20.0, rel=1e-12)


def test_one_word_text(en_params):
    inputs = readability_inputs(tokenize("hi."), en_params)
    assert inputs.W == pytest.approx(0.56, abs=0.005)
    assert inputs.S == 1.0


def test_phrase_count_floor(en_params):
    t = tokenize("no terminator here")
    assert t.L_ph == 0
    assert readability_inputs(t, en_params).S == 3.0
    assert readability_inputs(tokenize("one. two."), en_params).S == 1.0


def test_syllable_estimate(en_params):
    params = dataclasses.replace(en_params, c_sy=3.0)
    assert readability_inputs(tokenize("abcdef"), params).W == pytest.approx(2.0)
    with pytest.raises(ValueError):
        dataclasses.replace(en_params, c_sy=0.0)
    with pytest.raises(ValueError):
        dataclasses.replace(en_params, c_sy=-1.0)


def test_empty_text_is_an_error(en_params):
    with pytest.raises(ValueError):
        readability_inputs(tokenize(""), en_params)


def test_res_hand_values():
    assert abs(res(ReadabilityInputs(W=1.5, S=20)) - 59.635) < 1e-12
    assert res(ReadabilityInputs(W=0, S=0)) == pytest.approx(206.835)


def test_ipsz_hand_values():
    assert ipsz(ReadabilityInputs(W=2.0, S=15)) == pytest.approx(22.635, abs=1e-12)
    assert ipsz(ReadabilityInputs(W=0, S=0)) == pytest.approx(206.835)


def test_language_dispatch(en_params, es_params):
    inputs = ReadabilityInputs(W=1.5, S=10)
    assert score(inputs, en_params) == res(inputs)
    assert score(inputs, es_params) == ipsz(inputs)


rates = st.floats(min_value=0.0, max_value=60.0)


@given(rates, rates)
def test_formula_identity(W, S):
    inputs = ReadabilityInputs(W=W, S=S)
    assert abs(ipsz(inputs) - res(inputs) - 0.015 * S) < 1e-12


@given(rates, rates, st.floats(min_value=1e-6, max_value=1.0))
def test_both_scores_decrease_in_each_rate(W, S, step):
    base = ReadabilityInputs(W=W, S=S)
    more_w = ReadabilityInputs(W=W + step, S=S)
    more_s = ReadabilityInputs(W=W, S=S + step)
    assert res(more_w) < res(base)
    assert res(more_s) < res(base)
    assert ipsz(more_w) < ipsz(base)
    assert ipsz(more_s) < ipsz(base)


@given(
    st.integers(min_value=1, max_value=5000),
    st.integers(min_value=1, max_value=1000),
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=2, max_value=8),
)
def test_rates_are_scale_consistent(L_CH, L_w, L_ph, k):
    params = load_language_params()[Language.ENGLISH]
    a = readability_inputs(synthetic_counts(L_CH, L_w, L_ph), params)
    b = readability_inputs(synthetic_counts(k * L_CH, k * L_w, k * L_ph), params)
    assert a.W == pytest.approx(b.W, rel=1e-12)
    assert a.S == pytest.approx(b.S, rel=1e-12)

import re
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st
from loop_tokenizer import loop_tokenize

from lexigauge.profile import build_profile
from lexigauge.tokenizer import (
    PHRASE_TERMINATORS,
    PUNCTUATION,
    TokenKind,
    tokenize,
)


def texts(t):
    return [s.text for s in t.symbols]


def test_words_and_punctuation_are_symbols():
    t = tokenize('He said "yes".')
    assert texts(t) == ["he", "said", '"', "yes", '"', "."]
    assert t.L == 6
    assert t.L_w == 3
    assert t.L_ph == 1
    assert t.L_CH == len("he") + len("said") + len("yes")


def test_case_folding():
    assert texts(tokenize("ABC Def")) == ["abc", "def"]


def test_internal_apostrophe_stays_in_word():
    t = tokenize("Don't")
    assert texts(t) == ["don't"]
    assert t.L_w == 1


def test_edge_apostrophes_are_punctuation():
    assert texts(tokenize("'tis")) == ["'", "tis"]
    assert texts(tokenize("dogs'")) == ["dogs", "'"]


def test_hyphen_splits_and_is_kept():
    assert texts(tokenize("rock-solid")) == ["rock", "-", "solid"]


def test_em_dash_is_a_symbol():
    assert texts(tokenize("wait—no")) == ["wait", "—", "no"]


def test_ellipsis_collapses():
    t = tokenize("Wait... what?")
    assert texts(t) == ["wait", "…", "what", "?"]
    assert t.L_ph == 2


def test_curly_quotes_normalize():
    assert texts(tokenize("‘x’")) == ["'", "x", "'"]
    assert texts(tokenize("“x”")) == ['"', "x", '"']
    # curly apostrophe inside a word behaves like the straight one
    assert texts(tokenize("don’t")) == ["don't"]


def test_digits_are_words():
    t = tokenize("route 66")
    assert texts(t) == ["route", "66"]
    assert t.L_w == 2


def test_unlisted_marks_separate():
    assert texts(tokenize("a*b [c]")) == ["a", "b", "c"]


def test_empty_text():
    t = tokenize("")
    assert t.L == t.L_w == t.L_ph == t.L_CH == 0


def test_terminator_set_is_subset_of_punctuation():
    assert PHRASE_TERMINATORS <= PUNCTUATION


ALPHABET = "abcXYZ09.,;:?!()\"'—- …"
fragments = st.text(alphabet=ALPHABET, max_size=60)


@given(fragments)
def test_tokenize_deterministic(s):
    assert tokenize(s) == tokenize(s)


@given(fragments)
def test_counts_are_consistent(s):
    t = tokenize(s)
    assert t.L == len(t.symbols)
    assert t.L_w == sum(1 for x in t.symbols if x.kind is TokenKind.WORD)
    assert t.L_w + sum(1 for x in t.symbols if x.kind is TokenKind.PUNCTUATION) == t.L
    assert t.L_ph <= t.L - t.L_w
    for x in t.symbols:
        if x.kind is TokenKind.PUNCTUATION:
            assert x.text in PUNCTUATION


@given(fragments)
def test_lowercasing_input_changes_nothing(s):
    assert tokenize(s) == tokenize(s.lower())


@given(fragments, fragments)
def test_concatenation_is_additive(a, b):
    merged = tokenize(a + " " + b)
    assert texts(merged) == texts(tokenize(a)) + texts(tokenize(b))
    assert merged.L == tokenize(a).L + tokenize(b).L


# Characters where a regex scan, a whitespace split and a character loop
# could part ways: quote and apostrophe variants, the underscore (a regex word
# character but not alphanumeric), letters whose lower case changes length or
# class (ß, İ, ı, ǅ), combining marks, non-ASCII digits and numerals,
# whitespace (U+00A0 too), unlisted marks, the sigmas and U+00B7 (final-sigma
# context), and the caseless letters U+01C0-U+01C3.
UNICODE_DRAWS = (sorted(PUNCTUATION)
                 + list("'’‘“”\"…_ßİıaZ7\u0301\u0307²½٣ǅ \t\n\u00a0«»¿¡@ΣσςΑ\u00b7ǀǁǂǃ")
                 + ["...", "İǀǁǂǃ", "ΟΔΟΣ"])
unicode_texts = st.lists(st.sampled_from(UNICODE_DRAWS), max_size=80).map("".join)


@settings(max_examples=500)
@given(unicode_texts)
@example("ΟΔΟΣ·Α")  # lower() of the whole text would read this Σ as not final
def test_matches_the_character_loop(s):
    t = tokenize(s)
    oracle = loop_tokenize(s)
    oracle_counts = Counter(x.text for x in oracle.symbols)
    assert t.symbols == oracle.symbols
    assert (t.L, t.L_w, t.L_ph, t.L_CH) == (oracle.L, oracle.L_w, oracle.L_ph, oracle.L_CH)
    assert t.counts == oracle_counts
    assert build_profile(t).entries == tuple(
        sorted(oracle_counts.items(), key=lambda kv: (-kv[1], kv[0])))


def test_whitespace_split_agrees_with_the_regex_alphabet():
    # tokenize counts whitespace-split chunks, scanning only those that are not
    # all alphanumeric; that is exact as long as, in this interpreter's Unicode
    # tables, [^\W_] is str.isalnum and no whitespace character is alphanumeric
    # or a punctuation mark
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert set(re.findall(r"[^\W_]", every)) == {ch for ch in every if ch.isalnum()}
    assert not [ch for ch in every if ch.isspace() and (ch.isalnum() or ch in PUNCTUATION)]


@pytest.mark.parametrize("text, L_CH", [
    ("İstanbul", 9),  # one all-alphanumeric chunk: "i̇stanbul"
    ("İİ İ", 6),
    ("İstanbul'da", 12),  # the apostrophe sits inside the word
    ("'İ'", 2),  # stand-alone apostrophes are marks, not word characters
    ("¿İ?", 2),  # "¿" only separates
    ("l'İ'x 'a İ-İ", 11),
])
def test_word_characters_count_the_lower_cased_words(text, L_CH):
    assert tokenize(text).L_CH == loop_tokenize(text).L_CH == L_CH

"""The input generator: deterministic per seed, and its counts are the ones
the tokenizer finds."""
import random

import pytest

import gen
from lexigauge import build_profile, tokenize

UNICODE_SAMPLE = (
    "İstanbul'da STRASSE, Straße... “Quoted” ‘single’ don’t o'clock "
    "well-known — ¿Qué pasó? ¡Sí! «niño» año 1863; (parenthetical) 'tis dogs' end…"
)


def _counts_by_tokenize(text: str) -> gen.Counts:
    t = tokenize(text)
    p = build_profile(t)
    return gen.Counts(L=t.L, D=p.D, L_w=t.L_w, L_ph=t.L_ph, L_CH=t.L_CH,
                      freqs=tuple(f for _, f in p.entries))


@pytest.fixture
def small_corpus(monkeypatch):
    monkeypatch.setattr(gen, "CORPUS_TEXTS", 13)
    monkeypatch.setattr(gen, "CORPUS_WORDS", (50, 400))

    def make(seed, out):
        inputs = gen.generate("corpus", seed, out)
        files = {p.relative_to(out): p.read_bytes()
                 for p in sorted(out.rglob("*")) if p.is_file() and p.name != "manifest.csv"}
        return inputs, files

    return make


def test_same_seed_same_inputs_and_other_seed_other_inputs(small_corpus, tmp_path):
    _, a = small_corpus(7, tmp_path / "a")
    _, b = small_corpus(7, tmp_path / "b")
    _, c = small_corpus(8, tmp_path / "c")
    assert a == b
    assert a != c


def test_corpus_has_both_languages_gettysburg_and_bad_entries(small_corpus, tmp_path):
    inputs, _ = small_corpus(3, tmp_path)
    ids = {t.id for t in inputs.texts}
    assert "G1" in ids and set(gen.BAD_ENTRIES) <= ids
    assert {t.language for t in inputs.texts if t.id.startswith("C")} == {"en", "es"}
    assert {t.id for t in inputs.texts if t.counts is None} == set(gen.BAD_ENTRIES)


def test_oracle_counts_agree_with_tokenize_on_generated_texts(small_corpus, tmp_path):
    inputs, _ = small_corpus(5, tmp_path)
    for t in inputs.texts:
        if t.counts is not None:
            assert t.counts == _counts_by_tokenize(t.path.read_text(encoding="utf-8")), t.id


@pytest.mark.parametrize("language", ["en", "es"])
def test_writer_counts_agree_with_tokenize(language):
    rng = random.Random(11)
    text, counts = gen._write_text(rng, gen._Vocabulary(rng, language, 500), min_words=3000)
    assert counts == _counts_by_tokenize(text)
    assert counts == gen.count_symbols(text)


def test_count_symbols_agrees_with_tokenize_on_unicode_sample():
    assert gen.count_symbols(UNICODE_SAMPLE) == _counts_by_tokenize(UNICODE_SAMPLE)
    # case folding is per word: İ folds to "i" plus a combining dot, which
    # would split the word if the whole text were folded first
    assert "i̇stanbul'da" in {s.text for s in tokenize(UNICODE_SAMPLE).symbols}

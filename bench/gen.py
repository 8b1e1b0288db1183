"""Seeded benchmark inputs, written with their true symbol counts.

Every text is built symbol by symbol, so its counts are known without
running any tokenizer. A word's symbol is its surface form with curly
apostrophes straightened, lower-cased as one word: "STRASSE" and "Straße"
are two symbols, and "İstanbul" folds to "i" + U+0307 + "stanbul" exactly as
str.lower() folds the whole word. A mark's symbol is the mark after folding:
curly quotes become straight ones and "..." becomes "…". Spaces, line
breaks and ¿ ¡ « » only separate words and are no symbol.

    python3 bench/gen.py --workload corpus --seed 1 --out DIR

writes the texts, the manifest (corpus only) and oracle.json with the
counts of every text. The benchmark calls generate() directly.
"""
from __future__ import annotations

import argparse
import csv
import itertools
import json
import random
import re
import shutil
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GETTYSBURG = ROOT / "src" / "lexigauge" / "data" / "texts" / "gettysburg_address.txt"

LONG_TEXT_CHARS = 1_000_000
CORPUS_TEXTS = 300
CORPUS_WORDS = (200, 5000)
# ids of the deliberately bad corpus entries and what is wrong with each
BAD_ENTRIES = {"X1": "missing", "X2": "missing", "X3": "bad-utf8", "X4": "bad-utf8"}
TERMINATORS = frozenset(".:;?!…")

COMMON = {
    "en": "the of and to a in that is was he for it with as his on be at by i this "
          "had not are but from or have an they which one you were her all she "
          "there would their we him been has when who will more no if out so said "
          "what up its about into than them can only other new some could time "
          "these two may then do first any my now such like our over man me even "
          "most made after also did many before must through back years where "
          "much your way well down should because each just those people".split(),
    "es": "de la que el en y a los del se las por un para con no una su al lo como "
          "más pero sus le ya o este sí porque esta entre cuando muy sin sobre "
          "también me hasta hay donde quien desde todo nos durante todos uno les "
          "ni contra otros ese eso ante ellos e esto mí antes algunos qué unos yo "
          "otro otras otra él tanto esa estos mucho quienes nada muchos cual poco "
          "ella estar estas algunas algo nosotros".split(),
}
# Accents, internal apostrophes, digits and the letters whose case folding
# changes length (İ, ß), placed at mid ranks so short texts see them too.
SPECIAL = {
    "en": ["don't", "it's", "o'clock", "nation's", "can't", "people's", "café",
           "naïve", "İstanbul", "Straße", "Zürich", "façade", "déjà", "Ærøskøbing",
           "1863", "2024"],
    "es": ["niño", "años", "corazón", "pingüino", "acción", "según", "España",
           "Ñandú", "d'Ors", "l'Empordà", "İzmir", "Straße", "1936"],
}
SYLLABLES = {
    "en": (["b", "c", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s", "t",
            "v", "w", "st", "tr", "pl", "br", "ch", "sh", "th"],
           ["a", "e", "i", "o", "u", "ea", "ou", "ai"],
           ["", "", "n", "r", "s", "t", "l", "nd", "st"]),
    "es": (["b", "c", "d", "f", "g", "j", "l", "m", "n", "ñ", "p", "r", "s", "t",
            "v", "ll", "ch"],
           ["a", "e", "i", "o", "u", "á", "é", "í", "ó", "ú", "ue", "ie"],
           ["", "", "", "n", "s", "r", "l"]),
}
ENDINGS = (".", "?", "!", "...", "…", ";", ":")
ENDING_WEIGHTS = (80, 6, 5, 3, 2, 2, 2)
# (opening mark, closing mark, symbol of both); guillemets are separators
QUOTES = {
    "en": (("“", "”", '"'), ('"', '"', '"')),
    "es": (("“", "”", '"'), ('"', '"', '"'), ("«", "»", None)),
}


@dataclass(frozen=True)
class Counts:
    """True symbol counts of one text: L symbols, D distinct, L_w words,
    L_ph phrase terminators, L_CH characters of the case-folded words, and
    the symbol frequencies in descending order."""
    L: int
    D: int
    L_w: int
    L_ph: int
    L_CH: int
    freqs: tuple[int, ...]

    @classmethod
    def of(cls, symbols: Counter, words: Counter) -> "Counts":
        return cls(
            L=sum(symbols.values()),
            D=len(symbols),
            L_w=sum(words.values()),
            L_ph=sum(c for s, c in symbols.items() if s in TERMINATORS),
            L_CH=sum(len(w) * c for w, c in words.items()),
            freqs=tuple(sorted(symbols.values(), reverse=True)),
        )


@dataclass(frozen=True)
class Text:
    id: str
    language: str  # "en" or "es"
    path: Path
    counts: Counts | None  # None for a deliberately bad entry
    chars: int


@dataclass(frozen=True)
class Inputs:
    texts: tuple[Text, ...]
    manifest: Path | None


def _word_symbol(surface: str) -> str:
    return surface.replace("’", "'").lower()


class _TextWriter:
    """Renders a text while counting the symbols it emits."""

    def __init__(self):
        self.parts: list[str] = []
        self.symbols: Counter = Counter()
        self.words: Counter = Counter()
        self.chars = 0
        self.n_words = 0
        self.glued = True  # the next word follows without a space

    def _put(self, s: str) -> None:
        self.parts.append(s)
        self.chars += len(s)

    def word(self, surface: str) -> None:
        # the hottest line of the generator, hence _put inlined
        if not self.glued:
            self.parts.append(" ")
            self.chars += 1
        self.parts.append(surface)
        self.chars += len(surface)
        symbol = _word_symbol(surface)
        self.symbols[symbol] += 1
        self.words[symbol] += 1
        self.n_words += 1
        self.glued = False

    def close(self, mark: str, symbol: str | None) -> None:
        """A mark attached to the preceding word; symbol None for a separator."""
        self._put(mark)
        if symbol is not None:
            self.symbols[symbol] += 1
        self.glued = False

    def open(self, mark: str, symbol: str | None) -> None:
        """A mark attached to the following word; symbol None for a separator."""
        if not self.glued:
            self._put(" ")
        self._put(mark)
        if symbol is not None:
            self.symbols[symbol] += 1
        self.glued = True

    def join(self, mark: str, symbol: str) -> None:
        """A mark between two words, such as a hyphen or a spaced dash."""
        self._put(mark)
        self.symbols[symbol] += 1
        self.glued = True

    def paragraph(self) -> None:
        self._put("\n\n")
        self.glued = True

    def sentence(self, rng: random.Random, vocab: "_Vocabulary") -> None:
        ending = rng.choices(ENDINGS, ENDING_WEIGHTS)[0]
        quote = rng.choice(QUOTES[vocab.language]) if rng.random() < 0.06 else None
        if quote:
            self.open(quote[0], quote[2])
        if vocab.language == "es" and ending in "?!":
            self.open("¿" if ending == "?" else "¡", None)
        words = rng.choices(vocab.words, cum_weights=vocab.cum_weights, k=rng.randint(3, 24))
        paren = False
        for i, w in enumerate(words):
            r = rng.random()
            if i == 0:
                w = w[0].upper() + w[1:]
            elif r < 0.004:
                w = w.upper()
            elif r < 0.008 and not paren:
                self.open(*rng.choice((("‘", "'"), ("'", "'"))))
                self.word(w)
                self.close(*rng.choice((("’", "'"), ("'", "'"))))
                continue
            elif r < 0.02 and not paren and i < len(words) - 1:
                self.open("(", "(")
                paren = True
            if "'" in w and rng.random() < 0.3:
                w = w.replace("'", "’")
            self.word(w)
            if paren and rng.random() < 0.4:
                self.close(")", ")")
                paren = False
            if i < len(words) - 1:
                r = rng.random()
                if r < 0.07:
                    self.close(",", ",")
                elif r < 0.085:
                    self.join("-", "-")
                elif r < 0.09:
                    self.join(" — ", "—")
        if paren:
            self.close(")", ")")
        self.close(ending, "…" if ending == "..." else ending)
        if quote:
            self.close(quote[1], quote[2])

    def counts(self) -> Counts:
        return Counts.of(self.symbols, self.words)


class _Vocabulary:
    """Words of one language with Zipf-Mandelbrot weights 1/(r + 2.7)^1.05."""

    def __init__(self, rng: random.Random, language: str, size: int):
        onsets, vowels, codas = SYLLABLES[language]
        words = list(COMMON[language])
        seen = {_word_symbol(w) for w in words + SPECIAL[language]}
        tail = []
        while len(words) + len(SPECIAL[language]) + len(tail) < size:
            w = "".join(rng.choice(onsets) + rng.choice(vowels) + rng.choice(codas)
                        for _ in range(rng.randint(1, 3)))
            if w not in seen:
                seen.add(w)
                tail.append(w)
        specials = list(SPECIAL[language])
        rng.shuffle(specials)
        self.language = language
        self.words = words + tail[:100] + specials + tail[100:]
        self.cum_weights = list(itertools.accumulate(
            1.0 / (r + 2.7) ** 1.05 for r in range(1, len(self.words) + 1)))


def _write_text(rng, vocab, *, min_words=0, min_chars=0) -> tuple[str, Counts]:
    b = _TextWriter()
    n = 0
    while not (b.n_words >= min_words and b.chars >= min_chars):
        if n and rng.random() < 0.18:
            b.paragraph()
        b.sentence(rng, vocab)
        n += 1
    b._put("\n")
    return "".join(b.parts), b.counts()


def count_symbols(text: str) -> Counts:
    """Counts of an existing text, by a regular-expression reading of the
    tokenization rules: alphanumeric runs joined by internal apostrophes are
    words, each listed mark is a symbol, anything else separates."""
    text = (text.replace("‘", "'").replace("’", "'").replace("“", '"')
            .replace("”", '"').replace("...", "…"))
    symbols: Counter = Counter()
    words: Counter = Counter()
    for m in re.finditer(r"[^\W_]+(?:'[^\W_]+)*|[.,;:?!…()\"'—-]", text):
        s = m.group()
        if s[0].isalnum():
            s = s.lower()
            words[s] += 1
        symbols[s] += 1
    return Counts.of(symbols, words)


def generate_long_text(seed: int, out: Path) -> Inputs:
    """One English text of LONG_TEXT_CHARS characters."""
    rng = random.Random(f"long_text:{seed}")
    text, counts = _write_text(rng, _Vocabulary(rng, "en", 40_000), min_chars=LONG_TEXT_CHARS)
    path = out / "long_text.txt"
    path.write_text(text, encoding="utf-8")
    return Inputs((Text("L1", "en", path, counts, len(text)),), None)


def generate_corpus(seed: int, out: Path) -> Inputs:
    """CORPUS_TEXTS manifest entries: the bundled Gettysburg text, the bad
    entries, and generated texts, half English and half Spanish, with word
    counts log-uniform over CORPUS_WORDS. Lengths are drawn one per stratum
    so every seed covers the range the same way."""
    rng = random.Random(f"corpus:{seed}")
    vocabs = {lang: _Vocabulary(rng, lang, 20_000) for lang in ("en", "es")}
    texts_dir = out / "texts"
    texts_dir.mkdir()
    n = CORPUS_TEXTS - 1 - len(BAD_ENTRIES)
    lo, hi = CORPUS_WORDS
    lengths = [round(lo * (hi / lo) ** ((i + rng.random()) / n)) for i in range(n)]
    languages = ["en", "es"] * (n // 2) + ["en"] * (n % 2)
    rng.shuffle(languages)
    texts = []
    for i, (words, lang) in enumerate(zip(lengths, languages), start=1):
        text, counts = _write_text(rng, vocabs[lang], min_words=words)
        path = texts_dir / f"C{i:03d}.txt"
        path.write_text(text, encoding="utf-8")
        texts.append(Text(f"C{i:03d}", lang, path, counts, len(text)))
    path = texts_dir / "gettysburg_address.txt"
    shutil.copyfile(GETTYSBURG, path)
    raw = path.read_text(encoding="utf-8")
    texts.append(Text("G1", "en", path, count_symbols(raw), len(raw)))
    for bad_id, kind in BAD_ENTRIES.items():
        path = texts_dir / f"{bad_id}.txt"
        if kind == "bad-utf8":
            text, _ = _write_text(rng, vocabs["en"], min_words=300)
            data = text.encode("utf-8")
            path.write_bytes(data[: len(data) // 2] + b"\xff\xfe\xc3(" + data[len(data) // 2:])
        texts.append(Text(bad_id, "en", path, None, 0))
    rng.shuffle(texts)

    manifest = out / "manifest.csv"
    with open(manifest, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("id", "name", "genre", "origin", "language", "nobel", "year",
                         "source_path"))
        for t in texts:
            year = 1900 + rng.randrange(125)
            writer.writerow((t.id, f"{year}.{t.id}", "S", rng.choice("OT"), t.language.upper(),
                             rng.choice(("true", "false")), year, t.path))
    return Inputs(tuple(texts), manifest)


GENERATORS = {"long_text": generate_long_text, "corpus": generate_corpus}


def generate(workload: str, seed: int, out: Path) -> Inputs:
    """Write the inputs of a workload under out plus oracle.json."""
    out.mkdir(parents=True, exist_ok=True)
    inputs = GENERATORS[workload](seed, out)
    oracle = {t.id: t.counts and vars(t.counts) for t in inputs.texts}
    (out / "oracle.json").write_text(json.dumps(oracle), encoding="utf-8")
    return inputs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path, help="new directory for the inputs")
    args = parser.parse_args()
    inputs = generate(args.workload, args.seed, args.out)
    print(f"wrote {len(inputs.texts)} texts to {args.out}")


if __name__ == "__main__":
    main()

"""Symbol-stream tokenization.

A text is read as a stream of symbols: lower-cased words and individual
punctuation marks. Whitespace separates words and is discarded; characters
outside the word and punctuation alphabets act as separators too. The counts
collected here (symbols, words, phrase terminators, word characters) feed the
diversity, entropy, and readability computations downstream.
"""
from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import filterfalse
from operator import mul

# Marks counted as symbols in their own right. Everything else that is not a
# word character simply separates words.
PUNCTUATION = frozenset({".", ",", ";", ":", "?", "!", "…", "(", ")",
                         '"', "'", "—", "-"})

# Marks that end a phrase: period, colon, semicolon, question and exclamation
# marks, ellipsis.
PHRASE_TERMINATORS = frozenset({".", ":", ";", "?", "!", "…"})

# Typographic variants folded to the marks above before tokenizing.
_NORMALIZE = {
    "‘": "'", "’": "'",
    "“": '"', "”": '"',
}

# One symbol: a run of word characters ([^\W_] is exactly str.isalnum) with
# apostrophes allowed between two word characters, or one punctuation mark.
_SYMBOL = re.compile(r"[^\W_]+(?:'[^\W_]+)*|["
                     + "".join(re.escape(ch) for ch in sorted(PUNCTUATION)) + "]")

# Marks that are a symbol wherever they occur and separate words as
# whitespace does; the apostrophe is not one, as it can sit inside a word.
_MARKS = tuple(sorted(PUNCTUATION - {"'"}))


class TokenKind(Enum):
    WORD = "word"
    PUNCTUATION = "punctuation"


@dataclass(frozen=True)
class SymbolToken:
    text: str
    kind: TokenKind


@dataclass(frozen=True)
class TokenizedText:
    """Symbol counts of a text.

    counts maps each symbol to its number of occurrences. Its order carries
    no meaning (punctuation marks come first, symbols re-counted through the
    regex last), and nothing downstream reads it. L is the total symbol
    count, L_w the word count, L_ph the raw count of phrase-terminator tokens
    (no floor applied; see readability_inputs), and L_CH the number of
    characters of the lower-cased words ("İ" counts 2: "i" and a combining
    dot). normalized is the text the symbols were read from.
    """
    counts: dict[str, int]
    L: int
    L_w: int
    L_ph: int
    L_CH: int
    normalized: str = field(default="", repr=False, compare=False)

    @property
    def symbols(self) -> tuple[SymbolToken, ...]:
        """The symbol sequence, scanned again from the normalized text."""
        return tuple(
            SymbolToken(m, TokenKind.PUNCTUATION) if m in PUNCTUATION
            else SymbolToken(m.lower(), TokenKind.WORD)
            for m in _SYMBOL.findall(self.normalized)
        )


def tokenize(raw: str) -> TokenizedText:
    """Convert raw text to symbol counts.

    Words are case-folded to lower case. Apostrophes between two word
    characters stay inside the word ("don't"); any other apostrophe is a
    punctuation symbol. Hyphens always split words and are kept as symbols.
    A three-dot run collapses to one ellipsis symbol. The rules are language
    independent.
    """
    text = raw
    for src, dst in _NORMALIZE.items():
        text = text.replace(src, dst)
    text = text.replace("...", "…")

    # Each mark is counted, then blanked out. A symbol never spans whitespace,
    # so the regex's matches are those of each whitespace-split chunk, and a
    # chunk that is all alphanumeric is one word. Every chunk is counted
    # lower-cased, then each distinct other chunk trades its count for those
    # of its symbols. Case is folded per chunk or symbol, never over the
    # whole text, which would split words at "İ" and fold "Σ" by its
    # neighbours.
    counts = Counter()
    blanked = text
    for mark in _MARKS:
        n = blanked.count(mark)
        if n:
            counts[mark] = n
            blanked = blanked.replace(mark, " ")
    chunks = blanked.split()
    del blanked  # a copy of the text; let it go before counting
    counts.update(map(str.lower, chunks))
    for chunk, n in Counter(filterfalse(str.isalnum, chunks)).items():
        key = chunk.lower()
        counts[key] -= n
        if not counts[key]:
            del counts[key]
        for symbol in _SYMBOL.findall(chunk):
            counts[symbol.lower()] += n
    L = sum(counts.values())
    L_w = L - sum(counts[m] for m in PUNCTUATION)
    return TokenizedText(
        counts=counts, L=L, L_w=L_w, L_ph=sum(counts[m] for m in PHRASE_TERMINATORS),
        # each of the L - L_w punctuation marks is one character long
        L_CH=sum(map(mul, map(len, counts), counts.values())) - (L - L_w), normalized=text)


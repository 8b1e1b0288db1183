"""Reference tokenizer for the equivalence tests: the character-by-character
loop that lexigauge.tokenizer.tokenize must agree with, symbol for symbol."""
from __future__ import annotations

from dataclasses import dataclass

from lexigauge.tokenizer import _NORMALIZE, PHRASE_TERMINATORS, PUNCTUATION, SymbolToken, TokenKind


@dataclass(frozen=True)
class LoopTokens:
    symbols: tuple[SymbolToken, ...]
    L: int
    L_w: int
    L_ph: int
    L_CH: int


def _is_word_char(ch: str) -> bool:
    return ch.isalnum()


def loop_tokenize(raw: str) -> LoopTokens:
    text = raw
    for src, dst in _NORMALIZE.items():
        text = text.replace(src, dst)
    text = text.replace("...", "…")

    symbols: list[SymbolToken] = []
    word: list[str] = []

    def flush() -> None:
        if word:
            symbols.append(SymbolToken("".join(word).lower(), TokenKind.WORD))
            word.clear()

    n = len(text)
    for i, ch in enumerate(text):
        if _is_word_char(ch):
            word.append(ch)
        elif ch == "'" and word and i + 1 < n and _is_word_char(text[i + 1]):
            # internal apostrophe: preceded and followed by word characters
            word.append(ch)
        elif ch in PUNCTUATION:
            flush()
            symbols.append(SymbolToken(ch, TokenKind.PUNCTUATION))
        else:
            flush()

    flush()

    L_w = sum(1 for s in symbols if s.kind is TokenKind.WORD)
    L_ph = sum(1 for s in symbols
               if s.kind is TokenKind.PUNCTUATION and s.text in PHRASE_TERMINATORS)
    L_CH = sum(len(s.text) for s in symbols if s.kind is TokenKind.WORD)
    return LoopTokens(symbols=tuple(symbols), L=len(symbols), L_w=L_w, L_ph=L_ph, L_CH=L_CH)

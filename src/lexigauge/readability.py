"""Reading-ease scores from tokenizer counts.

English texts score with Flesch's reading ease (res), Spanish with a
perspicuity formula (ipsz). Both are affine in the syllables-per-word rate
W and the words-per-phrase rate S and differ only in the phrase
coefficient, so ipsz - res = 0.015 * S identically. Scores are reported raw,
without clamping to [0, 100].

Sources: 206.835, 84.6 and 1.015 are Flesch's (R. Flesch, "A new
readability yardstick", J. Appl. Psychol. 32, 1948; his 0.846 per 100 words
is 84.6 per word). Szigriszt's index as usually published (F. Szigriszt
Pazos 1993; the INFLESZ scale, Barrio-Cantalejo et al. 2008) is 206.835 -
62.3 W - S: ipsz keeps its 206.835 and phrase term but takes Flesch's 84.6
for W, and no file in this repository gives a source for 84.6 in Spanish.

Syllables are estimated from character counts, L_SY = L_CH / c_sy, with the
characters-per-syllable constant of language_params.csv (English 3.57,
Spanish 2.94); no file in this repository says where those values come from.
"""
from __future__ import annotations

from dataclasses import dataclass

from .models import LanguageParams
from .tokenizer import TokenizedText


@dataclass(frozen=True)
class ReadabilityInputs:
    W: float
    S: float


def readability_inputs(t: TokenizedText, params: LanguageParams) -> ReadabilityInputs:
    """W = (L_CH / c_sy) / L_w, the estimated syllables per word, and
    S = L_w / L_ph, with the phrase count floored at 1 so text without a
    terminator still scores."""
    if t.L_w == 0:
        raise ValueError("readability undefined for a text with no words")
    return ReadabilityInputs(W=t.L_CH / params.c_sy / t.L_w, S=t.L_w / max(t.L_ph, 1))


def res(inputs: ReadabilityInputs) -> float:
    """Flesch reading ease (1948): 206.835 - 84.6 W - 1.015 S."""
    return 206.835 - 84.6 * inputs.W - 1.015 * inputs.S


def ipsz(inputs: ReadabilityInputs) -> float:
    """Perspicuity: 206.835 - 84.6 W - S (published with 62.3 W; see above)."""
    return 206.835 - 84.6 * inputs.W - inputs.S


def score(inputs: ReadabilityInputs, params: LanguageParams) -> float:
    """Language-dispatched score: res for English, ipsz for Spanish."""
    return res(inputs) if params.language.code == "EN" else ipsz(inputs)

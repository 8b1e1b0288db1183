"""End-to-end per-text analysis: tokenize, profile, fit, score, scale.

analyze_text produces one TextMetrics record per text, mirroring a row of
the bundled metric tables plus the intermediate counts. analyze_corpus maps
it over a manifest, quarantining per-text data failures so one bad file
cannot abort a batch run; other exceptions are bugs and propagate.
"""
from __future__ import annotations

from dataclasses import dataclass

from .corpus import CorpusEntry, Language, load_text
from .models import (
    LanguageParams,
    entropy_model_predict,
    heaps_predict,
    relative_diversity,
    relative_entropy,
)
from .profile import build_profile, entropy, specific_diversity
from .readability import readability_inputs, score
from .tokenizer import tokenize
from .wqs import StylePoint, wqs
from .zipf import fit_zipf_exponent, zipf_deviation


@dataclass(frozen=True)
class TextMetrics:
    entry: CorpusEntry
    L: int
    D: int
    d: float
    h: float
    g: float
    j: float
    d_rel: float
    h_rel: float
    W: float
    S: float
    readability: float
    wqs_verbatim: float
    wqs_reconstructed: float


class AnalysisError(Exception):
    """A per-text failure, tagged with the entry id it came from."""

    def __init__(self, entry_id: str, cause: Exception):
        super().__init__(f"{entry_id}: {cause}")
        self.entry_id = entry_id
        self.cause = cause


def analyze_text(
    entry: CorpusEntry,
    params: LanguageParams,
    text: str | None = None,
    zipf_g: float | None = None,
) -> TextMetrics:
    """Full metric record for one text. text, when given, bypasses the file
    load; zipf_g, when given, replaces the fitted exponent. Profiles with
    fewer than 3 ranks carry no usable slope information, so g falls back
    to 0 there (the deviation j is then measured against a flat reference).
    """
    try:
        raw = text if text is not None else load_text(entry)
        t = tokenize(raw)
        p = build_profile(t)
        d = specific_diversity(p)
        h = entropy(p)
        if zipf_g is not None:
            g = zipf_g
        elif p.D >= 3:
            g = fit_zipf_exponent(p)
        else:
            g = 0.0
        j = zipf_deviation(p, g)
        d_rel = relative_diversity(p.D, heaps_predict(params, t.L))
        h_rel = relative_entropy(h, entropy_model_predict(params, d))
        inputs = readability_inputs(t, params)
        point = StylePoint(d_rel, h_rel, j)
        return TextMetrics(
            entry=entry,
            L=t.L,
            D=p.D,
            d=d,
            h=h,
            g=g,
            j=j,
            d_rel=d_rel,
            h_rel=h_rel,
            W=inputs.W,
            S=inputs.S,
            readability=score(inputs, params),
            wqs_verbatim=wqs(params.wqs_preset, point),
            wqs_reconstructed=wqs(params.wqs_reconstructed, point),
        )
    except (ValueError, OSError, ArithmeticError) as exc:
        raise AnalysisError(entry.id, exc) from exc


def analyze_corpus(
    manifest: list[CorpusEntry],
    params: dict[Language, LanguageParams],
) -> tuple[list[TextMetrics], list[AnalysisError]]:
    """Analyze every manifest entry. Returns records in manifest order plus
    the failures that were skipped."""
    records: list[TextMetrics] = []
    errors: list[AnalysisError] = []
    for entry in manifest:
        lang_params = params.get(entry.language)
        if lang_params is None:
            errors.append(AnalysisError(entry.id, ValueError(f"no parameters for {entry.language.value}")))
            continue
        try:
            records.append(analyze_text(entry, lang_params))
        except AnalysisError as exc:
            errors.append(exc)
    return records, errors

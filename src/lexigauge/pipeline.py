"""End-to-end per-text analysis: tokenize, profile, fit, score, scale.

analyze_text produces one TextMetrics record per text, mirroring a row of
the bundled metric tables plus the intermediate counts; a per-text data
failure raises AnalysisError, and other exceptions are bugs. write_report
writes the records as a report, one row per record, and load_report reads it.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, fields
from pathlib import Path

from ._data import read_csv
from .corpus import CorpusEntry, load_text
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
    """A per-text failure. Its message is "<entry id>: <cause>", and the
    data error that caused it is its __cause__."""


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
        raise AnalysisError(f"{entry.id}: {exc}") from exc


SCHEMA = "lexigauge-report-v1"


def _count(cell: str) -> int:
    """An int report cell. One past float range, which no text's count
    reaches and no model curve can take, raises OverflowError."""
    n = int(cell)
    float(n)
    return n


# the entry's four columns, then every TextMetrics field after entry, which
# load_report reads as the field's type (f.type is the annotation's text)
_METRIC_TYPES = {f.name: _count if f.type == "int" else float for f in fields(TextMetrics)[1:]}
REPORT_COLUMNS = ("id", "name", "genre", "origin", *_METRIC_TYPES)
_REPORT_FLOATS = tuple(c for c, t in _METRIC_TYPES.items() if t is float)


def _record_values(m: TextMetrics) -> dict:
    """Report values in REPORT_COLUMNS order: the entry's fields, then the
    TextMetrics attribute of the same name for every other column, floats
    as text at the printed precision of 6 decimals."""
    e = m.entry
    values = {"id": e.id, "name": e.name, "genre": e.genre.value, "origin": e.origin.value}
    values.update((c, getattr(m, c)) for c in REPORT_COLUMNS if c not in values)
    values.update((c, f"{values[c]:.6f}") for c in _REPORT_FLOATS)
    return values


def write_report(records: list[TextMetrics], fmt: str, stream) -> None:
    """Serialize records as delimited text (csv) or line-delimited records
    (jsonl). Both carry the schema version; both are deterministic."""
    rows = [_record_values(m) for m in records]
    if fmt == "csv":
        stream.write(f"# schema: {SCHEMA}\n")
        writer = csv.DictWriter(stream, REPORT_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    elif fmt == "jsonl":
        for values in rows:
            values.update((c, float(values[c])) for c in _REPORT_FLOATS)
            stream.write(json.dumps({"schema": SCHEMA, **values}) + "\n")
    else:
        raise ValueError(f"unknown report format {fmt!r}")


def load_report(path: str | Path) -> list[dict]:
    """Parse a csv report written by write_report back into typed records
    (ints for counts, floats for metrics). `#` lines before the header are
    comments. A malformed row or a jsonl report raises ValueError."""
    records: list[dict] = []
    header, rows = read_csv(path)
    if header is None:
        return records
    if header and header[0].startswith("{"):
        raise ValueError(f"{path}: a jsonl report; only the csv form (analyze --format csv) is read")
    missing = [c for c in REPORT_COLUMNS if c not in header]
    if missing:
        raise ValueError(f"{path}: report missing columns {missing}")
    for line, row in rows:
        rec: dict = {}
        try:
            for col in REPORT_COLUMNS:
                rec[col] = _METRIC_TYPES.get(col, str)(row[col])
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"{path}:{line}: malformed report row ({col}): {exc}") from exc
        records.append(rec)
    return records

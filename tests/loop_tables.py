"""Reference table reader for the equivalence tests: the csv.DictReader loader
that lexigauge.corpus.load_reference_table must agree with row for row, and
the per-row digests that verify computed by reading each table again."""
from __future__ import annotations

import csv
import hashlib
from pathlib import Path

from lexigauge.corpus import (
    CorpusEntry,
    Genre,
    Language,
    Origin,
    REFERENCE_COLUMNS,
    ReferenceRow,
    _parse_bool,
)

METRICS = ("d", "h", "d_rel", "h_rel", "j", "readability", "wqs")


def _data_lines(path: str | Path) -> tuple[list[str], Language | None, bool | None]:
    language = nobel = None
    data_lines: list[str] = []
    with open(path, newline="", encoding="utf-8") as fh:
        for raw in fh:
            if raw.startswith("#"):
                body = raw[1:].strip()
                if body.lower().startswith("language:") and language is None:
                    language = Language.parse(body.split(":", 1)[1])
                elif body.lower().startswith("nobel:") and nobel is None:
                    nobel = _parse_bool(body.split(":", 1)[1], str(path))
                continue
            data_lines.append(raw)
    return data_lines, language, nobel


def loop_load_reference_table(path: str | Path) -> list[ReferenceRow]:
    data_lines, language, nobel = _data_lines(path)
    if language is None or nobel is None:
        raise ValueError(f"{path}: missing language/nobel directives")
    rows: list[ReferenceRow] = []
    reader = csv.DictReader(data_lines)
    if reader.fieldnames is None:
        return rows
    missing = [c for c in REFERENCE_COLUMNS if c not in reader.fieldnames]
    if missing:
        raise ValueError(f"{path}: reference table missing columns {missing}")
    for row in reader:
        rid = row["id"].strip()
        entry = CorpusEntry(
            id=rid, name=row["name"].strip(), genre=Genre(row["genre"].strip()),
            language=language, origin=Origin(row["origin"].strip()), nobel=nobel,
        )
        metrics = {}
        for field in METRICS:
            try:
                metrics[field] = float(row[field])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path} row {rid}: non-numeric {field}={row[field]!r}") from exc
        rows.append(ReferenceRow(entry=entry, **metrics))
    return rows


def loop_digests(path: str | Path) -> list[tuple[str, str]]:
    """(id, digest) of each row, the id as written: the md5 of the seven metric
    cells joined by "|", as the integrity sidecar records it."""
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(r for r in fh if not r.startswith("#"))
        for row in reader:
            blob = "|".join(row[c] for c in METRICS)
            out.append((row["id"], hashlib.md5(blob.encode()).hexdigest()[:10]))
    return out

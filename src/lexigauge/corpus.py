"""Corpus manifests, raw text loading, reference tables, and group selection.

Reference tables are the bundled per-group metric files under data/. A
table's file name fixes its group (see BUNDLED_TABLES); its `#` lines are
plain comments.
"""
from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from typing import NoReturn

from ._data import data_path, read_csv, read_table

_YEAR_PREFIX = re.compile(r"^(\d{4})\.")


class Genre(Enum):
    SPEECH = "S"
    NOVEL_SEGMENT = "N"


class Language(Enum):
    ENGLISH = "English"
    SPANISH = "Spanish"

    @property
    def code(self) -> str:
        return "EN" if self is Language.ENGLISH else "ES"

    @classmethod
    def parse(cls, text: str) -> "Language":
        key = text.strip().lower()
        for lang in cls:
            if key in (lang.value.lower(), lang.code.lower()):
                return lang
        raise ValueError(f"unknown language {text!r} (expected English/EN or Spanish/ES)")


class Origin(Enum):
    ORIGINAL = "O"
    TRANSLATION = "T"


@dataclass(slots=True)
class CorpusEntry:
    id: str
    name: str
    genre: Genre
    language: Language
    origin: Origin
    nobel: bool
    year: int | None = None
    source_path: str | None = None

    def __post_init__(self):
        if self.year is not None and not 1300 <= self.year <= 2100:
            raise ValueError(f"entry {self.id}: year {self.year} outside 1300..2100")


@dataclass(slots=True)
class ReferenceRow:
    """One row of a bundled metric table: recorded per-text results used as
    ground truth by the statistics commands."""
    entry: CorpusEntry
    d: float
    h: float
    d_rel: float
    h_rel: float
    j: float
    readability: float
    wqs: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.d, self.h, self.d_rel, self.h_rel, self.j,
                                       self.readability, self.wqs))):
            field = next(f for f in METRIC_FIELDS if not math.isfinite(getattr(self, f)))
            raise ValueError(f"row {self.entry.id}: non-finite {field}")
        if not 0.0 <= self.d <= 1.0:
            raise ValueError(f"row {self.entry.id}: d={self.d} outside [0,1]")
        if not 0.0 <= self.h <= 1.0:
            raise ValueError(f"row {self.entry.id}: h={self.h} outside [0,1]")


@dataclass(frozen=True)
class GroupKey:
    language: Language
    nobel: bool


def _parse_year(name: str) -> int | None:
    m = _YEAR_PREFIX.match(name)
    return int(m.group(1)) if m else None


def _parse_bool(text: str, where: str) -> bool:
    key = text.strip().lower()
    if key in ("true", "1", "yes"):
        return True
    if key in ("false", "0", "no"):
        return False
    raise ValueError(f"{where}: bad boolean {text!r}")


MANIFEST_COLUMNS = ("id", "name", "genre", "origin", "language", "nobel", "year", "source_path")


def load_manifest(path: str | Path) -> list[CorpusEntry]:
    """Read a corpus manifest; `#` lines before the header are comments.
    Missing year falls back to a leading 'YYYY.' prefix of the name; empty
    source_path means no text on disk."""
    entries: list[CorpusEntry] = []
    seen: set[str] = set()
    header, rows = read_csv(path)
    if header is None:
        return entries
    missing = [c for c in MANIFEST_COLUMNS[:6] if c not in header]
    if missing:
        raise ValueError(f"{path}: manifest missing columns {missing}")
    for line, row in rows:
        where = f"{path}:{line}"
        try:
            genre = Genre(row["genre"].strip())
            origin = Origin(row["origin"].strip())
            language = Language.parse(row["language"])
            nobel = _parse_bool(row["nobel"], where)
            year_text = (row.get("year") or "").strip()
            year = int(year_text) if year_text else _parse_year(row["name"])
            source = (row.get("source_path") or "").strip() or None
            entry = CorpusEntry(
                id=row["id"].strip(), name=row["name"].strip(), genre=genre,
                language=language, origin=origin, nobel=nobel,
                year=year, source_path=source,
            )
        except (KeyError, ValueError) as exc:
            raise ValueError(f"{where}: malformed manifest row: {exc}") from exc
        if entry.id in seen:
            raise ValueError(f"{where}: duplicate id {entry.id!r}")
        seen.add(entry.id)
        entries.append(entry)
    return entries


# the recorded metrics of a row, in table order: every ReferenceRow field after entry
METRIC_FIELDS = tuple(f.name for f in fields(ReferenceRow)[1:])
REFERENCE_COLUMNS = ("id", "name", "genre", "origin", *METRIC_FIELDS)

_GENRES = {g.value: g for g in Genre}
_ORIGINS = {o.value: o for o in Origin}


def load_reference_table(
    path: str | Path,
    language: Language,
    nobel: bool,
    cells: list[tuple[str, list[str]]] | None = None,
) -> list[ReferenceRow]:
    """Read one metric table of the group (language, nobel). If cells is
    given, each row's id and seven metric cells, exactly as written, are
    appended to it. A malformed row, or an id already in the table, raises
    ValueError naming its line."""
    rows: list[ReferenceRow] = []
    seen: set[str] = set()
    for line, (raw_id, name, genre, origin, *numeric) in read_table(path, REFERENCE_COLUMNS):
        rid = raw_id.strip()
        if rid in seen:
            raise ValueError(f"{path}:{line}: duplicate id {rid!r}")
        seen.add(rid)
        try:
            name = name.strip()
            entry = CorpusEntry(rid, name, _GENRES[genre.strip()], language,
                                _ORIGINS[origin.strip()], nobel, _parse_year(name))
            rows.append(ReferenceRow(entry, *map(float, numeric)))
        except (KeyError, ValueError) as exc:
            _raise_row_error(f"{path}:{line}", rid, genre, origin, numeric, exc)
        if cells is not None:
            cells.append((raw_id, numeric))
    return rows


def _raise_row_error(where: str, rid: str, genre: str, origin: str, numeric: list[str],
                     exc: Exception) -> NoReturn:
    """Raise the first fault of a row that failed to load: a bad genre or origin,
    a non-numeric cell, else exc (a failed CorpusEntry/ReferenceRow check)."""
    cause = str(exc)
    if genre.strip() not in _GENRES:
        cause = f"row {rid}: bad genre {genre!r} (expected S or N)"
    elif origin.strip() not in _ORIGINS:
        cause = f"row {rid}: bad origin {origin!r} (expected O or T)"
    else:
        for field, cell in zip(METRIC_FIELDS, numeric):
            try:
                float(cell)
            except ValueError:
                cause = f"row {rid}: non-numeric {field}={cell!r}"
                break
    raise ValueError(f"{where}: {cause}") from exc


BUNDLED_TABLES = (
    ("english_non_nobel.csv", Language.ENGLISH, False),
    ("english_nobel.csv", Language.ENGLISH, True),
    ("spanish_non_nobel.csv", Language.SPANISH, False),
    ("spanish_nobel.csv", Language.SPANISH, True),
)


def load_bundled_tables(
    cells: dict[str, list[tuple[str, list[str]]]] | None = None,
) -> list[ReferenceRow]:
    """All four bundled metric tables concatenated (LEXIGAUGE_PRESET_DIR
    overrides the directory). If cells is given, it maps each table's file
    name to its rows' raw cells (see load_reference_table)."""
    rows: list[ReferenceRow] = []
    for name, language, nobel in BUNDLED_TABLES:
        table_cells = None if cells is None else cells.setdefault(name, [])
        rows.extend(load_reference_table(data_path(name), language, nobel, table_cells))
    return rows


def select_group(rows: list[ReferenceRow], key: GroupKey) -> list[ReferenceRow]:
    """Statistical group membership: speeches only; laureate groups keep
    original-language texts only, non-laureate groups keep translations too."""
    return [row for row in rows if (e := row.entry).language is key.language
            and e.nobel is key.nobel and e.genre is Genre.SPEECH
            and (not key.nobel or e.origin is Origin.ORIGINAL)]


def load_text(entry: CorpusEntry) -> str:
    """Raw UTF-8 text for an entry, line endings untranslated. Missing-path,
    missing-file, and bad-bytes problems raise distinct error types; the
    callers name the entry and path."""
    if not entry.source_path:
        raise ValueError("no source text")
    if not os.path.isfile(entry.source_path):  # a directory or a FIFO too
        raise FileNotFoundError("source text not found")
    with open(entry.source_path, "rb") as fh:
        return fh.read().decode("utf-8")

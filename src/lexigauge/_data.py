"""Locate bundled data files, honoring the LEXIGAUGE_PRESET_DIR override, and
read the CSV tables among them."""
from __future__ import annotations

import csv
import os
from collections.abc import Iterator
from importlib import resources
from operator import itemgetter
from pathlib import Path

ENV_VAR = "LEXIGAUGE_PRESET_DIR"


def data_dir() -> Path:
    """Directory holding the bundled CSV tables. LEXIGAUGE_PRESET_DIR, when
    set, replaces it wholesale so users can point at their own tables."""
    override = os.environ.get(ENV_VAR)
    if override:
        return Path(override)
    return Path(resources.files("lexigauge") / "data")


def data_path(name: str) -> Path:
    path = data_dir() / name
    if not path.is_file():
        raise FileNotFoundError(
            f"bundled data file {name!r} not found in {data_dir()} "
            f"(set {ENV_VAR} to a directory containing it, or unset it)"
        )
    return path


def read_table(path: str | Path, columns: tuple[str, ...]) -> Iterator[tuple[int, tuple[str, ...]]]:
    """Read a CSV file in which every line starting with `#` is a comment.
    The iterator returned yields (line, cells) for each non-blank record after
    the header: line is the physical line the record ends on, cells are its
    cells under columns, in that order. A header lacking one of columns, or a
    record with fewer cells than the header, raises ValueError naming the
    file or the line."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = fh.readlines()
    data: list[str] = []
    numbers: list[int] = []
    for number, line in enumerate(lines, start=1):
        if not line.startswith("#"):
            data.append(line)
            numbers.append(number)

    def records() -> Iterator[tuple[int, tuple[str, ...]]]:
        reader = csv.reader(data)
        header = next(reader, [])
        missing = [c for c in columns if c not in header]
        if missing:
            raise ValueError(f"{path}: missing columns {missing}")
        index = {c: i for i, c in enumerate(header)}  # the last of repeated names, as DictReader
        pick = itemgetter(*(index[c] for c in columns))
        for cells in reader:
            if len(cells) >= len(header):
                yield numbers[reader.line_num - 1], pick(cells)
            elif cells:
                raise ValueError(f"{path}:{numbers[reader.line_num - 1]}: short row: "
                                 f"{len(cells)} cells, the header has {len(header)}")

    return records()

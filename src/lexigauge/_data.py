"""Locate bundled data files, honoring the LEXIGAUGE_PRESET_DIR override, and
read the CSV tables among them."""
from __future__ import annotations

import csv
import io
import os
from operator import itemgetter
from pathlib import Path

ENV_VAR = "LEXIGAUGE_PRESET_DIR"


def data_dir() -> Path:
    """Directory holding the bundled CSV tables. LEXIGAUGE_PRESET_DIR, when
    set, replaces it wholesale so users can point at their own tables."""
    override = os.environ.get(ENV_VAR)
    if override:
        return Path(override)
    return Path(__file__).with_name("data")


def data_path(name: str) -> Path:
    path = data_dir() / name
    if not path.is_file():
        raise FileNotFoundError(
            f"bundled data file {name!r} not found in {data_dir()} "
            f"(set {ENV_VAR} to a directory containing it, or unset it)"
        )
    return path


def read_lines(path: str | Path) -> list[str]:
    """The lines of a UTF-8 file, each with its ending, split as
    open(newline="") splits them: on \\n, \\r and \\r\\n only. A leading
    byte-order mark is dropped. Bytes that are not UTF-8 raise ValueError
    naming the file and the line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ValueError(f"{path}:{line}: not UTF-8 (byte 0x{data[exc.start]:02x} at offset "
                         f"{exc.start}: {exc.reason})") from exc
    # dropped after decoding, so the offsets above count the mark's 3 bytes
    return io.StringIO(text.removeprefix("\ufeff"), newline="").readlines()


def read_csv(path: str | Path) -> tuple[csv.DictReader, int]:
    """A reader over a CSV file after its leading `#` comment lines, and the
    number of those lines: a row ends on physical line comments + line_num.
    A short row's missing cells read as empty. Bytes that are not UTF-8 raise
    ValueError naming the file and the line."""
    lines = read_lines(path)
    comments = next((i for i, line in enumerate(lines) if not line.startswith("#")), len(lines))
    return csv.DictReader(lines[comments:], restval=""), comments


def read_table(path: str | Path, columns: tuple[str, ...]) -> list[tuple[int, tuple[str, ...]]]:
    """Read a CSV file in which every line starting with `#` is a comment.
    The list returned holds (line, cells) for each non-blank record after the
    header: line is the physical line the record ends on, cells are its cells
    under columns, in that order. A header lacking one of columns, a record
    with fewer cells than the header, or bytes that are not UTF-8 raise
    ValueError naming the file or the line."""
    data: list[str] = []
    numbers: list[int] = []
    for number, line in enumerate(read_lines(path), start=1):
        if not line.startswith("#"):
            data.append(line)
            numbers.append(number)
    reader = csv.reader(data)
    header = next(reader, [])
    missing = [c for c in columns if c not in header]
    if missing:
        raise ValueError(f"{path}: missing columns {missing}")
    index = {c: i for i, c in enumerate(header)}  # the last of repeated names, as DictReader
    pick = itemgetter(*(index[c] for c in columns))
    records = []
    for cells in reader:
        if len(cells) >= len(header):
            records.append((numbers[reader.line_num - 1], pick(cells)))
        elif cells:
            raise ValueError(f"{path}:{numbers[reader.line_num - 1]}: short row: "
                             f"{len(cells)} cells, the header has {len(header)}")
    return records

import csv
import io
import os
import re
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st
from loop_tables import loop_digests, loop_load_reference_table

from lexigauge.cli import main
from lexigauge._data import data_dir, read_lines
from lexigauge.corpus import (
    BUNDLED_TABLES,
    REFERENCE_COLUMNS,
    CorpusEntry,
    Genre,
    GroupKey,
    Language,
    Origin,
    ReferenceRow,
    load_bundled_tables,
    load_manifest,
    load_reference_table,
    load_text,
    select_group,
)
from lexigauge.pipeline import load_report
from lexigauge.targets import GROUPS, _digest_checks, split_groups



@pytest.fixture(scope="module")
def rows():
    return load_bundled_tables()


def entry(**kw):
    base = dict(
        id="X1", name="1900.Test", genre=Genre.SPEECH, language=Language.ENGLISH,
        origin=Origin.ORIGINAL, nobel=False,
    )
    base.update(kw)
    return CorpusEntry(**base)


def test_manifest_rows_load_as_entries(tmp_path):
    path = tmp_path / "manifest.csv"
    path.write_text(
        "id,name,genre,origin,language,nobel,year,source_path\n"
        "A,1863.AbrahamLincoln,S,O,EN,false,1863,/tmp/a.txt\n"
        "B,IsaacAsimov.IRobot.Cap2,N,T,ES,true,,\n",
        encoding="utf-8",
    )
    assert load_manifest(path) == [
        entry(id="A", name="1863.AbrahamLincoln", source_path="/tmp/a.txt"),
        entry(id="B", name="IsaacAsimov.IRobot.Cap2", genre=Genre.NOVEL_SEGMENT,
              language=Language.SPANISH, origin=Origin.TRANSLATION, nobel=True),
    ]


def test_manifest_row_cut_short_after_the_required_cells_loads_with_no_text(tmp_path):
    # only a required cell is missing from "A,x": the cells a row leaves out read as empty
    path = tmp_path / "m.csv"
    path.write_text("id,name,genre,origin,language,nobel,year,source_path\n"
                    "A,x,S,O,EN,false\n", encoding="utf-8")
    assert load_manifest(path) == [entry(id="A", name="x")]


def test_manifest_year_column_is_ignored(tmp_path):
    # no command reads a manifest year: any cell loads, and the column may go
    dated, undated = tmp_path / "dated.csv", tmp_path / "undated.csv"
    dated.write_text(
        "id,name,genre,origin,language,nobel,year,source_path\n"
        "E11,1863.AbrahamLincoln,S,O,EN,false,abc,\n"
        "E12,IsaacAsimov.IRobot.Cap2,N,T,EN,false,1200,\n",
        encoding="utf-8",
    )
    undated.write_text(
        "id,name,genre,origin,language,nobel,source_path\n"
        "E11,1863.AbrahamLincoln,S,O,EN,false,\n"
        "E12,IsaacAsimov.IRobot.Cap2,N,T,EN,false,\n",
        encoding="utf-8",
    )
    assert load_manifest(dated) == load_manifest(undated)
    assert [e.name for e in load_manifest(undated)] == [
        "1863.AbrahamLincoln", "IsaacAsimov.IRobot.Cap2"]


def test_manifest_keeps_rows_whose_id_starts_with_hash(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(
        "# a leading comment\n"
        "id,name,genre,origin,language,nobel,year,source_path\n"
        "E1,first,S,O,EN,false,,\n"
        "#7,seventh,S,O,EN,false,,\n",
        encoding="utf-8",
    )
    assert [e.id for e in load_manifest(path)] == ["E1", "#7"]


def test_manifest_header_only(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("id,name,genre,origin,language,nobel,year,source_path\n", encoding="utf-8")
    assert load_manifest(path) == []


def test_manifest_duplicate_id(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(
        "id,name,genre,origin,language,nobel,year,source_path\n"
        "A,x,S,O,EN,false,,\n"
        "A,y,S,O,EN,false,,\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match="duplicate id"):
        load_manifest(path)


def test_manifest_malformed_row_names_line(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(
        "id,name,genre,origin,language,nobel,year,source_path\n"
        "A,x,S,O,EN,false,,\n"
        "B,y,Q,O,EN,false,,\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match=":3"):
        load_manifest(path)


def test_manifest_malformed_row_names_its_line_after_comments(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(
        "# a corpus\n"
        "# of two texts\n"
        "id,name,genre,origin,language,nobel,year,source_path\n"
        "A,x,S,O,EN,false,,\n"
        "B,y,Q,O,EN,false,,\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match=r"m\.csv:5: malformed"):
        load_manifest(path)


@pytest.mark.parametrize("row, message", [
    ("A,x", "malformed manifest row"),
    # "\udcff" is written as the byte 0xff, which is not UTF-8
    ("A,x\udcff,S,O,EN,false,,", "not UTF-8 (byte 0xff at offset 56: invalid start byte)"),
])
def test_manifest_bad_row_names_its_line(tmp_path, capsys, row, message):
    path = tmp_path / "m.csv"
    path.write_text(f"id,name,genre,origin,language,nobel,year,source_path\n{row}\n",
                    encoding="utf-8", errors="surrogateescape")
    with pytest.raises(ValueError, match=re.escape(f"m.csv:2: {message}")):
        load_manifest(path)
    assert main(["fit", "--manifest", str(path), "--model", "heaps"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}:2: {message}")


def test_read_lines_splits_as_open_does_and_locates_bad_bytes(tmp_path):
    path = tmp_path / "t.csv"
    text = "a\r\nb\rc\nd\x0be\x85f\u2028g\n"  # four lines: only \r, \n and \r\n end one
    path.write_bytes(text.encode())
    with open(path, newline="", encoding="utf-8") as fh:
        assert read_lines(path) == fh.readlines()
    path.write_bytes(text.encode() + b"h\xe2\x80")  # a character cut short on line 5
    with pytest.raises(ValueError, match=re.escape(f"{path}:5: not UTF-8 (byte 0xe2 at offset ")):
        read_lines(path)


def _with_bom(path, tmp_path):
    twin = tmp_path / f"bom-{path.name}"
    twin.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    return twin


def test_byte_order_mark_is_not_part_of_the_first_cell(tmp_path):
    # spreadsheet programs save UTF-8 files with a leading byte-order mark
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("id,name,genre,origin,language,nobel,year,source_path\n"
                        "A,1863.AbrahamLincoln,S,O,EN,false,1863,\n", encoding="utf-8")
    assert load_manifest(_with_bom(manifest, tmp_path)) == load_manifest(manifest)
    text = tmp_path / "t.txt"
    text.write_text("the cat and the dog, and a bird.", encoding="utf-8")
    report = tmp_path / "report.csv"
    assert main(["analyze", str(text), "--lang", "en", "--out", str(report)]) == 0
    assert load_report(_with_bom(report, tmp_path)) == load_report(report)
    table = data_dir() / "english_nobel.csv"
    assert (load_reference_table(_with_bom(table, tmp_path), Language.ENGLISH, True)
            == load_reference_table(table, Language.ENGLISH, True))
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\xef\xbb\xbfa\n\xff\n")  # the offset counts the mark's bytes
    with pytest.raises(ValueError, match=re.escape(f"{bad}:2: not UTF-8 (byte 0xff at offset 5:")):
        read_lines(bad)


def test_manifest_missing_columns(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("id,name\nA,x\n", encoding="utf-8")
    with pytest.raises(ValueError, match="missing columns"):
        load_manifest(path)


def test_reference_row_e1(rows):
    e1 = next(r for r in rows if r.entry.id == "E1")
    assert e1.entry.name == "1381.JohnBall"
    assert (e1.d, e1.h) == (0.515, 0.914)
    assert (e1.d_rel, e1.h_rel, e1.j) == (-0.1684, 0.0049, -0.1156)
    assert e1.readability == 59.9047
    assert e1.wqs == 0.6114


def test_reference_row_sn14(rows):
    sn14 = next(r for r in rows if r.entry.id == "SN14")
    assert (sn14.d, sn14.h) == (0.315, 0.763)
    assert sn14.j == -0.3184
    assert sn14.d_rel == 0.294
    assert sn14.readability == 63.788
    # the bundled table regenerates this column from the row coordinates
    assert sn14.wqs == 2.9106


def test_select_group_sizes(rows):
    sizes = {label: len(select_group(rows, key)) for label, key in GROUPS.items()}
    assert sizes == {"en-nobel": 37, "en-non": 101, "es-nobel": 19, "es-non": 117}


def test_select_groups_disjoint(rows):
    selected = [select_group(rows, key) for key in GROUPS.values()]
    ids = [r.entry.id for group in selected for r in group]
    assert len(ids) == len(set(ids))


def test_split_groups_adds_language_unions(rows):
    groups = split_groups(rows)
    assert list(groups) == [*GROUPS, "en-all", "es-all"]
    for lang in ("en", "es"):
        assert groups[f"{lang}-all"] == groups[f"{lang}-nobel"] + groups[f"{lang}-non"]
    assert (len(groups["en-all"]), len(groups["es-all"])) == (138, 136)


def test_select_group_rules(rows):
    for key in GROUPS.values():
        for r in select_group(rows, key):
            assert r.entry.genre is Genre.SPEECH
            if key.nobel:
                assert r.entry.origin is Origin.ORIGINAL


def test_select_group_empty_result(rows):
    novel_only = [r for r in rows if r.entry.genre is Genre.NOVEL_SEGMENT]
    assert novel_only  # the tables do contain segment rows
    assert select_group(novel_only, GroupKey(Language.ENGLISH, True)) == []


def test_reference_table_rejects_bad_numbers(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(
        "# language: English\n# nobel: false\n"
        "id,name,genre,origin,d,h,d_rel,h_rel,j,readability,wqs\n"
        "R1,x,S,O,0.5,0.9,0.1,0.0,0.0,50.0,oops\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match="R1"):
        load_reference_table(path, Language.ENGLISH, False)


def test_reference_table_rejects_out_of_range(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(
        "# language: English\n# nobel: false\n"
        "id,name,genre,origin,d,h,d_rel,h_rel,j,readability,wqs\n"
        "R1,x,S,O,1.5,0.9,0.1,0.0,0.0,50.0,0.1\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match="R1"):
        load_reference_table(path, Language.ENGLISH, False)


def test_load_text_errors(tmp_path):
    with pytest.raises(ValueError, match="no source text"):
        load_text(entry(source_path=None))
    with pytest.raises(FileNotFoundError):
        load_text(entry(source_path=str(tmp_path / "missing.txt")))
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe\x00bad")
    with pytest.raises(UnicodeDecodeError):
        load_text(entry(source_path=str(bad)))


def test_load_text_roundtrip(tmp_path):
    p = tmp_path / "ok.txt"
    p.write_text("three little words", encoding="utf-8")
    assert load_text(entry(source_path=str(p))) == "three little words"


def test_load_text_reads_the_file_as_stored(tmp_path):
    with pytest.raises(FileNotFoundError, match="source text not found"):
        load_text(entry(source_path=str(tmp_path)))  # a directory is no text
    p = tmp_path / "crlf.txt"
    p.write_bytes("one\r\ntwo İ\r".encode("utf-8"))
    assert load_text(entry(source_path=str(p))) == "one\r\ntwo İ\r"


def test_language_parse():
    assert Language.parse("EN") is Language.ENGLISH
    assert Language.parse("spanish") is Language.SPANISH
    assert Language.ENGLISH.code == "EN"
    assert Language.SPANISH.code == "ES"
    with pytest.raises(ValueError):
        Language.parse("fr")


def test_reference_row_validation():
    e = entry()
    with pytest.raises(ValueError, match="d="):
        ReferenceRow(entry=e, d=1.2, h=0.5, d_rel=0, h_rel=0, j=0, readability=1, wqs=0)
    with pytest.raises(ValueError, match="non-finite"):
        ReferenceRow(entry=e, d=0.5, h=0.5, d_rel=float("nan"), h_rel=0, j=0, readability=1, wqs=0)


_PAD = st.sampled_from(["", " ", "  "])
_NAME_CHARS = st.characters(blacklist_categories=("Cc", "Cs"))


@st.composite
def _number(draw, lo, hi):
    x = draw(st.floats(min_value=lo, max_value=hi))
    form = draw(st.sampled_from(["{!r}", "{:.4f}", "{:e}", "{:g}"]))
    return draw(_PAD) + form.format(x) + draw(_PAD)


@st.composite
def _reference_table(draw) -> tuple[str, Language, bool]:
    """A well-formed reference table: shuffled (and sometimes extra) columns,
    padded cells, names with commas and quotes, comment and blank lines; and
    its group. The oracle reads the group from `# language:`/`# nobel:`
    lines, which the loader reads as plain comments."""
    columns = draw(st.permutations(list(REFERENCE_COLUMNS) + draw(st.sampled_from([[], ["notes"]]))))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(columns) + newline]
    for i in range(draw(st.integers(min_value=0, max_value=6))):
        year = draw(st.sampled_from(["", "1300.", "1909.", "2100."]))
        cells = {
            "id": draw(_PAD) + f"R{i}" + draw(_PAD),
            "name": draw(_PAD) + year + draw(st.text(_NAME_CHARS, max_size=10)),
            "genre": draw(_PAD) + draw(st.sampled_from("SN")) + draw(_PAD),
            "origin": draw(_PAD) + draw(st.sampled_from("OT")) + draw(_PAD),
            "d": draw(_number(0.0, 1.0)),
            "h": draw(_number(0.0, 1.0)),
            "notes": draw(st.text(_NAME_CHARS, max_size=5)),
        }
        for field in ("d_rel", "h_rel", "j", "readability", "wqs"):
            cells[field] = draw(_number(-1e3, 1e3))
        buf = io.StringIO()
        csv.writer(buf, lineterminator=newline).writerow([cells[c] for c in columns])
        lines.append(buf.getvalue())
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        lines.insert(draw(st.integers(min_value=1, max_value=len(lines))), newline)
    language = draw(st.sampled_from(['English', 'es', 'SPANISH']))
    nobel = draw(st.sampled_from(['true', 'no', '1']))
    extra = [f"# language: {language}", f"# nobel: {nobel}", "# a comment, with a comma"]
    for line in extra + draw(st.lists(st.just("#"), max_size=2)):
        lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), line + newline)
    return "".join(lines), Language.parse(language), nobel != "no"


@settings(max_examples=200, deadline=None)
@given(_reference_table())
def test_reference_table_matches_the_dictreader_loader(table):
    text, language, nobel = table
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        cells: list = []
        assert load_reference_table(path, language, nobel, cells) == loop_load_reference_table(path)
        # verify's digest check accepts the sidecar the re-reading verify wrote
        with open(Path(tmp) / "integrity.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["file", "id", "digest"])
            writer.writerows(("t.csv", rid, digest) for rid, digest in loop_digests(path))
        with mock.patch.dict(os.environ, {"LEXIGAUGE_PRESET_DIR": tmp}):
            checks = _digest_checks({"t.csv": cells})
        assert checks == [("PASS", f"row digests: all {len(cells)} rows intact")]


def test_bundled_tables_match_the_dictreader_loader(rows):
    expected = [row for name, _, _ in BUNDLED_TABLES
                for row in loop_load_reference_table(data_dir() / name)]
    assert len(expected) == len(rows) == 314
    for got, want in zip(rows, expected):
        assert got == want


def test_reference_table_errors_name_their_line(tmp_path):
    head = "# language: English\n# nobel: false\nid,name,genre,origin,d,h,d_rel,h_rel,j,readability,wqs\n"
    good = "R1,x,S,O,0.5,0.9,0.1,0.0,0.0,50.0,0.1\n"
    path = tmp_path / "t.csv"
    for bad, message in (
        ("R2,x,X,O,0.5,0.9,0.1,0.0,0.0,50.0,0.1", "row R2: bad genre 'X'"),
        ("R2,x,S,Q,0.5,0.9,0.1,0.0,0.0,50.0,0.1", "row R2: bad origin 'Q'"),
        ("R2,1909.BS.SelmaLagerlof", "short row: 2 cells, the header has 11"),
        ("R2,x,S,O,0.5,0.9,0.1,0.0,0.0,50.0,oops", "row R2: non-numeric wqs='oops'"),
        ("R2,x,S,O,0.5,0.9,0.1,0.0,0.0,inf,0.1", "row R2: non-finite readability"),
        (" R1 ,y,N,T,0.5,0.9,0.1,0.0,0.0,50.0,0.1", "duplicate id 'R1'"),
        # a row with two faults names the first one the checks meet
        ("R2,x,X,O,0.5,0.9,0.1,0.0,0.0,50.0,oops", "row R2: bad genre 'X'"),
        ("R2,0999.x,S,O,0.5,0.9,0.1,0.0,0.0,50.0,oops", "row R2: non-numeric wqs='oops'"),
    ):
        path.write_text(head + good + "# between\n" + bad + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:6: ")) as exc:
            load_reference_table(path, Language.ENGLISH, False)
        assert message in str(exc.value)


def test_reference_row_name_with_any_year_prefix_loads(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("id,name,genre,origin,d,h,d_rel,h_rel,j,readability,wqs\n"
                    "R1,0999.x,S,O,0.5,0.9,0.1,0.0,0.0,50.0,0.1\n", encoding="utf-8")
    [row] = load_reference_table(path, Language.ENGLISH, False)
    assert row.entry == CorpusEntry("R1", "0999.x", Genre.SPEECH, Language.ENGLISH,
                                    Origin.ORIGINAL, False)

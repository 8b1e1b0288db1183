import builtins
import csv
import io
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from lexigauge._data import data_dir
from lexigauge.cli import main, write_report
from lexigauge.corpus import BUNDLED_TABLES, CorpusEntry, Genre, Language, Origin, load_manifest
from lexigauge.models import load_language_params
from lexigauge.pipeline import REPORT_COLUMNS, analyze_text, load_report


@pytest.fixture()
def sample_texts(tmp_path):
    a = tmp_path / "a.txt"
    a.write_text("Words repeat, words differ. A small sample text! Enough words now?",
                 encoding="utf-8")
    b = tmp_path / "b.txt"
    b.write_text("Another file with different content. Something else entirely here;"
                 " more to say. And a question? Yes.", encoding="utf-8")
    return a, b


def read_lines(path):
    return Path(path).read_text(encoding="utf-8").splitlines()


def test_analyze_csv_report(sample_texts, tmp_path):
    a, b = sample_texts
    out = tmp_path / "report.csv"
    assert main(["analyze", str(a), str(b), "--lang", "en", "--out", str(out)]) == 0
    lines = read_lines(out)
    assert lines[0] == "# schema: lexigauge-report-v1"
    assert lines[1].startswith("id,name,genre,origin,L,D,d,h,g,j,")
    records = load_report(out)
    assert len(records) == 2
    assert records[0]["id"] == "T1"
    assert records[0]["name"] == "a"
    assert isinstance(records[0]["L"], int)
    assert 0 < records[0]["d"] <= 1


def test_analyze_jsonl_report(sample_texts, tmp_path):
    a, _ = sample_texts
    out = tmp_path / "report.jsonl"
    assert main(["analyze", str(a), "--lang", "en", "--format", "jsonl",
                 "--out", str(out)]) == 0
    records = [json.loads(line) for line in read_lines(out)]
    assert len(records) == 1
    assert records[0]["schema"] == "lexigauge-report-v1"
    assert records[0]["id"] == "T1"


def test_analyze_report_roundtrips_to_printed_precision(sample_texts, tmp_path):
    a, _ = sample_texts
    out = tmp_path / "report.csv"
    main(["analyze", str(a), "--lang", "en", "--out", str(out)])
    with open(out, newline="", encoding="utf-8") as fh:
        raw = list(csv.DictReader(r for r in fh if not r.startswith("#")))
    parsed = load_report(out)
    for raw_row, rec in zip(raw, parsed):
        for col, value in rec.items():
            if isinstance(value, float):
                assert value == float(raw_row[col])


def test_analyze_byte_identical_between_runs(sample_texts, tmp_path):
    a, b = sample_texts
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    main(["analyze", str(a), str(b), "--lang", "en", "--out", str(out1)])
    main(["analyze", str(a), str(b), "--lang", "en", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_analyze_rows_follow_the_order_of_the_paths(tmp_path):
    paths = []
    for i in range(4):
        p = tmp_path / f"t{i}.txt"
        p.write_text(f"text number {i} has words. more words here{'!' * i}", encoding="utf-8")
        paths.append(str(p))
    out, rev = tmp_path / "r.csv", tmp_path / "rev.csv"
    assert main(["analyze", *paths, "--lang", "en", "--out", str(out)]) == 0
    assert main(["analyze", *paths[::-1], "--lang", "en", "--out", str(rev)]) == 0
    records, reversed_records = load_report(out), load_report(rev)
    assert [r["name"] for r in records] == [f"t{i}" for i in range(4)]
    ids = ["T1", "T2", "T3", "T4"]
    assert [r["id"] for r in records] == [r["id"] for r in reversed_records] == ids
    # reversing the paths reverses every row but its positional id
    for r in records + reversed_records:
        del r["id"]
    assert reversed_records == records[::-1]


def test_analyze_partial_failure_exit_codes(sample_texts, tmp_path, capsys):
    a, _ = sample_texts
    missing = tmp_path / "missing.txt"
    # some succeed: exit 0 with a diagnostic
    assert main(["analyze", str(a), str(missing), "--lang", "en",
                 "--out", str(tmp_path / "r.csv")]) == 0
    assert "missing.txt" in capsys.readouterr().err
    # all fail: exit 1
    assert main(["analyze", str(missing), "--lang", "en",
                 "--out", str(tmp_path / "r2.csv")]) == 1


def test_analyze_ends_with_a_summary_by_cause(sample_texts, tmp_path, capsys):
    a, b = sample_texts
    empty, bad = tmp_path / "empty.txt", tmp_path / "bad.txt"
    empty.write_text("", encoding="utf-8")
    bad.write_bytes(b"caf\xe9 au lait")
    paths = [a, tmp_path / "missing.txt", empty, b, tmp_path / "gone.txt", bad]
    assert main(["analyze", *map(str, paths), "--lang", "en", "--out", str(tmp_path / "r.csv")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == (
        "analyzed 2, failed 4 (2 FileNotFoundError, 1 UnicodeDecodeError, 1 ValueError)")
    # every error line names the file it is about, once
    failed = (tmp_path / "missing.txt", empty, tmp_path / "gone.txt", bad)
    assert [line.split(": ")[1] for line in err[:-1]] == [str(p) for p in failed]
    assert all(line.count(str(p)) == 1 for line, p in zip(err, failed))
    assert err[0] == f"error: {tmp_path / 'missing.txt'}: source text not found"
    assert main(["analyze", str(a), "--lang", "en", "--out", str(tmp_path / "r2.csv")]) == 0
    assert capsys.readouterr().err == "analyzed 1, failed 0\n"


def test_analyze_zipf_override(sample_texts, tmp_path):
    a, _ = sample_texts
    out = tmp_path / "r.csv"
    main(["analyze", str(a), "--lang", "en", "--zipf-g", "1.0", "--out", str(out)])
    assert load_report(out)[0]["g"] == 1.0


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_analyze_rejects_a_non_finite_zipf_exponent(sample_texts, capsys, value):
    a, _ = sample_texts
    assert main(["analyze", str(a), "--lang", "en", "--zipf-g", value]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: --zipf-g must be finite\n")


@pytest.mark.parametrize("value", ["-400", "400", "-150"])
def test_analyze_names_an_out_of_range_zipf_exponent(capsys, value):
    # the reference mass of the bundled text overflows; that is one data error,
    # not a raw float message
    path = data_dir() / "texts" / "gettysburg_address.txt"
    assert main(["analyze", str(path), "--lang", "en", "--zipf-g", value]) == 1
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 2  # the report's schema line and header
    assert captured.err == (f"error: {path}: Zipf reference mass for g={float(value)} over D=142 "
                            "ranks is out of floating-point range\nanalyzed 0, failed 1 (1 ValueError)\n")


def test_analyze_unknown_preset(sample_texts, tmp_path):
    a, _ = sample_texts
    assert main(["analyze", str(a), "--lang", "en", "--preset", "bogus"]) == 2


def test_analyze_preset_switch(sample_texts, tmp_path):
    a, _ = sample_texts
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    main(["analyze", str(a), "--lang", "en", "--out", str(out1)])
    main(["analyze", str(a), "--lang", "en", "--preset", "reconstructed-en",
          "--out", str(out2)])
    r1, r2 = load_report(out1)[0], load_report(out2)[0]
    assert r1["wqs_verbatim"] != r2["wqs_verbatim"]
    assert r2["wqs_verbatim"] == r2["wqs_reconstructed"]


def test_report_keeps_rows_whose_id_starts_with_hash(tmp_path):
    params = load_language_params()[Language.ENGLISH]
    records = [
        analyze_text(CorpusEntry(id=rid, name=rid, genre=Genre.SPEECH, language=Language.ENGLISH,
                                 origin=Origin.ORIGINAL, nobel=False),
                     params, text="one two two three three three.")
        for rid in ("E1", "#7")
    ]
    out = tmp_path / "report.csv"
    with open(out, "w", encoding="utf-8", newline="") as fh:
        write_report(records, "csv", fh)
    assert [r["id"] for r in load_report(out)] == ["E1", "#7"]


def test_cli_keeps_the_names_the_benchmark_uses(monkeypatch, capsys):
    # The benchmark calls and times these through lexigauge.cli; a name that
    # moves away, or a command that stops looking it up there, silently zeroes
    # a traced metric.
    import lexigauge.cli as cli
    names = ("analyze_text", "load_language_params", "load_manifest", "load_bundled_tables",
             "load_wqs_presets", "write_report", "fit_heaps", "fit_entropy_model",
             "linear_regression", "main", "cmd_analyze", "cmd_fit", "cmd_tables",
             "cmd_plotdata", "cmd_verify")
    assert [n for n in names if not callable(getattr(cli, n, None))] == []
    calls = Counter()
    for name in ("analyze_text", "write_report", "cmd_analyze"):
        def counted(*args, _name=name, _wrapped=getattr(cli, name), **kwargs):
            calls[_name] += 1
            return _wrapped(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    assert main(["analyze", str(data_dir() / "texts" / "gettysburg_address.txt"),
                 "--lang", "en"]) == 0
    assert calls == {"analyze_text": 1, "write_report": 1, "cmd_analyze": 1}


def test_analyze_text_calls_the_traced_profile_and_zipf_names(monkeypatch):
    # The traced benchmark wraps these module attributes; a caller that holds
    # its own reference to one of them leaves its wrapper reading 0.
    import lexigauge.pipeline as pipeline
    import lexigauge.zipf as zipf
    calls = Counter()
    points = [(pipeline, name) for name in ("build_profile", "entropy", "specific_diversity",
                                             "fit_zipf_exponent", "zipf_deviation")]
    for module, name in points + [(zipf, "zipf_reference")]:
        def counted(*args, _name=name, _wrapped=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _wrapped(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    path = data_dir() / "texts" / "gettysburg_address.txt"
    analyze_text(CorpusEntry(id="G", name="Gettysburg", genre=Genre.SPEECH, language=Language.ENGLISH,
                             origin=Origin.ORIGINAL, nobel=False, source_path=str(path)),
                 load_language_params()[Language.ENGLISH])
    assert calls == {"build_profile": 1, "entropy": 1, "specific_diversity": 1,
                     "fit_zipf_exponent": 1, "zipf_deviation": 1, "zipf_reference": 1}


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as e:
        main(["analyze", "x.txt", "--lang", "fr"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["plot-data", "--figure", "bogus"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2


def _write_manifest(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "name", "genre", "origin", "language", "nobel", "year", "source_path"])
        w.writerows(rows)


@pytest.fixture()
def synthetic_growth_corpus(tmp_path):
    # texts whose vocabulary follows D = 3.766 * L^0.67 up to integer rounding
    rows = []
    for i, L in enumerate((500, 1000, 2000, 4000, 8000)):
        D = round(3.766 * L**0.67)
        words = [f"w{k}" for k in range(D)] + ["w0"] * (L - D)
        p = tmp_path / f"t{i}.txt"
        p.write_text(" ".join(words), encoding="utf-8")
        rows.append([f"T{i}", f"text{i}", "S", "O", "EN", "false", "", str(p)])
    manifest = tmp_path / "manifest.csv"
    _write_manifest(manifest, rows)
    return manifest


def test_fit_heaps_from_manifest(synthetic_growth_corpus, capsys):
    assert main(["fit", "--manifest", str(synthetic_growth_corpus), "--model", "heaps"]) == 0
    out = capsys.readouterr().out
    assert "English:" in out
    c = float(out.split("c=")[1].split()[0])
    beta = float(out.split("beta=")[1].split()[0])
    assert c == pytest.approx(3.766, rel=0.01)
    assert beta == pytest.approx(0.67, rel=0.01)


def test_fit_entropy_computes_each_measure_once_per_text(synthetic_growth_corpus, monkeypatch):
    import lexigauge.cli as cli
    calls = Counter()
    for name in ("specific_diversity", "entropy"):
        def counted(*args, _name=name, _wrapped=getattr(cli, name)):
            calls[_name] += 1
            return _wrapped(*args)
        monkeypatch.setattr(cli, name, counted)
    assert main(["fit", "--manifest", str(synthetic_growth_corpus), "--model", "entropy"]) == 0
    assert calls == {"specific_diversity": 5, "entropy": 5}


def test_fit_writes_params_file(synthetic_growth_corpus, tmp_path, monkeypatch):
    # the parameter file is the one data file fit --out reads
    (tmp_path / "data").mkdir()
    shutil.copy(data_dir() / "language_params.csv", tmp_path / "data")
    monkeypatch.setenv("LEXIGAUGE_PRESET_DIR", str(tmp_path / "data"))
    out = tmp_path / "params.csv"
    assert main(["fit", "--manifest", str(synthetic_growth_corpus), "--model", "heaps",
                 "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = {r["language"]: r for r in csv.DictReader(fh)}
    assert float(rows["English"]["heaps_c"]) == pytest.approx(3.766, rel=0.01)
    # spanish keeps its bundled defaults
    assert float(rows["Spanish"]["heaps_c"]) == 2.3


@pytest.mark.parametrize("model, fit", [("heaps", "fit_heaps"), ("entropy", "fit_entropy_model")])
def test_fit_reports_a_fit_that_did_not_converge(synthetic_growth_corpus, tmp_path, monkeypatch,
                                                 capsys, model, fit):
    def stalled(points):
        raise ArithmeticError(f"did not converge in 100 iterations (sse=12.5, n={len(points)})")

    monkeypatch.setattr(f"lexigauge.cli.{fit}", stalled)
    argv = ["fit", "--manifest", str(synthetic_growth_corpus), "--model", model]
    line = "English: did not converge in 100 iterations (sse=12.5, n=5)\n"
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr() == (line, "")
    out = tmp_path / "params.csv"
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr() == (line, f"error: English did not converge; {out} not written\n")
    assert not out.exists()


def test_fit_zipf_with_out_is_a_usage_error(tmp_path, capsys):
    # exit 2, not the 1 of a missing manifest: the manifest is never read
    out = tmp_path / "params.csv"
    assert main(["fit", "--manifest", str(tmp_path / "m.csv"), "--model", "zipf",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: --out ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["analyze", "{text}", "--lang", "en"],
    ["plot-data", "--figure", "wqs-plane"],
    ["fit", "--manifest", "{manifest}", "--model", "entropy"],
], ids=lambda argv: argv[0])
def test_an_unwritable_out_is_named(sample_texts, synthetic_growth_corpus, tmp_path, capsys,
                                    argv):
    target = tmp_path / "missing" / "x.csv"
    argv = [arg.format(text=sample_texts[0], manifest=synthetic_growth_corpus) for arg in argv]
    assert main([*argv, "--out", str(target)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert f"error: {target}: No such file or directory" in err
    assert not target.parent.exists()


def test_fit_single_text_manifest(tmp_path):
    p = tmp_path / "only.txt"
    p.write_text("a few words here. nothing else!", encoding="utf-8")
    manifest = tmp_path / "m.csv"
    _write_manifest(manifest, [["T0", "only", "S", "O", "EN", "false", "", str(p)]])
    assert main(["fit", "--manifest", str(manifest), "--model", "heaps"]) == 1


def test_fit_skips_unloadable_texts(synthetic_growth_corpus, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"caf\xe9 au lait")
    with open(synthetic_growth_corpus, "a", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([
            ["T8", "missing", "S", "O", "EN", "false", "", str(tmp_path / "missing.txt")],
            ["T9", "undecodable", "S", "O", "EN", "false", "", str(bad)],
        ])
    assert main(["fit", "--manifest", str(synthetic_growth_corpus), "--model", "heaps"]) == 0
    captured = capsys.readouterr()
    assert "n=5" in captured.out
    errors = captured.err.splitlines()
    assert len(errors) == 2
    assert errors[0].startswith("error: T8: ") and "not found" in errors[0]
    assert errors[1].startswith("error: T9: ") and "utf-8" in errors[1]
    # each line names the id and the path once, the path right after the id
    for line, (rid, path) in zip(errors, (("T8", tmp_path / "missing.txt"), ("T9", bad))):
        assert line.startswith(f"error: {rid}: {path}: ")
        assert line.count(rid) == 1 and line.count(str(path)) == 1
    assert errors[0] == f"error: T8: {tmp_path / 'missing.txt'}: source text not found"


def test_fit_names_a_text_without_a_path_by_its_id(synthetic_growth_corpus, capsys):
    with open(synthetic_growth_corpus, "a", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["T8", "no path", "S", "O", "EN", "false", "", ""])
    assert main(["fit", "--manifest", str(synthetic_growth_corpus), "--model", "heaps"]) == 0
    assert capsys.readouterr().err == "error: T8: no source text\n"


def test_fit_entropy_skips_a_text_without_symbols(tmp_path, capsys):
    text, empty = tmp_path / "text.txt", tmp_path / "empty.txt"
    text.write_text("the cat and the dog and the bird", encoding="utf-8")
    empty.write_text("", encoding="utf-8")
    manifest = tmp_path / "m.csv"
    _write_manifest(manifest, [["T0", "text", "S", "O", "EN", "false", "", str(text)],
                               ["T1", "empty", "S", "O", "EN", "false", "", str(empty)]])
    assert main(["fit", "--manifest", str(manifest), "--model", "entropy"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["T1: no symbols to fit", "English: insufficient data (1 usable texts)"]


def test_fit_heaps_skips_a_text_without_symbols(synthetic_growth_corpus, tmp_path, capsys):
    blank = tmp_path / "blank.txt"
    blank.write_text("  \n\t\n", encoding="utf-8")
    with open(synthetic_growth_corpus, "a", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["T5", "blank", "S", "O", "EN", "false", "", str(blank)])
    assert main(["fit", "--manifest", str(synthetic_growth_corpus), "--model", "heaps"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "T5: no symbols to fit"
    assert out[1].startswith("English: c=") and out[1].endswith(" n=5")
    assert len(out) == 2


def test_fit_entropy_and_zipf_models(synthetic_growth_corpus, capsys):
    assert main(["fit", "--manifest", str(synthetic_growth_corpus), "--model", "entropy"]) == 0
    assert "exponent=" in capsys.readouterr().out
    assert main(["fit", "--manifest", str(synthetic_growth_corpus), "--model", "zipf"]) == 0
    assert "mean g=" in capsys.readouterr().out


def test_tables_output(capsys):
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    assert "group statistics: d_rel" in out
    assert "en-nobel     37" in out
    assert "scale and readability statistics" in out
    assert "es-nobel" in out


def test_tables_missing_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LEXIGAUGE_PRESET_DIR", str(tmp_path / "empty"))
    assert main(["tables"]) == 1
    assert capsys.readouterr().err == (
        f"error: bundled data file 'english_non_nobel.csv' not found in {tmp_path / 'empty'} "
        "(set LEXIGAUGE_PRESET_DIR to a directory containing it, or unset it)\n")


def test_plot_data_entropy(capsys):
    assert main(["plot-data", "--figure", "entropy"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "# figure: entropy"
    assert any(line.startswith("# series:") for line in lines)
    data = [l for l in lines if l and not l.startswith("#")]
    assert data[0] == "series,d,h"
    curves_en = [l for l in data if l.startswith("curve-en,")]
    curves_es = [l for l in data if l.startswith("curve-es,")]
    assert len(curves_en) == 100
    assert len(curves_es) == 100
    groups = {l.split(",")[0] for l in data[1:]}
    assert {"en-nobel", "en-non", "es-nobel", "es-non"} <= groups


def test_plot_data_wqs_plane(tmp_path):
    out = tmp_path / "plane.csv"
    assert main(["plot-data", "--figure", "wqs-plane", "--out", str(out)]) == 0
    lines = read_lines(out)
    header = next(l for l in lines if not l.startswith("#"))
    assert header == "series,d_rel,h_rel,j,wqs"
    assert len([l for l in lines if not l.startswith("#")]) == 314 + 1


def test_plot_data_report_figures(sample_texts, tmp_path):
    a, b = sample_texts
    report = tmp_path / "report.csv"
    main(["analyze", str(a), str(b), "--lang", "en", "--out", str(report)])

    assert main(["plot-data", "--figure", "diversity"]) == 1  # needs a report

    out = tmp_path / "div.csv"
    assert main(["plot-data", "--figure", "diversity", "--report", str(report),
                 "--out", str(out)]) == 0
    lines = [l for l in read_lines(out) if not l.startswith("#")]
    assert lines[0] == "series,L,D"
    assert sum(1 for l in lines if l.startswith("curve-")) == 200

    out2 = tmp_path / "zipf.csv"
    assert main(["plot-data", "--figure", "zipf", "--report", str(report),
                 "--out", str(out2)]) == 0
    assert any(l.startswith("data,") for l in read_lines(out2))


@pytest.mark.parametrize("cell, message", [("x", "'x'"), ("\udcff", "not UTF-8")])
def test_plot_data_bad_report_cell_names_its_line(sample_texts, tmp_path, capsys, cell, message):
    a, b = sample_texts
    report = tmp_path / "r.csv"
    main(["analyze", str(a), str(b), "--lang", "en", "--out", str(report)])
    lines = report.read_text(encoding="utf-8").splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    cells = lines[header + 2].split(",")
    cells[REPORT_COLUMNS.index("L")] = cell
    lines[header + 2] = ",".join(cells)
    report.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogateescape")
    capsys.readouterr()
    assert main(["plot-data", "--figure", "diversity", "--report", str(report)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {report}:{header + 3}: ") and message in err


def test_plot_data_names_a_jsonl_report(sample_texts, tmp_path, capsys):
    a, _ = sample_texts
    report = tmp_path / "r.jsonl"
    main(["analyze", str(a), "--lang", "en", "--format", "jsonl", "--out", str(report)])
    capsys.readouterr()
    assert main(["plot-data", "--figure", "diversity", "--report", str(report)]) == 1
    assert capsys.readouterr().err == (
        f"error: {report}: a jsonl report; only the csv form (analyze --format csv) is read\n")


def test_plot_data_missing_report(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    assert main(["plot-data", "--figure", "zipf", "--report", str(missing)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err


def test_plot_data_trend(tmp_path, capsys):
    dated = tmp_path / "1900.alpha.txt"
    dated.write_text("dated text with words. more words here!", encoding="utf-8")
    dated2 = tmp_path / "1950.beta.txt"
    dated2.write_text("a later dated text, with words. even more!", encoding="utf-8")
    undated = tmp_path / "gamma.txt"
    undated.write_text("no year prefix on this one. none!", encoding="utf-8")

    report = tmp_path / "r.csv"
    main(["analyze", str(dated), str(dated2), str(undated), "--lang", "en",
          "--out", str(report)])
    capsys.readouterr()

    out = tmp_path / "trend.csv"
    assert main(["plot-data", "--figure", "trend", "--report", str(report),
                 "--out", str(out)]) == 0
    lines = read_lines(out)
    assert sum(1 for l in lines if l.startswith("data,")) == 2
    assert sum(1 for l in lines if l.startswith("fit,")) == 100

    # a report with no dated rows yields an empty point set and a warning
    report2 = tmp_path / "r2.csv"
    main(["analyze", str(undated), "--lang", "en", "--out", str(report2)])
    capsys.readouterr()
    out2 = tmp_path / "trend2.csv"
    assert main(["plot-data", "--figure", "trend", "--report", str(report2),
                 "--out", str(out2)]) == 0
    assert capsys.readouterr().err == "warning: no dated rows; emitting empty point set\n"
    assert not any(l.startswith("data,") for l in read_lines(out2))

    # one dated and one undated text: the dated row is emitted, without a fit line
    report3 = tmp_path / "r3.csv"
    main(["analyze", str(dated), str(undated), "--lang", "en", "--out", str(report3)])
    capsys.readouterr()
    out3 = tmp_path / "trend3.csv"
    assert main(["plot-data", "--figure", "trend", "--report", str(report3),
                 "--out", str(out3)]) == 0
    assert capsys.readouterr().err == (
        "warning: dated rows span one year (1900); emitting them without a fit line\n")
    lines = read_lines(out3)
    assert sum(1 for l in lines if l.startswith("data,")) == 1
    assert not any(l.startswith("fit,") for l in lines)


def test_verify_passes_on_bundled_tables(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "0 failed" in out
    assert "[documented divergence]" in out
    assert "FAIL" not in out


def test_verify_zero_tolerance_fails(capsys):
    assert main(["verify", "--tolerance", "0"]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("tolerance", ["-1", "nan", "inf"])
def test_verify_rejects_a_negative_or_nan_tolerance(capsys, tolerance):
    assert main(["verify", "--tolerance", tolerance]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: --tolerance must be finite and >= 0\n")


@pytest.fixture()
def work(tmp_path):
    """A copy of the bundled tables, parameters, presets and sidecar."""
    work = tmp_path / "tables"
    work.mkdir()
    for name in ("english_non_nobel.csv", "english_nobel.csv", "spanish_non_nobel.csv",
                 "spanish_nobel.csv", "language_params.csv", "wqs_presets.csv",
                 "integrity.csv"):
        shutil.copy(data_dir() / name, work / name)
    return work


def _edit(path, old, new):
    """Replace old by new in the file at path; a lone surrogate "\\udcXX" in
    new is written as the byte 0xXX, which is not UTF-8."""
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new, 1), encoding="utf-8", errors="surrogateescape")


def test_verify_detects_corruption(work, monkeypatch, capsys):
    target = work / "english_non_nobel.csv"
    text = target.read_text(encoding="utf-8")
    assert "0.515" in text
    target.write_text(text.replace("E1,1381.JohnBall,S,O,0.515", "E1,1381.JohnBall,S,O,0.525", 1),
                      encoding="utf-8")
    monkeypatch.setenv("LEXIGAUGE_PRESET_DIR", str(work))
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "E1" in out
    assert "FAIL" in out


@pytest.mark.parametrize("argv", [
    ["verify"], ["tables"], ["plot-data", "--figure", "wqs-plane"],
    ["analyze", str(data_dir() / "texts" / "gettysburg_address.txt"), "--lang", "en"],
    ["analyze", str(data_dir() / "texts" / "gettysburg_address.txt"), "--lang", "en",
     "--preset", "reconstructed-en"],
    ["plot-data", "--figure", "entropy"],
    ["fit", "--manifest", "MANIFEST", "--model", "heaps", "--out", "OUT"],
    ["plot-data", "--figure", "diversity", "--report", "REPORT"],
])
def test_each_reference_table_is_opened_once(synthetic_growth_corpus, tmp_path, monkeypatch,
                                             capsys, argv):
    report = tmp_path / "report.csv"
    if "REPORT" in argv:
        assert main(["analyze", str(data_dir() / "texts" / "gettysburg_address.txt"),
                     "--lang", "en", "--out", str(report)]) == 0
    paths = {"MANIFEST": synthetic_growth_corpus, "OUT": tmp_path / "fitted.csv", "REPORT": report}
    argv = [str(paths.get(arg, arg)) for arg in argv]
    # analyze reads the tables to rebuild the reconstructed presets, verify the
    # presets to check the published ones; a model curve and the file fit
    # writes need only the model parameters, and a report replaces the tables
    reads = {name: int(argv[0] != "fit" and "--report" not in argv)
             for name, _, _ in BUNDLED_TABLES}
    reads["wqs_presets.csv"] = int(argv[0] in ("analyze", "verify"))
    reads["language_params.csv"] = int(argv[0] in ("analyze", "fit")
                                       or "entropy" in argv or "diversity" in argv)
    opened = Counter()

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            opened[Path(file).resolve()] += 1
        return builtins_open(file, *args, **kwargs)

    builtins_open = builtins.open
    monkeypatch.setattr(builtins, "open", counting_open)
    assert main(argv) == 0
    assert {name: opened[(data_dir() / name).resolve()] for name in reads} == reads


def _verify_fails(work, monkeypatch, capsys) -> list[str]:
    monkeypatch.setenv("LEXIGAUGE_PRESET_DIR", str(work))
    capsys.readouterr()
    assert main(["verify"]) == 1
    return [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]


def test_verify_names_a_row_missing_from_the_sidecar(work, monkeypatch, capsys):
    _edit(work / "integrity.csv", "english_non_nobel.csv,ET1,7ea3a3c86c\n", "")
    assert _verify_fails(work, monkeypatch, capsys) == [
        "FAIL  row digests: english_non_nobel.csv row ET1: not in integrity sidecar"]


def test_verify_names_the_line_of_a_bad_byte_in_the_sidecar(work, monkeypatch, capsys):
    sidecar = work / "integrity.csv"
    row = "english_non_nobel.csv,ET1,7ea3a3c86c"
    line = sidecar.read_text(encoding="utf-8").splitlines().index(row) + 1
    _edit(sidecar, row, row[:-2] + "\udcff")
    [fail] = _verify_fails(work, monkeypatch, capsys)
    assert fail.startswith(f"FAIL  row digests: {sidecar}:{line}: not UTF-8 (byte 0xff"), fail


def test_verify_names_a_sidecar_row_missing_from_its_table(work, monkeypatch, capsys):
    # E96 is a novel segment: no group statistic counts it
    _edit(work / "english_non_nobel.csv",
          "E96,IsaacAsimov.IRobot.Cap2,N,O,0.1870,0.7680,0.0050,-0.0110,0.1894,73.2634,-0.5956\n",
          "")
    assert _verify_fails(work, monkeypatch, capsys) == [
        "FAIL  row digests: english_non_nobel.csv row E96: listed in sidecar but missing from table"]


def test_a_repeated_table_row_fails_verify_and_tables(work, monkeypatch, capsys):
    # E96 is a novel segment, so no group size counts a second copy of it
    table = work / "english_non_nobel.csv"
    with open(table, "a", encoding="utf-8") as fh:
        fh.write("E96,IsaacAsimov.IRobot.Cap2,N,O,0.1870,0.7680,0.0050,-0.0110,0.1894,73.2634,"
                 "-0.5956\n")
    line = len(table.read_text(encoding="utf-8").splitlines())
    message = f"{table}:{line}: duplicate id 'E96'"
    monkeypatch.setenv("LEXIGAUGE_PRESET_DIR", str(work))
    capsys.readouterr()
    assert main(["verify"]) == 1
    assert capsys.readouterr().out == f"FAIL  table load: {message}\n1 hard failure\n"
    assert main(["tables"]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("weights, fails", [
    # ratios 3, 1 and -1 times the scale factor: their mean is still 7.601
    ("16.7022,-1.0095,5.0762",
     ["FAIL  verbatim-es weight/direction ratios agree: spread -4.00e+00"]),
    ("5.5674,0,-5.0762", ["FAIL  verbatim-es weight/direction ratios agree: spread inf",
                          "FAIL  verbatim-es scale factor 5.0677 vs recorded 7.601"]),
])
def test_verify_fails_a_preset_whose_weights_leave_the_published_signs(work, monkeypatch, capsys,
                                                                       weights, fails):
    _edit(work / "wqs_presets.csv", "5.5674,-1.0095,-5.0762", weights)
    assert _verify_fails(work, monkeypatch, capsys) == fails


def test_verify_skips_the_digests_without_a_sidecar_in_the_env_dir(work, monkeypatch, capsys):
    (work / "integrity.csv").unlink()
    monkeypatch.setenv("LEXIGAUGE_PRESET_DIR", str(work))
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "INFO  row digests: no integrity.csv sidecar; skipped" in out
    assert out.splitlines()[-1] == "68 passed, 0 failed, 17 informational"


def _keep_rows(table, n):
    """Cut a table down to its `#` lines, its header and its first n rows."""
    lines = table.read_text(encoding="utf-8").splitlines(keepends=True)
    head = sum(1 for line in lines if line.startswith("#")) + 1
    table.write_text("".join(lines[:head + n]), encoding="utf-8")


@pytest.mark.parametrize("command", ["tables", "verify"])
@pytest.mark.parametrize("case, message", [
    ("one row each", "d_rel p en nobel vs non: both samples need at least 2 values"),
    ("empty group", "d_rel en-nobel: cannot summarize an empty group"),
    ("uniform group",
     "scale en-nobel correlation: correlation undefined for a zero-variance sample"),
])
def test_a_group_unfit_for_its_statistics_is_named(work, monkeypatch, capsys, command, case,
                                                   message):
    if case == "one row each":
        for name, _, _ in BUNDLED_TABLES:
            _keep_rows(work / name, 1)
    elif case == "empty group":
        _keep_rows(work / "english_nobel.csv", 0)
    else:  # EN2 repeats EN1's values
        _keep_rows(work / "english_nobel.csv", 2)
        _edit(work / "english_nobel.csv", "0.2730,0.8250,-0.0559,0.0092,0.0186,63.3497,0.3048",
              "0.3470,0.8500,0.0778,0.0030,0.0487,37.7653,0.3577")
    monkeypatch.setenv("LEXIGAUGE_PRESET_DIR", str(work))
    capsys.readouterr()
    assert main([command]) == 1
    captured = capsys.readouterr()
    if command == "tables":
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
    else:
        assert captured.out == f"FAIL  statistics: {message}\n1 hard failure\n"


@pytest.mark.parametrize("argv", [["tables"], ["verify"], ["plot-data", "--figure", "wqs-plane"]])
@pytest.mark.parametrize("bad, message", [
    ("EN2,1909.BS.SelmaLagerlof,X,O,0.2730,0.8250,-0.0559,0.0092,0.0186,63.3497,0.3048",
     "row EN2: bad genre 'X'"),
    ("EN2,1909.BS.SelmaLagerlof", "short row: 2 cells, the header has 11"),
    ("EN2,1909.BS.Selma\udcffLagerlof,S,O,0.2730,0.8250,-0.0559,0.0092,0.0186,63.3497,0.3048",
     "not UTF-8 (byte 0xff at offset"),
])
def test_malformed_reference_row_names_its_line(work, monkeypatch, capsys, argv, bad, message):
    table = work / "english_nobel.csv"
    _edit(table, "EN2,1909.BS.SelmaLagerlof,S,O,0.2730,0.8250,-0.0559,0.0092,0.0186,63.3497,0.3048",
          bad)
    monkeypatch.setenv("LEXIGAUGE_PRESET_DIR", str(work))
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert f"{table}:5: {message}" in captured.out + captured.err


@pytest.mark.parametrize("name, old, new, line", [
    ("language_params.csv", "English,3.766,", "English,x,", 2),
    ("wqs_presets.csv", "verbatim-es,-0.02339,", "verbatim-es,y,", 3),
    ("language_params.csv", "English,3.766,", "English,\udcff3.766,", 2),
    ("wqs_presets.csv", "verbatim-es,-0.02339,", "verbatim-es,-0.02339\udcfe,", 3),
    # a repeated key: EN parses as English, and labels are stripped
    ("language_params.csv", "Spanish,2.3,", "EN,2.3,", 3),
    ("wqs_presets.csv", "verbatim-es,-0.02339,", " verbatim-en ,-0.02339,", 3),
])
@pytest.mark.parametrize("command", ["analyze", "analyze-preset", "fit-out", "plot-data", "verify"])
def test_malformed_parameter_file_names_its_line(work, synthetic_growth_corpus, monkeypatch, capsys,
                                                  name, old, new, line, command):
    text = str(data_dir() / "texts" / "gettysburg_address.txt")
    _edit(work / name, old, new)
    monkeypatch.setenv("LEXIGAUGE_PRESET_DIR", str(work))
    argv = {
        "analyze": ["analyze", text, "--lang", "en"],
        "analyze-preset": ["analyze", text, "--lang", "en", "--preset", "verbatim-en"],
        "fit-out": ["fit", "--manifest", str(synthetic_growth_corpus), "--model", "heaps",
                    "--out", str(work / "fitted.csv")],
        "plot-data": ["plot-data", "--figure", "entropy"],
        "verify": ["verify"],
    }[command]
    if command == "verify" and name == "language_params.csv":
        assert main(argv) == 0  # verify reads no model parameters
        return
    if command in ("fit-out", "plot-data") and name == "wqs_presets.csv":
        assert main(argv) == 0  # the parameter file and the curves need no presets
        return
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert f"{work / name}:{line}: " in captured.out + captured.err


def test_a_repeated_sidecar_entry_names_its_line(work, monkeypatch, capsys):
    # the repeat carries another digest; verify used to blame the intact row
    sidecar = work / "integrity.csv"
    with open(sidecar, "a", encoding="utf-8") as fh:
        fh.write("spanish_nobel.csv,SNT8,0000000000\n")
    line = len(sidecar.read_text(encoding="utf-8").splitlines())
    assert _verify_fails(work, monkeypatch, capsys) == [
        f"FAIL  row digests: {sidecar}:{line}: duplicate entry spanish_nobel.csv row SNT8"]


@pytest.mark.parametrize("label", ["verbatim-en"])
@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_preset_file_missing_a_label_names_it(work, monkeypatch, capsys, label, command):
    presets = work / "wqs_presets.csv"
    lines = presets.read_text(encoding="utf-8").splitlines(keepends=True)
    presets.write_text("".join(line for line in lines if not line.startswith(f"{label},")),
                       encoding="utf-8")
    monkeypatch.setenv("LEXIGAUGE_PRESET_DIR", str(work))
    argv = {
        "analyze": ["analyze", str(data_dir() / "texts" / "gettysburg_address.txt"), "--lang", "en"],
        "verify": ["verify"],
    }[command]
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert f"{presets}: no preset {label!r}\n" in captured.out + captured.err


def test_verify_needs_the_presets_of_the_env_dir(work, monkeypatch, capsys):
    (work / "wqs_presets.csv").unlink()
    monkeypatch.setenv("LEXIGAUGE_PRESET_DIR", str(work))
    assert main(["verify"]) == 1
    assert capsys.readouterr().out == (
        f"FAIL  table load: bundled data file 'wqs_presets.csv' not found in {work} "
        "(set LEXIGAUGE_PRESET_DIR to a directory containing it, or unset it)\n"
        "1 hard failure\n")


def test_plot_data_curves_follow_the_parameters_of_the_env_dir(work, tmp_path, monkeypatch,
                                                               capsys):
    report = tmp_path / "report.csv"
    assert main(["analyze", str(data_dir() / "texts" / "gettysburg_address.txt"),
                 "--lang", "en", "--out", str(report)]) == 0
    monkeypatch.setenv("LEXIGAUGE_PRESET_DIR", str(work))
    figures = {"entropy": [], "diversity": ["--report", str(report)]}

    def plot(figure):
        """The English curve rows of the figure, and all its other lines."""
        capsys.readouterr()
        assert main(["plot-data", "--figure", figure, *figures[figure]]) == 0
        lines = capsys.readouterr().out.splitlines()
        return ([line for line in lines if line.startswith("curve-en,")],
                [line for line in lines if not line.startswith("curve-en,")])

    before = {figure: plot(figure) for figure in figures}
    _edit(work / "language_params.csv", "English,3.766,0.67,0.1523,", "English,4.5,0.67,0.2,")
    for figure in figures:
        curve, rest = plot(figure)
        assert len(curve) == 100 and curve != before[figure][0], figure
        assert rest == before[figure][1], figure


def test_reconstructed_presets_follow_the_tables_of_the_preset_dir(work, monkeypatch, capsys):
    text = str(data_dir() / "texts" / "gettysburg_address.txt")
    monkeypatch.setenv("LEXIGAUGE_PRESET_DIR", str(work))

    def report():
        capsys.readouterr()
        assert main(["analyze", text, "--lang", "en", "--format", "jsonl"]) == 0
        return json.loads(capsys.readouterr().out)

    before = report()
    # move one non-laureate speech in d_rel: the non-laureate center moves with it
    _edit(work / "english_non_nobel.csv", "E1,1381.JohnBall,S,O,0.5150,0.9140,-0.1684,",
          "E1,1381.JohnBall,S,O,0.5150,0.9140,0.1684,")
    after = report()
    assert after["wqs_verbatim"] == before["wqs_verbatim"]
    assert after["wqs_reconstructed"] != before["wqs_reconstructed"]

    (work / "english_non_nobel.csv").unlink()
    assert main(["analyze", text, "--lang", "en"]) == 1
    assert capsys.readouterr().err == (
        f"error: bundled data file 'english_non_nobel.csv' not found in {work} "
        "(set LEXIGAUGE_PRESET_DIR to a directory containing it, or unset it)\n")


def test_analyze_without_parameters_for_its_language(work, monkeypatch, capsys):
    text = str(data_dir() / "texts" / "gettysburg_address.txt")
    _edit(work / "language_params.csv", "Spanish,2.3,0.75,0.1763,2.94\n", "")
    monkeypatch.setenv("LEXIGAUGE_PRESET_DIR", str(work))
    assert main(["analyze", text, "--lang", "es"]) == 1
    assert capsys.readouterr().err == "error: language_params.csv has no Spanish row\n"


def _src_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def test_only_verify_imports_hashlib(sample_texts):
    # the row digests are verify's alone, so the import and the other
    # commands start without loading _hashlib
    probe = ("import sys; from lexigauge.cli import main; sys.argv[1:] and main(sys.argv[1:]); "
             "print(any(m in sys.modules for m in ('hashlib', '_hashlib')), file=sys.stderr)")
    for argv, loaded in (([], "False"),
                         (["analyze", str(sample_texts[0]), "--lang", "en"], "False"),
                         (["tables"], "False"),
                         (["verify"], "True")):
        result = subprocess.run([sys.executable, "-c", probe, *argv], env=_src_env(),
                                capture_output=True, text=True, timeout=120)
        assert result.stderr.splitlines()[-1] == loaded, (argv, result.stderr)


def test_the_import_leaves_importlib_resources_out():
    # the data directory is found beside the package; -S keeps the .pth files
    # of site-packages from importing importlib.resources first
    probe = "import sys, lexigauge.cli; print('importlib.resources' in sys.modules)"
    result = subprocess.run([sys.executable, "-S", "-c", probe], env=_src_env(),
                            capture_output=True, text=True, timeout=120)
    assert result.stdout == "False\n", result.stderr


# ------------------------------------------------ malformed files, fuzzed

# Pieces spliced into a well-formed file: quotes, separators, line breaks,
# comment marks, a byte-order mark, bytes that are not UTF-8, NUL, and cells
# that parse as numbers no data file may hold
_FRAGMENTS = st.sampled_from([
    b'"', b",", b"\n", b"\r", b"\r\n", b"#", b"\xef\xbb\xbf", b"\xff", b"\xc3", b"\x00",
    b"nan", b"inf", b"-inf", b"1e400", b"-1", b"0", b" ", b"1" * 400])
_LONG_CELL = b"x" * 140_000  # over the csv module's field size limit


@st.composite
def _spliced(draw, valid: bytes) -> bytes:
    """valid with one to six of _FRAGMENTS written over or between its bytes."""
    data = bytearray(valid)
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        at = draw(st.integers(min_value=0, max_value=len(data)))
        data[at:at + draw(st.integers(min_value=0, max_value=4))] = draw(_FRAGMENTS)
    return bytes(data)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A copy of the bundled data, and three texts t1-t3 of distinct lengths."""
    work = tmp_path_factory.mktemp("fuzz")
    for name in (*(name for name, _, _ in BUNDLED_TABLES), "language_params.csv",
                 "wqs_presets.csv", "integrity.csv"):
        shutil.copy(data_dir() / name, work / name)
    for i, n in enumerate((40, 150, 600), start=1):
        words = (f"w{k % (n // 3)}" for k in range(n))
        (work / f"t{i}.txt").write_text(" ".join(words) + ".", encoding="utf-8")
    return work


def _assert_reported(path: Path, data: bytes, load, argv: list[str], env: dict | None = None,
                     names_on_1: bool = False) -> None:
    """Write data to path and run main(argv): it returns 0, 1 or 2 (or exits
    2), raising nothing else, and a 1 comes with an `error:` or `FAIL` line.
    If load() rejects the file, its ValueError names the path, and main
    returns 1 with such a line naming the file (also on every 1 if
    names_on_1). The file's old bytes are restored afterwards."""
    old = path.read_bytes() if path.exists() else None
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    try:
        with mock.patch.dict(os.environ, env or {}):
            try:
                load()
                rejected = False
            except ValueError as exc:
                assert str(path) in str(exc)
                rejected = True
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    assert exc.code == 2
                    code = 2
    finally:
        if old is not None:
            path.write_bytes(old)
    assert code in (0, 1, 2)
    lines = [line for line in (out.getvalue() + err.getvalue()).splitlines()
             if line.startswith(("error:", "FAIL"))]
    if code == 1:
        assert lines
    if rejected or (code == 1 and names_on_1):
        assert code == 1 and any(path.name in line for line in lines), lines


_MANIFEST = (b"# a corpus\nid,name,genre,origin,language,nobel,year,source_path\n"
             b"T1,1900.one,S,O,EN,false,,@DIR@/t1.txt\n"
             b"T2,\"two, quoted\",N,T,English,no,1950,@DIR@/t2.txt\n"
             b"T3,three,S,O,en,1,,@DIR@/t3.txt\n")


@settings(max_examples=150, deadline=None)
@given(_spliced(_MANIFEST), st.sampled_from(["heaps", "entropy", "zipf"]))
@example(_MANIFEST.replace(b"three", _LONG_CELL), "heaps")
def test_fit_reports_a_malformed_manifest(fuzz_dir, data, model):
    path = fuzz_dir / "manifest.csv"
    _assert_reported(path, data.replace(b"@DIR@", str(fuzz_dir).encode()),
                     lambda: load_manifest(path),
                     ["fit", "--manifest", str(path), "--model", model])


def _report() -> bytes:
    buf = io.StringIO()
    params = load_language_params()
    records = [analyze_text(CorpusEntry(f"T{i}", name, Genre.SPEECH, language, Origin.ORIGINAL,
                                        False), params[language], text=text)
               for i, (name, language, text) in enumerate((
                   ("1900.one", Language.ENGLISH, "A short text, and a shorter one."),
                   ("two", Language.SPANISH, "Un texto breve. ¿Otro? Sí, otro más."),
                   ("1950.three", Language.ENGLISH, "Three words here; then more words.")),
                   start=1)]
    write_report(records, "csv", buf)
    return buf.getvalue().encode("utf-8")


_REPORT = _report()


@settings(max_examples=150, deadline=None)
@given(_spliced(_REPORT), st.sampled_from(("diversity", "entropy", "zipf", "wqs-plane", "trend")))
@example(_REPORT.replace(b"two", _LONG_CELL), "diversity")
def test_plot_data_reports_a_malformed_report(fuzz_dir, data, figure):
    path = fuzz_dir / "report.csv"
    _assert_reported(path, data, lambda: load_report(path),
                     ["plot-data", "--figure", figure, "--report", str(path)])


_PARAMS = (data_dir() / "language_params.csv").read_bytes()
_PRESETS = (data_dir() / "wqs_presets.csv").read_bytes()


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([("language_params.csv", _PARAMS), ("wqs_presets.csv", _PRESETS)])
       .flatmap(lambda nv: st.tuples(st.just(nv[0]), _spliced(nv[1]))),
       st.sampled_from(["en", "es"]))
@example(("language_params.csv", _PARAMS.replace(b"English", _LONG_CELL)), "es")
@example(("wqs_presets.csv", _PRESETS.replace(b"verbatim-en", _LONG_CELL)), "en")
def test_analyze_reports_a_malformed_parameter_file(fuzz_dir, case, lang):
    name, data = case
    env = {"LEXIGAUGE_PRESET_DIR": str(fuzz_dir)}
    # the bundled files analyze the text, so any failure is the fuzzed file's
    _assert_reported(fuzz_dir / name, data, load_language_params,
                     ["analyze", str(fuzz_dir / "t3.txt"), "--lang", lang], env, names_on_1=True)

"""Golden outputs: the stdout of the reporting commands, byte for byte.

The digests of `verify`, `tables`, `plot-data --figure wqs-plane` and
`analyze` on the bundled Gettysburg text are the ones the benchmark checks
(bench/expected.json); they are read from there, not copied. The digests of
the other figures and of `fit` belong to no benchmark and are written here. A
refactor of the statistics or the report code must leave every one of them
unchanged."""
import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from lexigauge.cli import main

REPO = Path(__file__).resolve().parent.parent
EXPECTED = json.loads((REPO / "bench" / "expected.json").read_text(encoding="utf-8"))
GETTYSBURG = "src/lexigauge/data/texts/gettysburg_address.txt"


def _run(capsys, command: str) -> tuple[int, str]:
    # relative paths in a recorded command are relative to the repository root
    argv = [str(REPO / a) if a.startswith("src/") else a for a in shlex.split(command)]
    capsys.readouterr()
    code = main(argv)
    return code, capsys.readouterr().out


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("command", sorted(EXPECTED["stdout_sha256"]))
def test_stdout_matches_recorded_digest(capsys, command):
    code, out = _run(capsys, command)
    assert code == 0
    assert _sha256(out) == EXPECTED["stdout_sha256"][command], out


def test_verify_summary_line(capsys):
    _, out = _run(capsys, "verify")
    assert out.splitlines()[-1] == EXPECTED["verify_summary"]


def test_verify_zero_tolerance_output(capsys):
    code, out = _run(capsys, "verify --tolerance 0")
    assert code == 1
    assert out.splitlines()[-1] == "17 passed, 52 failed, 16 informational"
    assert _sha256(out) == "c27359ef1fca1bf8bfe649911925766d99505ecca0faa1b67b42f38728577b69", out


def test_analyze_jsonl_report(capsys):
    code, out = _run(capsys, f"analyze {GETTYSBURG} --lang en --format jsonl")
    assert code == 0
    assert _sha256(out) == "221ff6042cceb7a551b48e9c7394fb3a9ab768c850bf652da2e003d031aa0a7a", out


SPANISH = ("¿Qué pasó en İstanbul? ¡Nada! La calle Straße tiene un niño... y otro niño; "
           "el año pasado, la señora dijo: «sí, claro» — ¿o no…?\n")


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("lang", ["en", "es"])
def test_analyze_is_independent_of_the_hash_seed(tmp_path, fmt, lang):
    # Symbol counts live in dicts and sets; none of their ordering may leak
    # into a report.
    spanish = tmp_path / "spanish.txt"
    spanish.write_text(SPANISH, encoding="utf-8")
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    outputs = []
    for seed in ("0", "4242"):
        env["PYTHONHASHSEED"] = seed
        result = subprocess.run(
            [sys.executable, "-m", "lexigauge.cli", "analyze", str(REPO / GETTYSBURG),
             str(spanish), "--lang", lang, "--format", fmt],
            cwd=tmp_path, env=env, capture_output=True, timeout=120)
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    assert b"gettysburg_address" in outputs[0] and b"spanish" in outputs[0]


# Golden outputs of the figure and fit paths on a small corpus built from the
# bundled Gettysburg text: year-prefixed copies cut to five lengths, the
# three shortest also filed as Spanish.
CUTS = {"1863.gettysburg": None, "1880.gettysburg": 1200, "1900.gettysburg": 900,
        "1920.gettysburg": 600, "1950.gettysburg": 300}
SPANISH_CUTS = ("1900.gettysburg", "1920.gettysburg", "1950.gettysburg")


@pytest.fixture()
def gettysburg_corpus(tmp_path, capsys):
    full = (REPO / GETTYSBURG).read_text(encoding="utf-8")
    paths = {}
    for name, cut in CUTS.items():
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(full[:cut], encoding="utf-8")
    report = tmp_path / "report.csv"
    assert main(["analyze", *map(str, paths.values()), "--lang", "en", "--out", str(report)]) == 0
    manifest = tmp_path / "manifest.csv"
    rows = ["id,name,genre,origin,language,nobel,year,source_path"]
    rows += [f"E{i},{name},S,O,EN,false,,{path}" for i, (name, path) in enumerate(paths.items())]
    rows += [f"S{i},{name},S,T,ES,false,,{paths[name]}" for i, name in enumerate(SPANISH_CUTS)]
    manifest.write_text("\n".join(rows) + "\n", encoding="utf-8")
    capsys.readouterr()
    return report, manifest


FIGURE_SHA256 = {
    "diversity": "9057930684bd3d714fb039c77b1d79d7cfff7f6e805dadb8932f9723d627e2c5",
    "entropy": "092351a1ad5bdb53d48edc13ecef2079487e673134a15b142375d2d28c22783a",
    "trend": "325ccb76a27bea44ea287fb63fce57afc54db04ad93f94d568708bd9bce87e39",
    "wqs-plane": "288129b3896c4cc2f39c9045cd934d899bff08088a4c208b8a92a7e7ed4b1f3c",
    "zipf": "8b89c5dd7f9613ee19281441bae72d6a8ffad041f7094437a0d09e34aa9f1b0f",
}

FIT_SHA256 = {
    "heaps": "23285c6d4328c45ebc704fa878f86a3510f77addc187717a792c23d1ce54e250",
    "entropy": "6e93109d72fee98e9aa0367571bf609bbd0020ae96375a2068c43f30abf3d0c0",
    "zipf": "f7e98a0e84642033de2953eb39e24dc30110358c963f28eace740ba8fc8acde7",
}

# the parameter file `fit --model M --out` writes: the bundled parameters with
# M's fitted values in place
PARAMS_SHA256 = {
    "heaps": "2a008c747243ba68ce475a34835a6c9f73ff644c02e9a93ade8fe478682ef66d",
    "entropy": "e57c3a92baaab87e4af0193dbb538bd5e2370e7b158ff9a52a4dd2628d70167f",
}


def test_plot_data_entropy_from_the_tables(capsys):
    code, out = _run(capsys, "plot-data --figure entropy")
    assert code == 0
    assert _sha256(out) == "57df508738c7a93ab95def34bf112b3ad91e006bfd083fc33f606b8bf34ea398", out


@pytest.mark.parametrize("figure", sorted(FIGURE_SHA256))
def test_plot_data_from_a_report(gettysburg_corpus, capsys, figure):
    report, _ = gettysburg_corpus
    code, out = _run(capsys, f"plot-data --figure {figure} --report {report}")
    assert code == 0
    assert _sha256(out) == FIGURE_SHA256[figure], out


@pytest.mark.parametrize("model", sorted(FIT_SHA256))
def test_fit_output(gettysburg_corpus, capsys, model):
    _, manifest = gettysburg_corpus
    code, out = _run(capsys, f"fit --manifest {manifest} --model {model}")
    assert code == 0
    assert _sha256(out) == FIT_SHA256[model], out


@pytest.mark.parametrize("model", sorted(PARAMS_SHA256))
def test_fit_parameter_file(gettysburg_corpus, capsys, tmp_path, model):
    _, manifest = gettysburg_corpus
    params = tmp_path / "params.csv"
    code, out = _run(capsys, f"fit --manifest {manifest} --model {model} --out {params}")
    assert code == 0
    assert out.endswith(f"\nwrote {params}\n")
    assert _sha256(out.removesuffix(f"wrote {params}\n")) == FIT_SHA256[model], out
    assert _sha256(params.read_text(encoding="utf-8")) == PARAMS_SHA256[model]


# The help and usage-error text of the command line at 80 columns: the exit
# code, and the digest of the one stream written (stdout for help, stderr for
# a usage error; the other stays empty).
USAGE_SHA256 = {
    "--help": (0, "9269750bc24c54b587f91ced7146092dba9dbeef18685a36167d54fd935bebf0"),
    "analyze --help": (0, "0405a67d64d3d1b57ff1e362a53bdeba3209d3d2c4cfe1005c6d233e696e092c"),
    "fit --help": (0, "0aab5014d199808e6fdcdfbb4a28d1fb6c35ded11a4a11dc689d0eb267417389"),
    "tables --help": (0, "c6df1b449e0c6105c680cd1c017f1ef762080dca4e133580cf745f816537cfce"),
    "plot-data --help": (0, "7adeaad9782fa29f43b03dc31e7ea8c1f801a651e5ce65f9b901fc127c18526a"),
    "verify --help": (0, "b20333ac1d31a8e66b2829048ec9426d5c1aa3fae0716a7fd19bce7b12621760"),
    "-h verify": (0, "9269750bc24c54b587f91ced7146092dba9dbeef18685a36167d54fd935bebf0"),
    "": (2, "50406aeaabaa9a9667877951aa4ed02caed3ff3fb92c931b0af63edbec58b7ad"),
    "--": (2, "50406aeaabaa9a9667877951aa4ed02caed3ff3fb92c931b0af63edbec58b7ad"),
    "bogus": (2, "6232a9fbde6f7a69351c4f31adc9b361c6207028667bdcab023af35b9a16fe21"),
    "ver": (2, "bb9342d3e61c17f18c279d581a9e5246cc3620691bec20300701e5637afed4e5"),
    "verify --bogus": (2, "f3e72ada372a88d28470f8f808ce1781ed70936d4b95d68b836bf51a3f5da604"),
    "verify --tolerance abc": (2, "02ca849f5c1e0691378d5dcc2ebd43ce9ddb27b6f02783313002387ff214b48d"),
    "analyze": (2, "55e7a280008fe4c9fb839f47c272512efc62420c8c0154befe1e739db1dde01d"),
    "analyze x.txt --lang fr": (2, "0a5d375c74eafa618c1f4a8ae32e6b2cac996257d377a792e9828b06e3a06b8b"),
    "fit --manifest m.csv": (2, "395aaad40180dce18002ff4433dd3e4f7a303613c39a7e90e89da72e932b7323"),
    "plot-data --figure nope": (2, "3c8f015f67a92e116abcad6b096b1ba14859d9b9478c880a273ce15ce9e7f1e7"),
}


@pytest.mark.parametrize("command", list(USAGE_SHA256))
def test_help_and_usage_error_text(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    capsys.readouterr()
    with pytest.raises(SystemExit) as e:
        main(shlex.split(command))
    out, err = capsys.readouterr()
    code, digest = USAGE_SHA256[command]
    written, silent = (out, err) if code == 0 else (err, out)
    assert e.value.code == code, out + err
    assert silent == ""
    assert _sha256(written) == digest, written

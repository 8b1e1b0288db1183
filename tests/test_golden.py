"""Golden outputs: the stdout of the reporting commands, byte for byte.

The digests of `verify`, `tables`, `plot-data --figure wqs-plane` and
`analyze` on the bundled Gettysburg text are the ones the benchmark checks
(bench/expected.json); they are read from there, not copied. A refactor of
the statistics or the report code must leave every one of them unchanged."""
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

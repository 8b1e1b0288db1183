"""Golden outputs: the stdout of the reporting commands, byte for byte.

The digests of `verify`, `tables`, `plot-data --figure wqs-plane` and
`analyze` on the bundled Gettysburg text are the ones the benchmark checks
(bench/expected.json); they are read from there, not copied. A refactor of
the statistics or the report code must leave every one of them unchanged."""
import hashlib
import json
import shlex
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

"""BENCHMARK.json names exactly the metrics the benchmark prints."""
import json
from pathlib import Path

import layers
import run

CONFIG = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_end_to_end_metrics_match():
    assert {m["name"]: m["unit"] for m in CONFIG["end_to_end"]} == run.END_TO_END


def test_per_layer_metrics_match():
    assert {m["name"]: m["unit"] for m in CONFIG["per_layer"]} == layers.METRICS


def test_workloads_match():
    # long_text and cli_cold run by hand but are not gated: see README.md
    assert {w["name"] for w in CONFIG["workloads"]} == set(run.WORKLOADS) - run.UNGATED

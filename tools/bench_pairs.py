"""Run the benchmark in two checkouts as alternating pairs and compare them.

    python3 tools/bench_pairs.py PARENT CHANGE --workload corpus --seeds 101-110 --seconds 50

For each seed, `bench/run.py --workload W --seed N --seconds S` runs once in
each checkout, the parent first on even pairs and the change first on odd
ones. Each run's last output line is its JSON result. For every end-to-end
metric the summary gives each side's median and quartiles, the pairs the
change won (a tie counts for neither side), and whether the gain rule
holds: the change wins at least nine tenths of the pairs, and its median is
better than the parent's by more than the parent's quartile distance. It
also gives the no-regression verdict against the metric's bound (see
regression). Which direction is better, and each bound, come from
BENCHMARK.json in CHANGE. Standard library only; a run that fails or
reports "correct": false stops the tool.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """The end-to-end metric values of one untraced benchmark run."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or not result.get("correct"):
        sys.exit(f"error: {checkout}: seed {seed} failed (exit {proc.returncode})\n"
                 f"{proc.stderr[-2000:]}{lines[-1] if lines else ''}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(parent: list[float], change: list[float], better: str = "lower") -> dict:
    """Compare the paired runs of one metric: parent[i] and change[i] form
    pair i. Quartiles interpolate between the runs (the inclusive method)."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need at least two pairs, as many for each side")
    sign = 1 if better == "lower" else -1
    p_q1, p_med, p_q3 = statistics.quantiles(parent, n=4, method="inclusive")
    c_q1, c_med, c_q3 = statistics.quantiles(change, n=4, method="inclusive")
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    gain = sign * (p_med - c_med)
    return {
        "parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
        "wins": wins, "pairs": len(parent), "gain": gain,
        "holds": wins >= math.ceil(0.9 * len(parent)) and gain > p_q3 - p_q1,
    }


def regression(parent: list[float], change: list[float], bound: float,
               better: str = "lower") -> str:
    """The no-regression verdict on one metric's paired runs, bound being a
    fraction of the parent's median: "worse" when the change's median is
    worse than the parent's by more than the bound; "unresolved" when the
    parent's quartile distance exceeds the bound, unless every change run
    beats every parent run; "ok" otherwise."""
    sign = 1 if better == "lower" else -1
    p_q1, p_med, p_q3 = statistics.quantiles(parent, n=4, method="inclusive")
    allowed = bound * abs(p_med)
    if sign * (statistics.median(change) - p_med) > allowed:
        return "worse"
    if p_q3 - p_q1 > allowed and not all(sign * (p - c) > 0 for p in parent for c in change):
        return "unresolved"
    return "ok"


def _format(name: str, s: dict, unit: str, verdict: str) -> str:
    def side(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
    change = s["change"][1] / s["parent"][1] - 1 if s["parent"][1] else math.nan
    return (f"{name:12s} {unit:3s} parent {side(s['parent']):28s} change {side(s['change']):28s} "
            f"{change:+7.1%}  wins {s['wins']}/{s['pairs']}  rule {'holds' if s['holds'] else 'fails'}"
            f"  no-regression {verdict}")


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if len(seeds) < 2:  # summarize needs two pairs; fail before any run
        raise argparse.ArgumentTypeError(f"need at least two seeds, A-B with A < B; got {text!r}")
    return seeds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=_seeds, help="A-B, inclusive, A < B")
    parser.add_argument("--seconds", required=True, type=float)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    runs: dict[str, list[dict[str, float]]] = {"parent": [], "change": []}
    for i, seed in enumerate(args.seeds):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            runs[side].append(run_once(getattr(args, side), args.workload, seed, args.seconds))
        print(f"seed {seed}: " + "  ".join(
            f"{name} {runs['parent'][-1][name]:.4g} -> {runs['change'][-1][name]:.4g}"
            for name in metrics), flush=True)
    for name, m in metrics.items():
        parent, change = ([r[name] for r in runs[side]] for side in ("parent", "change"))
        verdict = regression(parent, change, m["bound"], m["better"])
        print(_format(name, summarize(parent, change, m["better"]), m["unit"], verdict))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""lexigauge benchmark: seeded workloads timed end to end, or traced per layer.

    python3 bench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

Run it from anywhere inside a source checkout: it loads lexigauge from the
checkout's src/ (as the test suite does) and edits nothing there. Inputs are
generated from --seed under bench/out/, which is removed again at the end
except for the result-*.json and spans-*.json files.

Each workload is a closed loop with one client in this one process (cli_cold
starts one child interpreter per operation). Set-up (input generation, a
fresh import of lexigauge and a warm-up) runs SETUP_REPS times; then passes
of the workload's fixed work repeat until --seconds have passed. Every
output is checked; an operation fails if it raises unexpectedly, exits with
the wrong code, or its output fails a check.

--trace 0 prints the end-to-end metrics. --trace 1 runs half the time
untraced and half traced (spans around the calls into each layer, see
layers.py) and prints the per-layer metrics. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import re
import resource
import select
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import gen
import layers
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPS = 5
MIN_PASSES = 3
CHILD_TIMEOUT_S = 60
INTERPRETER_REPS = 3
P95_MIN_SAMPLES = 200  # p95 needs at least 10 samples beyond it

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}
GETTYSBURG = Path("src") / "lexigauge" / "data" / "texts" / "gettysburg_address.txt"


@dataclass
class Pass:
    """One pass of a workload's fixed work."""
    wall: float = 0.0
    ops: list[float] = field(default_factory=list)  # seconds per timed op
    tail: float = 0.0  # seconds of the work after the ops, if any
    attempted: int = 0
    problems: list[str] = field(default_factory=list)  # one per failed op
    symbols: int = 0
    child_rss_kb: int = 0


@functools.cache
def recorded() -> dict:
    """Outputs recorded from the program: stdout digests, the verify summary,
    and the corpus report digest at the default seed."""
    return json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))


def _op(trace: tracer.Tracer | None, name: str):
    return trace.op(name) if trace is not None else contextlib.nullcontext()


def _describe(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def import_lexigauge() -> SimpleNamespace:
    """Import lexigauge afresh, so each set-up pays for its module code."""
    for name in [m for m in sys.modules if m == "lexigauge" or m.startswith("lexigauge.")]:
        del sys.modules[name]
    cli = importlib.import_module("lexigauge.cli")
    return SimpleNamespace(cli=cli, corpus=sys.modules["lexigauge.corpus"],
                           pipeline=sys.modules["lexigauge.pipeline"])


def entropy_of(freqs) -> float:
    """Normalized entropy of a frequency list, log base D."""
    if len(freqs) == 1:
        return 0.0
    total = sum(freqs)
    bits = -sum((f / total) * math.log2(f / total) for f in freqs)
    return min(bits / math.log2(len(freqs)), 1.0)


def check_record(m, counts: gen.Counts, c_sy: float) -> str | None:
    """A TextMetrics record against the generator's true counts."""
    if (m.L, m.D) != (counts.L, counts.D):
        return f"L, D = {m.L}, {m.D}; expected {counts.L}, {counts.D}"
    expected = {
        "d": counts.D / counts.L,
        "h": entropy_of(counts.freqs),
        "W": (counts.L_CH / c_sy) / counts.L_w,
        "S": counts.L_w / max(counts.L_ph, 1),
    }
    for name, value in expected.items():
        if not abs(getattr(m, name) - value) <= 1e-12:
            return f"{name} = {getattr(m, name)!r}; expected {value!r}"
    return None


def warm_up(lx, params) -> None:
    """One analysis of the bundled Gettysburg text, the way cmd_analyze runs it."""
    entry = lx.corpus.CorpusEntry(
        id="W1", name="warm-up", genre=lx.corpus.Genre.SPEECH, language=params.language,
        origin=lx.corpus.Origin.ORIGINAL, nobel=False, source_path=str(ROOT / GETTYSBURG))
    lx.cli.analyze_text(entry, params)


class LongText:
    """One op: analyze_text on the ~1 MB generated text, file read included."""

    def prepare(self, lx, seed: int, work: Path) -> None:
        self.lx = lx
        self.inputs = gen.generate("long_text", seed, work)
        self.text = self.inputs.texts[0]
        self.params = lx.cli.load_language_params()[lx.corpus.Language.ENGLISH]
        self.entry = lx.corpus.CorpusEntry(
            id="L1", name="long_text", genre=lx.corpus.Genre.SPEECH,
            language=lx.corpus.Language.ENGLISH, origin=lx.corpus.Origin.ORIGINAL,
            nobel=False, source_path=str(self.text.path))
        warm_up(lx, self.params)

    def run_pass(self, trace) -> Pass:
        p = Pass(attempted=1)
        t0 = perf_counter()
        try:
            with _op(trace, "long_text.analyze"):
                m = self.lx.cli.analyze_text(self.entry, self.params)
        except Exception as exc:
            m = exc
        p.wall = perf_counter() - t0
        p.ops.append(p.wall)
        if isinstance(m, Exception):
            p.problems.append(f"L1: {_describe(m)}")
        else:
            p.symbols = m.L
            problem = check_record(m, self.text.counts, self.params.c_sy)
            if problem:
                p.problems.append(f"L1: {problem}")
        return p


class Corpus:
    """One op: analyze_text(entry, params) on one manifest entry, as
    cmd_analyze calls it. Each pass ends with write_report and the two
    model fits over all results."""

    def prepare(self, lx, seed: int, work: Path) -> None:
        self.lx = lx
        self.seed = seed
        self.inputs = gen.generate("corpus", seed, work)
        self.truth = {t.id: t for t in self.inputs.texts}
        self.entries = lx.cli.load_manifest(self.inputs.manifest)
        self.params = lx.cli.load_language_params()
        self.report = work / "report.csv"
        self.report_digest = None
        warm_up(lx, self.params[lx.corpus.Language.ENGLISH])

    def run_pass(self, trace) -> Pass:
        lx = self.lx
        p = Pass(attempted=len(self.entries) + 1)
        outcomes, records = [], []
        t_pass = perf_counter()
        for entry in self.entries:
            t0 = perf_counter()
            try:
                with _op(trace, "corpus.analyze"):
                    outcome = lx.cli.analyze_text(entry, self.params[entry.language])
                records.append(outcome)
            except Exception as exc:
                outcome = exc
            p.ops.append(perf_counter() - t0)
            outcomes.append(outcome)
        fits = {}
        try:
            with _op(trace, "corpus.report"):
                with open(self.report, "w", encoding="utf-8", newline="") as fh:
                    lx.cli.write_report(records, "csv", fh)
                for language in self.params:
                    group = [m for m in records if m.entry.language is language]
                    fits[language.code] = (
                        lx.cli.fit_heaps([(m.L, m.D) for m in group]),
                        lx.cli.fit_entropy_model([(m.d, m.h) for m in group]),
                        group)
        except Exception as exc:
            fits = exc
        p.wall = perf_counter() - t_pass
        p.tail = p.wall - sum(p.ops)

        for entry, outcome in zip(self.entries, outcomes):
            truth = self.truth[entry.id]
            if truth.counts is None:
                if not isinstance(outcome, lx.pipeline.AnalysisError):
                    p.problems.append(f"{entry.id}: bad entry not quarantined: {outcome!r}")
            elif isinstance(outcome, Exception):
                p.problems.append(f"{entry.id}: {_describe(outcome)}")
            else:
                p.symbols += outcome.L
                problem = check_record(outcome, truth.counts, self.params[entry.language].c_sy)
                if problem:
                    p.problems.append(f"{entry.id}: {problem}")
        if isinstance(fits, Exception):
            p.problems.append(f"report and fits: {_describe(fits)}")
        else:
            problem = self.check_report(records) or check_fits(fits)
            if problem:
                p.problems.append(problem)
        return p

    def check_report(self, records) -> str | None:
        data = self.report.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if self.report_digest is None:
            self.report_digest = digest
        if digest != self.report_digest:
            return "report bytes differ between passes"
        at_default = self.seed == recorded()["default_seed"]
        if at_default and digest != recorded()["corpus_report_sha256"]:
            return f"report sha256 {digest} differs from the one recorded for seed {self.seed}"
        lines = data.decode("utf-8").splitlines()
        rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
        if len(rows) != len(records):
            return f"report has {len(rows)} rows for {len(records)} records"
        for row in rows:
            counts = self.truth[row["id"]].counts
            if (int(row["L"]), int(row["D"])) != (counts.L, counts.D):
                return f"report row {row['id']}: L, D = {row['L']}, {row['D']}"
            if abs(float(row["d"]) - counts.D / counts.L) > 5.1e-7:
                return f"report row {row['id']}: d = {row['d']}"
        return None


def check_fits(fits) -> str | None:
    """Each fit must be a least-squares optimum: the gradient of its squared
    error vanishes, relative to the size of the terms it sums."""
    for code, ((c, beta), e, group) in fits.items():
        grads = [[], [], []]
        for m in group:
            pred = c * m.L ** beta
            grads[0].append((m.D - pred) * m.L ** beta)
            grads[1].append((m.D - pred) * pred * math.log(m.L))
            h_pred = m.d ** e
            grads[2].append((m.h - h_pred) * h_pred * math.log(m.d))
        for name, terms in zip(("heaps c", "heaps beta", "entropy e"), grads):
            scale = math.fsum(abs(t) for t in terms) or 1.0
            if not abs(math.fsum(terms)) <= 1e-6 * scale:
                return (f"{code} {name} fit is not a least-squares optimum: "
                        f"c={c!r} beta={beta!r} e={e!r}")
    return None


REFERENCE_COMMANDS = (("verify",), ("tables",), ("plot-data", "--figure", "wqs-plane"))
TRIPLES_PER_PASS = 10


class Reference:
    """One op: cli.main for verify, tables and plot-data --figure wqs-plane,
    in an order drawn from the seed, with stdout captured."""

    def prepare(self, lx, seed: int, work: Path) -> None:
        self.lx = lx
        rng = random.Random(f"reference:{seed}")
        self.triples = [rng.sample(REFERENCE_COMMANDS, 3) for _ in range(TRIPLES_PER_PASS)]
        self.run_triple(self.triples[0])

    def run_triple(self, triple):
        outputs = []
        for argv in triple:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = self.lx.cli.main(list(argv))
            outputs.append((argv, rc, buf.getvalue()))
        return outputs

    def run_pass(self, trace) -> Pass:
        p = Pass(attempted=len(self.triples))
        results = []
        t_pass = perf_counter()
        for triple in self.triples:
            t0 = perf_counter()
            try:
                with _op(trace, "reference.triple"):
                    results.append(self.run_triple(triple))
            except (Exception, SystemExit) as exc:
                results.append(exc)
            p.ops.append(perf_counter() - t0)
        p.wall = perf_counter() - t_pass
        for result in results:
            if isinstance(result, BaseException):
                p.problems.append(_describe(result))
                continue
            problem = next(filter(None, (check_command(argv, rc, out.encode("utf-8"))
                                         for argv, rc, out in result)), None)
            if problem:
                p.problems.append(problem)
        return p


def check_command(argv, rc: int, stdout: bytes) -> str | None:
    """A CLI command's exit code and stdout against those recorded."""
    command = " ".join(str(a) for a in argv)
    if rc != 0:
        return f"{command}: exit code {rc}"
    if argv[0] == "verify":
        last = stdout.decode("utf-8").rstrip("\n").rsplit("\n", 1)[-1]
        if last != recorded()["verify_summary"]:
            return f"verify: summary {last!r}"
    digest = hashlib.sha256(stdout).hexdigest()
    if digest != recorded()["stdout_sha256"][command]:
        return f"{command}: stdout sha256 {digest} differs from the recorded one"
    return None


COLD_COMMANDS = (("analyze", str(GETTYSBURG), "--lang", "en"), ("verify",), ("tables",))


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def run_child(cmd: list[str], work: Path) -> tuple[int, bytes, int]:
    """Run cmd in the checkout root and wait for it. Returns the exit code,
    its stdout, and its peak resident memory in KiB."""
    out_path, err_path = work / "child.stdout", work / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
    # A pidfd becomes readable when the child exits; waiting for it first
    # keeps the timeout, and wait4 then reaps the child with its usage.
    pidfd = os.pidfd_open(proc.pid)
    try:
        if not select.select([pidfd], [], [], CHILD_TIMEOUT_S)[0]:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out_path.read_bytes(), usage.ru_maxrss


class ColdCli:
    """One op: a fresh `python -m lexigauge.cli` for analyze on the
    Gettysburg text, verify, or tables, in a rotation drawn from the seed."""

    def prepare(self, lx, seed: int, work: Path) -> None:
        self.work = work
        self.rotation = random.Random(f"cli_cold:{seed}").sample(COLD_COMMANDS, 3)
        run_child([sys.executable, "-m", "lexigauge.cli", *self.rotation[0]], work)

    def run_pass(self, trace) -> Pass:
        p = Pass(attempted=len(self.rotation))
        t_pass = perf_counter()
        for i, argv in enumerate(self.rotation):
            if trace is None:
                cmd = [sys.executable, "-m", "lexigauge.cli", *argv]
            else:
                spans_path = self.work / f"child-spans-{i}.json"
                cmd = [sys.executable, str(BENCH / "child.py"), str(spans_path), *argv]
            t0 = perf_counter()
            rc, stdout, rss_kb = run_child(cmd, self.work)
            p.ops.append(perf_counter() - t0)
            p.child_rss_kb = max(p.child_rss_kb, rss_kb)
            problem = check_command(argv, rc, stdout)
            if problem:
                p.problems.append(problem)
            if trace is not None and spans_path.is_file():
                recorded = json.loads(spans_path.read_text(encoding="utf-8"))
                trace.merge(recorded["spans"], recorded["absent"])
                spans_path.unlink()
        p.wall = perf_counter() - t_pass
        return p


WORKLOADS = {"long_text": LongText, "corpus": Corpus, "reference": Reference, "cli_cold": ColdCli}
# Run by hand, not listed in BENCHMARK.json. Their ops last 0.2-1 s, and on a
# shared host a run's fastest op then moves by 15-35% between runs; the gate's
# time budget also allows 50 s runs for two workloads only. corpus still times
# the tokenizer and profile, and every traced run times the imports.
UNGATED = {"long_text", "cli_cold"}


def measure(workload, seconds: float, trace=None) -> list[Pass]:
    """Passes of the workload until `seconds` have gone, MIN_PASSES at least."""
    passes = []
    start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - start < seconds:
        passes.append(workload.run_pass(trace))
    return passes


def reset_peak_rss() -> None:
    """Start a new peak-resident-memory interval for this process (Linux
    clear_refs); elsewhere the peak covers the whole process lifetime."""
    with contextlib.suppress(OSError):
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")


def peak_rss_mb() -> float:
    with contextlib.suppress(OSError):
        status = Path("/proc/self/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+)", status).group(1)) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def git_sha() -> str:
    git = ROOT / ".git"
    with contextlib.suppress(OSError):
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def metadata(args, workload) -> dict:
    inputs = getattr(workload, "inputs", None)
    texts = inputs.texts if inputs else ()
    numpy = sys.modules.get("numpy")
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__ if numpy else None, "nproc": os.cpu_count(),
        "machine": platform.machine(), "git_sha": git_sha(),
        "input_texts": len(texts),
        "input_chars": sum(t.chars for t in texts),
        "input_symbols": sum(t.counts.L for t in texts if t.counts),
    }


def best_pass_s(passes: list[Pass]) -> float:
    """Wall time of one pass made of each op's fastest repetition and the
    fastest run of the work after the ops."""
    per_op = [min(column) for column in zip(*(p.ops for p in passes))]
    return sum(per_op) + min(p.tail for p in passes)


def end_to_end(passes: list[Pass], setup_times: list[float], workload) -> dict:
    """Every end-to-end metric as (value, unit, samples); None where it does
    not apply.

    Co-tenants on a shared machine can make its processors up to 1.8x slower
    for seconds to minutes at a time, so a run's median or mean moves with
    the share of the run that was slowed. Contention only ever adds time, so the timings take
    each step at its fastest repetition: op_p50_ms is the median over the
    workload's distinct ops of each op's fastest run, wall_s the time of one
    pass with every op at its fastest (see best_pass_s).
    """
    ops = sorted(x for p in passes for x in p.ops)
    per_op = [min(column) for column in zip(*(p.ops for p in passes))]
    walls = [p.wall for p in passes]
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.problems) for p in passes)
    symbols = sum(p.symbols for p in passes)
    if isinstance(workload, ColdCli):
        peak = max(p.child_rss_kb for p in passes) / 1024
    else:
        peak = peak_rss_mb()
    p95 = None
    if len(ops) >= P95_MIN_SAMPLES:
        p95 = (statistics.quantiles(ops, n=20)[-1] * 1e3, "ms", len(ops))
    return {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "wall_s": (best_pass_s(passes), "s", len(walls)),
        "op_p50_ms": (statistics.median(per_op) * 1e3, "ms", len(ops)),
        "op_p95_ms": p95,
        "symbols_per_s": (symbols / sum(walls), "1/s", len(walls)) if symbols else None,
        "peak_rss_mb": (peak, "MB", 1),
        "failed_ratio": (failed / attempted, "ratio", attempted),
    }


def interpreter_times(work: Path) -> dict[str, float]:
    """Bare interpreter start, and the import of lexigauge.cli and of numpy
    over it, each the median of INTERPRETER_REPS fresh interpreters."""
    cmds = {"bare": "pass", "cli": "import lexigauge.cli", "numpy": "import numpy"}
    times = {k: [] for k in cmds}
    for _ in range(INTERPRETER_REPS):
        for key, code in cmds.items():
            t0 = perf_counter()
            rc, _, _ = run_child([sys.executable, "-c", code], work)
            times[key].append(perf_counter() - t0)
            if rc != 0:
                raise RuntimeError(f"python -c {code!r} exited {rc}")
    bare = statistics.median(times["bare"])
    return {"cli.interpreter_s": bare,
            "cli.import_s": statistics.median(times["cli"]) - bare,
            "cli.numpy_import_s": statistics.median(times["numpy"]) - bare}


def traced_run(args, workload, trace: tracer.Tracer, work: Path):
    """Half the time untraced, half traced. Returns the untraced passes, the
    traced passes, the per-layer metrics and any problem with the spans."""
    trace.uninstall()
    reset_peak_rss()
    untraced = measure(workload, args.seconds / 2)
    first_traced = len(trace.spans)
    trace.install(layers.POINTS)
    try:
        traced = measure(workload, args.seconds / 2, trace)
    finally:
        trace.uninstall()
    phase_ops = {s[tracer.OP] for s in trace.spans[first_traced:]}
    selfs = tracer.self_times(trace.spans)
    problems = tracer.check_ops(trace.spans, selfs)
    metrics = layers.layer_metrics(trace.spans, selfs, phase_ops, len(traced))
    metrics.update(interpreter_times(work))
    metrics["trace.overhead_ratio"] = best_pass_s(traced) / best_pass_s(untraced)
    if isinstance(workload, LongText):
        share = (metrics["tokenizer.self_s"] + metrics["profile.build_self_s"]) / \
            statistics.fmean(p.wall for p in traced)
        print(f"tokenizer + profile self time: {share:.1%} of the traced op")
    return untraced, traced, metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lexigauge" / "__init__.py").is_file():
        print(f"error: no lexigauge sources under {SRC}; run inside a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace = tracer.Tracer() if args.trace else None
    try:
        setup_times = []
        for rep in range(1 if trace else SETUP_REPS):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir()
            t0 = perf_counter()
            lx = import_lexigauge()
            if trace is not None:
                trace.install(layers.POINTS)
            with _op(trace, "setup"):
                workload.prepare(lx, args.seed, work)
            setup_times.append(perf_counter() - t0)
        gc.collect()
        if trace is None:
            reset_peak_rss()
            passes = measure(workload, args.seconds)
            e2e = end_to_end(passes, setup_times, workload)
            metrics = {k: e2e[k][:2] for k in END_TO_END}
            trace_problems = []
        else:
            untraced, traced, layer_values, trace_problems = traced_run(args, workload, trace, work)
            e2e = end_to_end(untraced, setup_times, workload)
            passes = untraced + traced
            metrics = {k: (v, layers.METRICS[k]) for k, v in layer_values.items()}
            trace.write(OUT / f"spans-{stem}.json")
        meta = metadata(args, workload)
        if trace is not None:
            meta["traced_passes"] = len(traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = [msg for p in passes for msg in p.problems]
    attempted = sum(p.attempted for p in passes)
    for name, value in e2e.items():
        if value is None:
            print(f"{name:16s} n/a")
        else:
            print(f"{name:16s} {value[0]:<14.6g} {value[1]:6s} n={value[2]}")
    if trace is not None:
        for name, (value, unit) in metrics.items():
            print(f"{name:28s} {value:<14.6g} {unit}")
    print("meta " + " ".join(f"{k}={v}" for k, v in meta.items()))
    if trace is not None and trace.absent:
        print("absent from the program: " + ", ".join(trace.absent))
    for msg in (problems + trace_problems)[:10]:
        print(f"FAILED {msg}", file=sys.stderr)
    result = {
        "correct": not problems and not trace_problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps(
        {**result, "meta": meta, "end_to_end": e2e,
         "passes": [{"wall": p.wall, "ops": p.ops} for p in passes],
         "problems": problems + trace_problems,
         "absent": trace.absent if trace else []}, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

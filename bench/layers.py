"""The layers of lexigauge as the traced run sees them: which calls it wraps,
and the per-layer metrics it computes from their spans.

Each point wraps a public function at the module attribute where its caller
looks it up, so nothing under src/ is edited. Span names are
"<layer>.<function>", the layer being the module that defines the function.
"""
from __future__ import annotations

import os
import statistics

from tracer import AMOUNT, END, ERROR, NAME, OP, START, Point


class _CountedCalls:
    """Stands in for a callable and counts how often it is called."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


def _count_residual_evals(args: tuple) -> tuple:
    # _gauss_newton(theta, residual_jacobian, ...)
    return (args[0], _CountedCalls(args[1]), *args[2:]) if len(args) >= 2 else args


def _file_bytes(args, result):
    return os.path.getsize(args[0].source_path)


def _pipeline(attr, name, **kw):
    return Point("lexigauge.pipeline", attr, name, **kw)


def _cli(attr, name, **kw):
    return Point("lexigauge.cli", attr, name, **kw)


POINTS = (
    _cli("analyze_text", "pipeline.analyze_text"),
    _pipeline("load_text", "corpus.load_text", amount=_file_bytes),
    _pipeline("tokenize", "tokenizer.tokenize", amount=lambda a, r: len(a[0])),
    _pipeline("build_profile", "profile.build_profile", amount=lambda a, r: a[0].L),
    _pipeline("specific_diversity", "profile.specific_diversity"),
    _pipeline("entropy", "profile.entropy"),
    Point("lexigauge.zipf", "segment_mass", "profile.segment_mass"),
    _pipeline("fit_zipf_exponent", "zipf.fit_zipf_exponent", amount=lambda a, r: a[0].D),
    _pipeline("zipf_fit_for", "zipf.zipf_fit_for"),
    _pipeline("zipf_deviation", "zipf.zipf_deviation"),
    Point("lexigauge.zipf", "zipf_reference", "zipf.zipf_reference"),
    _pipeline("heaps_predict", "models.heaps_predict"),
    _pipeline("entropy_model_predict", "models.entropy_model_predict"),
    _pipeline("relative_diversity", "models.relative_diversity"),
    _pipeline("relative_entropy", "models.relative_entropy"),
    _cli("fit_heaps", "models.fit_heaps"),
    _cli("fit_entropy_model", "models.fit_entropy_model"),
    Point("lexigauge.models", "_gauss_newton", "models._gauss_newton",
          adapt=_count_residual_evals, amount=lambda a, r: a[1].calls),
    _cli("load_language_params", "models.load_language_params"),
    _pipeline("readability_inputs", "readability.readability_inputs"),
    _pipeline("score", "readability.score"),
    _pipeline("wqs", "wqs.wqs"),
    _pipeline("load_wqs_presets", "wqs.load_wqs_presets"),
    Point("lexigauge.models", "load_wqs_presets", "wqs.load_wqs_presets"),
    _cli("load_wqs_presets", "wqs.load_wqs_presets"),
    _cli("load_manifest", "corpus.load_manifest"),
    _cli("load_bundled_tables", "corpus.load_bundled_tables", amount=lambda a, r: len(r)),
    _cli("summarize", "stats.summarize"),
    Point("lexigauge.stats", "summarize", "stats.summarize"),
    _cli("t_test", "stats.t_test"),
    _cli("pearson", "stats.pearson"),
    _cli("linear_regression", "stats.linear_regression"),
    Point("lexigauge.stats", "betai", "stats.betai"),
    _cli("write_report", "cli.write_report"),
    _cli("cmd_analyze", "cli.cmd_analyze"),
    _cli("cmd_verify", "cli.cmd_verify"),
    _cli("cmd_tables", "cli.cmd_tables"),
    _cli("cmd_plotdata", "cli.cmd_plotdata"),
)

# Self time of these spans, summed over the traced phase, per pass (s).
SELF_S = {
    "tokenizer.self_s": {"tokenizer.tokenize"},
    "profile.build_self_s": {"profile.build_profile"},
    "profile.measures_self_s": {"profile.specific_diversity", "profile.entropy",
                                "profile.segment_mass"},
    "zipf.fit_self_s": {"zipf.fit_zipf_exponent"},
    "zipf.deviation_self_s": {"zipf.zipf_deviation", "zipf.zipf_fit_for", "zipf.zipf_reference"},
    "models.predict_self_s": {"models.heaps_predict", "models.entropy_model_predict",
                              "models.relative_diversity", "models.relative_entropy"},
    "models.fit_self_s": {"models.fit_heaps", "models.fit_entropy_model", "models._gauss_newton"},
    "readability.self_s": {"readability.readability_inputs", "readability.score"},
    "wqs.score_self_s": {"wqs.wqs"},
    "pipeline.self_s": {"pipeline.analyze_text"},
    "corpus.load_text_s": {"corpus.load_text"},
    "stats.self_s": {"stats.summarize", "stats.t_test", "stats.pearson",
                     "stats.linear_regression", "stats.betai"},
    "stats.betai_s": {"stats.betai"},
}
# Calls of this span, in the traced phase, per pass.
CALLS = {
    "tokenizer.calls": "tokenizer.tokenize",
    "pipeline.analyze_calls": "pipeline.analyze_text",
    "stats.t_test_calls": "stats.t_test",
    "stats.summarize_calls": "stats.summarize",
    "wqs.preset_loads": "wqs.load_wqs_presets",
}
# Amount of work of this span, summed over the traced phase, per pass.
AMOUNTS = {
    "tokenizer.chars": ("tokenizer.tokenize", "count"),
    "zipf.ranks": ("zipf.fit_zipf_exponent", "count"),
    "models.gn_residual_evals": ("models._gauss_newton", "count"),
    "corpus.bytes_read": ("corpus.load_text", "B"),
    "corpus.table_rows": ("corpus.load_bundled_tables", "count"),
}
# Median duration of one call of this span, over the whole traced run,
# set-up included, since some of these run only there (s).
PER_CALL_S = {
    "models.params_load_s": "models.load_language_params",
    "wqs.preset_load_s": "wqs.load_wqs_presets",
    "corpus.manifest_load_s": "corpus.load_manifest",
    "corpus.tables_load_s": "corpus.load_bundled_tables",
    "cli.report_write_s": "cli.write_report",
    "cli.verify_s": "cli.cmd_verify",
    "cli.tables_s": "cli.cmd_tables",
    "cli.plot_data_s": "cli.cmd_plotdata",
}
# Measured in fresh interpreters, outside the spans (s).
INTERPRETER_S = ("cli.interpreter_s", "cli.import_s", "cli.numpy_import_s")

METRICS = {
    **{name: "s" for name in SELF_S},
    **{name: "count" for name in CALLS},
    **{name: unit for name, (_, unit) in AMOUNTS.items()},
    **{name: "s" for name in PER_CALL_S},
    **{name: "s" for name in INTERPRETER_S},
    "tokenizer.ns_per_char": "ns/char",
    "profile.ns_per_symbol": "ns/symbol",
    "pipeline.quarantined": "count",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(spans: list[list], selfs: list[float], phase_ops: set[int],
                  passes: int) -> dict[str, float]:
    """Per-layer metrics from the spans of a traced run. phase_ops are the op
    ids of the traced phase, which ran `passes` passes. Layers the workload
    never calls read 0; the interpreter times and the overhead ratio are
    measured elsewhere and not included."""
    self_by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    amounts: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    quarantined = 0
    n_phase = 0
    for s, self_s in zip(spans, selfs):
        name = s[NAME]
        durations.setdefault(name, []).append(s[END] - s[START])
        if s[OP] not in phase_ops:
            continue
        n_phase += 1
        self_by_name[name] = self_by_name.get(name, 0.0) + self_s
        calls[name] = calls.get(name, 0) + 1
        amounts[name] = amounts.get(name, 0) + (s[AMOUNT] or 0)
        if name == "pipeline.analyze_text" and s[ERROR] == "AnalysisError":
            quarantined += 1

    out: dict[str, float] = {}
    for metric, names in SELF_S.items():
        out[metric] = sum(self_by_name.get(n, 0.0) for n in names) / passes
    for metric, name in CALLS.items():
        out[metric] = calls.get(name, 0) / passes
    for metric, (name, _) in AMOUNTS.items():
        out[metric] = amounts.get(name, 0) / passes
    for metric, name in PER_CALL_S.items():
        out[metric] = statistics.median(durations[name]) if name in durations else 0.0
    out["tokenizer.ns_per_char"] = _ns_per(out["tokenizer.self_s"], out["tokenizer.chars"])
    out["profile.ns_per_symbol"] = _ns_per(
        out["profile.build_self_s"], amounts.get("profile.build_profile", 0) / passes)
    out["pipeline.quarantined"] = quarantined / passes
    out["trace.spans"] = n_phase / passes
    return out


def _ns_per(seconds: float, amount: float) -> float:
    return seconds / amount * 1e9 if amount else 0.0

"""Command-line surface.

Subcommands:
  analyze    score text files and emit a per-text metric report
  fit        fit the growth/entropy/frequency models to a corpus manifest
  tables     recompute the recorded group statistics from the bundled tables
  plot-data  emit figure-ready point files (never rendered images)
  verify     check the bundled tables against their recorded targets

Exit codes: 0 success, 1 data or verification failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import math
import sys
from collections import Counter
from contextlib import nullcontext
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Callable, NamedTuple

from . import targets
from .corpus import (
    CorpusEntry,
    Genre,
    Language,
    Origin,
    _parse_year,
    load_bundled_tables,
    load_manifest,
    load_text,
)
from .models import (PARAM_COLUMNS, fit_entropy_model, fit_heaps, load_language_params,
                     load_model_params)
from .pipeline import AnalysisError, TextMetrics, analyze_text, load_report, write_report
from .profile import build_profile, entropy, specific_diversity
from .stats import linear_regression
from .tokenizer import tokenize
from .wqs import load_wqs_presets
from .zipf import fit_zipf_exponent


def _open_out(out: str | None):
    """The stream to write to: the file out, opened (and closed on exit), or
    stdout. None, with the error on stderr, when out cannot be opened."""
    if out is None:
        return nullcontext(sys.stdout)
    try:
        return open(out, "w", encoding="utf-8", newline="")
    except OSError as exc:
        print(f"error: {out}: {exc.strerror or exc}", file=sys.stderr)


# ---------------------------------------------------------------- analyze


def cmd_analyze(args) -> int:
    if args.zipf_g is not None and not math.isfinite(args.zipf_g):
        print("error: --zipf-g must be finite", file=sys.stderr)
        return 2
    language = Language.parse(args.lang)
    try:
        by_language = load_language_params()
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if (params := by_language.get(language)) is None:
        print(f"error: language_params.csv has no {language.value} row", file=sys.stderr)
        return 1
    if args.preset is not None:
        presets = {f"{kind}-{p.language.code.lower()}": coeffs for p in by_language.values()
                   for kind, coeffs in (("verbatim", p.wqs_preset),
                                        ("reconstructed", p.wqs_reconstructed))}
        if args.preset not in presets:
            print(
                f"error: unknown preset {args.preset!r}; available: {', '.join(sorted(presets))}",
                file=sys.stderr,
            )
            return 2
        params = dataclasses.replace(params, wqs_preset=presets[args.preset])
    records: list[TextMetrics] = []
    failed: Counter[str] = Counter()
    for i, path in enumerate(args.paths, start=1):
        entry = CorpusEntry(
            id=f"T{i}",
            name=Path(path).stem,
            genre=Genre.SPEECH,
            language=language,
            origin=Origin.ORIGINAL,
            nobel=False,
            source_path=str(path),
        )
        try:
            records.append(analyze_text(entry, params, zipf_g=args.zipf_g))
        except AnalysisError as exc:
            failed[type(exc.__cause__).__name__] += 1
            print(f"error: {path}: {exc.__cause__}", file=sys.stderr)
    if (out := _open_out(args.out)) is not None:
        with out as stream:
            write_report(records, args.format, stream)
    causes = ", ".join(f"{n} {cause}" for cause, n in sorted(failed.items()))
    print(f"analyzed {len(records)}, failed {failed.total()}" + (f" ({causes})" if failed else ""),
          file=sys.stderr)
    return 1 if out is None or (failed and not records) else 0


# -------------------------------------------------------------------- fit


def _manifest_profiles(manifest_path: str):
    """(entry, profile) pairs for every loadable manifest text. A text that
    cannot be loaded is reported on stderr and skipped."""
    out = []
    for entry in load_manifest(manifest_path):
        try:
            text = load_text(entry)
        except (OSError, ValueError) as exc:
            where = f"{entry.id}: {entry.source_path}" if entry.source_path else entry.id
            print(f"error: {where}: {exc}", file=sys.stderr)
            continue
        out.append((entry, build_profile(tokenize(text))))
    return out


def _with_symbols(group: list, lines: list[str]) -> list:
    """The profiles of a group's (entry, profile) pairs that hold a symbol;
    each text without one is listed in lines instead."""
    lines.extend(f"{entry.id}: no symbols to fit" for entry, p in group if p.D == 0)
    return [p for _, p in group if p.D]


def cmd_fit(args) -> int:
    if args.out and args.model == "zipf":
        print("error: --out writes model parameters; use --model heaps or entropy", file=sys.stderr)
        return 2
    try:
        pairs = _manifest_profiles(args.manifest)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    by_lang: dict[Language, list] = {}
    for entry, p in pairs:
        by_lang.setdefault(entry.language, []).append((entry, p))

    fitted: dict[Language, dict[str, float]] = {}
    lines: list[str] = []
    unconverged: list[str] = []
    if args.model == "heaps":
        for language, group in sorted(by_lang.items(), key=lambda kv: kv[0].value):
            points = [(p.L, p.D) for p in _with_symbols(group, lines)]
            if len(points) < 3 or len({L for L, _ in points}) < 2:
                lines.append(f"{language.value}: insufficient data ({len(points)} texts)")
                continue
            try:
                c, beta = fit_heaps(points)
            except ArithmeticError as exc:
                lines.append(f"{language.value}: {exc}")
                unconverged.append(language.value)
                continue
            sse = sum((D - c * L**beta) ** 2 for L, D in points)
            fitted[language] = {"heaps_c": c, "heaps_beta": beta}
            lines.append(
                f"{language.value}: c={c:.6g} beta={beta:.6g} sse={sse:.6g} n={len(points)}"
            )
    elif args.model == "entropy":
        for language, group in sorted(by_lang.items(), key=lambda kv: kv[0].value):
            points = [(d, h) for p in _with_symbols(group, lines)
                      if 0 < (d := specific_diversity(p)) < 1 and (h := entropy(p)) > 0]
            if len(points) < 2:
                lines.append(f"{language.value}: insufficient data ({len(points)} usable texts)")
                continue
            try:
                e = fit_entropy_model(points)
            except ArithmeticError as exc:
                lines.append(f"{language.value}: {exc}")
                unconverged.append(language.value)
                continue
            sse = sum((h - d**e) ** 2 for d, h in points)
            fitted[language] = {"entropy_exponent": e}
            lines.append(f"{language.value}: exponent={e:.6g} sse={sse:.6g} n={len(points)}")
    else:  # zipf: a per-text exponent, reported text by text
        for language, group in sorted(by_lang.items(), key=lambda kv: kv[0].value):
            gs = []
            for entry, p in group:
                if p.D < 3:
                    lines.append(f"{entry.id}: too few ranks to fit ({p.D})")
                    continue
                g = fit_zipf_exponent(p)
                gs.append(g)
                lines.append(f"{entry.id}: g={g:.6g}")
            if gs:
                fitted[language] = {"zipf_g_mean": sum(gs) / len(gs)}
                lines.append(f"{language.value}: mean g={sum(gs) / len(gs):.6g} n={len(gs)}")

    for line in lines:
        print(line)
    if not fitted and not unconverged:
        print("error: no group had enough data to fit", file=sys.stderr)
        return 1

    if args.out:
        if unconverged:
            print(f"error: {', '.join(unconverged)} did not converge; {args.out} not written",
                  file=sys.stderr)
            return 1
        try:
            defaults = load_model_params()
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if (out := _open_out(args.out)) is None:
            return 1
        with out as stream:
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(PARAM_COLUMNS)
            for language, params in sorted(defaults.items(), key=lambda kv: kv[0].value):
                fit = fitted.get(language, {})
                writer.writerow([language.value, *(f"{fit.get(c, getattr(params, c)):.10g}"
                                                   for c in PARAM_COLUMNS[1:])])
        print(f"wrote {args.out}")
    return 0


# ----------------------------------------------------------------- tables


def cmd_tables(args) -> int:
    try:
        records = targets.recompute(load_bundled_tables())
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    sections = itertools.groupby(records, key=lambda r: (r.metric, r.field == "p"))
    for (metric, is_p), section in sections:
        if is_p:
            print(f"{'t-test':28s} {'p':>10s} {'recorded':>10s}")
            for r in section:
                rec_text = f"{r.recorded:g}" if r.kind == "eq" else f"<{r.recorded:g}"
                print(f"{r.group:28s} {r.got:10.3g} {rec_text:>10s}")
            if metric != "scale":
                print()
            continue
        lines = [list(cells) for _, cells in itertools.groupby(section, key=lambda r: r.group)]
        if metric == "scale":
            print("== scale and readability statistics ==")
            print(f"{'group':10s} {'n':>4s} {'wqs':>8s} {'rec':>6s} {'std':>7s} {'rec':>6s} "
                  f"{'read':>8s} {'rec':>7s} {'std':>7s} {'rec':>6s} {'corr':>7s} {'rec':>6s}")
            for wm, ws, rm, rs, corr in lines:
                print(f"{wm.group:10s} {wm.n:4d} {wm.got:8.4f} {wm.recorded:6.2f} "
                      f"{ws.got:7.4f} {ws.recorded:6.2f} {rm.got:8.3f} {rm.recorded:7.2f} "
                      f"{rs.got:7.3f} {rs.recorded:6.2f} {corr.got:7.4f} {corr.recorded:6.2f}")
        else:
            print(f"== group statistics: {metric} ==")
            print(f"{'group':10s} {'n':>4s} {'mean':>10s} {'recorded':>10s} {'delta':>9s} "
                  f"{'std':>10s} {'recorded':>10s} {'delta':>9s}")
            for mean, std in lines:
                print(f"{mean.group:10s} {mean.n:4d} {mean.got:10.5f} {mean.recorded:10.5f} "
                      f"{mean.got - mean.recorded:+9.5f} {std.got:10.5f} {std.recorded:10.5f} "
                      f"{std.got - std.recorded:+9.5f}")
    return 0


# -------------------------------------------------------------- plot-data


class _Figure(NamedTuple):
    """A plot-data figure: its columns after `series`, its axis labels (x, y,
    then the extras), the report columns and the table attributes its points
    come from (None: the figure needs --report), and the model curve
    y = curve(model params, x) drawn over the points' x range, if any."""
    header: tuple[str, ...]
    axes: tuple[str, ...]
    report_columns: tuple[str, ...]
    table_fields: tuple[str, ...] | None
    curve: Callable[..., float] | None = None


_FIGURES = {
    "diversity": _Figure(("L", "D"), ("L (symbols)", "D (distinct symbols)"), ("L", "D"), None,
                         lambda p, L: p.heaps_c * L**p.heaps_beta),
    "entropy": _Figure(("d", "h"), ("d (specific diversity)", "h (normalized entropy)"),
                       ("d", "h"), ("d", "h"), lambda p, d: d**p.entropy_exponent),
    "zipf": _Figure(("L", "j"), ("L (symbols)", "j (frequency-profile deviation)"),
                    ("L", "j"), None),
    "wqs-plane": _Figure(("d_rel", "h_rel", "j", "wqs"), ("d_rel", "h_rel", "j, wqs"),
                         ("d_rel", "h_rel", "j", "wqs_verbatim"), ("d_rel", "h_rel", "j", "wqs")),
    "trend": _Figure(("year", "S"), ("year", "S (words per phrase)"), ("name", "S"), None),
}
FIGURES = tuple(_FIGURES)


def _log_spaced(lo: float, hi: float, n: int = 100) -> list[float]:
    if lo <= 0 or hi <= lo:
        return [lo] * n
    step = (math.log(hi) - math.log(lo)) / (n - 1)
    return [math.exp(math.log(lo) + i * step) for i in range(n)]


# table figures label all rows by language and laureate status (53/103/35/123 rows); the
# groups of tables and verify keep speeches and the laureates' originals only (37/101/19/117)
_GROUP_LABELS = {(key.language, key.nobel): label for label, key in targets.GROUPS.items()}


def _trend(points: list[tuple], comments: list[str]) -> list[tuple]:
    """The (year, S) points of the rows whose name starts with a year, and
    their regression line."""
    dated = [("data", year, s) for _, name, s in points if (year := _parse_year(name)) is not None]
    years = sorted({year for _, year, _ in dated})
    if len(years) < 2:
        print(f"warning: dated rows span one year ({years[0]}); emitting them without a fit line"
              if years else "warning: no dated rows; emitting empty point set", file=sys.stderr)
        return dated
    fit = linear_regression([float(y) for _, y, _ in dated], [s for _, _, s in dated])
    comments.append(f"# fit: slope={fit.slope:.6g} per year, intercept={fit.intercept:.6g}")
    xs = (years[0] + (years[-1] - years[0]) * i / 99 for i in range(100))
    return dated + [("fit", x, fit.slope * x + fit.intercept) for x in xs]


def cmd_plotdata(args) -> int:
    figure = _FIGURES[args.figure]
    if figure.table_fields is None and not args.report:
        print(f"error: figure {args.figure!r} needs per-text counts; pass --report",
              file=sys.stderr)
        return 1
    try:
        if args.report:
            get = itemgetter(*figure.report_columns)
            rows = [("data", *get(r)) for r in load_report(args.report)]
        else:
            get = attrgetter(*figure.table_fields)
            rows = [(_GROUP_LABELS[r.entry.language, r.entry.nobel], *get(r))
                    for r in load_bundled_tables()]
        params = load_model_params() if figure.curve else None
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    comments = [f"# figure: {args.figure}"]
    comments += [f"# {axis}: {label}" for axis, label in zip(("x", "y", "extras"), figure.axes)]
    if args.figure == "trend":
        rows = _trend(rows, comments)
    if figure.curve and (xs := [row[1] for row in rows if row[1] > 0]):
        for language, p in sorted(params.items(), key=lambda kv: kv[0].value):
            curve = f"curve-{language.code.lower()}"
            rows += [(curve, x, figure.curve(p, x)) for x in _log_spaced(min(xs), max(xs))]
    series = sorted({r[0] for r in rows})
    comments.append(f"# series: {', '.join(series) if series else '(none)'}")

    if (out := _open_out(args.out)) is None:
        return 1
    with out as stream:
        stream.writelines(line + "\n" for line in comments)
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["series", *figure.header])
        writer.writerows([row[0]] + [f"{v:.6f}" if isinstance(v, float) else v for v in row[1:]]
                         for row in rows)
    return 0


# ----------------------------------------------------------------- verify


def cmd_verify(args) -> int:
    if not 0 <= args.tolerance < math.inf:  # also rejects nan
        print("error: --tolerance must be finite and >= 0", file=sys.stderr)
        return 2
    cells: dict[str, list] = {}
    try:
        rows = load_bundled_tables(cells)
        presets = load_wqs_presets()
    except (OSError, ValueError) as exc:
        print(f"FAIL  table load: {exc}\n1 hard failure")
        return 1
    try:
        checks = targets.checks(rows, presets, cells, args.tolerance)
    except ValueError as exc:
        print(f"FAIL  statistics: {exc}\n1 hard failure")
        return 1
    for status, message in checks:
        print(f"{status:4s}  {message}")
    tally = Counter(status for status, _ in checks)
    print(f"\n{tally['PASS']} passed, {tally['FAIL']} failed, {tally['INFO']} informational")
    return 1 if tally["FAIL"] else 0


# ------------------------------------------------------------------ main


# each subcommand: its handler's name (looked up at each build, so a wrapper set on
# this module runs), its help line and its (name, add_argument keywords) pairs
_COMMANDS = {
    "analyze": ("cmd_analyze", "score text files and emit a metric report", (
        ("paths", dict(nargs="+", help="UTF-8 text files")),
        ("--lang", dict(required=True, choices=("en", "es"))),
        ("--format", dict(default="csv", choices=("csv", "jsonl"))),
        ("--zipf-g", dict(type=float,
                          help="fix the frequency-profile exponent instead of fitting it")),
        ("--preset", dict(help="scale preset for the wqs_verbatim column "
                               "(default verbatim-<lang>)")),
        ("--out", dict(help="write the report here instead of stdout")),
    )),
    "fit": ("cmd_fit", "fit corpus models to a manifest of texts", (
        ("--manifest", dict(required=True)),
        ("--model", dict(required=True, choices=("heaps", "entropy", "zipf"))),
        ("--out", dict(help="write a parameter file with the fitted values")),
    )),
    "tables": ("cmd_tables", "recompute the recorded group statistics", ()),
    "plot-data": ("cmd_plotdata", "emit figure-ready point files", (
        ("--figure", dict(required=True, choices=FIGURES)),
        ("--report", dict(help="analysis report to plot instead of the bundled tables")),
        ("--out", {}),
    )),
    "verify": ("cmd_verify", "check bundled tables against recorded targets", (
        ("--tolerance", dict(type=float, default=1.0, help="scales the recorded-value "
                             "tolerances (0 fails on rounding alone)")),
    )),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser, declaring every subcommand or only command."""
    parser = argparse.ArgumentParser(
        prog="lexigauge",
        description="Corpus stylometry: diversity, entropy, frequency-profile "
                    "deviation, readability, and the writing quality scale.",
    )
    # the usage line names all five subcommands either way; the full parser
    # keeps no metavar, which would change its error messages
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else (command,):
        handler, help_line, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(func=globals()[handler])
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # declare only the subcommand named first; help or a misspelling gets all
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

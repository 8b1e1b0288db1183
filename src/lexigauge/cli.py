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
import re
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
    load_bundled_tables,
    load_manifest,
    load_text,
)
from .models import (PARAM_COLUMNS, entropy_model_predict, fit_entropy_model, fit_heaps,
                     heaps_predict, load_language_params, load_model_params)
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


def _manifest_groups(manifest_path: str) -> dict[Language, list]:
    """The (entry, profile) pairs of the loadable manifest texts, by language;
    each text that cannot be loaded is reported on stderr and skipped."""
    out: dict[Language, list] = {}
    for entry in load_manifest(manifest_path):
        try:
            text = load_text(entry)
        except (OSError, ValueError) as exc:
            where = f"{entry.id}: {entry.source_path}" if entry.source_path else entry.id
            print(f"error: {where}: {exc}", file=sys.stderr)
            continue
        out.setdefault(entry.language, []).append((entry, build_profile(tokenize(text))))
    return out


def cmd_fit(args) -> int:
    if args.out and args.model == "zipf":
        print("error: --out writes model parameters; use --model heaps or entropy", file=sys.stderr)
        return 2
    try:
        by_lang = _manifest_groups(args.manifest)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # each fitted language's parameter-file values (none for zipf's per-text exponents)
    fitted: dict[Language, dict[str, float]] = {}
    unconverged: list[str] = []
    for language, group in sorted(by_lang.items(), key=lambda kv: kv[0].value):
        if args.model == "zipf":  # a per-text exponent, reported text by text
            gs = []
            for entry, p in group:
                if p.D < 3:
                    print(f"{entry.id}: too few ranks to fit ({p.D})")
                    continue
                gs.append(g := fit_zipf_exponent(p))
                print(f"{entry.id}: g={g:.6g}")
            if gs:
                fitted[language] = {}
                print(f"{language.value}: mean g={sum(gs) / len(gs):.6g} n={len(gs)}")
            continue
        for entry, p in group:
            if p.D == 0:
                print(f"{entry.id}: no symbols to fit")
        profiles = [p for _, p in group if p.D]
        if args.model == "heaps":
            points, fit, usable = [(p.L, p.D) for p in profiles], fit_heaps, ""
        else:
            points = [(d, h) for p in profiles
                      if 0 < (d := specific_diversity(p)) < 1 and (h := entropy(p)) > 0]
            fit, usable = fit_entropy_model, "usable "
        try:
            result = fit(points)
        except ValueError:  # too few points, or a single length
            print(f"{language.value}: insufficient data ({len(points)} {usable}texts)")
            continue
        except ArithmeticError as exc:
            print(f"{language.value}: {exc}")
            unconverged.append(language.value)
            continue
        if args.model == "heaps":
            c, beta = result
            sse = sum((D - c * L**beta) ** 2 for L, D in points)
            fitted[language] = {"heaps_c": c, "heaps_beta": beta}
            print(f"{language.value}: c={c:.6g} beta={beta:.6g} sse={sse:.6g} n={len(points)}")
        else:
            sse = sum((h - d**result) ** 2 for d, h in points)
            fitted[language] = {"entropy_exponent": result}
            print(f"{language.value}: exponent={result:.6g} sse={sse:.6g} n={len(points)}")

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
        if missing := [language.value for language in fitted if language not in defaults]:
            print(f"error: language_params.csv has no {missing[0]} row; {args.out} not written",
                  file=sys.stderr)
            return 1
        rows = []
        for language, params in sorted(defaults.items(), key=lambda kv: kv[0].value):
            try:  # checked as written: %.10g prints a beta of 0.99999999996 as 1
                rows.append(dataclasses.replace(params, **{
                    c: float(f"{v:.10g}") for c, v in fitted.get(language, {}).items()}))
            except ValueError as exc:
                print(f"error: {language.value}: {exc}; {args.out} not written", file=sys.stderr)
                return 1
        if (out := _open_out(args.out)) is None:
            return 1
        with out as stream:
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(PARAM_COLUMNS)
            writer.writerows([row.language.value, *(f"{getattr(row, c):.10g}"
                                                   for c in PARAM_COLUMNS[1:])] for row in rows)
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
                         heaps_predict),
    "entropy": _Figure(("d", "h"), ("d (specific diversity)", "h (normalized entropy)"),
                       ("d", "h"), ("d", "h"), entropy_model_predict),
    "zipf": _Figure(("L", "j"), ("L (symbols)", "j (frequency-profile deviation)"),
                    ("L", "j"), None),
    "wqs-plane": _Figure(("d_rel", "h_rel", "j", "wqs"), ("d_rel", "h_rel", "j, wqs"),
                         ("d_rel", "h_rel", "j", "wqs_verbatim"), ("d_rel", "h_rel", "j", "wqs")),
    "trend": _Figure(("year", "S"), ("year", "S (words per phrase)"), ("name", "S"), None),
}
FIGURES = tuple(_FIGURES)


# the points of each model curve and of the trend figure's fit line
_CURVE_POINTS = 100


def _log_spaced(lo: float, hi: float) -> list[float]:
    """_CURVE_POINTS log-spaced points from lo to hi, with float(lo) and
    float(hi) exact."""
    n = _CURVE_POINTS
    if lo <= 0 or hi <= lo:
        return [lo] * n
    step = (math.log(hi) - math.log(lo)) / (n - 1)
    return [float(lo), *(math.exp(math.log(lo) + i * step) for i in range(1, n - 1)), float(hi)]


# table figures label all rows by language and laureate status (53/103/35/123 rows); the
# groups of tables and verify keep speeches and the laureates' originals only (37/101/19/117)
_GROUP_LABELS = {(key.language, key.nobel): label for label, key in targets.GROUPS.items()}


_YEAR_PREFIX = re.compile(r"^(\d{4})\.")


def _parse_year(name: str) -> int | None:
    """The year of a leading 'YYYY.' in a text's name, else None."""
    m = _YEAR_PREFIX.match(name)
    return int(m.group(1)) if m else None


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
    span, n = years[-1] - years[0], _CURVE_POINTS
    xs = (years[0] + span * i / (n - 1) for i in range(n))
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
        params = load_model_params() if figure.curve else {}
        if figure.curve and (xs := [row[1] for row in rows if row[1] > 0]):
            for language, p in sorted(params.items(), key=lambda kv: kv[0].value):
                curve = f"curve-{language.code.lower()}"
                rows += [(curve, x, figure.curve(p, x)) for x in _log_spaced(min(xs), max(xs))]
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    comments = [f"# figure: {args.figure}"]
    comments += [f"# {axis}: {label}" for axis, label in zip(("x", "y", "extras"), figure.axes)]
    if args.figure == "trend":
        rows = _trend(rows, comments)
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

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
from ._data import data_dir, read_table
from .corpus import (
    CorpusEntry,
    Genre,
    Language,
    Origin,
    _parse_year,
    load_bundled_tables,
    load_manifest,
    load_report,
    load_text,
    write_report,
)
from .models import PARAM_COLUMNS, fit_entropy_model, fit_heaps, load_language_params
from .pipeline import AnalysisError, TextMetrics, analyze_text
from .profile import build_profile, entropy, specific_diversity
from .stats import linear_regression
from .tokenizer import tokenize
from .wqs import load_wqs_presets, wqs, StylePoint
from .zipf import fit_zipf_exponent


def _open_out(out: str | None):
    """The stream to write to: the file out, opened (and closed on exit), or stdout."""
    return nullcontext(sys.stdout) if out is None else open(out, "w", encoding="utf-8", newline="")


# ---------------------------------------------------------------- analyze


def cmd_analyze(args) -> int:
    language = Language.parse(args.lang)
    try:
        params = load_language_params().get(language)
        presets = load_wqs_presets() if args.preset is not None else {}
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if params is None:
        print(f"error: language_params.csv has no {language.value} row", file=sys.stderr)
        return 1
    if args.preset is not None:
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
            failed[type(exc.cause).__name__] += 1
            print(f"error: {path}: {exc.cause}", file=sys.stderr)
    with _open_out(args.out) as stream:
        write_report(records, args.format, stream)
    causes = ", ".join(f"{n} {cause}" for cause, n in sorted(failed.items()))
    print(f"analyzed {len(records)}, failed {failed.total()}" + (f" ({causes})" if failed else ""),
          file=sys.stderr)
    return 1 if failed and not records else 0


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


def cmd_fit(args) -> int:
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
    if args.model == "heaps":
        for language, group in sorted(by_lang.items(), key=lambda kv: kv[0].value):
            points = [(p.L, p.D) for _, p in group]
            if len(points) < 3 or len({L for L, _ in points}) < 2:
                lines.append(f"{language.value}: insufficient data ({len(points)} texts)")
                continue
            c, beta = fit_heaps(points)
            sse = sum((D - c * L**beta) ** 2 for L, D in points)
            fitted[language] = {"heaps_c": c, "heaps_beta": beta}
            lines.append(
                f"{language.value}: c={c:.6g} beta={beta:.6g} sse={sse:.6g} n={len(points)}"
            )
    elif args.model == "entropy":
        for language, group in sorted(by_lang.items(), key=lambda kv: kv[0].value):
            points = []
            for entry, p in group:
                if p.D == 0:
                    lines.append(f"{entry.id}: no symbols to fit")
                elif 0 < (d := specific_diversity(p)) < 1 and (h := entropy(p)) > 0:
                    points.append((d, h))
            if len(points) < 2:
                lines.append(f"{language.value}: insufficient data ({len(points)} usable texts)")
                continue
            e = fit_entropy_model(points)
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
    if not fitted:
        print("error: no group had enough data to fit", file=sys.stderr)
        return 1

    if args.out and args.model in ("heaps", "entropy"):
        try:
            defaults = load_language_params()
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
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
        records = targets.recompute(load_bundled_tables(args.reference_dir))
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
    y = curve(language params, x) drawn over the points' x range, if any."""
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
                    for r in load_bundled_tables(args.reference_dir)]
        params = load_language_params() if figure.curve else None
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

    with _open_out(args.out) as stream:
        stream.writelines(line + "\n" for line in comments)
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["series", *figure.header])
        writer.writerows([row[0]] + [f"{v:.6f}" if isinstance(v, float) else v for v in row[1:]]
                         for row in rows)
    return 0


# ----------------------------------------------------------------- verify


def _check(checks: list, ok: bool, message: str, info: bool = False) -> None:
    checks.append(("INFO" if info else ("PASS" if ok else "FAIL"), message))


def _verify_digests(checks: list, directory: Path, cells: dict) -> None:
    """Check each row's md5 digest of its seven metric cells, as written (the
    cells load_bundled_tables collected), against the integrity sidecar."""
    import hashlib  # only verify needs it; other commands skip loading _hashlib

    sidecar = directory / "integrity.csv"
    if not sidecar.is_file():
        _check(checks, True, "row digests: no integrity.csv sidecar; skipped", info=True)
        return
    try:
        expected = {(name, rid): digest for _, (name, rid, digest)
                    in read_table(sidecar, ("file", "id", "digest"))}
    except ValueError as exc:
        _check(checks, False, f"row digests: {exc}")
        return
    bad = []
    seen = set()
    for name, table in cells.items():
        for rid, numeric in table:
            digest = hashlib.md5("|".join(numeric).encode()).hexdigest()[:10]
            key = (name, rid)
            seen.add(key)
            if key not in expected:
                bad.append(f"{name} row {rid}: not in integrity sidecar")
            elif expected[key] != digest:
                bad.append(f"{name} row {rid}: numeric fields altered")
    missing = sorted(set(expected) - seen)
    for key in missing:
        bad.append(f"{key[0]} row {key[1]}: listed in sidecar but missing from table")
    if bad:
        for b in bad[:10]:
            _check(checks, False, f"row digests: {b}")
        if len(bad) > 10:
            _check(checks, False, f"row digests: ... and {len(bad) - 10} more")
    else:
        _check(checks, True, f"row digests: all {len(seen)} rows intact")


def cmd_verify(args) -> int:
    tol = args.tolerance
    if not tol >= 0:  # also rejects nan
        print("error: --tolerance must be >= 0", file=sys.stderr)
        return 2
    checks: list[tuple[str, str]] = []
    directory = Path(args.reference_dir) if args.reference_dir else data_dir()
    preset_path = None
    if args.reference_dir and (directory / "wqs_presets.csv").is_file():
        preset_path = str(directory / "wqs_presets.csv")

    cells: dict[str, list] = {}
    try:
        rows = load_bundled_tables(args.reference_dir, cells)
        presets = load_wqs_presets(preset_path)
    except (OSError, ValueError) as exc:
        print(f"FAIL  table load: {exc}")
        print("1 hard failure")
        return 1
    try:
        records = targets.recompute(rows)
    except ValueError as exc:
        print(f"FAIL  statistics: {exc}")
        print("1 hard failure")
        return 1

    _verify_digests(checks, directory, cells)

    sizes = {r.group: r.n for r in records if r.group in targets.GROUPS}
    _check(checks, sizes == targets.GROUP_SIZES,
           f"group sizes: {sizes} vs recorded {targets.GROUP_SIZES}")

    for r in records:
        if r.field == "p" and r.kind == "lt":
            message = f"{r.metric} p {r.group}: {r.got:.3g} < recorded bound {r.recorded:g}"
        elif r.field == "p":
            message = f"{r.metric} p {r.group}: {r.got:.4g} vs recorded {r.recorded:g}"
        elif r.metric == "scale":
            if r.field == targets.SCALE_FIELDS[0]:  # the group's size precedes its cells
                n_rec = targets.RECORDED_SCALE_STATS[r.group][0]
                _check(checks, r.n == n_rec, f"scale group {r.group} n: {r.n} vs {n_rec}")
            message = (f"{r.group} {r.field}: {r.got:.4f} vs recorded {r.recorded:.2f} "
                       f"(delta {r.got - r.recorded:+.4f})")
        else:
            message = (f"{r.metric} {r.group} {r.field}: {r.got:.5f} vs recorded "
                       f"{r.recorded:.5f} (delta {r.got - r.recorded:+.5f})")
        if r.documented:
            _check(checks, True, message + " [documented divergence]", info=True)
        else:
            _check(checks, r.holds(tol), message)

    for code in ("en", "es"):
        coeffs = presets[f"verbatim-{code}"]
        direction = targets.RECORDED_DIRECTIONS[code]
        weights = (coeffs.weights.d_rel, coeffs.weights.h_rel, coeffs.weights.j)
        ratios = [w / d for w, d in zip(weights, direction)]
        spread = max(ratios) / min(ratios) - 1
        _check(checks, spread < 1e-4,
               f"verbatim-{code} weight/direction ratios agree: spread {spread:.2e}")
        mean_ratio = sum(ratios) / 3
        rec_scale = targets.RECORDED_SCALE_FACTORS[code]
        _check(checks, abs(mean_ratio - rec_scale) < 1e-3,
               f"verbatim-{code} scale factor {mean_ratio:.4f} vs recorded {rec_scale}")

    e1 = targets.E1_SCALE_CHECK
    e1_rows = [r for r in rows if r.entry.id == e1["row"]]
    if not e1_rows:
        _check(checks, False, f"row {e1['row']} missing from tables")
    else:
        row = e1_rows[0]
        point = StylePoint(*e1["point"])
        matches = (abs(row.d_rel - point.d_rel) < 5e-5 and abs(row.h_rel - point.h_rel) < 5e-5
                   and abs(row.j - point.j) < 5e-5)
        _check(checks, matches, f"row {e1['row']} coordinates match the recorded example point")
        got = wqs(presets["verbatim-en"], point)
        _check(checks, abs(got - e1["expected"]) <= e1["tolerance"],
               f"verbatim-en scale on row {e1['row']}: {got:.4f} vs expected {e1['expected']}")
        _check(checks, True,
               f"row {e1['row']} recorded wqs column ({e1['recorded_column_value']}) differs from "
               f"the scale evaluation ({got:.4f}); known recording inconsistency", info=True)

    for status, message in checks:
        print(f"{status:4s}  {message}")
    failures = sum(1 for s, _ in checks if s == "FAIL")
    infos = sum(1 for s, _ in checks if s == "INFO")
    passes = sum(1 for s, _ in checks if s == "PASS")
    print(f"\n{passes} passed, {failures} failed, {infos} informational")
    return 1 if failures else 0


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
    "tables": ("cmd_tables", "recompute the recorded group statistics", (
        ("--reference-dir", dict(help="directory of reference tables (default: bundled)")),
    )),
    "plot-data": ("cmd_plotdata", "emit figure-ready point files", (
        ("--figure", dict(required=True, choices=FIGURES)),
        ("--reference-dir", {}),
        ("--report", dict(help="analysis report to plot instead of the bundled tables")),
        ("--out", {}),
    )),
    "verify": ("cmd_verify", "check bundled tables against recorded targets", (
        ("--reference-dir", {}),
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

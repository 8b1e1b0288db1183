"""Verification targets recorded alongside the bundled reference tables.

The bundled metric tables ship with the summary statistics their original
analysis reported: per-group means and standard deviations, t-test p-values,
and correlation coefficients. recompute() derives every one of these from
the raw table rows, once; the tables command and the acceptance tests read
its records, and checks() builds every line verify prints on them (a preset
passes only if each weight has the sign of its published direction).

A minority of the recorded cells cannot be reproduced from the bundled rows
themselves; the recorded analysis evidently summarized a slightly different
snapshot of the underlying corpus than the rows that were published with it.
Those cells are enumerated in DOCUMENTED_DIVERGENCES / DIVERGENT_PVALUES and
are reported informationally instead of as failures. Everything else is
checked hard.

Group labels: en/es prefix for language; nobel/non for the laureate split;
all for the union of both splits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter

from ._data import data_dir, read_table
from .corpus import GroupKey, Language, ReferenceRow, select_group
from .stats import pearson, summarize, t_test
from .wqs import StylePoint, WqsCoefficients, wqs

# (n, mean, std) per group for the three style coordinates.
RECORDED_GROUP_STATS = {
    "d_rel": {
        "en-nobel": (37, 0.02690, 0.152),
        "en-non": (101, -0.05741, 0.133),
        "es-nobel": (19, 0.07296, 0.097),
        "es-non": (117, -0.02339, 0.085),
    },
    "h_rel": {
        "en-nobel": (37, -0.00567, 0.0192),
        "en-non": (101, 0.00318, 0.0184),
        "es-nobel": (19, -0.01168, 0.0192),
        "es-non": (117, 0.00579, 0.0183),
    },
    "j": {
        "en-nobel": (37, -0.05779, 0.0994),
        "en-non": (101, 0.03232, 0.1768),
        "es-nobel": (19, -0.19167, 0.0561),
        "es-non": (117, -0.10382, 0.0856),
    },
}

# Recorded two-tailed p-values per coordinate. ("eq", v) compares against v;
# ("lt", bound) only asserts the recomputed value stays below bound.
RECORDED_PVALUES = {
    "d_rel": {
        "en nobel vs non": ("eq", 0.00186),
        "es nobel vs non": ("eq", 0.00001),
        "nobel en vs es": ("eq", 0.23604),
        "non en vs es": ("eq", 0.02340),
    },
    "h_rel": {
        "en nobel vs non": ("eq", 0.00659),
        "es nobel vs non": ("eq", 0.00005),
        "nobel en vs es": ("eq", 0.2067),
        "non en vs es": ("eq", 0.2852),
    },
    "j": {
        "en nobel vs non": ("eq", 0.00396),
        "es nobel vs non": ("eq", 0.00003),
        "nobel en vs es": ("lt", 0.00001),
        "non en vs es": ("lt", 0.00001),
    },
}

# (n, wqs_mean, wqs_std, readability_mean, readability_std, correlation).
RECORDED_SCALE_STATS = {
    "en-all": (138, 0.43, 1.09, 59.90, 10.52, -0.34),
    "en-nobel": (37, 0.90, 0.68, 56.91, 10.21, -0.38),
    "en-non": (101, 0.25, 1.16, 61.00, 10.47, -0.31),
    "es-all": (136, 0.25, 0.97, 61.03, 9.33, -0.15),
    "es-nobel": (19, 1.16, 0.75, 63.43, 7.45, -0.39),
    "es-non": (117, 0.11, 0.92, 60.64, 9.57, -0.19),
}

RECORDED_SCALE_PVALUES = {
    "en wqs nobel vs non": ("eq", 0.002),
    "en readability nobel vs non": ("eq", 0.043),
    "es wqs nobel vs non": ("lt", 0.0005),  # recorded as 0.000 at 3 decimals
    "es readability nobel vs non": ("eq", 0.229),
}

# Mean/std cells that do not recompute from the bundled rows (metric, group,
# field). The recomputed values are stable and the verify report prints them
# next to the recorded ones.
DOCUMENTED_DIVERGENCES = frozenset({
    ("d_rel", "en-nobel", "mean"),
    ("d_rel", "en-nobel", "std"),
    ("d_rel", "en-non", "mean"),
    ("d_rel", "en-non", "std"),
    ("d_rel", "es-nobel", "mean"),
    ("d_rel", "es-non", "mean"),
    ("h_rel", "es-nobel", "mean"),
    ("h_rel", "es-nobel", "std"),
})

# p-value cells that do not recompute to within the 20% relative band.
DIVERGENT_PVALUES = frozenset({
    ("d_rel", "nobel en vs es"),
    ("d_rel", "non en vs es"),
    ("h_rel", "en nobel vs non"),
    ("h_rel", "es nobel vs non"),
    ("h_rel", "nobel en vs es"),
    ("h_rel", "non en vs es"),
    ("j", "es nobel vs non"),
})

# The recorded per-row wqs column and the published scale coefficients do not
# agree everywhere. Row E1 is the canonical example: evaluating the
# verbatim-en preset on its printed (d_rel, h_rel, j) gives 0.0904, while the
# table records 0.6114. The scale evaluation is checked hard; the recorded
# column value is reported informationally.
E1_SCALE_CHECK = {
    "row": "E1",
    "point": (-0.1684, 0.0049, -0.1156),
    "expected": 0.0904,
    "tolerance": 0.0005,
    "recorded_column_value": 0.6114,
}

# Published unit direction vectors between the class centers, and the scale
# factors tying them to the preset weights (weights = scale * direction,
# component ratios agree to 4 significant figures).
RECORDED_DIRECTIONS = {
    "en": (0.68147, -0.07153, -0.72835),
    "es": (0.73241, -0.13280, -0.66779),
}
RECORDED_SCALE_FACTORS = {"en": 8.083, "es": 7.601}

GROUP_SIZES = {label: n for label, (n, _, _) in RECORDED_GROUP_STATS["d_rel"].items()}

# Base tolerances at --tolerance 1.0; the fixed ones do not scale with it.
TOL_GROUP_CELL = 0.005      # absolute, mean/std of the style coordinates
TOL_SCALE_CELL = 0.02       # absolute, wqs/readability means, stds, correlations
TOL_PVALUE_REL = 0.20       # relative band on recomputed p-values
TOL_RATIO_SPREAD = 1e-4     # fixed, max/min - 1 of a preset's weight/direction ratios
TOL_SCALE_FACTOR = 1e-3     # fixed, their mean against RECORDED_SCALE_FACTORS
TOL_E1_POINT = 5e-5         # fixed, row E1's coordinates against the recorded point


# The four author groups, in the order every report lists them.
GROUPS = {
    "en-nobel": GroupKey(Language.ENGLISH, True),
    "en-non": GroupKey(Language.ENGLISH, False),
    "es-nobel": GroupKey(Language.SPANISH, True),
    "es-non": GroupKey(Language.SPANISH, False),
}

# The two groups each coordinate t-test compares.
PAIRS = {
    "en nobel vs non": ("en-nobel", "en-non"),
    "es nobel vs non": ("es-nobel", "es-non"),
    "nobel en vs es": ("en-nobel", "es-nobel"),
    "non en vs es": ("en-non", "es-non"),
}

# The statistics of a RECORDED_SCALE_STATS tuple after its n.
SCALE_FIELDS = ("wqs mean", "wqs std", "readability mean", "readability std", "correlation")


@dataclass(frozen=True)
class Recomputed:
    """One recorded statistic next to its value recomputed from the rows.

    metric is a style coordinate (d_rel, h_rel, j), or "scale" for the
    scale and readability statistics. group is a group label, or a pair
    label when field is "p". n counts the rows behind the value. kind is
    "eq" for a recorded value and "lt" for a recorded upper bound.
    tolerance is the band at --tolerance 1: absolute, except for p-values,
    where it is relative to the recorded value."""
    metric: str
    group: str
    field: str
    n: int
    got: float
    recorded: float
    kind: str
    tolerance: float
    documented: bool = False

    def holds(self, scale: float = 1.0) -> bool:
        """Whether the recomputed value reproduces the recorded one within
        the tolerance band times scale (0 demands exact equality)."""
        if self.kind == "lt":
            return self.got < self.recorded
        band = self.tolerance * scale
        if self.field == "p":
            band *= self.recorded
        return abs(self.got - self.recorded) <= band


def split_groups(rows: list[ReferenceRow]) -> dict[str, list[ReferenceRow]]:
    """The four groups of GROUPS, then the en-all and es-all unions."""
    groups = {label: select_group(rows, key) for label, key in GROUPS.items()}
    for lang in ("en", "es"):
        groups[f"{lang}-all"] = groups[f"{lang}-nobel"] + groups[f"{lang}-non"]
    return groups


def _named(label: str, statistic, *samples):
    """statistic(*samples); a ValueError it raises is prefixed with label."""
    try:
        return statistic(*samples)
    except ValueError as exc:
        raise ValueError(f"{label}: {exc}") from exc


def recompute(rows: list[ReferenceRow]) -> list[Recomputed]:
    """Every recorded statistic, recomputed from rows, in report order: per
    coordinate the group means and stds then its t-tests, then the scale
    and readability statistics per group, then their t-tests. A group too
    small or too uniform for a statistic raises ValueError naming the group
    or the pair."""
    # each group's column of each metric the statistics read, pulled out once
    values = {(label, metric): list(map(attrgetter(metric), members))
              for label, members in split_groups(rows).items()
              for metric in (*RECORDED_GROUP_STATS, "wqs", "readability")}

    out: list[Recomputed] = []
    for metric, recorded in RECORDED_GROUP_STATS.items():
        for label in GROUPS:
            _, mean_rec, std_rec = recorded[label]
            s = _named(f"{metric} {label}", summarize, values[label, metric])
            for field, got, rec in (("mean", s.mean, mean_rec), ("std", s.std, std_rec)):
                out.append(Recomputed(metric, label, field, s.n, got, rec, "eq", TOL_GROUP_CELL,
                                      (metric, label, field) in DOCUMENTED_DIVERGENCES))
        for pair, (kind, rec) in RECORDED_PVALUES[metric].items():
            a, b = (values[label, metric] for label in PAIRS[pair])
            p = _named(f"{metric} p {pair}", t_test, a, b)
            out.append(Recomputed(metric, pair, "p", len(a) + len(b), p, rec, kind,
                                  TOL_PVALUE_REL, (metric, pair) in DIVERGENT_PVALUES))
    for label, (_, *recorded) in RECORDED_SCALE_STATS.items():
        wqs_vals, read_vals = values[label, "wqs"], values[label, "readability"]
        # the loops above already failed on any group too small for a statistic
        sw, sr = summarize(wqs_vals), summarize(read_vals)
        got = (sw.mean, sw.std, sr.mean, sr.std,
               _named(f"scale {label} correlation", pearson, wqs_vals, read_vals))
        for field, g, rec in zip(SCALE_FIELDS, got, recorded):
            out.append(Recomputed("scale", label, field, sw.n, g, rec, "eq", TOL_SCALE_CELL))
    for pair, (kind, rec) in RECORDED_SCALE_PVALUES.items():
        lang, metric = pair.split()[:2]  # "<lang> <metric> nobel vs non"
        a, b = values[f"{lang}-nobel", metric], values[f"{lang}-non", metric]
        out.append(Recomputed("scale", pair, "p", len(a) + len(b), t_test(a, b), rec, kind,
                              TOL_PVALUE_REL))
    return out


def _digest_checks(cells: dict[str, list]) -> list[tuple[str, str]]:
    """The row digest lines: each row's md5 digest of its seven metric cells as
    written (see load_bundled_tables) against the data directory's sidecar.
    A sidecar that lists a (file, id) twice fails naming the line."""
    import hashlib  # only verify needs it; other commands skip loading _hashlib

    sidecar = data_dir() / "integrity.csv"
    if not sidecar.is_file():
        return [("INFO", "row digests: no integrity.csv sidecar; skipped")]
    expected = {}
    try:
        for line, (name, rid, digest) in read_table(sidecar, ("file", "id", "digest")):
            if (name, rid) in expected:
                raise ValueError(f"{sidecar}:{line}: duplicate entry {name} row {rid}")
            expected[name, rid] = digest
    except ValueError as exc:
        return [("FAIL", f"row digests: {exc}")]
    bad = []
    seen = set()
    for name, table in cells.items():
        for rid, numeric in table:
            seen.add((name, rid))
            if (name, rid) not in expected:
                bad.append(f"{name} row {rid}: not in integrity sidecar")
            elif expected[name, rid] != hashlib.md5("|".join(numeric).encode()).hexdigest()[:10]:
                bad.append(f"{name} row {rid}: numeric fields altered")
    bad += [f"{name} row {rid}: listed in sidecar but missing from table"
            for name, rid in sorted(set(expected) - seen)]
    if not bad:
        return [("PASS", f"row digests: all {len(seen)} rows intact")]
    out = [("FAIL", f"row digests: {b}") for b in bad[:10]]
    if len(bad) > 10:
        out.append(("FAIL", f"row digests: ... and {len(bad) - 10} more"))
    return out


def checks(rows: list[ReferenceRow], presets: dict[str, WqsCoefficients],
           cells: dict[str, list], tolerance: float) -> list[tuple[str, str]]:
    """Every line of the verify report as (status, message), status PASS,
    FAIL or INFO, in report order: the row digests of cells, the group
    sizes, each recomputed statistic within its band times tolerance, the
    verbatim presets against the published constants, then row E1. A group
    unfit for a statistic raises ValueError, as in recompute."""
    records = recompute(rows)
    out = _digest_checks(cells)

    def check(ok: bool, message: str) -> None:
        out.append(("PASS" if ok else "FAIL", message))

    sizes = {r.group: r.n for r in records if r.group in GROUPS}
    check(sizes == GROUP_SIZES, f"group sizes: {sizes} vs recorded {GROUP_SIZES}")

    for r in records:
        if r.field == "p" and r.kind == "lt":
            message = f"{r.metric} p {r.group}: {r.got:.3g} < recorded bound {r.recorded:g}"
        elif r.field == "p":
            message = f"{r.metric} p {r.group}: {r.got:.4g} vs recorded {r.recorded:g}"
        elif r.metric == "scale":
            if r.field == SCALE_FIELDS[0]:  # the group's size precedes its cells
                n_rec = RECORDED_SCALE_STATS[r.group][0]
                check(r.n == n_rec, f"scale group {r.group} n: {r.n} vs {n_rec}")
            message = (f"{r.group} {r.field}: {r.got:.4f} vs recorded {r.recorded:.2f} "
                       f"(delta {r.got - r.recorded:+.4f})")
        else:
            message = (f"{r.metric} {r.group} {r.field}: {r.got:.5f} vs recorded "
                       f"{r.recorded:.5f} (delta {r.got - r.recorded:+.5f})")
        if r.documented:
            out.append(("INFO", message + " [documented divergence]"))
        else:
            check(r.holds(tolerance), message)

    for code, direction in RECORDED_DIRECTIONS.items():
        w = presets[f"verbatim-{code}"].weights
        ratios = [a / b for a, b in zip((w.d_rel, w.h_rel, w.j), direction)]
        low = min(ratios)
        # a negative ratio makes the spread negative, a zero one undefined
        spread = max(ratios) / low - 1 if low else math.inf
        check(low > 0 and spread < TOL_RATIO_SPREAD,
              f"verbatim-{code} weight/direction ratios agree: spread {spread:.2e}")
        mean_ratio = sum(ratios) / 3
        rec_scale = RECORDED_SCALE_FACTORS[code]
        check(abs(mean_ratio - rec_scale) < TOL_SCALE_FACTOR,
              f"verbatim-{code} scale factor {mean_ratio:.4f} vs recorded {rec_scale}")

    e1 = E1_SCALE_CHECK
    row = next((r for r in rows if r.entry.id == e1["row"]), None)
    if row is None:
        check(False, f"row {e1['row']} missing from tables")
        return out
    coordinates = (row.d_rel, row.h_rel, row.j)
    check(all(abs(a - b) < TOL_E1_POINT for a, b in zip(coordinates, e1["point"])),
          f"row {e1['row']} coordinates match the recorded example point")
    got = wqs(presets["verbatim-en"], StylePoint(*e1["point"]))
    check(abs(got - e1["expected"]) <= e1["tolerance"],
          f"verbatim-en scale on row {e1['row']}: {got:.4f} vs expected {e1['expected']}")
    out.append(("INFO", f"row {e1['row']} recorded wqs column ({e1['recorded_column_value']}) "
                        f"differs from the scale evaluation ({got:.4f}); known recording "
                        "inconsistency"))
    return out

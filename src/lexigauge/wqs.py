"""Writing Quality Scale: class centers, direction vectors, and the linear
scale built from them.

A style point is a text's (d_rel, h_rel, j) coordinates. The scale is the dot
product of fixed weights with the point after subtracting a fixed origin:

    wqs = w_d (d_rel - o_d) + w_h (h_rel - o_h) + w_j (j - o_j)

The `verbatim` presets in data/wqs_presets.csv carry the published constants
exactly as printed. The `reconstructed` presets are stored nowhere:
reconstruct() rebuilds them from the reference rows in load_language_params,
with origin = non-laureate class center, weights = scale * unit direction
toward the laureate center. The two disagree because the published origin
offsets do not match the published class centers; keeping both shows the gap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from ._data import data_path, read_table
from .corpus import GroupKey, Language, ReferenceRow, select_group


@dataclass(frozen=True)
class StylePoint:
    d_rel: float
    h_rel: float
    j: float

    def __post_init__(self):
        for field in ("d_rel", "h_rel", "j"):
            if not math.isfinite(getattr(self, field)):
                raise ValueError(f"non-finite {field}")

    def __sub__(self, other: "StylePoint") -> "StylePoint":
        return StylePoint(self.d_rel - other.d_rel, self.h_rel - other.h_rel, self.j - other.j)

    def norm(self) -> float:
        return math.hypot(self.d_rel, self.h_rel, self.j)


@dataclass(frozen=True)
class WqsCoefficients:
    origin: StylePoint
    weights: StylePoint

    def __post_init__(self):
        if self.weights.norm() == 0.0:
            raise ValueError("weights must not all be zero")


def class_center(points: list[StylePoint]) -> StylePoint:
    """Component-wise mean of a group's style points."""
    if not points:
        raise ValueError("class center of an empty group is undefined")
    n = len(points)
    return StylePoint(
        sum(p.d_rel for p in points) / n,
        sum(p.h_rel for p in points) / n,
        sum(p.j for p in points) / n,
    )


def direction_vector(start: StylePoint, end: StylePoint) -> StylePoint:
    """Unit vector from one class center to another."""
    diff = end - start
    norm = diff.norm()
    if norm == 0.0:
        raise ValueError("direction between identical points is undefined")
    return StylePoint(diff.d_rel / norm, diff.h_rel / norm, diff.j / norm)


def build_scale(origin: StylePoint, direction: StylePoint, scale: float) -> WqsCoefficients:
    """Coefficients with weights = scale * direction. direction must be unit
    length; scale must be nonzero."""
    # 1e-4 accepts unit vectors whose components were rounded to 5 decimals
    if abs(direction.norm() - 1.0) > 1e-4:
        raise ValueError(f"direction must have unit length, got norm {direction.norm()}")
    if scale == 0.0:
        raise ValueError("scale must be nonzero")
    weights = StylePoint(scale * direction.d_rel, scale * direction.h_rel, scale * direction.j)
    return WqsCoefficients(origin=origin, weights=weights)


def reconstruct(rows: list[ReferenceRow], language: Language, scale: float) -> WqsCoefficients:
    """The reconstructed preset of a language: origin at its non-laureate
    center in rows, weights scale times the unit direction from there to its
    laureate center. An empty group raises ValueError naming the language."""
    try:
        non, nobel = (class_center([StylePoint(r.d_rel, r.h_rel, r.j)
                                    for r in select_group(rows, GroupKey(language, laureate))])
                      for laureate in (False, True))
        return build_scale(non, direction_vector(non, nobel), scale)
    except ValueError as exc:
        raise ValueError(f"cannot reconstruct the {language.value} scale: {exc}") from exc


def wqs(coeffs: WqsCoefficients, point: StylePoint) -> float:
    shifted = point - coeffs.origin
    w = coeffs.weights
    return w.d_rel * shifted.d_rel + w.h_rel * shifted.h_rel + w.j * shifted.j


def load_wqs_presets() -> dict[str, WqsCoefficients]:
    """Presets from the bundled `label,origin_d,origin_h,origin_j,w_d,w_h,w_j`
    file, wqs_presets.csv (LEXIGAUGE_PRESET_DIR overrides the directory). The
    file must carry the verbatim preset of each language; one missing raises
    ValueError naming the file and label."""
    resolved = data_path("wqs_presets.csv")
    presets: dict[str, WqsCoefficients] = {}
    columns = ("label", "origin_d", "origin_h", "origin_j", "w_d", "w_h", "w_j")
    for line, (label, *values) in read_table(resolved, columns):
        label = label.strip()
        try:
            floats = list(map(float, values))
            presets[label] = WqsCoefficients(StylePoint(*floats[:3]), StylePoint(*floats[3:]))
        except ValueError as exc:
            raise ValueError(f"{resolved}:{line}: bad preset row {label!r}: {exc}") from exc
    for label in ("verbatim-en", "verbatim-es"):
        if label not in presets:
            raise ValueError(f"{resolved}: no preset {label!r}")
    return presets

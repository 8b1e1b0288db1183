"""Writing Quality Scale: class centers, direction vectors, and the linear
scale built from them.

A style point is a text's (d_rel, h_rel, j) coordinates. The scale is the dot
product of fixed weights with the point after subtracting a fixed origin:

    wqs = w_d (d_rel - o_d) + w_h (h_rel - o_h) + w_j (j - o_j)

Two preset families ship in data/wqs_presets.csv. The `verbatim` presets
carry the published constants exactly as printed. The `reconstructed` presets
rebuild the scale from the bundled tables: origin = non-laureate class
center, weights = scale * unit direction toward the laureate center. The two
families disagree because the published origin offsets do not match the
published class centers; keeping both makes that gap visible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from ._data import data_path, read_table


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
    label: str

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


def build_scale(origin: StylePoint, direction: StylePoint, scale: float, label: str = "custom") -> WqsCoefficients:
    """Coefficients with weights = scale * direction. direction must be unit
    length; scale must be nonzero."""
    # 1e-4 accepts unit vectors whose components were rounded to 5 decimals
    if abs(direction.norm() - 1.0) > 1e-4:
        raise ValueError(f"direction must have unit length, got norm {direction.norm()}")
    if scale == 0.0:
        raise ValueError("scale must be nonzero")
    weights = StylePoint(scale * direction.d_rel, scale * direction.h_rel, scale * direction.j)
    return WqsCoefficients(origin=origin, weights=weights, label=label)


def wqs(coeffs: WqsCoefficients, point: StylePoint) -> float:
    shifted = point - coeffs.origin
    w = coeffs.weights
    return w.d_rel * shifted.d_rel + w.h_rel * shifted.h_rel + w.j * shifted.j


def load_wqs_presets(path: str | None = None) -> dict[str, WqsCoefficients]:
    """Presets from a `label,origin_d,origin_h,origin_j,w_d,w_h,w_j` file.
    Defaults to the bundled file (LEXIGAUGE_PRESET_DIR overrides the
    directory)."""
    resolved = path if path is not None else data_path("wqs_presets.csv")
    presets: dict[str, WqsCoefficients] = {}
    columns = ("label", "origin_d", "origin_h", "origin_j", "w_d", "w_h", "w_j")
    for line, (label, *values) in read_table(resolved, columns):
        label = label.strip()
        try:
            floats = list(map(float, values))
            presets[label] = WqsCoefficients(StylePoint(*floats[:3]), StylePoint(*floats[3:]), label)
        except ValueError as exc:
            raise ValueError(f"{resolved}:{line}: bad preset row {label!r}: {exc}") from exc
    return presets


def preset(label: str, path: str | None = None) -> WqsCoefficients:
    presets = load_wqs_presets(path)
    if label not in presets:
        raise KeyError(f"no preset {label!r}; available: {sorted(presets)}")
    return presets[label]

"""Per-language regression models and the relative deviations built on them.

Two models per language: a power law D_m = c * L^beta predicting vocabulary
from length, and h_m = d^e predicting entropy from specific diversity. The
exponent e is stored directly; the underlying shape parameter alpha with
e = (alpha - 2)/(alpha - 1) is available via alpha_from_exponent.

Fitting minimizes the linear-space squared error. Log-space least squares
only seeds the iteration; a damped Gauss-Newton refinement does the real
work and never returns a worse fit than its seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._data import data_path
from .corpus import Language
from .wqs import WqsCoefficients, load_wqs_presets


@dataclass(frozen=True)
class LanguageParams:
    language: Language
    heaps_c: float
    heaps_beta: float
    entropy_exponent: float
    c_sy: float
    wqs_preset: WqsCoefficients | None = None
    wqs_reconstructed: WqsCoefficients | None = None

    def __post_init__(self):
        if not self.heaps_c > 0:
            raise ValueError(f"heaps_c must be positive, got {self.heaps_c}")
        if not 0 < self.heaps_beta < 1:
            raise ValueError(f"heaps_beta must be in (0,1), got {self.heaps_beta}")
        if not 0 < self.entropy_exponent < 1:
            raise ValueError(f"entropy_exponent must be in (0,1), got {self.entropy_exponent}")
        if not self.c_sy > 0:
            raise ValueError(f"c_sy must be positive, got {self.c_sy}")


def alpha_from_exponent(e: float) -> float:
    """Invert e = (alpha - 2)/(alpha - 1)."""
    if e >= 1:
        raise ValueError("exponent must be below 1")
    return (2 - e) / (1 - e)


def heaps_predict(params: LanguageParams, L: int) -> float:
    """Expected vocabulary size D_m = c * L^beta for a text of length L."""
    if L < 1:
        raise ValueError(f"length must be at least 1, got {L}")
    return params.heaps_c * L ** params.heaps_beta


def entropy_model_predict(params: LanguageParams, d: float) -> float:
    """Expected entropy h_m = d^e for specific diversity d."""
    if not 0 < d <= 1:
        raise ValueError(f"specific diversity must be in (0,1], got {d}")
    return d ** params.entropy_exponent


def relative_diversity(D: int, D_m: float) -> float:
    """d_rel = (D - D_m)/D_m, the relative excess of observed vocabulary over
    the model prediction."""
    if D_m <= 0:
        raise ValueError(f"model diversity must be positive, got {D_m}")
    return (D - D_m) / D_m


def relative_entropy(h: float, h_m: float) -> float:
    """h_rel = h - h_m. A difference, not a ratio: entropy is already on a
    fixed [0,1] scale."""
    if not 0 <= h <= 1:
        raise ValueError(f"entropy must be in [0,1], got {h}")
    if not 0 <= h_m <= 1:
        raise ValueError(f"model entropy must be in [0,1], got {h_m}")
    return h - h_m


def _gauss_newton(theta, residual_jacobian, max_iter=100, tol=1e-10):
    """Damped Gauss-Newton. residual_jacobian(theta) -> (r, J) with J the
    Jacobian of the model predictions (so the step solves J step = r).
    Backtracks the step until the squared error does not increase."""
    theta = np.asarray(theta, dtype=float)
    r, J = residual_jacobian(theta)
    sse = float(r @ r)
    for _ in range(max_iter):
        step, *_ = np.linalg.lstsq(J, r, rcond=None)
        scale = 1.0
        for _ in range(60):
            candidate = theta + scale * step
            rc, Jc = residual_jacobian(candidate)
            sse_c = float(rc @ rc)
            if sse_c <= sse:
                break
            scale *= 0.5
        else:
            break
        rel_step = np.max(np.abs(scale * step) / np.maximum(np.abs(theta), 1e-300))
        theta, r, J, sse = candidate, rc, Jc, sse_c
        if rel_step < tol:
            break
    return theta, sse


def fit_heaps(points: list[tuple[float, float]]) -> tuple[float, float]:
    """Fit (c, beta) of D = c * L^beta by least squares on the given (L, D)
    points. Needs at least 3 points with distinct L."""
    if len(points) < 3:
        raise ValueError(f"need at least 3 (L, D) points, got {len(points)}")
    L = np.array([p[0] for p in points], dtype=float)
    D = np.array([p[1] for p in points], dtype=float)
    if np.all(L == L[0]):
        raise ValueError("all lengths equal; cannot fit a growth curve")
    if np.any(L <= 0) or np.any(D <= 0):
        raise ValueError("lengths and diversities must be positive")

    logL = np.log(L)
    slope, intercept = np.polyfit(logL, np.log(D), 1)
    theta0 = (math.exp(intercept), slope)

    def residual_jacobian(theta):
        c, beta = theta
        pred = c * L ** beta
        r = D - pred
        J = np.column_stack([L ** beta, pred * logL])
        return r, J

    (c, beta), _ = _gauss_newton(theta0, residual_jacobian)
    return float(c), float(beta)


def fit_entropy_model(points: list[tuple[float, float]]) -> float:
    """Fit the exponent e of h = d^e by least squares on (d, h) points.
    Needs at least 2 points with 0 < d < 1 and 0 < h <= 1."""
    if len(points) < 2:
        raise ValueError(f"need at least 2 (d, h) points, got {len(points)}")
    d = np.array([p[0] for p in points], dtype=float)
    h = np.array([p[1] for p in points], dtype=float)
    if np.any((d <= 0) | (d >= 1)):
        raise ValueError("specific diversities must lie strictly inside (0,1)")
    if np.any((h <= 0) | (h > 1)):
        raise ValueError("entropies must lie in (0,1]")

    logd = np.log(d)
    e0 = float(logd @ np.log(h) / (logd @ logd))

    def residual_jacobian(theta):
        pred = d ** theta[0]
        r = h - pred
        J = (pred * logd).reshape(-1, 1)
        return r, J

    (e,), _ = _gauss_newton((e0,), residual_jacobian)
    return float(e)


def load_language_params(
    path: str | None = None,
    presets_path: str | None = None,
) -> dict[Language, LanguageParams]:
    """Load the per-language parameter table (bundled by default) and attach
    each language's verbatim and reconstructed scale presets."""
    import csv

    resolved = path if path is not None else data_path("language_params.csv")
    presets = load_wqs_presets(presets_path)
    out: dict[Language, LanguageParams] = {}
    with open(resolved, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(row for row in fh if not row.startswith("#"))
        required = ("language", "heaps_c", "heaps_beta", "entropy_exponent", "c_sy")
        if reader.fieldnames is None or any(c not in reader.fieldnames for c in required):
            raise ValueError(f"{resolved}: params file must have columns {','.join(required)}")
        for row in reader:
            language = Language.parse(row["language"])
            code = language.code.lower()
            out[language] = LanguageParams(
                language=language,
                heaps_c=float(row["heaps_c"]),
                heaps_beta=float(row["heaps_beta"]),
                entropy_exponent=float(row["entropy_exponent"]),
                c_sy=float(row["c_sy"]),
                wqs_preset=presets.get(f"verbatim-{code}"),
                wqs_reconstructed=presets.get(f"reconstructed-{code}"),
            )
    return out

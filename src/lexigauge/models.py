"""Per-language regression models and the relative deviations built on them.

Two models per language: a power law D_m = c * L^beta predicting vocabulary
from length, and h_m = d^e predicting entropy from specific diversity. The
exponent e is stored directly.

Fitting minimizes the linear-space squared error. Log-space least squares
only seeds the iteration; a damped Gauss-Newton refinement does the real
work and never returns a worse fit than its seed; one that uses up its
iterations raises ArithmeticError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from operator import mul, sub

from ._data import data_path, read_table
from .corpus import Language, load_bundled_tables
from .stats import linear_regression
from .targets import RECORDED_SCALE_FACTORS
from .wqs import WqsCoefficients, load_wqs_presets, reconstruct


@dataclass(frozen=True)
class ModelParams:
    """One row of a parameter file: a language's two corpus models and its
    characters per syllable."""
    language: Language
    heaps_c: float
    heaps_beta: float
    entropy_exponent: float
    c_sy: float

    def __post_init__(self):
        if not 0 < self.heaps_c < math.inf:
            raise ValueError(f"heaps_c must be positive and finite, got {self.heaps_c}")
        if not 0 < self.heaps_beta < 1:
            raise ValueError(f"heaps_beta must be in (0,1), got {self.heaps_beta}")
        if not 0 < self.entropy_exponent < 1:
            raise ValueError(f"entropy_exponent must be in (0,1), got {self.entropy_exponent}")
        if not 0 < self.c_sy < math.inf:
            raise ValueError(f"c_sy must be positive and finite, got {self.c_sy}")


# the columns of a parameter file, in order
PARAM_COLUMNS = tuple(f.name for f in fields(ModelParams))


@dataclass(frozen=True)
class LanguageParams(ModelParams):
    """A language's model parameters with its verbatim scale preset and its
    reconstructed one."""
    wqs_preset: WqsCoefficients
    wqs_reconstructed: WqsCoefficients


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


def _dot(u, v) -> float:
    return math.fsum(map(mul, u, v))


def _normal_step(J, r) -> list[float]:
    """Solve (J^T J) step = J^T r in closed form for one or two columns J."""
    g = [_dot(col, r) for col in J]
    if len(J) == 1:
        return [g[0] / _dot(J[0], J[0])]
    a, b, c = _dot(J[0], J[0]), _dot(J[0], J[1]), _dot(J[1], J[1])
    det = a * c - b * b
    return [(c * g[0] - b * g[1]) / det, (a * g[1] - b * g[0]) / det]


def _gauss_newton(theta, residual_jacobian, max_iter=100, tol=1e-10):
    """Damped Gauss-Newton. residual_jacobian(theta) -> (r, J) with r the
    residuals and J the Jacobian columns of the model predictions (so the
    step solves J step = r). Backtracks the step until the squared error
    does not increase (an overflow counts as an increase); a singular step,
    or a step no backtrack makes acceptable, ends the iteration. Using up
    max_iter raises ArithmeticError naming the count, the SSE and the number
    of residuals."""
    r, J = residual_jacobian(theta)
    sse = _dot(r, r)
    for _ in range(max_iter):
        try:
            step = _normal_step(J, r)
        except ZeroDivisionError:
            break
        scale = 1.0
        for _ in range(60):
            candidate = [t + scale * s for t, s in zip(theta, step)]
            try:
                rc, Jc = residual_jacobian(candidate)
                sse_c = _dot(rc, rc)
            except OverflowError:
                sse_c = math.inf
            if sse_c <= sse:
                break
            scale *= 0.5
        else:
            break
        rel_step = max(abs(scale * s) / max(abs(t), 1e-300) for s, t in zip(step, theta))
        theta, r, J, sse = candidate, rc, Jc, sse_c
        if rel_step < tol:
            break
    else:
        raise ArithmeticError(f"did not converge in {max_iter} iterations "
                              f"(sse={sse:.6g}, n={len(r)})")
    return theta, sse


def fit_heaps(points: list[tuple[float, float]]) -> tuple[float, float]:
    """Fit (c, beta) of D = c * L^beta by least squares on the given (L, D)
    points. Needs at least 3 points with distinct L; a refinement that does
    not converge raises ArithmeticError."""
    if len(points) < 3:
        raise ValueError(f"need at least 3 (L, D) points, got {len(points)}")
    L, D = ([float(v) for v in column] for column in zip(*points))
    if all(x == L[0] for x in L):
        raise ValueError("all lengths equal; cannot fit a growth curve")
    if any(x <= 0 for x in L + D):
        raise ValueError("lengths and diversities must be positive")

    logL = [math.log(x) for x in L]
    seed = linear_regression(logL, [math.log(x) for x in D])

    def residual_jacobian(theta):
        c, beta = theta
        powers = [x ** beta for x in L]
        pred = [c * p for p in powers]
        return list(map(sub, D, pred)), (powers, list(map(mul, pred, logL)))

    (c, beta), _ = _gauss_newton((math.exp(seed.intercept), seed.slope), residual_jacobian)
    return c, beta


def fit_entropy_model(points: list[tuple[float, float]]) -> float:
    """Fit the exponent e of h = d^e by least squares on (d, h) points.
    Needs at least 2 points with 0 < d < 1 and 0 < h <= 1; a refinement that
    does not converge raises ArithmeticError."""
    if len(points) < 2:
        raise ValueError(f"need at least 2 (d, h) points, got {len(points)}")
    d, h = ([float(v) for v in column] for column in zip(*points))
    if any(x <= 0 or x >= 1 for x in d):
        raise ValueError("specific diversities must lie strictly inside (0,1)")
    if any(x <= 0 or x > 1 for x in h):
        raise ValueError("entropies must lie in (0,1]")

    logd = [math.log(x) for x in d]
    e0 = _dot(logd, map(math.log, h)) / _dot(logd, logd)

    def residual_jacobian(theta):
        pred = [x ** theta[0] for x in d]
        return list(map(sub, h, pred)), (list(map(mul, pred, logd)),)

    (e,), _ = _gauss_newton((e0,), residual_jacobian)
    return e


def load_model_params() -> dict[Language, ModelParams]:
    """Load the bundled per-language parameter table, language_params.csv
    (LEXIGAUGE_PRESET_DIR overrides the directory). A bad row, or a second
    row of a language, raises ValueError naming its line."""
    resolved = data_path("language_params.csv")
    out: dict[Language, ModelParams] = {}
    for line, (language, *values) in read_table(resolved, PARAM_COLUMNS):
        try:
            params = ModelParams(Language.parse(language), *map(float, values))
        except ValueError as exc:
            raise ValueError(f"{resolved}:{line}: bad params row: {exc}") from exc
        if params.language in out:
            raise ValueError(f"{resolved}:{line}: duplicate language {params.language.value!r}")
        out[params.language] = params
    return out


def load_language_params() -> dict[Language, LanguageParams]:
    """The model parameters of load_model_params, each with its language's
    verbatim scale preset and its reconstructed one, rebuilt from the four
    reference tables of the same directory."""
    models = load_model_params()
    presets = load_wqs_presets()
    rows = load_bundled_tables()
    out: dict[Language, LanguageParams] = {}
    for language, params in models.items():
        code = language.code.lower()
        out[language] = LanguageParams(
            **vars(params), wqs_preset=presets[f"verbatim-{code}"],
            wqs_reconstructed=reconstruct(rows, language, RECORDED_SCALE_FACTORS[code]))
    return out

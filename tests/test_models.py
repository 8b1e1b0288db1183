import csv
import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lexigauge.corpus import Language
from lexigauge.models import (
    _normal_step,
    entropy_model_predict,
    fit_entropy_model,
    fit_heaps,
    heaps_predict,
    load_language_params,
    relative_diversity,
    relative_entropy,
)
from lexigauge.wqs import load_wqs_presets

REPO = Path(__file__).resolve().parent.parent
GETTYSBURG = REPO / "src" / "lexigauge" / "data" / "texts" / "gettysburg_address.txt"


@pytest.fixture(scope="module")
def params():
    return load_language_params()


def test_bundled_parameter_values(params):
    en = params[Language.ENGLISH]
    es = params[Language.SPANISH]
    assert (en.heaps_c, en.heaps_beta, en.entropy_exponent, en.c_sy) == (3.766, 0.67, 0.1523, 3.57)
    assert (es.heaps_c, es.heaps_beta, es.entropy_exponent, es.c_sy) == (2.3, 0.75, 0.1763, 2.94)
    presets = load_wqs_presets()
    assert en.wqs_preset == presets["verbatim-en"]
    assert es.wqs_preset == presets["verbatim-es"]


def test_params_validation(params):
    en = params[Language.ENGLISH]
    for heaps_c in (0, 1e307, 1e-310):  # outside [1e-6, 1e6]: d_rel is no longer finite
        with pytest.raises(ValueError):
            dataclasses.replace(en, heaps_c=heaps_c)
    with pytest.raises(ValueError):
        dataclasses.replace(en, heaps_beta=1.0)
    with pytest.raises(ValueError):
        dataclasses.replace(en, entropy_exponent=1.0)
    with pytest.raises(ValueError):
        dataclasses.replace(en, c_sy=0.0)


def test_heaps_predictions(params):
    en, es = params[Language.ENGLISH], params[Language.SPANISH]
    assert heaps_predict(en, 10_000) == pytest.approx(1802.5209276870567, abs=1e-9)
    assert heaps_predict(en, 10_000) == pytest.approx(1802.5, abs=0.5)
    assert heaps_predict(es, 10_000) == pytest.approx(2300.0, abs=1e-6)
    assert heaps_predict(en, 1) == en.heaps_c
    with pytest.raises(ValueError):
        heaps_predict(en, 0)


def test_entropy_model_predictions(params):
    en, es = params[Language.ENGLISH], params[Language.SPANISH]
    assert entropy_model_predict(en, 0.5) == pytest.approx(0.8998147991105118, abs=1e-12)
    assert entropy_model_predict(en, 0.5) == pytest.approx(0.8998, abs=0.0005)
    assert entropy_model_predict(es, 0.5) == pytest.approx(0.8849697211647003, abs=1e-12)
    assert entropy_model_predict(en, 1.0) == 1.0
    with pytest.raises(ValueError):
        entropy_model_predict(en, 0.0)
    with pytest.raises(ValueError):
        entropy_model_predict(en, 1.5)


def test_relative_diversity():
    assert relative_diversity(1000, 1000.0) == 0.0
    assert relative_diversity(1100, 1000.0) == pytest.approx(0.1, rel=1e-12)
    with pytest.raises(ValueError):
        relative_diversity(10, 0.0)


def test_relative_entropy():
    assert relative_entropy(0.9, 0.9) == 0.0
    assert relative_entropy(0.92, 0.90) == pytest.approx(0.02)
    with pytest.raises(ValueError):
        relative_entropy(1.2, 0.5)
    with pytest.raises(ValueError):
        relative_entropy(0.5, -0.1)


@given(st.floats(min_value=-0.99, max_value=20.0), st.floats(min_value=1e-3, max_value=1e6))
def test_relative_diversity_identity(x, dm):
    assert relative_diversity(dm * (1 + x), dm) == pytest.approx(x, abs=1e-9)


@given(st.integers(min_value=1, max_value=10**7))
def test_heaps_strictly_increasing(L):
    p = load_language_params()[Language.ENGLISH]
    assert heaps_predict(p, L + 1) > heaps_predict(p, L)


def test_fit_heaps_recovers_noiseless():
    for c, beta in ((3.766, 0.67), (2.3, 0.75)):
        points = [(L, c * L**beta) for L in (50, 120, 400, 1500, 6000, 20000)]
        fc, fb = fit_heaps(points)
        assert abs(fc - c) / c < 1e-6
        assert abs(fb - beta) / beta < 1e-6


def test_fit_heaps_errors():
    with pytest.raises(ValueError):
        fit_heaps([(100, 50), (200, 80)])
    with pytest.raises(ValueError):
        fit_heaps([(100, 50), (100, 60), (100, 70)])
    with pytest.raises(ValueError):
        fit_heaps([(0, 1), (10, 5), (100, 20)])


def test_fit_entropy_recovers_noiseless():
    for e in (0.1523, 0.1763):
        points = [(d, d**e) for d in (0.05, 0.1, 0.25, 0.4, 0.6, 0.8)]
        fe = fit_entropy_model(points)
        assert abs(fe - e) / e < 1e-6


def test_fit_entropy_errors():
    with pytest.raises(ValueError):
        fit_entropy_model([(0.5, 0.9)])
    with pytest.raises(ValueError):
        fit_entropy_model([(0.0, 0.5), (0.5, 0.9)])
    with pytest.raises(ValueError):
        fit_entropy_model([(0.5, 0.0), (0.6, 0.9)])


def _log_init_heaps(points):
    L = np.array([p[0] for p in points], dtype=float)
    D = np.array([p[1] for p in points], dtype=float)
    slope, intercept = np.polyfit(np.log(L), np.log(D), 1)
    return math.exp(intercept), slope


def _sse_heaps(points, c, beta):
    return sum((D - c * L**beta) ** 2 for L, D in points)


@settings(deadline=None, max_examples=30)
@given(st.randoms(use_true_random=False))
def test_refinement_never_worse_than_log_seed(rng):
    c, beta = 5.0, 0.6
    points = [
        (L, c * L**beta * (1 + 0.2 * (rng.random() - 0.5)))
        for L in (30, 90, 240, 700, 2100, 6100, 18000)
    ]
    c0, b0 = _log_init_heaps(points)
    fc, fb = fit_heaps(points)
    assert _sse_heaps(points, fc, fb) <= _sse_heaps(points, c0, b0) + 1e-9


@pytest.mark.parametrize("points, converges", [
    # a trial step makes L**beta overflow; the step is backtracked, and the
    # refinement then uses up its iterations
    ([(2166, 3.46), (201015, 182231), (2908487, 113439), (1937367, 345537), (6084, 222.7)],
     False),
    # beta runs so negative that L**beta underflows and the normal equations
    # turn singular
    ([(21436, 1.11), (123, 40908), (25261, 1867), (12.4, 17289), (1995, 11724), (209232, 24.8)],
     True),
], ids=["overflow", "singular"])
def test_fit_heaps_on_points_without_a_growth_law(points, converges):
    if not converges:
        with pytest.raises(ArithmeticError, match=r"^did not converge in 100 iterations") as info:
            fit_heaps(points)
        assert info.type is ArithmeticError  # not an OverflowError
        return
    c0, b0 = _log_init_heaps(points)
    fc, fb = fit_heaps(points)
    assert _sse_heaps(points, fc, fb) < _sse_heaps(points, c0, b0)


def test_a_fit_that_uses_up_its_iterations_raises():
    # the refinement crawls along a narrow valley to c = 1.9e-15, beta = 3.62
    with pytest.raises(ArithmeticError, match=r"^did not converge in 100 iterations "
                                              r"\(sse=1\.15933e\+11, n=3\)$"):
        fit_heaps([(154729.5, 351655.2), (173.1, 27.98), (20015.5, 1.096)])


@settings(max_examples=200)
@given(st.integers(min_value=1, max_value=2), st.integers(min_value=4, max_value=40),
       st.randoms(use_true_random=False))
def test_normal_step_matches_lstsq(columns, rows, rng):
    # numpy's SVD-based least squares is the reference for the closed-form
    # normal-equation step on well-conditioned, well-scaled systems
    def entry(high):
        return rng.choice((-1, 1)) * rng.uniform(0.1, high)

    J = [[entry(1) for _ in range(rows)] for _ in range(columns)]
    A = np.array(J).T
    assume(np.linalg.cond(A) < 10)
    x = np.array([entry(10) for _ in range(columns)])
    r = A @ x + np.array([rng.uniform(-0.5, 0.5) for _ in range(rows)])
    step = _normal_step(J, r.tolist())
    ref, *_ = np.linalg.lstsq(A, r, rcond=None)
    assert np.linalg.norm(np.subtract(step, ref)) <= 1e-12 * np.linalg.norm(ref)


def test_cli_needs_no_numpy(tmp_path):
    # numpy is a test-only oracle: every command, the model fits included,
    # must run with its import blocked
    words = GETTYSBURG.read_text(encoding="utf-8").split()
    manifest = tmp_path / "manifest.csv"
    with open(manifest, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "name", "genre", "origin", "language", "nobel", "year", "source_path"])
        for n in (40, 80, 160, 240):
            text = tmp_path / f"g{n}.txt"
            text.write_text(" ".join(words[:n]), encoding="utf-8")
            w.writerow([f"G{n}", f"first {n} words", "S", "O", "EN", "false", "", str(text)])
    block = ("import sys; sys.modules['numpy'] = None; "
             "from lexigauge.cli import main; sys.exit(main(sys.argv[1:]))")
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for argv in (["verify"],
                 ["analyze", str(GETTYSBURG), "--lang", "en"],
                 ["fit", "--manifest", str(manifest), "--model", "heaps"],
                 ["fit", "--manifest", str(manifest), "--model", "entropy"]):
        result = subprocess.run([sys.executable, "-c", block, *argv], cwd=tmp_path, env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, (argv, result.stderr)

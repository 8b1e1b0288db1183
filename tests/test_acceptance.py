"""Acceptance gate: one test per shipped guarantee.

Each test prints a one-line verdict with the computed numbers so the suite
output doubles as a verification report. Tolerances are stated inline or,
where verify checks the same numbers, taken from lexigauge.targets; a failing
test here means a shipped guarantee does not hold."""
import random

from lexigauge.cli import main as cli_main
from lexigauge.corpus import Language, load_bundled_tables
from lexigauge.models import (
    entropy_model_predict,
    fit_entropy_model,
    fit_heaps,
    heaps_predict,
    load_language_params,
)
from lexigauge.profile import RankedProfile, entropy
from lexigauge.readability import ReadabilityInputs, ipsz, res
from lexigauge.stats import linear_regression, t_test
from lexigauge.targets import (
    DOCUMENTED_DIVERGENCES,
    E1_SCALE_CHECK,
    GROUPS,
    RECORDED_DIRECTIONS,
    RECORDED_GROUP_STATS,
    RECORDED_SCALE_FACTORS,
    RECORDED_SCALE_STATS,
    TOL_GROUP_CELL,
    recompute,
    split_groups,
)
from lexigauge.wqs import StylePoint, load_wqs_presets, wqs
from lexigauge.zipf import fit_zipf_exponent, zipf_deviation, zipf_reference

def _recomputed(metric):
    """The recomputed statistics of one metric ("scale" for the scale and
    readability table), keyed by (group or pair, field)."""
    return {(r.group, r.field): r for r in recompute(load_bundled_tables())
            if r.metric == metric}


def test_criterion_01_entropy_properties():
    rng = random.Random(1234)
    for _ in range(1000):
        D = rng.randint(2, 500)
        counts = sorted((rng.randint(1, 10_000) for _ in range(D)), reverse=True)
        p = RankedProfile.from_frequencies(counts)
        h = entropy(p)
        assert 0.0 <= h <= 1.0
        renamed = RankedProfile(tuple((f"x{i}", f) for i, (_, f) in enumerate(p.entries)))
        assert entropy(renamed) == h
        assert abs(entropy(RankedProfile.from_frequencies([counts[0]] * D)) - 1.0) < 1e-12
    print("criterion 1: entropy bounds, uniform limit, and renaming invariance "
          "hold on 1000 random profiles")


def test_criterion_02_zipf_hand_oracle():
    p = RankedProfile.from_frequencies([8, 4, 2, 1])
    z = zipf_reference(p, 1.0)
    j = zipf_deviation(p, 1.0)
    assert abs(z - 16.6667) < 1e-4
    assert abs(j - (-0.1000)) < 1e-4
    exact = RankedProfile.from_frequencies([100.0 / r**1.3 for r in range(1, 41)])
    j_exact = zipf_deviation(exact, 1.3)
    assert abs(j_exact) < 1e-12
    print(f"criterion 2: Z={z:.6f} J={j:.6f} on the (8,4,2,1) profile; "
          f"|J|={abs(j_exact):.2e} on an exact power profile")


def test_criterion_03_model_presets():
    params = load_language_params()
    en, es = params[Language.ENGLISH], params[Language.SPANISH]
    d_en = heaps_predict(en, 10_000)
    d_es = heaps_predict(es, 10_000)
    h_en = entropy_model_predict(en, 0.5)
    assert abs(d_en - 1802.5) <= 0.5
    assert abs(d_es - 2300.0) <= 1e-6
    assert abs(h_en - 0.8998) <= 0.0005
    print(f"criterion 3: vocabulary model predicts {d_en:.4f} (en) and {d_es:.4f} (es) "
          f"at L=10^4; entropy model gives {h_en:.6f} at d=0.5")


def test_criterion_04_fitter_recovery():
    for c, beta in ((3.766, 0.67), (2.3, 0.75)):
        points = [(L, c * L**beta) for L in (200, 500, 1200, 3000, 8000, 20000)]
        fc, fb = fit_heaps(points)
        assert abs(fc - c) / c < 1e-6
        assert abs(fb - beta) / beta < 1e-6
    for e in (0.1523, 0.1763):
        points = [(d, d**e) for d in (0.05, 0.1, 0.2, 0.4, 0.6, 0.8)]
        fe = fit_entropy_model(points)
        assert abs(fe - e) / e < 1e-6
    g1 = fit_zipf_exponent(RankedProfile.from_frequencies(
        [round(1000.0 / r) for r in range(1, 51)]))
    g2 = fit_zipf_exponent(RankedProfile.from_frequencies(
        [round(1000.0 / r**2) for r in range(1, 21)]))
    assert abs(g1 - 1.0) <= 0.02
    assert abs(g2 - 2.0) <= 0.04
    print(f"criterion 4: growth and entropy fits recover generators to <1e-6 rel; "
          f"frequency exponent fits give g={g1:.4f} (true 1.0) and g={g2:.4f} (true 2.0)")


def test_criterion_05_group_sizes():
    groups = split_groups(load_bundled_tables())
    sizes = {label: len(groups[label]) for label in GROUPS}
    assert sizes == {"en-nobel": 37, "en-non": 101, "es-nobel": 19, "es-non": 117}
    print(f"criterion 5: group sizes {sizes}")


def test_criterion_06_group_means_and_stds():
    # The contract verify reports against: every recorded cell reproduces within
    # TOL_GROUP_CELL except the documented divergences, which must still diverge.
    records = [r for r in recompute(load_bundled_tables())
               if r.metric in RECORDED_GROUP_STATS and r.field in ("mean", "std")]
    assert len(records) == 24
    cells = set()
    undocumented, reproducing = [], []
    for r in records:
        metric, label, field, got, rec = r.metric, r.group, r.field, r.got, r.recorded
        cell = (metric, label, field)
        cells.add(cell)
        within = abs(got - rec) <= TOL_GROUP_CELL
        documented = cell in DOCUMENTED_DIVERGENCES
        assert r.documented == documented, cell
        line = (f"criterion 6: {metric:5s} {label:9s} {field:4s} "
                f"computed {got:9.5f} recorded {rec:9.5f} delta {got - rec:+.5f}")
        detail = f"{metric}/{label}/{field} (computed {got:.5f}, recorded {rec:.5f})"
        if documented and within:
            print(line + "  DOCUMENTED DIVERGENCE NOW REPRODUCES")
            reproducing.append(detail)
        elif documented:
            print(line + "  documented divergence")
        elif not within:
            print(line + "  UNDOCUMENTED DIVERGENCE")
            undocumented.append(detail)
        else:
            print(line)
    unknown = sorted("/".join(key) for key in DOCUMENTED_DIVERGENCES - cells)
    problems = []
    if unknown:
        problems.append("documented divergences that name no recorded cell: "
                        + "; ".join(unknown))
    if undocumented:
        problems.append(f"undocumented divergences beyond +/-{TOL_GROUP_CELL}: "
                        + "; ".join(undocumented))
    if reproducing:
        problems.append(f"documented divergences that now reproduce within "
                        f"+/-{TOL_GROUP_CELL}: " + "; ".join(reproducing))
    assert not problems, (
        f"the {len(cells)} recorded mean/std cells break the documented-divergence "
        f"contract: " + " | ".join(problems)
    )
    print(f"criterion 6: {len(cells) - len(DOCUMENTED_DIVERGENCES)} cells reproduce "
          f"within +/-{TOL_GROUP_CELL}; the {len(DOCUMENTED_DIVERGENCES)} documented "
          f"divergences still diverge")


def test_criterion_07_scale_and_readability_stats():
    scale = _recomputed("scale")
    for label in ("en-all", "en-nobel", "en-non", "es-all", "es-nobel", "es-non"):
        _, wm, _, rm, _, _ = RECORDED_SCALE_STATS[label]
        wqs_mean = scale[label, "wqs mean"].got
        read_mean = scale[label, "readability mean"].got
        assert abs(wqs_mean - wm) <= 0.02, (label, wqs_mean, wm)
        assert abs(read_mean - rm) <= 0.02, (label, read_mean, rm)
    en_all = scale["en-all", "correlation"]
    assert en_all.n == 138
    corr = en_all.got
    assert abs(corr - (-0.34)) <= 0.02
    print(f"criterion 7: all 12 scale/readability group means within 0.02; "
          f"english quality-vs-readability correlation {corr:.4f}")


def test_criterion_08_t_test_plumbing():
    p = _recomputed("d_rel")["en nobel vs non", "p"].got
    assert abs(p - 0.00186) / 0.00186 <= 0.20
    same = [0.3, 0.4, 0.5, 0.6]
    assert t_test(same, list(same)) == 1.0
    a, b = [0.1, 0.5, 0.9, 0.3], [0.2, 0.8, 0.4]
    assert t_test(a, b) == t_test(b, a)
    print(f"criterion 8: recomputed laureate split p={p:.5f} (recorded 0.00186); "
          "identical samples give p=1; symmetric in its arguments")


def test_criterion_09_scale_preset_consistency(capsys):
    presets = load_wqs_presets()
    scales = {}
    for code, rec_scale in RECORDED_SCALE_FACTORS.items():
        coeffs = presets[f"verbatim-{code}"]
        weights = (coeffs.weights.d_rel, coeffs.weights.h_rel, coeffs.weights.j)
        ratios = [w / d for w, d in zip(weights, RECORDED_DIRECTIONS[code])]
        # the three component ratios agree to 4 significant figures and their
        # common value is the recorded scale constant
        assert max(ratios) / min(ratios) - 1 < 1e-4, (code, ratios)
        scales[code] = sum(ratios) / 3
        assert abs(scales[code] - rec_scale) <= 1e-3, (code, scales[code])

    rng = random.Random(99)
    for coeffs in (presets["verbatim-en"], presets["verbatim-es"]):
        for _ in range(500):
            p = StylePoint(rng.uniform(-0.5, 0.5), rng.uniform(-0.1, 0.1),
                           rng.uniform(-0.5, 0.5))
            q = StylePoint(rng.uniform(-0.5, 0.5), rng.uniform(-0.1, 0.1),
                           rng.uniform(-0.5, 0.5))
            mid = StylePoint((p.d_rel + q.d_rel) / 2, (p.h_rel + q.h_rel) / 2,
                             (p.j + q.j) / 2)
            assert abs(wqs(coeffs, mid) - (wqs(coeffs, p) + wqs(coeffs, q)) / 2) < 1e-9
            bump = rng.uniform(1e-4, 0.2)
            assert wqs(coeffs, StylePoint(p.d_rel + bump, p.h_rel, p.j)) > wqs(coeffs, p)
            assert wqs(coeffs, StylePoint(p.d_rel, p.h_rel + bump, p.j)) < wqs(coeffs, p)
            assert wqs(coeffs, StylePoint(p.d_rel, p.h_rel, p.j + bump)) < wqs(coeffs, p)

    e1 = wqs(presets["verbatim-en"], StylePoint(*E1_SCALE_CHECK["point"]))
    assert abs(e1 - E1_SCALE_CHECK["expected"]) <= E1_SCALE_CHECK["tolerance"]

    assert cli_main(["verify"]) == 0
    out_lines = capsys.readouterr().out.splitlines()
    e1_lines = [l for l in out_lines if str(E1_SCALE_CHECK["recorded_column_value"]) in l]
    assert e1_lines and all(l.startswith("INFO") for l in e1_lines)
    assert not any(l.startswith("FAIL") for l in out_lines)
    print(f"criterion 9: weight/direction scale factors {scales['en']:.4f} (en) and "
          f"{scales['es']:.4f} (es); linearity and sign invariants hold on 1000 points; "
          f"row E1 evaluates to {e1:.4f} and verify reports its recorded column "
          "informationally while exiting 0")


def test_criterion_10_readability_identity():
    rng = random.Random(7)
    for _ in range(1000):
        inputs = ReadabilityInputs(rng.uniform(0.2, 6.0), rng.uniform(1.0, 80.0))
        assert abs((ipsz(inputs) - res(inputs)) - 0.015 * inputs.S) < 1e-12
    v = res(ReadabilityInputs(1.5, 20.0))
    assert abs(v - 59.635) < 1e-12  # exact up to double rounding
    print(f"criterion 10: ipsz-res identity holds to 1e-12 on 1000 inputs; "
          f"res(1.5, 20) = {v!r}")


def test_criterion_11_trend_regression():
    xs = [1800.0, 1850.0, 1900.0, 1950.0, 2000.0]
    ys = [0.5 * x - 80.0 for x in xs]
    fit = linear_regression(xs, ys)
    assert fit.slope == 0.5
    assert fit.intercept == -80.0
    print("criterion 11: exact recovery on noiseless linear data; the recorded "
          "words-per-century trend slopes (-8.29/-8.24) need the undistributed "
          "source texts and are excluded from hard acceptance")


def test_criterion_12_report_determinism(tmp_path):
    rng = random.Random(5)
    paths = []
    for i in range(3):
        words = [f"w{rng.randint(0, 40)}" for _ in range(300)]
        path = tmp_path / f"t{i}.txt"
        path.write_text(" ".join(words) + ".", encoding="utf-8")
        paths.append(str(path))
    for fmt in ("csv", "jsonl"):
        o1, o2 = tmp_path / f"a_{fmt}.out", tmp_path / f"b_{fmt}.out"
        assert cli_main(["analyze", *paths, "--lang", "en", "--format", fmt,
                         "--out", str(o1)]) == 0
        assert cli_main(["analyze", *paths, "--lang", "en", "--format", fmt,
                         "--out", str(o2)]) == 0
        assert o1.read_bytes() == o2.read_bytes()
    print("criterion 12: repeated analysis produces byte-identical csv and jsonl reports")

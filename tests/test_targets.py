from collections import Counter

import pytest

from lexigauge.corpus import load_bundled_tables
from lexigauge.targets import (
    RECORDED_GROUP_STATS,
    RECORDED_PVALUES,
    RECORDED_SCALE_PVALUES,
    RECORDED_SCALE_STATS,
    SCALE_FIELDS,
    Recomputed,
    checks,
    recompute,
)
from lexigauge.wqs import load_wqs_presets


@pytest.fixture(scope="module")
def records():
    return recompute(load_bundled_tables())


def cell(got, recorded, tolerance, kind="eq", field="mean"):
    return Recomputed("d_rel", "en-nobel", field, 10, got, recorded, kind, tolerance)


def test_holds_absolute_band():
    assert cell(0.104, 0.1, 0.005).holds()
    assert not cell(0.106, 0.1, 0.005).holds()
    assert cell(0.106, 0.1, 0.005).holds(2.0)
    assert not cell(0.1 - 0.0051, 0.1, 0.005).holds()


def test_holds_relative_pvalue_band():
    # p-values are held to tolerance x recorded, not to an absolute band
    assert cell(0.0118, 0.01, 0.2, field="p").holds()
    assert not cell(0.0121, 0.01, 0.2, field="p").holds()
    assert cell(0.0121, 0.01, 0.2, field="p").holds(1.5)
    assert not cell(0.0118, 0.01, 0.2, field="p").holds(0.5)


def test_holds_upper_bound_ignores_scale():
    bound = cell(0.00001, 0.0005, 0.2, kind="lt", field="p")
    assert bound.holds() and bound.holds(0.0)
    assert not cell(0.0005, 0.0005, 0.2, kind="lt", field="p").holds(10.0)


def test_holds_scale_zero_demands_equality():
    assert cell(0.1, 0.1, 0.005).holds(0.0)
    assert not cell(0.1 + 1e-12, 0.1, 0.005).holds(0.0)
    assert cell(0.002, 0.002, 0.2, field="p").holds(0.0)
    assert not cell(0.0020001, 0.002, 0.2, field="p").holds(0.0)


def test_every_recorded_statistic_has_exactly_one_record(records):
    recorded = []
    for metric, groups in RECORDED_GROUP_STATS.items():
        for label, (_, mean, std) in groups.items():
            recorded += [((metric, label, "mean"), mean), ((metric, label, "std"), std)]
        for pair, (_, value) in RECORDED_PVALUES[metric].items():
            recorded.append(((metric, pair, "p"), value))
    for label, (_, *values) in RECORDED_SCALE_STATS.items():
        recorded += [(("scale", label, field), v) for field, v in zip(SCALE_FIELDS, values)]
    for pair, (_, value) in RECORDED_SCALE_PVALUES.items():
        recorded.append((("scale", pair, "p"), value))

    by_key = {}
    for r in records:
        by_key.setdefault((r.metric, r.group, r.field), []).append(r)
    assert len(records) == len(recorded) == 70
    for key, value in recorded:
        assert [r.recorded for r in by_key.get(key, [])] == [value], key


def test_record_sizes_match_recorded_group_sizes(records):
    sizes = {label: n for groups in RECORDED_GROUP_STATS.values()
             for label, (n, _, _) in groups.items()}
    sizes.update((label, stats[0]) for label, stats in RECORDED_SCALE_STATS.items())
    for r in records:
        if r.field != "p":
            assert r.n == sizes[r.group], (r.metric, r.group, r.field)


@pytest.fixture(scope="module")
def bundled():
    """The bundled rows, their raw cells and the presets, as verify loads them."""
    cells: dict = {}
    rows = load_bundled_tables(cells)
    return rows, load_wqs_presets(), cells


@pytest.mark.parametrize("tolerance, tally", [
    (1.0, {"PASS": 69, "INFO": 16}),
    (0.0, {"PASS": 17, "FAIL": 52, "INFO": 16}),
])
def test_checks_tally_the_bundled_data_and_print_nothing(bundled, capsys, tolerance, tally):
    rows, presets, cells = bundled
    assert Counter(status for status, _ in checks(rows, presets, cells, tolerance)) == tally
    assert capsys.readouterr() == ("", "")


def test_checks_list_ten_altered_digests_and_count_the_rest(bundled):
    rows, presets, cells = bundled
    name = "english_nobel.csv"
    altered = [(rid, ["9", *numeric[1:]]) for rid, numeric in cells[name][:13]]
    lines = checks(rows, presets, {**cells, name: altered + cells[name][13:]}, 1.0)
    digests = [(status, message) for status, message in lines if "row digests" in message]
    assert digests == [("FAIL", f"row digests: {name} row {rid}: numeric fields altered")
                       for rid, _ in altered[:10]] + [("FAIL", "row digests: ... and 3 more")]


def test_checks_fail_without_row_e1(bundled):
    rows, presets, cells = bundled
    lines = checks([r for r in rows if r.entry.id != "E1"], presets, cells, 1.0)
    assert lines[-1] == ("FAIL", "row E1 missing from tables")
    assert sum("E1" in message for _, message in lines) == 1

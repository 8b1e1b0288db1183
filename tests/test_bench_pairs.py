import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import bench_pairs  # noqa: E402


def test_a_clear_gain_holds():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 10.5, 11.5, 12.5, 13.5, 14.5]
    change = [p - 5.0 for p in parent]
    s = bench_pairs.summarize(parent, change)
    assert s["parent"] == (11.125, 12.25, 13.375)
    assert s["change"] == (6.125, 7.25, 8.375)
    assert (s["wins"], s["pairs"], s["gain"], s["holds"]) == (10, 10, 5.0, True)


def test_a_gain_within_the_parents_spread_fails():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 10.5, 11.5, 12.5, 13.5, 14.5]
    change = [p - 1.0 for p in parent]  # wins every pair, but 1.0 < 13.375 - 11.125
    s = bench_pairs.summarize(parent, change)
    assert (s["wins"], s["gain"], s["holds"]) == (10, 1.0, False)


def test_ties_count_for_neither_side_and_nine_tenths_is_needed():
    parent = [10.0] * 10
    change = [1.0] * 8 + [10.0, 11.0]  # 8 wins, a tie and a loss
    s = bench_pairs.summarize(parent, change)
    assert (s["wins"], s["holds"]) == (8, False)
    s = bench_pairs.summarize(parent, [1.0] * 9 + [10.0])
    assert (s["wins"], s["holds"]) == (9, True)


def test_higher_is_better_flips_the_direction():
    s = bench_pairs.summarize([1.0, 1.0, 1.0], [2.0, 2.0, 2.0], better="higher")
    assert (s["wins"], s["gain"], s["holds"]) == (3, 1.0, True)
    s = bench_pairs.summarize([1.0, 1.0, 1.0], [2.0, 2.0, 2.0])
    assert (s["wins"], s["gain"], s["holds"]) == (0, -1.0, False)


def test_unpaired_runs_are_refused():
    with pytest.raises(ValueError):
        bench_pairs.summarize([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        bench_pairs.summarize([1.0], [1.0])


PARENT = [10.0, 11.0, 12.0, 13.0, 14.0, 10.5, 11.5, 12.5, 13.5, 14.5]  # median 12.25


def test_a_median_worse_by_more_than_the_bound_is_worse():
    assert bench_pairs.regression(PARENT, [p + 2.5 for p in PARENT], 0.2) == "worse"
    assert bench_pairs.regression(PARENT, [p + 2.4 for p in PARENT], 0.2) == "ok"  # 2.4 < 2.45


def test_a_parent_spread_beyond_the_bound_is_unresolved():
    # quartile distance 2.25 exceeds 0.1 * 12.25
    assert bench_pairs.regression(PARENT, PARENT, 0.1) == "unresolved"
    assert bench_pairs.regression(PARENT, PARENT, 0.2) == "ok"


def test_a_change_that_beats_every_parent_run_is_resolved_despite_the_spread():
    assert bench_pairs.regression(PARENT, [9.9] * 10, 0.1) == "ok"
    assert bench_pairs.regression(PARENT, [9.9] * 9 + [10.0], 0.1) == "unresolved"  # a tie


def test_the_verdict_follows_the_better_direction():
    assert bench_pairs.regression(PARENT, [p + 2.5 for p in PARENT], 0.2, "higher") == "ok"
    assert bench_pairs.regression(PARENT, [p - 2.5 for p in PARENT], 0.2, "higher") == "worse"
    assert bench_pairs.regression(PARENT, [14.6] * 10, 0.1, "higher") == "ok"


def test_seed_ranges():
    assert bench_pairs._seeds("101-103") == [101, 102, 103]
    assert bench_pairs._seeds("7-8") == [7, 8]


@pytest.mark.parametrize("seeds", ["7", "5-3", "x"])
def test_fewer_than_two_seeds_is_a_usage_error_before_any_run(monkeypatch, capsys, seeds):
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: pytest.fail("a run started"))
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["PARENT", "CHANGE", "--workload", "corpus", "--seeds", seeds,
                          "--seconds", "50"])
    assert exit_info.value.code == 2
    assert "argument --seeds" in capsys.readouterr().err

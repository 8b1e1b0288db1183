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


def test_seed_ranges():
    assert bench_pairs._seeds("101-103") == [101, 102, 103]
    assert bench_pairs._seeds("7") == [7]

"""The gain and no-regression verdicts of ``scripts/bench_pairs.py`` on synthetic pairs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEED = {"name": "speed", "better": "higher", "bound": 0.2}
MEMORY = {"name": "memory", "better": "lower", "bound": 0.1}


def pairs(metric, parent, change):
    """Synthetic pairs of one workload: run i of each side reads the given value.

    Pairs alternate which side runs first, parent first in pair 0, as
    ``main`` runs them.
    """
    def record(value):
        return [{"workload": "w", "metrics": {metric: {"value": value}}}]

    return [{"first": ("parent", "change")[i % 2], "parent": record(p), "change": record(c)}
            for i, (p, c) in enumerate(zip(parent, change))]


def verdict(metric, parent, change):
    return bench_pairs.summarize(pairs(metric["name"], parent, change), [metric])["w"][
        metric["name"]]


TIGHT = [99.0, 100.0, 100.0, 100.0, 101.0]


@pytest.mark.parametrize("change, within", [
    ([85.0] * 5, True),     # 15% slower: inside the 20% bound
    ([80.0] * 5, True),     # exactly at the bound
    ([75.0] * 5, False),    # 25% slower
    ([130.0] * 5, True),    # faster
])
def test_higher_is_better_bound(change, within):
    v = verdict(SPEED, TIGHT, change)
    assert v["bound"] == 0.2
    assert v["within_bound"] is within
    assert v["unresolved"] is False


@pytest.mark.parametrize("change, within", [
    ([105.0] * 5, True),    # 5% more memory: inside the 10% bound
    ([115.0] * 5, False),   # 15% more
    ([60.0] * 5, True),     # less
])
def test_lower_is_better_bound(change, within):
    assert verdict(MEMORY, TIGHT, change)["within_bound"] is within


def test_parent_spread_wider_than_the_bound_is_unresolved():
    wide = [60.0, 80.0, 100.0, 120.0, 140.0]  # IQR 40, 40% of the median
    v = verdict(SPEED, wide, [100.0] * 5)
    assert v["within_bound"] is True and v["unresolved"] is True
    # unless every change run beats every parent run
    assert verdict(SPEED, wide, [141.0] * 5)["unresolved"] is False
    assert verdict(MEMORY, wide, [59.0] * 5)["unresolved"] is False
    assert verdict(MEMORY, wide, [61.0] * 5)["unresolved"] is True


def test_wins_and_ratio_are_kept():
    v = verdict(SPEED, TIGHT, [100.5, 99.5, 101.0, 100.0, 102.0])
    assert v["change_wins"] == "3/5"
    assert v["ratio_change_over_parent"] == pytest.approx(100.5 / 100.0)


TEN = [98.0, 99.0, 99.0, 100.0, 100.0, 100.0, 100.0, 101.0, 101.0, 102.0]  # IQR 1.5


@pytest.mark.parametrize("metric, change, shown", [
    (SPEED, [103.0] * 10, True),                # every pair won, median +3 > IQR 1.5
    (SPEED, [103.0] * 9 + [90.0], True),        # 9 of 10 pairs is enough
    (SPEED, [103.0] * 8 + [90.0] * 2, False),   # 8 of 10 is not
    (SPEED, [101.2] * 10, False),               # 9 of 10 pairs won, but gap 1.2 < IQR
    (SPEED, [97.0] * 10, False),                # a regression wider than the IQR
    (MEMORY, [97.0] * 10, True),                # lower is better
    (MEMORY, [103.0] * 10, False),              # a memory regression wider than the IQR
])
def test_a_gain_needs_nine_wins_in_ten_and_a_median_gap_wider_than_the_parent_iqr(
        metric, change, shown):
    v = verdict(metric, TEN, change)
    assert v["parent"]["q3"] - v["parent"]["q1"] == 1.5
    assert v["gain_shown"] is shown
    # the gap alone has no direction
    assert v["median_gap_over_parent_iqr"] is (abs(v["change"]["median"] - 100.0) > 1.5)


def test_second_over_first_is_each_side_s_order_effect():
    # the parent runs first in even pairs, the change in odd ones; every run
    # that goes second reads 1.2 times the run that goes first
    parent = [100.0, 120.0, 101.0, 121.0, 99.0, 119.0]
    change = [120.0, 100.0, 120.0, 100.0, 120.0, 100.0]
    v = verdict(SPEED, parent, change)
    assert v["second_over_first"]["parent"] == pytest.approx(120.0 / 100.0)
    assert v["second_over_first"]["change"] == pytest.approx(1.2)
    # a side that never went second has no ratio
    one = bench_pairs.summarize(pairs("speed", [100.0], [100.0]), [SPEED])["w"]["speed"]
    assert one["second_over_first"] == {"parent": None, "change": None}


def test_no_run_uses_the_tree_of_the_run_before_it():
    order = bench_pairs.run_order(10)
    runs = [run for pair in order for run in pair]
    assert len(runs) == 20 and all(a != b for a, b in zip(runs, runs[1:]))
    # pairs alternate which side goes first, the parent in pair 0
    assert [pair[0][0] for pair in order] == ["parent", "change"] * 5
    assert all({side for side, _ in pair} == {"parent", "change"} for pair in order)
    # each side's first runs, and its second runs, take both its trees alike
    for side in ("parent", "change"):
        for position in (0, 1):
            trees = [pair[position][1] for pair in order if pair[position][0] == side]
            assert len(trees) == 5 and sorted(trees) in ([0, 0, 0, 1, 1], [0, 0, 1, 1, 1])

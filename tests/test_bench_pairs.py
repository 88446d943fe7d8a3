"""The verdict rule of scripts/bench_pairs.py, on synthetic runs of one metric."""

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

WALL = {"name": "wall_s", "better": "lower", "bound": 0.25}
RATE = {"name": "samples_per_s", "better": "higher", "bound": 0.25}
# ten runs with median 1.0 and quartiles 0.9925 and 1.01: a quartile distance of 0.0175
PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.01]


def test_the_synthetic_parent_has_the_spread_the_cases_assume():
    q1, median, q3 = bench_pairs.quartiles(PARENT)
    assert median == 1.0 and q3 - q1 == pytest.approx(0.0175)


@pytest.mark.parametrize("change, want", [
    ([v - 0.1 for v in PARENT], "gain"),
    # 9 wins of 10 are enough, 8 are not
    ([v - 0.1 for v in PARENT[:9]] + [PARENT[9] + 0.01], "gain"),
    ([v - 0.1 for v in PARENT[:8]] + [v + 0.01 for v in PARENT[8:]], "no gain"),
    # every pair won, by less than the parent's quartile distance
    ([v - 0.005 for v in PARENT], "no gain"),
    (PARENT, "no gain"),  # ties count for neither side
])
def test_a_claimed_metric_reads_gain_only_past_both_thresholds(change, want):
    assert bench_pairs.verdict(WALL, PARENT, change, claimed=True) == want
    # the same runs of a higher-is-better metric, mirrored
    mirrored = bench_pairs.verdict(RATE, [-v for v in PARENT], [-v for v in change], True)
    assert mirrored == want


@pytest.mark.parametrize("parent, change, want", [
    (PARENT, PARENT, "no worse"),
    (PARENT, [v * 1.2 for v in PARENT], "no worse"),  # worse, inside the 25% bound
    (PARENT, [v * 1.4 for v in PARENT], "worse"),
    (PARENT, [v * 0.5 for v in PARENT], "no worse"),  # better: not a claim, never "gain"
    # the parent's runs spread wider than the bound: no reading either way
    ([1.0, 2.0] * 5, [1.1, 1.9] * 5, "unresolved"),
    ([1.0, 2.0] * 5, [0.5, 1.5] * 5, "unresolved"),
    # ... unless every run of the change reads better than every run of the parent
    ([1.0, 2.0] * 5, [0.9, 0.95] * 5, "no worse"),
    # the change's own runs spread too wide
    (PARENT, [0.5, 1.5] * 5, "unresolved"),
    # a median worse by more than the bound is worse, whatever the spread
    ([1.0, 2.0] * 5, [3.0, 4.0] * 5, "worse"),
])
def test_other_metrics_read_no_worse_worse_or_unresolved(parent, change, want):
    assert bench_pairs.verdict(WALL, parent, change, claimed=False) == want
    mirrored = bench_pairs.verdict(RATE, [10 / v for v in parent], [10 / v for v in change],
                                   False)
    assert mirrored == want

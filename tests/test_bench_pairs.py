import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_pairs  # noqa: E402

LOWER = {"name": "job_s_p50", "better": "lower", "bound": 0.25}
HIGHER = {"name": "iters_per_s", "better": "higher", "bound": 0.25}


def pairs(parent, change, name="job_s_p50"):
    return [{"parent": {name: a}, "change": {name: c}, "ratio": {name: c / a}} for a, c in zip(parent, change)]


def summary(parent, change, metric=LOWER):
    return bench_pairs.summarize(pairs(parent, change, metric["name"]), [metric])[metric["name"]]


def test_quartiles_wins_and_a_gain():
    row = summary([1.0] * 5 + [1.1] * 5, [0.8] * 10)
    assert row["parent"] == {"q1": 1.0, "median": 1.05, "q3": 1.1}
    # the ratio's quartiles are those of the per-pair ratios, not a ratio of medians
    assert row["change"]["median"] == 0.8 and row["ratio"]["median"] == (0.8 / 1.0 + 0.8 / 1.1) / 2
    assert row["change_wins"] == 10 and row["pairs"] == 10
    assert row["gain"] is True and row["within_bound"] == "yes"


def test_a_gain_needs_nine_of_ten_pairs():
    # eight wins, with the medians far apart
    row = summary([1.0] * 10, [0.5] * 8 + [1.5] * 2)
    assert row["change_wins"] == 8 and row["gain"] is False


def test_a_gain_needs_the_medians_apart_by_more_than_the_parent_spread():
    # every pair won, but by less than the parent's quartile spread (0.2)
    row = summary([0.9, 1.1] * 5, [0.85, 1.05] * 5)
    assert row["change_wins"] == 10 and row["gain"] is False


def test_within_bound_follows_the_direction():
    assert summary([1.0] * 10, [1.2] * 10)["within_bound"] == "yes"
    assert summary([1.0] * 10, [1.3] * 10)["within_bound"] == "no"
    assert summary([100.0] * 10, [80.0] * 10, HIGHER)["within_bound"] == "yes"
    assert summary([100.0] * 10, [70.0] * 10, HIGHER)["within_bound"] == "no"
    assert summary([100.0] * 10, [130.0] * 10, HIGHER)["gain"] is True


def test_a_parent_spread_past_the_bound_is_unresolved_unless_every_run_wins():
    wide = [0.6, 1.4] * 5  # quartile spread 0.8 against a margin of 0.25
    assert summary(wide, [1.0] * 10)["within_bound"] == "unresolved"
    assert summary(wide, [0.5] * 10)["within_bound"] == "yes"


def test_equal_runs_are_within_bound_and_no_gain():
    row = summary([0.9] * 10, [0.9] * 10, {"name": "ari_mean", "better": "higher", "bound": 0.1})
    assert row["change_wins"] == 0 and row["gain"] is False and row["within_bound"] == "yes"

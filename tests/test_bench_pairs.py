"""The summary that tools/bench_pairs.py writes, on canned result lines."""

from __future__ import annotations

import pytest

from conftest import load_tool

bench_pairs = load_tool("bench_pairs")

METRICS = [{"name": "job_ms", "better": "lower"}, {"name": "ops_per_s", "better": "higher"}]


def result(job_ms: float, ops_per_s: float) -> dict:
    """A result line of perfbench/run.py with two metrics."""
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {"job_ms": {"value": job_ms, "unit": "ms"},
                        "ops_per_s": {"value": ops_per_s, "unit": "1/s"}}}


def pair(parent: tuple[float, float], change: tuple[float, float], workload="w") -> dict:
    return {"workload": workload, "parent": result(*parent), "change": result(*change)}


def test_ties_count_for_neither_side():
    # job_ms is better lower and ops_per_s higher: each pair set below has
    # one win per side and two ties in that metric's direction.
    pairs = [pair((10, 5), (9, 5)), pair((10, 5), (10, 6)), pair((8, 5), (9, 4)),
             pair((7, 5), (7, 5))]
    row = bench_pairs.summarize(pairs, METRICS)["w"]["job_ms"]
    assert (row["change_wins"], row["parent_wins"], row["ties"]) == (1, 1, 2)
    row = bench_pairs.summarize(pairs, METRICS)["w"]["ops_per_s"]
    assert (row["change_wins"], row["parent_wins"], row["ties"]) == (1, 1, 2)


@pytest.mark.parametrize("values, expected", [
    ([4.0], (4.0, 4.0, 4.0)),
    ([1.0, 2.0], (1.25, 1.5, 1.75)),
    ([5.0, 1.0, 3.0], (2.0, 3.0, 4.0)),
    ([1.0, 2.0, 3.0, 4.0], (1.75, 2.5, 3.25)),
    ([1.0, 2.0, 3.0, 4.0, 5.0], (2.0, 3.0, 4.0)),
    ([7.0, 1.0, 3.0, 9.0, 5.0, 2.0, 8.0, 4.0, 6.0, 10.0], (3.25, 5.5, 7.75)),
])
def test_quartiles(values, expected):
    assert bench_pairs.quartiles(values) == pytest.approx(expected)


def test_summary_per_workload_with_medians_quartiles_and_spread():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0]
    change = [7.0, 8.0, 9.0, 9.5, 9.0]
    pairs = [pair((p, 1), (c, 1)) for p, c in zip(parent, change)]
    pairs.append(pair((1, 1), (2, 1), workload="other"))
    summary = bench_pairs.summarize(pairs, METRICS)
    assert sorted(summary) == ["other", "w"]
    row = summary["w"]["job_ms"]
    assert row["pairs"] == 5
    assert row["parent"] == {"median": 12.0, "q1": 11.0, "q3": 13.0, "values": parent}
    assert row["change"]["median"] == 9.0
    assert row["ratio"] == pytest.approx(0.75)
    assert (row["change_wins"], row["parent_wins"], row["ties"]) == (5, 0, 0)
    assert row["beyond_spread"]  # 12 - 9 > 13 - 11
    assert not row["worse_beyond_spread"]
    assert summary["w"]["ops_per_s"]["ties"] == 5
    assert not summary["w"]["ops_per_s"]["beyond_spread"]
    assert summary["other"]["job_ms"]["parent_wins"] == 1


@pytest.mark.parametrize("shift, flagged", [(3.0, True), (0.5, False)],
                         ids=["loss-beyond-spread", "loss-inside-spread"])
def test_a_loss_beyond_the_parent_spread_is_flagged(shift, flagged):
    # The change loses all 10 pairs in both metrics' directions: by 3 against
    # a parent quartile spread of 1.75 (flagged), or by 0.5 (noise).
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 10.5, 11.5, 12.5, 13.5, 12.0]
    pairs = [pair((p, 20 - p), (p + shift, 20 - p - shift)) for p in parent]
    summary = bench_pairs.summarize(pairs, METRICS)["w"]
    for name in ("job_ms", "ops_per_s"):
        row = summary[name]
        assert (row["change_wins"], row["parent_wins"], row["ties"]) == (0, 10, 0)
        assert row["parent"]["q3"] - row["parent"]["q1"] == pytest.approx(1.75)
        assert row["worse_beyond_spread"] is flagged
        assert not row["beyond_spread"]

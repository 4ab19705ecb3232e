"""Aggregation of ``tools/bench_snapshot.py`` on fabricated result records; no
benchmark runs."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import bench_snapshot  # noqa: E402

UNITS = {"eval_steps_per_s": "1/s", "peak_rss_mb": "MB"}


def record(seed, rate, rss, failures=(), commit="abc"):
    env = {key: f"host-{key}" for key in bench_snapshot.HOST_KEYS}
    env.update(git_commit=commit, seed=seed, seconds=25)
    return {"env": env, "correct": not failures, "attempted": 10,
            "failures": list(failures), "info": {"checkpoint_sha256": f"sha{seed}"},
            "end_to_end": {"eval_steps_per_s": rate, "peak_rss_mb": rss}}


def test_quartiles_counts_and_host():
    runs = [record(1, 100.0, 70.0), record(2, 300.0, 72.0, failures=("x",)),
            record(3, 200.0, 71.0), record(4, 400.0, 73.0)]
    snap = bench_snapshot.summarize({"eval-iris": runs}, UNITS)
    work = snap["workloads"]["eval-iris"]
    assert work["metrics"]["eval_steps_per_s"] == {
        "unit": "1/s", "median": 250.0, "q1": 175.0, "q3": 325.0,
        "values": [100.0, 300.0, 200.0, 400.0]}
    assert work["metrics"]["peak_rss_mb"]["median"] == 71.5
    assert (work["seeds"], work["correct"], work["attempted"], work["failed"]) == \
        ([1, 2, 3, 4], 3, 40, 1)
    assert work["checkpoint_sha256"] == ["sha1", "sha2", "sha3", "sha4"]
    assert snap["host"]["git_commit"] == "abc" and snap["seconds"] == 25


def test_metric_missing_from_a_run_is_summarized_over_the_others():
    runs = [record(1, 100.0, 70.0), record(2, 200.0, 72.0)]
    del runs[1]["end_to_end"]["eval_steps_per_s"]
    work = bench_snapshot.summarize({"w": runs}, UNITS)["workloads"]["w"]
    assert work["metrics"]["eval_steps_per_s"]["values"] == [100.0]


def test_runs_of_two_commits_rejected():
    runs = {"a": [record(1, 1.0, 1.0)], "b": [record(1, 1.0, 1.0, commit="def")]}
    with pytest.raises(ValueError, match="git_commit"):
        bench_snapshot.summarize(runs, UNITS)

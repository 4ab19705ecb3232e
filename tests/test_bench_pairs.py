"""Comparison of ``tools/bench_pairs.py`` on fabricated result records; no
benchmark runs."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import bench_pairs  # noqa: E402

SPEC = [
    {"name": "train_step_ms_mean", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "eval_steps_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "quality_path_eff", "unit": "ratio", "better": "higher", "bound": 0.1},
]


def record(step_ms, rate, setup, quality=0.5, sha="sha", failures=()):
    return {"failures": list(failures), "info": {"checkpoint_sha256": sha},
            "end_to_end": {"train_step_ms_mean": step_ms, "eval_steps_per_s": rate,
                           "setup_s": setup, "quality_path_eff": quality}}


def pairs_of(parent, change):
    return [{"parent": record(*p), "change": record(*c)} for p, c in zip(parent, change)]


def test_medians_wins_and_verdicts():
    pairs = pairs_of(
        [(10.0, 100.0, 50.0), (11.0, 100.0, 100.0), (12.0, 100.0, 150.0),
         (13.0, 100.0, 200.0)],
        [(8.0, 70.0, 50.0), (9.0, 70.0, 100.0), (9.5, 70.0, 150.0),
         (12.0, 70.0, 200.0)])
    metrics = bench_pairs.compare(pairs, SPEC)["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC]
    step = metrics["train_step_ms_mean"]
    assert step["parent"] == {"median": 11.5, "q1": 10.75, "q3": 12.25}
    assert step["change"]["median"] == 9.25
    # 2.25 ms faster: past the parent's spread of 1.5 ms, inside the bound of 2.875 ms
    assert (step["wins"], step["pairs"], step["past_spread"], step["past_bound"]) == \
        (4, 4, True, False)
    assert step["verdict"] == "better"
    rate = metrics["eval_steps_per_s"]
    assert (rate["wins"], rate["past_bound"], rate["verdict"]) == (0, True,
                                                                   "worse past bound")
    # the parent's spread (75 s) is wider than the bound (31.25 s)
    assert metrics["setup_s"]["verdict"] == "unresolved"
    pairs[0]["change"]["end_to_end"]["train_step_ms_mean"] = 13.0  # 3 wins of 4
    assert bench_pairs.compare(pairs, SPEC)["metrics"]["train_step_ms_mean"][
        "verdict"] == "unchanged"
    # "worse" asks as much: 2 ms slower, past the spread and inside the bound,
    # in all 4 pairs, then in 3 of them
    for pair, step in zip(pairs, (12.0, 13.0, 14.0, 15.0)):
        pair["change"]["end_to_end"]["train_step_ms_mean"] = step
    assert bench_pairs.compare(pairs, SPEC)["metrics"]["train_step_ms_mean"][
        "verdict"] == "worse"
    pairs[0]["change"]["end_to_end"]["train_step_ms_mean"] = 9.0
    assert bench_pairs.compare(pairs, SPEC)["metrics"]["train_step_ms_mean"][
        "verdict"] == "unchanged"
    # an A/A batch of a metric that barely spreads: 44.70 -> 44.74 MB in 2 of 4
    for k, pair in enumerate(pairs):
        pair["parent"]["end_to_end"]["setup_s"] = 44.70
        pair["change"]["end_to_end"]["setup_s"] = 44.74 if k % 2 else 44.70
    assert bench_pairs.compare(pairs, SPEC)["metrics"]["setup_s"]["verdict"] == "unchanged"
    quality = metrics["quality_path_eff"]
    assert (quality["wins"], quality["past_spread"], quality["verdict"]) == \
        (0, False, "unchanged")


def test_a_pair_missing_a_metric_is_left_out_of_it():
    pairs = pairs_of([(10.0, 100.0, 1.0), (12.0, 100.0, 1.0)],
                     [(10.0, 100.0, 1.0), (12.0, 100.0, 1.0)])
    del pairs[1]["change"]["end_to_end"]["train_step_ms_mean"]
    step = bench_pairs.compare(pairs, SPEC)["metrics"]["train_step_ms_mean"]
    assert step["pairs"] == 1 and step["values"] == {"parent": [10.0], "change": [10.0]}


def test_pairs_with_other_outputs_or_failures_are_flagged():
    pairs = [{"parent": record(1.0, 1.0, 1.0), "change": record(1.0, 1.0, 1.0)},
             {"parent": record(1.0, 1.0, 1.0), "change": record(1.0, 1.0, 1.0, sha="x")},
             {"parent": record(1.0, 1.0, 1.0, failures=("f",)),
              "change": record(1.0, 1.0, 1.0)}]
    comparison = bench_pairs.compare(pairs, SPEC)
    assert comparison["flags"] == [
        "pair 2: checkpoint_sha256 differs: parent sha, change x",
        "pair 3: failure count differs: parent 1, change 0"]
    text = bench_pairs.report(comparison)
    assert comparison["flags"][0] in text and "unchanged" in text


def test_sides_alternate_parent_first_on_odd_pairs():
    assert [bench_pairs.order(k) for k in (1, 2, 3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")]


def test_aa_runs_a_copy_and_prints_its_false_verdicts(tmp_path, monkeypatch, capsys):
    checkout = tmp_path / "tree"
    (checkout / "src").mkdir(parents=True)
    (checkout / "src" / "mod.py").write_text("x = 1\n")
    (checkout / ".git").mkdir()
    seen = []

    def fake_run(workload, seed, seconds, where):
        seen.append(where)
        assert (where / "src" / "mod.py").read_text() == "x = 1\n"
        copy = where != checkout
        assert (where / ".git").exists() != copy
        # the copy reads 2 ms faster in every pair, and alike elsewhere
        return record(10.0 + seed - 2.0 * copy, 100.0 + seed, 1.0 + seed)

    monkeypatch.setattr(bench_pairs, "run_one", fake_run)
    assert bench_pairs.main([str(checkout), "--aa", "--workload", "train-iris",
                             "--pairs", "4"]) == 0
    assert len(seen) == 8 and len(set(seen)) == 2 and not seen[1].exists()
    false = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("false verdict")]
    assert false == ["false verdict: train_step_ms_mean better (4/4 wins)"]
    with pytest.raises(SystemExit):
        bench_pairs.main([str(checkout), str(checkout), "--aa", "--workload",
                          "train-iris", "--pairs", "1"])

"""Tests of the benchmark's own code: names, the quality metric and the span
arithmetic. Run with ``python -m pytest bench``."""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from goalsel.envs import GraphReachEnv  # noqa: E402
from goalsel.evaluation import EpisodeRecord, rollout  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def contract():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class TestNames:
    def test_names_are_well_formed(self, contract):
        names = [w["name"] for w in contract["workloads"]]
        names += [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
        assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
        assert len(names) == len(set(names))

    def test_code_matches_contract(self, contract):
        assert [w["name"] for w in contract["workloads"]] == list(workloads.WORKLOADS)
        for key, specs in (("end_to_end", workloads.END_TO_END),
                           ("per_layer", workloads.PER_LAYER)):
            assert [(m["name"], m["unit"], m["better"]) for m in contract[key]] == \
                [spec[:3] for spec in specs]


def _episode(length: int, success: bool) -> EpisodeRecord:
    return EpisodeRecord(states=np.zeros((length + 1, 2)), actions=np.zeros((length, 2)),
                         rewards=np.zeros(length), success=success, length=length, ret=0.0)


class _StraightDown:
    def reset(self):
        pass

    def act(self, s, rng=None):
        return np.array([0.0, -0.02])


class TestPathEfficiency:
    def test_success_and_failure(self):
        assert workloads.path_efficiency([_episode(96, True)]) == 0.5
        assert workloads.path_efficiency([_episode(800, False)]) == 0.0
        assert workloads.path_efficiency([_episode(48, True), _episode(800, False)]) == 0.5

    def test_straight_line_scores_one(self):
        episode = rollout(GraphReachEnv(), _StraightDown(), 800, np.random.default_rng(0))
        assert episode.success and episode.length == 48
        assert workloads.path_efficiency([episode]) == 1.0


def _span(i, parent, name, start, end, counts=None):
    return spans.Span(i, parent, 0, name, "measure", start, end, counts)


class TestSpanArithmetic:
    def test_self_time_of_nested_spans(self):
        tree = [_span(0, None, "root", 0, 100),
                _span(1, 0, "a", 10, 40),
                _span(2, 1, "leaf", 15, 20),
                _span(3, 0, "b", 50, 60)]
        assert spans.self_times(tree) == {0: 60, 1: 25, 2: 5, 3: 10}

    def test_overlapping_children_count_once(self):
        tree = [_span(0, None, "root", 0, 100),
                _span(1, 0, "a", 10, 40),
                _span(2, 0, "b", 30, 50),
                _span(3, 0, "c", 90, 120)]
        assert spans.self_times(tree)[0] == 100 - 40 - 10

    def test_shares_and_descendant_counts(self):
        tree = [_span(0, None, "root", 0, 100),
                _span(1, 0, "a", 0, 80),
                _span(2, 1, "q", 0, 20, {"rows": 7}),
                _span(3, 1, "q", 20, 40, {"rows": 3}),
                _span(4, None, "q", 100, 110, {"rows": 100})]
        selfs, children = spans.time_shares(tree, "root")
        assert selfs == {"a": 0.4, "q": 0.4, "root": 0.2}
        assert children == {"a": 0.8}
        assert spans.descendant_counts(tree, "a", "q", "rows") == (1, 10)
        stats = spans.layer_stats(tree)
        assert (stats["q"].calls, stats["q"].counts["rows"]) == (3, 110)

    def test_recorder_nests_and_restores(self):
        class Owner:
            def outer(self):
                return self.inner() + 1

            def inner(self):
                return 1

        original = Owner.__dict__["inner"]
        recorder = spans.SpanRecorder()
        targets = [(Owner, "outer", "outer", None),
                   (Owner, "inner", "inner", lambda a, k, r: {"value": r})]
        with recorder.installed(targets), recorder.in_phase("measure"):
            assert Owner().outer() == 2
            assert Owner().inner() == 1
        assert Owner.__dict__["inner"] is original
        got = [(s.id, s.parent, s.root, s.name, s.phase, s.counts) for s in recorder.spans]
        assert got == [(0, None, 0, "outer", "measure", None),
                       (1, 0, 0, "inner", "measure", {"value": 1}),
                       (2, None, 2, "inner", "measure", {"value": 1})]
        assert all(s.end >= s.start for s in recorder.spans)

import csv
import multiprocessing
import os
import re
import time

import numpy as np
import pytest

from goalsel import evaluation as evaluation_module
from goalsel import procs
from goalsel.control import make_policy
from goalsel.envs import GraphReachEnv, central_waypoints, make_env
from goalsel.evaluation import (
    EvalConfig,
    ReplayPolicy,
    discounted_return,
    evaluate,
    evaluate_checkpoint,
    evaluate_run,
    export_trajectories,
    file_sha256,
    load_models,
    rollout,
    svg_point,
    SVG_MARGIN,
    SVG_SIZE,
)
from goalsel.models import VARIANTS, QNet, build_models
from goalsel.nn import load_checkpoint, save_checkpoint
from goalsel.procs import WORKER_STOP_TIMEOUT_S
from goalsel.training import train
from conftest import flat_norm, oracle, small_train_config


class ZeroPolicy:
    def reset(self):
        pass

    def act(self, s, rng=None):
        return np.zeros(2)


class TestDiscountedReturn:
    def test_failure_is_zero(self):
        assert discounted_return(np.zeros(10), False, 0.99) == 0.0

    def test_success_formula(self):
        rewards = np.array([0.0, 0.0, 1.0])
        gamma = 0.9
        expected = gamma ** 2 + gamma ** 3 / (1 - gamma)
        assert np.isclose(discounted_return(rewards, True, gamma), expected)

    def test_monotone_decreasing_in_length(self):
        gamma = 0.95
        values = []
        for length in (5, 10, 20):
            rewards = np.zeros(length)
            rewards[-1] = 1.0
            values.append(discounted_return(rewards, True, gamma))
        assert values[0] > values[1] > values[2]


class TestRollout:
    def test_zero_policy_fails_at_horizon(self):
        env = GraphReachEnv()
        rec = rollout(env, ZeroPolicy(), 50, np.random.default_rng(0))
        assert not rec.success
        assert rec.length == 50
        assert rec.ret == 0.0

    def test_rollout_horizon_beyond_demo_cap(self):
        # the demo generator's 800-step cap does not end an evaluation episode
        rec = rollout(make_env("graph-reach-n5-v1"), ZeroPolicy(), 1000,
                      np.random.default_rng(0))
        assert rec.length == 1000 and not rec.success

    def test_waypoint_oracle_return_matches_formula(self):
        env = GraphReachEnv()
        policy = oracle(central_waypoints(5), 0.015)
        rec = rollout(env, policy, 800, np.random.default_rng(0), gamma=0.99)
        assert rec.success
        expected = (0.99 ** (rec.length - 1)
                    + 0.99 ** rec.length / (1 - 0.99))
        assert np.isclose(rec.ret, expected)

    def test_states_one_longer_than_actions(self):
        env = GraphReachEnv()
        rec = rollout(env, ZeroPolicy(), 20, np.random.default_rng(0))
        assert len(rec.states) == rec.length + 1
        assert rec.actions.shape == (rec.length, 2)

    def test_return_recomputable_from_record(self):
        env = GraphReachEnv()
        policy = oracle(central_waypoints(5), 0.012)
        rec = rollout(env, policy, 800, np.random.default_rng(0), gamma=0.97)
        assert rec.ret == discounted_return(rec.rewards, rec.success, 0.97)


class TestEvaluate:
    @pytest.mark.parametrize("kwargs, field", [
        ({"n_episodes": 0}, "n_episodes"), ({"h_max": 0}, "h_max"),
        ({"gamma": 1.0}, "gamma"), ({"seeds": ()}, "seed"), ({"seeds": (0, -3)}, "seeds"),
        ({"n_goals": 0}, "n_goals"), ({"m_actions": 0}, "m_actions"),
        ({"seeds": (1, 1)}, "seeds"),
    ])
    def test_bad_values_rejected(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            EvalConfig(**kwargs).validate()

    def test_scripted_success_rate_one(self):
        env = GraphReachEnv()
        policy = oracle(central_waypoints(5), 0.015)
        report = evaluate(policy, env, EvalConfig(n_episodes=1, seeds=(0,)))
        assert report.per_seed[0].success_rate == 1.0

    def test_dataset_oracle_row(self, small_demo_set):
        dataset, _ = small_demo_set
        env = make_env(dataset.env_id)
        report = evaluate(ReplayPolicy(dataset), env,
                          EvalConfig(n_episodes=len(dataset), seeds=(0,)))
        seed = report.per_seed[0]
        assert seed.success_rate == 1.0
        assert np.isclose(seed.mean_success_length,
                          np.mean([t.length for t in dataset]))

    def test_no_success_gives_null_length(self):
        env = GraphReachEnv()
        report = evaluate(ZeroPolicy(), env,
                          EvalConfig(n_episodes=2, h_max=10, seeds=(0, 1)))
        assert report.mean_success_length is None
        assert report.to_dict()["rollout_length"] is None

    def test_multi_seed_std_matches_recomputation(self, small_demo_set):
        dataset, _ = small_demo_set
        env = make_env(dataset.env_id)
        report = evaluate(ReplayPolicy(dataset), env,
                          EvalConfig(n_episodes=5, seeds=(0, 1, 2)))
        rates = [s.success_rate for s in report.per_seed]
        mean = sum(rates) / 3
        std = (sum((r - mean) ** 2 for r in rates) / 3) ** 0.5
        assert np.isclose(report.success_rate[0], mean)
        assert np.isclose(report.success_rate[1], std)

    def test_deterministic_reports(self, small_demo_set):
        dataset, _ = small_demo_set
        env = make_env(dataset.env_id)
        cfg = EvalConfig(n_episodes=3, seeds=(0, 1))
        a = evaluate(ReplayPolicy(dataset), env, cfg).to_dict()
        b = evaluate(ReplayPolicy(dataset), env, cfg).to_dict()
        assert a == b

    def test_success_rate_is_exact_fraction(self, small_demo_set):
        dataset, _ = small_demo_set
        env = make_env(dataset.env_id)
        report = evaluate(ZeroPolicy(), env,
                          EvalConfig(n_episodes=4, h_max=5, seeds=(0,)))
        counted = sum(e.success for e in report.per_seed[0].episodes)
        assert report.per_seed[0].success_rate == counted / 4


def report_bytes(report):
    """An eval report's dict and every episode's states, actions and goal log."""
    return (report.to_dict(),
            [(e.states.tobytes(), e.actions.tobytes(),
              [(g.step, g.goal.tobytes(), g.score) for g in e.goal_log])
             for s in report.per_seed for e in s.episodes])


class TestSplitScoring:
    CFG = EvalConfig(n_episodes=2, h_max=60, seeds=(0, 3), n_goals=12, m_actions=3)

    @pytest.fixture(autouse=True)
    def clean_state(self):
        # the split leaves this process's CPU mask as it found it, and no worker
        mask = os.sched_getaffinity(0)
        yield
        assert os.sched_getaffinity(0) == mask
        assert multiprocessing.active_children() == []

    @staticmethod
    def iris_policy(trained_iris_run, m_actions=3):
        result, dataset = trained_iris_run
        return (make_policy(result.models, t_segment=10, n_goals=12, m_actions=m_actions),
                make_env(dataset.env_id))

    def test_split_matches_serial(self, trained_iris_run, monkeypatch):
        self.check_split_matches_serial(trained_iris_run, monkeypatch, 3)

    def test_split_matches_serial_at_unit_m(self, trained_iris_run, monkeypatch):
        # the worker takes the only proposal, and this process's empty half reads -inf
        self.check_split_matches_serial(trained_iris_run, monkeypatch, 1)

    def check_split_matches_serial(self, trained_iris_run, monkeypatch, m):
        opened = []
        real_open = procs.Forked.open_half

        def open_half(self, *args):
            values = real_open(self, *args)
            opened.append(values is not None)
            return values

        monkeypatch.setattr(procs.Forked, "open_half", open_half)
        reports = {}
        for split in (True, False):
            monkeypatch.setattr(evaluation_module, "forkable", lambda: split)
            policy, env = self.iris_policy(trained_iris_run, m)
            reports[split] = report_bytes(evaluate(policy, env, self.CFG))
            assert policy.score.split is None
        assert reports[True] == reports[False]
        # each of the 2 x 2 episodes refreshes its goal every 10 of its steps
        assert sum(opened) >= 4

    def test_worker_failure_raised_in_parent(self, trained_iris_run, monkeypatch):
        parent = os.getpid()
        real = QNet.value

        def value(self, *args, **kwargs):
            if os.getpid() != parent:
                raise ArithmeticError("half exploded")
            return real(self, *args, **kwargs)

        monkeypatch.setattr(QNet, "value", value)
        monkeypatch.setattr(evaluation_module, "forkable", lambda: True)
        policy, env = self.iris_policy(trained_iris_run)
        started = time.perf_counter()
        with pytest.raises(RuntimeError, match="(?s)Traceback.*half exploded"):
            evaluate(policy, env, self.CFG)
        assert time.perf_counter() - started < WORKER_STOP_TIMEOUT_S / 4
        assert policy.score.split is None

    def test_parent_failure_stops_worker(self, trained_iris_run, monkeypatch):
        real = evaluation_module.rollout
        calls = []

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise FloatingPointError("rollout failed")
            return real(*args, **kwargs)

        monkeypatch.setattr(evaluation_module, "rollout", failing)
        monkeypatch.setattr(evaluation_module, "forkable", lambda: True)
        policy, env = self.iris_policy(trained_iris_run)
        with pytest.raises(FloatingPointError, match="rollout failed"):
            evaluate(policy, env, self.CFG)
        assert policy.score.split is None

    @pytest.mark.parametrize("variant, cpus", [
        *((v, {0, 1}) for v in VARIANTS if v != "iris"), ("iris", {0})])
    def test_no_fork_without_a_proposal_scorer_or_second_cpu(self, monkeypatch,
                                                              variant, cpus):
        models = build_models(variant, 2, 2, flat_norm(), hidden_dim=6, enc_dim=6,
                              rng=np.random.default_rng(0))
        policy = make_policy(models, n_goals=12, m_actions=3)

        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        monkeypatch.setattr(os, "fork", no_fork)
        report = evaluate(policy, GraphReachEnv(), EvalConfig(
            n_episodes=1, h_max=20, seeds=(0,), n_goals=12, m_actions=3))
        assert report.per_seed[0].episodes[0].length == 20


class TestCheckpointEval:
    def test_evaluate_checkpoint_end_to_end(self, trained_iris_run):
        result, dataset = trained_iris_run
        env = make_env(dataset.env_id)
        report = evaluate_checkpoint(result.checkpoints[-1], dataset,
                                     result.config,
                                     EvalConfig(n_episodes=3, seeds=(0,),
                                                n_goals=20, m_actions=4), env)
        assert 0.0 <= report.per_seed[0].success_rate <= 1.0
        assert report.checkpoint_hash == file_sha256(result.checkpoints[-1])

    def test_evaluation_never_mutates_checkpoint(self, trained_iris_run):
        result, dataset = trained_iris_run
        env = make_env(dataset.env_id)
        path = result.checkpoints[-1]
        before = file_sha256(path)
        evaluate_checkpoint(path, dataset, result.config,
                            EvalConfig(n_episodes=2, seeds=(0,), n_goals=10,
                                       m_actions=3), env)
        assert file_sha256(path) == before

    def test_config_hash_mismatch_rejected(self, trained_iris_run):
        result, dataset = trained_iris_run
        from dataclasses import replace
        wrong = replace(result.config, lr=0.123)
        with pytest.raises(ValueError, match="different config"):
            load_models(result.checkpoints[-1], dataset, wrong)

    def test_checkpoint_without_config_hash_rejected(self, trained_iris_run, tmp_path):
        result, dataset = trained_iris_run
        tensors, _ = load_checkpoint(result.checkpoints[-1])
        path = tmp_path / "no_hash.bin"
        save_checkpoint(path, tensors, config_hash="")
        with pytest.raises(ValueError, match=re.escape(f"{path} stores no config hash")):
            load_models(path, dataset, result.config)

    def test_evaluate_run_picks_best(self, trained_iris_run):
        result, dataset = trained_iris_run
        env = make_env(dataset.env_id)
        out = evaluate_run(result.out_dir, dataset,
                           EvalConfig(n_episodes=3, seeds=(0,), n_goals=10,
                                      m_actions=3), env)
        assert out.best_checkpoint.name in out.per_checkpoint
        best_rate = out.best.success_rate[0]
        assert all(best_rate >= r.success_rate[0]
                   for r in out.per_checkpoint.values())

    def test_float32_policy_checkpoint_is_lossless(self, small_demo_set, tmp_path):
        dataset, _ = small_demo_set
        cfg = small_train_config("bc_rnn", n_iter=30, hidden_dim=8, enc_dim=8)
        result = train(dataset, cfg, tmp_path / "r")
        loaded = load_models(result.checkpoints[-1], dataset, cfg)
        for name, t in result.models["policy"].store:
            assert np.array_equal(loaded["policy"].store.params[name].value, t.value)
        env = make_env(dataset.env_id)
        episodes = [rollout(env, make_policy(models, t_segment=cfg.t_window), 60,
                            np.random.default_rng(3))
                    for models in (result.models, loaded)]
        assert np.array_equal(episodes[0].states, episodes[1].states)
        assert np.array_equal(episodes[0].actions, episodes[1].actions)

    def test_missing_run_dir(self, tmp_path, small_demo_set):
        dataset, _ = small_demo_set
        env = make_env(dataset.env_id)
        with pytest.raises(FileNotFoundError):
            evaluate_run(tmp_path / "nothing", dataset, EvalConfig(), env)


class TestExport:
    def test_svg_affine_maps_corners(self):
        scale = SVG_SIZE - 2 * SVG_MARGIN
        assert svg_point((0.0, 0.0)) == (SVG_MARGIN, SVG_MARGIN + scale)
        assert svg_point((1.0, 1.0)) == (SVG_MARGIN + scale, SVG_MARGIN)
        assert svg_point((0.0, 1.0)) == (SVG_MARGIN, SVG_MARGIN)
        assert svg_point((1.0, 0.0)) == (SVG_MARGIN + scale, SVG_MARGIN + scale)

    def test_empty_records_dataset_only(self, small_demo_set, tmp_path):
        dataset, _ = small_demo_set
        svg_path, csv_path = export_trajectories({}, dataset, make_env(dataset.env_id),
                                                 tmp_path)
        svg = svg_path.read_text()
        assert svg.count('class="dataset"') == min(50, len(dataset))
        assert 'class="p0"' not in svg
        assert csv_path.read_text().splitlines() == ["policy,episode,step,s0,s1"]

    def test_csv_row_count_matches_states(self, small_demo_set, tmp_path):
        dataset, _ = small_demo_set
        env = make_env(dataset.env_id)
        records = [rollout(env, ReplayPolicy(dataset), 800,
                           np.random.default_rng(i)) for i in range(2)]
        _, csv_path = export_trajectories({"replay": records}, dataset, env, tmp_path)
        rows = csv_path.read_text().splitlines()
        assert len(rows) - 1 == sum(len(r.states) for r in records)

    def test_csv_cells_are_the_states(self, small_demo_set, tmp_path):
        dataset, _ = small_demo_set
        env = make_env(dataset.env_id)
        records = [rollout(env, ReplayPolicy(dataset), 40, np.random.default_rng(0))]
        _, csv_path = export_trajectories({"replay": records}, dataset, env, tmp_path)
        with open(csv_path, newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == len(records[0].states)
        for row, state in zip(rows, records[0].states):
            assert [float(row["s0"]), float(row["s1"])] == list(state)

    def test_policies_get_distinct_stroke_classes(self, small_demo_set, tmp_path):
        dataset, _ = small_demo_set
        env = make_env(dataset.env_id)
        rec = [rollout(env, ZeroPolicy(), 5, np.random.default_rng(0))]
        svg_path, _ = export_trajectories({"a": rec, "b": rec}, dataset, env, tmp_path)
        svg = svg_path.read_text()
        assert 'class="p0"' in svg and 'class="p1"' in svg

    def test_markers_follow_the_env(self, small_demo_set, tmp_path):
        dataset, _ = small_demo_set
        env = GraphReachEnv(eps_goal=0.1)
        env.start, env.goal_center = (0.25, 0.75), (0.75, 0.25)
        svg = export_trajectories({}, dataset, env, tmp_path)[0].read_text()
        (sx, sy), (gx, gy) = svg_point(env.start), svg_point(env.goal_center)
        radius = 0.1 * (SVG_SIZE - 2 * SVG_MARGIN)
        assert f'<circle cx="{sx}" cy="{sy}" r="4" fill="#222"/>' in svg
        assert f'<circle cx="{gx}" cy="{gy}" r="{radius:.2f}" fill="none"' in svg

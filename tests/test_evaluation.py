import re

import numpy as np
import pytest

from goalsel.control import make_policy
from goalsel.envs import GraphReachEnv, WaypointPolicy, central_waypoints, make_env
from goalsel.evaluation import (
    EvalConfig,
    ReplayPolicy,
    discounted_return,
    evaluate,
    evaluate_checkpoint,
    evaluate_run,
    export_trajectories,
    file_sha256,
    in_distribution_stat,
    load_models,
    nearest_state_distances,
    rollout,
    svg_point,
    SVG_MARGIN,
    SVG_SIZE,
)
from goalsel.nn import load_checkpoint, save_checkpoint
from goalsel.training import train
from conftest import small_train_config


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
        policy = WaypointPolicy(central_waypoints(5), eta=0.015)
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
        policy = WaypointPolicy(central_waypoints(5), eta=0.012)
        rec = rollout(env, policy, 800, np.random.default_rng(0), gamma=0.97)
        assert rec.ret == discounted_return(rec.rewards, rec.success, 0.97)


class TestEvaluate:
    def test_scripted_success_rate_one(self):
        env = GraphReachEnv()
        policy = WaypointPolicy(central_waypoints(5), eta=0.015)
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


class TestNearestState:
    def test_dataset_states_have_zero_distance(self, small_demo_set):
        dataset, _ = small_demo_set
        states = dataset.trajectories[0].states[:10].astype(np.float64)
        assert np.allclose(nearest_state_distances(states, dataset), 0.0)

    def test_far_state_distance(self, small_demo_set):
        dataset, _ = small_demo_set
        d = nearest_state_distances(np.array([[50.0, 50.0]]), dataset)
        assert d[0] > 10

    def test_in_distribution_stat_percentile(self, small_demo_set):
        dataset, _ = small_demo_set
        env = make_env(dataset.env_id)
        episodes = [rollout(env, ReplayPolicy(dataset), 800,
                            np.random.default_rng(i)) for i in range(3)]
        stat = in_distribution_stat(episodes, dataset)
        assert 0.0 <= stat < 0.01  # replayed demos stay on the data manifold


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
        svg_path, csv_path = export_trajectories({}, dataset, tmp_path)
        svg = svg_path.read_text()
        assert svg.count('class="dataset"') == min(50, len(dataset))
        assert 'class="p0"' not in svg
        assert csv_path.read_text().splitlines() == ["policy,episode,step,s0,s1"]

    def test_csv_row_count_matches_states(self, small_demo_set, tmp_path):
        dataset, _ = small_demo_set
        env = make_env(dataset.env_id)
        records = [rollout(env, ReplayPolicy(dataset), 800,
                           np.random.default_rng(i)) for i in range(2)]
        _, csv_path = export_trajectories({"replay": records}, dataset, tmp_path)
        rows = csv_path.read_text().splitlines()
        assert len(rows) - 1 == sum(len(r.states) for r in records)

    def test_policies_get_distinct_stroke_classes(self, small_demo_set, tmp_path):
        dataset, _ = small_demo_set
        env = make_env(dataset.env_id)
        rec = [rollout(env, ZeroPolicy(), 5, np.random.default_rng(0))]
        svg_path, _ = export_trajectories({"a": rec, "b": rec}, dataset, tmp_path)
        svg = svg_path.read_text()
        assert 'class="p0"' in svg and 'class="p1"' in svg

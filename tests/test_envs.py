from collections import Counter

import numpy as np
import pytest

from goalsel.data import save, load
from goalsel.envs import (
    DEMO_H_MAX,
    DemoGenConfig,
    GraphReachEnv,
    WaypointPolicy,
    build_waypoint_path,
    central_waypoints,
    generate_demo,
    generate_dataset,
    make_env,
    node_position,
)


class TestEnv:
    def test_reset_is_fixed_start(self):
        env = GraphReachEnv()
        a = env.reset()
        env.step(np.array([0.01, -0.01]))
        b = env.reset()
        assert np.array_equal(a, b)
        assert np.array_equal(a, [0.5, 1.0])
        assert np.all((a >= 0) & (a <= 1))

    def test_zero_action_keeps_state(self):
        env = GraphReachEnv()
        s0 = env.reset()
        s1, reward, done = env.step(np.zeros(2))
        assert np.array_equal(s0, s1)
        assert reward == 0.0 and not done

    def test_reward_inside_goal_radius(self):
        env = GraphReachEnv()
        env.reset()
        env._pos = np.array([0.5, 0.04])  # one epsilon inside the goal disc
        s, reward, done = env.step(np.zeros(2))
        assert reward == 1.0 and done

    def test_two_stage_clipping(self):
        env = GraphReachEnv()
        env.reset()
        env._pos = np.array([0.9, 0.9])
        s, _, _ = env.step(np.array([10.0, 10.0]))
        assert np.allclose(s, [0.9 + env.a_max, 0.9 + env.a_max])
        env._pos = np.array([0.995, 0.995])
        s, _, _ = env.step(np.array([10.0, 10.0]))
        assert np.array_equal(s, [1.0, 1.0])

    def test_step_cap_ends_episode(self, rng):
        # the demo generator abandons a path after DEMO_H_MAX steps
        env = GraphReachEnv(eps_goal=1e-9)  # a goal no noisy demo can hit
        steps = []
        real_step = env.step
        env.step = lambda a: steps.append(a) or real_step(a)
        with pytest.raises(RuntimeError, match="failed to generate"):
            generate_demo(DemoGenConfig(max_retries=1), rng, env)
        assert len(steps) == DEMO_H_MAX

    def test_deterministic_given_actions(self, rng):
        actions = rng.normal(0, 0.01, (40, 2))
        env = GraphReachEnv()
        env.reset()
        first = [env.step(a)[0] for a in actions]
        env.reset()
        second = [env.step(a)[0] for a in actions]
        assert np.array_equal(np.stack(first), np.stack(second))

    def test_make_env_roundtrip(self):
        env = make_env("graph-reach-n3-v1")
        assert env.grid_n == 3
        with pytest.raises(ValueError, match="unknown env id"):
            make_env("something-else")

    def test_grid_n_must_be_odd(self):
        with pytest.raises(ValueError, match="odd"):
            GraphReachEnv(grid_n=4)


class TestWaypointPath:
    def test_consecutive_waypoints_adjacent(self, rng):
        cfg = DemoGenConfig(detour_prob=0.8)
        spacing = 1.0 / (cfg.grid_n - 1)
        for _ in range(50):
            waypoints, _ = build_waypoint_path(cfg, rng)
            steps = np.abs(np.diff(waypoints, axis=0)).sum(axis=1)
            assert np.allclose(steps, spacing)

    def test_no_detours_gives_central_column(self, rng):
        cfg = DemoGenConfig(detour_prob=0.0)
        waypoints, decisions = build_waypoint_path(cfg, rng)
        assert np.allclose(waypoints, central_waypoints(cfg.grid_n))
        assert all(d.direction == 0 for d in decisions)

    def test_detour_adds_len_mult_times_depth(self, rng):
        cfg = DemoGenConfig(detour_prob=1.0)
        direct = len(central_waypoints(cfg.grid_n))
        for _ in range(30):
            waypoints, decisions = build_waypoint_path(cfg, rng)
            extra = sum(cfg.detour_len_mult * d.depth for d in decisions)
            assert len(waypoints) == direct + extra

    def test_path_starts_and_ends_at_fixed_nodes(self, rng):
        cfg = DemoGenConfig(detour_prob=0.7)
        waypoints, _ = build_waypoint_path(cfg, rng)
        assert np.array_equal(waypoints[0], [0.5, 1.0])
        assert np.array_equal(waypoints[-1], [0.5, 0.0])


class TestGenerateDemo:
    def test_detour_free_length_near_geometric_estimate(self, rng):
        cfg = DemoGenConfig(detour_prob=0.0, seed=0)
        traj, _ = generate_demo(cfg, rng)
        mean_eta = (cfg.eta_min + cfg.eta_max) / 2
        estimate = 1.0 / mean_eta  # start-goal distance over mean speed
        assert abs(traj.length - estimate) <= 0.3 * estimate

    def test_every_demo_goal_reaching(self, rng):
        cfg = DemoGenConfig(detour_prob=0.7)
        for _ in range(5):
            traj, _ = generate_demo(cfg, rng)
            assert traj.rewards[-1] == 1.0
            assert np.all(traj.rewards[:-1] == 0.0)

    def test_demo_exceeds_min_length(self, rng):
        cfg = DemoGenConfig(min_length=12)
        for _ in range(5):
            traj, _ = generate_demo(cfg, rng)
            assert traj.length > cfg.min_length

    def test_eta_above_env_bound_rejected(self, rng):
        cfg = DemoGenConfig(eta_min=0.01, eta_max=0.5)
        with pytest.raises(ValueError, match="action bound"):
            generate_demo(cfg, rng)


class TestGenerateDataset:
    def test_zero_demos_rejected(self):
        with pytest.raises(ValueError, match="n_demos"):
            generate_dataset(DemoGenConfig(n_demos=0))

    def test_seeded_determinism_bit_exact(self):
        cfg = DemoGenConfig(n_demos=4, seed=11)
        a, da = generate_dataset(cfg)
        b, db = generate_dataset(cfg)
        assert da == db
        for ta, tb in zip(a, b):
            assert ta.states.tobytes() == tb.states.tobytes()
            assert ta.actions.tobytes() == tb.actions.tobytes()

    def test_detours_double_average_length(self):
        desk, _ = generate_dataset(DemoGenConfig(n_demos=60, seed=5))
        straight, _ = generate_dataset(DemoGenConfig(n_demos=60, seed=5, detour_prob=0.0))
        desk_mean = np.mean([t.length for t in desk])
        straight_mean = np.mean([t.length for t in straight])
        assert desk_mean >= 2.0 * straight_mean

    def test_dataset_multimodal_at_branch_nodes(self):
        ds, decisions = generate_dataset(DemoGenConfig(n_demos=40, seed=3))
        top = Counter(d.direction for demo in decisions for d in demo if d.row == 4)
        assert top[-1] > 0 and top[+1] > 0

    def test_two_branch_config(self):
        cfg = DemoGenConfig(n_demos=30, grid_n=3, detour_prob=1.0, seed=9)
        ds, decisions = generate_dataset(cfg)
        first = Counter(demo[0].direction for demo in decisions)
        assert set(first) == {-1, 1}
        assert all(d.depth == 1 for demo in decisions for d in demo)

    def test_roundtrips_through_file(self, tmp_path):
        ds, _ = generate_dataset(DemoGenConfig(n_demos=3, seed=2))
        save(ds, tmp_path / "d.bin")
        loaded = load(tmp_path / "d.bin")
        assert loaded.env_id == ds.env_id
        assert [t.length for t in loaded] == [t.length for t in ds]


class TestWaypointPolicy:
    def test_oracle_reaches_goal(self):
        env = GraphReachEnv()
        policy = WaypointPolicy(central_waypoints(5), eta=0.015)
        s = env.reset()
        policy.reset()
        done, reward = False, 0.0
        steps = 0
        while not done:
            s, reward, done = env.step(policy.act(s))
            steps += 1
        assert reward == 1.0
        assert steps < 100

    def test_node_position_grid(self):
        assert np.array_equal(node_position(5, 2, 4), [0.5, 1.0])
        assert np.array_equal(node_position(5, 0, 0), [0.0, 0.0])

import copy
import hashlib
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from goalsel.data import save, load
from goalsel.envs import (
    DEMO_H_MAX,
    DemoGenConfig,
    GraphReachEnv,
    WaypointPolicy,
    _norm,
    build_waypoint_path,
    central_waypoints,
    generate_demo,
    generate_dataset,
    make_env,
    node_position,
    rollout,
)
from conftest import oracle


def np_norm(d):
    """Elementwise numpy oracle of ``envs._norm`` for a 2-vector ``d``. The
    sum is ``np.add``, which keeps the first of two NaNs as the array add
    does; ``+`` on numpy scalars keeps the second."""
    return np.sqrt(np.add(d[0] * d[0], d[1] * d[1]))


def reference_step(env, pos, a):
    """Elementwise numpy oracle of ``GraphReachEnv.step`` from position
    ``pos``: returns (new position, reward, done)."""
    a = np.clip(np.asarray(a, dtype=np.float64), -env.a_max, env.a_max)
    pos = np.clip(np.asarray(pos, dtype=np.float64) + a, 0.0, 1.0)
    success = float(np_norm(pos - np.array(env.goal_center))) <= env.eps_goal
    return pos, (1.0 if success else 0.0), success


def reference_act(policy, s, rng):
    """Elementwise numpy oracle of ``WaypointPolicy.act``; advances
    ``policy``'s waypoint index as the policy does."""
    cfg = policy.cfg
    while (policy._wp < policy._last
           and np_norm(policy.waypoints[policy._wp] - s) <= cfg.capture_radius):
        policy._wp += 1
    delta = policy.waypoints[policy._wp] - s
    dist = float(np_norm(delta))
    eta = rng.uniform(cfg.eta_min, cfg.eta_max)
    a = delta * (eta / max(dist, 1e-12)) + rng.normal(0.0, cfg.noise_sigma, size=2)
    return np.clip(a, -policy.a_max, policy.a_max)


A_MAX = 0.02
# the clip bounds of positions and actions, signed zeros, and non-finite values
EDGES = [0.0, -0.0, 1.0, A_MAX, -A_MAX, np.nan, np.inf, -np.inf, 5e-324]
coords = st.one_of(st.floats(-0.1, 1.1), st.sampled_from(EDGES), st.floats())
actions = st.one_of(st.floats(-2 * A_MAX, 2 * A_MAX), st.sampled_from(EDGES), st.floats())
# points on and near the goal disc's boundary (radius 0.05 around (0.5, 0)),
# where ``dist <= eps_goal`` flips
disc_edge = st.sampled_from([(0.5, 0.05), (0.55, 0.0), (0.45, 0.0), (0.53, 0.04),
                             (0.47, 0.04), (0.5, np.nextafter(0.05, 1.0)),
                             (0.5, np.nextafter(0.05, 0.0))])
positions = st.one_of(st.tuples(coords, coords), disc_edge)
# NaNs that differ from np.nan only in their payload or sign bit
NAN_1 = float(np.array(0x7FF8000000000001, dtype=np.uint64).view(np.float64))
NEG_NAN = -np.nan
# waypoint offsets on the capture circle (radius 0.03), axis-aligned or 3-4-5
capture_offsets = st.sampled_from([(0.03, 0.0), (0.0, -0.03), (-0.018, 0.024),
                                   (0.018, -0.024), (0.0, 0.0)])


def bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


class TestScalarStepMatchesNumpy:
    """The float arithmetic of the env step and the waypoint follower against
    the elementwise numpy code it replaced, bit for bit."""

    @given(x=coords, y=coords)
    @example(x=-np.nan, y=np.nan)
    @settings(max_examples=200, deadline=None)
    def test_norm_is_linalg_norm(self, x, y):
        with np.errstate(all="ignore"):
            assert bits(_norm(x, y)) == bits(np_norm(np.array([x, y])))

    def test_norm_rounds_each_operation(self):
        # a fused multiply-add, as in OpenBLAS's Haswell ddot, gives ...389
        assert _norm(0.022, 0.506) == 0.5064780350617388

    @given(pos=positions, steps=st.lists(st.tuples(actions, actions), min_size=1,
                                         max_size=4))
    @example(pos=(NAN_1, 0.0), steps=[(np.nan, 0.0)])
    @example(pos=(0.5, np.nan), steps=[(0.0, NEG_NAN), (0.0, NAN_1)])
    @settings(max_examples=150, deadline=None)
    def test_env_step(self, pos, steps):
        env = GraphReachEnv(a_max=A_MAX)
        env._pos = np.array(pos)
        ref = np.array(pos)
        for a in steps:
            with np.errstate(all="ignore"):
                ref, ref_reward, ref_done = reference_step(env, ref, a)
                s, reward, done = env.step(np.array(a))
            assert s.dtype == np.float64 and bits(s) == bits(ref)
            assert (reward, done) == (ref_reward, ref_done)

    @given(s=st.one_of(st.tuples(coords, coords), disc_edge),
           offsets=st.lists(st.one_of(capture_offsets, st.tuples(coords, coords)),
                            min_size=2, max_size=5),
           eta=st.tuples(st.floats(1e-3, A_MAX), st.floats(1e-3, A_MAX)),
           sigma=st.sampled_from([0.0, 0.003, 0.05]),
           a_max=st.sampled_from([A_MAX, 0.01, 0.0]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_waypoint_act(self, s, offsets, eta, sigma, a_max, seed):
        cfg = DemoGenConfig(eta_min=min(eta), eta_max=max(eta), noise_sigma=sigma)
        # waypoints offset from the state, several on the capture circle
        with np.errstate(all="ignore"):
            waypoints = np.array(s) + np.array(offsets)
        policy, ref_policy = (WaypointPolicy(waypoints, cfg, a_max) for _ in range(2))
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(2):
            with np.errstate(all="ignore"):
                a = policy.act(np.array(s), rng)
                ref = reference_act(ref_policy, np.array(s), ref_rng)
            assert a.dtype == np.float64 and bits(a) == bits(ref)
            assert policy._wp == ref_policy._wp
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_demo_rollouts(self):
        # whole float64 demonstrations, replayed through the oracles
        cfg = DemoGenConfig()
        env = GraphReachEnv()
        rng = np.random.default_rng(0)
        for _ in range(3):
            waypoints, _ = build_waypoint_path(cfg, rng)
            ref_rng = copy.deepcopy(rng)
            rec = rollout(env, WaypointPolicy(waypoints, cfg, env.a_max), DEMO_H_MAX, rng)
            ref_policy = WaypointPolicy(waypoints, cfg, env.a_max)
            states = [np.array(env.start)]
            for _ in range(rec.length):
                a = reference_act(ref_policy, states[-1], ref_rng)
                s, _, done = reference_step(env, states[-1], a)
                states.append(s)
            assert done and rec.success
            assert bits(rec.states) == bits(np.stack(states))


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

    @pytest.mark.parametrize("a_max", [-0.01, np.nan])
    def test_a_max_must_be_nonnegative(self, a_max):
        with pytest.raises(ValueError, match="a_max"):
            GraphReachEnv(a_max=a_max)

    def test_returned_arrays_do_not_alias_the_state(self):
        # writing into what reset and step return, or into the action after
        # the step, must not move the next step
        env, ref = GraphReachEnv(), GraphReachEnv()
        s = env.reset()
        ref.reset()
        for a in [(0.01, -0.015), (-0.005, -0.02), (0.02, -0.01)]:
            s[...] = np.nan
            action = np.array(a)
            s, _, _ = env.step(action)
            action[...] = 1.0
            assert np.array_equal(s, ref.step(np.array(a))[0])
        assert not np.shares_memory(env.reset(), env.reset())

    def test_actions_are_fresh_arrays(self, rng):
        policy = oracle(central_waypoints(5), 0.015)
        s = np.array([0.5, 1.0])
        first = policy.act(s, rng)
        second = policy.act(s, rng)
        assert np.array_equal(first, second) and not np.shares_memory(first, second)


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

    @pytest.mark.parametrize("kwargs, field", [
        ({"seed": -1}, "seed"), ({"grid_n": 4}, "grid_n"),
        ({"detour_prob": 1.5}, "detour_prob"), ({"noise_sigma": -0.1}, "noise_sigma"),
        ({"capture_radius": 0.2}, "capture_radius"),
        ({"noise_sigma": float("nan")}, "noise_sigma"),
        ({"noise_sigma": float("inf")}, "noise_sigma"),
    ])
    def test_bad_values_rejected(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            generate_dataset(DemoGenConfig(n_demos=2, **kwargs))

    def test_golden_bytes(self, tmp_path):
        # the file and branch decisions of the default generator at seed 0
        dataset, decisions = generate_dataset(DemoGenConfig(n_demos=5, seed=0))
        save(dataset, tmp_path / "d.bin")
        blob = (tmp_path / "d.bin").read_bytes() + json.dumps(
            [[list(d) for d in demo] for demo in decisions]).encode()
        assert hashlib.sha256(blob).hexdigest() == (
            "fcf86827ae5aa761c48bb5cb4d2819fd250e2c3eab66fccbe6ef8aa129840b47")

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
        policy = oracle(central_waypoints(5), 0.015)
        rng = np.random.default_rng(0)
        s = env.reset()
        policy.reset()
        done, reward = False, 0.0
        steps = 0
        while not done:
            s, reward, done = env.step(policy.act(s, rng))
            steps += 1
        assert reward == 1.0
        assert steps < 100

    @pytest.mark.parametrize("grid_n", [3, 5, 7])
    def test_straight_line_at_full_speed_takes_48_steps(self, grid_n):
        # from y = 1 at a_max = 0.02 per step into the goal disc of radius 0.05
        env = GraphReachEnv(grid_n=grid_n)
        policy = oracle(central_waypoints(grid_n), env.a_max, env.a_max)
        rec = rollout(env, policy, DEMO_H_MAX, np.random.default_rng(0))
        assert rec.success and rec.length == 48

    def test_node_position_grid(self):
        assert np.array_equal(node_position(5, 2, 4), [0.5, 1.0])
        assert np.array_equal(node_position(5, 0, 0), [0.0, 0.0])

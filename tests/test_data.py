import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goalsel.binfile import FormatError
from goalsel.data import (
    Trajectory,
    TrajectoryDataset,
    WindowBatch,
    filter_best_fraction,
    load,
    save,
)
from conftest import make_dataset, make_traj


class TestTrajectory:
    def test_valid_construction(self, rng):
        traj = make_traj(rng, length=5)
        assert traj.length == 5
        assert traj.states.shape == (6, 2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            Trajectory(states=np.zeros((4, 2)), actions=np.zeros((4, 2)),
                       rewards=np.array([0, 0, 0, 1.0]))

    def test_all_zero_rewards_rejected(self):
        with pytest.raises(ValueError, match="not goal-reaching"):
            Trajectory(states=np.zeros((4, 2)), actions=np.zeros((3, 2)),
                       rewards=np.zeros(3))

    def test_early_reward_rejected(self):
        with pytest.raises(ValueError, match="not goal-reaching"):
            Trajectory(states=np.zeros((4, 2)), actions=np.zeros((3, 2)),
                       rewards=np.array([1.0, 0.0, 1.0]))

    def test_non_finite_rejected(self):
        states = np.zeros((4, 2))
        states[1, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            Trajectory(states=states, actions=np.zeros((3, 2)),
                       rewards=np.array([0.0, 0.0, 1.0]))

    def test_fractional_reward_rejected(self):
        with pytest.raises(ValueError, match="rewards must be 0 or 1"):
            Trajectory(states=np.zeros((4, 2)), actions=np.zeros((3, 2)),
                       rewards=np.array([0.0, 0.0, 0.5]))


class TestConstruction:
    def test_builds_from_trajectory_list(self, rng):
        trajs = [make_traj(rng, length=5), make_traj(rng, length=7)]
        ds = TrajectoryDataset(2, 2, "test-v0", trajs)
        assert len(ds) == 2 and all(a is b for a, b in zip(ds, trajs))
        assert ds.lengths.tolist() == [5, 7] and ds.sha256 is None

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError, match="dimension mismatch"):
            TrajectoryDataset(2, 2, trajectories=[make_traj(rng, length=5, obs_dim=3)])

    def test_not_a_trajectory_rejected(self):
        with pytest.raises(TypeError, match="Trajectory"):
            TrajectoryDataset(2, 2, trajectories=[np.zeros((3, 2))])

    def test_norm_stats_reuse_stacked_arrays(self, rng):
        # the statistics are those of the arrays that window sampling gathers from
        ds = make_dataset(rng, n_traj=4)
        states, actions = ds.stacked_states, ds._flat_transitions[0]
        stats = ds.norm_stats
        assert ds.norm_stats is stats
        assert stats.state.mean.tobytes() == states.mean(axis=0).tobytes()
        assert stats.action.std.tobytes() == actions.std(axis=0).tobytes()


class TestNormStats:
    def test_zero_variance_floored(self):
        state = np.array([[1.0, 2.0]] * 4, dtype=np.float32)
        traj = Trajectory(states=state, actions=np.zeros((3, 2)),
                          rewards=np.array([0, 0, 1.0]))
        stats = TrajectoryDataset(2, 2, trajectories=[traj]).norm_stats
        assert np.allclose(stats.state.mean, [1.0, 2.0])
        assert np.all(stats.state.std == 1e-6)

    def test_two_point_variance(self):
        states = np.array([[0.0, 0.0], [2.0, 2.0]], dtype=np.float32)
        traj = Trajectory(states=states, actions=np.zeros((1, 2)),
                          rewards=np.array([1.0]))
        stats = TrajectoryDataset(2, 2, trajectories=[traj]).norm_stats
        assert np.allclose(stats.state.mean, [1.0, 1.0])
        assert np.allclose(stats.state.std, [1.0, 1.0])

    def test_matches_two_pass_oracle(self, rng):
        ds = make_dataset(rng, n_traj=12, obs_dim=3, act_dim=2)
        states = [s for t in ds for s in t.states.astype(np.float64)]
        n = len(states)
        mean = [sum(s[d] for s in states) / n for d in range(3)]
        std = [max((sum((s[d] - mean[d]) ** 2 for s in states) / n) ** 0.5, 1e-6)
               for d in range(3)]
        stats = ds.norm_stats
        assert np.allclose(stats.state.mean, mean, atol=1e-12)
        assert np.allclose(stats.state.std, std, atol=1e-12)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            TrajectoryDataset(2, 2).norm_stats

    def test_roundtrip_norm_denorm(self, rng):
        ds = make_dataset(rng)
        stats = ds.norm_stats
        x = rng.normal(0, 3, (7, 2))
        assert np.allclose(stats.state.norm(x) * stats.state.std + stats.state.mean, x)
        assert np.allclose(stats.action.denorm(stats.action.norm(x)), x)


def fancy_index_batch(ds, t_window, batch_size, rng):
    """``sample_window_batch`` with fancy indexing in place of ``take``."""
    idx, offsets = ds._windows(t_window)
    flats = rng.integers(offsets[-1], size=batch_size)
    j = np.searchsorted(offsets, flats, side="right") - 1
    traj_index, start = idx[j], flats - offsets[j]
    actions, rewards, state_start, action_start = ds._flat_transitions
    steps = np.arange(t_window + 1)
    state_rows = (state_start[traj_index] + start)[:, None] + steps
    action_rows = (action_start[traj_index] + start)[:, None] + steps[:-1]
    return WindowBatch(states=ds.stacked_states[state_rows], actions=actions[action_rows],
                       rewards=rewards[action_rows], is_terminal=flats + 1 == offsets[j + 1],
                       traj_index=traj_index, start=start)


class TestSampleWindow:
    def test_full_length_window_is_terminal(self, rng):
        ds = make_dataset(rng, lengths=[6])
        w = ds.sample_window_batch(6, 1, rng)
        assert w.is_terminal[0] and w.start[0] == 0
        assert np.array_equal(w.states[0], ds.trajectories[0].states)

    def test_two_window_frequencies_binomial(self, rng):
        ds = make_dataset(rng, lengths=[7])  # T=6 gives exactly two windows
        draws = 10000
        zeros = np.count_nonzero(ds.sample_window_batch(6, draws, rng).start == 0)
        sigma3 = 3 * np.sqrt(draws * 0.25)
        assert abs(zeros - draws / 2) <= sigma3

    def test_all_too_short_rejected(self, rng):
        ds = make_dataset(rng, lengths=[4, 5])
        with pytest.raises(ValueError, match="no trajectory admits"):
            ds.sample_window_batch(6, 1, rng)

    def test_short_trajectories_excluded(self, rng):
        ds = make_dataset(rng, lengths=[3, 10])
        assert np.all(ds.sample_window_batch(8, 50, rng).traj_index == 1)

    def test_windows_are_verbatim_slices(self, rng):
        ds = make_dataset(rng, n_traj=6)
        w = ds.sample_window_batch(4, 100, rng)
        for b in range(100):
            traj = ds.trajectories[w.traj_index[b]]
            start = w.start[b]
            assert np.array_equal(w.states[b], traj.states[start:start + 5])
            assert np.array_equal(w.actions[b], traj.actions[start:start + 4])
            assert np.array_equal(w.rewards[b], traj.rewards[start:start + 4])
            assert w.is_terminal[b] == (start + 4 == traj.length)
            assert np.array_equal(w.states[b, -1], traj.states[start + 4])

    @pytest.mark.parametrize("t_window", [1, 10])
    def test_gather_matches_per_row_slices(self, rng, t_window):
        ds = make_dataset(rng, lengths=[10, 13, 11, 25])
        for _ in range(2):  # the second pass reads the cached arrays
            w = ds.sample_window_batch(t_window, 64, rng)
            assert w.is_terminal.any()
            rows = [(ds.trajectories[i], s) for i, s in zip(w.traj_index, w.start)]
            expected = {
                "states": [t.states[s:s + t_window + 1] for t, s in rows],
                "actions": [t.actions[s:s + t_window] for t, s in rows],
                "rewards": [t.rewards[s:s + t_window] for t, s in rows],
            }
            for field, slices in expected.items():
                want = np.stack(slices).astype(np.float64)
                got = getattr(w, field)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), field

    @pytest.mark.parametrize("t_window", [1, 10])
    def test_take_matches_fancy_index(self, rng, t_window):
        ds = make_dataset(rng, lengths=[10, 13, 11, 25, 40])
        for seed in range(40):
            got = ds.sample_window_batch(t_window, 32, np.random.default_rng(seed))
            want = fancy_index_batch(ds, t_window, 32, np.random.default_rng(seed))
            for field in WindowBatch.__dataclass_fields__:
                a, b = getattr(got, field), getattr(want, field)
                assert a.dtype == b.dtype and a.shape == b.shape, field
                assert a.flags.c_contiguous and b.flags.c_contiguous, field
                assert a.tobytes() == b.tobytes(), field

    def test_seeded_determinism(self, rng):
        ds = make_dataset(rng, n_traj=6)
        a = ds.sample_window_batch(4, 20, np.random.default_rng(9))
        b = ds.sample_window_batch(4, 20, np.random.default_rng(9))
        assert np.array_equal(a.traj_index, b.traj_index)
        assert np.array_equal(a.start, b.start)
        assert np.array_equal(a.states, b.states)

    def test_batch_matches_metadata(self, rng):
        ds = make_dataset(rng, n_traj=4)
        batch = ds.sample_window_batch(3, 16, rng)
        assert batch.states.shape == (16, 4, 2)
        assert batch.states.dtype == np.float64
        assert batch.traj_index.shape == batch.start.shape == (16,)
        assert len(batch) == 16

    def test_selection_proportional_to_window_count(self, rng):
        # lengths 4 and 12 with T=4 give 1 vs 9 valid windows
        ds = make_dataset(rng, lengths=[4, 12])
        picks = ds.sample_window_batch(4, 5000, rng).traj_index
        frac = np.mean(picks == 0)
        assert abs(frac - 0.1) < 0.02


class TestFilterBestFraction:
    def test_identity_at_one(self, rng):
        ds = make_dataset(rng, n_traj=5)
        out, _ = filter_best_fraction(ds, 1.0)
        assert [t.length for t in out] == [t.length for t in ds]

    def test_ceiling_arithmetic(self, rng):
        ds = make_dataset(rng, lengths=[10, 20, 30])
        # enumeration oracle: 0.34 * 3 = 1.02, so ceil keeps 2 trajectories
        assert math.ceil(0.34 * 3) == 2
        out, _ = filter_best_fraction(ds, 0.34)
        assert sorted(t.length for t in out) == [10, 20]

    def test_tie_break_insertion_order(self, rng):
        ds = make_dataset(rng, lengths=[5, 5, 5])
        out, kept = filter_best_fraction(ds, 0.4)
        assert len(out) == 2 and kept == [0, 1]
        for kept, orig in zip(out.trajectories, ds.trajectories[:2]):
            assert np.array_equal(kept.states, orig.states)

    @pytest.mark.parametrize("frac", [0.0, -0.1, 1.2])
    def test_bad_fraction_rejected(self, rng, frac):
        ds = make_dataset(rng)
        with pytest.raises(ValueError, match="fraction"):
            filter_best_fraction(ds, frac)

    @given(lengths=st.lists(st.integers(2, 30), min_size=1, max_size=12),
           f1=st.floats(0.05, 1.0), f2=st.floats(0.05, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_monotone_subset(self, lengths, f1, f2):
        rng = np.random.default_rng(0)
        ds = make_dataset(rng, lengths=lengths)
        lo, hi = min(f1, f2), max(f1, f2)
        small = {id(t) for t in filter_best_fraction(ds, lo)[0].trajectories}
        big = {id(t) for t in filter_best_fraction(ds, hi)[0].trajectories}
        assert small <= big


class TestSerialization:
    def test_roundtrip_bit_exact(self, rng, tmp_path):
        ds = make_dataset(rng, n_traj=4, obs_dim=3, act_dim=2)
        path = tmp_path / "roundtrip.bin"
        save(ds, path)
        loaded = load(path)
        assert loaded.env_id == ds.env_id
        assert len(loaded) == len(ds)
        for a, b in zip(loaded, ds):
            assert np.array_equal(a.states, b.states)
            assert a.states.dtype == np.float32
            assert np.array_equal(a.actions, b.actions)
            assert np.array_equal(a.rewards, b.rewards)

    def test_loaded_dataset_keeps_file_digest(self, rng, tmp_path):
        ds = make_dataset(rng, n_traj=3)
        path = tmp_path / "digest.bin"
        save(ds, path)
        assert ds.sha256 is None
        loaded = load(path)
        assert loaded.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, tmp_path_factory, seed):
        rng = np.random.default_rng(seed)
        ds = make_dataset(rng, n_traj=int(rng.integers(1, 5)))
        path = tmp_path_factory.mktemp("ds") / "d.bin"
        save(ds, path)
        loaded = load(path)
        for a, b in zip(loaded, ds):
            assert a.states.tobytes() == b.states.tobytes()
            assert a.actions.tobytes() == b.actions.tobytes()
            assert a.rewards.tobytes() == b.rewards.tobytes()

    def test_wrong_magic(self, rng, tmp_path):
        path = tmp_path / "d.bin"
        save(make_dataset(rng), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="magic"):
            load(path)

    def test_truncated_payload(self, rng, tmp_path):
        path = tmp_path / "d.bin"
        save(make_dataset(rng, n_traj=2), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 40])
        with pytest.raises(FormatError, match="truncated"):
            load(path)

    def test_declared_count_exceeds_payload(self, rng, tmp_path):
        # bump the trajectory count field without adding payload
        ds = make_dataset(rng, n_traj=1)
        path = tmp_path / "d.bin"
        save(ds, path)
        blob = bytearray(path.read_bytes())
        offset = 4 + 4 + 4 + 4 + 4 + len(ds.env_id)  # magic/ver/dims/env header
        blob[offset:offset + 4] = (5).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="truncated"):
            load(path)

    def test_trailing_bytes_rejected(self, rng, tmp_path):
        path = tmp_path / "d.bin"
        save(make_dataset(rng), path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError, match="trailing"):
            load(path)

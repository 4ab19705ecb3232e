"""Storage, sampling, filtering, and serialization of goal-reaching demonstrations.

A trajectory is goal-reaching when its final reward is 1 and every earlier
reward is 0. Datasets are append-then-freeze: once training starts nothing
mutates them, so concurrent readers and samplers (each with its own rng) are
safe. Dataset files use the container of :mod:`goalsel.binfile`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .binfile import Reader, Writer

DATASET_MAGIC = b"IRD1"
DATASET_VERSION = 1
STD_FLOOR = 1e-6


def _frozen_f32(x, name: str) -> np.ndarray:
    arr = np.array(x, dtype=np.float32)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Trajectory:
    """One goal-reaching demonstration.

    ``states`` has one more row than ``actions``/``rewards``; the final reward
    is 1 and all earlier rewards are 0 (single terminal success).
    """

    states: np.ndarray   # (L+1, obs_dim) float32
    actions: np.ndarray  # (L, act_dim) float32
    rewards: np.ndarray  # (L,) float32, entries in {0, 1}

    def __post_init__(self):
        states = _frozen_f32(self.states, "states")
        actions = _frozen_f32(self.actions, "actions")
        rewards = _frozen_f32(self.rewards, "rewards")
        if states.ndim != 2 or actions.ndim != 2 or rewards.ndim != 1:
            raise ValueError("states/actions must be 2-D and rewards 1-D")
        if len(states) != len(actions) + 1 or len(rewards) != len(actions):
            raise ValueError(
                f"length mismatch: {len(states)} states, {len(actions)} actions, "
                f"{len(rewards)} rewards"
            )
        if len(actions) < 1:
            raise ValueError("trajectory must contain at least one transition")
        if not np.all(np.isin(rewards, (0.0, 1.0))):
            raise ValueError("rewards must be 0 or 1")
        if rewards[-1] != 1.0 or np.any(rewards[:-1] != 0.0):
            raise ValueError(
                "not goal-reaching: expected final reward 1 and all earlier rewards 0"
            )
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "rewards", rewards)

    @property
    def length(self) -> int:
        """Number of transitions (completion time in steps)."""
        return len(self.actions)

    @property
    def obs_dim(self) -> int:
        return self.states.shape[1]

    @property
    def act_dim(self) -> int:
        return self.actions.shape[1]


@dataclass(frozen=True)
class NormStats:
    """Per-dimension mean and (floored) standard deviation for states and actions."""

    state_mean: np.ndarray
    state_std: np.ndarray
    action_mean: np.ndarray
    action_std: np.ndarray

    def norm_state(self, s):
        return (np.asarray(s, dtype=np.float64) - self.state_mean) / self.state_std

    def norm_action(self, a):
        return (np.asarray(a, dtype=np.float64) - self.action_mean) / self.action_std

    def denorm_action(self, a):
        return np.asarray(a, dtype=np.float64) * self.action_std + self.action_mean


@dataclass(frozen=True)
class WindowBatch:
    """Stacked T-step windows in float64, ready for the model boundary.

    Row ``b`` is the verbatim slice of trajectory ``traj_index[b]`` that
    starts at transition ``start[b]``; its goal is ``states[b, -1]`` and
    ``is_terminal[b]`` is true iff the slice ends at the trajectory's final
    state.
    """

    states: np.ndarray       # (B, T+1, obs_dim)
    actions: np.ndarray      # (B, T, act_dim)
    rewards: np.ndarray      # (B, T)
    is_terminal: np.ndarray  # (B,) bool
    traj_index: np.ndarray   # (B,) int64
    start: np.ndarray        # (B,) int64

    def __len__(self) -> int:
        return self.states.shape[0]


class TrajectoryDataset:
    """A collection of goal-reaching trajectories with shared dimensions.

    Normalization statistics and window-sampling indices are computed lazily
    and invalidated by ``append``.
    """

    def __init__(self, obs_dim: int, act_dim: int, env_id: str = "",
                 trajectories=()):
        if obs_dim < 1 or act_dim < 1:
            raise ValueError("obs_dim and act_dim must be positive")
        self.obs_dim = int(obs_dim)
        self.act_dim = int(act_dim)
        self.env_id = str(env_id)
        self.trajectories: list[Trajectory] = []
        self._norm: NormStats | None = None
        self._window_index: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._stacked_states: np.ndarray | None = None
        self._flat: tuple[np.ndarray, ...] | None = None
        for traj in trajectories:
            self.append(traj)

    def __len__(self) -> int:
        return len(self.trajectories)

    def __iter__(self):
        return iter(self.trajectories)

    def append(self, traj: Trajectory) -> "TrajectoryDataset":
        """Add a trajectory; its invariants were checked at construction."""
        if not isinstance(traj, Trajectory):
            raise TypeError("expected a Trajectory")
        if traj.obs_dim != self.obs_dim or traj.act_dim != self.act_dim:
            raise ValueError(
                f"dimension mismatch: trajectory is ({traj.obs_dim}, {traj.act_dim}), "
                f"dataset is ({self.obs_dim}, {self.act_dim})"
            )
        self.trajectories.append(traj)
        self._norm = None
        self._window_index.clear()
        self._stacked_states = None
        self._flat = None
        return self

    @property
    def lengths(self) -> np.ndarray:
        return np.array([t.length for t in self.trajectories], dtype=np.int64)

    def compute_norm_stats(self) -> NormStats:
        """Mean/std over all states and all actions, std floored at STD_FLOOR."""
        if not self.trajectories:
            raise ValueError("cannot compute normalization statistics of an empty dataset")
        states = np.concatenate([t.states for t in self.trajectories]).astype(np.float64)
        actions = np.concatenate([t.actions for t in self.trajectories]).astype(np.float64)
        return NormStats(
            state_mean=states.mean(axis=0),
            state_std=np.maximum(states.std(axis=0), STD_FLOOR),
            action_mean=actions.mean(axis=0),
            action_std=np.maximum(actions.std(axis=0), STD_FLOOR),
        )

    @property
    def norm_stats(self) -> NormStats:
        if self._norm is None:
            self._norm = self.compute_norm_stats()
        return self._norm

    def stacked_states(self) -> np.ndarray:
        """All states of all trajectories as one (N, obs_dim) float64 array."""
        if self._stacked_states is None:
            if not self.trajectories:
                raise ValueError("empty dataset")
            self._stacked_states = np.concatenate(
                [t.states for t in self.trajectories]
            ).astype(np.float64)
        return self._stacked_states

    def _flat_transitions(self) -> tuple[np.ndarray, ...]:
        """All actions as one (n_transitions, act_dim) float64 array, all
        rewards as one float64 vector, and each trajectory's first row in
        :meth:`stacked_states` and in those two."""
        if self._flat is None:
            actions = np.concatenate([t.actions for t in self.trajectories])
            rewards = np.concatenate([t.rewards for t in self.trajectories])
            action_start = np.concatenate(([0], np.cumsum(self.lengths)[:-1]))
            self._flat = (actions.astype(np.float64), rewards.astype(np.float64),
                          action_start + np.arange(len(self)), action_start)
        return self._flat

    def _windows(self, t_window: int) -> tuple[np.ndarray, np.ndarray]:
        """(eligible trajectory indices, offsets) for length T, where
        ``offsets[j]`` counts the windows of the eligible trajectories before
        the j-th and ``offsets[-1]`` counts them all."""
        if t_window < 1:
            raise ValueError("window length must be positive")
        cached = self._window_index.get(t_window)
        if cached is not None:
            return cached
        counts = self.lengths - t_window + 1
        idx = np.flatnonzero(counts > 0)
        if not idx.size:
            raise ValueError(f"no trajectory admits a window of length {t_window}")
        entry = (idx, np.concatenate(([0], np.cumsum(counts[idx]))))
        self._window_index[t_window] = entry
        return entry

    def sample_window_batch(self, t_window: int, batch_size: int,
                            rng: np.random.Generator) -> WindowBatch:
        """Stack ``batch_size`` independent window draws as float64 arrays.

        Each draw is uniform over all valid (trajectory, start) pairs:
        trajectories shorter than ``t_window`` are excluded and each eligible
        trajectory is chosen in proportion to its number of valid starts.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        idx, offsets = self._windows(t_window)
        flats = rng.integers(offsets[-1], size=batch_size)
        j = np.searchsorted(offsets, flats, side="right") - 1
        traj_index = idx[j]
        start = flats - offsets[j]
        actions, rewards, state_start, action_start = self._flat_transitions()
        steps = np.arange(t_window + 1)
        state_rows = (state_start[traj_index] + start)[:, None] + steps
        action_rows = (action_start[traj_index] + start)[:, None] + steps[:-1]
        # a window is terminal iff it is the last one of its trajectory
        return WindowBatch(states=self.stacked_states()[state_rows],
                           actions=actions[action_rows], rewards=rewards[action_rows],
                           is_terminal=flats + 1 == offsets[j + 1],
                           traj_index=traj_index, start=start)


def filter_best_fraction(dataset: TrajectoryDataset,
                         frac: float) -> tuple[TrajectoryDataset, list[int]]:
    """Keep the ceil(frac * N) shortest trajectories, ties by insertion order;
    returns the filtered dataset and the kept indices, ascending, so that
    per-trajectory records can be filtered alongside."""
    if not 0.0 < frac <= 1.0:
        raise ValueError(f"fraction must lie in (0, 1], got {frac}")
    if len(dataset) == 0:
        raise ValueError("cannot filter an empty dataset")
    keep = math.ceil(frac * len(dataset))
    order = np.argsort(dataset.lengths, kind="stable")[:keep]
    chosen = sorted(int(i) for i in order)
    kept = TrajectoryDataset(
        dataset.obs_dim,
        dataset.act_dim,
        env_id=dataset.env_id,
        trajectories=[dataset.trajectories[i] for i in chosen],
    )
    return kept, chosen


def save(dataset: TrajectoryDataset, path) -> None:
    """Write the dataset container (bit-exact round trip)."""
    w = Writer(DATASET_MAGIC, DATASET_VERSION)
    w.u32(dataset.obs_dim)
    w.u32(dataset.act_dim)
    w.text(dataset.env_id)
    w.u32(len(dataset))
    for traj in dataset:
        w.u32(traj.length)
        w.f32(traj.states)
        w.f32(traj.actions)
        w.f32(traj.rewards)
    w.write(path)


def load(path) -> TrajectoryDataset:
    """Read a dataset written by :func:`save`, validating magic and payload."""
    r = Reader(path, DATASET_MAGIC, DATASET_VERSION, "dataset")
    obs_dim = r.u32()
    act_dim = r.u32()
    env_id = r.text()
    n_traj = r.u32()
    dataset = TrajectoryDataset(obs_dim, act_dim, env_id=env_id)
    for _ in range(n_traj):
        length = r.u32()
        states = r.f32((length + 1, obs_dim))
        actions = r.f32((length, act_dim))
        rewards = r.f32((length,))
        dataset.append(Trajectory(states=states, actions=actions, rewards=rewards))
    r.finish()
    return dataset

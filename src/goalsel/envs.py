"""2D grid-graph navigation task and its demonstration generator.

The agent lives in the unit square and must travel from a fixed start at the
top center to a fixed goal region at the bottom center. Demonstrations follow
random waypoint paths over an odd-sided grid of nodes: each row descent along
the central column may branch into a lateral excursion that swings out to
depth d, drops a row, and swings back, contributing 2d extra waypoints (more
when the length multiplier is raised), so deeper deviations take
proportionally longer detours before rejoining the central path. Waypoints
are tracked with noisy, random-magnitude actions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import Trajectory, TrajectoryDataset


class GraphReachEnv:
    """Point navigation in [0, 1]^2 with sparse terminal reward.

    Dynamics are deterministic: actions are clipped per axis to ``a_max``,
    positions are clipped to the unit square, and reward 1 is granted exactly
    when the new position enters the goal disc, ending the episode. The
    caller sets the horizon.
    """

    def __init__(self, grid_n: int = 5, a_max: float = 0.02, eps_goal: float = 0.05):
        if grid_n < 3 or grid_n % 2 == 0:
            raise ValueError("grid_n must be an odd integer >= 3")
        self.grid_n = grid_n
        self.a_max = float(a_max)
        self.eps_goal = float(eps_goal)
        self.start = np.array([0.5, 1.0])
        self.goal_center = np.array([0.5, 0.0])
        self.obs_dim = 2
        self.act_dim = 2
        self._pos = self.start.copy()

    @property
    def env_id(self) -> str:
        return f"graph-reach-n{self.grid_n}-v1"

    def clip_action(self, a) -> np.ndarray:
        return np.clip(np.asarray(a, dtype=np.float64), -self.a_max, self.a_max)

    def reset(self) -> np.ndarray:
        self._pos = self.start.copy()
        return self._pos.copy()

    def step(self, a) -> tuple[np.ndarray, float, bool]:
        a = self.clip_action(a)
        self._pos = np.clip(self._pos + a, 0.0, 1.0)
        success = float(np.linalg.norm(self._pos - self.goal_center)) <= self.eps_goal
        reward = 1.0 if success else 0.0
        return self._pos.copy(), reward, success


# Steps after which the demonstration generator abandons a path.
DEMO_H_MAX = 800

_ENV_ID_RE = re.compile(r"^graph-reach-n(\d+)-v1$")


def make_env(env_id: str, **overrides) -> GraphReachEnv:
    """Build the environment named by a dataset's env_id string."""
    m = _ENV_ID_RE.match(env_id)
    if not m:
        raise ValueError(f"unknown env id {env_id!r}")
    return GraphReachEnv(grid_n=int(m.group(1)), **overrides)


class BranchDecision(NamedTuple):
    """One routing choice at a central-column node (direction 0 = straight)."""

    row: int
    direction: int  # -1 left, 0 straight, +1 right
    depth: int      # lateral excursion depth in grid columns


@dataclass(frozen=True)
class DemoGenConfig:
    """Knobs for the demonstration generator (the geometry lives in the env)."""

    n_demos: int = 100
    grid_n: int = 5
    detour_prob: float = 0.55
    detour_len_mult: int = 2
    eta_min: float = 0.005
    eta_max: float = 0.02
    noise_sigma: float = 0.003
    capture_radius: float = 0.03
    seed: int = 0
    min_length: int = 12
    max_retries: int = 20

    def validate(self) -> None:
        if self.grid_n < 3 or self.grid_n % 2 == 0:
            raise ValueError("grid_n must be an odd integer >= 3")
        if not 0.0 <= self.detour_prob <= 1.0:
            raise ValueError("detour_prob must lie in [0, 1]")
        if self.detour_len_mult < 1:
            raise ValueError("detour_len_mult must be >= 1")
        if not 0.0 < self.eta_min <= self.eta_max:
            raise ValueError("need 0 < eta_min <= eta_max")
        if self.noise_sigma < 0.0:
            raise ValueError("noise_sigma must be >= 0")
        spacing = 1.0 / (self.grid_n - 1)
        if not 0.0 < self.capture_radius < spacing / 2.0:
            raise ValueError("capture_radius must lie in (0, grid spacing / 2)")
        if self.min_length < 1 or self.max_retries < 1:
            raise ValueError("min_length and max_retries must be >= 1")


def node_position(grid_n: int, col: int, row: int) -> np.ndarray:
    spacing = 1.0 / (grid_n - 1)
    return np.array([col * spacing, row * spacing])


def central_waypoints(grid_n: int) -> np.ndarray:
    """The detour-free path: straight down the central column."""
    center = (grid_n - 1) // 2
    return np.stack([node_position(grid_n, center, row)
                     for row in range(grid_n - 1, -1, -1)])


def build_waypoint_path(cfg: DemoGenConfig,
                        rng: np.random.Generator) -> tuple[np.ndarray, tuple[BranchDecision, ...]]:
    """Sample a connected node path from the start node to the goal node.

    Consecutive waypoints are 4-neighbor-adjacent grid nodes. A depth-d
    excursion swings out d columns, descends on the side column (one row,
    plus ``(detour_len_mult - 2) * d`` further rows when the multiplier
    exceeds 2, capped by the rows left), and swings back, contributing
    ``detour_len_mult * d`` extra waypoints relative to the direct descent.
    """
    n = cfg.grid_n
    center = (n - 1) // 2
    nodes = [(center, n - 1)]
    decisions = []
    row = n - 1
    while row > 0:
        if rng.random() < cfg.detour_prob:
            direction = -1 if rng.random() < 0.5 else 1
            depth = int(rng.integers(1, center + 1))
            descend = min(1 + (cfg.detour_len_mult - 2) * depth, row)
            for k in range(1, depth + 1):
                nodes.append((center + direction * k, row))
            for j in range(1, descend + 1):
                nodes.append((center + direction * depth, row - j))
            for k in range(depth - 1, -1, -1):
                nodes.append((center + direction * k, row - descend))
            decisions.append(BranchDecision(row=row, direction=direction, depth=depth))
            row -= descend
        else:
            nodes.append((center, row - 1))
            decisions.append(BranchDecision(row=row, direction=0, depth=0))
            row -= 1
    for (c0, r0), (c1, r1) in zip(nodes, nodes[1:]):
        assert abs(c0 - c1) + abs(r0 - r1) == 1, "waypoints must be 4-neighbor adjacent"
    waypoints = np.stack([node_position(n, c, r) for c, r in nodes])
    return waypoints, tuple(decisions)


def _follow_waypoints(env: GraphReachEnv, waypoints: np.ndarray,
                      cfg: DemoGenConfig, rng: np.random.Generator):
    """Track a waypoint list with noisy actions; None if ``DEMO_H_MAX`` steps
    do not reach the goal."""
    pos = env.reset()
    states = [pos]
    actions = []
    rewards = []
    wp = 1  # waypoints[0] is the start node
    last = len(waypoints) - 1
    for _ in range(DEMO_H_MAX):
        while wp < last and np.linalg.norm(waypoints[wp] - pos) <= cfg.capture_radius:
            wp += 1
        delta = waypoints[wp] - pos
        dist = float(np.linalg.norm(delta))
        eta = rng.uniform(cfg.eta_min, cfg.eta_max)
        a = delta * (eta / max(dist, 1e-12)) + rng.normal(0.0, cfg.noise_sigma, size=2)
        a = env.clip_action(a)
        pos, reward, done = env.step(a)
        states.append(pos)
        actions.append(a)
        rewards.append(reward)
        if done:
            return Trajectory(states=np.stack(states), actions=np.stack(actions),
                              rewards=np.array(rewards))
    return None


def generate_demo(cfg: DemoGenConfig, rng: np.random.Generator,
                  env: GraphReachEnv | None = None) -> tuple[Trajectory, tuple[BranchDecision, ...]]:
    """One goal-reaching demonstration plus its branch-decision bookkeeping."""
    cfg.validate()
    if env is None:
        env = GraphReachEnv(grid_n=cfg.grid_n)
    if cfg.eta_max > env.a_max:
        raise ValueError("eta_max exceeds the environment action bound")
    for _ in range(cfg.max_retries):
        waypoints, decisions = build_waypoint_path(cfg, rng)
        traj = _follow_waypoints(env, waypoints, cfg, rng)
        if traj is not None and traj.length > cfg.min_length:
            return traj, decisions
    raise RuntimeError(
        f"failed to generate a valid demonstration in {cfg.max_retries} attempts"
    )


def generate_dataset(cfg: DemoGenConfig) -> tuple[TrajectoryDataset, list[tuple[BranchDecision, ...]]]:
    """n_demos goal-reaching demonstrations, deterministic in cfg.seed."""
    cfg.validate()
    if cfg.n_demos < 1:
        raise ValueError("n_demos must be >= 1")
    env = GraphReachEnv(grid_n=cfg.grid_n)
    rng = np.random.default_rng(cfg.seed)
    dataset = TrajectoryDataset(env.obs_dim, env.act_dim, env_id=env.env_id)
    all_decisions = []
    for _ in range(cfg.n_demos):
        traj, decisions = generate_demo(cfg, rng, env)
        dataset.append(traj)
        all_decisions.append(decisions)
    dataset.norm_stats  # compute and cache
    return dataset, all_decisions


class WaypointPolicy:
    """Deterministic waypoint follower (test oracle, no noise)."""

    def __init__(self, waypoints: np.ndarray, eta: float = 0.015,
                 capture_radius: float = 0.03):
        self.waypoints = np.asarray(waypoints, dtype=np.float64)
        self.eta = float(eta)
        self.capture_radius = float(capture_radius)
        self._wp = 1

    def reset(self) -> None:
        self._wp = 1

    def act(self, s, rng=None) -> np.ndarray:
        pos = np.asarray(s, dtype=np.float64)
        last = len(self.waypoints) - 1
        while (self._wp < last
               and np.linalg.norm(self.waypoints[self._wp] - pos) <= self.capture_radius):
            self._wp += 1
        delta = self.waypoints[self._wp] - pos
        dist = float(np.linalg.norm(delta))
        return delta * (self.eta / max(dist, 1e-12))

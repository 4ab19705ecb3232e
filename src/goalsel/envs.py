"""2D grid-graph navigation task, its episode loop, and its demonstrations.

The agent lives in the unit square and must travel from a fixed start at the
top center to a fixed goal region at the bottom center. Demonstrations follow
random waypoint paths over an odd-sided grid of nodes: each row descent along
the central column may branch into a lateral excursion that swings out to
depth d, drops a row, and swings back, contributing 2d extra waypoints (more
when the length multiplier is raised), so deeper deviations take
proportionally longer detours before rejoining the central path. A
demonstration is an ordinary :func:`rollout` of a :class:`WaypointPolicy`,
which tracks the waypoints with noisy, random-magnitude actions; the same
class with a fixed step and no noise is the deterministic oracle.

The env step and the follower's action compute on Python floats (on
2-element arrays numpy's per-call cost dominates) and return, bit for bit,
what the elementwise numpy form kept in the tests returns: a clip is a chained
comparison, which passes NaN and a value equal to a bound through as
``np.clip`` does; and a sum of two NaNs is the first one, quieted, as numpy's
array add gives it (Python's ``+`` picks either). A 2-norm is
``sqrt(x * x + y * y)`` with that add: each operation is rounded on its own, so
no BLAS kernel and no fused multiply-add enters.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import Trajectory, TrajectoryDataset


def _clip(v: float, lo: float, hi: float) -> float:
    """``np.clip`` of one float for ``lo <= hi``: NaN, and a value equal to a
    bound (-0.0 against 0.0, say), pass through unchanged."""
    return lo if v < lo else hi if v > hi else v


def _add(p: float, c: float) -> float:
    """``p + c`` as numpy's elementwise add gives it: of two NaNs, ``p``."""
    s = p + c
    return p + p if s != s and p != p else s


def _norm(x: float, y: float) -> float:
    """The 2-norm of ``(x, y)``, each operation rounded on its own."""
    return math.sqrt(_add(x * x, y * y))


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
        if not a_max >= 0.0:
            raise ValueError("a_max must be >= 0")
        self.grid_n = grid_n
        self.a_max = float(a_max)
        self.eps_goal = float(eps_goal)
        self.start = (0.5, 1.0)
        self.goal_center = (0.5, 0.0)
        self.obs_dim = 2
        self.act_dim = 2
        self.reset()

    @property
    def env_id(self) -> str:
        return f"graph-reach-n{self.grid_n}-v1"

    def reset(self) -> np.ndarray:
        self._pos = self.start
        return np.array(self._pos)

    def step(self, a) -> tuple[np.ndarray, float, bool]:
        ax, ay = np.asarray(a, dtype=np.float64).tolist()
        px, py = self._pos
        lim = self.a_max
        px = _clip(_add(px, _clip(ax, -lim, lim)), 0.0, 1.0)
        py = _clip(_add(py, _clip(ay, -lim, lim)), 0.0, 1.0)
        self._pos = (px, py)
        gx, gy = self.goal_center
        success = _norm(px - gx, py - gy) <= self.eps_goal
        reward = 1.0 if success else 0.0
        return np.array(self._pos), reward, success


# Steps after which the demonstration generator abandons a path.
DEMO_H_MAX = 800

_ENV_ID_RE = re.compile(r"^graph-reach-n(\d+)-v1$")


def make_env(env_id: str, **overrides) -> GraphReachEnv:
    """Build the environment named by a dataset's env_id string."""
    m = _ENV_ID_RE.match(env_id)
    if not m:
        raise ValueError(f"unknown env id {env_id!r}")
    return GraphReachEnv(grid_n=int(m.group(1)), **overrides)


@dataclass
class EpisodeRecord:
    states: np.ndarray   # (L+1, obs_dim)
    actions: np.ndarray  # (L, act_dim)
    rewards: np.ndarray  # (L,)
    success: bool
    length: int
    ret: float
    goal_log: list | None = None


def discounted_return(rewards, success: bool, gamma: float) -> float:
    """Absorbing-goal return ``sum_t gamma^t r_t + success * gamma^L / (1 - gamma)``
    of an episode of L steps."""
    rewards = np.asarray(rewards, dtype=np.float64)
    steps = np.arange(len(rewards))
    value = float((gamma ** steps * rewards).sum())
    if success:
        value += gamma ** len(rewards) / (1.0 - gamma)
    return value


def rollout(env, policy, h_max: int, rng: np.random.Generator,
            gamma: float = 0.99) -> EpisodeRecord:
    """Reset env and policy, then step until done or the horizon."""
    s = env.reset()
    policy.reset()
    states = [s]
    actions = []
    rewards = []
    for _ in range(h_max):
        a = policy.act(s, rng)
        s, r, done = env.step(a)
        states.append(s)
        actions.append(np.asarray(a, dtype=np.float64))
        rewards.append(r)
        if done:
            break
    rewards = np.array(rewards)
    success = bool(len(rewards) and rewards[-1] == 1.0)
    return EpisodeRecord(
        states=np.stack(states),
        actions=np.stack(actions) if actions else np.zeros((0, env.act_dim)),
        rewards=rewards,
        success=success,
        length=len(rewards),
        ret=discounted_return(rewards, success, gamma),
        goal_log=list(getattr(policy, "goal_log", []) or []) or None,
    )


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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.grid_n < 3 or self.grid_n % 2 == 0:
            raise ValueError("grid_n must be an odd integer >= 3")
        if not 0.0 <= self.detour_prob <= 1.0:
            raise ValueError("detour_prob must lie in [0, 1]")
        if self.detour_len_mult < 1:
            raise ValueError("detour_len_mult must be >= 1")
        if not 0.0 < self.eta_min <= self.eta_max:
            raise ValueError("need 0 < eta_min <= eta_max")
        if not 0.0 <= self.noise_sigma < math.inf:
            raise ValueError("noise_sigma must be finite and >= 0")
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
        demo = rollout(env, WaypointPolicy(waypoints, cfg, env.a_max), DEMO_H_MAX, rng)
        if demo.success and demo.length > cfg.min_length:
            return Trajectory(states=demo.states, actions=demo.actions,
                              rewards=demo.rewards), decisions
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
    demos = [generate_demo(cfg, rng, env) for _ in range(cfg.n_demos)]
    dataset = TrajectoryDataset(env.obs_dim, env.act_dim, env.env_id,
                                [traj for traj, _ in demos])
    return dataset, [decisions for _, decisions in demos]


class WaypointPolicy:
    """The waypoint follower behind every demonstration.

    Each step moves on to the next waypoint once within ``cfg.capture_radius``
    of the current one, steps toward it by ``eta ~ U(eta_min, eta_max)`` plus
    ``N(0, noise_sigma)`` noise per axis, and clips the action to ``a_max``.
    With ``eta_min == eta_max`` and ``noise_sigma == 0`` it is deterministic:
    the oracle that tracks a fixed path at a fixed speed.
    """

    def __init__(self, waypoints: np.ndarray, cfg: DemoGenConfig, a_max: float):
        self.waypoints = np.asarray(waypoints, dtype=np.float64)
        self.cfg = cfg
        self.a_max = float(a_max)
        self._points = self.waypoints.tolist()
        self._last = len(self.waypoints) - 1
        self._wp = 1  # waypoints[0] is the start node

    def reset(self) -> None:
        self._wp = 1

    def _to_waypoint(self, sx: float, sy: float) -> tuple[float, float, float]:
        """The offset from the state to the current waypoint, and its norm."""
        wx, wy = self._points[self._wp]
        dx, dy = wx - sx, wy - sy
        return dx, dy, _norm(dx, dy)

    def act(self, s, rng: np.random.Generator) -> np.ndarray:
        cfg = self.cfg
        sx, sy = np.asarray(s, dtype=np.float64).tolist()
        dx, dy, dist = self._to_waypoint(sx, sy)
        while self._wp < self._last and dist <= cfg.capture_radius:
            self._wp += 1
            dx, dy, dist = self._to_waypoint(sx, sy)
        k = rng.uniform(cfg.eta_min, cfg.eta_max) / max(dist, 1e-12)
        nx, ny = rng.normal(0.0, cfg.noise_sigma, size=2).tolist()
        lim = self.a_max
        return np.array((_clip(dx * k + nx, -lim, lim), _clip(dy * k + ny, -lim, lim)))

"""Closed-loop evaluation: rollouts, success/length/return metrics with
multi-seed aggregation, nearest-dataset-state statistics, checkpoint loading,
and SVG/CSV trajectory export.

Episode rngs derive from (seed, episode index), so evaluations are
deterministic and order-independent. Reported returns use the absorbing-goal
formula: ``sum_t gamma^t r_t + success * gamma^L / (1 - gamma)`` for an
episode of L steps.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from .binfile import write_atomic
from .config import config_digest, from_flat, load_flat
from .control import make_policy
from .data import TrajectoryDataset
from .models import ModelSet, build_models
from .nn import load_checkpoint
from .training import TrainConfig


@dataclass(frozen=True)
class EvalConfig:
    n_episodes: int = 100
    h_max: int = 800
    gamma: float = 0.99
    seeds: tuple[int, ...] = (0,)
    n_goals: int = 100
    m_actions: int = 10

    def validate(self) -> None:
        if self.n_episodes < 1:
            raise ValueError("n_episodes must be >= 1")
        if self.h_max < 1:
            raise ValueError("h_max must be >= 1")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        if not self.seeds:
            raise ValueError("need at least one seed")


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
    """Absorbing-goal return of one episode record."""
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


@dataclass
class SeedResult:
    seed: int
    success_rate: float
    mean_success_length: float | None
    mean_return: float
    episodes: list[EpisodeRecord]

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "success_rate": self.success_rate,
            "mean_success_length": self.mean_success_length,
            "mean_return": self.mean_return,
        }


def _mean_std(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std())


@dataclass
class EvalReport:
    per_seed: list[SeedResult]
    config: EvalConfig
    checkpoint_hash: str | None = None

    @property
    def success_rate(self) -> tuple[float, float]:
        return _mean_std([s.success_rate for s in self.per_seed])

    @property
    def mean_success_length(self) -> tuple[float, float] | None:
        values = [s.mean_success_length for s in self.per_seed
                  if s.mean_success_length is not None]
        return _mean_std(values) if values else None

    @property
    def mean_return(self) -> tuple[float, float]:
        return _mean_std([s.mean_return for s in self.per_seed])

    def to_dict(self) -> dict:
        length = self.mean_success_length
        return {
            "success_rate": {"mean": self.success_rate[0],
                             "std": self.success_rate[1]},
            "rollout_length": (None if length is None
                               else {"mean": length[0], "std": length[1]}),
            "task_return": {"mean": self.mean_return[0],
                            "std": self.mean_return[1]},
            "per_seed": [s.to_dict() for s in self.per_seed],
            "config": {
                "n_episodes": self.config.n_episodes,
                "h_max": self.config.h_max,
                "gamma": self.config.gamma,
                "seeds": list(self.config.seeds),
            },
            "checkpoint_hash": self.checkpoint_hash,
        }


def evaluate(policy, env, cfg: EvalConfig,
             checkpoint_hash: str | None = None) -> EvalReport:
    """Run ``n_episodes`` rollouts per seed and aggregate the three metrics.

    ``mean_success_length`` averages only successful episodes and is absent
    when a seed never succeeds.
    """
    cfg.validate()
    per_seed = []
    for seed in cfg.seeds:
        episodes = []
        for ep in range(cfg.n_episodes):
            rng = np.random.default_rng(np.random.SeedSequence([seed, ep]))
            episodes.append(rollout(env, policy, cfg.h_max, rng, gamma=cfg.gamma))
        successes = [e for e in episodes if e.success]
        per_seed.append(SeedResult(
            seed=seed,
            success_rate=len(successes) / cfg.n_episodes,
            mean_success_length=(float(np.mean([e.length for e in successes]))
                                 if successes else None),
            mean_return=float(np.mean([e.ret for e in episodes])),
            episodes=episodes,
        ))
    return EvalReport(per_seed=per_seed, config=cfg,
                      checkpoint_hash=checkpoint_hash)


class ReplayPolicy:
    """Replays stored demonstration actions verbatim (the dataset oracle row)."""

    def __init__(self, dataset: TrajectoryDataset):
        self.dataset = dataset
        self._episode = -1
        self._step = 0

    def reset(self) -> None:
        self._episode = (self._episode + 1) % len(self.dataset)
        self._step = 0

    def act(self, s, rng=None) -> np.ndarray:
        traj = self.dataset.trajectories[self._episode]
        a = traj.actions[min(self._step, traj.length - 1)]
        self._step += 1
        return np.asarray(a, dtype=np.float64)


def nearest_state_distances(states, dataset: TrajectoryDataset) -> np.ndarray:
    """Distance from each query state to its nearest dataset state."""
    tree = cKDTree(dataset.stacked_states())
    dist, _ = tree.query(np.asarray(states, dtype=np.float64))
    return np.asarray(dist)


def in_distribution_stat(episodes: list[EpisodeRecord], dataset: TrajectoryDataset,
                         percentile: float = 95.0) -> float:
    """Percentile of nearest-dataset-state distance over all visited states."""
    states = np.concatenate([e.states for e in episodes])
    return float(np.percentile(nearest_state_distances(states, dataset), percentile))


# --- checkpoint plumbing -----------------------------------------------------

def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_models(ckpt_path, dataset: TrajectoryDataset,
                train_cfg: TrainConfig) -> ModelSet:
    """Rebuild a variant's models from a checkpoint and the dataset stats.
    The checkpoint must carry the digest of ``train_cfg``."""
    tensors, stored_hash = load_checkpoint(ckpt_path)
    if not stored_hash:
        raise ValueError(f"checkpoint {ckpt_path} stores no config hash")
    expected = config_digest(train_cfg)
    if stored_hash != expected:
        raise ValueError(
            f"checkpoint {ckpt_path} was written under a different config "
            f"(hash {stored_hash[:12]}... != {expected[:12]}...)")
    models = build_models(train_cfg.variant, dataset.obs_dim, dataset.act_dim,
                          dataset.norm_stats, hidden_dim=train_cfg.hidden_dim,
                          enc_dim=train_cfg.enc_dim,
                          goal_latent=train_cfg.goal_latent,
                          action_latent=train_cfg.action_latent,
                          beta_g=train_cfg.beta_g, beta_a=train_cfg.beta_a,
                          rng=np.random.default_rng(0))
    models.load_state_dict(tensors)
    return models


def list_checkpoints(run_dir) -> list[Path]:
    return sorted(Path(run_dir).glob("ckpt_*.bin"))


def load_run_config(run_dir) -> TrainConfig:
    return from_flat(TrainConfig, load_flat(Path(run_dir) / "config.json"))


def evaluate_checkpoint(ckpt_path, dataset: TrajectoryDataset,
                        train_cfg: TrainConfig, eval_cfg: EvalConfig,
                        env) -> EvalReport:
    models = load_models(ckpt_path, dataset, train_cfg)
    policy = make_policy(models, t_segment=train_cfg.t_window,
                         n_goals=eval_cfg.n_goals, m_actions=eval_cfg.m_actions)
    return evaluate(policy, env, eval_cfg, checkpoint_hash=file_sha256(ckpt_path))


@dataclass
class RunEvalResult:
    run_dir: Path
    best_checkpoint: Path
    best: EvalReport
    per_checkpoint: dict[str, EvalReport]

    def to_dict(self) -> dict:
        return {
            "run_dir": str(self.run_dir),
            "best_checkpoint": self.best_checkpoint.name,
            "best": self.best.to_dict(),
            "per_checkpoint": {name: report.to_dict()
                               for name, report in self.per_checkpoint.items()},
        }


def evaluate_run(run_dir, dataset: TrajectoryDataset, eval_cfg: EvalConfig,
                 env) -> RunEvalResult:
    """Evaluate every saved checkpoint of a training run and pick the best.

    Best means highest success rate, ties broken by higher mean return (which
    favors shorter successful rollouts), then by earlier checkpoint.
    """
    run_dir = Path(run_dir)
    train_cfg = load_run_config(run_dir)
    ckpts = list_checkpoints(run_dir)
    if not ckpts:
        raise FileNotFoundError(f"no checkpoints found in {run_dir}")
    reports: dict[str, EvalReport] = {}
    best_path, best_report, best_key = None, None, None
    for path in ckpts:
        report = evaluate_checkpoint(path, dataset, train_cfg, eval_cfg, env)
        reports[path.name] = report
        key = (report.success_rate[0], report.mean_return[0])
        if best_key is None or key > best_key:
            best_path, best_report, best_key = path, report, key
    return RunEvalResult(run_dir=run_dir, best_checkpoint=best_path,
                         best=best_report, per_checkpoint=reports)


# --- trajectory export -------------------------------------------------------

SVG_SIZE = 520
SVG_MARGIN = 20
_STROKES = ("#e05c4b", "#3fa34d", "#e8932c", "#8a4fd3", "#d34fa0", "#4f8ad3")


def svg_point(p, size: int = SVG_SIZE, margin: int = SVG_MARGIN) -> tuple[float, float]:
    """Affine map of the unit square onto the plot area (y flipped so the
    start at the top of the square draws at the top of the image)."""
    scale = size - 2 * margin
    return (margin + float(p[0]) * scale, margin + (1.0 - float(p[1])) * scale)


def _polyline(points, cls: str) -> str:
    coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    return f'<polyline class="{cls}" points="{coords}"/>'


def export_trajectories(records_by_policy: dict[str, list[EpisodeRecord]],
                        dataset: TrajectoryDataset, out_dir, *,
                        n_dataset: int = 50, per_policy: int = 5):
    """Write rollout states as CSV plus an SVG overlay of dataset strokes,
    per-policy rollouts, and start/goal markers. Returns (svg_path, csv_path)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    svg_path = out_dir / "trajectories.svg"
    csv_path = out_dir / "rollout_states.csv"

    rows = ["policy,episode,step,s0,s1"]
    for name, records in records_by_policy.items():
        for ep, record in enumerate(records):
            for step, state in enumerate(record.states):
                rows.append(f"{name},{ep},{step},{state[0]!r},{state[1]!r}")
    write_atomic(csv_path, ("\n".join(rows) + "\n").encode())

    style = [".dataset{fill:none;stroke:#9bb0c9;stroke-width:1;opacity:0.55}"]
    body = []
    for traj in dataset.trajectories[:n_dataset]:
        body.append(_polyline((svg_point(s) for s in traj.states), "dataset"))
    for i, (name, records) in enumerate(records_by_policy.items()):
        cls = f"p{i}"
        style.append(f".{cls}{{fill:none;stroke:{_STROKES[i % len(_STROKES)]};"
                     "stroke-width:1.6}")
        for record in records[:per_policy]:
            body.append(_polyline((svg_point(s) for s in record.states), cls))
        lx, ly = SVG_SIZE - SVG_MARGIN - 150, SVG_MARGIN + 16 * i + 10
        body.append(f'<text x="{lx}" y="{ly}" class="label" '
                    f'fill="{_STROKES[i % len(_STROKES)]}">{name}</text>')
    sx, sy = svg_point((0.5, 1.0))
    gx, gy = svg_point((0.5, 0.0))
    radius = 0.05 * (SVG_SIZE - 2 * SVG_MARGIN)
    body.append(f'<circle cx="{sx}" cy="{sy}" r="4" fill="#222"/>')
    body.append(f'<circle cx="{gx}" cy="{gy}" r="{radius:.2f}" fill="none" '
                'stroke="#222" stroke-dasharray="3,3"/>')
    body.append(f'<circle cx="{gx}" cy="{gy}" r="4" fill="#222"/>')
    svg = (f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {SVG_SIZE} '
           f'{SVG_SIZE}">\n<style>.label{{font:12px sans-serif}}'
           + "".join(style) + "</style>\n" + "\n".join(body) + "\n</svg>\n")
    write_atomic(svg_path, svg.encode())
    return svg_path, csv_path

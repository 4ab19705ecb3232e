"""Closed-loop evaluation: success/length/return metrics with multi-seed
aggregation, checkpoint loading, and SVG/CSV trajectory export.

Each episode is one :func:`~goalsel.envs.rollout` (the loop that also records
demonstrations), called through this module's name ``rollout``, with its rng
derived from (seed, episode index): evaluations are deterministic and
order-independent. Returns are absorbing-goal returns (``discounted_return``).

:func:`evaluate` scores an ``iris`` controller's goals on two CPUs: a worker
forked for the call (:func:`~goalsel.models.proposal_split`) scores the first
half of each refresh's action proposals, from goals and noise handed to it,
with identical reports. Other controllers and one-CPU masks stay serial.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .binfile import write_atomic
from .config import config_digest, from_flat, load_flat
from .control import ProposalScorer, make_policy
from .data import TrajectoryDataset
from .envs import EpisodeRecord, discounted_return, rollout  # noqa: F401
from .models import ModelSet, build_models, proposal_split
from .nn import load_checkpoint
from .procs import Forked, forkable
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
        if min(self.seeds) < 0:
            raise ValueError("seeds must be >= 0")
        if len(set(self.seeds)) < len(self.seeds):
            raise ValueError("seeds must be distinct")
        if self.n_goals < 1 or self.m_actions < 1:
            raise ValueError("n_goals and m_actions must be >= 1")


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
    when a seed never succeeds. An ``iris`` policy scores on two CPUs, as the
    module docstring sets out.
    """
    cfg.validate()
    scorer = getattr(policy, "score", None)
    worker = None
    if isinstance(scorer, ProposalScorer) and forkable():
        worker = Forked(*proposal_split(scorer.qnet, scorer.action_cvae, cfg.n_goals,
                                        scorer.m_actions, use_target=False),
                        "goalsel-eval-worker")
        scorer.split = functools.partial(worker.open_half, {})
    per_seed = []
    try:
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
    finally:
        if worker is not None:
            scorer.split = None
            worker.stop()
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
                          dataset.norm_stats, rng=np.random.default_rng(0),
                          **train_cfg.model_kwargs)
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
    eval_cfg.validate()
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
                        dataset: TrajectoryDataset, env, out_dir, *,
                        n_dataset: int = 50, per_policy: int = 5):
    """Write rollout states as CSV plus an SVG overlay of dataset strokes,
    per-policy rollouts, and ``env``'s start and goal markers. Returns
    (svg_path, csv_path)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    svg_path = out_dir / "trajectories.svg"
    csv_path = out_dir / "rollout_states.csv"

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("policy", "episode", "step", "s0", "s1"))
    for name, records in records_by_policy.items():
        for ep, record in enumerate(records):
            writer.writerows((name, ep, step, repr(float(state[0])), repr(float(state[1])))
                             for step, state in enumerate(record.states))
    write_atomic(csv_path, buf.getvalue().encode())

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
        text = name.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        body.append(f'<text x="{lx}" y="{ly}" class="label" '
                    f'fill="{_STROKES[i % len(_STROKES)]}">{text}</text>')
    sx, sy = svg_point(env.start)
    gx, gy = svg_point(env.goal_center)
    radius = env.eps_goal * (SVG_SIZE - 2 * SVG_MARGIN)
    body.append(f'<circle cx="{sx}" cy="{sy}" r="4" fill="#222"/>')
    body.append(f'<circle cx="{gx}" cy="{gy}" r="{radius:.2f}" fill="none" '
                'stroke="#222" stroke-dasharray="3,3"/>')
    body.append(f'<circle cx="{gx}" cy="{gy}" r="4" fill="#222"/>')
    svg = (f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {SVG_SIZE} '
           f'{SVG_SIZE}">\n<style>.label{{font:12px sans-serif}}'
           + "".join(style) + "</style>\n" + "\n".join(body) + "\n</svg>\n")
    write_atomic(svg_path, svg.encode())
    return svg_path, csv_path

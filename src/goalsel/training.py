"""Joint offline training of the policy, both conditional VAEs, and the
Q-network from dataset windows. Purely offline: this module never touches an
environment.

Each iteration samples a batch of T-step windows and updates the components
in ``UPDATE_ORDER``: (1) policy imitation on the window with its last state
as goal, (2) action VAE on the window's final transition, (3) Q regression
toward ``r + gamma * max_i Q'(s_next, a_i)`` over action-VAE proposals, with
the absorbing-goal value ``r / (1 - gamma)`` when the window ends a
trajectory, (4) goal VAE on the (first state, last state) pair. The Q targets
sample from the action VAE after its update. A variant updates only its
components (``models.VARIANTS``); per-component noise comes from fixed rng
slots so an absent component never perturbs the others' draws.

:func:`train` shares each step with one worker forked through
:mod:`goalsel.procs` when the model set gives it a role (``_can_fork``), from
the initial checkpoint until training ends or fails. With a policy, which
shares no parameters and no rng draws with the other components, this process
updates the policy and the worker the rest (one update body, ``_update``),
mirroring this process's draws from fork-time copies of the dataset and the
step rng. Without one (``bcq``), this process updates both components and
hands the worker the first half of the Q targets' proposals, noise drawn
(:func:`~goalsel.models.proposal_split`). The worker reads the stores in
shared memory, every one but the policy's (:meth:`~goalsel.nn.ParamStore.share`).
Checkpoints, ``metrics.csv`` and the returned models are byte-identical to a
serial run. Per-component step times and this process's minor page faults
per step go to ``timings.csv`` beside ``metrics.csv``; ``manifest.json``
records the config digest and the sha256 of the dataset file. The returned
policy holds no unroll buffers.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import math
import platform
import resource
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .binfile import write_atomic
from .config import canonical_json, config_digest
from .data import TrajectoryDataset, WindowBatch
from .models import (
    VARIANTS,
    ConditionalVAE,
    ModelSet,
    QNet,
    build_models,
    polyak_update,
    proposal_split,
    proposal_value,
)
from .nn import adam_step, grad_check, save_checkpoint
from .procs import Forked, forkable

METRIC_COLUMNS = ("iter", "loss_policy", "loss_goal_recon", "loss_goal_kl",
                  "loss_action_recon", "loss_action_kl", "loss_q", "q_mean")
# Mean ms per step: window sampling, each component's update (``q`` is the
# targets plus the Q update), and the parent's wait for the worker (its reply,
# or its half of the Q targets' proposals, which ``q`` includes); then the
# minor page faults per step of this process, within ``train_step``.
TIMING_COLUMNS = ("iter", "sample", "policy", "goal_cvae", "goal_reg", "action_cvae",
                  "q", "wait", "faults")


@dataclass(frozen=True)
class TrainConfig:
    """All training knobs; defaults are the desk-scale profile."""

    variant: str = "iris"
    t_window: int = 10
    batch_size: int = 128
    n_iter: int = 4000
    gamma: float = 0.99
    m_proposals: int = 10
    beta_g: float = 0.05
    beta_a: float = 0.05
    lr: float = 1e-3
    tau: float = 0.005
    seed: int = 0
    hidden_dim: int = 64
    enc_dim: int = 64
    goal_latent: int = 8
    action_latent: int = 4
    q_all_transitions: bool = False
    ckpt_every: int = 2000
    log_every: int = 50

    def validate(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.t_window < 2:
            raise ValueError("t_window must be >= 2")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        if self.m_proposals < 1:
            raise ValueError("m_proposals must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.batch_size < 1 or self.n_iter < 0:
            raise ValueError("batch_size must be >= 1 and n_iter >= 0")
        if not (0 <= self.beta_g < math.inf and 0 <= self.beta_a < math.inf
                and 0 < self.lr < math.inf):  # also false for nan
            raise ValueError("betas must be finite and >= 0, lr finite and > 0")
        if min(self.hidden_dim, self.enc_dim, self.goal_latent, self.action_latent) < 1:
            raise ValueError("hidden_dim, enc_dim and latent sizes must be >= 1")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError("tau must lie in [0, 1]")
        if self.ckpt_every < 1 or self.log_every < 1:
            raise ValueError("cadences must be >= 1")

    @property
    def model_kwargs(self) -> dict:
        """The keywords of :func:`~goalsel.models.build_models` this config sets."""
        return {k: getattr(self, k) for k in ("hidden_dim", "enc_dim", "goal_latent",
                                              "action_latent", "beta_g", "beta_a")}

    @property
    def sample_t(self) -> int:
        """Window length actually sampled: 1 for variants without a policy."""
        return self.t_window if "policy" in VARIANTS[self.variant] else 1


def q_targets_batch(qnet: QNet, action_cvae: ConditionalVAE, s_next, r,
                    is_terminal, gamma: float, n_proposals: int,
                    rng: np.random.Generator, split=None) -> np.ndarray:
    """Bootstrap targets for a batch of transitions.

    Non-terminal: ``r + gamma * max_i Q'(s_next, a_i)`` over ``n_proposals``
    action-VAE proposals at each ``s_next``, scored by the target Q-network.
    Terminal: the absorbing-goal value ``r / (1 - gamma)``. The tests check
    it against a scalar oracle that enumerates the proposals one transition
    at a time. ``split`` goes to :func:`~goalsel.models.proposal_value`.
    """
    if n_proposals < 1:
        raise ValueError("need at least one action proposal")
    s_next = np.asarray(s_next, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    is_terminal = np.asarray(is_terminal, dtype=bool)
    best = proposal_value(qnet, action_cvae, s_next, n_proposals, rng,
                          use_target=True, split=split)
    out = r + gamma * best
    out[is_terminal] = r[is_terminal] / (1.0 - gamma)
    return out


@contextlib.contextmanager
def _timed(timings: dict[str, float], key: str):
    """Add the seconds the block takes to ``timings[key]``."""
    started = time.perf_counter()
    yield
    timings[key] = timings.get(key, 0.0) + time.perf_counter() - started


def _draw(dataset: TrajectoryDataset, cfg: TrainConfig, rng: np.random.Generator):
    """One step's window batch and its (goal, action, proposal) rng children."""
    batch = dataset.sample_window_batch(cfg.sample_t, cfg.batch_size, rng)
    return batch, rng.spawn(3)


# The Q-net follows the action cVAE: its targets sample from it after its update.
UPDATE_ORDER = ("policy", "bc", "action_cvae", "qnet", "goal_cvae", "goal_reg")


def _update(models: ModelSet, name: str, batch: WindowBatch, rngs, cfg: TrainConfig,
            timings: dict[str, float], split=None) -> dict[str, float]:
    """Component ``name``'s update: its loss and gradients, its Adam step and,
    for the Q-net, the polyak update of its target, whose targets take
    ``split`` (:func:`q_targets_batch`). Returns its losses and adds its
    seconds to ``timings``."""
    goal_rng, action_rng, proposal_rng = rngs
    model = models[name]
    with _timed(timings, {"bc": "policy", "qnet": "q"}.get(name, name)):
        if name == "policy":
            goal = batch.states[:, -1] if model.goal_conditioned else None
            losses = {"loss_policy": model.loss_and_grad(batch.states[:, :-1],
                                                         batch.actions, goal)}
        elif name == "bc":
            losses = {"loss_policy": model.loss_and_grad(batch.states[:, 0],
                                                         batch.actions[:, 0])}
        elif name == "action_cvae":
            eps = action_rng.standard_normal((len(batch), model.latent_dim))
            _, parts = model.loss_and_grad(batch.actions[:, -1], batch.states[:, -2], eps)
            losses = {"loss_action_recon": parts["recon"], "loss_action_kl": parts["kl"]}
        elif name == "qnet":
            s, a, r, s_next, terminal = _q_transitions(batch, cfg)
            targets = q_targets_batch(model, models["action_cvae"], s_next, r, terminal,
                                      cfg.gamma, cfg.m_proposals, proposal_rng, split)
            losses = dict(zip(("loss_q", "q_mean"), model.loss_and_grad(s, a, targets)))
        elif name == "goal_cvae":
            eps = goal_rng.standard_normal((len(batch), model.latent_dim))
            _, parts = model.loss_and_grad(batch.states[:, -1], batch.states[:, 0], eps)
            losses = {"loss_goal_recon": parts["recon"], "loss_goal_kl": parts["kl"]}
        else:  # goal_reg
            losses = {"loss_goal_recon": model.loss_and_grad(batch.states[:, 0],
                                                             batch.states[:, -1])}
        adam_step(model.store, cfg.lr)
        if name == "qnet":
            polyak_update(model, cfg.tau)
    return losses


def train_step(models: ModelSet, dataset: TrajectoryDataset, cfg: TrainConfig,
               rng: np.random.Generator, worker: "_Worker | None" = None,
               timings: dict[str, float] | None = None) -> dict[str, float]:
    """One batch through every enabled component, in ``UPDATE_ORDER``.

    Returns the losses under their ``METRIC_COLUMNS`` names, in that order.
    With a ``worker`` (which :func:`train` forks), this process updates the
    policy while the worker updates the other components, or, without a
    policy, updates them all while the worker scores half of the Q targets'
    proposals. Beside a policy, ``rng`` must be the rng the worker was forked
    with, since the worker mirrors its draws. The seconds of each phase
    (``TIMING_COLUMNS``) are added to ``timings`` if given.
    """
    timings = {} if timings is None else timings
    beside_policy = worker is not None and worker.half is None
    if beside_policy and rng is not worker.rng:
        raise ValueError("a training worker mirrors the draws of the rng it "
                         "was forked with; train_step got another rng")
    with _timed(timings, "sample"):
        batch, rngs = _draw(dataset, cfg, rng)
    if beside_policy:
        worker.conn.send(True)  # go
    split = (None if worker is None or beside_policy
             else functools.partial(worker.open_half, timings))
    losses: dict[str, float] = {}
    for name in ("policy",) if beside_policy else UPDATE_ORDER:
        if name in models:
            losses.update(_update(models, name, batch, rngs, cfg, timings, split))
    if beside_policy:
        with _timed(timings, "wait"):
            worker_losses, worker_timings = worker.reply()
        losses.update(worker_losses)
        for key, seconds in worker_timings.items():
            timings[key] = timings.get(key, 0.0) + seconds
    return {key: losses[key] for key in METRIC_COLUMNS if key in losses}


def _can_fork(models: ModelSet) -> bool:
    """Whether :func:`train` runs part of each step in a forked worker: the
    model set has a role for it (components beside the policy or, without a
    policy, the action cVAE and Q-net, whose Q targets split in two halves),
    and :func:`~goalsel.procs.forkable`."""
    if "policy" in models:
        return len(models) >= 2 and forkable()
    return {"action_cvae", "qnet"} <= set(models) and forkable()


def _worker_loop(conn, half: None, models: ModelSet, dataset: TrajectoryDataset,
                 cfg: TrainConfig, rng: np.random.Generator) -> None:
    """The worker beside a policy: per "go", draw the parent's batch and rng
    children from this copy of ``rng``, update every component but the policy
    and reply with their losses and seconds. ``None`` stops it."""
    while conn.recv():
        batch, rngs = _draw(dataset, cfg, rng)
        losses: dict[str, float] = {}
        timings: dict[str, float] = {}
        for name in UPDATE_ORDER:
            if name in models and name != "policy":
                losses.update(_update(models, name, batch, rngs, cfg, timings))
        conn.send(("ok", losses, timings))


class _Worker(Forked):
    """The forked process that shares each ``train_step`` with this one: it
    updates the components other than the policy, or, for a model set
    without a policy, scores half of the Q targets' proposals (``half``)."""

    def __init__(self, models: ModelSet, dataset: TrajectoryDataset,
                 cfg: TrainConfig, rng: np.random.Generator):
        self.rng = rng
        for prefix, store in models.stores().items():
            if prefix != "policy":
                store.share()
        if "policy" in models:
            job = _worker_loop, (models, dataset, cfg, rng), None
        else:  # sample_t is 1: one Q transition per window
            job = proposal_split(models["qnet"], models["action_cvae"], cfg.batch_size,
                                 cfg.m_proposals, use_target=True)
        super().__init__(*job, "goalsel-train-worker")


def _q_transitions(batch: WindowBatch, cfg: TrainConfig):
    """The window's final transition, or every transition when configured."""
    if cfg.q_all_transitions and batch.states.shape[1] > 2:
        t = batch.actions.shape[1]
        s = batch.states[:, :-1].reshape(-1, batch.states.shape[2])
        a = batch.actions.reshape(-1, batch.actions.shape[2])
        r = batch.rewards.reshape(-1)
        s_next = batch.states[:, 1:].reshape(-1, batch.states.shape[2])
        terminal = np.zeros((len(batch), t), dtype=bool)
        terminal[:, -1] = batch.is_terminal
        return s, a, r, s_next, terminal.reshape(-1)
    return (batch.states[:, -2], batch.actions[:, -1], batch.rewards[:, -1],
            batch.states[:, -1], batch.is_terminal)


@dataclass
class TrainResult:
    out_dir: Path
    checkpoints: list[Path]
    metrics_path: Path
    config: TrainConfig
    models: ModelSet
    elapsed: float


def _checkpoint(models: ModelSet, out_dir: Path, iteration: int,
                digest: str) -> Path:
    """Write one checkpoint, refusing parameters that are not finite."""
    for store in models.stores().values():
        store.assert_finite()
    path = out_dir / f"ckpt_{iteration:07d}.bin"
    save_checkpoint(path, models.state_dict(), config_hash=digest)
    return path


def _minor_faults() -> int:
    """Minor page faults of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="milliseconds")


def _write_manifest(out_dir: Path, digest: str, dataset: TrajectoryDataset,
                    models: ModelSet, start_time: str,
                    end_time: str | None = None) -> None:
    """Record what produced a run: config digest, the sha256 of the dataset
    file (None for a dataset built in memory), library versions (with numpy's
    BLAS build, whose kernels the checkpoint bytes depend on), the dtype of
    each parameter store, and the start and (once finished) end time."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    manifest = {
        "config_digest": digest,
        "dataset_sha256": dataset.sha256,
        "versions": {"goalsel": __version__, "numpy": np.__version__,
                     "blas": f"{blas['name']} {blas['version']}",
                     "python": platform.python_version()},
        "dtypes": {prefix: store.dtype.name
                   for prefix, store in models.stores().items()},
        "start_time": start_time,
        "end_time": end_time,
    }
    write_atomic(out_dir / "manifest.json",
                 (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode())


def train(dataset: TrajectoryDataset, cfg: TrainConfig, out_dir) -> TrainResult:
    """Run ``cfg.n_iter`` training steps, writing checkpoints and a metrics log.

    Fully offline and deterministic given (config, seed): the initial
    checkpoint is always written, then one every ``ckpt_every`` iterations and
    at the end. Each ``metrics.csv`` row and the ``timings.csv`` row of the
    same ``log_every`` window reach their files as they are produced, and
    ``manifest.json`` gains its end time when the run finishes. Each step is
    shared with a forked worker, in the roles that the module docstring sets
    out, when its conditions hold, with identical results; under a one-CPU
    mask (``taskset -c N``) the run is serial. A run
    directory that already holds checkpoints is refused, since an earlier
    run's later checkpoints would survive beside the new ones; so is, before
    anything is written, a dataset with no ``cfg.sample_t``-step window.
    The returned models hold no unroll buffers.
    """
    cfg.validate()
    if not len(dataset) or dataset.lengths.max() < cfg.sample_t:
        raise ValueError(f"no trajectory admits a window of length {cfg.sample_t}")
    started = time.perf_counter()
    start_time = _utc_now()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if any(out_dir.glob("ckpt_*.bin")):
        raise ValueError(f"run directory {out_dir} already holds checkpoints")
    write_atomic(out_dir / "config.json", (canonical_json(cfg) + "\n").encode())
    digest = config_digest(cfg)

    root = np.random.default_rng(cfg.seed)
    init_rng, step_rng = root.spawn(2)
    models = build_models(cfg.variant, dataset.obs_dim, dataset.act_dim,
                          dataset.norm_stats, rng=init_rng, **cfg.model_kwargs)
    _write_manifest(out_dir, digest, dataset, models, start_time)

    checkpoints = [_checkpoint(models, out_dir, 0, digest)]
    worker = _Worker(models, dataset, cfg, step_rng) if _can_fork(models) else None
    metrics_path = out_dir / "metrics.csv"
    try:
        with open(metrics_path, "w", newline="") as fh, \
                open(out_dir / "timings.csv", "w", newline="") as timings_fh:
            writer = csv.writer(fh)
            writer.writerow(METRIC_COLUMNS)
            fh.flush()
            timings_writer = csv.writer(timings_fh)
            timings_writer.writerow(TIMING_COLUMNS)
            timings_fh.flush()
            sums: dict[str, float] = {}
            timings: dict[str, float] = {}
            faults = 0
            logged = 0
            for i in range(1, cfg.n_iter + 1):
                faults -= _minor_faults()
                losses = train_step(models, dataset, cfg, step_rng, worker=worker,
                                    timings=timings)
                faults += _minor_faults()
                for key, value in losses.items():
                    if not np.isfinite(value):
                        raise FloatingPointError(f"non-finite {key} at iteration "
                                                 f"{i}: {value}")
                    sums[key] = sums.get(key, 0.0) + value
                if i % cfg.log_every == 0 or i == cfg.n_iter:
                    # every loss is present at every step
                    steps = i - logged
                    writer.writerow([i] + [repr(sums[col] / steps) if col in sums else ""
                                           for col in METRIC_COLUMNS[1:]])
                    fh.flush()
                    timings_writer.writerow(
                        [i] + [f"{1e3 * timings[col] / steps:.4f}"
                               if col in timings else "" for col in TIMING_COLUMNS[1:-1]]
                        + [f"{faults / steps:.2f}"])
                    timings_fh.flush()
                    sums.clear()
                    timings.clear()
                    faults = 0
                    logged = i
                if i % cfg.ckpt_every == 0 or i == cfg.n_iter:
                    checkpoints.append(_checkpoint(models, out_dir, i, digest))
    finally:
        if worker is not None:
            worker.stop()
    _write_manifest(out_dir, digest, dataset, models, start_time, _utc_now())
    if "policy" in models:
        models["policy"].release_caches()
    return TrainResult(out_dir=out_dir, checkpoints=checkpoints,
                       metrics_path=metrics_path, config=cfg, models=models,
                       elapsed=time.perf_counter() - started)


def jitter_params(store, rng: np.random.Generator, scale: float = 0.05) -> None:
    """Randomize every parameter (biases included) for gradient checking.

    The production init zeroes biases, which can pin a ReLU pre-activation
    exactly at the kink when a whole layer goes dead for one sample; jittered
    parameters keep finite differences away from that measure-zero edge.
    """
    for _, tensor in store:
        tensor.value += rng.normal(0.0, scale, tensor.value.shape)


def standard_grad_check_suite(n_instances: int = 20, seed: int = 0) -> dict[str, float]:
    """Finite-difference checks for the four training losses on small random
    instances with frozen sampling noise; returns each loss's max relative
    error over all instances."""
    if n_instances < 1:
        raise ValueError(f"n_instances must be >= 1, got {n_instances}")
    from .data import NormStats, Scaler  # local import keeps the module header lean

    worst = {"policy": 0.0, "goal_cvae": 0.0, "action_cvae": 0.0, "q": 0.0}
    for inst in range(n_instances):
        rng = np.random.default_rng(np.random.SeedSequence([seed, inst]))
        obs_dim, act_dim, t_window, batch = 3, 2, 4, 2
        norm = NormStats(
            Scaler(rng.normal(0, 0.5, obs_dim), rng.uniform(0.5, 1.5, obs_dim)),
            Scaler(rng.normal(0, 0.5, act_dim), rng.uniform(0.5, 1.5, act_dim)))
        models = build_models("iris", obs_dim, act_dim, norm, hidden_dim=6,
                              enc_dim=5, goal_latent=3, action_latent=2,
                              policy_dtype=np.float64, rng=rng.spawn(1)[0])
        for store in models.stores().values():
            jitter_params(store, rng)
        states = rng.normal(0, 1.0, (batch, t_window + 1, obs_dim))
        actions = rng.normal(0, 1.0, (batch, t_window, act_dim))
        eps_g = rng.standard_normal((batch, 3))
        eps_a = rng.standard_normal((batch, 2))
        targets = rng.normal(0, 1.0, batch)
        checks = {
            "policy": (models["policy"].store,
                       lambda: models["policy"].loss_and_grad(
                           states[:, :-1], actions, states[:, -1])),
            "goal_cvae": (models["goal_cvae"].store,
                          lambda: models["goal_cvae"].loss_and_grad(
                              states[:, -1], states[:, 0], eps_g)[0]),
            "action_cvae": (models["action_cvae"].store,
                            lambda: models["action_cvae"].loss_and_grad(
                                actions[:, -1], states[:, -2], eps_a)[0]),
            "q": (models["qnet"].store,
                  lambda: models["qnet"].loss_and_grad(
                      states[:, -2], actions[:, -1], targets)[0]),
        }
        for name, (store, loss_fn) in checks.items():
            worst[name] = max(worst[name], *grad_check(loss_fn, store, rng).values())
    return worst

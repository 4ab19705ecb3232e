"""Joint offline training of the policy, both conditional VAEs, and the
Q-network from dataset windows. Purely offline: this module never touches an
environment.

Each iteration samples a batch of T-step windows and updates the components
in ``UPDATE_ORDER``: (1) policy imitation on the window with its last state
as goal, (2) action VAE on the window's final transition, (3) Q regression
toward ``r + gamma * max_i Q'(s_next, a_i)`` over action-VAE proposals, with
the absorbing-goal value ``r / (1 - gamma)`` when the window ends a
trajectory, (4) goal VAE on the (first state, last state) pair. The Q targets
sample from the action VAE after its update, so the two form one unit of
``UPDATE_UNITS``, run in that order; no two units share parameters or rng
draws, so any order of the units gives the same bits. A variant updates only
its components (``models.VARIANTS``); per-component noise comes from fixed rng
slots so an absent component never perturbs the others' draws.

The policy shares no parameters and no rng draws with the goal-selection
components, so :func:`train` runs the two halves side by side when it can:
the process keeps the policy update, and one forked worker process runs the
other components. Each process claims a unit before it updates its
components, so when the policy update is done the process takes over every
unit the worker has not started; a worker that the machine keeps waiting for
a CPU then delays a step by at most the unit it is in. The worker starts
after the initial checkpoint and is stopped when training ends or fails. It
is used only when the model set has a policy and another component, the
process may run on two or more CPUs, and the process has exactly one OS
thread (a BLAS thread pool in each process would fight over the cores, and
only a single-threaded process is safe to fork); otherwise every update runs
here. Both processes run the same update body (``_update``), so the split is
bit-exact whichever process runs a component: the stores of every component
but the policy live in shared memory, Adam step counters included
(:meth:`~goalsel.nn.ParamStore.share`), and the worker draws each step's
batch and rng children from its fork-time copies of the dataset and the step
rng, the same draws the parent makes. Checkpoints, ``metrics.csv`` and the
returned models are byte-identical to a serial run. Per-component step times
and this process's minor page faults per step go to ``timings.csv`` beside
``metrics.csv``; ``manifest.json`` records the config digest and the sha256
of the dataset file.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import mmap
import multiprocessing
import os
import platform
import resource
import time
import traceback
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
    proposal_value,
)
from .nn import adam_step, grad_check, save_checkpoint

METRIC_COLUMNS = ("iter", "loss_policy", "loss_goal_recon", "loss_goal_kl",
                  "loss_action_recon", "loss_action_kl", "loss_q", "q_mean")
# Mean ms per step: window sampling, each component's update (``q`` is the
# targets plus the Q update), and the parent's wait for the worker; then the
# minor page faults per step of this process, within ``train_step``.
TIMING_COLUMNS = ("iter", "sample", "policy", "goal_cvae", "goal_reg", "action_cvae",
                  "q", "wait", "faults")
WORKER_STOP_TIMEOUT_S = 10.0


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
                    rng: np.random.Generator) -> np.ndarray:
    """Bootstrap targets for a batch of transitions.

    Non-terminal: ``r + gamma * max_i Q'(s_next, a_i)`` over ``n_proposals``
    action-VAE proposals at each ``s_next``, scored by the target Q-network.
    Terminal: the absorbing-goal value ``r / (1 - gamma)``. The tests check
    it against a scalar oracle that enumerates the proposals one transition
    at a time.
    """
    if n_proposals < 1:
        raise ValueError("need at least one action proposal")
    s_next = np.asarray(s_next, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    is_terminal = np.asarray(is_terminal, dtype=bool)
    best = proposal_value(qnet, action_cvae, s_next, n_proposals, rng,
                          use_target=True)
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


# The units of a step's updates: the action cVAE and the Q-net, whose targets
# sample from it after its update, are one. The split worker claims units in
# this order too, so the independent goal model, last, is the one the parent
# most likely takes over.
UPDATE_UNITS = (("policy",), ("bc",), ("action_cvae", "qnet"), ("goal_cvae",),
                ("goal_reg",))
UPDATE_ORDER = tuple(name for unit in UPDATE_UNITS for name in unit)


def _update(models: ModelSet, name: str, batch: WindowBatch, rngs, cfg: TrainConfig,
            timings: dict[str, float]) -> dict[str, float]:
    """Component ``name``'s update: its loss and gradients, its Adam step and,
    for the Q-net, the polyak update of its target. Returns its losses and
    adds its seconds to ``timings``."""
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
            _, parts = model.loss_and_grad(batch.actions[:, -1], batch.states[:, -2],
                                           rng=action_rng)
            losses = {"loss_action_recon": parts["recon"], "loss_action_kl": parts["kl"]}
        elif name == "qnet":
            s, a, r, s_next, terminal = _q_transitions(batch, cfg)
            targets = q_targets_batch(model, models["action_cvae"], s_next, r, terminal,
                                      cfg.gamma, cfg.m_proposals, proposal_rng)
            losses = dict(zip(("loss_q", "q_mean"), model.loss_and_grad(s, a, targets)))
        elif name == "goal_cvae":
            _, parts = model.loss_and_grad(batch.states[:, -1], batch.states[:, 0],
                                           rng=goal_rng)
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
    policy while the worker updates the other components, and this process
    then takes over every unit the worker has not started; ``rng`` must
    be the rng the worker was forked with, since the worker mirrors its
    draws. The seconds of each phase (``TIMING_COLUMNS``) are added to
    ``timings`` if given.
    """
    timings = {} if timings is None else timings
    if worker is not None:
        if rng is not worker.rng:
            raise ValueError("a training worker mirrors the draws of the rng it "
                             "was forked with; train_step got another rng")
        step = worker.start_step()
    with _timed(timings, "sample"):
        batch, rngs = _draw(dataset, cfg, rng)
    losses: dict[str, float] = {}
    for name in UPDATE_ORDER if worker is None else ("policy",):
        if name in models:
            losses.update(_update(models, name, batch, rngs, cfg, timings))
    if worker is not None:
        taken, ran_all = _run_claims(worker.board, step, models, batch, rngs, cfg,
                                     timings)
        losses.update(taken)
        with _timed(timings, "wait"):
            worker_losses, worker_timings = worker.finish_step(step, wait=not ran_all)
        losses.update(worker_losses)
        for key, seconds in worker_timings.items():
            timings[key] = timings.get(key, 0.0) + seconds
    return {key: losses[key] for key in METRIC_COLUMNS if key in losses}


def _can_fork(models: ModelSet) -> bool:
    """Whether :func:`train` runs the non-policy components in a forked
    worker: the model set has a policy and another component, the process may
    run on two or more CPUs, and it has exactly one OS thread."""
    if "policy" not in models or len(models) < 2:
        return False
    try:
        return (len(os.sched_getaffinity(0)) >= 2
                and len(os.listdir("/proc/self/task")) == 1)
    except (AttributeError, OSError):  # no affinity call or no /proc: serial
        return False


class _Board:
    """The last step for which each update unit was claimed, in shared memory
    under one lock, so that the parent and the worker each run a unit of a
    step exactly once."""

    def __init__(self, names, ctx):
        self.units = tuple(unit for unit in UPDATE_UNITS if "policy" not in unit
                           and any(name in names for name in unit))
        self.claimed = np.frombuffer(mmap.mmap(-1, 8 * len(self.units)), np.int64)
        self.lock = ctx.Lock()

    def claim(self, step: int) -> tuple[str, ...] | None:
        """Claim the first unit not yet claimed in ``step``, or return None if
        there is none."""
        with self.lock:
            for i, unit in enumerate(self.units):
                if self.claimed[i] < step:
                    self.claimed[i] = step
                    return unit
        return None


def _run_claims(board: _Board, step: int, models: ModelSet,
                batch: WindowBatch, rngs, cfg: TrainConfig,
                timings: dict[str, float]) -> tuple[dict[str, float], bool]:
    """Claim units of ``step`` and update their components that ``models``
    has, until no unit is left. Returns their losses and whether the units
    were all of the board's."""
    losses: dict[str, float] = {}
    count = 0
    while (unit := board.claim(step)) is not None:
        for name in unit:
            if name in models:
                losses.update(_update(models, name, batch, rngs, cfg, timings))
        count += 1
    return losses, count == len(board.units)


def _serve(conn, board: _Board, models: ModelSet, dataset: TrajectoryDataset,
           cfg: TrainConfig, rng: np.random.Generator) -> None:
    """The worker's loop: per step number received, draw the batch and rng
    children that the parent draws from its own copy of ``rng``, run the
    units it can claim, and reply with the step, their losses and their
    seconds; ``None`` stops it. An exception is sent back as its traceback
    text."""
    try:
        while (step := conn.recv()) is not None:
            timings: dict[str, float] = {}
            batch, rngs = _draw(dataset, cfg, rng)
            losses, _ = _run_claims(board, step, models, batch, rngs, cfg, timings)
            conn.send(("ok", step, losses, timings))
    except EOFError:  # the parent has gone
        pass
    except Exception:  # the worker's boundary: report to the parent, then exit
        with contextlib.suppress(OSError):
            conn.send(("error", traceback.format_exc()))


class _Worker:
    """The forked process that runs the components other than the policy,
    one step per :meth:`start_step`/:meth:`finish_step` pair of
    ``train_step``. The parent takes over any unit of a step that the worker
    has not claimed by the time the policy update is done, so a worker that
    the machine leaves waiting for a CPU delays the step by at most the unit
    it is in, and a worker that falls behind catches up by drawing the
    batches of the steps it missed."""

    def __init__(self, models: ModelSet, dataset: TrajectoryDataset,
                 cfg: TrainConfig, rng: np.random.Generator):
        self.rng = rng
        self.step = 0
        for prefix, store in models.stores().items():
            if prefix != "policy":
                store.share()
        ctx = multiprocessing.get_context("fork")
        self.board = _Board(tuple(models), ctx)
        self.conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(target=_serve, name="goalsel-train-worker",
                                   args=(child_conn, self.board, models, dataset, cfg,
                                         rng),
                                   daemon=True)
        self.process.start()
        child_conn.close()

    def start_step(self) -> int:
        """Send the worker the next step; returns its number."""
        self.step += 1
        self.conn.send(self.step)
        return self.step

    def _receive(self):
        try:
            kind, *payload = self.conn.recv()
        except EOFError:
            raise RuntimeError("training worker exited") from None
        if kind == "error":
            raise RuntimeError(f"training worker failed:\n{payload[0]}")
        return payload

    def finish_step(self, step: int, wait: bool) -> tuple[dict[str, float],
                                                          dict[str, float]]:
        """The worker's losses and component seconds for ``step``, waiting for
        its reply if ``wait``. Replies to earlier steps, for which the parent
        ran every component and so did not wait, are read and dropped."""
        while wait or self.conn.poll():
            replied, losses, timings = self._receive()
            if replied == step:
                return losses, timings
        return {}, {}

    def stop(self) -> None:
        """Stop the worker, whatever state it is in."""
        with contextlib.suppress(OSError, EOFError):  # the worker may be gone
            self.conn.send(None)
            while self.conn.poll(WORKER_STOP_TIMEOUT_S):
                self.conn.recv()
        self.process.join(WORKER_STOP_TIMEOUT_S)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join()
        self.conn.close()


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
    ``manifest.json`` gains its end time when the run finishes. The
    goal-selection components train in a forked worker when the module's
    conditions for it hold, with identical results. A run
    directory that already holds checkpoints is refused, since an earlier
    run's later checkpoints would survive beside the new ones; so is, before
    anything is written, a dataset with no ``cfg.sample_t``-step window.
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
    return TrainResult(out_dir=out_dir, checkpoints=checkpoints,
                       metrics_path=metrics_path, config=cfg, models=models,
                       elapsed=time.perf_counter() - started)


def read_metrics(path) -> dict[str, np.ndarray]:
    """Load a metrics CSV as column arrays (missing entries become NaN)."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    out = {}
    for col in METRIC_COLUMNS:
        out[col] = np.array([float(row[col]) if row[col] else np.nan
                             for row in rows])
    return out


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
                              states[:, -1], states[:, 0], eps=eps_g)[0]),
            "action_cvae": (models["action_cvae"].store,
                            lambda: models["action_cvae"].loss_and_grad(
                                actions[:, -1], states[:, -2], eps=eps_a)[0]),
            "q": (models["qnet"].store,
                  lambda: models["qnet"].loss_and_grad(
                      states[:, -2], actions[:, -1], targets)[0]),
        }
        for name, (store, loss_fn) in checks.items():
            worst[name] = max(worst[name], *grad_check(loss_fn, store, rng).values())
    return worst

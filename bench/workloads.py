"""The benchmark's workloads, output checks and metric derivation.

Every workload is a closed loop with one caller: the next call into
``goalsel`` is issued when the previous one returns. All calls go through
module attributes (``training.train``, ``evaluation.evaluate``, ...) so that
the traced run's wrappers see them. The work done per run is fixed by
``--seconds`` and never by the machine's speed, so quality-at-budget numbers
stay comparable across commits.
"""

from __future__ import annotations

import contextlib
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from goalsel import control, data, envs, evaluation, models, nn, training
from goalsel.evaluation import EvalConfig
from goalsel.training import TrainConfig

import spans

WORKLOADS = {
    "train-iris": "the paper's method; a train step is dominated by the GRU "
                  "unroll (forward and backward)",
    "train-bcq": "single-transition batches that bypass the GRU; time goes to "
                 "Q-target construction and window sampling",
    "eval-iris": "closed-loop rollouts with batch-1 policy steps and "
                 "1000-row goal-scoring bursts instead of batched training",
}

# (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("train_step_ms_mean", "ms", "lower"),
    ("train_step_ms_p90", "ms", "lower"),
    ("train_samples_per_s", "1/s", "higher"),
    ("eval_steps_per_s", "1/s", "higher"),
    ("quality_path_eff", "ratio", "higher"),
    ("quality_success_rate", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

# (name, unit, better, phase, span name, statistic, statistic argument)
PER_LAYER = (
    ("models.PolicyRNN.loss_and_grad.ms", "ms", "lower", "measure",
     "models.PolicyRNN.loss_and_grad", "busy", 1e6),
    ("models.ConditionalVAE.loss_and_grad.ms", "ms", "lower", "measure",
     "models.ConditionalVAE.loss_and_grad", "busy", 1e6),
    ("training.q_targets_batch.self_ms", "ms", "lower", "measure",
     "training.q_targets_batch", "self", 1e6),
    ("models.ConditionalVAE.sample_each.ms", "ms", "lower", "measure",
     "models.ConditionalVAE.sample_each", "busy", 1e6),
    ("models.QNet.value.ms", "ms", "lower", "measure", "models.QNet.value", "busy", 1e6),
    ("models.QNet.value.rows", "count", "higher", "measure", "models.QNet.value",
     "count", "rows"),
    ("training.q_targets_batch.terminal_frac", "ratio", "lower", "measure",
     "training.q_targets_batch", "ratio", ("terminal", "rows")),
    ("models.QNet.loss_and_grad.ms", "ms", "lower", "measure",
     "models.QNet.loss_and_grad", "busy", 1e6),
    ("nn.adam_step.ms", "ms", "lower", "measure", "nn.adam_step", "busy", 1e6),
    ("models.polyak_update.ms", "ms", "lower", "measure", "models.polyak_update",
     "busy", 1e6),
    ("data.sample_window_batch.ms", "ms", "lower", "measure",
     "data.sample_window_batch", "busy", 1e6),
    ("nn.save_checkpoint.ms", "ms", "lower", "measure", "nn.save_checkpoint", "busy", 1e6),
    ("nn.save_checkpoint.bytes", "bytes", "lower", "measure", "nn.save_checkpoint",
     "count", "bytes"),
    ("control.HierarchicalController.select_goal.ms", "ms", "lower", "measure",
     "control.HierarchicalController.select_goal", "busy", 1e6),
    ("control.HierarchicalController.select_goal.candidates", "count", "lower",
     "measure", "control.HierarchicalController.select_goal", "candidates", None),
    ("models.PolicyRNN.step.us", "us", "lower", "measure", "models.PolicyRNN.step",
     "busy", 1e3),
    ("envs.GraphReachEnv.step.us", "us", "lower", "measure", "envs.GraphReachEnv.step",
     "busy", 1e3),
    ("evaluation.rollout.self_share", "ratio", "lower", "measure", "evaluation.rollout",
     "self_share", None),
    ("envs.generate_dataset.s", "s", "lower", "setup", "envs.generate_dataset",
     "busy", 1e9),
    ("data.load.s", "s", "lower", "setup", "data.load", "busy", 1e9),
    ("nn.load_checkpoint.ms", "ms", "lower", "setup", "nn.load_checkpoint", "busy", 1e6),
    ("trace.overhead", "ms", "lower", None, None, "overhead", None),
)

SETUP_REPEATS = 3          # set-ups per run; setup_s is their median
TRAIN_ITERS_PER_SECOND = {"iris": 40, "bcq": 200}
LIVE_ROLLOUTS = 40         # closed-loop episodes spread through each training run
EVAL_CKPT_ITERS = 600      # iterations of eval-iris's set-up checkpoint
EVAL_CALLS_PER_SECOND = 0.15   # evaluate() calls (default n_episodes) per second
QUALITY_EPISODES = 200     # final eval of the train workloads
REPEAT_CHECK_EPISODES = 10
# Dataset and trainer seed. Quality-at-budget is defined at a fixed seed: with
# seed-fed training, path efficiency varied from 0.13 to 0.65 between seeds on
# train-bcq, beyond any usable regression bound. The workload seed feeds the
# eval episodes.
TRAINING_SEED = 0
STRAIGHT_LINE_STEPS = 48   # start (0.5, 1) to the goal disc edge at 0.02/step


def path_efficiency(episodes) -> float:
    """Mean over episodes of 48 / length, a failed episode scoring 0."""
    return float(np.mean([STRAIGHT_LINE_STEPS / e.length if e.success else 0.0
                          for e in episodes]))


@dataclass
class Tally:
    """Operations attempted and the failures among them."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class Outcome:
    tally: Tally = field(default_factory=Tally)
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    info: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.tally.failures


# --- tracing targets -----------------------------------------------------------

def _rows(args, kwargs, result):
    return {"rows": int(np.size(result))}


def _proposal_rows(args, kwargs, result):
    return {"rows": int(result.shape[0] * result.shape[1])}


def _batch_rows(args, kwargs, result):
    return {"rows": len(result)}


def _terminal_rows(args, kwargs, result):
    terminal = args[4] if len(args) > 4 else kwargs["is_terminal"]
    return {"rows": len(result), "terminal": int(np.count_nonzero(terminal))}


def _file_bytes(args, kwargs, result):
    return {"bytes": Path(args[0] if args else kwargs["path"]).stat().st_size}


def trace_targets():
    """(owner, attribute, layer name, count) for every public name that the
    benchmark, ``train_step``, ``evaluate`` and ``HierarchicalController``
    call through. Names imported into another module are patched there."""
    return [
        (envs, "generate_dataset", "envs.generate_dataset", None),
        (envs.GraphReachEnv, "step", "envs.GraphReachEnv.step", None),
        (data, "save", "data.save", None),
        (data, "load", "data.load", None),
        (data.TrajectoryDataset, "sample_window_batch", "data.sample_window_batch",
         _batch_rows),
        (models, "build_models", "models.build_models", None),
        (training, "build_models", "models.build_models", None),
        (evaluation, "build_models", "models.build_models", None),
        (models.PolicyRNN, "loss_and_grad", "models.PolicyRNN.loss_and_grad", None),
        (models.PolicyRNN, "step", "models.PolicyRNN.step", None),
        (models.ConditionalVAE, "loss_and_grad", "models.ConditionalVAE.loss_and_grad",
         None),
        (models.ConditionalVAE, "sample", "models.ConditionalVAE.sample", _batch_rows),
        (models.ConditionalVAE, "sample_each", "models.ConditionalVAE.sample_each",
         _proposal_rows),
        (models.QNet, "value", "models.QNet.value", _rows),
        (models.QNet, "loss_and_grad", "models.QNet.loss_and_grad", None),
        (training, "polyak_update", "models.polyak_update", None),
        (training, "adam_step", "nn.adam_step", None),
        (training, "save_checkpoint", "nn.save_checkpoint", _file_bytes),
        (nn, "load_checkpoint", "nn.load_checkpoint", None),
        (evaluation, "load_checkpoint", "nn.load_checkpoint", None),
        (training, "train", "training.train", None),
        (training, "train_step", "training.train_step", None),
        (training, "q_targets_batch", "training.q_targets_batch", _terminal_rows),
        (control.HierarchicalController, "select_goal",
         "control.HierarchicalController.select_goal", None),
        (evaluation, "evaluate", "evaluation.evaluate", None),
        (evaluation, "rollout", "evaluation.rollout", None),
        (evaluation, "load_models", "evaluation.load_models", None),
        (evaluation, "evaluate_checkpoint", "evaluation.evaluate_checkpoint", None),
    ]


# Per-step layers of the demo generator's inner loop: tracing them in set-up
# would inflate envs.generate_dataset.s by the span cost of ~20k calls.
SETUP_UNTRACED = {"envs.GraphReachEnv.step"}


@contextlib.contextmanager
def traced(recorder: spans.SpanRecorder | None, phase: str):
    """Install the wrappers for one phase, or do nothing when untraced."""
    if recorder is None:
        yield
        return
    targets = [t for t in trace_targets()
               if phase != "setup" or t[2] not in SETUP_UNTRACED]
    with recorder.installed(targets), recorder.in_phase(phase):
        yield


# --- set-up ---------------------------------------------------------------------

def one_setup(variant: str, work_dir: Path, tally: Tally, check: bool):
    """Generate the 100-demo dataset, save it, reload it and build the models."""
    generated, _ = envs.generate_dataset(envs.DemoGenConfig(seed=TRAINING_SEED))
    path = work_dir / "dataset.bin"
    data.save(generated, path)
    dataset = data.load(path)
    models.build_models(variant, dataset.obs_dim, dataset.act_dim, dataset.norm_stats,
                        rng=np.random.default_rng(TRAINING_SEED))
    if check:
        tally.check(_same_dataset(generated, dataset), "dataset save/load round trip")
    return dataset


def _same_dataset(a, b) -> bool:
    return (len(a) == len(b) and a.env_id == b.env_id and all(
        np.array_equal(x.states, y.states) and np.array_equal(x.actions, y.actions)
        and np.array_equal(x.rewards, y.rewards) for x, y in zip(a, b)))


def setup(variant: str, work_dir: Path, tally: Tally):
    """SETUP_REPEATS identical set-ups; returns (dataset, seconds of each)."""
    times = []
    for i in range(SETUP_REPEATS):
        started = time.perf_counter()
        dataset = one_setup(variant, work_dir, tally, check=i == 0)
        times.append(time.perf_counter() - started)
    return dataset, times


# --- training -------------------------------------------------------------------

@dataclass
class TrainRun:
    result: training.TrainResult
    step_ms: list[float]
    wall_s: float


@contextlib.contextmanager
def _every_other(recorder: spans.SpanRecorder | None, index: int):
    """Record spans inside odd-numbered calls only, so that the traced and
    untraced calls of one run see the same machine."""
    if recorder is None:
        yield
        return
    recorder.enabled = index % 2 == 1
    try:
        yield
    finally:
        recorder.enabled = True


def overhead(samples: list[float]) -> float:
    """Median of the traced (odd-numbered) samples minus that of the others."""
    return statistics.median(samples[1::2]) - statistics.median(samples[0::2])


class LiveRollouts:
    """One closed-loop episode of the models under training every ``every``
    train steps, so that eval_steps_per_s on the train workloads samples the
    whole run rather than one short window of a machine whose speed shifts.
    Rollouts only read the models: the training and its checkpoints are
    unchanged."""

    def __init__(self, env, seed: int, every: int, tally: Tally):
        self.env, self.seed, self.every, self.tally = env, seed, every, tally
        self.rates: list[float] = []  # env steps per second of each episode
        self.seconds = 0.0
        self._policy = None

    def after_step(self, models, step: int) -> None:
        if step % self.every:
            return
        if self._policy is None:
            self._policy = control.make_policy(models)
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, step, 1]))
        started = time.perf_counter()
        record = evaluation.rollout(self.env, self._policy, EvalConfig().h_max, rng)
        elapsed = time.perf_counter() - started
        self.rates.append(record.length / elapsed)
        self.seconds += elapsed
        self.tally.attempted += 1


def _timed_train_step(fn, step_ms: list[float], tally: Tally, recorder, live):
    def timed(*args, **kwargs):
        with _every_other(recorder, len(step_ms)):
            started = time.perf_counter()
            losses = fn(*args, **kwargs)
            step_ms.append((time.perf_counter() - started) * 1e3)
        tally.check(all(np.isfinite(v) for v in losses.values()),
                    f"non-finite loss at train step {len(step_ms)}: {losses}")
        if live is not None:
            live.after_step(args[0], len(step_ms))
        return losses
    return timed


def train_run(dataset, cfg: TrainConfig, out_dir: Path, tally: Tally,
              recorder: spans.SpanRecorder | None = None,
              live: LiveRollouts | None = None) -> TrainRun:
    """``training.train`` with every ``train_step`` call timed and its losses
    checked, followed by the checkpoint round-trip check. With a recorder,
    only every other step is traced; the wall time excludes live rollouts."""
    step_ms: list[float] = []
    with spans.patched(training, "train_step",
                       lambda fn: _timed_train_step(fn, step_ms, tally, recorder, live)):
        started = time.perf_counter()
        result = training.train(dataset, cfg, out_dir)
        wall = time.perf_counter() - started - (live.seconds if live else 0.0)
    tensors, _ = nn.load_checkpoint(result.checkpoints[-1])
    state = result.models.state_dict()
    tally.check(tensors.keys() == state.keys() and all(
        np.array_equal(tensors[k], state[k].astype("<f4")) for k in state),
        "final checkpoint reloads equal to ModelSet.state_dict()")
    return TrainRun(result, step_ms, wall)


def train_metrics(run: TrainRun) -> dict[str, float]:
    """Step-time statistics of one training run. The host these were tuned on
    runs each step in one of two speed modes (about 15 and 23 ms on
    train-iris) and switches between them every few seconds; when a run spends
    half its time in each, the median jumps across the gap between the modes
    from run to run, while the mean follows the share of time in each mode."""
    cfg = run.result.config
    return {"train_step_ms_mean": float(np.mean(run.step_ms)),
            "train_step_ms_p90": float(np.percentile(run.step_ms, 90)),
            "train_samples_per_s": cfg.batch_size * cfg.n_iter / run.wall_s}


# --- evaluation -----------------------------------------------------------------

@dataclass
class EvalPass:
    reports: list
    step_rates: list[float]  # env steps per second of each episode

    @property
    def episodes(self) -> list:
        return [e for r in self.reports for s in r.per_seed for e in s.episodes]


def _timed_rollout(fn, step_rates: list[float], tally: Tally, recorder):
    def timed(*args, **kwargs):
        with _every_other(recorder, len(step_rates)):
            started = time.perf_counter()
            record = fn(*args, **kwargs)
            step_rates.append(record.length / (time.perf_counter() - started))
        tally.attempted += 1
        return record
    return timed


def eval_pass(policy, env, seeds, n_episodes: int, tally: Tally,
              recorder: spans.SpanRecorder | None = None) -> EvalPass:
    """Closed-loop ``evaluation.evaluate`` once per seed, every rollout timed.
    With a recorder, only every other rollout is traced."""
    step_rates: list[float] = []
    with spans.patched(evaluation, "rollout",
                       lambda fn: _timed_rollout(fn, step_rates, tally, recorder)):
        reports = [evaluation.evaluate(policy, env,
                                       EvalConfig(n_episodes=n_episodes, seeds=(s,)))
                   for s in seeds]
    return EvalPass(reports, step_rates)


def eval_metrics(passed: EvalPass, step_rates: list[float]) -> dict[str, float]:
    """Quality of the episodes of ``passed``; speed as the lower quartile of the
    per-episode ``step_rates``, the rate three quarters of episodes reach. The
    host's speed shifts by up to 1.5x for tens of seconds; the median followed
    those shifts, while the slow side of a run's samples stays steady."""
    episodes = passed.episodes
    return {"eval_steps_per_s": float(np.percentile(step_rates, 25)),
            "quality_path_eff": path_efficiency(episodes),
            "quality_success_rate": float(np.mean([e.success for e in episodes]))}


def repeat_check(ckpt, dataset, cfg: TrainConfig, seed: int, tally: Tally) -> None:
    """Evaluate one checkpoint twice at one seed; the report dicts must match."""
    env = envs.make_env(dataset.env_id)
    eval_cfg = EvalConfig(n_episodes=REPEAT_CHECK_EPISODES, seeds=(seed,))
    first, second = (evaluation.evaluate_checkpoint(ckpt, dataset, cfg, eval_cfg, env)
                     for _ in range(2))
    tally.check(first.to_dict() == second.to_dict(),
                "two evaluations of one checkpoint at one seed differ")


def policy_from(ckpt, dataset, cfg: TrainConfig):
    loaded = evaluation.load_models(ckpt, dataset, cfg)
    policy = control.make_policy(loaded, t_segment=cfg.t_window)
    return policy, envs.make_env(dataset.env_id)


# --- workloads ------------------------------------------------------------------

def _train_workload(variant: str, seed: int, seconds: int, work_dir: Path,
                    out: Outcome, recorder) -> None:
    tally = out.tally
    with traced(recorder, "setup"):
        dataset, times = setup(variant, work_dir, tally)
    out.end_to_end["setup_s"] = statistics.median(times)
    cfg = TrainConfig(variant=variant, seed=TRAINING_SEED,
                      n_iter=max(20, round(TRAIN_ITERS_PER_SECOND[variant] * seconds)))
    # Live rollouts would add layers to the traced training that it never calls.
    live = None if recorder is not None else LiveRollouts(
        envs.make_env(dataset.env_id), seed, max(1, cfg.n_iter // LIVE_ROLLOUTS), tally)
    with traced(recorder, "measure"):
        run = train_run(dataset, cfg, work_dir / "run", tally, recorder, live)
    if recorder is not None:
        out.per_layer["trace.overhead"] = overhead(run.step_ms)
    out.end_to_end.update(train_metrics(run))
    ckpt = run.result.checkpoints[-1]
    out.info["train_step_samples"] = len(run.step_ms)
    out.info["train_step_ms_p50"] = float(np.median(run.step_ms))
    out.info["checkpoint_sha256"] = evaluation.file_sha256(ckpt)
    policy, env = policy_from(ckpt, dataset, run.result.config)
    quality = eval_pass(policy, env, [seed], QUALITY_EPISODES, tally)
    out.end_to_end.update(eval_metrics(quality, live.rates if live else quality.step_rates))
    repeat_check(ckpt, dataset, run.result.config, seed, tally)


def _eval_workload(seed: int, seconds: int, work_dir: Path, out: Outcome,
                   recorder) -> None:
    tally = out.tally
    with traced(recorder, "setup"):
        started = time.perf_counter()
        dataset, times = setup("iris", work_dir, tally)
        ckpt_cfg = TrainConfig(variant="iris", seed=TRAINING_SEED, n_iter=EVAL_CKPT_ITERS)
        run = train_run(dataset, ckpt_cfg, work_dir / "ckpt", tally)
        ckpt = run.result.checkpoints[-1]
        policy, env = policy_from(ckpt, dataset, ckpt_cfg)
        # the repeated part counts once, at its median
        out.end_to_end["setup_s"] = (time.perf_counter() - started - sum(times)
                                     + statistics.median(times))
    out.end_to_end.update(train_metrics(run))
    out.info["train_step_samples"] = len(run.step_ms)
    out.info["train_step_ms_p50"] = float(np.median(run.step_ms))
    out.info["checkpoint_sha256"] = evaluation.file_sha256(ckpt)

    n_calls = max(1, round(EVAL_CALLS_PER_SECOND * seconds))
    seeds = [seed * 1000 + k for k in range(n_calls)]
    with traced(recorder, "measure"):
        measured = eval_pass(policy, env, seeds, EvalConfig().n_episodes, tally, recorder)
    if recorder is not None:
        out.per_layer["trace.overhead"] = overhead([1e3 / r for r in measured.step_rates])
    out.info["eval_episodes"] = len(measured.episodes)
    out.end_to_end.update(eval_metrics(measured, measured.step_rates))
    repeat_check(ckpt, dataset, ckpt_cfg, seeds[0], tally)


def run(workload: str, seed: int, seconds: int, trace: bool, work_dir: Path,
        trace_path: Path | None = None) -> Outcome:
    """Run one workload; any exception counts as one failed operation."""
    out = Outcome()
    recorder = spans.SpanRecorder() if trace else None
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if workload == "eval-iris":
            _eval_workload(seed, seconds, work_dir, out, recorder)
        else:
            _train_workload(workload.split("-", 1)[1], seed, seconds, work_dir, out,
                            recorder)
    except Exception:  # the benchmark's boundary: report the failure, keep going
        traceback.print_exc(file=sys.stderr)
        out.tally.attempted += 1
        out.tally.failures.append("exception: " + traceback.format_exc().splitlines()[-1])
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out.end_to_end["peak_rss_mb"] = peak_kib / 1024
    if recorder is not None:
        out.per_layer.update(layer_metrics(recorder.spans))
        root = "evaluation.rollout" if workload == "eval-iris" else "training.train_step"
        measured = [s for s in recorder.spans if s.phase == "measure"]
        selfs, children = spans.time_shares(measured, root)
        out.info[f"self_share_of_{root}"] = selfs
        out.info[f"child_share_of_{root}"] = children
        if trace_path is not None:
            recorder.write(trace_path)
    return out


def layer_metrics(all_spans) -> dict[str, float]:
    """Every PER_LAYER metric but ``trace.overhead`` from recorded spans; a
    layer the phase never called reads 0."""
    by_phase = {p: [s for s in all_spans if s.phase == p] for p in ("setup", "measure")}
    stats = {p: spans.layer_stats(ss) for p, ss in by_phase.items()}
    out = {}
    for name, _, _, phase, layer, stat, arg in PER_LAYER:
        if stat == "overhead":
            continue
        st = stats[phase].get(layer, spans.LayerStats())
        if stat == "candidates":
            n, rows = spans.descendant_counts(by_phase[phase], layer, "models.QNet.value",
                                              "rows")
            out[name] = rows / n if n else 0.0
        elif not st.calls:
            out[name] = 0.0
        elif stat == "busy":
            out[name] = st.busy_ns / st.calls / arg
        elif stat == "self":
            out[name] = st.self_ns / st.calls / arg
        elif stat == "count":
            out[name] = st.counts.get(arg, 0) / st.calls
        elif stat == "ratio":
            num, den = arg
            den_count = st.counts.get(den, 0)
            out[name] = st.counts.get(num, 0) / den_count if den_count else 0.0
        elif stat == "self_share":
            out[name] = st.self_ns / st.busy_ns
    return out

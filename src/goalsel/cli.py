"""Command-line entry points: gen-data, train, eval, viz, grad-check.

Every subcommand reads an optional flat JSON config plus repeatable
``--set KEY=VALUE`` overrides; a few common keys also have dedicated flags.
Errors exit nonzero without writing partial outputs.

BLAS is pinned to one thread unless the environment says otherwise: the
models' products are too small to gain from a thread pool, and a
single-threaded process lets training run the goal-selection updates in a
forked worker beside the policy update (see :mod:`goalsel.training`).
"""

from __future__ import annotations

import os

# Before numpy is first imported, which starts the BLAS thread pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from .binfile import write_atomic  # noqa: E402
from .config import from_flat, load_flat, parse_overrides, to_flat  # noqa: E402
from .data import filter_best_fraction, load, save  # noqa: E402
from .envs import DemoGenConfig, generate_dataset, make_env  # noqa: E402
from .evaluation import (  # noqa: E402
    EvalConfig,
    evaluate_checkpoint,
    evaluate_run,
    export_trajectories,
    list_checkpoints,
    load_run_config,
)
from .models import VARIANTS  # noqa: E402
from .training import TrainConfig, standard_grad_check_suite, train  # noqa: E402


def _load_config(cls, path, sets, extra_overrides=None):
    base = load_flat(path) if path else {}
    overrides = parse_overrides(sets)
    if extra_overrides:
        overrides.update({k: v for k, v in extra_overrides.items() if v is not None})
    return from_flat(cls, base, overrides)


def cmd_gen_data(args) -> int:
    out = Path(args.out)
    if out.suffix == ".json":
        raise ValueError(f"--out {out} is the path of its own .json sidecar")
    cfg = _load_config(DemoGenConfig, args.config, args.set)
    dataset, decisions = generate_dataset(cfg)
    if args.filter_best is not None:
        dataset, kept = filter_best_fraction(dataset, args.filter_best)
        decisions = [decisions[i] for i in kept]
    out.parent.mkdir(parents=True, exist_ok=True)
    save(dataset, out)
    sidecar = {
        "config": to_flat(cfg),
        "filter_best": args.filter_best,
        "n_trajectories": len(dataset),
        "lengths": [int(t.length) for t in dataset],
        "decisions": [[list(d) for d in demo] for demo in decisions],
    }
    write_atomic(out.with_suffix(".json"),
                 (json.dumps(sidecar, indent=2) + "\n").encode())
    print(f"wrote {len(dataset)} trajectories to {out} "
          f"(mean length {np.mean([t.length for t in dataset]):.1f})")
    return 0


def cmd_train(args) -> int:
    extra = {"variant": args.variant, "seed": args.seed}
    cfg = _load_config(TrainConfig, args.config, args.set,
                       {k: v for k, v in extra.items() if v is not None})
    dataset = load(args.dataset)
    result = train(dataset, cfg, args.out)
    print(f"trained {cfg.variant} for {cfg.n_iter} iters in "
          f"{result.elapsed:.1f}s; {len(result.checkpoints)} checkpoints in "
          f"{result.out_dir}")
    return 0


def cmd_eval(args) -> int:
    eval_cfg = _load_config(EvalConfig, args.config, args.set)
    dataset = load(args.dataset)
    env = make_env(dataset.env_id)
    result = evaluate_run(args.run, dataset, eval_cfg, env)
    report = json.dumps(result.to_dict(), sort_keys=True, indent=2) + "\n"
    if args.report:
        Path(args.report).parent.mkdir(parents=True, exist_ok=True)
        write_atomic(args.report, report.encode())
    best = result.best
    rate, rate_std = best.success_rate
    print(f"best checkpoint {result.best_checkpoint.name}: "
          f"success {100 * rate:.1f}% (+/- {100 * rate_std:.1f})")
    return 0


def cmd_viz(args) -> int:
    """Roll out each run's last checkpoint. A run is labelled with its variant,
    and also with its directory when an earlier run has that variant."""
    dataset = load(args.dataset)
    env = make_env(dataset.env_id)
    eval_cfg = EvalConfig(n_episodes=args.episodes, seeds=(args.seed,))
    records = {}
    for run in args.run:
        train_cfg = load_run_config(run)
        ckpts = list_checkpoints(run)
        if not ckpts:
            raise FileNotFoundError(f"no checkpoints found in {run}")
        report = evaluate_checkpoint(ckpts[-1], dataset, train_cfg, eval_cfg, env)
        label = train_cfg.variant
        if label in records:
            label = f"{label} ({run})"
        records[label] = report.per_seed[0].episodes
    svg_path, csv_path = export_trajectories(records, dataset, env, args.out)
    print(f"wrote {svg_path} and {csv_path}")
    return 0


def cmd_grad_check(args) -> int:
    if not 0 < args.tolerance < np.inf:  # also false for nan
        raise ValueError(f"tolerance must be finite and > 0, got {args.tolerance}")
    worst = standard_grad_check_suite(n_instances=args.instances, seed=args.seed)
    ok = True
    for name, err in worst.items():
        status = "ok" if err < args.tolerance else "FAIL"
        ok = ok and err < args.tolerance
        print(f"{name:<12} max rel err {err:.3e}  [{status}]")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goalsel",
        description="Offline goal-conditioned imitation: data generation, "
                    "training, evaluation, and visualization.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a demonstration dataset")
    p.add_argument("--config", help="flat JSON DemoGenConfig")
    p.add_argument("--out", required=True, help="output dataset path (.bin)")
    p.add_argument("--filter-best", type=float, metavar="FRAC",
                   help="keep only the best FRAC of trajectories by length")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a policy variant offline")
    p.add_argument("--config", help="flat JSON TrainConfig")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--variant", choices=VARIANTS)
    p.add_argument("--seed", type=int)
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate every checkpoint of a run")
    p.add_argument("--config", help="flat JSON EvalConfig")
    p.add_argument("--run", required=True, help="training run directory")
    p.add_argument("--dataset", required=True)
    p.add_argument("--report", help="write the JSON report here")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("viz", help="overlay rollouts on dataset trajectories")
    p.add_argument("--dataset", required=True)
    p.add_argument("--run", action="append", required=True,
                   help="training run directory (repeatable)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--episodes", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_viz)

    p = sub.add_parser("grad-check", help="finite-difference gradient checks")
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_grad_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

"""Benchmark of the goalsel package: one workload per invocation.

    python3 bench/run.py --workload train-iris --seed 1 --seconds 25 --trace 0

Run from the repository root. The package is imported from ``src/``. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``. The exit code is
0 only when every output check passed. Traces and result records go to
``bench/out/``. See ``bench/README.md``.
"""

import os

# Pin BLAS to one thread before numpy is first imported.
BLAS_PIN = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS")}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-iris", "train-bcq", "eval-iris"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path):
    """HEAD of the checkout read from ``.git``, or None outside a git tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_pin": {var: os.environ.get(var) for var in BLAS_PIN},
        "git_commit": git_commit(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "goalsel").is_dir():
        print(f"no goalsel package sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    try:
        import workloads
    except ImportError as exc:
        print(f"cannot import the goalsel package from {src}: {exc}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    try:
        outcome = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                                work_dir, OUT_DIR / f"spans_{stem}.json")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    specs = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    values = outcome.per_layer if args.trace else outcome.end_to_end
    metrics = {}
    for name, unit, *_ in specs:
        if name in values:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"{name} {values[name]:.6g} {unit}")
    tally = outcome.tally
    print(f"error_rate {len(tally.failures) / max(tally.attempted, 1):.6g} "
          f"({len(tally.failures)} failed / {tally.attempted} attempted)")
    for key, value in outcome.info.items():
        print(f"{key} {json.dumps(value) if isinstance(value, dict) else value}")
    for failure in tally.failures:
        print(f"FAILED CHECK: {failure}", file=sys.stderr)

    record = {"env": env, "correct": outcome.correct, "attempted": tally.attempted,
              "failures": tally.failures, "end_to_end": outcome.end_to_end,
              "per_layer": outcome.per_layer, "info": outcome.info}
    (OUT_DIR / f"result_{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": outcome.correct, "attempted": max(tally.attempted, 1),
                      "failed": len(tally.failures), "metrics": metrics}))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())

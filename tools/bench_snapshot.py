"""Snapshot of the benchmark: every ``BENCHMARK.json`` workload at seeds 1, 2, 3.

    python3 tools/bench_snapshot.py 6              # writes BENCH_6.json

Runs ``bench/run.py --trace 0`` once per workload and seed, for the run length
that ``BENCHMARK.json`` fixes, and reads each run's result file from
``bench/out/``. Writes ``BENCH_<n>.json`` at the repository root with, per
workload, the median and quartiles of every end-to-end metric over the seeds
(and the per-seed values), the operations attempted and failed, and the
per-seed checkpoint digests; plus the commit, CPU, CPU count and
Python/numpy/scipy versions that the runs recorded. Run it from a clean
checkout of the commit it describes: ``bench/run.py`` records ``HEAD``, not
uncommitted edits. The seeds are fixed so that snapshots compare with each
other: the median and quartiles always summarize the same three runs. A
snapshot took 4.6 minutes on two cores.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
HOST_KEYS = ("git_commit", "cpu_model", "nproc", "cpu_affinity", "python", "numpy",
             "scipy", "blas_pin")
SEEDS = (1, 2, 3)


def run_one(workload: str, seed: int, seconds: int) -> dict:
    """Run one untraced benchmark and return its result record."""
    result = ROOT / "bench" / "out" / f"result_{workload}_seed{seed}_trace0.json"
    result.unlink(missing_ok=True)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
    if not result.exists():
        raise RuntimeError(f"bench/run.py wrote no result for {workload} seed {seed} "
                           f"(exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(result.read_text())


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def summarize(records: dict[str, list[dict]], units: dict[str, str]) -> dict:
    """Aggregate result records, workload -> one record per seed, into the
    snapshot; every run must come from one host and commit."""
    envs = [r["env"] for runs in records.values() for r in runs]
    host = {key: envs[0].get(key) for key in HOST_KEYS}
    for env in envs:
        mismatched = [key for key in HOST_KEYS if env.get(key) != host[key]]
        if mismatched:
            raise ValueError(f"runs differ in {mismatched}; a snapshot needs one "
                             f"host and one commit")
    workloads = {}
    for workload, runs in records.items():
        metrics = {}
        for name, unit in units.items():
            values = [r["end_to_end"][name] for r in runs if name in r["end_to_end"]]
            if values:
                metrics[name] = {"unit": unit, **quartiles(values), "values": values}
        workloads[workload] = {
            "seeds": [r["env"]["seed"] for r in runs],
            "correct": sum(bool(r["correct"]) for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(len(r["failures"]) for r in runs),
            "checkpoint_sha256": [r["info"].get("checkpoint_sha256") for r in runs],
            "metrics": metrics,
        }
    return {"host": host, "seconds": envs[0]["seconds"], "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n", type=int, help="snapshot number: writes BENCH_<n>.json")
    args = parser.parse_args(argv)
    if args.n < 1:
        parser.error("n must be >= 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    records = {}
    for workload in (w["name"] for w in spec["workloads"]):
        records[workload] = []
        for seed in SEEDS:
            print(f"{workload} seed {seed}", file=sys.stderr, flush=True)
            records[workload].append(run_one(workload, seed, spec["run_seconds"]))
    snapshot = {"command": f"python3 tools/bench_snapshot.py {args.n}",
                **summarize(records, units)}
    out = ROOT / f"BENCH_{args.n}.json"
    out.write_text(json.dumps(snapshot, indent=1) + "\n")
    print(f"wrote {out.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

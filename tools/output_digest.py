"""Digest of every output of a small fixed-seed goalsel pipeline.

Runs gen-data (once in full and once with ``--filter-best 0.5``), then
training of each variant (and of ``iris`` with ``q_all_transitions=true``),
then eval of each run and viz of every run (the second ``iris`` run is
labelled with its directory), all at tiny sizes in a temporary directory and
with relative paths.
Prints ``sha256  path`` for every file written except ``manifest.json`` and
``timings.csv``, which record wall-clock times. Two source trees produce the
same outputs when their digests match:

    PYTHONPATH=<tree>/src python3 tools/output_digest.py > <tree>.digest
    diff a.digest b.digest
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

from goalsel.cli import main
from goalsel.models import VARIANTS

DATASET = "data/demos.bin"
FILTERED_DATASET = "data/best_half.bin"
GEN_SETTINGS = ("n_demos=20", "seed=3")
TRAIN_SETTINGS = ("n_iter=40", "batch_size=16", "hidden_dim=16", "enc_dim=16",
                  "ckpt_every=20", "log_every=10")
EVAL_SETTINGS = ("n_episodes=2", "h_max=150", "n_goals=10", "m_actions=4")
# run directory -> (variant, extra training settings)
RUNS = {f"runs/{v}": (v, ()) for v in VARIANTS}
RUNS["runs/iris_q_all"] = ("iris", ("q_all_transitions=true",))
WALL_CLOCK_FILES = {"manifest.json", "timings.csv"}


def _sets(settings) -> list[str]:
    return [arg for s in settings for arg in ("--set", s)]


def _run(argv: list[str]) -> None:
    """Run one CLI command with its progress output discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    if rc != 0:
        raise SystemExit(f"goalsel {' '.join(argv)} exited with {rc}")


def pipeline() -> None:
    _run(["gen-data", "--out", DATASET, *_sets(GEN_SETTINGS)])
    _run(["gen-data", "--out", FILTERED_DATASET, "--filter-best", "0.5",
          *_sets(GEN_SETTINGS)])
    for run_dir, (variant, extra) in RUNS.items():
        _run(["train", "--dataset", DATASET, "--out", run_dir, "--variant", variant,
              "--seed", "1", *_sets(TRAIN_SETTINGS + extra)])
        name = Path(run_dir).name
        _run(["eval", "--run", run_dir, "--dataset", DATASET,
              "--report", f"reports/{name}.json", *_sets(EVAL_SETTINGS)])
    viz_runs = [arg for run_dir in RUNS for arg in ("--run", run_dir)]
    _run(["viz", "--dataset", DATASET, *viz_runs, "--out", "viz",
          "--episodes", "2", "--seed", "4"])


def digests(root: Path) -> list[str]:
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  "
            f"{path.relative_to(root).as_posix()}"
            for path in sorted(root.rglob("*"))
            if path.is_file() and path.name not in WALL_CLOCK_FILES]


if __name__ == "__main__":
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            pipeline()
            lines = digests(Path(tmp))
        finally:
            os.chdir(start)
    sys.stdout.write("".join(line + "\n" for line in lines))

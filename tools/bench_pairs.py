"""Alternating benchmark runs of two checkouts, compared pair by pair.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N
    python3 tools/bench_pairs.py --aa CHECKOUT_DIR --workload W --pairs N

Runs ``bench/run.py --trace 0`` of workload W in each checkout N times, for
the run length that ``BENCHMARK.json`` fixes. Pair k runs both sides at seed
k, the parent first when k is odd and the change first when it is even, so
that a drift of the host's speed does not favour one side. Prints each pair's
values, then per end-to-end metric each side's median and quartiles, how many
pairs the change won, and whether the medians differ by more than the metric's
bound (a share of the parent's median) and by more than the parent's quartile
spread. The verdict is "worse past bound" when the change's median is worse
by more than the bound; "unresolved" when the parent's spread is wider than
the bound, unless every run of the change reads better than every run of the
parent; "better" when the change won at least nine tenths of the pairs and
its median is better by more than the parent's spread; "worse" when it lost
at least nine tenths of the pairs and its median is worse by more than that
spread; otherwise "unchanged".
Pairs whose two runs differ in ``checkpoint_sha256`` or in failure count are
flagged. Run both checkouts from clean trees: ``bench/run.py`` imports the
package from its own checkout's ``src/``.

With ``--aa`` (an A/A batch) the change is a copy of the checkout, made in a
temporary directory, so every verdict other than "unchanged" or "unresolved"
is false; they are printed after the report, one line each.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

from bench_snapshot import ROOT, quartiles, run_one

SIDES = ("parent", "change")


def order(pair: int) -> tuple[str, str]:
    """The sides of 1-based pair ``pair`` in the order they run."""
    return SIDES if pair % 2 else SIDES[::-1]


def compare(pairs: list[dict[str, dict]], spec: list[dict]) -> dict:
    """Compare ``pairs`` (each a result record per side) on the end-to-end
    metrics of ``spec`` (``BENCHMARK.json``'s ``end_to_end`` list). Returns
    the per-metric summaries, in ``spec`` order, and the flagged pairs."""
    metrics = {}
    for m in spec:
        name = m["name"]
        both = [p for p in pairs if all(name in p[s]["end_to_end"] for s in SIDES)]
        if not both:
            continue
        values = {s: [p[s]["end_to_end"][name] for p in both] for s in SIDES}
        sign = 1.0 if m["better"] == "higher" else -1.0
        parent, change = quartiles(values["parent"]), quartiles(values["change"])
        gain = sign * (change["median"] - parent["median"])  # > 0: the change is better
        spread = parent["q3"] - parent["q1"]
        limit = m["bound"] * abs(parent["median"])
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        losses = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        all_better = (min(sign * v for v in values["change"])
                      > max(sign * v for v in values["parent"]))
        if gain < -limit:
            verdict = "worse past bound"
        elif spread > limit and not all_better:
            verdict = "unresolved"
        elif gain > spread and wins >= 0.9 * len(both):
            verdict = "better"
        elif gain < -spread and losses >= 0.9 * len(both):
            verdict = "worse"
        else:
            verdict = "unchanged"
        metrics[name] = {
            "unit": m["unit"], "parent": parent, "change": change, "values": values,
            "pairs": len(both), "wins": wins, "past_bound": abs(gain) > limit,
            "past_spread": abs(gain) > spread, "verdict": verdict,
        }
    flags = []
    for k, pair in enumerate(pairs, 1):
        runs = [pair[s] for s in SIDES]
        for what, (parent, change) in (
                ("checkpoint_sha256", [r["info"].get("checkpoint_sha256") for r in runs]),
                ("failure count", [len(r["failures"]) for r in runs])):
            if parent != change:
                flags.append(f"pair {k}: {what} differs: parent {parent}, change {change}")
    return {"metrics": metrics, "flags": flags}


def report(comparison: dict) -> str:
    """The comparison as text: per-pair values, the summary table, the flags."""
    lines = []
    for name, m in comparison["metrics"].items():
        cells = "  ".join(f"{p:.6g}/{c:.6g}" for p, c in zip(m["values"]["parent"],
                                                            m["values"]["change"]))
        lines.append(f"{name} per pair (parent/change): {cells}")
    lines.append("")
    lines.append(f"{'metric':<22} {'unit':<6} {'parent median [q1, q3]':<30} "
                 f"{'change median [q1, q3]':<30} {'wins':<7} {'>bound':<7} "
                 f"{'>spread':<8} verdict")
    for name, m in comparison["metrics"].items():
        sides = [f"{q['median']:.6g} [{q['q1']:.6g}, {q['q3']:.6g}]"
                 for q in (m["parent"], m["change"])]
        lines.append(f"{name:<22} {m['unit']:<6} {sides[0]:<30} {sides[1]:<30} "
                     f"{m['wins']}/{m['pairs']:<5} {'yes' if m['past_bound'] else 'no':<7} "
                     f"{'yes' if m['past_spread'] else 'no':<8} {m['verdict']}")
    lines.append("")
    lines.extend(comparison["flags"] or ["no pair differs in checkpoint_sha256 or "
                                         "failure count"])
    return "\n".join(lines)


def false_verdicts(comparison: dict) -> list[str]:
    """The verdicts of an A/A comparison that claim a difference."""
    return [f"false verdict: {name} {m['verdict']} ({m['wins']}/{m['pairs']} wins)"
            for name, m in comparison["metrics"].items()
            if m["verdict"] not in ("unchanged", "unresolved")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit (with --aa, the one checkout)")
    parser.add_argument("change", type=Path, nargs="?",
                        help="checkout of the change (left out with --aa)")
    parser.add_argument("--aa", action="store_true",
                        help="run PARENT against a copy of itself")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("pairs must be >= 1")
    if args.aa == (args.change is not None):
        parser.error("give CHANGE_DIR, or --aa without it")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    with tempfile.TemporaryDirectory() as tmp:
        checkouts = {"parent": args.parent.resolve()}
        if args.aa:
            checkouts["change"] = Path(tmp) / "copy"
            shutil.copytree(checkouts["parent"], checkouts["change"],
                            ignore=shutil.ignore_patterns(".git", "__pycache__"))
        else:
            checkouts["change"] = args.change.resolve()
        pairs = []
        for k in range(1, args.pairs + 1):
            pair = {}
            for side in order(k):
                print(f"pair {k}/{args.pairs}: {side}", file=sys.stderr, flush=True)
                pair[side] = run_one(args.workload, k, spec["run_seconds"],
                                     checkouts[side])
            pairs.append(pair)
    comparison = compare(pairs, spec["end_to_end"])
    print(report(comparison))
    if args.aa:
        print("\n".join(false_verdicts(comparison) or ["no false verdict"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

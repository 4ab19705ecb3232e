"""The benchmark's ``--trace 1`` mode patches named functions and methods of
the package; a refactor that drops or moves one of them breaks only that mode.
This checks every trace target without running a benchmark."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402


def test_every_trace_target_resolves():
    # classes are patched through their own __dict__, as spans.patched does
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, *_ in workloads.trace_targets()
               if not (attr in owner.__dict__ if isinstance(owner, type)
                       else callable(getattr(owner, attr, None)))]
    assert missing == []

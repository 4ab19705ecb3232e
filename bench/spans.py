"""In-memory span recorder for the traced benchmark run.

Wrappers are installed from outside the program, on the module and class
attributes that the program calls through (``goalsel.training.adam_step``,
``goalsel.models.QNet.value``, ...), and removed again when the traced pass
ends. Each call records one span: an id, the id of the enclosing span, the id
of its top-level ancestor, a layer name, the current phase, start and end
times, and optional work counts. Spans stay in memory until :meth:`write`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    id: int
    parent: int | None
    root: int
    name: str
    phase: str
    start: int  # perf_counter_ns
    end: int = 0
    counts: dict[str, float] | None = None

    @property
    def duration(self) -> int:
        return self.end - self.start


class SpanRecorder:
    """Collects nested spans from the wrappers it installs."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = ""
        self.enabled = True  # while False, wrapped calls record nothing
        self._stack: list[Span] = []

    @contextlib.contextmanager
    def in_phase(self, phase: str):
        previous, self.phase = self.phase, phase
        try:
            yield
        finally:
            self.phase = previous

    def wrap(self, fn, name: str, count=None):
        """``fn`` wrapped to record a span named ``name`` per call.

        ``count(args, kwargs, result)`` returns the work counts stored on the
        span; it runs after the span is closed, so its cost is not timed.
        """
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            span = Span(len(spans), None if parent is None else parent.id,
                        len(spans) if parent is None else parent.root,
                        name, self.phase, time.perf_counter_ns())
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Patch every ``(owner, attribute, name, count)`` target for the
        duration of the block, restoring the originals in reverse order."""
        with contextlib.ExitStack() as stack:
            for owner, attr, name, count in targets:
                wrap = functools.partial(self.wrap, name=name, count=count)
                stack.enter_context(patched(owner, attr, wrap))
            yield self

    def write(self, path) -> None:
        """Dump every span as compact JSON rows (times in ns)."""
        fields = ["id", "parent", "root", "name", "phase", "start_ns", "end_ns", "counts"]
        rows = [[s.id, s.parent, s.root, s.name, s.phase, s.start, s.end, s.counts]
                for s in self.spans]
        Path(path).write_text(json.dumps({"fields": fields, "spans": rows},
                                         separators=(",", ":")))


@contextlib.contextmanager
def patched(owner, attr: str, make_wrapper):
    """Replace ``owner.attr`` with ``make_wrapper(original)`` inside the block."""
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    setattr(owner, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> its duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0
        cursor = s.start
        for start, end in sorted(children.get(s.id, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out[s.id] = s.duration - covered
    return out


@dataclass
class LayerStats:
    calls: int = 0
    busy_ns: int = 0
    self_ns: int = 0
    counts: dict[str, float] = field(default_factory=dict)


def layer_stats(spans: list[Span]) -> dict[str, LayerStats]:
    """Per layer name: calls, busy (inclusive) time, self time and summed work
    counts."""
    own = self_times(spans)
    out: dict[str, LayerStats] = {}
    for s in spans:
        st = out.setdefault(s.name, LayerStats())
        st.calls += 1
        st.busy_ns += s.duration
        st.self_ns += own[s.id]
        for key, value in (s.counts or {}).items():
            st.counts[key] = st.counts.get(key, 0) + value
    return out


def _nearest(spans: list[Span], name: str) -> tuple[set[int], dict[int, int | None]]:
    """(ids of the spans named ``name``, span id -> id of the nearest span
    named ``name`` among itself and its ancestors, or None)."""
    by_id = {s.id: s for s in spans}
    anchors = {s.id for s in spans if s.name == name}
    out: dict[int, int | None] = {}
    for s in spans:
        i = s.id
        while i is not None and i not in anchors:
            i = by_id[i].parent
        out[s.id] = i
    return anchors, out


def descendant_counts(spans: list[Span], ancestor: str, name: str,
                      key: str) -> tuple[int, float]:
    """(number of ``ancestor`` spans, total ``key`` count of ``name`` spans
    nested anywhere below them)."""
    anchors, nearest = _nearest(spans, ancestor)
    total = sum(s.counts.get(key, 0) for s in spans
                if s.name == name and s.counts and nearest[s.id] not in (None, s.id))
    return len(anchors), total


def time_shares(spans: list[Span], root: str) -> tuple[dict[str, float], dict[str, float]]:
    """Shares of the total time of ``root`` spans, by layer name.

    Returns (self shares, child shares): the self time of every span nested
    below a root (the root's own self time included), and the busy time of the
    roots' direct children.
    """
    roots, nearest = _nearest(spans, root)
    total = sum(s.duration for s in spans if s.id in roots)
    if not total:
        return {}, {}
    own = self_times(spans)
    selfs: dict[str, float] = {}
    children: dict[str, float] = {}
    for s in spans:
        if s.parent in roots:
            children[s.name] = children.get(s.name, 0.0) + s.duration
        if nearest[s.id] is not None:
            selfs[s.name] = selfs.get(s.name, 0.0) + own[s.id]
    return tuple({k: v / total for k, v in sorted(d.items(), key=lambda kv: -kv[1])}
                 for d in (selfs, children))

"""In-memory span tracer driven from the benchmark's own files.

The tracer never edits the program: :meth:`Tracer.wrap` replaces a
function *where its caller looks it up* (``module.attr`` or
``Class.method``) with a wrapper that records one span per call, and
:meth:`Tracer.restore` puts every original back.

A span is ``(id, parent, name, start, end, run, pid)``; ids are
``"<pid>:<n>"`` so spans recorded in forked pool workers never collide
with the parent's.  A worker inherits the parent's span stack at fork
time, so its first span's parent is the span that was open when the
pool was created (``parallel.run_tasks``).  Workers append their spans
to ``<spool>/spans-<pid>.jsonl`` after each task; :meth:`Tracer.collect`
folds those files back in when the run ends.

Self time of a span is its duration minus the part of it covered by
the *union* of its children's intervals, so two children that overlap
(two pool workers) are not subtracted twice.  Across the whole tree the
self times then add up to the root's wall time plus the overlap between
concurrent children, which :func:`accounting` reports separately.
"""

from __future__ import annotations

import functools
import json
import os
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

Span = Dict[str, Any]


class Tracer:
    """Record spans around wrapped calls; single-threaded per process."""

    def __init__(self, run_id: str, spool: Optional[str] = None) -> None:
        self.run_id = run_id
        self.spool = spool
        self.root_pid = self.pid = os.getpid()
        self.spans: List[Span] = []
        self.stack: List[str] = []
        self.overhead_s = 0.0
        self._next = 0
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------

    def _fork_check(self) -> None:
        """Drop the parent's spans the first time a forked child records."""
        pid = os.getpid()
        if pid != self.pid:
            self.pid = pid
            self.spans = []
            self.overhead_s = 0.0
            self._next = 0

    def begin(self, name: str) -> Tuple[str, Optional[str], float]:
        self._fork_check()
        span_id = f"{self.pid}:{self._next}"
        self._next += 1
        parent = self.stack[-1] if self.stack else None
        self.stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def end(self, token: Tuple[str, Optional[str], float], name: str,
            end: Optional[float] = None) -> None:
        span_id, parent, start = token
        stop = time.perf_counter() if end is None else end
        if self.stack and self.stack[-1] == span_id:
            self.stack.pop()
        self.spans.append({"id": span_id, "parent": parent, "name": name,
                           "start": start, "end": stop,
                           "run": self.run_id, "pid": self.pid})

    def add(self, name: str, start: float, end: float,
            parent: Optional[str]) -> None:
        """Record a span measured elsewhere (e.g. server timestamps)."""
        self._fork_check()
        span_id = f"{self.pid}:{self._next}"
        self._next += 1
        self.spans.append({"id": span_id, "parent": parent, "name": name,
                           "start": start, "end": end,
                           "run": self.run_id, "pid": self.pid})

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    # -- wrapping --------------------------------------------------------

    def wrapper(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            token = tracer.begin(name)
            t1 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t2 = time.perf_counter()
                tracer.end(token, name, end=t2)
                tracer.overhead_s += (t1 - t0) + (time.perf_counter() - t2)

        return traced

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrapper(name, original))

    def wrap_worker_entry(self, owner: Any, attr: str, name: str) -> None:
        """Wrap a pool worker's entry point so its spans reach the spool.

        The wrapper keeps the original's module and qualified name, so
        the pool pickles it by reference and the forked worker finds the
        same wrapper when it unpickles the call.
        """
        original = getattr(owner, attr)
        traced = self.wrapper(name, original)
        tracer = self

        @functools.wraps(original)
        def entry(*args, **kwargs):
            try:
                return traced(*args, **kwargs)
            finally:
                if os.getpid() != tracer.root_pid:
                    tracer.flush_worker()

        self._patches.append((owner, attr, original))
        setattr(owner, attr, entry)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- worker spool ----------------------------------------------------

    def flush_worker(self) -> None:
        if self.spool is None or not self.spans:
            return
        path = os.path.join(self.spool, f"spans-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"overhead_s": self.overhead_s}) + "\n")
        self.spans = []
        self.overhead_s = 0.0

    def collect(self) -> float:
        """Fold worker spool files in; returns the workers' overhead."""
        overhead = 0.0
        if self.spool is None or not os.path.isdir(self.spool):
            return overhead
        for entry in sorted(os.listdir(self.spool)):
            if not entry.startswith("spans-"):
                continue
            with open(os.path.join(self.spool, entry),
                      encoding="utf-8") as fh:
                for line in fh:
                    record = json.loads(line)
                    if "overhead_s" in record:
                        overhead += record["overhead_s"]
                    else:
                        self.spans.append(record)
        return overhead


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.token: Optional[Tuple[str, Optional[str], float]] = None

    def __enter__(self) -> "_SpanContext":
        self.token = self.tracer.begin(self.name)
        return self

    def __exit__(self, *exc_info) -> None:
        self.tracer.end(self.token, self.name)


# -- self-time arithmetic -------------------------------------------------

def covered(intervals: Iterable[Tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Span id -> self time (duration minus the union of its children)."""
    children: Dict[str, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"]))
    return {span["id"]: (span["end"] - span["start"])
            - covered(children.get(span["id"], ()), span["start"],
                      span["end"])
            for span in spans}


def accounting(spans: List[Span], root_id: str) -> Dict[str, float]:
    """Wall time, summed self time and child overlap under ``root_id``.

    ``self_sum - overlap == wall`` holds whenever every child lies
    within its parent; ``overlap`` is the time concurrent children
    (pool workers) ran side by side.
    """
    by_id = {span["id"]: span for span in spans}
    kids: Dict[str, List[Span]] = {}
    for span in spans:
        if span["parent"] is not None:
            kids.setdefault(span["parent"], []).append(span)
    selfs = self_times(spans)
    self_sum = overlap = 0.0
    pending = [root_id]
    while pending:
        span_id = pending.pop()
        self_sum += selfs[span_id]
        span = by_id[span_id]
        mine = kids.get(span_id, [])
        lo, hi = span["start"], span["end"]
        summed = sum(min(k["end"], hi) - max(k["start"], lo) for k in mine
                     if min(k["end"], hi) > max(k["start"], lo))
        overlap += summed - covered(((k["start"], k["end"]) for k in mine),
                                    lo, hi)
        pending.extend(k["id"] for k in mine)
    root = by_id[root_id]
    return {"wall_s": root["end"] - root["start"], "self_sum_s": self_sum,
            "overlap_s": overlap, "root_self_s": selfs[root_id]}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_self(spans: List[Span]) -> Dict[str, float]:
    """Summed self time per layer (the span name's first component)."""
    selfs = self_times(spans)
    out: Dict[str, float] = {}
    for span in spans:
        layer = layer_of(span["name"])
        out[layer] = out.get(layer, 0.0) + selfs[span["id"]]
    return out


def tree_rows(spans: List[Span]) -> List[Tuple[int, str, int, float,
                                               float]]:
    """Call-path tree: ``(depth, name, calls, total_s, self_s)`` rows.

    Spans are grouped by the path of names from the root, so repeated
    calls on one path (every ``spice.transient`` under
    ``offset.extract``) fold into one row with their call count.
    """
    by_id = {span["id"]: span for span in spans}
    selfs = self_times(spans)
    paths: Dict[Tuple[str, ...], List[float]] = {}

    def path_of(span: Span) -> Tuple[str, ...]:
        names = []
        node: Optional[Span] = span
        while node is not None:
            names.append(node["name"])
            node = by_id.get(node["parent"]) if node["parent"] else None
        return tuple(reversed(names))

    for span in spans:
        row = paths.setdefault(path_of(span), [0, 0.0, 0.0])
        row[0] += 1
        row[1] += span["end"] - span["start"]
        row[2] += selfs[span["id"]]
    return [(len(path) - 1, path[-1], int(calls), total, self_s)
            for path, (calls, total, self_s) in sorted(paths.items())]


def render_tree(spans: List[Span]) -> str:
    lines = [f"{'span':48s} {'calls':>7s} {'total_s':>10s} {'self_s':>10s}"]
    for depth, name, calls, total, self_s in tree_rows(spans):
        label = "  " * depth + name
        lines.append(f"{label:48s} {calls:7d} {total:10.3f} {self_s:10.3f}")
    return "\n".join(lines)

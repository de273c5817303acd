"""In-memory span recording and self-time analysis.

A span is one call across a layer boundary: ``(id, name, start_ns, end_ns,
parent_id, request_id, count)``.  The recorder keeps a per-thread stack of
open spans, so a span's parent is whatever span the same thread was inside
when the call began; :meth:`Recorder.carry` moves that context onto a pool
thread.  Spans stay in memory and are written once, at exit.

A span's *self time* is its duration minus the part of its interval that
its children cover (children may overlap when a router scatters to
several shards at once, so the covered part is the union of their
intervals).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Iterable


class Recorder:
    """Collects spans from every thread of one process.

    ``root_request_id`` (optional) names the request a span belongs to
    when no span is open on its thread — in a cluster worker that is the
    request id the router forwarded with the frame.
    """

    def __init__(self, root_request_id: "Callable[[], str | None] | None" = None) -> None:
        self.root_request_id = root_request_id
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list[tuple[int, "str | None"]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        count: "Callable[[Any], int] | None" = None,
        request_id: "Callable[..., str | None] | None" = None,
    ) -> Callable:
        """*fn* with one span around every call.

        ``count`` derives the span's work count from the return value;
        ``request_id`` reads the request id from the call's arguments
        (root spans only — nested spans inherit their parent's id).
        """

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            if stack:
                parent_id, rid = stack[-1]
            else:
                parent_id = None
                rid = self.root_request_id() if self.root_request_id else None
            if request_id is not None:
                rid = request_id(*args, **kwargs)
            span_id = next(self._ids)
            stack.append((span_id, rid))
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
            work = count(result) if count is not None else None
            self.spans.append((span_id, name, start, end, parent_id, rid, work))
            return result

        return traced

    def carry(self, fn: Callable) -> Callable:
        """*fn* bound to the calling thread's open span, for a pool thread."""
        stack = self._stack()
        context = stack[-1] if stack else None

        def carried(*args: Any, **kwargs: Any) -> Any:
            own = self._stack()
            saved = list(own)
            own[:] = [context] if context is not None else []
            try:
                return fn(*args, **kwargs)
            finally:
                own[:] = saved

        return carried

    def dump(self, path: "str | Path") -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def load(paths: "list[Path]") -> list[tuple]:
    """The spans of several processes as one list.

    Ids become ``"<process>:<id>"`` and every span gains its process
    index.  A top-level span of a later file (a cluster worker) that runs
    inside a ``transport.call`` span of the same request in the first
    file (the router) becomes that call's child, so the call's self time
    is what the hop itself costs.
    """
    merged = []
    for proc, path in enumerate(paths):
        with open(path, encoding="utf-8") as src:
            for line in src:
                sid, name, start, end, parent, rid, count = json.loads(line)
                parent = None if parent is None else f"{proc}:{parent}"
                merged.append((f"{proc}:{sid}", name, start, end, parent, rid, count, proc))
    hops: dict[str, list[tuple[int, int, str]]] = defaultdict(list)
    for sid, name, start, end, _parent, rid, _count, proc in merged:
        if proc == 0 and name == "transport.call" and rid is not None:
            hops[rid].append((start, end, sid))
    linked = []
    for span in merged:
        sid, name, start, end, parent, rid, count, proc = span
        if proc > 0 and parent is None and rid in hops:
            parent = next(
                (hop for lo, hi, hop in hops[rid] if lo <= start and end <= hi), None
            )
        linked.append((sid, name, start, end, parent, rid, count, proc))
    return linked


def _covered(start: int, end: int, intervals: Iterable[tuple[int, int]]) -> int:
    """Length of ``[start, end]`` covered by the union of *intervals*."""
    total = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[tuple]) -> list[tuple]:
    """``(name, request_id, self_ms, count, process)`` for every span."""
    children: dict[str, list[tuple[int, int]]] = defaultdict(list)
    for _sid, _name, start, end, parent, _rid, _count, _proc in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for sid, name, start, end, _parent, rid, count, proc in spans:
        own = (end - start) - _covered(start, end, children.get(sid, ()))
        out.append((name, rid, own / 1e6, count, proc))
    return out

"""Outside-in span tracing of the program's public callables.

A :class:`SpanRecorder` replaces a callable on the class or module
attribute its caller looks up at call time with a wrapper that records
one span per call: name, start and end.  The workload marks where each
scheduling decision ends, and a span belongs to the decision that was
open when it started.  Spans stay in memory; :func:`write_jsonl` writes
them out once the run is over.  :meth:`SpanRecorder.unwrap_all` puts
every original back.

A span is appended when it ends, so a list holds every tree in
post-order and the wrapper keeps no parent stack (that is what keeps
tracing cheap on calls that take microseconds).  :func:`structure`
rebuilds each span's parent from the intervals afterwards: calls on one
thread nest, so a finished span's parent is the first later span whose
interval contains it.  A span's self time is its duration minus its
direct children's, so the self times of one tree add up to the root's
duration exactly: the root's self time is the work no wrapped callable
owns.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import inspect
import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: ``(name id, start, end)``.
Span = Tuple[int, float, float]

#: Called after a wrapped call returns: ``(counts, args, result)``.
OnReturn = Callable[[Dict[str, float], tuple, object], None]

_END = object()


def _resolve(target: str) -> Tuple[object, str]:
    """``"pkg.module:Class.attr"`` -> ``(owner object, attribute name)``."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if not hasattr(owner, attr):
        raise AttributeError(f"{target} does not exist")
    return owner, attr


def structure(spans: List[Span]) -> Tuple[List[int], List[float]]:
    """Parent index (-1 for a root) and self time of every span of a
    post-order list."""
    parents = [-1] * len(spans)
    selfs = [end - start for _, start, end in spans]
    pending: List[int] = []  # finished subtrees still without a parent
    for index, (_, start, _) in enumerate(spans):
        while pending and spans[pending[-1]][1] >= start:
            child = pending.pop()
            parents[child] = index
            selfs[index] -= spans[child][2] - spans[child][1]
        pending.append(index)
    return parents, selfs


class SpanRecorder:
    """Collects spans from wrapped callables and benchmark-side blocks."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.spans: List[Span] = []
        #: When each decision ended, in order (see :meth:`mark_decision`).
        self.decision_ends: List[float] = []
        #: Counts taken from wrapped calls' return values.
        self.counts: Dict[str, float] = {}
        #: Span names whose target callable no longer exists.
        self.absent: List[str] = []
        self._undo: List[Callable[[], None]] = []

    def name_id(self, name: str) -> int:
        index = self._ids.get(name)
        if index is None:
            index = self._ids[name] = len(self.names)
            self.names.append(name)
        return index

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def mark_decision(self) -> None:
        """The decision in progress ends now; spans after it belong to
        the next one."""
        self.decision_ends.append(time.perf_counter())

    def decision_of(self, start: float) -> int:
        """Index of the decision a span starting at ``start`` belongs to."""
        return bisect.bisect_right(self.decision_ends, start)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed block as one span (e.g. a pass's root)."""
        name_id = self.name_id(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name_id, start, time.perf_counter()))

    def iterate(self, name: str, iterable: Iterable) -> Iterator:
        """Yield from ``iterable``, recording each ``next`` as a span."""
        name_id = self.name_id(name)
        append = self.spans.append
        clock = time.perf_counter
        source = iter(iterable)
        while True:
            start = clock()
            try:
                item = next(source, _END)
            finally:
                append((name_id, start, clock()))
            if item is _END:
                return
            yield item

    def _traced(self, fn: Callable, name_id: int, on_return: Optional[OnReturn]):
        append = self.spans.append
        counts = self.counts
        clock = time.perf_counter

        if on_return is None:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    append((name_id, start, clock()))

        else:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    append((name_id, start, clock()))
                on_return(counts, args, result)
                return result

        return traced

    def wrap(self, name: str, target: str, on_return: Optional[OnReturn] = None) -> bool:
        """Trace ``target`` (``"module:Class.attr"`` or ``"module:func"``)
        under span ``name``.  Returns False, and notes ``name`` as absent,
        when the target no longer exists."""
        try:
            owner, attr = _resolve(target)
        except (ImportError, AttributeError):
            if name not in self.absent:
                self.absent.append(name)
            return False
        static = inspect.getattr_static(owner, attr)
        own = attr in vars(owner)
        traced = self._traced(getattr(owner, attr), self.name_id(name), on_return)
        setattr(owner, attr, staticmethod(traced) if isinstance(static, staticmethod) else traced)
        if own:
            self._undo.append(lambda: setattr(owner, attr, static))
        else:  # inherited: drop the shadowing attribute again
            self._undo.append(lambda: delattr(owner, attr))
        return True

    def unwrap_all(self) -> None:
        """Put every wrapped attribute back, most recent first."""
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def self_times(self) -> List[float]:
        return structure(self.spans)[1]

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per name: ``calls``, ``self_s`` and ``total_s`` (the duration
        of spans with no same-named ancestor, so recursion counts once)."""
        spans = self.spans
        parents, selfs = structure(spans)
        out: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in self.names
        }
        for index, (name_id, start, end) in enumerate(spans):
            entry = out[self.names[name_id]]
            entry["calls"] += 1
            entry["self_s"] += selfs[index]
            parent = parents[index]
            while parent >= 0 and spans[parent][0] != name_id:
                parent = parents[parent]
            if parent < 0:
                entry["total_s"] += end - start
        return out


def write_jsonl(path, recorders: Dict[str, SpanRecorder]) -> int:
    """Write each recorder's spans as JSON lines; returns lines written.

    One line per span, in the order spans ended: ``tree`` (the
    recorder's label), ``id`` (position in that order), ``name``,
    ``parent`` (-1 for a root), ``decision``, ``start_s``/``end_s``
    relative to the tree's earliest start, and ``self_s``.
    """
    lines = 0
    with open(path, "w", encoding="utf-8") as out:
        for label, recorder in recorders.items():
            spans = recorder.spans
            if not spans:
                continue
            origin = min(start for _, start, _ in spans)
            parents, selfs = structure(spans)
            for index, (name_id, start, end) in enumerate(spans):
                out.write(
                    json.dumps(
                        {
                            "tree": label,
                            "id": index,
                            "name": recorder.names[name_id],
                            "parent": parents[index],
                            "decision": recorder.decision_of(start),
                            "start_s": start - origin,
                            "end_s": end - origin,
                            "self_s": selfs[index],
                        }
                    )
                    + "\n"
                )
                lines += 1
    return lines

"""Benchmark-owned tracing: spans around the layers' public methods.

Nothing under ``src/`` is edited.  A :class:`SpanRecorder` replaces a
bound method *on one instance* with a wrapper that records a span --
(name, start, end, parent) -- and calls through; the engine looks every
one of these methods up on ``self`` at call time, so the wrappers see
every call the product makes.  Spans live in four parallel arrays (32
bytes per span; an ``evasion_mix`` pass records ~600k) and are only
post-processed after the pass ends.

A layer's *self time* is its spans' duration minus the part covered by
child spans.  The wrapper's own cost lands partly in the span and partly
in its parent; ``trace.overhead_ratio`` says how large it is.
"""

from __future__ import annotations

import json
from array import array
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any

#: Span name -> the layer whose share it counts towards.  ``run`` is the
#: driver's own loop and belongs to no layer: its self time is what the
#: trace fails to account for.
SPAN_LAYER = {
    "run": None,
    "pcap.read": "pcap",
    "runtime.feed": "runtime",
    "runtime.finish": "runtime",
    "runtime.merge": "runtime",
    "core.engine.build": "core.engine",
    "core.engine.batch": "core.engine",
    "core.engine.row": "core.engine",
    "core.fastpath.cols": "core.fastpath",
    "core.fastpath.obj": "core.fastpath",
    "match.scan": "match",
    "core.slowpath": "core.slowpath",
    "service.run": "service",
}
LAYERS = tuple(dict.fromkeys(layer for layer in SPAN_LAYER.values() if layer))
_NAMES = tuple(SPAN_LAYER)
_CODES = {name: code for code, name in enumerate(_NAMES)}


class SpanRecorder:
    """In-memory span log; index order is open order (parents first)."""

    def __init__(self) -> None:
        self.codes = array("b")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("l")
        self._open = [-1]

    def __len__(self) -> int:
        return len(self.codes)

    def _enter(self, code: int) -> int:
        index = len(self.codes)
        self.codes.append(code)
        self.parents.append(self._open[-1])
        self.ends.append(0)
        self._open.append(index)
        self.starts.append(perf_counter_ns())
        return index

    def _exit(self, index: int) -> None:
        self.ends[index] = perf_counter_ns()
        self._open.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self._enter(_CODES[name])
        try:
            yield
        finally:
            self._exit(index)

    def wrap(self, obj: Any, attr: str, name: str) -> None:
        """Record a ``name`` span around every ``obj.attr(...)`` call."""
        inner = getattr(obj, attr)
        code = _CODES[name]
        codes, starts, ends, parents, open_ = (
            self.codes, self.starts, self.ends, self.parents, self._open
        )

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(codes)
            codes.append(code)
            parents.append(open_[-1])
            ends.append(0)
            open_.append(index)
            starts.append(perf_counter_ns())
            try:
                return inner(*args, **kwargs)
            finally:
                ends[index] = perf_counter_ns()
                open_.pop()

        setattr(obj, attr, traced)

    def iterate(self, name: str, make: Callable[[], Iterable[Any]]) -> Iterator[Any]:
        """Yield from ``make()``, with its construction and every
        ``next()`` inside a ``name`` span (the consumer's time is not)."""
        code = _CODES[name]
        index = self._enter(code)
        iterator = iter(make())
        self._exit(index)
        while True:
            index = self._enter(code)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._exit(index)
            yield item

    # -- post-processing ------------------------------------------------

    def totals(self) -> dict[str, dict[str, int]]:
        """Per span name: calls, total ns and self ns."""
        starts, ends, parents, codes = self.starts, self.ends, self.parents, self.codes
        covered = [0] * len(codes)
        for index, parent in enumerate(parents):
            if parent >= 0:
                covered[parent] += ends[index] - starts[index]
        out = {name: {"calls": 0, "total_ns": 0, "self_ns": 0} for name in _NAMES}
        for index, code in enumerate(codes):
            duration = ends[index] - starts[index]
            row = out[_NAMES[code]]
            row["calls"] += 1
            row["total_ns"] += duration
            row["self_ns"] += duration - covered[index]
        return out

    def check(self) -> list[str]:
        """Span arithmetic violations (empty when the log is sound)."""
        starts, ends, parents = self.starts, self.ends, self.parents
        problems = []
        for index, parent in enumerate(parents):
            if ends[index] < starts[index]:
                problems.append(f"span {index} ends before it starts")
            if parent >= 0 and not (
                starts[parent] <= starts[index] and ends[index] <= ends[parent]
            ):
                problems.append(f"span {index} is not inside its parent {parent}")
        return problems

    def dump(self, path: str) -> None:
        """Write the raw log: one (name, start, end, parent) per span."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "names": list(_NAMES),
                    "name": self.codes.tolist(),
                    "start_ns": self.starts.tolist(),
                    "end_ns": self.ends.tolist(),
                    "parent": self.parents.tolist(),
                },
                handle,
                separators=(",", ":"),
            )


def instrument(recorder: SpanRecorder, processor: Any) -> None:
    """Wrap one shard's layer boundaries (feed -> engine -> paths -> matcher)."""
    engine = processor.engine
    recorder.wrap(processor, "feed", "runtime.feed")
    recorder.wrap(processor, "finish", "runtime.finish")
    recorder.wrap(engine, "process_column_batch", "core.engine.batch")
    recorder.wrap(engine, "process_batch", "core.engine.batch")
    recorder.wrap(engine, "process", "core.engine.row")
    recorder.wrap(engine.fast_path, "process_columns", "core.fastpath.cols")
    recorder.wrap(engine.fast_path, "process", "core.fastpath.obj")
    recorder.wrap(engine.slow_path, "process", "core.slowpath")
    automaton = engine.fast_path.automaton
    if automaton is not None:
        for method in ("range_clear", "prescan_batch", "scan_many", "find_all"):
            recorder.wrap(automaton, method, "match.scan")

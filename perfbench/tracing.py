"""Span recording around the public entry points of each layer.

Tracing is installed from outside the source tree: :func:`install_server`
(in the serving processes) and :func:`install_codec` (in the load
generator) replace selected functions and methods of the imported ``repro`` modules
with thin wrappers that record one span per call.  A span is the tuple

    (span id, parent span id, name, start, end, n, extra)

with ``start``/``end`` from ``time.perf_counter`` (CLOCK_MONOTONIC on
Linux, so spans of different processes share one time base), ``n`` a
size attached to the call (bytes of a frame, boxes of a batch) and
``extra`` a small tuple of counters for the few spans that carry them.
The parent is the innermost enclosing span of the same thread or asyncio
task, tracked with a context variable.  Spans stay in memory and are
written out once, when the process ends (:meth:`Recorder.dump`).

:func:`reduce_spans` turns the spans of one timed window into per-name
totals and self times (a span's duration minus the part its direct
children cover).
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import time
from typing import Any, Callable, Iterable

_CURRENT: contextvars.ContextVar[int] = contextvars.ContextVar(
    "perfbench_span", default=0)


class Recorder:
    """In-memory span store of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._restore: list[tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str, name: str, *,
             size: Callable[..., int] | None = None,
             extra: Callable[..., Any] | None = None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``size(args, kwargs, result)`` gives the span's ``n``;
        ``extra(args)`` is called before the call and returns a callable
        that, called after it, gives the span's ``extra`` tuple.
        """
        function = getattr(owner, attr)
        spans = self.spans
        ids = self._ids

        if inspect.iscoroutinefunction(function):
            @functools.wraps(function)
            async def wrapper(*args, **kwargs):
                span_id = next(ids)
                token = _CURRENT.set(span_id)
                parent = token.old_value if token.old_value is not \
                    contextvars.Token.MISSING else 0
                after = extra(args) if extra is not None else None
                start = time.perf_counter()
                try:
                    result = await function(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    _CURRENT.reset(token)
                spans.append((span_id, parent, name, start, end,
                               size(args, kwargs, result) if size else 0,
                               after() if after else ()))
                return result
        else:
            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                span_id = next(ids)
                token = _CURRENT.set(span_id)
                parent = token.old_value if token.old_value is not \
                    contextvars.Token.MISSING else 0
                after = extra(args) if extra is not None else None
                start = time.perf_counter()
                try:
                    result = function(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    _CURRENT.reset(token)
                spans.append((span_id, parent, name, start, end,
                              size(args, kwargs, result) if size else 0,
                              after() if after else ()))
                return result

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, function))

    def event(self, name: str, start: float, end: float, n: int = 0) -> None:
        """Record an interval measured by the caller (no parent)."""
        self.spans.append((next(self._ids), 0, name, start, end, n, ()))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def dump(self, path: str, **fields: Any) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, **fields}, handle)


def _len_arg(index: int, key: str | None = None):
    """``size`` hook: ``len`` of one positional (or keyword) argument."""
    def size(args, kwargs, _result) -> int:
        value = kwargs.get(key) if key is not None and key in kwargs else (
            args[index] if len(args) > index else None)
        try:
            return len(value)
        except TypeError:
            return 0
    return size


def _len_result(_args, _kwargs, result) -> int:
    return len(result)


def install_codec(recorder: Recorder) -> None:
    """Spans around the frame codecs (client and server sides alike)."""
    from repro.server import protocol, wire

    recorder.wrap(wire, "encode_frame", "wire.encode", size=_len_result)
    recorder.wrap(wire, "decode_binary", "wire.decode",
                  size=lambda args, kwargs, result: (
                      wire.PREFIX_SIZE + len(args[0]) + len(args[1])))
    recorder.wrap(protocol, "decode", "wire.decode", size=_len_arg(0))


def install_server(recorder: Recorder) -> None:
    """Spans around the server, service, core, WAL and cluster layers."""
    from repro.cluster import partial, router
    from repro.core import atomic, program
    from repro.server import coalescer
    from repro.service import service, snapshot, specs, store
    from repro.wal import recovery, writer

    install_codec(recorder)

    # Coalescer: queue wait is the time from submit to the dispatch that
    # takes the request; both ends are seen here, keyed by the future.  A
    # submit that fills the batch dispatches before it returns, so the
    # request it queued is taken while its submit is still running.
    submitted: dict[int, float] = {}
    running: list = [None, set()]   # [start of the running submit, taken]
    original_submit = coalescer.EstimateCoalescer.submit
    original_take = coalescer.EstimateCoalescer._take_batch

    def submit(self, *args, **kwargs):
        start = time.perf_counter()
        running[0] = start
        try:
            future = original_submit(self, *args, **kwargs)
        finally:
            running[0] = None
        taken = running[1]
        if id(future) in taken:
            taken.clear()
        else:
            submitted[id(future)] = start
        return future

    def take_batch(self):
        entries = original_take(self)
        now = time.perf_counter()
        for entry in entries:
            start = submitted.pop(id(entry.future), None)
            if start is None and running[0] is not None:
                start = running[0]
                running[1].add(id(entry.future))
            if start is not None:
                recorder.event("coalescer.queue_wait", start, now)
        return entries

    coalescer.EstimateCoalescer.submit = submit
    coalescer.EstimateCoalescer._take_batch = take_batch
    recorder._restore.append((coalescer.EstimateCoalescer, "submit",
                              original_submit))
    recorder._restore.append((coalescer.EstimateCoalescer, "_take_batch",
                              original_take))
    recorder.wrap(coalescer.EstimateCoalescer, "_dispatch",
                  "coalescer.dispatch",
                  size=lambda args, kwargs, result: int(args[1] == "timer"))

    svc = service.EstimationService
    recorder.wrap(svc, "estimate_multi", "service.estimate_multi",
                  size=_len_arg(1, "requests"))
    recorder.wrap(svc, "_merged_view_entry", "service.view_fetch")
    recorder.wrap(svc, "flush", "service.flush")
    recorder.wrap(svc, "ingest", "service.ingest", size=_len_arg(2, "boxes"))
    recorder.wrap(store.ShardedSketchStore, "apply_to_shard", "store.apply",
                  size=_len_arg(5, "boxes"))
    recorder.wrap(store.ShardedSketchStore, "merge_view", "store.merge_view")

    # compile_programs is bound by name into service.py as well.
    recorder.wrap(specs, "compile_programs", "program.compile")
    service.compile_programs = specs.compile_programs

    def executor_counters(args):
        executor = args[0]
        before = executor.stats

        def after():
            now = executor.stats
            return (now.letter_sums_requested - before.letter_sums_requested,
                    now.letter_sums_computed - before.letter_sums_computed,
                    now.kernel_calls - before.kernel_calls)
        return after

    recorder.wrap(program.ProgramExecutor, "run", "program.run",
                  size=_len_result, extra=executor_counters)
    recorder.wrap(atomic.SketchBank, "insert", "atomic.insert",
                  size=_len_arg(1, "boxes"))

    recorder.wrap(writer.WalWriter, "append_update", "wal.append",
                  size=_len_arg(4, "rows"))
    recorder.wrap(writer, "encode_record", "wal.encode_record",
                  size=_len_result)
    recorder.wrap(recovery, "recover_service", "wal.recovery")
    recorder.wrap(snapshot, "read_snapshot_state", "snapshot.read")
    recorder.wrap(snapshot, "restore_service", "snapshot.restore")

    recorder.wrap(router.ClusterRouter, "_op_estimate", "router.estimate")
    # Requests dispatch through a verb table built at class creation.
    router.ClusterRouter._HANDLERS["estimate"] = \
        router.ClusterRouter._op_estimate
    recorder.wrap(partial, "merge_partial_states", "partial.merge")
    # reduce_partials is bound by name into router.py.
    recorder.wrap(partial, "reduce_partials", "partial.reduce")
    router.reduce_partials = partial.reduce_partials


def reduce_spans(spans: Iterable, start: float, end: float) -> dict:
    """Per-name totals of the spans that lie inside ``[start, end]``.

    Returns ``name -> {"count", "total_s", "self_s", "n", "extra"}``;
    ``self_s`` subtracts the durations of each span's direct children.
    """
    inside = [span for span in spans if span[3] >= start and span[4] <= end]
    child_time: dict[int, float] = {}
    for span in inside:
        if span[1]:
            child_time[span[1]] = child_time.get(span[1], 0.0) + (
                span[4] - span[3])
    summary: dict[str, dict] = {}
    for span_id, _parent, name, t0, t1, n, extra in inside:
        entry = summary.setdefault(name, {"count": 0, "total_s": 0.0,
                                          "self_s": 0.0, "n": 0,
                                          "extra": [0, 0, 0]})
        duration = t1 - t0
        entry["count"] += 1
        entry["total_s"] += duration
        entry["self_s"] += max(0.0, duration - child_time.get(span_id, 0.0))
        entry["n"] += int(n)
        for index, value in enumerate(extra):
            entry["extra"][index] += int(value)
    return summary

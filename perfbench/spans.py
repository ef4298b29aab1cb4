"""In-memory span log and the hooks that time each layer from outside.

The traced pass installs :class:`LayerHooks`, which replaces a fixed set
of public entry points (plus the dispatcher's lane flush) with wrappers
that record one span per call: name, start, end, parent span and, where
the call carries one, the query id.  Nothing inside ``src/`` is edited;
the hooks are removed again when the pass ends.

Spans are appended to flat ``array`` columns, so a traced ingest run
(~1.5 M spans) costs tens of megabytes rather than millions of Python
objects.  Self time is computed at the end as a span's duration minus
the time covered by its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

_clock = time.perf_counter_ns

#: Span names the hooks and the harness record.  ``bench.*`` spans are
#: the harness's own (phase roots and hook bookkeeping); every other
#: name is a layer the per-layer metrics read.
SETUP_ROOT = "bench.setup"
SERVE_ROOT = "bench.serve"
HOOK_OVERHEAD = "bench.hook"


def _query_arg(args: tuple) -> int:
    """Query id of ``Dispatcher.admit(now_ns, query_id, ...)``, else -1."""
    return args[2] if len(args) > 2 and type(args[2]) is int else -1


def _completion_arg(args: tuple) -> int:
    """Query id of ``Dispatcher.subquery_done(shard, replica, completion)``."""
    tag = getattr(args[3], "tag", None) if len(args) > 3 else None
    return tag if type(tag) is int else -1


class SpanLog:
    """Flat, append-only span storage with a stack of open spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("h")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.query = array("q")
        self._open = [-1]
        #: Counters the hooks keep next to the spans (rows planned, ...).
        self.counters: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, nid: int, query: int = -1) -> int:
        index = len(self.name)
        self.name.append(nid)
        self.parent.append(self._open[-1])
        self.query.append(query)
        self.end.append(0)
        self._open.append(index)
        self.start.append(_clock())
        return index

    def exit(self, index: int) -> None:
        self.end[index] = _clock()
        self._open.pop()

    @contextmanager
    def span(self, name: str, query: int = -1) -> Iterator[None]:
        index = self.enter(self.name_id(name), query)
        try:
            yield
        finally:
            self.exit(index)

    def bump(self, counter: str, amount: float = 1.0) -> None:
        self.counters[counter] = self.counters.get(counter, 0.0) + amount

    def raise_to(self, counter: str, value: float) -> None:
        if value > self.counters.get(counter, 0.0):
            self.counters[counter] = value

    # -- analysis ---------------------------------------------------------

    def _columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int16).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).astype(np.int64),
            "query": np.frombuffer(self.query, dtype=np.int64).copy(),
        }

    def layer_times(self, root: str) -> dict[str, tuple[float, float, int]]:
        """``name -> (self_s, total_s, calls)`` over spans under ``root``.

        ``root`` is a phase span the harness opened (setup or serve);
        only its descendants are counted, so block-store writes made by
        the index build never land in the serving figures.
        """
        cols = self._columns()
        n = cols["name"].size
        if n == 0 or root not in self._ids:
            return {}
        parent = cols["parent"]
        duration = cols["end"] - cols["start"]
        covered = np.zeros(n, dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], duration[has_parent])
        self_ns = duration - covered
        # Pointer jumping: every span's outermost ancestor.
        top = np.where(has_parent, parent, np.arange(n))
        while True:
            nxt = np.where(parent[top] >= 0, parent[top], top)
            if np.array_equal(nxt, top):
                break
            top = nxt
        under = cols["name"][top] == self._ids[root]
        names = cols["name"][under]
        buckets = len(self.names)
        self_sum = np.bincount(names, weights=self_ns[under], minlength=buckets)
        total_sum = np.bincount(names, weights=duration[under], minlength=buckets)
        calls = np.bincount(names, minlength=buckets)
        return {
            name: (self_sum[i] / 1e9, total_sum[i] / 1e9, int(calls[i]))
            for i, name in enumerate(self.names)
            if calls[i]
        }

    def write(self, path: Path) -> None:
        """Write every span (times relative to the first) as ``.npz``."""
        cols = self._columns()
        origin = int(cols["start"].min()) if cols["start"].size else 0
        cols["start"] -= origin
        cols["end"] -= origin
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **cols)


class LayerHooks:
    """Installs and removes the timing wrappers on the program's layers."""

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self.missing: list[str] = []
        self._undo: list[tuple[Any, str, Any]] = []
        #: Query bytes each index has planned before (plan reuse share).
        self._seen: weakref.WeakKeyDictionary[Any, set[bytes]] = weakref.WeakKeyDictionary()

    def install(self) -> None:
        from repro.core.e2lshos import E2LSHoSIndex
        from repro.core.updates import IndexUpdater
        from repro.layout.builder import IndexBuilder
        from repro.serving import service, sharding
        from repro.serving.dispatcher import Dispatcher
        from repro.serving.ingest import IngestCoordinator
        from repro.storage.blockstore import BlockStore
        from repro.storage.engine import EngineSession
        from repro.storage.raid import StripedVolume

        plain = [
            (IndexBuilder, "build", "layout.build", None),
            (IndexUpdater, "insert_batch", "core.updates", None),
            (IndexUpdater, "delete", "core.updates", None),
            (StripedVolume, "submit", "storage.device", None),
            (BlockStore, "read", "storage.blockstore", None),
            (BlockStore, "write", "storage.blockstore", None),
            (Dispatcher, "admit", "serving.dispatcher.admit", _query_arg),
            # Size-triggered flushes run inside admit(); hooking the lane
            # flush itself keeps them out of the admission self time.
            (Dispatcher, "_flush", "serving.dispatcher.flush", None),
            (Dispatcher, "flush_due", "serving.dispatcher.flush", None),
            (Dispatcher, "subquery_done", "serving.dispatcher.done", _completion_arg),
            (IngestCoordinator, "finish_answer", "serving.ingest.finish", None),
            (sharding, "merge_answers", "serving.merge", None),
            (service, "merge_answers", "serving.merge", None),
        ]
        for owner, attr, name, query_of in plain:
            self._patch(owner, attr, lambda fn, n=name, q=query_of: self._timed(fn, n, q))
        self._patch(EngineSession, "step", self._timed_step)
        self._patch(E2LSHoSIndex, "query_tasks", self._timed_plan)
        for attr in ("admit", "merge_task_done"):
            self._patch(IngestCoordinator, attr, self._timed_ingest)
        if self.missing:
            print(
                "perfbench: layer hooks not installed (metric reads 0): "
                + ", ".join(self.missing),
                file=sys.stderr,
            )

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        current = getattr(owner, attr, None)
        if current is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._undo.append((owner, attr, vars(owner).get(attr)))
        wrapper = make(current)
        functools.update_wrapper(wrapper, current)
        setattr(owner, attr, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _timed(
        self, fn: Callable[..., Any], name: str, query_of: Callable[[tuple], int] | None
    ) -> Callable[..., Any]:
        log = self.log
        nid = log.name_id(name)
        enter, exit_ = log.enter, log.exit

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = enter(nid, query_of(args) if query_of is not None else -1)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(index)

        return wrapper

    def _timed_step(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        log = self.log
        nid = log.name_id("storage.step")
        enter, exit_ = log.enter, log.exit

        def step(session: Any) -> Any:
            index = enter(nid)
            try:
                completion = fn(session)
            finally:
                exit_(index)
            if completion is not None and type(completion.tag) is int:
                log.query[index] = completion.tag
            return completion

        return step

    def _timed_plan(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        log = self.log
        plan_id = log.name_id("core.plan")
        task_id = log.name_id("core.task")
        hook_id = log.name_id(HOOK_OVERHEAD)
        enter, exit_ = log.enter, log.exit
        seen_by_index = self._seen

        def timed_task(task: Any) -> Any:
            send = None
            while True:
                index = enter(task_id)
                try:
                    action = task.send(send)
                except StopIteration as stop:
                    return stop.value
                finally:
                    exit_(index)
                send = yield action

        def query_tasks(index_obj: Any, queries: Any, *args: Any, **kwargs: Any) -> Any:
            index = enter(plan_id)
            try:
                tasks = fn(index_obj, queries, *args, **kwargs)
            finally:
                exit_(index)
            hook = enter(hook_id)
            try:
                rows = np.ascontiguousarray(queries, dtype=np.float32)
                rows = rows.reshape(-1, rows.shape[-1])
                seen = seen_by_index.setdefault(index_obj, set())
                reused = 0
                for row in rows:
                    key = row.tobytes()
                    if key in seen:
                        reused += 1
                    else:
                        seen.add(key)
                log.bump("plan_rows", rows.shape[0])
                log.bump("plan_reused", reused)
                return [timed_task(task) for task in tasks]
            finally:
                exit_(hook)

        return query_tasks

    def _timed_ingest(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        log = self.log
        nid = log.name_id("serving.ingest.apply")
        hook_id = log.name_id(HOOK_OVERHEAD)
        enter, exit_ = log.enter, log.exit

        def wrapper(coordinator: Any, *args: Any, **kwargs: Any) -> Any:
            index = enter(nid)
            try:
                return fn(coordinator, *args, **kwargs)
            finally:
                exit_(index)
                hook = enter(hook_id)
                log.raise_to("merge_debt_max", max(coordinator.merge_debt(), default=0))
                exit_(hook)

        return wrapper

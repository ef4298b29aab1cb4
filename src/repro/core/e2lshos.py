"""E2LSH-on-Storage (paper Sec. 5).

The hash index (tables + buckets) lives on storage; the database vectors
stay in DRAM.  Each query is a cooperative task following Figure 10:

1. compute the query's compound hash values (Compute),
2. read the hash-table slots of all occupancy-filtered tables of the
   current rung in one asynchronous batch (Step 1),
3. read the first block of every non-empty bucket in one batch (Step 2),
   then follow chain pointers in further batches while the S-candidate
   budget lasts,
4. fingerprint-filter the entries, fetch candidates from DRAM, compute
   true distances, and update the (R, c)-NN state (Step 3).

Many query tasks are interleaved by the
:class:`~repro.storage.engine.AsyncIOEngine`, which is how the paper
builds deep I/O queues (Sec. 5.4).  The same tasks executed against a
:class:`~repro.storage.page_cache.PageCache` reproduce the synchronous
memory-mapped baseline of Sec. 6.5.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Any, Generator, Sequence

import numpy as np

from repro.analysis.machine_model import DEFAULT_MACHINE, MachineModel
from repro.core.e2lsh import QueryAnswer
from repro.core.lsh import CompoundHashBank
from repro.core.params import E2LSHParams
from repro.core.query_stats import OpCounts, QueryStats
from repro.core.radii import RadiusLadder
from repro.layout.bucket import NULL_ADDRESS, decode_block
from repro.layout.builder import BuiltIndex, IndexBuilder, TableHandle
from repro.layout.hash_table import SLOT_SIZE
from repro.storage.blockstore import BlockStore, MemoryBlockStore
from repro.storage.engine import AsyncIOEngine, Compute, EngineResult, Read, ReadBatch, Task
from repro.storage.page_cache import PageCache

__all__ = ["E2LSHoSIndex", "BatchResult"]

#: Upper bound on memoized queries (plans plus their recorded scripts);
#: cleared wholesale when exceeded (service query pools are far
#: smaller, so this never churns).
_PLAN_CACHE_CAP = 4096

#: What an E2LSHoS query task yields, and the task itself.
_Step = Compute | ReadBatch
_QueryTask = Generator[_Step, Any, QueryAnswer]
#: A recorded sub-query: the task's actions in order (frozen, so safe to
#: yield again) and its local-id answer (read-only arrays).
_Script = tuple[tuple[_Step, ...], QueryAnswer]


@dataclass
class BatchResult:
    """Answers plus engine statistics for one batch of queries."""

    answers: list[QueryAnswer]
    engine: EngineResult

    @property
    def mean_query_time_ns(self) -> float:
        """Average per-query time (makespan over interleaved queries)."""
        return self.engine.mean_task_time_ns

    @property
    def queries_per_second(self) -> float:
        """Query throughput."""
        return self.engine.tasks_per_second


class _RungLookup:
    """Flattened occupancy filter and slot addresses for one rung.

    Concatenates every table's sorted ``present_values`` under a
    ``(table << 32) | value`` key — globally sorted because the keys are
    table-major and sorted within each table — so a single
    ``np.searchsorted`` answers all ``B x L`` membership probes of a
    query wave, replacing ``B x L`` Python-level
    :meth:`~repro.layout.builder.TableHandle.contains` calls.  Slot byte
    addresses come from the cached per-table bases, matching
    :meth:`~repro.layout.hash_table.OnStorageHashTable.slot_address`.
    """

    __slots__ = ("keys", "base_addresses", "tables", "_shifts")

    def __init__(self, handles: Sequence[TableHandle]) -> None:
        n_tables = len(handles)
        self._shifts = np.arange(n_tables, dtype=np.uint64) << np.uint64(32)
        self.keys = np.concatenate(
            [
                self._shifts[li] | handles[li].present_values.astype(np.uint64)
                for li in range(n_tables)
            ]
        )
        self.base_addresses = np.array(
            [handle.table.base_address for handle in handles], dtype=np.int64
        )
        self.tables = [handle.table for handle in handles]

    def contains(self, hash_values: np.ndarray) -> np.ndarray:
        """Occupancy mask for ``(B, L)`` hash values against this rung."""
        keys = self.keys
        if keys.size == 0:
            return np.zeros(hash_values.shape, dtype=bool)
        probes = (self._shifts[None, :] | hash_values.astype(np.uint64)).ravel()
        pos = np.searchsorted(keys, probes)
        clamped = np.minimum(pos, keys.size - 1)
        hit = (keys[clamped] == probes) & (pos < keys.size)
        return hit.reshape(hash_values.shape)


class _WavePlan:
    """Shared, lazily materialized hash state for one query wave.

    Holds the ``(B, d)`` query matrix and computes projections plus
    per-rung hash values, occupancy masks, and slot addresses once for
    the whole wave on first touch; each member task reads its own row
    ``i``.  Simulated Compute/Read charges stay per-task inside
    :meth:`E2LSHoSIndex._run_query` — the plan only amortizes the *wall*
    cost of the numpy calls across the wave, so a wave of B queries is
    indistinguishable (answers, I/O counts, simulated timing) from B
    scalar queries.
    """

    __slots__ = ("index", "queries", "_projections", "_rungs")

    def __init__(self, index: "E2LSHoSIndex", queries: np.ndarray) -> None:
        self.index = index
        self.queries = queries
        self._projections: np.ndarray | None = None
        self._rungs: dict[int, tuple] = {}

    @property
    def projections(self) -> np.ndarray:
        if self._projections is None:
            self._projections = self.index.built.bank.project_rows(self.queries)
        return self._projections

    def rung(self, rung_index: int, radius: float) -> tuple:
        """``(hash_values, slots, fingerprints, present, addresses)`` arrays."""
        cached = self._rungs.get(rung_index)
        if cached is None:
            built = self.index.built
            bank = built.bank
            hash_values = bank.mix32(bank.codes_for_radius(self.projections, radius))
            slots, fingerprints = built.codec.split_hash(hash_values)
            lookup = self.index._rung_lookup(rung_index)
            present = lookup.contains(hash_values)
            addresses = lookup.base_addresses[None, :] + slots.astype(np.int64) * SLOT_SIZE
            cached = (hash_values, slots, fingerprints, present, addresses)
            self._rungs[rung_index] = cached
        return cached


class _QueryMemo:
    """Everything memoized for one query vector on one index state.

    ``plan``/``row`` locate the query's hash state in the wave that
    first planned it.  ``scripts`` holds the recorded sub-query per
    ``(k, stop_k)``: a task of :meth:`E2LSHoSIndex._run_query` is a pure
    function of the query, ``k``, ``stop_k`` and the index state, so
    once recorded it can be replayed action for action.
    """

    __slots__ = ("plan", "row", "scripts")

    def __init__(self, plan: _WavePlan, row: int) -> None:
        self.plan = plan
        self.row = row
        self.scripts: dict[tuple[int, int], _Script] = {}


class E2LSHoSIndex:
    """External-memory E2LSH over a built on-storage index."""

    def __init__(
        self,
        built: BuiltIndex,
        data: np.ndarray,
        machine: MachineModel = DEFAULT_MACHINE,
    ) -> None:
        data = np.ascontiguousarray(data, dtype=np.float32)
        if data.shape[0] != built.params.n:
            raise ValueError(f"data has n={data.shape[0]}, index expects {built.params.n}")
        self.built = built
        self.data = data
        self.machine = machine
        #: Per-rung flattened occupancy/address tables, built on first
        #: query touch (queries share them across waves and batches).
        self._rung_lookups: dict[int, _RungLookup] = {}
        #: Query memo: query bytes -> hash plan plus recorded scripts.
        #: Hashing is a pure function of the query vector and the
        #: (fixed) bank, and ``project_rows`` is batch-invariant, so a
        #: recurring query reuses the plan row computed for an earlier
        #: wave bit-for-bit; a query seen twice also records its whole
        #: task for replay (see :meth:`query_tasks`).
        self._plan_cache: dict[bytes, _QueryMemo] = {}
        #: Bumped by :meth:`invalidate_query_caches`.  A recording that
        #: started under an older generation is discarded, not stored;
        #: a replay that sees it change finishes as a live query.
        self._generation = 0
        # The projection, per-rung hashing, and occupancy-filter Compute
        # steps are query-independent; share one OpCounts (``add`` only
        # reads its argument) and one modelled duration across all tasks.
        params, d = built.params, data.shape[1]
        self._proj_step = OpCounts(projection_scalar_ops=d * params.L * params.m)
        self._proj_ns = machine.compute_ns(self._proj_step)
        self._rung_step = OpCounts(rounds=1, projection_scalar_ops=params.L * params.m)
        self._rung_ns = machine.compute_ns(self._rung_step)
        self._filter_step = OpCounts(bucket_lookups=params.L)
        self._filter_ns = machine.compute_ns(self._filter_step)

    # -- construction -------------------------------------------------------

    @classmethod
    def build(
        cls,
        data: np.ndarray,
        params: E2LSHParams,
        store: BlockStore | None = None,
        ladder: RadiusLadder | None = None,
        block_size: int = 512,
        table_bits: int | None = None,
        seed: int = 0,
        machine: MachineModel = DEFAULT_MACHINE,
        bank: CompoundHashBank | None = None,
    ) -> "E2LSHoSIndex":
        """Build the on-storage index for ``data`` and wrap it."""
        data = np.ascontiguousarray(data, dtype=np.float32)
        ladder = ladder or RadiusLadder.for_data(data, params.c)
        store = store if store is not None else MemoryBlockStore()
        builder = IndexBuilder(
            store=store,
            params=params,
            ladder=ladder,
            block_size=block_size,
            table_bits=table_bits,
            seed=seed,
        )
        return cls(built=builder.build(data, bank=bank), data=data, machine=machine)

    # -- introspection -------------------------------------------------------

    @property
    def params(self) -> E2LSHParams:
        """E2LSH parameters the index was built with."""
        return self.built.params

    @property
    def ladder(self) -> RadiusLadder:
        """Radius ladder."""
        return self.built.ladder

    @property
    def storage_bytes(self) -> int:
        """On-storage index size (Table 6, "Index storage")."""
        return self.built.stats.index_storage_bytes

    @property
    def dram_bytes(self) -> int:
        """Runtime DRAM: database + resident index data (Table 6)."""
        return self.data.nbytes + self.built.dram_bytes

    # -- maintenance hooks ----------------------------------------------------

    def invalidate_query_caches(self) -> None:
        """Drop the lazily-built query caches after an index mutation.

        :class:`~repro.core.updates.IndexUpdater` rewrites bucket chains
        and occupancy filters in place; the per-rung flattened lookup
        tables, the hash-plan memo and the recorded sub-query scripts
        would otherwise keep serving the pre-mutation view (hiding fresh
        inserts and deleted entries from queries).  The updater calls
        this after every insert or delete batch; any other path that
        mutates the store or the database must too.

        It also bumps the memo generation, so a task recorded while in
        flight across the mutation — it may have read both the old and
        the new index — is never stored for replay, and a replay waiting
        across it finishes by running live on the new index.
        """
        self._rung_lookups.clear()
        self._plan_cache.clear()
        self._generation += 1

    def maintenance_compute_ns(self, count: int) -> float:
        """Modelled CPU cost of hashing ``count`` objects for maintenance.

        Inserting an object hashes it once per rung across all tables —
        the same projection + per-rung lattice-code work a query spends
        before it touches storage — so merge jobs charge this per delta
        entry they rewrite into the static tables.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        return count * (self._proj_ns + len(self.built.ladder) * self._rung_ns)

    # -- query tasks ----------------------------------------------------------

    def query_tasks(
        self,
        queries: np.ndarray,
        k: int = 1,
        id_map: np.ndarray | None = None,
        stop_k: int | None = None,
    ) -> list[Task]:
        """Plan a micro-batch of queries as one wave of cooperative tasks.

        The whole ``(B, d)`` matrix is hashed at once — projections,
        per-rung lattice codes, occupancy filtering via one sorted-array
        ``searchsorted``, and slot addressing are computed once per wave
        and shared by the returned tasks.  Each task still yields its
        own Compute/ReadBatch actions, so driving the list on the engine
        produces *exactly* the answers, I/O counts, and simulated timing
        of ``[query_task(q) for q in queries]``; only the wall-clock
        cost of planning is amortized (hashing uses the batch-invariant
        :meth:`~repro.core.lsh.CompoundHashBank.project_rows`).

        ``id_map`` remaps the answers' object IDs through a lookup table
        before each task returns — a shard answering on behalf of a
        sharded service reports *global* IDs this way, so the dispatcher
        can merge shard answers without knowing the partitioning.

        ``stop_k`` decouples the rung-descent termination quota from the
        answer size: a shard holding 1/N of the database stops once it
        has ``ceil(k/N) + slack`` candidates within ``c * R`` (its
        expected share of the global top-k) while still *reporting* up
        to ``k`` so a skewed partition cannot starve the merge.
        Defaults to ``k`` (the paper's single-node condition).

        Repeated queries skip the Python work altogether.  The second
        time a query is planned on an unchanged index its task is
        recorded: the yielded actions (frozen) and the local-id answer
        (arrays made read-only) are kept under ``(k, stop_k)``.  From
        the third time on the row is not planned at all; its task
        replays the recorded actions — the engine still books every
        device request and reads the store, so simulated timing, counts
        and traces are unchanged — and returns the recorded answer
        through ``id_map``.  First sightings record nothing, so
        all-distinct traffic pays nothing.  The memo shares the plan
        memo's cap and :meth:`invalidate_query_caches` (see there for
        tasks in flight across a mutation); replayed answers share
        their arrays and ``stats`` with the recording.
        """
        queries = np.ascontiguousarray(queries, dtype=np.float32)
        if queries.ndim == 1:
            queries = queries[None, :]
        d = self.data.shape[1]
        if queries.ndim != 2 or queries.shape[0] < 1:
            raise ValueError(f"queries must be a (B, {d}) matrix, got shape {queries.shape}")
        if queries.shape[1] != d:
            raise ValueError(f"queries have d={queries.shape[1]}, index expects {d}")
        stop_k = k if stop_k is None else stop_k
        if stop_k < 1:
            raise ValueError(f"stop_k must be >= 1, got {stop_k}")
        if id_map is not None and id_map.shape[0] < self.built.params.n:
            raise ValueError(
                f"id_map covers {id_map.shape[0]} objects, index holds {self.built.params.n}"
            )
        cache = self._plan_cache
        keys: list[bytes] = []
        # Each row's memo as it stood before this wave (None: first seen).
        memos: list[_QueryMemo | None] = []
        fresh: dict[bytes, int] = {}
        fresh_rows: list[int] = []
        for row in range(queries.shape[0]):
            key = queries[row].tobytes()
            keys.append(key)
            memo = cache.get(key)
            if memo is None and key not in fresh:
                fresh[key] = len(fresh_rows)
                fresh_rows.append(row)
            memos.append(memo)
        if fresh_rows:
            if len(fresh_rows) == queries.shape[0]:
                sub = queries
            else:
                sub = np.ascontiguousarray(queries[fresh_rows])
            wave = _WavePlan(self, sub)
            if len(cache) + len(fresh) > _PLAN_CACHE_CAP:
                cache.clear()
            for key, col in fresh.items():
                cache[key] = _QueryMemo(wave, col)
        script_key = (k, stop_k)
        tasks: list[Task] = []
        for key, memo in zip(keys, memos):
            if memo is None:
                first = cache[key]
                task = self._run_query(first.plan, first.row, k, stop_k)
                tasks.append(task if id_map is None else self._remap_ids(task, id_map))
                continue
            script = memo.scripts.get(script_key)
            if script is not None:
                tasks.append(self._replay(script, memo, script_key, self._generation, id_map))
            else:
                task = self._run_query(memo.plan, memo.row, k, stop_k)
                tasks.append(self._record(task, key, script_key, self._generation, id_map))
        return tasks

    def query_task(
        self,
        query: np.ndarray,
        k: int = 1,
        id_map: np.ndarray | None = None,
        stop_k: int | None = None,
    ) -> Task:
        """Cooperative task answering one query (drive with the engine).

        The ``B=1`` wrapper around :meth:`query_tasks`; see there for
        the ``id_map`` and ``stop_k`` semantics.
        """
        queries = np.asarray(query, dtype=np.float32).reshape(1, -1)
        return self.query_tasks(queries, k=k, id_map=id_map, stop_k=stop_k)[0]

    @staticmethod
    def _remapped(answer: QueryAnswer, id_map: np.ndarray | None) -> QueryAnswer:
        if id_map is None:
            return answer
        ids = id_map[answer.ids] if answer.ids.size else answer.ids
        return QueryAnswer(
            ids=np.asarray(ids, dtype=np.int64), distances=answer.distances, stats=answer.stats
        )

    @classmethod
    def _remap_ids(cls, task: _QueryTask, id_map: np.ndarray) -> Task:
        answer = yield from task
        return cls._remapped(answer, id_map)

    def _record(
        self,
        task: _QueryTask,
        key: bytes,
        script_key: tuple[int, int],
        generation: int,
        id_map: np.ndarray | None,
    ) -> Task:
        """Run ``task``, keeping its actions and answer as a replay script.

        The script is stored under the query's current memo entry, and
        only if no :meth:`invalidate_query_caches` ran since the task was
        planned (``generation``): a task in flight across a mutation may
        have read both index states, while the entry may already have
        been re-planned on the new one.
        """
        actions: list[_Step] = []
        sent = None
        while True:
            try:
                action = task.send(sent)
            except StopIteration as stop:
                answer: QueryAnswer = stop.value
                break
            actions.append(action)
            sent = yield action
        memo = self._plan_cache.get(key)
        if memo is not None and generation == self._generation:
            answer.ids.flags.writeable = False
            answer.distances.flags.writeable = False
            memo.scripts[script_key] = (tuple(actions), answer)
        return self._remapped(answer, id_map)

    def _replay(
        self,
        script: _Script,
        memo: _QueryMemo,
        script_key: tuple[int, int],
        generation: int,
        id_map: np.ndarray | None,
    ) -> Task:
        """Yield a recorded task's actions again and return its answer.

        The store reads the engine sends back equal the recorded ones
        while the index is unchanged, so they are only kept, not used.
        If the index is mutated while the replay waits (a merge rewrites
        the store eagerly), the rest of the query must see the new
        state: a live task is fast-forwarded through the values
        received so far and takes over, exactly as the query would
        have run unmemoized.
        """
        actions, answer = script
        sent: list[Any] = []
        for action in actions:
            if generation != self._generation:
                live = self._run_query(memo.plan, memo.row, *script_key)
                answer = yield from self._resume(live, sent)
                break
            sent.append((yield action))
        return self._remapped(answer, id_map)

    @staticmethod
    def _resume(task: _QueryTask, sent: list[Any]) -> _QueryTask:
        """Drive a fresh ``task`` through ``sent``, then on to its end."""
        action = task.send(None)
        for value in sent:
            action = task.send(value)
        while True:
            value = yield action
            try:
                action = task.send(value)
            except StopIteration as stop:
                answer: QueryAnswer = stop.value
                return answer

    def _rung_lookup(self, rung_index: int) -> _RungLookup:
        lookup = self._rung_lookups.get(rung_index)
        if lookup is None:
            lookup = _RungLookup(self.built.tables[rung_index])
            self._rung_lookups[rung_index] = lookup
        return lookup

    def _run_query(self, plan: _WavePlan, i: int, k: int, stop_k: int) -> _QueryTask:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        d = self.data.shape[1]
        built = self.built
        params = built.params
        codec = built.codec
        machine = self.machine
        stats = QueryStats()
        query = plan.queries[i]

        # Hash the query once; rungs reuse the projections (Sec. 5.3).
        # The plan materializes the whole wave's hash state on first
        # touch; this member charges its own share of the Compute cost.
        # The constant steps increment their counters directly — same
        # arithmetic as ``ops.add(OpCounts(...))`` without touching the
        # six zero fields on every simulated event.
        ops = stats.ops
        ops.projection_scalar_ops += d * params.L * params.m
        yield Compute(self._proj_ns)

        pool_ids = np.empty(0, dtype=np.int64)
        pool_dists = np.empty(0, dtype=np.float64)
        seen: np.ndarray | None = None

        for rung_index, radius in enumerate(built.ladder):
            stats.rungs_searched += 1
            ops.rounds += 1
            ops.projection_scalar_ops += params.L * params.m
            yield Compute(self._rung_ns)
            _, _, fingerprints, present, addresses = plan.rung(rung_index, radius)

            # DRAM occupancy filter: skip I/O for empty buckets (exact
            # membership of the 32-bit value; see _RungLookup).
            stats.buckets_probed += params.L
            probe_cols = np.flatnonzero(present[i])
            ops.bucket_lookups += params.L
            yield Compute(self._filter_ns)

            budget = params.S
            collected: list[np.ndarray] = []
            if probe_cols.size:
                row_addresses = addresses[i]
                row_fps = fingerprints[i]
                # Step 1: hash-table slot reads, all in one async batch.
                slot_reads = [(int(row_addresses[li]), SLOT_SIZE) for li in probe_cols]
                stats.ios_issued += len(slot_reads)
                raw_slots = yield ReadBatch(slot_reads)
                heads = np.frombuffer(b"".join(raw_slots), dtype="<u8")
                # Step 2: first bucket block of every non-empty bucket.
                pending = [
                    (int(address), int(row_fps[li]))
                    for address, li in zip(heads, probe_cols)
                    if address != NULL_ADDRESS
                ]
                stats.nonempty_buckets += len(pending)
                while pending and budget > 0:
                    reads = [(address, built.block_size) for address, _ in pending]
                    stats.ios_issued += len(reads)
                    raw_blocks = yield ReadBatch(reads)
                    next_pending: list[tuple[int, int]] = []
                    for raw, (_, fp) in zip(raw_blocks, pending):
                        if budget <= 0:
                            break
                        block = decode_block(codec, raw)
                        matches = block.object_ids[block.fingerprints == fp]
                        take = min(int(matches.size), budget)
                        stats.bucket_sizes_examined.append(int(block.count))
                        stats.bucket_blocks_read += 1
                        if take > 0:
                            collected.append(matches[:take].astype(np.int64))
                            budget -= take
                        if block.has_next and budget > 0:
                            next_pending.append((block.next_address, fp))
                    pending = next_pending

            # Step 3: fingerprint-filtered candidates -> true distances.
            if collected:
                # Sorted-unique candidates minus the pool, exactly as
                # ``np.unique`` + ``~np.isin(..., pool_ids)`` would give,
                # via one sort and a seen-bitmap over the n objects —
                # numpy's hash-based unique and isin's mergesort dominate
                # the event loop otherwise.
                cand = np.concatenate(collected)
                cand.sort(kind="stable")
                if cand.size > 1:
                    keep = np.empty(cand.size, dtype=bool)
                    keep[0] = True
                    np.not_equal(cand[1:], cand[:-1], out=keep[1:])
                    candidates = cand[keep]
                else:
                    candidates = cand
                # Bitmap over the live object ids (inserts may have
                # grown the dataset past the build-time params.n).
                n_objects = self.data.shape[0]
                if seen is None or seen.size < n_objects:
                    grown = np.zeros(n_objects, dtype=bool)
                    if seen is not None:
                        grown[: seen.size] = seen
                    seen = grown
                new = candidates[~seen[candidates]]
                if new.size:
                    seen[new] = True
                    diffs = self.data[new].astype(np.float64) - query.astype(np.float64)
                    dists = np.sqrt(np.einsum("nd,nd->n", diffs, diffs))
                    stats.candidates_checked += int(new.size)
                    step = OpCounts(
                        candidate_fetches=int(new.size),
                        distance_scalar_ops=int(new.size) * d,
                    )
                    stats.ops.add(step)
                    yield Compute(machine.compute_ns(step))
                    pool_ids = np.concatenate([pool_ids, new])
                    pool_dists = np.concatenate([pool_dists, dists])

            if pool_ids.size and int((pool_dists <= params.c * radius).sum()) >= stop_k:
                break

        if pool_ids.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return QueryAnswer(ids=empty, distances=empty.astype(np.float64), stats=stats)
        order = np.argsort(pool_dists, kind="stable")[:k]
        return QueryAnswer(ids=pool_ids[order], distances=pool_dists[order], stats=stats)

    # -- batch execution -------------------------------------------------------

    def run(
        self,
        queries: np.ndarray,
        engine: AsyncIOEngine | None = None,
        k: int = 1,
        workers: int = 1,
        *,
        mode: str = "async",
        cache: PageCache | None = None,
    ) -> BatchResult:
        """Answer all ``queries`` as one wave, under either execution mode.

        ``mode="async"`` (default) interleaves the wave's tasks on the
        given :class:`~repro.storage.engine.AsyncIOEngine` — the paper's
        deep-queue asynchronous execution (Sec. 5.4, Eq. 7).

        ``mode="mmap_sync"`` drives the same tasks against a
        :class:`~repro.storage.page_cache.PageCache` instead: every
        index read becomes a blocking page-cache access and queries run
        one after another with no I/O overlap (the Sec. 6.5 mmap
        baseline).  Pass ``cache=`` and leave ``engine`` as ``None``.
        The returned :class:`BatchResult` synthesizes its engine figures
        from the blocking walk — ``stall_ns`` absorbs all time the CPU
        spent waiting on the cache.
        """
        queries = np.asarray(queries, dtype=np.float32)
        if queries.ndim == 1:
            queries = queries[None, :]
        if mode == "async":
            if engine is None:
                raise ValueError("mode='async' needs an engine")
            if cache is not None:
                raise ValueError("mode='async' takes no cache; pass mode='mmap_sync'")
            tasks = self.query_tasks(queries, k=k)
            result = engine.run(tasks, workers=workers)
            return BatchResult(answers=list(result.results), engine=result)
        if mode != "mmap_sync":
            raise ValueError(f"unknown mode {mode!r}; expected 'async' or 'mmap_sync'")
        if cache is None:
            raise ValueError("mode='mmap_sync' needs a cache")
        if engine is not None:
            raise ValueError("mode='mmap_sync' drives the page cache; leave engine=None")
        clock = 0.0
        compute_ns = 0.0
        io_count = 0
        answers: list[QueryAnswer] = []
        finish_times: list[float] = []
        for task in self.query_tasks(queries, k=k):
            send_value = None
            while True:
                try:
                    action = task.send(send_value)
                except StopIteration as stop:
                    answers.append(stop.value)
                    finish_times.append(clock)
                    break
                send_value = None
                if isinstance(action, Compute):
                    clock += action.duration_ns
                    compute_ns += action.duration_ns
                elif isinstance(action, Read):
                    send_value, clock = cache.read(clock, action.address, action.length)
                    io_count += 1
                elif isinstance(action, ReadBatch):
                    payload = []
                    for address, length in action.requests:
                        data, clock = cache.read(clock, address, length)
                        payload.append(data)
                    io_count += len(action.requests)
                    send_value = payload
                else:  # pragma: no cover - defensive
                    raise TypeError(f"unsupported action {action!r}")
        synthesized = EngineResult(
            makespan_ns=clock,
            results=list(answers),
            finish_times_ns=finish_times,
            io_count=io_count,
            compute_ns=compute_ns,
            io_cpu_ns=0.0,
            stall_ns=max(0.0, clock - compute_ns),
        )
        return BatchResult(answers=answers, engine=synthesized)

    def run_mmap_sync(
        self,
        queries: np.ndarray,
        cache: PageCache,
        k: int = 1,
    ) -> tuple[list[QueryAnswer], float]:
        """Deprecated alias for ``run(queries, mode="mmap_sync", cache=cache)``.

        Returns the legacy ``(answers, total_simulated_ns)`` pair; new
        code should call :meth:`run` and read the :class:`BatchResult`.
        """
        warnings.warn(
            "run_mmap_sync is deprecated; use run(queries, mode='mmap_sync', cache=cache)",
            DeprecationWarning,
            stacklevel=2,
        )
        batch = self.run(queries, k=k, mode="mmap_sync", cache=cache)
        return batch.answers, batch.engine.makespan_ns

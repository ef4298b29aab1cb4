"""Property tests: the vectorized batch query path is bit-identical to
the scalar path.

``E2LSHoSIndex.query_tasks`` plans a whole wave at once (batch
projections, one ``searchsorted`` per rung, shared slot addressing) and
memoizes hash state across waves, but every member task must still
yield *exactly* the Compute/ReadBatch action stream of
``query_task(q)`` run alone — same simulated durations, same I/O
addresses in the same order, same answers, same op counts.  These tests
pin that contract across k/stop_k settings, rung descent depths, empty
buckets, duplicated queries, warm plan caches, and recorded sub-queries
replayed from the memo.
"""

import numpy as np
import pytest

from repro.core.e2lshos import E2LSHoSIndex
from repro.core.params import E2LSHParams
from repro.core.radii import RadiusLadder
from repro.storage.blockstore import MemoryBlockStore
from repro.storage.engine import AsyncIOEngine, Compute, Read, ReadBatch
from repro.storage.profiles import INTERFACE_PROFILES, make_volume


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(61)
    n, d = 3000, 24
    centers = rng.normal(scale=4.0, size=(30, d))
    data = (centers[rng.integers(0, 30, n)] + rng.normal(scale=0.4, size=(n, d))).astype(
        np.float32
    )
    index = E2LSHoSIndex.build(
        data,
        E2LSHParams(n=n, rho=0.35, gamma=0.8, s_factor=8),
        store=MemoryBlockStore(),
        ladder=RadiusLadder.for_data(data, 2.0),
        seed=9,
    )
    near = (data[rng.integers(0, n, 6)] + rng.normal(scale=0.05, size=(6, d))).astype(
        np.float32
    )
    far = np.full((1, d), 80.0, dtype=np.float32)  # all rungs, empty buckets
    queries = np.vstack([near, far, near[2:3]])  # includes an exact duplicate
    return index, queries.astype(np.float32)


def drain(index, task):
    """Run one task to completion, recording its observable action stream."""
    actions, sent = [], None
    store = index.built.store
    while True:
        try:
            action = task.send(sent)
        except StopIteration as stop:
            return actions, stop.value
        sent = None
        if isinstance(action, Compute):
            actions.append(("compute", action.duration_ns))
        elif isinstance(action, ReadBatch):
            actions.append(("read_batch", tuple(action.requests)))
            sent = [store.read(addr, length) for addr, length in action.requests]
        elif isinstance(action, Read):  # pragma: no cover - path yields batches
            actions.append(("read", action.address, action.length))
            sent = store.read(action.address, action.length)


@pytest.mark.parametrize("k,stop_k", [(1, None), (5, None), (10, 2), (3, 8)])
def test_batch_action_streams_match_scalar(setup, k, stop_k):
    index, queries = setup
    batch_tasks = index.query_tasks(queries, k=k, stop_k=stop_k)
    for i, batch_task in enumerate(batch_tasks):
        batch_actions, batch_answer = drain(index, batch_task)
        scalar_actions, scalar_answer = drain(
            index, index.query_task(queries[i], k=k, stop_k=stop_k)
        )
        assert batch_actions == scalar_actions
        np.testing.assert_array_equal(batch_answer.ids, scalar_answer.ids)
        np.testing.assert_array_equal(batch_answer.distances, scalar_answer.distances)
        assert vars(batch_answer.stats.ops) == vars(scalar_answer.stats.ops)
        assert batch_answer.stats.ios_issued == scalar_answer.stats.ios_issued
        assert batch_answer.stats.rungs_searched == scalar_answer.stats.rungs_searched
        assert (
            batch_answer.stats.bucket_sizes_examined
            == scalar_answer.stats.bucket_sizes_examined
        )


def test_far_query_probes_every_rung_without_io(setup):
    index, queries = setup
    far = queries[6]
    _, answer = drain(index, index.query_tasks(far[None, :], k=1)[0])
    assert answer.stats.rungs_searched == len(index.ladder)
    assert answer.ids.size == 0


def test_engine_run_identical_scalar_vs_batch(setup):
    index, queries = setup

    def engine():
        return AsyncIOEngine(
            make_volume("cssd", 4), INTERFACE_PROFILES["io_uring"], index.built.store
        )

    batch = engine().run(index.query_tasks(queries, k=5))
    scalar = engine().run([index.query_task(q, k=5) for q in queries])
    assert batch.makespan_ns == scalar.makespan_ns
    assert batch.finish_times_ns == scalar.finish_times_ns
    assert batch.io_count == scalar.io_count
    assert batch.compute_ns == scalar.compute_ns
    for a, b in zip(batch.results, scalar.results):
        np.testing.assert_array_equal(a.ids, b.ids)
        np.testing.assert_array_equal(a.distances, b.distances)


@pytest.mark.parametrize("k,stop_k", [(1, None), (5, None), (10, 2), (3, 8)])
@pytest.mark.parametrize("remap", [False, True], ids=["local-ids", "id-map"])
def test_warm_plan_cache_changes_nothing(setup, k, stop_k, remap):
    """Cold, recorded (second sighting) and replayed (third) passes agree.

    The second pass reuses memoized hash state and records each task;
    the third replays the recordings without running the query code.
    Action streams, answers and op counts must match bit-for-bit.
    """
    index, queries = setup
    index.invalidate_query_caches()  # the module fixture is shared
    id_map = np.arange(index.params.n, dtype=np.int64)[::-1] * 7 + 3 if remap else None
    passes = [
        [drain(index, t) for t in index.query_tasks(queries, k=k, id_map=id_map, stop_k=stop_k)]
        for _ in range(3)
    ]
    assert all(
        memo.scripts for memo in index._plan_cache.values()
    ), "the second pass should have recorded every query"
    cold = passes[0]
    for later in passes[1:]:
        for (cold_actions, cold_answer), (actions, answer) in zip(cold, later):
            assert actions == cold_actions
            np.testing.assert_array_equal(answer.ids, cold_answer.ids)
            np.testing.assert_array_equal(answer.distances, cold_answer.distances)
            assert vars(answer.stats.ops) == vars(cold_answer.stats.ops)
            assert answer.stats.ios_issued == cold_answer.stats.ios_issued
            assert answer.stats.rungs_searched == cold_answer.stats.rungs_searched
            assert answer.stats.candidates_checked == cold_answer.stats.candidates_checked
    if remap:
        # Scripts hold local ids; the map is applied per replay.
        local = [drain(index, t) for t in index.query_tasks(queries, k=k, stop_k=stop_k)]
        assert any(answer.ids.size for _, answer in cold)
        for (_, mapped), (_, plain) in zip(cold, local):
            np.testing.assert_array_equal(mapped.ids, id_map[plain.ids])


def test_duplicate_rows_in_one_wave_share_a_plan(setup):
    index, queries = setup
    dupes = np.vstack([queries[0], queries[0], queries[0]])
    tasks = index.query_tasks(dupes, k=2)
    drained = [drain(index, t) for t in tasks]
    for actions, answer in drained[1:]:
        assert actions == drained[0][0]
        np.testing.assert_array_equal(answer.ids, drained[0][1].ids)


def test_query_tasks_validation(setup):
    index, queries = setup
    d = queries.shape[1]
    with pytest.raises(ValueError, match="index expects"):
        index.query_tasks(np.zeros((2, d + 3), dtype=np.float32))
    with pytest.raises(ValueError, match="stop_k"):
        index.query_tasks(queries, k=1, stop_k=0)
    with pytest.raises(ValueError, match="id_map"):
        index.query_tasks(queries, k=1, id_map=np.arange(5))
    with pytest.raises(ValueError):
        next(index.query_tasks(queries, k=0)[0])

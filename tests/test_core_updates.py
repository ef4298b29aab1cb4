"""Tests for repro.core.updates (incremental index maintenance)."""

import numpy as np
import pytest

from repro.core.e2lshos import E2LSHoSIndex
from repro.core.params import E2LSHParams
from repro.core.updates import IndexUpdater
from repro.storage.blockstore import MemoryBlockStore
from repro.storage.engine import AsyncIOEngine, ReadBatch
from repro.storage.profiles import INTERFACE_PROFILES, make_volume


@pytest.fixture
def setup():
    rng = np.random.default_rng(97)
    n, d = 1200, 16
    centers = rng.normal(scale=4.0, size=(12, d))
    data = (centers[rng.integers(0, 12, n)] + rng.normal(scale=0.4, size=(n, d))).astype(
        np.float32
    )
    params = E2LSHParams(n=n, rho=0.35, gamma=0.7, s_factor=16)
    index = E2LSHoSIndex.build(data, params, store=MemoryBlockStore(), seed=8)
    return data, index, IndexUpdater(index), rng


def run_query(index, query, k=1):
    engine = AsyncIOEngine(
        make_volume("cssd", 1), INTERFACE_PROFILES["io_uring"], index.built.store
    )
    return index.run(np.asarray(query, dtype=np.float32)[None, :], engine, k=k).answers[0]


def test_inserted_object_is_findable(setup):
    data, index, updater, rng = setup
    novel = (np.full(16, 30.0) + rng.normal(scale=0.1, size=16)).astype(np.float32)
    new_id = updater.insert(novel)
    assert new_id == data.shape[0]
    answer = run_query(index, novel + rng.normal(scale=0.01, size=16).astype(np.float32))
    assert answer.found
    assert answer.ids[0] == new_id


def test_insert_batch_assigns_sequential_ids(setup):
    data, index, updater, rng = setup
    batch = rng.normal(scale=2.0, size=(5, 16)).astype(np.float32)
    ids = updater.insert_batch(batch)
    np.testing.assert_array_equal(ids, np.arange(data.shape[0], data.shape[0] + 5))
    assert index.data.shape[0] == data.shape[0] + 5
    assert updater.stats.inserted == 5


def test_insert_write_volume_is_tiny_vs_rebuild(setup):
    """Sec. 7: incremental maintenance barely consumes SSD endurance."""
    data, index, updater, rng = setup
    store = index.built.store
    before = store.bytes_written
    rebuild_cost = before  # building wrote the whole index once
    updater.insert(rng.normal(scale=2.0, size=16).astype(np.float32))
    incremental = store.bytes_written - before
    assert incremental < rebuild_cost / 50


def test_deleted_object_leaves_chains(setup):
    data, index, updater, rng = setup
    victim = 37
    updater.delete(victim)
    assert victim in updater.deleted_ids
    # The victim's entries are physically gone: a query at the victim's
    # own location no longer returns it.
    answer = run_query(index, data[victim])
    assert victim not in answer.ids.tolist()


def test_delete_then_filter(setup):
    data, index, updater, rng = setup
    updater.delete(3)
    filtered = updater.filter_answer_ids(np.array([1, 3, 5]))
    np.testing.assert_array_equal(filtered, [1, 5])
    with pytest.raises(ValueError):
        updater.delete(3)  # double delete
    with pytest.raises(ValueError):
        updater.delete(10**9)


def test_insert_then_delete_roundtrip(setup):
    data, index, updater, rng = setup
    novel = rng.normal(scale=2.0, size=16).astype(np.float32)
    new_id = updater.insert(novel)
    updater.delete(int(new_id))
    answer = run_query(index, novel)
    assert int(new_id) not in answer.ids.tolist()


def test_occupancy_filter_stays_exact_after_insert(setup):
    data, index, updater, rng = setup
    novel = (np.full(16, -25.0)).astype(np.float32)
    updater.insert(novel)
    built = index.built
    projections = built.bank.project(novel[None, :])
    for rung_index, radius in enumerate(built.ladder):
        hash_values = built.bank.mix32(built.bank.codes_for_radius(projections, radius))
        for table_index in (0, built.params.L - 1):
            assert built.tables[rung_index][table_index].contains(int(hash_values[0, table_index]))


def test_insert_rejects_bad_shapes(setup):
    data, index, updater, rng = setup
    with pytest.raises(ValueError):
        updater.insert_batch(np.zeros((2, 7), dtype=np.float32))


def test_filter_answer_ids_handles_an_empty_answer(setup):
    data, index, updater, rng = setup
    updater.delete(3)
    filtered = updater.filter_answer_ids(np.empty(0, dtype=np.int64))
    assert filtered.size == 0


def run_answer(index, query, k=3):
    answer = run_query(index, query, k=k)
    return answer.ids.tolist(), answer.distances.tolist()


@pytest.mark.parametrize("mutation", ["invalidate", "insert_batch"])
def test_task_in_flight_across_a_mutation_is_not_memoized(setup, mutation):
    """A recording that spans an index mutation is never replayed.

    The query is planned once, then a second time — that task records —
    and parks on its first read; the index then changes under it.  Its
    recording must be dropped: after the mutation, every pass (cold,
    recorded, replayed) answers as a freshly built index object over
    the mutated store and the grown data does.
    """
    data, index, updater, rng = setup
    query = (data[11] + rng.normal(scale=0.01, size=16)).astype(np.float32)
    run_answer(index, query)  # first sighting: plans, records nothing
    engine = AsyncIOEngine(
        make_volume("cssd", 1), INTERFACE_PROFILES["io_uring"], index.built.store
    )
    session = engine.session()
    session.submit(index.query_task(query, k=3))  # second sighting: records
    assert session.step() is None and session.has_work  # parked on a read
    if mutation == "insert_batch":
        # The query itself, plus filler: the new nearest neighbour.
        batch = np.vstack([query, rng.normal(scale=2.0, size=(3, 16))]).astype(np.float32)
        new_id = int(updater.insert_batch(batch)[0])
    else:
        index.invalidate_query_caches()
    # Plan the query afresh before the stale recording completes, so a
    # recording stored late would land where the next pass reads it.
    run_answer(index, query)
    session.drain()
    assert not index._plan_cache[query.tobytes()].scripts
    # Memo-free reference: a new index object over the mutated store,
    # grown the way IndexUpdater grows the DRAM database.
    fresh = E2LSHoSIndex(index.built, data)
    fresh.data = index.data
    expected = run_answer(fresh, query)
    if mutation == "insert_batch":
        assert expected[0][0] == new_id and expected[1][0] == 0.0
    for _ in range(3):
        assert run_answer(index, query) == expected


def drive(index, task, mutate_after_read=None):
    """Run ``task`` against the store, optionally mutating mid-query.

    ``mutate_after_read`` runs once the first ReadBatch's payload has
    been read — while the task would sit parked in the engine, which
    reads the store when it issues a batch.
    """
    store = index.built.store
    actions, sent = [], None
    while True:
        try:
            action = task.send(sent)
        except StopIteration as stop:
            return actions, stop.value
        actions.append(action)
        sent = None
        if isinstance(action, ReadBatch):
            sent = [store.read(address, length) for address, length in action.requests]
            if mutate_after_read is not None:
                mutate_after_read()
                mutate_after_read = None


def test_replay_in_flight_across_a_mutation_continues_live(setup):
    """A replay parked when the index changes finishes as a live query.

    Two identical indexes see the same query three times and the same
    insert while the third task is parked on its first read.  On one
    the third task replays a recording; on the other its recording is
    dropped first, so the task runs live.  Both must yield the same
    actions (including reads of the rewritten chains) and answers.
    """
    data, index, updater, rng = setup
    twin = E2LSHoSIndex.build(data, index.params, store=MemoryBlockStore(), seed=8)
    query = (data[11] + rng.normal(scale=0.01, size=16)).astype(np.float32)
    batch = np.vstack([query, rng.normal(scale=2.0, size=(3, 16))]).astype(np.float32)
    runs = []
    for target in (index, twin):
        for _ in range(2):  # first sighting, then the recording
            recorded, _ = drive(target, target.query_task(query, k=3, stop_k=40))
        if target is twin:
            target._plan_cache[query.tobytes()].scripts.clear()
        grow = IndexUpdater(target).insert_batch
        task = target.query_task(query, k=3, stop_k=40)
        runs.append(drive(target, task, mutate_after_read=lambda: grow(batch)))
    (replayed, replay_answer), (live, live_answer) = runs
    assert live != recorded  # the mutation changed what the query reads
    assert replayed == live
    np.testing.assert_array_equal(replay_answer.ids, live_answer.ids)
    np.testing.assert_array_equal(replay_answer.distances, live_answer.distances)
    assert vars(replay_answer.stats.ops) == vars(live_answer.stats.ops)

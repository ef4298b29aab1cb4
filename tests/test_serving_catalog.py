"""Tests for repro.serving.catalog: every entry seeded and replayable."""

import json
from dataclasses import asdict, replace

import pytest

from repro.serving.catalog import CATALOG_NAMES, build_scenario, catalog
from repro.serving.scenario import ScenarioSpec, build_scenario_index, run_scenario


def test_catalog_names_are_the_committed_eight():
    assert CATALOG_NAMES == (
        "steady-state",
        "flash-crowd",
        "diurnal",
        "hot-set-drift",
        "replica-stall-storm",
        "correlated-fault",
        "steady-ingest",
        "compaction-stall-storm",
    )
    assert len(catalog(quick=True)) == len(CATALOG_NAMES)


def test_unknown_scenario_is_rejected():
    with pytest.raises(ValueError, match="unknown scenario"):
        build_scenario("steady-stat")


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_every_entry_round_trips_through_json(name):
    for quick in (True, False):
        spec = build_scenario(name, quick=quick)
        assert spec.name == name
        payload = json.loads(json.dumps(spec.to_dict()))
        assert ScenarioSpec.from_dict(payload) == spec


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_quick_entries_replay_byte_identically(name):
    spec = build_scenario(name, quick=True)
    first = json.dumps(asdict(run_scenario(spec).report), sort_keys=True)
    second = json.dumps(asdict(run_scenario(spec).report), sort_keys=True)
    assert first == second


def report_json(result):
    return json.dumps(asdict(result.report), sort_keys=True)


@pytest.mark.parametrize("name", ["steady-state", "hot-set-drift", "steady-ingest"])
def test_warm_shared_index_reports_like_a_cold_one(name):
    """Recorded and replayed sub-queries change wall time, not results.

    A first run on a shared index records the repeats of its skewed
    query stream; the second run replays them.  The ingest spec runs
    after two runs of its read-only twin, which leave a recording for
    every query of the stream, so its merges land while replays are in
    flight.  Every report must equal a cold index's.
    """
    spec = build_scenario(name, quick=True)
    cold = report_json(run_scenario(spec))
    shared = build_scenario_index(spec)
    workload = spec.workload
    if workload.ingest_requests:
        reads = replace(workload, ingest_requests=0, ingest_qps=0.0, delete_fraction=0.0)
        for _ in range(2):
            run_scenario(replace(spec, workload=reads), index=shared)
    else:
        assert report_json(run_scenario(spec, index=shared)) == cold
    shards = [shard.index for shard in shared.sharded.shards]
    assert any(memo.scripts for index in shards for memo in index._plan_cache.values())
    assert report_json(run_scenario(spec, index=shared)) == cold


def test_quick_and_full_scales_differ_only_in_size():
    quick = build_scenario("steady-state", quick=True)
    full = build_scenario("steady-state")
    assert quick.serving == full.serving
    assert quick.seed == full.seed
    assert quick.data.n < full.data.n
    assert quick.workload.requests < full.workload.requests


def test_fault_entries_window_inside_the_run():
    for name in ("replica-stall-storm", "correlated-fault"):
        spec = build_scenario(name, quick=True)
        run_ns = spec.workload.requests / spec.workload.qps * 1e9
        assert spec.faults, name
        for event in spec.faults.events:
            assert event.windowed
            assert 0 < event.start_ns < event.stop_ns <= run_ns

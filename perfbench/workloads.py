"""The three benchmark workloads and one measured pass over each.

A *pass* is set-up plus serving: synthesize the dataset and build the
sharded index (timed together as set-up), then serve the workload's
arrival streams on it.  Every pass builds its own index because the
index is stateful: ``E2LSHoSIndex`` keeps its ``_plan_cache`` memo and
``_rung_lookups`` across runs, and ingest merges rewrite the block
store.  Shared-index reuse is limited to the read streams of one pass
(which never repeat each other's queries) and the ``zipf-read`` capacity
ladder, which runs its rates in a fixed order on the first pass's index.

The dataset and index are fixed (``DATA_SEED``); ``--seed`` drives the
traffic only — Poisson arrival times, Zipf draws and the insert/delete
stream — so the seed-to-seed spread of simulated figures measures the
arrival process, not which vectors happen to be hot.
"""

from __future__ import annotations

import gc
import resource
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from repro.core.params import E2LSHParams
from repro.datasets.registry import DATASET_SPECS, load_dataset
from repro.serving.config import DataConfig, ServingConfig, WorkloadSpec
from repro.serving.scenario import workload_arrivals, workload_updates
from repro.serving.service import QueryService
from repro.serving.sharding import ShardedIndex
from repro.serving.stats import ServiceReport, ServiceStats

import probe
from spans import SERVE_ROOT, SETUP_ROOT, SpanLog

#: Index parameters (gamma, S factor, rho) are the scenario defaults.
#: ``pool_queries`` covers unique-read's three disjoint 1000-query streams;
#: each Zipf stream draws from its own 32 rows.
DATA = DataConfig(dataset="sift", n=20_000, pool_queries=3_000)
DATA_SEED = 7
K = 10
#: p99 limit of the SLO accounting (the scenario catalog's target).
P99_LIMIT_MS = 4.0

_FLEET = dict(n_shards=4, device="cssd", interface="io_uring")


@dataclass(frozen=True)
class Workload:
    name: str
    #: Query-pool rows one arrival stream draws from.
    pool: int
    serving: ServingConfig
    #: One stream's traffic.
    traffic: WorkloadSpec
    #: Offered rates of the capacity ladder, run in this order on one index.
    ladder: tuple[float, ...] = ()
    #: Independent arrival streams per measured pass.  Stream ``r`` has
    #: its own seed and pool rows ``[r * pool, (r + 1) * pool)``; the
    #: simulated figures are medians over streams.
    streams: int = 1


# Every workload serves three streams per pass: a single stream's p99
# swung by 10-40 % from seed to seed at these loads.
ZIPF_READ = Workload(
    name="zipf-read",
    pool=32,
    serving=ServingConfig(**_FLEET, scheme="table", replicas=2, routing="least_outstanding"),
    traffic=WorkloadSpec(requests=2_000, qps=32_000.0, zipf_s=1.1),
    ladder=(24_000.0, 32_000.0, 36_000.0, 40_000.0),
    streams=3,
)

UNIQUE_READ = Workload(
    name="unique-read",
    pool=1_000,
    serving=ServingConfig(**_FLEET, scheme="hash", replicas=1, routing="least_outstanding"),
    traffic=WorkloadSpec(requests=1_000, qps=6_000.0),
    streams=3,
)

#: Each ingest stream gets its own index (merges rewrite the block
#: store), so its streams are half as long: 1000 queries and 100 updates.
#: Merge sizing follows the catalog's steady-ingest entry: threshold a
#: quarter of the update count (several merge cycles per shard), delta
#: capacity four thresholds, an ingest lane of half the query count and
#: 16-write merge waves.
_INGEST_QUERIES = 1_000
_INGEST_UPDATES = 100
INGEST_MIX = Workload(
    name="ingest-mix",
    pool=ZIPF_READ.pool,
    serving=replace(
        ZIPF_READ.serving,
        merge_threshold=_INGEST_UPDATES // 4,
        delta_capacity=_INGEST_UPDATES,
        ingest_queue_capacity=_INGEST_QUERIES // 2,
        merge_io_batch=16,
    ),
    traffic=replace(
        ZIPF_READ.traffic,
        requests=_INGEST_QUERIES,
        ingest_requests=_INGEST_UPDATES,
        ingest_qps=ZIPF_READ.traffic.qps / 4.0,
        delete_fraction=0.25,
    ),
    streams=3,
)

WORKLOADS = {w.name: w for w in (ZIPF_READ, UNIQUE_READ, INGEST_MIX)}


@dataclass
class StreamRun:
    """One serving run of one arrival stream, and what the checks need.

    It keeps the run's statistics and answers but not the service, so an
    index is freed once no pass holds it.
    """

    stream: int
    pool: np.ndarray
    report: ServiceReport
    stats: ServiceStats
    answers: dict[int, Any]
    arrivals: list
    updates: list
    serve_s: float
    #: ``serve_s`` rescaled to the reference host speed: times
    #: ``probe.speed`` of the probe rates just before and just after it.
    ref_s: float
    #: On-storage index size, and block-store bytes written over the
    #: index's life (build plus merges), when the run ended.
    index_bytes: int
    bytes_written: int
    #: Peak resident memory of the process when the run ended.
    peak_rss_mb: float


@dataclass
class Pass:
    """Set-up plus the serving runs of one pass."""

    workload: Workload
    seed: int
    #: Wall time of each build the pass made.
    setups: list[float]
    dataset: Any
    #: The pass's last index; a read pass has only one, which the
    #: capacity ladder reuses.
    sharded: ShardedIndex
    runs: list[StreamRun]


def _span(log: SpanLog | None, name: str) -> Any:
    return log.span(name) if log is not None else nullcontext()


def build(workload: Workload, log: SpanLog | None = None) -> tuple[Any, ShardedIndex, float]:
    """Dataset synthesis plus ``ShardedIndex.build``; returns the wall time."""
    serving = workload.serving
    start = time.perf_counter()
    with _span(log, SETUP_ROOT):
        with _span(log, "datasets.load"):
            dataset = load_dataset(
                DATA.dataset, n=DATA.n, n_queries=DATA.pool_queries, seed=DATA_SEED
            )
        params = E2LSHParams(
            n=dataset.n,
            rho=DATASET_SPECS[DATA.dataset].rho,
            gamma=DATA.gamma,
            s_factor=DATA.s_factor,
        )
        with _span(log, "serving.sharding.build"):
            sharded = ShardedIndex.build(
                dataset.data,
                params,
                n_shards=serving.n_shards,
                scheme=serving.scheme,
                device=serving.device,
                devices_per_shard=serving.devices_per_shard,
                interface=serving.interface,
                seed=DATA_SEED,
                replicas=serving.replicas,
            )
    return dataset, sharded, time.perf_counter() - start


def serve(
    workload: Workload,
    seed: int,
    dataset: Any,
    sharded: ShardedIndex,
    stream: int = 0,
    qps: float | None = None,
    tracer: Any = None,
    log: SpanLog | None = None,
) -> StreamRun:
    """Serve one seeded arrival stream; ``serve_s`` is its wall time.

    The arrival and update streams are generated before the clock
    starts.  Latency is measured from each request's scheduled arrival
    time in simulated time, so generator lateness is zero by
    construction.  The host-speed probe runs just before and just after
    the timed call, outside it.  Streams of one run are seeded
    ``seed + 1000 * r``, which keeps them apart from each other (the
    arrival, selector and update generators use ``seed``, ``+1`` and
    ``+2``).
    """
    traffic = workload.traffic if qps is None else replace(workload.traffic, qps=qps)
    stream_seed = seed + 1000 * stream
    pool = dataset.queries[stream * workload.pool : (stream + 1) * workload.pool]
    arrivals = workload_arrivals(traffic, pool.shape[0], stream_seed)
    updates = workload_updates(traffic, dataset.data, stream_seed)
    service = QueryService(
        sharded,
        dispatch=workload.serving.dispatch_config(),
        routing=workload.serving.routing_config(),
        workers_per_shard=workload.serving.workers_per_shard,
        tracer=tracer,
    )
    ingest = workload.serving.ingest_config() if updates else None
    rate_before = probe.rate()
    start = time.perf_counter()
    with _span(log, SERVE_ROOT):
        with _span(log, "serving.loop"):
            report = service.run_arrivals(
                pool, arrivals, k=K, updates=updates or None, ingest=ingest
            )
    serve_s = time.perf_counter() - start
    return StreamRun(
        stream=stream,
        pool=pool,
        report=report,
        stats=service.stats,
        answers=service.answers,
        arrivals=arrivals,
        updates=updates,
        serve_s=serve_s,
        ref_s=serve_s * probe.speed(rate_before, probe.rate()),
        index_bytes=sharded.storage_bytes,
        bytes_written=sum(shard.index.built.store.bytes_written for shard in sharded.shards),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )


def run_pass(
    workload: Workload,
    seed: int,
    streams: int | None = None,
    tracer: Any = None,
    log: SpanLog | None = None,
) -> Pass:
    """Build, then serve the first ``streams`` streams (default: all).

    Read streams share one index.  Ingest merges rewrite the block store,
    so every ingest stream starts from a build of its own.
    """
    gc.collect()
    dataset, sharded, setup_s = build(workload, log)
    setups, runs = [setup_s], []
    for r in range(workload.streams if streams is None else streams):
        if r and workload.traffic.ingest_requests:
            del sharded
            gc.collect()
            dataset, sharded, setup_s = build(workload, log)
            setups.append(setup_s)
        runs.append(serve(workload, seed, dataset, sharded, stream=r, tracer=tracer, log=log))
    return Pass(workload, seed, setups, dataset, sharded, runs)

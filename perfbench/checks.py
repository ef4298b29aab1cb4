"""Output checks, answer quality and the determinism fingerprint of a run.

The checks fail the benchmark run; they are what a future result cache
must pass:

- every answer holds at most k unique ids in ascending distance, and
  each distance equals the exact distance from the query to that id's
  live vector (float64 arithmetic, relative tolerance 1e-9 so a change
  of summation order is not a failure);
- on ingest traffic, no answer holds an id whose delete was applied
  before the query arrived;
- every offered query and update is accounted for exactly once.

Recall and overall ratio are measured against ``eval.ground_truth.exact_knn``
over the queried pool rows.  With ingest traffic the truth for a query
is the top-k of the objects live when it arrived (initial objects plus
inserts applied before, minus deletes applied before).
"""

from __future__ import annotations

import hashlib
import math
import statistics
import struct
from typing import Any

import numpy as np

from repro.eval.ground_truth import GroundTruth, exact_knn
from repro.eval.ratio import overall_ratio, recall_at_k
from repro.stats import QueryStats

from workloads import K, P99_LIMIT_MS, Pass, StreamRun

_DISTANCE_RTOL = 1e-9
_NS_PER_MS = 1e6
#: Pool rows per exact-search call; keeps the distance matrix small,
#: because peak RSS is a reported metric of this process.
_TRUTH_CHUNK = 64


class IngestHistory:
    """When each object became live or dead, from the applied-update log.

    Physical ids of inserts are assigned in admission order, so they are
    recovered from the applied insert records (every admitted insert is
    applied by run end); a delete whose insert was shed resolves to
    nothing, exactly as in the coordinator.
    """

    def __init__(self, n: int, run: StreamRun) -> None:
        records = run.stats.update_records
        applied = {r.update_id: r.finish_ns for r in records}
        by_id = {u.update_id: u for u in run.updates}
        inserts = sorted(r.update_id for r in records if r.kind == "insert")
        physical = {uid: n + rank for rank, uid in enumerate(inserts)}
        scheduled = [u.update_id for u in run.updates if u.kind == "insert"]
        self.n = n
        self.vectors = {physical[uid]: by_id[uid].vector for uid in inserts}
        self.born_ns = {physical[uid]: applied[uid] for uid in inserts}
        self.died_ns: dict[int, float] = {}
        for r in records:
            if r.kind != "delete":
                continue
            target = by_id[r.update_id].object_id
            gid = target if target < n else physical.get(scheduled[target - n])
            if gid is not None:
                self.died_ns[gid] = r.finish_ns

    def live_at(self, gid: int, t_ns: float) -> bool:
        if gid >= self.n and self.born_ns.get(gid, math.inf) > t_ns:
            return False
        return self.died_ns.get(gid, math.inf) > t_ns

    def vectors_after(self, data: np.ndarray) -> np.ndarray:
        """``data`` followed by every inserted vector, indexed by id."""
        if not self.vectors:
            return data
        return np.vstack([data, np.stack([self.vectors[g] for g in sorted(self.vectors)])])


def check_run(p: Pass, run: StreamRun) -> list[str]:
    """Every output check on one serving run; returns the failures."""
    errors: list[str] = []
    report = run.report
    history = IngestHistory(p.dataset.n, run) if run.updates else None
    vectors = p.dataset.data if history is None else history.vectors_after(p.dataset.data)
    pool = run.pool.astype(np.float64)
    where_run = f"stream {run.stream}"

    if report.completed + report.rejected != len(run.arrivals):
        errors.append(
            f"{where_run}: {len(run.arrivals)} queries offered, {report.completed} "
            f"completed + {report.rejected} rejected"
        )
    if run.updates:
        accounted = report.updates_completed + report.updates_rejected + report.updates_noop
        if accounted != len(run.updates):
            errors.append(
                f"{where_run}: {len(run.updates)} updates offered, {accounted} accounted for"
            )

    for record in run.stats.records:
        where = f"{where_run} query {record.query_id}"
        answer = run.answers.get(record.query_id)
        if answer is None:
            errors.append(f"{where}: completed without an answer")
            continue
        ids = np.asarray(answer.ids, dtype=np.int64)
        dists = np.asarray(answer.distances, dtype=np.float64)
        if ids.size > K or ids.size != dists.size:
            errors.append(f"{where}: {ids.size} ids / {dists.size} distances for k={K}")
            continue
        if np.unique(ids).size != ids.size:
            errors.append(f"{where}: duplicate ids {ids.tolist()}")
        if np.any(np.diff(dists) < 0):
            errors.append(f"{where}: distances not ascending")
        if ids.size and (ids.min() < 0 or ids.max() >= vectors.shape[0]):
            errors.append(f"{where}: id outside the live id range")
            continue
        diffs = vectors[ids].astype(np.float64) - pool[record.pool_index]
        exact = np.sqrt(np.einsum("nd,nd->n", diffs, diffs))
        if not np.allclose(dists, exact, rtol=_DISTANCE_RTOL, atol=0.0):
            errors.append(f"{where}: returned distances differ from exact distances")
        if history is not None:
            dead = [
                g for g in ids.tolist()
                if history.died_ns.get(g, math.inf) <= record.arrival_ns
            ]
            if dead:
                errors.append(f"{where}: answer holds ids deleted before arrival: {dead}")
        if len(errors) > 20:
            errors.append("... further errors suppressed")
            break
    return errors


def quality(p: Pass) -> dict[str, float]:
    """Recall@k and overall ratio over every completed query of a pass."""
    answer_ids, answer_dists, truth_ids, truth_dists = [], [], [], []
    for run in p.runs:
        records = run.stats.records
        history = IngestHistory(p.dataset.n, run) if run.updates else None
        vectors = p.dataset.data if history is None else history.vectors_after(p.dataset.data)
        vectors = vectors.astype(np.float64)
        rows = sorted({r.pool_index for r in records})
        slack = 0 if history is None else len(history.vectors) + len(history.died_ns)
        depth = min(K + slack, vectors.shape[0])
        chunks = [
            exact_knn(vectors, run.pool[rows[i : i + _TRUTH_CHUNK]], depth)
            for i in range(0, len(rows), _TRUTH_CHUNK)
        ]
        ids_by_row = np.concatenate([c.ids for c in chunks])
        dists_by_row = np.concatenate([c.distances for c in chunks])
        row_of = {pool_index: i for i, pool_index in enumerate(rows)}
        for r in records:
            ids, dists = ids_by_row[row_of[r.pool_index]], dists_by_row[row_of[r.pool_index]]
            if history is not None:
                keep = [history.live_at(g, r.arrival_ns) for g in ids.tolist()]
                ids, dists = ids[keep], dists[keep]
            truth_ids.append(ids[:K])
            truth_dists.append(dists[:K])
            answer = run.answers[r.query_id]
            answer_ids.append(answer.ids)
            answer_dists.append(answer.distances)
    truth = GroundTruth(ids=np.stack(truth_ids), distances=np.stack(truth_dists))
    return {
        "recall_at_10": recall_at_k(answer_ids, truth, K),
        "overall_ratio": overall_ratio(answer_dists, truth, K),
    }


def sim_metrics(p: Pass, run: StreamRun) -> dict[str, Any]:
    """Every simulated and count figure of one run (deterministic per seed)."""
    report = run.report
    records = run.stats.records
    latencies = np.array([r.latency_ns for r in records], dtype=np.float64)
    offered = report.completed + report.rejected
    within = int((latencies <= P99_LIMIT_MS * _NS_PER_MS).sum())
    merged = QueryStats()
    for r in records:
        merged.merge(run.answers[r.query_id].stats)
    completed = max(report.completed, 1)
    data_bytes = p.dataset.data.nbytes
    inserted_bytes = report.inserts_applied * p.dataset.data.shape[1] * 4
    return {
        "queries_offered": offered,
        "queries_completed": report.completed,
        "queries_rejected": report.rejected,
        "updates_offered": len(run.updates),
        "updates_applied": report.updates_completed,
        "updates_rejected": report.updates_rejected,
        "updates_noop": report.updates_noop,
        "sim_p50_ms": report.p50_ns / _NS_PER_MS,
        "sim_p99_ms": report.p99_ns / _NS_PER_MS,
        "sim_slo_frac": within / offered if offered else 0.0,
        "sim_update_p50_ms": report.update_p50_ns / _NS_PER_MS,
        "sim_update_p95_ms": report.update_p95_ns / _NS_PER_MS,
        "ios_per_query": report.mean_ios_per_query,
        "candidates_per_query": merged.candidates_checked / completed,
        "rungs_per_query": merged.rungs_searched / completed,
        "bucket_blocks_per_query": merged.bucket_blocks_read / completed,
        "wave_size": report.mean_batch_size,
        "queue_depth_mean": report.mean_queue_depth,
        "merges": report.merges_completed,
        "write_ios": sum(report.shard_write_io_counts),
        "merge_write_bytes": report.merge_write_bytes,
        "merge_write_amp": report.merge_write_bytes / inserted_bytes if inserted_bytes else 0.0,
        "write_amp": run.bytes_written / (data_bytes + inserted_bytes),
        "index_bytes": run.index_bytes,
        "index_bytes_per_data_byte": run.index_bytes / data_bytes,
        "digest": _digest(run),
    }


def combine(per_stream: list[dict[str, Any]]) -> dict[str, Any]:
    """Medians over streams of each figure; counts of operations are summed."""
    summed = {k for k in per_stream[0] if k.startswith(("queries_", "updates_"))}
    out: dict[str, Any] = {}
    for key in per_stream[0]:
        values = [s[key] for s in per_stream]
        if key == "digest":
            out[key] = values
        elif key in summed:
            out[key] = sum(values)
        else:
            out[key] = statistics.median(values)
    out["streams"] = len(per_stream)
    out["samples_per_stream"] = per_stream[0]["queries_completed"]
    return out


def _digest(run: StreamRun) -> str:
    """Hash of every record and answer, in completion order."""
    h = hashlib.sha256()
    stats = run.stats
    for r in stats.records:
        answer = run.answers[r.query_id]
        h.update(struct.pack("<qqdd", r.query_id, r.pool_index, r.arrival_ns, r.finish_ns))
        h.update(np.asarray(answer.ids, dtype=np.int64).tobytes())
        h.update(np.asarray(answer.distances, dtype=np.float64).tobytes())
    for u in stats.update_records:
        h.update(struct.pack("<qdd", u.update_id, u.arrival_ns, u.finish_ns))
        h.update(u.kind.encode())
    for m in stats.merge_records:
        h.update(struct.pack("<qddqq", m.shard_id, m.start_ns, m.finish_ns,
                             m.write_ios, m.write_bytes))
    return h.hexdigest()


def mismatches(first: dict[str, Any], other: dict[str, Any]) -> list[str]:
    """Keys whose values differ between two fingerprints."""
    return sorted(key for key in first if first[key] != other.get(key))


def tail_split(tracer: Any, p99_ns: float) -> dict[str, float]:
    """Mean simulated batch/queue/hash/io time of the p99-and-above queries."""
    tail = [a for a in tracer.attributions() if a.latency_ns >= p99_ns]
    if not tail:
        return {"batch": 0.0, "queue": 0.0, "hash": 0.0, "io": 0.0}
    return {
        part: float(np.mean([getattr(a, f"{part}_ns") for a in tail])) / _NS_PER_MS
        for part in ("batch", "queue", "hash", "io")
    }

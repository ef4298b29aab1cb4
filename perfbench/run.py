"""Benchmark entry point: ``python3 perfbench/run.py [--workload NAME] ...``.

With ``--workload`` it runs that one workload in this process and prints
its metrics, then one JSON result line (the last line of stdout).
Without it, it runs every workload, each in a fresh child process, and
exits non-zero if any of them failed a check.  See ``README.md`` in this
directory for the metrics, workloads and what each layer should move.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))

try:
    import repro
except ImportError as exc:
    print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
    sys.exit(2)
if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
    print(f"perfbench: imported {repro.__file__}, not this checkout's src/", file=sys.stderr)
    sys.exit(2)

from checks import check_run, combine, mismatches, quality, sim_metrics, tail_split  # noqa: E402
from repro.obs.trace import SpanTracer  # noqa: E402
from spans import SERVE_ROOT, SETUP_ROOT, LayerHooks, SpanLog  # noqa: E402
from workloads import K, P99_LIMIT_MS, WORKLOADS, Pass, run_pass, serve  # noqa: E402

#: Fewest passes per run: a second pass is the determinism check.
MIN_PASSES = 2
#: Completed rate at least this share of the offered rate counts as
#: "no growing backlog" on a capacity-ladder rung.
_KEEP_UP = 0.95

#: Metric names and units, in BENCHMARK.json order.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [(m["name"], m["unit"]) for m in _SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in _SPEC["per_layer"]]


def _ladder(first: Pass, reference: dict) -> tuple[float, list[dict], list[str]]:
    """Serve stream 0 at each ladder rate on the first pass's index, in order.

    Returns the highest rate whose p99 meets the limit with no rejection
    and a completed rate keeping up with the offered one, the per-rung
    figures, and determinism errors (the nominal-rate rung must match
    the cold pass exactly: the plan memo may change speed, not results).
    """
    w = first.workload
    capacity, rungs, errors = 0.0, [], []
    for rate in w.ladder:
        run = serve(w, first.seed, first.dataset, first.sharded, qps=rate)
        report = run.report
        span_ns = run.arrivals[-1].time_ns - run.arrivals[0].time_ns
        offered_qps = (len(run.arrivals) - 1) * 1e9 / span_ns
        p99_ms = report.p99_ns / 1e6
        meets = (
            report.rejected == 0
            and p99_ms <= P99_LIMIT_MS
            and report.throughput_qps >= _KEEP_UP * offered_qps
        )
        if meets:
            capacity = max(capacity, rate)
        rungs.append({"qps": rate, "p99_ms": p99_ms, "rejected": report.rejected,
                      "completed": report.completed, "completed_qps": report.throughput_qps,
                      "wall_s": run.serve_s, "ref_s": run.ref_s, "meets": meets})
        if rate == w.traffic.qps:
            diff = mismatches(reference, sim_metrics(first, run))
            if diff:
                errors.append(f"ladder rung {rate:g} q/s (warm index) differs from "
                              f"the cold pass in {diff}")
    return capacity, rungs, errors


def _beyond_p99(samples: int) -> int:
    """Samples above the nearest-rank p99."""
    return samples - -(-99 * samples // 100)


def _accounting(sim: dict) -> dict:
    attempted = sim["queries_offered"] + sim["updates_offered"]
    failed = sim["queries_rejected"] + sim["updates_rejected"]
    return {"attempted": attempted, "failed": failed,
            "failed_frac": failed / attempted if attempted else 0.0}


def measure(workload_name: str, seed: int, seconds: float) -> dict:
    """Untraced run: passes until ``seconds`` elapse (at least two).

    Pass 1 serves every stream and is checked; later passes rebuild and
    serve stream 0 again, which must reproduce pass 1's stream 0 exactly.
    ``wall_qps_norm`` pools every serving run (passes and ladder rungs):
    queries completed over total serving wall time at the reference
    host speed (``probe.py``).  The raw ``wall_qps`` is reported beside it.
    """
    w = WORKLOADS[workload_name]
    start = time.perf_counter()
    first = run_pass(w, seed)
    per_stream = [sim_metrics(first, run) for run in first.runs]
    sim = combine(per_stream)
    errors = [e for run in first.runs for e in check_run(first, run)]
    if _beyond_p99(sim["samples_per_stream"]) < 10:
        errors.append("p99 has fewer than 10 samples beyond it")
    quality_figures = quality(first)
    first_rss_mb = first.runs[0].peak_rss_mb
    capacity, rungs, ladder_errors = _ladder(first, per_stream[0])
    errors += ladder_errors
    setups, passes = list(first.setups), 1
    served = [(run.report.completed, run.serve_s, run.ref_s) for run in first.runs]
    served += [(rung["completed"], rung["wall_s"], rung["ref_s"]) for rung in rungs]
    del first
    last = time.perf_counter() - start
    while passes < MIN_PASSES or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        p = run_pass(w, seed, streams=1)
        diff = mismatches(per_stream[0], sim_metrics(p, p.runs[0]))
        if diff:
            errors.append(f"pass {passes + 1} differs from pass 1 in {diff}")
        passes += 1
        setups += p.setups
        served.append((p.runs[0].report.completed, p.runs[0].serve_s, p.runs[0].ref_s))
        del p
        last = time.perf_counter() - began
    completed = sum(done for done, _, _ in served)
    serving_s = sum(wall for _, wall, _ in served)
    ref_s = sum(ref for _, _, ref in served)
    metrics = {
        "wall_qps_norm": completed / ref_s,
        "setup_s": statistics.median(setups),
        # A fresh process after one build and one stream; later builds
        # and the benchmark's own checks would only add allocator noise.
        "peak_rss_mb": first_rss_mb,
        **{k: sim[k] for k in ("sim_p50_ms", "sim_p99_ms", "sim_slo_frac",
                               "index_bytes_per_data_byte", "write_amp")},
        **quality_figures,
    }
    ingest = bool(w.traffic.ingest_requests)
    details = {
        "passes": passes,
        "serving_runs": len(served),
        "serving_s": serving_s,
        "wall_qps": completed / serving_s,
        "host_speed": ref_s / serving_s,
        "setup_s_samples": setups,
        "sim": sim,
        "sim_capacity_qps": capacity if w.ladder else None,
        "ladder": rungs,
        "sim_update_p50_ms": sim["sim_update_p50_ms"] if ingest else None,
        "sim_update_p95_ms": sim["sim_update_p95_ms"] if ingest else None,
        **_accounting(sim),
    }
    return {"metrics": metrics, "errors": errors, "details": details}


def trace(workload_name: str, seed: int) -> dict:
    """Traced run: an untraced reference pass, then the same pass traced.

    Both passes serve stream 0 only; the traced one must reproduce the
    untraced one exactly (tracing observes, it does not change results).
    """
    w = WORKLOADS[workload_name]
    plain = run_pass(w, seed, streams=1)
    reference = sim_metrics(plain, plain.runs[0])
    errors = check_run(plain, plain.runs[0])
    capacity, rungs, ladder_errors = _ladder(plain, reference)
    errors += ladder_errors
    untraced_s = plain.runs[0].ref_s
    del plain

    log = SpanLog()
    hooks = LayerHooks(log)
    tracer = SpanTracer()
    hooks.install()
    try:
        traced = run_pass(w, seed, streams=1, tracer=tracer, log=log)
    finally:
        hooks.remove()
    run = traced.runs[0]
    sim = sim_metrics(traced, run)
    diff = mismatches(reference, sim)
    if diff:
        errors.append(f"traced pass differs from the untraced pass in {diff}")
    setup = log.layer_times(SETUP_ROOT)
    serving = log.layer_times(SERVE_ROOT)

    def self_s(name: str) -> float:
        return serving.get(name, (0.0, 0.0, 0))[0]

    split = tail_split(tracer, run.report.p99_ns)
    rows = log.counters.get("plan_rows", 0.0)
    metrics = {
        "datasets.load_s": setup.get("datasets.load", (0.0, 0.0, 0))[1],
        "layout.build_s": setup.get("layout.build", (0.0, 0.0, 0))[1],
        "serving.sharding.build_s": setup.get("serving.sharding.build", (0.0, 0.0, 0))[0],
        "layout.index_bytes": float(sim["index_bytes"]),
        "core.plan_s": self_s("core.plan"),
        "core.plan_rows": rows,
        "core.plan_reuse_frac": log.counters.get("plan_reused", 0.0) / rows if rows else 0.0,
        "core.task_s": self_s("core.task"),
        "core.candidates_per_query": sim["candidates_per_query"],
        "core.rungs_per_query": sim["rungs_per_query"],
        "core.bucket_blocks_per_query": sim["bucket_blocks_per_query"],
        "core.candidates_per_result": sim["candidates_per_query"] / K,
        "core.updates_s": self_s("core.updates"),
        "storage.ios_per_query": sim["ios_per_query"],
        "storage.device_s": self_s("storage.device"),
        "storage.device_calls": float(serving.get("storage.device", (0.0, 0.0, 0))[2]),
        "storage.blockstore_s": self_s("storage.blockstore"),
        "storage.step_s": self_s("storage.step"),
        "storage.write_ios": float(sim["write_ios"]),
        "storage.write_bytes": float(sim["merge_write_bytes"]),
        "serving.loop_s": self_s("serving.loop"),
        "serving.dispatcher.admit_s": self_s("serving.dispatcher.admit"),
        "serving.dispatcher.flush_s": self_s("serving.dispatcher.flush"),
        "serving.dispatcher.done_s": self_s("serving.dispatcher.done"),
        "serving.merge_s": self_s("serving.merge"),
        "serving.ingest.finish_s": self_s("serving.ingest.finish"),
        "serving.ingest.apply_s": self_s("serving.ingest.apply"),
        "serving.ingest.merges": float(sim["merges"]),
        "serving.ingest.merge_debt_max": log.counters.get("merge_debt_max", 0.0),
        "serving.ingest.merge_write_amp": sim["merge_write_amp"],
        "serving.ingest.update_p50_ms": sim["sim_update_p50_ms"],
        "serving.ingest.update_p95_ms": sim["sim_update_p95_ms"],
        "serving.wave_size": sim["wave_size"],
        "serving.queue_depth_mean": sim["queue_depth_mean"],
        "serving.sim_batch_ms": split["batch"],
        "serving.sim_queue_ms": split["queue"],
        "serving.sim_hash_ms": split["hash"],
        "serving.sim_io_ms": split["io"],
        "serving.sim_capacity_qps": capacity,
        "obs.trace_overhead_frac": run.ref_s / untraced_s,
    }
    spans_path = OUT_DIR / f"spans-{workload_name}-seed{seed}.npz"
    log.write(spans_path)
    details = {
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans": len(log.name),
        "hooks_missing": hooks.missing,
        "untraced_ref_s": untraced_s,
        "traced_ref_s": run.ref_s,
        "ladder": rungs,
        "sim": {**sim, "streams": 1, "samples_per_stream": sim["queries_completed"]},
        **_accounting(sim),
    }
    return {"metrics": metrics, "errors": errors, "details": details}


def _print_report(name: str, seed: int, traced: bool, result: dict) -> None:
    table = PER_LAYER if traced else END_TO_END
    d = result["details"]
    sim = d["sim"]
    print(f"[{name}] seed {seed}, {'traced' if traced else 'untraced'} run")
    for metric, unit in table:
        print(f"  {metric:34s} {result['metrics'][metric]:>16.6g} {unit}")
    if not traced:
        print(f"  {'sim_capacity_qps':34s} {_opt(d['sim_capacity_qps']):>16s} 1/s")
        print(f"  {'failed_frac':34s} {d['failed_frac']:>16.6g} fraction "
              f"({d['failed']} of {d['attempted']} operations)")
        print(f"  {'sim_update_p50_ms':34s} {_opt(d['sim_update_p50_ms']):>16s} ms")
        print(f"  {'sim_update_p95_ms':34s} {_opt(d['sim_update_p95_ms']):>16s} ms")
        print(f"  {'wall_qps':34s} {d['wall_qps']:>16.6g} 1/s (raw; host speed "
              f"{d['host_speed']:.3f} of the reference, as serving feels it)")
        print(f"  wall_qps over {d['serving_runs']} serving runs ({d['serving_s']:.1f} s); "
              f"setup_s median of {len(d['setup_s_samples'])} builds in {d['passes']} passes")
    per = sim["samples_per_stream"]
    print(f"  sim percentiles: median over {sim['streams']} stream(s) of {per} completed "
          f"queries each ({_beyond_p99(per)} beyond p99)")
    print(f"  queries: sent {sim['queries_offered']}, succeeded {sim['queries_completed']}, "
          f"rejected {sim['queries_rejected']}")
    if sim["updates_offered"]:
        print(f"  updates: sent {sim['updates_offered']}, applied {sim['updates_applied']}, "
              f"rejected {sim['updates_rejected']}, no-op {sim['updates_noop']}")
    for rung in d["ladder"]:
        print(f"  ladder {rung['qps']:>8.0f} q/s: p99 {rung['p99_ms']:.3f} ms, "
              f"completed {rung['completed_qps']:.0f} q/s, rejected {rung['rejected']}, "
              f"{'meets' if rung['meets'] else 'misses'} the limit")
    if traced:
        print(f"  spans: {d['spans']} written to {d['spans_file']}")
    for error in result["errors"]:
        print(f"  CHECK FAILED: {error}")


def _opt(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def run_one(args: argparse.Namespace) -> int:
    traced = bool(args.trace)
    if traced:
        result = trace(args.workload, args.seed)
    else:
        result = measure(args.workload, args.seed, args.seconds)
    _print_report(args.workload, args.seed, traced, result)
    OUT_DIR.mkdir(exist_ok=True)
    detail_path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail_path.write_text(json.dumps(result, indent=1, sort_keys=True, default=float))
    table = PER_LAYER if traced else END_TO_END
    line = {
        "correct": not result["errors"],
        "attempted": result["details"]["attempted"],
        "failed": result["details"]["failed"],
        "metrics": {
            name: {"value": float(result["metrics"][name]), "unit": unit}
            for name, unit in table
        },
    }
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in its own fresh process (warm-state discipline)."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        child = subprocess.run(cmd)
        if child.returncode != 0:
            print(f"[{name}] FAILED (exit {child.returncode})", flush=True)
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(_SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

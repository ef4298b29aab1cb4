"""Host-speed probe: a fixed slice of interpreter work timed beside serving.

The benchmark runs on a shared host whose speed drifts by 10-30 % over
tens of seconds, for every program on it alike.  ``wall_qps_norm``
divides that drift out: each serving run is bracketed by two probes,
and its wall time is rescaled by ``speed`` of the two probe rates.  The
probe is the same kind of work the serving loop does (heap pushes and
pops of event tuples, dict counters, small NumPy dot products and
partitions), runs with the cyclic collector off so that the size of the
program's heap does not leak into it, and imports nothing from the
program, so a change to the program cannot move it.  It assumes the
program leaves no threads running between serving runs.
"""

from __future__ import annotations

import gc
import heapq
import time

import numpy as np

#: Probe rounds per second on the reference host (2-vCPU Xeon VM at
#: 2.1 GHz, CPython 3.11, NumPy 2.4) when it ran undisturbed.  It only
#: fixes the scale: ``wall_qps_norm`` equals ``wall_qps`` when the host
#: runs at this speed.
REF_RATE = 125.0

#: Elasticity of serving speed to probe speed.  Serving mixes interpreter
#: work with memory-bound array work, so it speeds up less than the probe
#: when the host speeds up: a least-squares fit of log serving speed on
#: log probe speed over a 4-minute trace of one repeated ``zipf-read``
#: serving run gave 0.65.  Rescaling by the full probe ratio over-corrects.
ELASTICITY = 0.65

_ROUNDS = 16
_EVENTS = 6_000
_VECTORS = np.random.default_rng(0).standard_normal((256, 128))


def _round() -> float:
    heap: list[tuple[int, int, int]] = []
    counts: dict[int, int] = {}
    acc = 0.0
    for i in range(_EVENTS):
        heapq.heappush(heap, ((i * 7919) % 10_007, i & 3, i))
        counts[i % 997] = counts.get(i % 997, 0) + 1
        if i % 3 == 0:
            acc += heapq.heappop(heap)[0]
        if i % 16 == 0:
            row = _VECTORS[i & 255]
            acc += float(row @ _VECTORS[(i * 13) & 255])
            acc += float(np.argpartition(row, 10)[0])
    return acc


def rate() -> float:
    """Probe rounds per second right now, with the cyclic collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(_ROUNDS):
            _round()
        return _ROUNDS / (time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()


def speed(rate_before: float, rate_after: float) -> float:
    """Host speed relative to the reference, as serving feels it."""
    return ((rate_before + rate_after) / (2.0 * REF_RATE)) ** ELASTICITY

"""Workload ``batch``: ``schedule_batch(jobs=2)`` on one warm pool.

Each timed batch holds ``corpus.BATCH_DISTINCT`` paper-scale instances
the pool has never seen, each sent ``corpus.BATCH_DUP`` times under a
different edge-id order.  ``parallel.pool``, ``parallel.wire`` and the
canonical dedup do the work; each item's compute is small.  Re-sending
one batch would measure the workers' persistent caches instead.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import statistics
import time

from repro import obs
from repro.core.cache import ScheduleCache, canonical_signature
from repro.parallel import decode_graph, encode_graph, make_schedule_pool, schedule_batch

import corpus
from measure import Checker, Spans, end_to_end, pss_mib

JOBS = 2
ALGORITHM = "oggp"
#: Latency limit per batch call for slo_met_frac.
SLO_S = 2.0


class _TimedPool:
    """Passes through to a pool, recording a span around ``map``."""

    def __init__(self, pool, spans: Spans) -> None:
        self._pool = pool
        self._spans = spans

    def map(self, *args, **kwargs):
        return self._spans.call("parallel.pool.map", self._pool.map, *args, **kwargs)

    def __getattr__(self, name: str):
        return getattr(self._pool, name)


def _batch(graphs, pool, cache):
    return schedule_batch(
        graphs, ALGORITHM, corpus.SERVE_K, corpus.BETA,
        jobs=JOBS, pool=pool, cache=cache,
    )


def _setup(seed: int):
    """Spawn and warm a pool five times; keep the last one."""
    warm = corpus.batch_graphs(seed, -1)
    totals, spawns = [], []
    pool = None
    for _ in range(5):
        if pool is not None:
            pool.shutdown()
        start = time.perf_counter()
        pool = make_schedule_pool(JOBS)
        spawns.append(time.perf_counter() - start)
        _batch(warm, pool, ScheduleCache())
        totals.append(time.perf_counter() - start)
    return pool, statistics.median(totals), statistics.median(spawns)


def _timed_batches(seed, first, seconds, pool, cache, checker, spans=None, registry=None):
    """Run fresh batches until ``seconds`` of wall time pass.

    With ``spans`` the program's own telemetry records into ``registry``
    and the parent-side layers are timed after each call.  Returns
    per-batch latencies, items attempted, items failed, the next batch
    index and the peak memory of this process and its live pool workers
    (summed Pss, sampled after each call).
    """
    latencies, items, failed = [], 0, 0
    peak_mib = 0.0
    index = first
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        graphs = corpus.batch_graphs(seed, index)
        index += 1
        items += len(graphs)
        t0 = time.perf_counter()
        try:
            if spans is None:
                schedules = _batch(graphs, pool, cache)
            else:
                with obs.observed(registry=registry):
                    schedules = _batch(graphs, pool, cache)
        except Exception as exc:
            print(f"batch {index - 1} raised {type(exc).__name__}: {exc}")
            failed += len(graphs)
            continue
        dt = time.perf_counter() - t0
        latencies.append(dt)
        pids = [os.getpid()] + [p.pid for p in multiprocessing.active_children()]
        peak_mib = max(peak_mib, pss_mib(pids))
        for j, (graph, sched) in enumerate(zip(graphs, schedules)):
            checker.check(sched, graph, corpus.SERVE_K, corpus.BETA,
                          f"batch {index - 1} item {j}", record=spans is None)
        if spans is not None:
            spans.add("schedule_batch", dt)
            _layer_spans(graphs, spans)
    return latencies, items, failed, index, peak_mib


def _layer_spans(graphs, spans: Spans) -> None:
    """Time the parent-side layers of one batch, call by call."""
    seen = set()
    for graph in graphs:
        signature = spans.call("core.cache.signature", canonical_signature, graph)
        if signature in seen:
            continue
        seen.add(signature)
        blob = spans.call("parallel.wire.encode", encode_graph, graph)
        spans.call("parallel.wire.decode", decode_graph, blob)
        spans.durations["parallel.wire.bytes"].append(len(blob))


def run(_workload: str, seed: int, seconds: float, trace: bool) -> dict:
    pool, setup_s, spawn_s = _setup(seed)
    fp = corpus.fingerprint(corpus.workload_graphs("batch", seed))
    notes = [f"batch: {corpus.BATCH_DISTINCT} x {corpus.BATCH_DUP} items per batch, "
             f"fingerprint of the first batches {fp}"]
    checker = Checker()
    cache = ScheduleCache(maxsize=256)
    try:
        if trace:
            return _run_traced(seed, seconds, pool, cache, checker, spawn_s, notes)
        latencies, items, failed, _, peak_mib = _timed_batches(
            seed, 0, seconds, pool, cache, checker
        )
    finally:
        pool.shutdown()
    metrics, note = end_to_end(
        setup_s=setup_s,
        throughput=(items - failed) / math.fsum(latencies),
        latencies=latencies,
        slo_s=SLO_S,
        slo_samples=latencies + [None] * (failed // corpus.BATCH_SIZE),
        ratios=checker.ratios,
        attempted=items,
        failed=failed,
        rss=peak_mib,
    )
    notes.append(f"{len(latencies)} batch calls; {note}")
    return {"metrics": metrics, "attempted": items, "failed": failed, "notes": notes}


def _run_traced(seed, seconds, pool, cache, checker, spawn_s, notes) -> dict:
    base_lat, base_items, base_failed, index, _ = _timed_batches(
        seed, 0, seconds / 2, pool, cache, checker
    )
    spans = Spans(enabled=True)
    registry = obs.MetricsRegistry()
    before = cache.stats()
    lat, items, failed, _, _ = _timed_batches(
        seed, index, seconds / 2, _TimedPool(pool, spans), cache, checker,
        spans, registry,
    )
    after = cache.stats()
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    graphs = registry.counter("parallel.batch_graphs").value
    dispatched = registry.counter("parallel.batch_dispatched").value
    overhead = (base_items / math.fsum(base_lat)) / (items / math.fsum(lat)) - 1.0
    self_s = [
        total - mapped
        for total, mapped in zip(
            spans.durations["schedule_batch"], spans.durations["parallel.pool.map"]
        )
    ]
    notes.append(f"{len(base_lat)} untraced + {len(lat)} traced batch calls; "
                 f"overhead {overhead:+.4f}")
    metrics = {
        "core.cache.signature.self_s": spans.mean("core.cache.signature"),
        "core.cache.hit_frac": hits / lookups if lookups else 0.0,
        "core.cache.evictions": after["evictions"] - before["evictions"],
        "parallel.wire.encode.self_s": spans.mean("parallel.wire.encode"),
        "parallel.wire.decode.self_s": spans.mean("parallel.wire.decode"),
        "parallel.wire.bytes": spans.mean("parallel.wire.bytes"),
        "parallel.batch.dedup_frac": dispatched / graphs if graphs else 0.0,
        "parallel.batch.self_s": statistics.fmean(self_s),
        "parallel.pool.spawn_s": spawn_s,
        "trace.overhead_frac": overhead,
    }
    return {"metrics": metrics, "attempted": base_items + items,
            "failed": base_failed + failed, "notes": notes}

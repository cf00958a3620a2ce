"""Workload ``solve``: serial in-process GGP/OGGP over the fixed corpus.

Peeling and matching do nearly all the work here; serve, parallel and
the schedule cache do none.  The untraced run repeats the corpus while
time remains and keeps each instance's median call time.  The traced
run calls every instance once untraced (the overhead baseline, and the
span the self times split) and once traced, then times
``engine='approx'`` on every OGGP instance the exact engine also ran,
for the size crossover table.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from collections import defaultdict
from pathlib import Path

from repro import obs
from repro.core.bounds import lower_bound
from repro.core.ggp import ggp
from repro.core.normalize import normalize_weights
from repro.core.oggp import oggp
from repro.core.regularize import regularize
from repro.core.wrgp import peel_rounds_approx, peel_weight_regular

import corpus
from measure import Checker, Spans, end_to_end, rss_mib

#: Per-call latency limit for slo_met_frac (the dearest instance, OGGP on
#: a 20-per-side hotspot pattern, takes about half a second on a 2-CPU box).
SLO_S = 2.0


def schedule(inst: corpus.Instance, engine: str | None = None):
    """Schedule one corpus entry; the default engine is never named."""
    fn = ggp if inst.algorithm == "ggp" else oggp
    engine = engine or inst.engine
    if engine is None:
        return fn(inst.graph, inst.k, corpus.BETA)
    return fn(inst.graph, inst.k, corpus.BETA, engine=engine)


def _timed(inst: corpus.Instance, engine: str | None = None):
    start = time.perf_counter()
    sched = schedule(inst, engine)
    return sched, time.perf_counter() - start


def _peel(inst: corpus.Instance, graph) -> int:
    """Drive the peeling loop GGP/OGGP would run on ``graph``; returns peels."""
    if inst.engine == "approx":
        rounds = peel_rounds_approx(graph)
    else:
        matching = "max_weight" if inst.algorithm == "ggp" else "bottleneck"
        rounds = peel_weight_regular(graph, matching=matching)
    return sum(1 for _ in rounds)


def _count(registry, name: str) -> float:
    metric = registry.get(name)
    return metric.value if metric is not None else 0


def _setup(seed: int) -> tuple[list[corpus.Instance], float, str]:
    times = []
    for _ in range(7):
        start = time.perf_counter()
        instances = corpus.solve_corpus(seed)
        schedule(instances[0])  # first call pays lazy imports
        times.append(time.perf_counter() - start)
    fp = corpus.fingerprint(inst.graph for inst in instances)
    return instances, statistics.median(times), fp


def _untraced(i: int, inst: corpus.Instance, checker: Checker, record: bool) -> float:
    """One untraced call, checked outside the timer; inf if it raised."""
    try:
        sched, dt = _timed(inst)
    except Exception as exc:
        print(f"solve: instance {i} raised {type(exc).__name__}: {exc}")
        return math.inf
    checker.check(sched, inst.graph, inst.k, corpus.BETA, f"solve #{i}", record)
    return dt


def _pass(instances, checker: Checker, record: bool) -> tuple[list[float], int]:
    """One untraced pass over the corpus; returns call times and failures."""
    times = [_untraced(i, inst, checker, record) for i, inst in enumerate(instances)]
    return times, sum(1 for t in times if math.isinf(t))


def run(_workload: str, seed: int, seconds: float, trace: bool) -> dict:
    instances, setup_s, fp = _setup(seed)
    notes = [f"solve corpus: {len(instances)} instances, fingerprint {fp}"]
    checker = Checker()
    if trace:
        return _run_traced(instances, checker, notes)

    start = time.perf_counter()
    per_instance: list[list[float]] = [[] for _ in instances]
    passes = attempted = failed = 0
    while True:
        pass_start = time.perf_counter()
        times, pass_failed = _pass(instances, checker, record=not passes)
        passes += 1
        attempted += len(times)
        failed += pass_failed
        for slot, dt in zip(per_instance, times):
            slot.append(dt)
        wall = time.perf_counter() - pass_start
        if time.perf_counter() - start + wall > seconds:
            break
    # Each instance's median over the passes filters the box's bursts of
    # slowness; busy time is the sum of those medians.
    latencies = [statistics.median(s) for s in per_instance]
    ok = [t for t in latencies if math.isfinite(t)]
    metrics, note = end_to_end(
        setup_s=setup_s,
        throughput=len(ok) / math.fsum(ok),
        latencies=ok,
        slo_s=SLO_S,
        slo_samples=[t if math.isfinite(t) else None for t in latencies],
        ratios=checker.ratios,
        attempted=attempted,
        failed=failed,
        rss=rss_mib(),
    )
    notes.append(f"{passes} passes; {note}")
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "notes": notes}


def _run_traced(instances, checker: Checker, notes: list[str]) -> dict:
    spans = Spans(enabled=True)
    registry = obs.MetricsRegistry()
    baseline, extract = [], []
    for i, inst in enumerate(instances):
        # The untraced call (the overhead baseline) and the traced one run
        # back to back, in alternating order, so the box's drift hits both.
        if i % 2:
            baseline.append(_untraced(i, inst, checker, True))
        with obs.observed(registry=registry):
            sched = spans.call("ggp", schedule, inst)
        if not i % 2:
            baseline.append(_untraced(i, inst, checker, True))
        spans.call("core.schedule.validate", sched.validate, inst.graph)
        checker.check(sched, inst.graph, inst.k, corpus.BETA, f"solve #{i}", False)
        spans.call("core.bounds", lower_bound, inst.graph, inst.k, corpus.BETA)
        spans.call("core.schedule.to_dict", sched.to_dict)
        # The layers GGP is made of, called one by one on the same input
        # with the program's own telemetry off, so counts above stay exact.
        problem = spans.call("core.normalize", normalize_weights, inst.graph, corpus.BETA)
        reg = spans.call("core.regularize", regularize, problem.graph, inst.k)
        spans.call("core.wrgp.peel", _peel, inst, reg.graph)
        children = sum(
            spans.durations[name][-1]
            for name in ("core.normalize", "core.regularize", "core.wrgp.peel")
        )
        # Extract is the untraced call minus its children, so it carries
        # no telemetry overhead; it is negative where the children, timed
        # on their own, took longer than the whole call.
        extract.append(baseline[i] - children)
    failed = sum(1 for t in baseline if math.isinf(t))
    traced_total = spans.total("ggp")
    untraced_total = math.fsum(baseline)
    overhead = traced_total / untraced_total - 1.0

    rows = _crossover(instances, baseline, checker)
    out_dir = Path(".perfbench-out")
    out_dir.mkdir(exist_ok=True)
    (out_dir / "crossover.json").write_text(json.dumps(rows, indent=1) + "\n")
    for row in rows:
        notes.append("crossover " + json.dumps(row, sort_keys=True))

    peels = _count(registry, "ggp.peels")
    probes = _count(registry, "matching.bottleneck.threshold_probes")
    skipped = _count(registry, "matching.bottleneck.skipped_probes")
    virtual = registry.get("regularize.virtual_edge_fraction")
    children_total = sum(
        spans.total(name)
        for name in ("core.normalize", "core.regularize", "core.wrgp.peel")
    )
    # The same phases as the registry timed them inside the traced calls.
    in_call = sum(
        registry.get(name).elapsed if registry.get(name) is not None else 0.0
        for name in ("ggp.normalize", "ggp.regularize")
    )
    alone = spans.total("core.normalize") + spans.total("core.regularize")
    notes.append(
        f"self times: children {children_total:.6f} s + extract "
        f"{math.fsum(extract):.6f} s = untraced ggp/oggp {untraced_total:.6f} s; "
        f"traced span {traced_total:.6f} s, overhead {overhead:+.4f}; children "
        f"alone exceed the untraced call on "
        f"{sum(1 for e in extract if e < 0)}/{len(extract)} instances; "
        f"normalize+regularize {alone:.6f} s alone vs {in_call:.6f} s in the traced calls"
    )
    metrics = {
        "core.normalize.self_s": spans.mean("core.normalize"),
        "core.regularize.self_s": spans.mean("core.regularize"),
        "core.wrgp.peel.self_s": spans.mean("core.wrgp.peel"),
        "core.ggp.extract.self_s": math.fsum(extract) / len(extract),
        "core.wrgp.peels": _count(registry, "wrgp.peels"),
        "core.ggp.virtual_step_frac": (
            _count(registry, "ggp.dropped_virtual_steps") / peels if peels else 0.0
        ),
        "core.regularize.virtual_edge_frac": virtual.mean if virtual else 0.0,
        "matching.threshold_probes": probes,
        "matching.skipped_probe_frac": (
            skipped / (probes + skipped) if probes + skipped else 0.0
        ),
        "matching.augmenting_paths": _count(registry, "matching.hk.augmenting_paths"),
        "matching.bfs_phases": _count(registry, "matching.hk.bfs_phases"),
        "core.bounds.self_s": spans.mean("core.bounds"),
        "core.schedule.to_dict.self_s": spans.mean("core.schedule.to_dict"),
        "core.schedule.validate.self_s": spans.mean("core.schedule.validate"),
        "trace.overhead_frac": overhead,
    }
    attempted = 2 * len(instances)
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "notes": notes}


def _crossover(instances, baseline: list[float], checker: Checker) -> list[dict]:
    """Median latency per (family, side, engine), default vs approx.

    Every OGGP instance the default exact engine ran is timed once more
    with ``engine='approx'``; the large approx-only instances keep their
    baseline time.  Diagnostics for a size rule, not end-to-end metrics.
    """
    cells: dict[tuple, list[float]] = defaultdict(list)
    for inst, dt in zip(instances, baseline):
        if inst.algorithm != "oggp":
            continue
        cells[(inst.family, inst.side, inst.engine or "default")].append(dt)
        if inst.engine is None:
            sched, approx_dt = _timed(inst, "approx")
            checker.check(sched, inst.graph, inst.k, corpus.BETA, "approx", False)
            cells[(inst.family, inst.side, "approx")].append(approx_dt)
    return [
        {"family": family, "side": side, "engine": engine, "n": len(times),
         "median_s": statistics.median(times)}
        for (family, side, engine), times in sorted(cells.items())
    ]

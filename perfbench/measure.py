"""Measurement helpers shared by the workloads.

- :class:`Spans` records spans the benchmark itself opens around calls
  into the program's public functions (nothing inside ``src/`` is
  instrumented for the benchmark) and reduces them to per-call means.
- :func:`tail` implements the reporting rule for timings: the median,
  and the highest whole percentile that still has at least ten samples
  beyond it, both as Harrell-Davis estimates.
- :class:`Checker` is the correctness gate: every schedule is validated
  against the graph it was computed for and its cost is compared with
  the lower bound the benchmark recomputes from that graph.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from collections import defaultdict

import numpy as np

from repro.core.bounds import lower_bound
from repro.core.schedule import Schedule

#: GGP and OGGP are 2-approximations of the K-PBS optimum.
MAX_RATIO = 2.0


class CorrectnessError(Exception):
    """A schedule failed validation or broke the 2-approximation."""


class Spans:
    """In-memory span log: ``name -> [durations]``, timed with perf_counter.

    A disabled instance times nothing, so the untraced code path runs
    the same statements minus the clock reads.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.durations: dict[str, list[float]] = defaultdict(list)

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span named ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self.durations[name].append(time.perf_counter() - start)
        return out

    def add(self, name: str, seconds: float) -> None:
        if self.enabled:
            self.durations[name].append(seconds)

    def total(self, name: str) -> float:
        return math.fsum(self.durations.get(name, ()))

    def mean(self, name: str) -> float:
        values = self.durations.get(name, ())
        return math.fsum(values) / len(values) if values else 0.0


def harrell_davis(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile of ``samples``.

    A weighted mean of all order statistics, weight ``i`` being the
    Beta((n+1)p, (n+1)(1-p)) mass on ``((i-1)/n, i/n]``.  Unlike a single
    order statistic it does not jump when a sample crosses the quantile's
    rank, so it moves less between seeds whose instances differ a little.
    The Beta mass is integrated numerically on 200 points per sample.
    """
    ordered = np.sort(np.asarray(samples, dtype=float))
    n = len(ordered)
    if n == 1 or p <= 0.0:
        return float(ordered[0])
    a, b = (n + 1) * p, (n + 1) * (1.0 - p)
    grid = np.linspace(0.0, 1.0, 200 * n + 1)
    inner = grid[1:-1]
    log_pdf = (a - 1.0) * np.log(inner) + (b - 1.0) * np.log1p(-inner)
    pdf = np.concatenate(([0.0], np.exp(log_pdf - log_pdf.max()), [0.0]))
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2.0)))
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf))
    return float(weights @ ordered)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """``(p50, tail value, tail percentile)`` of ``samples``.

    The tail percentile is the highest whole percentile with at least
    ten samples above it, so it is supported by the data whatever the
    sample count.  Both values are :func:`harrell_davis` estimates.
    """
    n = len(samples)
    pct = max(0, min(99, math.floor(100.0 * (n - 10) / n))) if n > 10 else 0
    return harrell_davis(samples, 0.5), harrell_davis(samples, pct / 100.0), pct


class Checker:
    """Validates schedules and accumulates the evaluation ratio."""

    def __init__(self) -> None:
        self.ratios: list[float] = []

    def check(
        self, schedule: Schedule, graph, k: int, beta: float, what: str,
        record: bool = True,
    ) -> float:
        """Validate ``schedule`` for ``graph``; returns cost / lower bound.

        The cost is recomputed with the requested ``beta``, so a schedule
        that reports another setup delay cannot flatter the ratio.  With
        ``record`` the ratio joins :attr:`ratios`.  Raises
        :class:`CorrectnessError` on an invalid schedule, a wrong ``k`` or
        ``beta``, or a cost above twice the lower bound.
        """
        try:
            schedule.validate(graph)
        except Exception as exc:  # any validation failure is a wrong answer
            raise CorrectnessError(f"{what}: invalid schedule: {exc}") from exc
        if schedule.k != k:
            raise CorrectnessError(f"{what}: schedule k={schedule.k}, asked {k}")
        if schedule.beta != beta:
            raise CorrectnessError(f"{what}: schedule beta={schedule.beta}, asked {beta}")
        cost = schedule.num_steps * beta + schedule.transmission_time
        bound = lower_bound(graph, k, beta)
        ratio = cost / bound
        if not ratio <= MAX_RATIO * (1.0 + 1e-9):
            raise CorrectnessError(
                f"{what}: cost {cost} exceeds {MAX_RATIO} x lower bound {bound}"
            )
        if record:
            self.ratios.append(ratio)
        return ratio


def rss_mib() -> float:
    """Peak RSS of this process (getrusage reports kilobytes on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pss_mib(pids) -> float:
    """Summed proportional set size of ``pids`` now, in MiB.

    Pss splits each page among the processes that map it, so pages a
    forked worker still shares with its parent are counted once.
    """
    total_kib = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/smaps_rollup") as rollup:
                lines = rollup.readlines()
        except FileNotFoundError:  # the process ended since it was listed
            continue
        total_kib += sum(int(l.split()[1]) for l in lines if l.startswith("Pss:"))
    return total_kib / 1024.0


def child_rss_mib() -> float:
    """Peak RSS of the largest child this process has waited for."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def end_to_end(
    *,
    setup_s: float,
    throughput: float,
    latencies: list[float],
    slo_s: float,
    slo_samples: list[float | None],
    ratios: list[float],
    attempted: int,
    failed: int,
    rss: float,
) -> tuple[dict, str]:
    """The end-to-end metric block and a one-line note on its samples.

    ``slo_samples`` holds one latency per request the SLO counts, or
    ``None`` for a request that failed (a failure always misses).
    """
    p50, tail_value, pct = tail(latencies)
    met = sum(1 for s in slo_samples if s is not None and s <= slo_s)
    metrics = {
        "setup_s": setup_s,
        "throughput_per_s": throughput,
        "latency_p50_s": p50,
        "latency_tail_s": tail_value,
        "slo_met_frac": met / len(slo_samples),
        "evaluation_ratio_mean": statistics.fmean(ratios),
        "evaluation_ratio_max": max(ratios),
        "ok_frac": (attempted - failed) / attempted,
        "max_rss_mib": rss,
    }
    note = (
        f"latency_tail_s is p{pct} of {len(latencies)} samples; "
        f"slo_met_frac = share of {len(slo_samples)} within {slo_s} s; "
        f"error_frac = {failed}/{attempted}"
    )
    return metrics, note

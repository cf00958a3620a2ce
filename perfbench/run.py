"""Repository benchmark: one workload, every metric, every schedule checked.

Run from the repository root::

    python3 perfbench/run.py --workload solve --seed 1 --seconds 38 --trace 0

Workloads (why each exists is recorded in ``BENCHMARK.json``):

- ``solve``      serial in-process GGP/OGGP over a fixed seeded corpus;
- ``batch``      ``schedule_batch(jobs=2)`` on one warm pool, fresh
                 duplicate-heavy batches;
- ``serve-cold`` a spawned ``kpbs serve`` daemon, a distinct uncached
                 instance per request.

End-to-end metrics (``--trace 0``):

- ``setup_s``: input generation, pool spawn or daemon start, and warm-up,
  repeated and reported as the median;
- ``throughput_per_s``: schedules per second (solve: corpus size over
  serial busy time; batch: items per second; serve: closed loop on two
  connections);
- ``latency_p50_s`` / ``latency_tail_s``: per schedule call (solve), per
  batch call (batch), per request of the fixed-rate open loop timed from
  its due time (serve); the tail is the highest percentile with at least
  ten samples beyond it, named on the line before the result; both are
  Harrell-Davis estimates;
- ``slo_met_frac``: share of those calls or requests within the
  workload's latency limit, a failed one counting as a miss;
- ``evaluation_ratio_mean`` / ``_max``: cost over the lower bound the
  benchmark recomputes from the graph it sent (paper Figs 7-9);
- ``ok_frac``: 1 - failed/attempted, where failures are exceptions, error
  frames, shed or expired requests;
- ``max_rss_mib``: peak RSS of the benchmark process (solve), the
  highest summed Pss of the benchmark process and its live pool workers
  sampled after each batch call (batch), or the daemon's peak RSS
  (serve).

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload once more with spans around the calls
into each layer and prints the per-layer metrics (a layer the workload
does not run reports 0).  The last stdout line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

An invalid schedule, or a cost above twice the lower bound, ends the run
with exit code 1 and no result line.  The program under test is imported
from ``src/`` of the checkout; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("solve", "batch", "serve-cold")


def _load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still unwinds, so spawned daemons and pools stop.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "benchmarks").is_dir():
        print(f"error: no program sources under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from measure import CorrectnessError

    if args.workload == "solve":
        import solve as workload
    elif args.workload == "batch":
        import batch as workload
    else:
        import serve as workload

    spec = _load_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        result = workload.run(args.workload, args.seed, args.seconds, bool(args.trace))
    except CorrectnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for note in result["notes"]:
        print(note)
    values = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in values and not args.trace]
    if missing:
        print(f"error: workload did not measure {missing}", file=sys.stderr)
        return 1
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    print(json.dumps({
        "correct": True,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

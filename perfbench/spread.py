"""Run-to-run spread of the end-to-end metrics, one seed per run.

For each workload, runs ``perfbench/run.py`` once per seed and reports
each metric's median and the distance between its first and third
quartiles as a share of the median, next to the bound
``BENCHMARK.json`` fixes for it.  Run from the repository root::

    python3 perfbench/spread.py --workloads solve batch --seeds 1 2 3 4 5
    python3 perfbench/spread.py --seeds $(seq 1 10) --out spread.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def measure(workload: str, seeds: list[int], seconds: int) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    for seed in seeds:
        out = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=600,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            raise SystemExit(f"{workload} seed {seed}: {result}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"{workload} seed {seed}: " + " ".join(
            f"{name}={metric['value']:.5g}" for name, metric in result["metrics"].items()
        ), flush=True)
    return values


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "iqr_share": (q3 - q1) / median if median else 0.0}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", help="also write the summary as JSON here")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in args.workloads:
        rows = {name: summary(v) for name, v in measure(
            workload, args.seeds, args.seconds).items()}
        report[workload] = rows
        for name, row in rows.items():
            flag = "" if name == "setup_s" or row["iqr_share"] < bounds[name] / 3 else "  <-- wide"
            print(f"{workload:10s} {name:22s} median {row['median']:.6g}  "
                  f"iqr/median {row['iqr_share']:.4f}  bound {bounds[name]}{flag}",
                  flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seeds": args.seeds, "seconds": args.seconds, "workloads": report},
            indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

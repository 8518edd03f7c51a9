"""Repeat each workload and report the spread of every end-to-end metric.

    python3 perfbench/spread.py

Runs every workload of BENCHMARK.json RUNS times, each run its own process
(perfbench/run.py) of run_seconds, one after another, run r with seed
FIRST_SEED + r. For every metric the report gives the median,
the quartiles (statistics.quantiles, n=4) and the spread, the distance
between the quartiles as a share of the median. A metric whose spread
exceeds its bound in BENCHMARK.json is marked `unresolved`: a difference
smaller than its bound cannot be told from run-to-run noise.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
FIRST_SEED = 100


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in (w["name"] for w in bench["workloads"]):
        values: dict[str, list[float]] = {}
        attempted = failed = 0
        for r in range(RUNS):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(FIRST_SEED + r), "--seconds", str(bench["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: {RUNS} runs, failed_ratio {failed / attempted:.6f} "
              f"({failed} of {attempted})")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            status = "unresolved" if spread > bounds.get(name, float("inf")) else "ok"
            print(f"  {name:12s} median {med:12.5f}  q1 {q1:12.5f}  q3 {q3:12.5f}  "
                  f"spread {spread:7.4f}  bound {bounds.get(name, float('nan')):5.3f}  {status}")
        print(f"  values: {json.dumps(values)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

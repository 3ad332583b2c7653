"""Run the benchmark on several seeds and summarise each metric.

From the root of a checkout:

    python3 perfbench/spread.py --workload gram-sweep --seeds 1-10

Runs ``run.py --trace 0`` once per seed for the ``run_seconds`` that
BENCHMARK.json declares, one run at a time, and prints per end-to-end metric the
median and the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median. The
reference figures in README.md come from this script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
BENCHMARK = RUN.parent.parent / "BENCHMARK.json"


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args()
    seconds = json.loads(BENCHMARK.read_text(encoding="utf-8"))["run_seconds"]
    results = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=True)
        results.append(json.loads(proc.stdout.splitlines()[-1]))
        print(f"seed {seed}: {proc.stdout.splitlines()[-1]}", flush=True)
    shares = {(r["failed"], r["attempted"]) for r in results}
    print(f"{args.workload}: {len(results)} runs, correct {all(r['correct'] for r in results)}, "
          f"(failed, attempted) {sorted(shares)}")
    for name, metric in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"  {name:44s} median {med:<12.6g} {metric['unit']:6s} spread {spread:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

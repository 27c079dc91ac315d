"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload power-ladder --seeds 1-10 [--seconds 15]

Runs ``run.py --trace 0`` once per seed, one run at a time, and prints for
each metric the median, the quartiles and the spread: the distance between
the quartiles (``statistics.quantiles(values, n=4)``) over the median.
Compare each spread with the metric's ``bound`` in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()

    values: dict[str, list[float]] = {}
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} ops failed", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"{'metric':14s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>7s} {'bound':>6s}")
    for name, xs in values.items():
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med
        print(f"{name:14s} {med:10.4g} {q1:10.4g} {q3:10.4g} {spread:7.3f} {bounds.get(name, 0):6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

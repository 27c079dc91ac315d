"""Self-test of the benchmark.

    python3 perfbench/selftest.py          # check
    python3 perfbench/selftest.py --pin    # rewrite digests.json for PINNED_SEED

The check runs the traced run of every workload twice on the pinned seed,
each in a fresh process, and asserts that

* every op passed its oracle and matched its pinned output digest,
* every count in the traced metrics is identical between the two runs,
* a directory holding only BENCHMARK.json and perfbench/ makes run.py exit
  non-zero without printing a result.

``--pin`` runs every input of every workload's pool once on the pinned
seed, checks it with the workload's oracle, and records its digest.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

PINNED_SEED = 0
# per-layer metrics that are counts and must repeat exactly
COUNT_SUFFIXES = (".calls", ".letters_out", ".max_letters", ".candidates",
                  ".hit_ratio", ".witnesses", ".max_dim", ".max_degree_span")


def _traced(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(PINNED_SEED), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: traced run failed\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"run": json.loads(lines[-2])["run"], "result": json.loads(lines[-1])}


def check() -> int:
    problems = []
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    counts = [m["name"] for m in bench["per_layer"] if m["name"].endswith(COUNT_SUFFIXES)]
    for wl in bench["workloads"]:
        name = wl["name"]
        a, b = _traced(name), _traced(name)
        for r in (a, b):
            if not r["result"]["correct"]:
                problems.append(f"{name}: {r['result']['failed']} ops failed")
            if not r["run"]["pinned_digests_checked"]:
                problems.append(f"{name}: no pinned digests for seed {PINNED_SEED}")
        ma, mb = a["result"]["metrics"], b["result"]["metrics"]
        differ = [n for n in counts if ma[n]["value"] != mb[n]["value"]]
        if differ:
            problems.append(f"{name}: counts differ between runs: {differ}")
        nonzero = sum(1 for n in counts if ma[n]["value"])
        print(f"{name}: {nonzero} nonzero counts repeat exactly, "
              f"overhead {ma['trace.overhead_ratio']['value']:.2f}x", flush=True)

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.iterdir():
        if f.is_file():
            shutil.copy(f, bare / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cable-search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append("run.py did not fail in a directory without the engine")

    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


def pin() -> int:
    workloads = run._load_engine()
    doc = {"seed": PINNED_SEED, "workloads": {}}
    for name, wl in workloads.WORKLOADS.items():
        pool = wl.generate(PINNED_SEED)
        digests = []
        for inp in pool:
            workloads.reset_engine_caches()
            out = wl.run(inp)
            bad = wl.check(inp, out)
            if bad:
                raise SystemExit(f"{name}: {wl.label(inp)}: {bad[:3]}")
            digests.append(wl.digest(out))
        workloads.reset_engine_caches()
        doc["workloads"][name] = {"inputs": digests, "digest": workloads._digest(*(d.encode() for d in digests))}
        print(f"{name}: {len(digests)} inputs, digest {doc['workloads'][name]['digest']}", flush=True)
    run.DIGESTS.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--pin", action="store_true")
    sys.exit(pin() if ap.parse_args().pin else check())

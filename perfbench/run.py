"""Seeded benchmark of the soleknot engine.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the engine is imported from
``src/`` of that checkout and nowhere else.  One client, one process, one
thread, in a closed loop: each op starts when the previous one returns.

``--trace 0`` cycles through the seeded input pool until the ops' own time
reaches ``--seconds`` and reports the end-to-end metrics.  Every metric of
op time is taken over the pool's inputs, each at the median, over its
5-20 ops in the run, of the ratio of the op's time to that of a fixed
reference loop timed right before and after it, scaled to milliseconds at
a fixed host speed (see README.md).  ``--trace 1`` runs one untraced pass
and one traced pass over the first 100 inputs of the pool and reports the
per-layer metrics; its counts depend only on the seed.

Every op's output is checked by the workload's oracle and digested outside
the timed region.  The last line of stdout is the result JSON; the line
before it is the run record.  Run records and trace files go to
``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
TRACE_OPS = 100  # the traced run covers this prefix of the pool
SETUP_REPEATS = 3  # this process plus two fresh ones
SETUP_REFERENCES = 5  # reference times taken on each side of a set-up
MAX_REPORTED_FAILURES = 5
REFERENCE_PASSES = 3  # passes of reference_loop() per reference time
# Median reference time (REFERENCE_PASSES passes) over fifteen 20-s runs of
# three workloads on the 2-core Xeon VM (Python 3.11.7) where the bounds
# were set; the per-run medians ranged 1.4-2.7 ms.  Op times are reported
# at the host speed at which the reference takes this long, so on that VM
# they read close to the median wall time of an op (see README.md).
REFERENCE_MS = 2.4
# Address-space cap: the largest op needs well under 200 MB, so an op
# that runs away (a broken engine) fails with MemoryError instead of
# exhausting a shared machine.
MEMORY_LIMIT = 2 << 30


def _load_engine():
    """Put this checkout's ``src`` first on the path and import from it;
    exit without a result when the checkout has no engine."""
    if not (SRC / "soleknot" / "__init__.py").is_file():
        sys.exit(f"perfbench: no engine at {SRC / 'soleknot'}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import soleknot

    if Path(soleknot.__file__).resolve().parent != (SRC / "soleknot").resolve():
        sys.exit(f"perfbench: imported soleknot from {soleknot.__file__}, not {SRC}")
    sys.path.insert(0, str(HERE))
    import workloads

    return workloads


def setup(workload_name: str, seed: int):
    """Import, input generation and warm-up; returns (module, workload,
    pool, seconds taken, seconds at the reference host speed).  The host
    speed is the median of SETUP_REFERENCES reference times right before
    and right after the set-up."""
    ref_before = statistics.median(reference_ns() for _ in range(SETUP_REFERENCES))
    t0 = time.perf_counter_ns()
    workloads = _load_engine()
    if workload_name not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {workload_name!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[workload_name]
    pool = wl.generate(seed)
    # a fixed small input, so warm-up costs the same for every seed
    workloads.reset_engine_caches()
    wl.run(wl.WARMUP)
    workloads.reset_engine_caches()
    dt = time.perf_counter_ns() - t0
    ref_after = statistics.median(reference_ns() for _ in range(SETUP_REFERENCES))
    return workloads, wl, pool, dt / 1e9, 2 * dt / (ref_before + ref_after) * REFERENCE_MS / 1e3


def _setup_in_fresh_process(workload: str, seed: int) -> tuple[float, float]:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up process failed:\n{proc.stderr}")
    raw, normalized = proc.stdout.strip().splitlines()[-1].split()
    return float(raw), float(normalized)


class Checker:
    """Checks each op's output once per pool index with the workload's
    oracle; later ops on the same input must repeat the digest.  For the
    pinned seed the digests must also match ``digests.json``."""

    def __init__(self, wl, seed: int):
        self.wl = wl
        self.seen: dict[int, str] = {}
        self.pinned = None
        if DIGESTS.is_file():
            doc = json.loads(DIGESTS.read_text())
            if doc.get("seed") == seed and wl.name in doc.get("workloads", {}):
                self.pinned = doc["workloads"][wl.name]["inputs"]
        self.reported = 0
        self.tracer = None  # paused while checking, so checks are not traced

    def __call__(self, index: int, inp, out) -> bool:
        if self.tracer is None:
            return self._check(index, inp, out)
        self.tracer.paused = True
        try:
            return self._check(index, inp, out)
        finally:
            self.tracer.paused = False

    def _check(self, index: int, inp, out) -> bool:
        d = self.wl.digest(out)
        problems = []
        if index in self.seen:
            if d != self.seen[index]:
                problems.append(f"digest {d} differs from earlier run of the same input {self.seen[index]}")
        else:
            problems = self.wl.check(inp, out)
            if self.pinned is not None and d != self.pinned[index]:
                problems.append(f"digest {d} differs from pinned {self.pinned[index]}")
            if not problems:
                self.seen[index] = d
        if problems:
            self.fail(index, inp, "; ".join(problems[:3]))
        return not problems

    def fail(self, index: int, inp, message: str) -> None:
        if self.reported < MAX_REPORTED_FAILURES:
            print(f"perfbench: op on input {index} ({self.wl.label(inp)}) failed: {message}",
                  file=sys.stderr)
        self.reported += 1


def run_op(workloads, wl, check: Checker, index: int, inp, wrap=None):
    """One op: cold caches, timed call, then the check.  Returns
    (nanoseconds, ok); an op that raises counts its time up to the raise."""
    workloads.reset_engine_caches()
    t0 = time.perf_counter_ns()
    try:
        if wrap is None:
            out = wl.run(inp)
        else:
            with wrap(index):
                out = wl.run(inp)
    except Exception:
        dt = time.perf_counter_ns() - t0
        check.fail(index, inp, traceback.format_exc(limit=3))
        return dt, False
    dt = time.perf_counter_ns() - t0
    return dt, check(index, inp, out)


def tail(durations_ms: list[float]) -> tuple[float, float]:
    """Highest percentile in TAIL_PERCENTILES with at least ten samples
    beyond it (nearest rank); returns (percentile, value)."""
    xs = sorted(durations_ms)
    n = len(xs)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if rank >= 1 and n - rank >= 10:
            return p, xs[rank - 1]
    return 100.0, xs[-1]


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "soleknot").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_record(args, load_start) -> dict:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    load_end = os.getloadavg()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "loadavg_start": load_start,
        "loadavg_end": load_end,
        "overloaded": max(load_start[0], load_end[0]) > nproc,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


_REF_TEXT = "ab" * 50_000
_REF_TABLE = {i: i for i in range(64)}


def reference_loop() -> int:
    """Fixed pure-Python work, timed between ops and around each set-up to
    gauge the host's speed at that moment: an interpreter loop over small ints, a
    dict and short slices, then one pass over a 100 kB string.  It creates
    no object the cyclic collector tracks, so the engine's heap does not
    change its cost."""
    s = 0
    for i in range(2000):
        s += (i * i) % 7 + _REF_TABLE[i & 63] + len(_REF_TEXT[i:i + 64])
    return s + len(_REF_TEXT.replace("a", "c"))


def reference_ns() -> int:
    t0 = time.perf_counter_ns()
    for _ in range(REFERENCE_PASSES):
        reference_loop()
    return time.perf_counter_ns() - t0


def pass_metrics(latencies: list[float]) -> dict:
    """The time metrics of one run from per-input latencies in ms."""
    pct, tail_ms = tail(latencies)
    return {
        # one pass over the pool, each input at its latency
        "ops_per_s": len(latencies) / (sum(latencies) / 1e3),
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": tail_ms,
        "tail_percentile": pct,
        "tail_samples_beyond": len(latencies) - math.ceil(pct / 100 * len(latencies)),
    }


def timed_run(args, workloads, wl, pool, setup_times):
    check = Checker(wl, args.seed)
    samples = [setup_times] + [_setup_in_fresh_process(args.workload, args.seed)
                               for _ in range(SETUP_REPEATS - 1)]
    budget_ns = int(args.seconds * 1e9)
    # pool index -> its ops' wall times in ms, and their ratios to the mean
    # of the reference times taken right before and right after each op
    walls: dict[int, list[float]] = {}
    ratios: dict[int, list[float]] = {}
    ref_before = reference_ns()
    refs_ms = [ref_before / 1e6]
    ops, busy_ns, failed = 0, 0, 0
    while busy_ns < budget_ns:
        index = ops % len(pool)
        dt, ok = run_op(workloads, wl, check, index, pool[index])
        ref_after = reference_ns()
        busy_ns += dt
        refs_ms.append(ref_after / 1e6)
        walls.setdefault(index, []).append(dt / 1e6)
        ratios.setdefault(index, []).append(2 * dt / (ref_before + ref_after))
        ref_before = ref_after
        failed += not ok
        ops += 1
    workloads.reset_engine_caches()
    normalized = pass_metrics([statistics.median(r) * REFERENCE_MS for r in ratios.values()])
    raw = pass_metrics([statistics.median(w) for w in walls.values()])
    metrics = {
        "ops_per_s": normalized["ops_per_s"],
        "op_p50_ms": normalized["op_p50_ms"],
        "op_tail_ms": normalized["op_tail_ms"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(n for _, n in samples),
    }
    extra = {
        "ops": ops,
        "failed": failed,
        "fail_ratio": failed / ops,
        "pool_size": len(pool),
        "passes": ops / len(pool),
        "ops_per_busy_s": ops / (busy_ns / 1e9),
        "latency_inputs": len(ratios),
        "tail_percentile": normalized["tail_percentile"],
        "tail_samples_beyond": normalized["tail_samples_beyond"],
        "raw_ms": {k: raw[k] for k in ("ops_per_s", "op_p50_ms", "op_tail_ms")},
        "raw_fastest_op_p50_ms": statistics.median(min(w) for w in walls.values()),
        "reference_ms": {"nominal": REFERENCE_MS, "fastest": min(refs_ms),
                         "median": statistics.median(refs_ms)},
        "setup_samples_s": [n for _, n in samples],
        "raw_setup_samples_s": [r for r, _ in samples],
        "pinned_digests_checked": check.pinned is not None,
    }
    return ops, failed, metrics, extra


def traced_run(args, workloads, wl, pool, per_layer):
    import tracer as tracing

    pool = pool[:TRACE_OPS]
    check = Checker(wl, args.seed)
    failed = 0
    untraced_ns = 0
    for index, inp in enumerate(pool):
        dt, ok = run_op(workloads, wl, check, index, inp)
        untraced_ns += dt
        failed += not ok
    tr = tracing.Tracer()
    check.tracer = tr
    tr.install()
    traced_ns = 0
    try:
        for index, inp in enumerate(pool):
            dt, ok = run_op(workloads, wl, check, index, inp, wrap=tr.op)
            traced_ns += dt
            failed += not ok
    finally:
        tr.uninstall()
    workloads.reset_engine_caches()
    metrics = tr.metrics(per_layer)
    metrics["trace.overhead_ratio"] = traced_ns / untraced_ns
    extra = {
        "ops": 2 * len(pool),
        "failed": failed,
        "fail_ratio": failed / (2 * len(pool)),
        "pool_size": len(pool),
        "untraced_s": untraced_ns / 1e9,
        "traced_s": traced_ns / 1e9,
        "spans": len(tr.spans),
        "pinned_digests_checked": check.pinned is not None,
    }
    return 2 * len(pool), failed, metrics, extra, tr


def _units(section: str) -> dict[str, str]:
    """Metric name -> unit for one section of BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[section]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true",
                    help="time set-up in this process, print the seconds and exit")
    args = ap.parse_args(argv)

    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if soft == resource.RLIM_INFINITY or soft > MEMORY_LIMIT:
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, hard))
    load_start = os.getloadavg()
    workloads, wl, pool, *setup_times = setup(args.workload, args.seed)
    if args.setup_only:
        print(*map(repr, setup_times))
        return 0

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    units = _units("per_layer" if args.trace else "end_to_end")
    if args.trace:
        attempted, failed, values, extra, tr = traced_run(args, workloads, wl, pool, units)
    else:
        attempted, failed, values, extra = timed_run(args, workloads, wl, pool, tuple(setup_times))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record = run_record(args, load_start)
    record.update(extra)
    if args.trace:
        tr.write(OUT / f"{stem}.trace.jsonl", record)
    (OUT / f"{stem}.json").write_text(json.dumps({"run": record, "metrics": metrics}, indent=1))
    if record["overloaded"]:
        print(f"perfbench: load average {record['loadavg_end'][0]:.2f} exceeds nproc "
              f"{record['nproc']}; figures are suspect", file=sys.stderr)
    print(json.dumps({"run": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark for sievestats.

Run from the repository root:

    python3 perfbench/run.py --workload mertens_scan --seed 1 --seconds 25 --trace 0

Workloads: mertens_scan, dense_stats, sparse_sums, table_cache (see
BENCHMARK.json and perfbench/LAYERS.md).

--trace 0 runs the workload's CLI ops, each in a fresh `python -m sievestats`
process, one at a time, and repeats the sequence until --seconds is used up.
Each op's CPU time and peak RSS come from `os.wait4` for that child.  It
reports the end-to-end metrics: wall_s, cpu_s, peak_rss_mb and setup_s.

--trace 1 runs the same sequence in process, as calls into the sievestats
modules with a span around each, and reports the per-layer metrics.

Every op's output is checked; an op that exits nonzero or fails its check
counts as failed (ops_failed = failed / attempted) and the run goes on.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Full results, provenance and spans go to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
WORK = BENCH_DIR / "work"
RESULTS = BENCH_DIR / "results"

SETUP_REPEATS = 11
STARTUP_REPEATS = 5
OP_TIMEOUT_S = 150
CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC)}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def run_child(args: list[str], stderr_path: Path) -> dict:
    """Run `python <args>` to completion; wall time plus this child's own rusage."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], stdout=subprocess.DEVNULL, stderr=err, env=CHILD_ENV
        )
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "exit": proc.returncode,
    }


def setup(workload, seed: int) -> tuple[float, dict, Path]:
    """Seeded inputs, a fresh work dir and one untimed interpreter+import warm-up."""
    t0 = time.perf_counter()
    inputs = workload.inputs(seed)
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    warm = run_child(["-c", "import sievestats.cli"], work / "warmup.err")
    if warm["exit"] != 0:
        raise BenchError(f"sievestats does not import: {(work / 'warmup.err').read_text()}")
    return time.perf_counter() - t0, inputs, work


def startup_seconds(work: Path) -> float:
    """Median wall time of a fresh interpreter importing the CLI."""
    return statistics.median(
        run_child(["-c", "import sievestats.cli"], work / "startup.err")["wall_s"]
        for _ in range(STARTUP_REPEATS)
    )


def upper_percentile(samples: list[float]):
    """Highest percentile with at least ten samples above it, or None."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    return 100.0 * (len(ordered) - 10) / len(ordered), ordered[len(ordered) - 11]


def end_to_end(workload, inputs: dict, work: Path, seconds: float) -> dict:
    """Repeat the op sequence until `seconds` would be exceeded; at least once."""
    reps, records = [], []
    start = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        workload.reset(work)
        ops = workload.ops(inputs, work)
        t0 = time.perf_counter()
        results = [
            run_child(["-m", "sievestats", *op.argv], work / f"op{i}.err") for i, op in enumerate(ops)
        ]
        wall = time.perf_counter() - t0
        for i, (op, result) in enumerate(zip(ops, results)):
            result["op"] = op.name
            result["problems"] = op.check()
            if result["exit"] != 0:
                stderr = (work / f"op{i}.err").read_text()[-500:]
                result["problems"].append(f"{op.name}: exit {result['exit']}: {stderr}")
            records.append(result)
        reps.append({
            "wall_s": wall,
            "cpu_s": sum(r["cpu_s"] for r in results),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        })
        now = time.perf_counter()
        if now - start + (now - rep_start) > seconds:
            break
    walls = [r["wall_s"] for r in reps]
    return {
        "metrics": {
            key: statistics.median(r[key] for r in reps) for key in ("wall_s", "cpu_s", "peak_rss_mb")
        },
        "wall_upper_percentile": upper_percentile(walls),
        "repetitions": reps,
        "ops": records,
    }


def traced(workload_name: str, seed: int, work: Path, run_id: str):
    """In-process layer run: the workload at full size, every other workload as a probe."""
    import workloads
    from sievestats import cli
    from spans import NullRecorder, SpanRecorder

    metrics: dict[str, float] = {"cli.startup_s": startup_seconds(work)}
    records, recorders = [], []
    order = [w for name, w in workloads.PROBES.items() if name != workload_name]
    for wl in order + [workloads.WORKLOADS[workload_name]]:
        probe = wl is not workloads.WORKLOADS[workload_name]
        inputs = wl.inputs(seed)
        wdir = work / ("probe_" + wl.name if probe else "layers")
        wdir.mkdir(parents=True, exist_ok=True)
        rec = SpanRecorder(f"{run_id}/{'probe/' if probe else ''}{wl.name}")
        recorders.append(rec)
        # The CLI pass first: each op through cli.run in process, outputs
        # checked.  It also warms the process for the two module passes.
        own: dict[str, float] = {}
        wl.reset(wdir)
        for op in wl.ops(inputs, wdir):
            t0 = time.perf_counter()
            code = cli.run(op.argv)
            key = f"cli.{op.name}_s"
            own[key] = own.get(key, 0.0) + time.perf_counter() - t0
            problems = op.check() + ([f"{op.name}: exit {code}"] if code else [])
            records.append({"op": op.name, "probe": probe, "exit": code, "problems": problems})
        wl.reset(wdir)
        t0 = time.perf_counter()
        wl.layer_pass(NullRecorder(), inputs, wdir)
        untraced = time.perf_counter() - t0
        wl.reset(wdir)
        with rec.span("pass"):
            wl.layer_pass(rec, inputs, wdir)
        own.update(wl.layer_metrics(rec, inputs, wdir))
        own["bench.trace_overhead_s"] = rec.total("pass") - untraced
        metrics.update(own)
    return metrics, records, recorders


def count_failed(records: list[dict]) -> int:
    """Ops that exited nonzero or failed their output check."""
    return sum(1 for r in records if r["problems"] or r["exit"] != 0)


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def provenance(work: Path) -> dict:
    import numpy
    import workloads

    caches = {}
    for name in ("SC_LEVEL1_DCACHE_SIZE", "SC_LEVEL2_CACHE_SIZE", "SC_LEVEL3_CACHE_SIZE"):
        try:
            caches[name] = os.sysconf(name)
        except (ValueError, OSError):
            caches[name] = None
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "workers": workloads.WORKERS,
        "cpu_cache_bytes": caches,
        "table_cache_bytes": sum(p.stat().st_size for p in work.rglob("*.csv")),
        "argv": sys.argv,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "sievestats" / "__init__.py").is_file() or not spec_path.is_file():
        raise BenchError(f"no sievestats sources under {SRC} (run from a full checkout)")
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    # The modules that import sievestats load only once src/ is on the path.
    import sievestats
    import workloads

    if Path(sievestats.__file__).resolve().parent != SRC / "sievestats":
        raise BenchError(f"sievestats imported from {sievestats.__file__}, not {SRC}")
    if args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    setups = [setup(workload, args.seed) for _ in range(1 if args.trace else SETUP_REPEATS)]
    _, inputs, work = setups[-1]
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {"workload": args.workload, "seed": args.seed, "inputs": inputs}
    if args.trace:
        values, records, recorders = traced(args.workload, args.seed, work, run_id)
        wanted = spec["per_layer"]
    else:
        measured = end_to_end(workload, inputs, work, args.seconds)
        records = measured.pop("ops")
        values = measured.pop("metrics")
        values["setup_s"] = statistics.median(s[0] for s in setups)
        result["setup_samples"] = [s[0] for s in setups]
        result.update(measured)
        wanted = spec["end_to_end"]
    attempted = len(records)
    failed = count_failed(records)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result.update(provenance=provenance(work), ops=records, metrics=metrics)

    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{run_id}.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    if args.trace:
        with open(RESULTS / f"{run_id}.spans.jsonl", "w") as fh:
            for rec in recorders:
                rec.write(fh)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, metric in metrics.items():
        print(f"  {name:42s} {metric['value']:>16.6f} {metric['unit']}")
    if not args.trace:
        reps = len(result["repetitions"])
        upper = result["wall_upper_percentile"]
        print(f"  wall_s: median of {reps} repetitions; upper percentile: "
              + (f"p{upper[0]:.0f} = {upper[1]:.6f} s" if upper else "none (fewer than 11 samples)"))
        print(f"  setup_s: median of {SETUP_REPEATS} set-ups")
    print(f"  {'ops_failed':42s} {failed / attempted:>16.6f} ratio ({failed} of {attempted} ops)")
    for record in records:
        for problem in record["problems"]:
            print(f"  FAILED {problem}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)

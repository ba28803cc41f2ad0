"""The four benchmark workloads.

Each workload defines:

* `inputs(seed)`: the seeded inputs.  The seed only draws values that leave
  the amount of work unchanged (the table offset, extra sum checkpoints).
* `ops(inputs, work)`: the CLI op sequence, each op with its output check.
* `layer_pass(rec, inputs, work)`: the same sequence as calls into the
  sievestats modules, in the order the CLI makes them, with a span around
  each call.
* `layer_metrics(rec, inputs, work)`: per-layer numbers from the spans of
  that pass, and from measurements made beside it (bare sieve streams for
  self times by difference, tracemalloc for allocation peaks).
"""

from __future__ import annotations

import os
import random
import shutil
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from sievestats import cli, empirical, mixing, normality, oeis
from sievestats import deviation as dev
from sievestats.kinds import MOEBIUS, parse_kind
from sievestats.sieves import iter_segments, read_table_csv, sieve_table, write_table_csv
from sievestats.sums import accumulate

ROOT = Path(__file__).resolve().parent.parent

#: Thread-pool size for the multi-worker ops: 2, or fewer on a smaller machine.
WORKERS = min(2, len(os.sched_getaffinity(0)))

MIB = float(1 << 20)


@dataclass
class Op:
    name: str
    argv: list[str]
    check: Callable[[], list[str]]


@dataclass
class Stream:
    kind: str
    seconds: float
    values: int
    segments: int


def stream(kind_text: str, lo: int, hi: int, workers: int) -> Stream:
    """Time a bare `iter_segments` pass over [lo, hi]."""
    values = segments = 0
    t0 = time.perf_counter()
    for _, _, vals in iter_segments(parse_kind(kind_text), lo, hi, workers=workers):
        values += len(vals)
        segments += 1
    return Stream(kind_text, time.perf_counter() - t0, values, segments)


def stream_metrics(single: list[Stream], pooled: list[Stream]) -> dict[str, float]:
    """Kernel throughput from single-worker streams; pool speedup against pooled ones."""
    out = {
        f"sieves.{s.kind.replace(':', '_')}.values_per_s": s.values / s.seconds for s in single
    }
    seconds = sum(s.seconds for s in single)
    segments = sum(s.segments for s in single)
    out["sieves.segment_s"] = seconds / segments
    out["sieves.segments"] = segments
    out["sieves.values"] = sum(s.values for s in single)
    out["sieves.pool_speedup"] = seconds / sum(s.seconds for s in pooled)
    return out


def alloc_peak_mib(fn) -> float:
    """Peak traced allocation of one call, above what was live before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / MIB
    finally:
        tracemalloc.stop()


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def geometric_grid(n: int, points: int = 50) -> list[int]:
    """The default checkpoint grid of `dependence --report`."""
    return [int(v) for v in np.unique(np.geomspace(1, n, points).astype(np.int64))]


class Workload:
    name = ""

    def inputs(self, seed: int) -> dict:
        return {}

    def reset(self, work: Path) -> None:
        """Restore the state a repetition starts from (outside the timed region)."""

    def ops(self, inp: dict, work: Path) -> list[Op]:
        raise NotImplementedError

    def layer_pass(self, rec, inp: dict, work: Path) -> None:
        raise NotImplementedError

    def layer_metrics(self, rec, inp: dict, work: Path) -> dict[str, float]:
        raise NotImplementedError


class MertensScan(Workload):
    """Exhaustive |M(n)| <= sqrt(n) scan at one worker."""

    name = "mertens_scan"

    def __init__(self, n: int):
        self.n = n

    def ops(self, inp, work):
        out = work / "riemann.json"
        argv = ["riemann-check", "--n-max", str(self.n), "--workers", "1", "--output", str(out)]
        return [Op("riemann_check", argv, lambda: checks.riemann(out, self.n))]

    def layer_pass(self, rec, inp, work):
        with rec.span("op.riemann_check"), rec.span("deviation.riemann_check"):
            dev.mertens_riemann_check(self.n, 0.0, workers=1)

    def layer_metrics(self, rec, inp, work):
        single = stream("moebius", 1, self.n, 1)
        out = stream_metrics([single], [stream("moebius", 1, self.n, WORKERS)])
        out["deviation.riemann_check_s"] = rec.total("deviation.riemann_check")
        # Derived: the scan's own work is the check minus the bare moebius stream.
        out["deviation.scan_self_s"] = out["deviation.riemann_check_s"] - single.seconds
        return out


class DenseStats(Workload):
    """The dense-table subcommands on moebius: dependence, stats, normality, variance growth."""

    name = "dense_stats"
    lags = tuple(range(1, 21))
    block_size = 1000

    def __init__(self, n: int):
        self.n = n

    def ops(self, inp, work):
        n, w, bs = str(self.n), str(WORKERS), str(self.block_size)
        dep, rep, st, norm, vg = (
            work / f for f in ("dep.csv", "dep_report.json", "stats.json", "norm.json", "vg.json")
        )
        common = ["--kind", "moebius", "--workers", w]
        return [
            Op(
                "dependence",
                ["dependence", *common, "--n", n, "--lags", "1..20", "--report", str(rep),
                 "--output", str(dep)],
                lambda: checks.dependence(dep, rep, self.n, self.lags),
            ),
            Op("stats", ["stats", *common, "--n", n, "--output", str(st)],
               lambda: checks.stats(st, self.n)),
            Op(
                "normality",
                ["normality", *common, "--n", n, "--block-size", bs, "--output", str(norm)],
                lambda: checks.normality(norm, self.n, self.block_size),
            ),
            Op(
                "deviation",
                ["deviation", *common, "--n-max", n, "--mode", "variance-growth",
                 "--block-size", bs, "--output", str(vg)],
                lambda: checks.variance_growth(vg, self.n),
            ),
        ]

    def _table(self, rec):
        with rec.span("sieves.table") as counts:
            table = sieve_table(MOEBIUS, 1, self.n, workers=WORKERS)
            counts["bytes"] = table.values.nbytes
        return table

    def layer_pass(self, rec, inp, work):
        n = self.n
        with rec.span("op.dependence"):
            table = self._table(rec)
            with rec.span("mixing.autocovariance"):
                mixing.autocovariance(table, n, self.lags)
            with rec.span("mixing.alpha_hat"):
                mixing.alpha_hat(table, n, self.lags)
            with rec.span("mixing.stationarity"):
                mixing.stationarity_report(MOEBIUS, n, geometric_grid(n), table=table)
            del table
        with rec.span("op.stats"):
            table = self._table(rec)
            with rec.span("empirical.moments"):
                empirical.moments(table, n)
            with rec.span("empirical.cdf"):
                empirical.empirical_cdf(table, n)
            del table
        with rec.span("op.normality"):
            table = self._table(rec)
            with rec.span("normality.blocks"):
                blocks = normality.block_standardize(table, n, self.block_size)
            with rec.span("normality.ks"):
                normality.ks_normal(blocks.standardized)
            del table
        with rec.span("op.deviation"), rec.span("deviation.variance_growth"):
            # The CLI runs variance growth without passing --workers on.
            dev.variance_growth(MOEBIUS, n, self.block_size)

    def layer_metrics(self, rec, inp, work):
        n = self.n
        out = {
            "sieves.table_s": rec.total("sieves.table"),
            "sieves.table_mb": max(
                s["counts"]["bytes"] for s in rec.spans if s["name"] == "sieves.table"
            ) / MIB,
            "deviation.variance_growth_s": rec.total("deviation.variance_growth"),
        }
        for name in ("mixing.autocovariance", "mixing.alpha_hat", "mixing.stationarity",
                     "empirical.moments", "empirical.cdf", "normality.blocks", "normality.ks"):
            out[name + "_s"] = rec.total(name)
        # Variance growth sums at every block boundary, one worker.
        cps = [self.block_size * (i + 1) for i in range(n // self.block_size)]
        single = stream("moebius", 1, cps[-1], 1)
        out.update(stream_metrics([single], [stream("moebius", 1, cps[-1], WORKERS)]))
        out["sums.accumulate_s"] = timed(lambda: accumulate(MOEBIUS, cps[-1], cps))
        out["sums.reduce_self_s"] = out["sums.accumulate_s"] - single.seconds
        out["sums.checkpoints"] = len(cps)
        table = sieve_table(MOEBIUS, 1, n, workers=WORKERS)
        grid = geometric_grid(n)
        out["mixing.alloc_peak_mb"] = max(
            alloc_peak_mib(lambda: mixing.autocovariance(table, n, self.lags)),
            alloc_peak_mib(lambda: mixing.alpha_hat(table, n, self.lags)),
            alloc_peak_mib(lambda: mixing.stationarity_report(MOEBIUS, n, grid, table=table)),
        )
        out["empirical.alloc_peak_mb"] = max(
            alloc_peak_mib(lambda: empirical.moments(table, n)),
            alloc_peak_mib(lambda: empirical.empirical_cdf(table, n)),
        )
        return out


#: (kind, n_max) of the sparse prefix-sum ops.
SPARSE_RANGES = (
    ("prime_indicator", 10**9),
    ("squarefree_indicator", 10**9),
    ("von_mangoldt", 10**8),
    ("twin_prime_indicator", 10**8),
    ("moebius", 10**8),
    ("liouville", 2 * 10**7),
    ("omega_equals:2", 2 * 10**7),
)

#: Vendored b-files checked by oeis-check: M(n) and Q(n) for n <= 2000.
BFILES = (
    ("tests/data/b002321.txt", "moebius"),
    ("tests/data/squarefree_count.txt", "squarefree_indicator"),
)


class SparseSums(Workload):
    """Prefix sums at decade checkpoints plus seed-drawn ones, and the b-file checks."""

    name = "sparse_sums"
    extra_checkpoints = 3

    def __init__(self, ranges):
        self.ranges = ranges

    def inputs(self, seed):
        rng = random.Random(seed)
        checkpoints = {}
        for kind, n_max in self.ranges:
            fixed = {10**k for k in range(1, len(str(n_max)))} | {n_max}
            drawn = set()
            while len(drawn) < self.extra_checkpoints:
                c = rng.randrange(2, n_max)
                if c not in fixed:
                    drawn.add(c)
            checkpoints[kind] = sorted(fixed | drawn)
        return {"checkpoints": checkpoints}

    def _bfile_indices(self, path):
        return [i for i, _ in oeis.read_bfile(ROOT / path).entries if i >= 1]

    def ops(self, inp, work):
        out = []
        for kind, n_max in self.ranges:
            cps = inp["checkpoints"][kind]
            path = work / f"sum_{kind.replace(':', '_')}.csv"
            argv = ["sum", "--kind", kind, "--n-max", str(n_max),
                    "--checkpoints", ",".join(map(str, cps)), "--workers", str(WORKERS),
                    "--output", str(path)]
            out.append(Op("sum", argv, lambda p=path, k=kind, c=cps: checks.sums(p, k, c)))
        for bfile, kind in BFILES:
            path = work / f"oeis_{kind}.json"
            argv = ["oeis-check", "--bfile", str(ROOT / bfile), "--kind", kind,
                    "--workers", str(WORKERS), "--output", str(path)]
            overlap = len(self._bfile_indices(bfile))
            out.append(Op("oeis_check", argv, lambda p=path, o=overlap: checks.oeis(p, o)))
        return out

    def layer_pass(self, rec, inp, work):
        for kind, n_max in self.ranges:
            cps = inp["checkpoints"][kind]
            with rec.span("op.sum"), rec.span("sums.accumulate") as counts:
                accumulate(parse_kind(kind), n_max, cps, workers=WORKERS)
                counts["checkpoints"] = len(cps)
        for bfile, kind in BFILES:
            with rec.span("op.oeis_check"), rec.span("oeis.check") as counts:
                parsed = oeis.read_bfile(ROOT / bfile)
                indices = [i for i, _ in parsed.entries if i >= 1]
                series = accumulate(parse_kind(kind), indices[-1], indices, workers=WORKERS)
                counts["mismatches"] = len(oeis.oeis_check(series, parsed))

    def layer_metrics(self, rec, inp, work):
        single = [stream(kind, 1, n_max, 1) for kind, n_max in self.ranges]
        pooled = [stream(kind, 1, n_max, WORKERS) for kind, n_max in self.ranges]
        out = stream_metrics(single, pooled)
        out["sums.accumulate_s"] = rec.total("sums.accumulate")
        # Derived: accumulate's own work is accumulate minus the bare stream it reads.
        out["sums.reduce_self_s"] = out["sums.accumulate_s"] - sum(s.seconds for s in pooled)
        out["sums.checkpoints"] = rec.counts("sums.accumulate", "checkpoints")
        out["oeis.check_s"] = rec.total("oeis.check")
        out["oeis.mismatches"] = rec.counts("oeis.check", "mismatches")
        return out


class TableCache(Workload):
    """`table` with a fresh cache dir, run twice: a miss, then a hit."""

    name = "table_cache"
    kind = "moebius"

    def __init__(self, count: int, base: int, spot_checks: int = 64):
        self.count = count
        self.base = base
        self.spot = spot_checks

    def inputs(self, seed):
        rng = random.Random(seed)
        lo = self.base + rng.randrange(self.base // 100)
        hi = lo + self.count - 1
        positions = sorted(rng.sample(range(lo + 1, hi), self.spot)) + [lo, hi]
        return {"lo": lo, "hi": hi, "positions": positions}

    def reset(self, work):
        shutil.rmtree(work / "cache", ignore_errors=True)

    def _argv(self, inp, output, cache=None):
        argv = ["table", "--kind", self.kind, "--lo", str(inp["lo"]), "--hi", str(inp["hi"]),
                "--workers", str(WORKERS), "--output", str(output)]
        return argv + (["--cache-dir", str(cache)] if cache else [])

    def ops(self, inp, work):
        miss, hit, cache = work / "table_miss.txt", work / "table_hit.txt", work / "cache"

        def check_miss():
            return [] if cache.is_dir() and any(cache.iterdir()) else ["table: miss left no cache file"]

        return [
            Op("table_miss", self._argv(inp, miss, cache), check_miss),
            Op("table_hit", self._argv(inp, hit, cache), lambda: checks.table(
                miss, hit, self.kind, inp["lo"], inp["hi"], inp["positions"])),
        ]

    def layer_pass(self, rec, inp, work):
        path = work / "layer_cache.csv"
        with rec.span("op.table_miss"):
            with rec.span("sieves.table") as counts:
                table = sieve_table(parse_kind(self.kind), inp["lo"], inp["hi"], workers=WORKERS)
                counts["bytes"] = table.values.nbytes
            with rec.span("sieves.cache_write"):
                write_table_csv(table, path)
        with rec.span("op.table_hit"), rec.span("sieves.cache_read"):
            read_table_csv(path)

    def layer_metrics(self, rec, inp, work):
        lo, hi = inp["lo"], inp["hi"]
        out = stream_metrics([stream(self.kind, lo, hi, 1)], [stream(self.kind, lo, hi, WORKERS)])
        out["sieves.table_s"] = rec.total("sieves.table")
        out["sieves.table_mb"] = rec.counts("sieves.table", "bytes") / MIB
        out["sieves.cache_write_s"] = rec.total("sieves.cache_write")
        out["sieves.cache_read_s"] = rec.total("sieves.cache_read")
        path = work / "layer_cache.csv"
        table = sieve_table(parse_kind(self.kind), lo, hi, workers=WORKERS)
        out["sieves.cache_write_alloc_mb"] = alloc_peak_mib(lambda: write_table_csv(table, path))
        out["sieves.cache_read_alloc_mb"] = alloc_peak_mib(lambda: read_table_csv(path))
        out["sieves.cache_mb"] = path.stat().st_size / MIB
        # Rendering and emitting the text: the uncached CLI op minus its sieve.
        sieve_s = timed(lambda: sieve_table(parse_kind(self.kind), lo, hi, workers=WORKERS))
        emit_s = timed(lambda: cli.run(self._argv(inp, work / "table_emit.txt")))
        out["cli.table_emit_s"] = emit_s - sieve_s
        return out


#: Full-size workloads, as the benchmark runs them.
WORKLOADS = {
    w.name: w
    for w in (
        MertensScan(10**8),
        DenseStats(2 * 10**7),
        SparseSums(SPARSE_RANGES),
        TableCache(3 * 10**6, 10**8),
    )
}

#: Small versions of the same workloads.  A traced run measures its own
#: workload at full size and the layers it does not touch at these sizes, so
#: every traced run reports every per-layer metric.
PROBES = {
    w.name: w
    for w in (
        MertensScan(2 * 10**6),
        DenseStats(10**6),
        SparseSums(tuple((kind, 2 * 10**6) for kind, _ in SPARSE_RANGES)),
        TableCache(2 * 10**5, 10**6),
    )
}

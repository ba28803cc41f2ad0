"""Deviation-from-trend checks: square-root bounds, exponent scans, variance growth.

The running mean of a summation function is modeled as the linear trend n*C
with C the limiting value of S(n)/n; deviation checks compare |S(n) - nC|
against slowly growing multiples of sqrt(n) or against n^(1/2+xi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .kinds import MOEBIUS, FunctionKind
from .sieves import iter_segments

if TYPE_CHECKING:
    from .sums import SummationSeries

#: Relative widening of the pruning bound in `mertens_riemann_check`; far
#: above the few-ulp rounding of the log and division that compute a ratio.
PRUNE_SLACK = 1.0 + 1e-9

#: Values per chunk of `mertens_riemann_check`: the grain at which it prunes.
CHUNK = 64

#: Block counts, geometric from 30 to all blocks, at which variance growth
#: estimates h_hat(n).
GROWTH_GRID_POINTS = 25


@dataclass(frozen=True)
class PsiSpec:
    """Slowly growing comparison function: a constant, log, or log log."""

    form: str
    c: float | None = None

    def __post_init__(self):
        if self.form not in ("const", "log", "loglog"):
            raise ValueError(f"unknown psi form {self.form!r}")
        if self.form == "const" and (self.c is None or self.c <= 0):
            raise ValueError("const psi requires a positive constant")
        if self.form != "const" and self.c is not None:
            raise ValueError(f"{self.form} takes no constant")

    def __str__(self) -> str:
        if self.form == "const":
            return f"const:{self.c:g}"
        return self.form


def parse_psi(text: str) -> PsiSpec:
    if text.startswith("const:"):
        return PsiSpec("const", float(text.partition(":")[2]))
    return PsiSpec(text)


def psi(spec: PsiSpec | str, n: int) -> float:
    """Evaluate the comparison function; arguments are clamped so logs stay positive."""
    if isinstance(spec, str):
        spec = parse_psi(spec)
    if n < 1:
        raise ValueError("n must be >= 1")
    if spec.form == "const":
        return float(spec.c)
    if spec.form == "log":
        return math.log(max(n, 3))
    return math.log(math.log(max(n, 16)))


@dataclass(frozen=True)
class DeviationReport:
    label: str
    n_lo: int
    n_hi: int
    trend_constant: float
    psi: str | None
    xi: float | None
    worst_ratio: float
    argmax_n: int
    passed: bool
    skipped: int = 0


def counting_ratio(n: int, s, c: float, psi_spec: PsiSpec | str) -> float:
    """|S(n) - nC| / (0.5 sqrt(n) Psi(n))."""
    return abs(s - n * c) / (0.5 * math.sqrt(n) * psi(psi_spec, n))


def exponent_ratio(n: int, s, c: float, xi: float) -> float | None:
    """log|S(n) - nC| / ((1/2 + xi) log n), or None when n < 2 or |S(n) - nC| < 1."""
    dev = abs(s - n * c)
    if n < 2 or dev < 1.0:
        return None
    return math.log(dev) / ((0.5 + xi) * math.log(n))


def counting_psi(kind: FunctionKind, c: float, psi_spec: PsiSpec | str) -> PsiSpec:
    """The parsed Psi of a counting check of `kind` against the trend nC.

    Refuses a kind that is not an indicator and a C outside [0, 1].
    """
    if not kind.is_indicator:
        raise ValueError("counting deviation check requires an indicator kind")
    if not 0.0 <= c <= 1.0:
        raise ValueError("trend constant must lie in [0, 1]")
    return parse_psi(psi_spec) if isinstance(psi_spec, str) else psi_spec


def check_xi(xi: float) -> float:
    """xi itself; refuses an xi that is not finite or is below 0."""
    if not math.isfinite(xi):
        raise ValueError(f"xi must be finite, got {xi}")
    if xi < 0:
        raise ValueError("xi must be >= 0")
    return xi


def _worst_report(
    series: SummationSeries,
    c: float,
    ratio,
    *,
    psi_label: str | None = None,
    xi: float | None = None,
) -> DeviationReport:
    """The report of the largest ratio(n, S(n)) over the checkpoints.

    The first checkpoint wins ties; a None ratio is skipped and counted, and a
    series whose every ratio is None is refused.
    """
    cps = series.checkpoints
    worst, argmax, skipped = None, cps[0], 0
    for n, s in zip(cps, series.sums):
        r = ratio(n, s)
        if r is None:
            skipped += 1
        elif worst is None or r > worst:
            worst, argmax = r, n
    if worst is None:
        raise ValueError("all checkpoints skipped (every deviation below 1)")
    return DeviationReport(
        str(series.kind), cps[0], cps[-1], c, psi_label, xi, worst, argmax, worst <= 1.0, skipped
    )


def counting_deviation_check(
    series: SummationSeries, c: float, psi_spec: PsiSpec | str
) -> DeviationReport:
    """worst_ratio = max_n |S(n) - nC| / (0.5 sqrt(n) Psi(n)) over the checkpoints."""
    psi_spec = counting_psi(series.kind, c, psi_spec)
    return _worst_report(
        series, c, lambda n, s: counting_ratio(n, s, c, psi_spec), psi_label=str(psi_spec)
    )


def exponent_check(series: SummationSeries, c: float, xi: float) -> DeviationReport:
    """worst_ratio = max_n log|S(n) - nC| / ((1/2 + xi) log n) over the checkpoints.

    Checkpoints with |S(n) - nC| < 1 (or n < 2) are skipped to guard the
    logarithm; the skip count is reported.
    """
    check_xi(xi)
    return _worst_report(series, c, lambda n, s: exponent_ratio(n, s, c, xi), xi=xi)


def mertens_riemann_check(n_max: int, xi: float, *, workers: int = 1) -> DeviationReport:
    """Exhaustive |M(n)| <= n^(1/2+xi) scan over every 2 <= n <= n_max.

    The scan is dense on purpose: sign changes of M make checkpoint grids
    unreliable here.  Streams over sieve segments, so memory stays bounded; `workers` is
    accepted and ignored, as in `iter_segments`.
    Each segment is read in chunks of CHUNK values, whose int8 totals (one `np.einsum` over
    the segment's (chunks, CHUNK) reshape, exact because no partial sum of CHUNK = 64 values
    of mu exceeds 64 in magnitude) give
    a = M(lo - 1) and b = M(hi) for every chunk [lo, hi] of s values.  M moves
    by at most 1 per step, so M(n) <= a + (n - lo + 1) and M(n) <= b + (hi - n)
    on the chunk, and the same below: M lies in [(a + b - s)/2, (a + b + s)/2].
    Hence max |M| <= floor((|a + b| + s)/2) there, and M can be 0 only when
    |a + b| <= s.  Every ratio at a chunk end is attained, so the running
    worst and the largest chunk-end ratio of the segment, or 0 before any
    ratio exists, bound the segment's worst from below: a chunk whose
    log(max |M|) / (exponent * log(max(lo, 2))), widened by PRUNE_SLACK,
    stays below that floor cannot hold the worst ratio.  Only the other chunks
    take per-value logarithms, and only they and the chunks that may hold a
    zero of M are summed value by value.
    """
    check_xi(xi)
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    exponent = 0.5 + xi

    def ratios(m, n):
        return np.log(np.abs(m).astype(np.float64)) / (exponent * np.log(n.astype(np.float64)))

    running, worst, argmax, skipped = 0, None, 0, 1  # n = 1 is skipped
    steps = np.arange(CHUNK)
    for lo, hi, vals in iter_segments(MOEBIUS, 1, n_max):
        offsets, full = np.arange(0, len(vals), CHUNK), len(vals) // CHUNK
        totals = np.einsum("ij->i", vals[: full * CHUNK].reshape(full, CHUNK))  # int8, uncast
        if full < len(offsets):  # a short last chunk
            totals = np.append(totals, vals[full * CHUNK :].sum(dtype=np.int8))
        ends = np.cumsum(totals, dtype=np.int64) + running  # M(chunk hi)
        base, running = ends - totals, int(ends[-1])  # M(chunk lo - 1)
        sizes = np.minimum(len(vals) - offsets, CHUNK)
        starts, stops = offsets + lo, offsets + (lo - 1) + sizes
        attained = (ends != 0) & (stops >= 2)
        floor = max(worst or 0.0, float(ratios(ends[attained], stops[attained]).max(initial=0.0)))
        pair = np.abs(base + ends)  # |a + b|
        peak = np.maximum((pair + sizes) // 2, 1)  # a chunk of zeros holds no ratio
        keep = np.log(peak) / (exponent * np.log(np.maximum(starts, 2))) >= floor / PRUNE_SLACK
        rows = np.flatnonzero(keep | (pair <= sizes))
        if not len(rows):  # short segments often prune every chunk
            continue
        inside = steps < sizes[rows, None]  # a short last chunk
        m = np.take(vals, offsets[rows, None] + steps, mode="clip").cumsum(axis=1, dtype=np.int32)
        skipped += int(np.count_nonzero((m == -base[rows, None]) & inside))
        live = keep[rows]
        rows, m, inside = rows[live], m[live], inside[live]
        m, n = m + base[rows, None], starts[rows, None] + steps
        ok = (m != 0) & inside & (n >= 2)
        if ok.any():
            r, n = ratios(m[ok], n[ok]), n[ok]
            i = int(np.argmax(r))
            if worst is None or r[i] > worst:
                worst, argmax = float(r[i]), int(n[i])
    if worst is None:
        raise ValueError("all values skipped (every |M(n)| below 1)")
    return DeviationReport(
        str(MOEBIUS), 2, n_max, 0.0, None, xi, worst, argmax, worst <= 1.0, skipped
    )


@dataclass(frozen=True)
class VarianceGrowth:
    n_values: tuple[int, ...]
    h_hat: tuple[float, ...]  # estimated D(S_n)/n
    slope: float              # log-log slope of h_hat over the trajectory


def growth_from_block_sums(block_sums: np.ndarray, block_size: int) -> VarianceGrowth:
    """h_hat(n) from the sample variance of the first n/B disjoint block sums."""
    t = np.asarray(block_sums, dtype=np.float64)
    count = len(t)
    if count < 30:
        raise ValueError(f"too few blocks ({count}); need >= 30")
    ms = np.unique(np.geomspace(30, count, GROWTH_GRID_POINTS).astype(int))
    h = np.array([t[:m].var(ddof=1) / block_size for m in ms])
    ns = ms * block_size
    if np.all(h > 0):
        slope = float(np.polyfit(np.log(ns), np.log(h), 1)[0])
    else:
        slope = 0.0
    return VarianceGrowth(
        tuple(int(n) for n in ns), tuple(float(v) for v in h), slope
    )


def variance_growth(kind: FunctionKind, n_max: int, block_size: int) -> VarianceGrowth:
    """Trajectory of h_hat(n) = D(S_n)/n estimated from disjoint block sums.

    Near-linear variance growth shows up as a log-log slope near zero.
    """
    from .normality import block_count, block_sums

    end = block_count(n_max, block_size) * block_size
    segments = iter_segments(kind, 1, end)
    return growth_from_block_sums(block_sums(kind, end, block_size, segments), block_size)

"""Deviation-from-trend checks: square-root bounds, exponent scans, variance growth.

The running mean of a summation function is modeled as the linear trend n*C
with C the limiting value of S(n)/n; deviation checks compare |S(n) - nC|
against slowly growing multiples of sqrt(n) or against n^(1/2+xi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kinds import MOEBIUS, FunctionKind
from .normality import block_count, block_sums
from .sieves import DEFAULT_SEGMENT_SIZE, iter_segments
from .sums import SummationSeries

#: Relative widening of the pruning bound in `mertens_riemann_check`; far
#: above the few-ulp rounding of the log and division that compute a ratio.
PRUNE_SLACK = 1.0 + 1e-9

#: Values per chunk of `mertens_riemann_check`: the grain at which it prunes.
CHUNK = 64

#: Chunks `mertens_riemann_check` scans unpruned before its first worst ratio
#: exists; that ratio prunes the rest of their segment.
HEAD_CHUNKS = 16

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


def _chunk_prefixes(vals: np.ndarray) -> np.ndarray:
    """Prefix sums of moebius `vals` restarted every CHUNK values: column c is chunk c.

    A short last chunk is padded with zeros, so its padding repeats its last
    prefix; a segment of one short chunk stops its row adds at its length and
    copies that prefix into the padding.  |prefix| <= CHUNK fits in int8 while
    CHUNK <= 127.
    """
    full, rest = divmod(len(vals), CHUNK)
    t = np.zeros((CHUNK, full + (rest > 0)), np.int8)
    t.T[:full] = vals[: full * CHUNK].reshape(full, CHUNK)
    t[:rest, full:] = vals[full * CHUNK :, None]
    for r in range(1, min(CHUNK, len(vals))):  # vectorized across chunks, where a cumsum is a serial loop
        t[r] += t[r - 1]
    if len(vals) < CHUNK:
        t[len(vals) :] = t[len(vals) - 1]
    return t


def _chunk_worst(t, base, starts, keep, hi: int, exponent: float):
    """(ratio, n) of the first largest log|M(n)| / (exponent log n) over the chunks `keep` of
    the `_chunk_prefixes` table t, whose M(chunk lo - 1) are `base` and whose first n are
    `starts`, for 2 <= n <= hi with M(n) != 0; None when there is no such n."""
    m = np.add(t[:, keep].T, base[keep, None], order="C")  # the chunks in n order
    n = starts[keep, None] + np.arange(CHUNK)
    ok = (m != 0) & (n >= 2) & (n <= hi)
    if not ok.any():
        return None
    m, n = np.abs(m[ok]), n[ok]
    ratios = np.log(m.astype(np.float64)) / (exponent * np.log(n.astype(np.float64)))
    i = int(np.argmax(ratios))
    return float(ratios[i]), int(n[i])


def mertens_riemann_check(
    n_max: int,
    xi: float,
    *,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    workers: int = 1,
) -> DeviationReport:
    """Exhaustive |M(n)| <= n^(1/2+xi) scan over every 2 <= n <= n_max.

    The scan is dense on purpose: sign changes of M make checkpoint grids
    unreliable here.  Streams over sieve segments, so memory stays bounded.
    A chunk of CHUNK values from lo >= 2, whose exact max |M| its prefix sums
    give, cannot raise the running worst when log(max |M|) / (exponent *
    log(lo)), widened by PRUNE_SLACK, stays below it; only the other chunks
    take per-value logarithms.  Until a worst exists, the first HEAD_CHUNKS
    chunks of a segment are scanned whole, and the ratio they attain prunes
    the rest.  M moves by at most 1 per step, so only a chunk whose
    [min M, max M] holds 0 is searched for zeros of M.
    """
    check_xi(xi)
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    exponent = 0.5 + xi
    running, worst, argmax, skipped = 0, None, 0, 1  # n = 1 is skipped
    steps = np.arange(CHUNK)
    for lo, hi, vals in iter_segments(MOEBIUS, 1, n_max, segment_size=segment_size, workers=workers):
        t = _chunk_prefixes(vals)
        ends = np.cumsum(t[-1], dtype=np.int64) + running  # M(chunk hi)
        base, running = ends - t[-1], int(ends[-1])  # M(chunk lo - 1)
        top, bottom = t.max(axis=0) + base, t.min(axis=0) + base
        starts = np.arange(lo, hi + 1, CHUNK)
        z = (bottom <= 0) & (top >= 0)
        skipped += int(np.count_nonzero((t[:, z] == -base[z]) & (starts[z] + steps[:, None] <= hi)))
        parts = [slice(HEAD_CHUNKS), slice(HEAD_CHUNKS, None)] if worst is None else [slice(None)]
        for part in parts:
            keep = slice(None)
            if worst is not None:  # set from n = 3 on, so every chunk here starts at lo >= 4
                peak = np.maximum(np.maximum(top[part], -bottom[part]), 1)  # a chunk of zeros holds no ratio
                keep = np.log(peak) / (exponent * np.log(starts[part])) >= worst / PRUNE_SLACK
                if not keep.any():
                    continue
            found = _chunk_worst(t[:, part], base[part], starts[part], keep, hi, exponent)
            if found is not None and (worst is None or found[0] > worst):
                worst, argmax = found
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


def variance_growth(
    kind: FunctionKind,
    n_max: int,
    block_size: int,
    **kwargs,
) -> VarianceGrowth:
    """Trajectory of h_hat(n) = D(S_n)/n estimated from disjoint block sums.

    Near-linear variance growth shows up as a log-log slope near zero.
    """
    end = block_count(n_max, block_size) * block_size
    segments = iter_segments(kind, 1, end, **kwargs)
    return growth_from_block_sums(block_sums(kind, end, block_size, segments), block_size)

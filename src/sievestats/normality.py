"""Block-sum normality tests and closed-form moment constants.

A single deterministic sequence provides one realization of its partial sums,
so limiting normality is tested on disjoint block sums treated as
approximately independent replicates.  Standardization uses the block-sample
mean and standard deviation: the test targets shape, not location, and
dependence between blocks inflates the statistic rather than hiding it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kinds import FunctionKind
from .sieves import ValueTable, pieces

_SQRT2 = math.sqrt(2.0)


def binomial_variance(q: int, n: int) -> float:
    """Variance Q(1 - Q/n) of an n-trial count with Q observed successes."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= q <= n:
        raise ValueError("need 0 <= Q <= n")
    return q * (1.0 - q / n)


def normal_cdf(z: float) -> float:
    """Standard normal CDF via erfc (absolute error well below 1e-7)."""
    return 0.5 * math.erfc(-z / _SQRT2)


def ks_normal(samples) -> float:
    """Two-sided Kolmogorov-Smirnov distance from samples to the standard normal.

    The supremum is evaluated at the sample points from both sides of each
    jump of the empirical CDF.
    """
    z = np.asarray(samples, dtype=np.float64)
    if z.size < 30:
        raise ValueError("need at least 30 samples")
    if not np.all(np.isfinite(z)):
        raise ValueError("samples must be finite")
    z = np.sort(z)
    j = z.size
    cdf = np.array([normal_cdf(v) for v in z])
    d_plus = float(np.max(np.arange(1, j + 1) / j - cdf))
    d_minus = float(np.max(cdf - np.arange(0, j) / j))
    return max(d_plus, d_minus)


@dataclass(frozen=True)
class BlockSample:
    block_size: int
    block_count: int
    block_sums: tuple[float, ...]
    standardized: tuple[float, ...]
    sample_mean: float
    sample_sd: float


def block_count(n: int, block_size: int) -> int:
    """Number of disjoint blocks in [1, n]; refuses blocks below 100 or fewer than 30 blocks."""
    if block_size < 100:
        raise ValueError("block size must be >= 100")
    count = n // block_size
    if count < 30:
        raise ValueError(f"too few blocks ({count}); need >= 30")
    return count


def block_sums(kind: FunctionKind, n: int, block_size: int, segments) -> np.ndarray:
    """T_1, ..., T_{n//B} of f(1..n) as float64, from ascending (lo, hi, values) segments.

    Integer segments are reduced in their `sieves.pieces`, each at its block starts by one int64
    `np.add.reduceat`, which casts the piece's at most PIECE_VALUES values; a block that straddles
    two pieces or segments carries its partial sum into the next.  Values past n//B blocks go
    unread.  Von Mangoldt's `SparseSegment` weights are added into blocks by `np.bincount`, split
    into heads on the 2^-22 grid, whose sums below 2^30 > psi(10^9) are exact, and the small rest:
    each block's part of a segment is rounded once, as `math.fsum` rounds.
    """
    count = block_count(n, block_size)
    end = count * block_size
    dense = kind.is_integer_valued
    sums = np.zeros(count, dtype=np.int64 if dense else np.float64)
    for lo, hi, vals in segments:
        if lo > end:
            break
        for lo, _, part in pieces(lo, vals[: end - lo + 1]) if dense else [(lo, hi, vals)]:
            block = (lo - 1) // block_size
            if dense:
                first = -(lo - 1) % block_size  # offset of the first block start in the piece
                starts = np.arange(first or block_size, len(part), block_size)
                parts = np.add.reduceat(part, np.concatenate(([0], starts)), dtype=np.int64)
            else:
                kept = part.offsets.searchsorted(end - lo + 1)
                at, weights = (part.offsets[:kept] + lo - 1) // block_size - block, part.weights[:kept]
                head = np.rint(weights * 2.0**22) / 2.0**22  # multiples of 2^-22 below 2^30 add exactly
                parts = np.bincount(at, head) + np.bincount(at, weights - head)
            sums[block : block + len(parts)] += parts
    return sums.astype(np.float64)


def block_sample(kind: FunctionKind, n: int, block_size: int, segments) -> BlockSample:
    """The block sums T_j of f(1..n) from `block_sums` and their studentized values (T_j - mean)/sd."""
    sums = block_sums(kind, n, block_size, segments)
    mean = float(sums.mean())
    sd = float(sums.std(ddof=1))
    if sd == 0.0:
        raise ValueError("degenerate variance: all block sums are equal")
    z = (sums - mean) / sd
    return BlockSample(block_size, len(sums), tuple(sums.tolist()), tuple(z.tolist()), mean, sd)


def block_standardize(table: ValueTable, n: int, block_size: int) -> BlockSample:
    """Disjoint block sums T_j of f(1..n) and their studentized values (T_j - mean)/sd."""
    return block_sample(table.kind, n, block_size, table.segments(n))


@dataclass(frozen=True)
class NormalityReport:
    label: str
    n: int
    block_size: int
    block_count: int
    standardized: tuple[float, ...]
    ks_statistic: float
    sample_mean: float
    sample_sd: float


def normality_report(label: str, n: int, blocks: BlockSample) -> NormalityReport:
    """KS distance of the studentized block sums of f(1..n) to the standard normal."""
    return NormalityReport(
        label,
        n,
        blocks.block_size,
        blocks.block_count,
        blocks.standardized,
        ks_normal(blocks.standardized),
        blocks.sample_mean,
        blocks.sample_sd,
    )


def squarefree_parity_weight_moments() -> tuple[float, float]:
    """Limiting mean 3/pi^2 and variance 15/pi^2 - 9/pi^4 of the three-valued weight.

    The weight takes 2 and -1 with limiting probability 3/pi^2 each and 0 with
    probability 1 - 6/pi^2, giving mean (2 - 1)*3/pi^2 and second moment
    (4 + 1)*3/pi^2.
    """
    pi2 = math.pi**2
    mean = 3.0 / pi2
    variance = 15.0 / pi2 - 9.0 / pi2**2
    return mean, variance


def mertens_increment_variance() -> float:
    """Limiting variance 6/pi^2 of the Moebius values (density of squarefree numbers)."""
    return 6.0 / math.pi**2

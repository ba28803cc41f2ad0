"""Block-sum normality tests.

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
from .sieves import ValueTable, range_sums

_SQRT2 = math.sqrt(2.0)


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
    """T_1, ..., T_{n//B} of f(1..n) as float64: `sieves.range_sums` at the block ends, from
    ascending (lo, hi, values) segments, so values past n//B blocks go unread; integer sums are
    exact, and each von Mangoldt T_j is rounded once, as `math.fsum` rounds."""
    ends = np.arange(1, block_count(n, block_size) + 1) * block_size
    return range_sums(kind, ends, segments).sum(axis=0).astype(np.float64)


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

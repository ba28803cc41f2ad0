"""Empirical moments, densities and the distribution function of f on [1, n].

The underlying probability model is the uniform measure on {1, ..., n}:
probabilities are plain frequencies, the mean is S(n)/n and the distribution
function uses the strict inequality F(y) = P{f(k) < y}.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .kinds import FunctionKind, check_cdf_range
from .sieves import ValueTable

#: Histograms are kept only for alphabets up to this many distinct values.
HISTOGRAM_LIMIT = 64


@dataclass(frozen=True)
class EmpiricalMoments:
    n: int
    mean: float
    variance: float
    min_value: float
    max_value: float
    histogram: dict | None


def _value_counts(vals, alphabet) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values in ascending order and their counts, as `np.unique` gives them.

    A finite alphabet is counted value by value instead of sorting; values
    outside it are refused.
    """
    if alphabet is None:  # a `SparseSegment`: its zeros, if any, then its weights
        uniq, counts = np.unique(vals.weights, return_counts=True)
        zeros = len(vals) - len(vals.offsets)
        return (np.append(0.0, uniq), np.append(zeros, counts)) if zeros else (uniq, counts)
    support = np.array(sorted(alphabet), dtype=vals.dtype)
    counts = np.array([np.count_nonzero(vals == a) for a in support], dtype=np.int64)
    if int(counts.sum()) != len(vals):
        raise ValueError(f"values outside the alphabet {tuple(alphabet)}")
    present = counts > 0
    return support[present], counts[present]


def value_counts(kind: FunctionKind, segments) -> tuple[np.ndarray, np.ndarray]:
    """`_value_counts` of the values of (lo, hi, values) segments, counted one segment at a time."""
    parts = [_value_counts(vals, kind.alphabet()) for _, _, vals in segments]
    uniq, where = np.unique(np.concatenate([u for u, _ in parts]), return_inverse=True)
    counts = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(counts, where, np.concatenate([c for _, c in parts]))
    return uniq, counts


def moments_from_counts(kind: FunctionKind, n: int, uniq, counts) -> EmpiricalMoments:
    """Mean (1/n)sum u*c, variance (1/n)sum u^2*c - mean^2, extremes and histogram."""
    weighted = uniq * counts
    mean = weighted.sum().item() / n
    if kind.is_indicator:
        # For 0/1 values, (1/n)sum f^2 - mean^2 is exactly mean(1 - mean).
        variance = mean * (1.0 - mean)
    else:
        variance = max((uniq * weighted).sum().item() / n - mean * mean, 0.0)
    histogram = dict(zip(uniq.tolist(), counts.tolist())) if len(uniq) <= HISTOGRAM_LIMIT else None
    return EmpiricalMoments(n, mean, variance, float(uniq[0]), float(uniq[-1]), histogram)


def moments(table: ValueTable, n: int) -> EmpiricalMoments:
    """Mean S(n)/n, variance (1/n)sum f^2 - mean^2, extremes and histogram."""
    return moments_from_counts(table.kind, n, *value_counts(table.kind, table.segments(n)))


def density(kind: FunctionKind, n: int) -> float:
    """Fraction Q(n)/n of integers in [1, n] satisfying an indicator kind."""
    if not kind.is_indicator:
        raise ValueError(f"density requires an indicator kind, got {kind}")
    if n < 1:
        raise ValueError("n must be >= 1")
    from .sums import accumulate

    return accumulate(kind, n, [n]).sums[0] / n


@dataclass(frozen=True)
class EmpiricalCdf:
    """F(y) = fraction of k <= n with f(k) < y (strict inequality).

    cdf_below lists F at each support value plus a final entry for +inf,
    which always equals 1.
    """

    n: int
    support: tuple
    counts: tuple[int, ...]
    cdf_below: tuple[float, ...]

    def below(self, y: float) -> float:
        """F(y) for an arbitrary threshold y."""
        idx = bisect.bisect_left(self.support, y)
        return self.cdf_below[idx]


def cdf_from_counts(n: int, uniq, counts) -> EmpiricalCdf:
    """F(y) on [1, n] from the distinct values and their counts."""
    cum = np.concatenate(([0], np.cumsum(counts)))
    return EmpiricalCdf(n, tuple(uniq.tolist()), tuple(counts.tolist()), tuple((cum / n).tolist()))


def empirical_cdf(table: ValueTable, n: int) -> EmpiricalCdf:
    check_cdf_range(table.kind, n)
    return cdf_from_counts(n, *value_counts(table.kind, table.segments(n)))

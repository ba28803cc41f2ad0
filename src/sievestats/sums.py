"""Exact prefix sums S(n) = sum_{i<=n} f(i) at checkpoints, streamed over segments."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .identities import identity_sums, prefers_identities
from .kinds import MOEBIUS, FunctionKind, validate_checkpoints
from .sieves import DEFAULT_SEGMENT_SIZE, iter_segments, validate_range


@dataclass(frozen=True)
class SummationSeries:
    """S(c) at each checkpoint c.

    Sums are exact Python integers for integer-valued kinds and compensated
    float64 sums for von Mangoldt.
    """

    kind: FunctionKind
    checkpoints: tuple[int, ...]
    sums: tuple

    def __post_init__(self):
        if len(self.checkpoints) != len(self.sums):
            raise ValueError("checkpoints and sums differ in length")

    def as_map(self) -> dict:
        return dict(zip(self.checkpoints, self.sums))


def accumulate(
    kind: FunctionKind,
    n_max: int,
    checkpoints,
    *,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    workers: int = 1,
) -> SummationSeries:
    """Exact S(c) for every checkpoint c.

    Sparse checkpoints of the kinds in `identities.IDENTITY_TAGS` come from
    exact floor-quotient identities (routed by
    `identities.prefers_identities`); everything else from one streaming
    sieve pass over [1, n_max].  Both routes refuse the same inputs.
    """
    cps = validate_checkpoints(checkpoints, n_max)
    validate_range(1, n_max, segment_size=segment_size)
    if prefers_identities(kind, cps, n_max):
        sums = identity_sums(kind, cps, segment_size=segment_size, workers=workers)
    else:
        segments = iter_segments(kind, 1, n_max, segment_size=segment_size, workers=workers)
        sums = checkpoint_sums(kind, cps, segments)
    return SummationSeries(kind, tuple(cps), tuple(sums))


def checkpoint_sums(kind: FunctionKind, cps: list[int], segments) -> list:
    """S(c) at each checkpoint c from an ascending stream of (lo, hi, values) segments.

    One Kahan-compensated carry runs across segments: an exact Python int
    for integer kinds (int64 inside a segment never overflows: |f| <= 2 and
    segments hold < 2^21 values), so its compensation stays 0, and a float
    for von Mangoldt, whose segments are summed pairwise.
    """
    dtype, scalar = (np.int64, int) if kind.is_integer_valued else (np.float64, float)
    sums: list = []
    idx = 0
    total = comp = scalar(0)
    buf = np.empty(0, dtype=dtype)  # reused by every segment: one prefix array is ever alive
    for lo, hi, vals in segments:
        if idx < len(cps) and cps[idx] <= hi:
            if len(buf) < len(vals):
                buf = np.empty(len(vals), dtype=dtype)
            prefix = np.cumsum(vals, dtype=dtype, out=buf[: len(vals)])
            while idx < len(cps) and cps[idx] <= hi:
                sums.append(total + scalar(prefix[cps[idx] - lo]))
                idx += 1
            seg_total = scalar(prefix[-1])
        else:
            seg_total = scalar(vals.sum(dtype=dtype))
        y = seg_total - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return sums


def mertens(n: int, **kwargs) -> int:
    """M(n) = sum_{k<=n} mu(k)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return accumulate(MOEBIUS, n, [n], **kwargs).sums[0]

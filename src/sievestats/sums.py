"""Exact prefix sums S(n) = sum_{i<=n} f(i) at checkpoints, streamed over segments."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .identities import identity_sums, prefers_identities
from .kinds import MOEBIUS, FunctionKind, validate_checkpoints
from .sieves import DEFAULT_SEGMENT_SIZE, PIECE_VALUES, iter_segments, pieces, validate_range


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

    One Kahan-compensated carry runs across the parts of the stream: for integer kinds an exact
    Python int across the `sieves.pieces` of each segment, so its compensation stays 0.  A piece
    that holds a checkpoint is prefix-summed as int64 into one reused buffer of PIECE_VALUES + 1
    entries, and S(c) is the carry plus the prefix at c - lo + 1 values; any other piece is summed
    in numpy's small cast buffers, so no reduction casts more than PIECE_VALUES values at once.
    Von Mangoldt's carry is a float across whole segments, whose `SparseSegment` weights are
    summed pairwise, or in order where the segment holds a checkpoint: the zero-filled segment's
    nonzero terms in its order, so S(c) takes those at offsets up to c - lo.
    """
    dense = kind.is_integer_valued
    dtype, scalar = (np.int64, int) if dense else (np.float64, float)
    sums: list = []
    idx = 0
    total = comp = scalar(0)
    buf = np.zeros(PIECE_VALUES + 1 if dense else 1, dtype=dtype)  # one prefix array is ever alive
    for lo, hi, vals in segments:
        for lo, hi, terms in pieces(lo, vals) if dense else [(lo, hi, vals.weights)]:
            if idx < len(cps) and cps[idx] <= hi:
                if len(buf) <= len(terms):
                    buf = np.zeros(len(terms) + 1, dtype=dtype)
                prefix = buf[: len(terms) + 1]  # prefix[k]: the sum of the first k terms
                np.cumsum(terms, dtype=dtype, out=prefix[1:])
                while idx < len(cps) and cps[idx] <= hi:
                    k = cps[idx] - lo + 1 if dense else vals.offsets.searchsorted(cps[idx] - lo, "right")
                    sums.append(total + scalar(prefix[k]))
                    idx += 1
                part_total = scalar(prefix[-1])
            else:
                part_total = scalar(terms.sum(dtype=dtype))
            y = part_total - comp
            t = total + y
            comp = (t - total) - y
            total = t
    return sums


def mertens(n: int, **kwargs) -> int:
    """M(n) = sum_{k<=n} mu(k)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return accumulate(MOEBIUS, n, [n], **kwargs).sums[0]

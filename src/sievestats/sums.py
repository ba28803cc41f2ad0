"""Exact prefix sums S(n) = sum_{i<=n} f(i) at checkpoints, streamed over segments."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .identities import identity_sums, prefers_identities
from .kinds import MOEBIUS, FunctionKind, validate_checkpoints
from .sieves import iter_segments, range_sums, validate_range


@dataclass(frozen=True)
class SummationSeries:
    """S(c) at each checkpoint c.

    Sums are exact Python integers for integer-valued kinds and, for von
    Mangoldt, float64 sums rounded once, as `math.fsum` rounds.
    """

    kind: FunctionKind
    checkpoints: tuple[int, ...]
    sums: tuple

    def __post_init__(self):
        if len(self.checkpoints) != len(self.sums):
            raise ValueError("checkpoints and sums differ in length")

    def as_map(self) -> dict:
        return dict(zip(self.checkpoints, self.sums))


def accumulate(kind: FunctionKind, n_max: int, checkpoints, *, workers: int = 1) -> SummationSeries:
    """Exact S(c) for every checkpoint c.

    Sparse checkpoints of the kinds in `identities.IDENTITY_TAGS` come from
    exact floor-quotient identities (routed by
    `identities.prefers_identities`); everything else from one streaming
    sieve pass over [1, n_max].  Both routes refuse the same inputs.  `workers` is accepted
    and ignored, as in `sieves.iter_segments`.
    """
    cps = validate_checkpoints(checkpoints, n_max)
    validate_range(1, n_max)
    if prefers_identities(kind, cps, n_max):
        sums = identity_sums(kind, cps)
    else:
        sums = checkpoint_sums(kind, cps, iter_segments(kind, 1, n_max))
    return SummationSeries(kind, tuple(cps), tuple(sums))


def checkpoint_sums(kind: FunctionKind, cps: list[int], segments) -> list:
    """S(c) at each checkpoint c from an ascending stream of (lo, hi, values) segments, read up to
    the last checkpoint: the running sums of `sieves.range_sums` over the checkpoints, exact
    Python ints for integer kinds and, for von Mangoldt, `math.fsum` of the weights up to c."""
    return np.cumsum(range_sums(kind, cps, segments), axis=1).sum(axis=0).tolist()


def mertens(n: int) -> int:
    """M(n) = sum_{k<=n} mu(k)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return accumulate(MOEBIUS, n, [n]).sums[0]

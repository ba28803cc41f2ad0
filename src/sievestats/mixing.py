"""Autocovariance, independence gaps, strong-mixing estimates and stationarity verdicts.

Mixing coefficients are estimated over single-coordinate cylinder events
(value subsets of the alphabet) with an exhaustive subset scan, and event
probabilities are frequencies over positions, so the estimate is a certified
lower bound on the full sigma-algebra supremum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .kinds import VON_MANGOLDT, FunctionKind, increasing_ints, validate_checkpoints
from .sieves import SparseSegment, ValueTable, range_sums

DEFAULT_REPORT_LAGS = tuple(range(1, 21)) + (50, 100)

#: Stationarity report settings: disjoint windows for the position-stability
#: covariances, and the verdict thresholds described in `stationarity_report`.
REPORT_WINDOWS = 4
MEAN_TOLERANCE = 0.01
COVARIANCE_FACTOR = 3.0
COVARIANCE_MIN_LAG = 10

EVENT_FAMILY = "single-coordinate value subsets"


@dataclass(frozen=True)
class CovarianceSequence:
    n: int
    lags: tuple[int, ...]
    r_hat: tuple[float, ...]
    mean_used: float


def validate_lags(lags, n: int, minimum: int = 0) -> list[int]:
    out = increasing_ints(lags, "lag", minimum)
    if out[-1] >= n / 2:
        raise ValueError(f"max lag {out[-1]} must be below n/2 = {n / 2}")
    return out


def _value_bits(n: int, segments, alphabet) -> tuple[list[np.ndarray], np.ndarray]:
    """Bitsets of the positions holding each alphabet value but the last, and every value's count.

    Packed from ascending (lo, hi, values) segments covering [1, n]: position
    k is bit k % 64 of little-endian uint64 word k // 64, and each bitset ends
    in at least one zero word, so a shift never reads past its end.  A segment
    starting inside a byte ORs its first values into that byte's zero high
    bits, then packs onto whole bytes.  The last value is only counted, one
    compare per segment: its positions are the ones in no bitset.  Refuses a
    segment whose counts do not add up to its length, so a value outside the
    alphabet.
    """
    bits = [np.zeros(-(-n // 64) + 1, dtype="<u8") for _ in alphabet[:-1]]
    counts, hits = np.zeros(len(alphabet), dtype=np.int64), np.empty(0, dtype=bool)
    for lo, _, values in segments:
        if len(hits) < len(values):  # one buffer, reused by every segment
            hits = np.empty(len(values), dtype=bool)
        k, head = lo - 1, -(lo - 1) % 8
        found = [0] * len(alphabet)
        for i, a in enumerate(alphabet):
            # Compared in the values' own dtype, so a stray value matches nothing.
            eq = np.equal(values, a, out=hits[: len(values)])
            found[i] = int(np.count_nonzero(eq))
            if i == len(bits):  # the last value: counted, not packed
                break
            out = bits[i].view(np.uint8)
            if head:
                out[k // 8] |= np.packbits(eq[:head], bitorder="little")[0] << (k % 8)
            packed = np.packbits(eq[head:], bitorder="little")
            out[-(-k // 8) : -(-k // 8) + len(packed)] = packed
        if sum(found) != len(values):
            raise ValueError(f"values outside the alphabet {tuple(alphabet)}")
        counts += found
    return bits, counts


def _range_counts(bits: list[np.ndarray], start: int, stop: int) -> np.ndarray:
    """Each bitset's popcount on positions [start, stop), start <= stop: its words, less the
    bits outside in the end words (an empty range's one word has all its bits outside)."""
    out = np.empty(len(bits), dtype=np.int64)
    w0, w1 = start // 64, -(-stop // 64)
    for i, b in enumerate(bits):
        outside = (int(b[w0]) & ((1 << start % 64) - 1)).bit_count()
        if stop % 64:
            outside += (int(b[w1 - 1]) >> stop % 64).bit_count()
        out[i] = int(np.bitwise_count(b[w0:w1]).sum()) - outside
    return out


def _lag_counts(bits: list[np.ndarray], lag: int, start: int, stop: int, counts: np.ndarray) -> np.ndarray:
    """J[i, j] = #{k in [start, end) : f(k) = alphabet[i], f(k + lag) = alphabet[j]}, where
    end = stop - lag > start: the pairs inside positions [start, stop) of `_value_bits` bitsets.

    Only the (k - 1)^2 pairs of bitsets are AND-popcounted.  Row i of J sums
    to value i's count on [start, end) and column j to value j's count on
    [start + lag, stop): `counts`, each value's count on [start, stop), less
    the `lag` positions cut from the other end.  Those sums give the last
    value's row and column, and the corner is what the range has left.
    """
    q, r = divmod(lag, 64)
    end = stop - lag
    w0, w1 = start // 64, -(-end // 64)
    joint = np.empty((len(bits) + 1, len(bits) + 1), dtype=np.int64)
    ahead, both = np.empty(w1 - w0, dtype=np.uint64), np.empty(w1 - w0, dtype=np.uint64)
    for j, b in enumerate(bits):
        # Bit k of `ahead` is bit k + lag of b: a word shift plus an r-bit carry,
        # then cleared outside [start, end) in the first and last word.
        np.right_shift(b[w0 + q : w1 + q], r, out=ahead)
        if r:
            ahead |= np.left_shift(b[w0 + q + 1 : w1 + q + 1], 64 - r, out=both)
        ahead[0] &= (1 << 64) - (1 << (start % 64))
        ahead[-1] &= (1 << (end % 64 or 64)) - 1
        for i, a in enumerate(bits):
            np.bitwise_and(a[w0:w1], ahead, out=both)
            joint[i, j] = int(np.bitwise_count(both).sum())
    inner = joint[:-1, :-1]
    joint[:-1, -1] = counts[:-1] - _range_counts(bits, end, stop) - inner.sum(axis=1)
    joint[-1, :-1] = counts[:-1] - _range_counts(bits, start, start + lag) - inner.sum(axis=0)
    joint[-1, -1] = (end - start) - joint[:-1].sum() - joint[-1, :-1].sum()
    return joint


def _report_windows(n: int) -> list[tuple[int, int]]:
    """The stationarity report's `REPORT_WINDOWS` disjoint position ranges [start, stop) of [0, n)."""
    window = n // REPORT_WINDOWS
    return [(w * window, (w + 1) * window) for w in range(REPORT_WINDOWS)]


def _window_lag(lag: int, n: int) -> bool:
    """Whether the report windows count `lag`, and so J_lag on [0, n) is their sum."""
    return lag < (n // REPORT_WINDOWS) / 2


class PairCounts:
    """Lagged pair statistics of f on [1, n]: read once, each (lag, range) counted once.

    Reads ascending (lo, hi, values) segments covering [1, n].  A finite alphabet is packed
    by `_value_bits` into one bitset per value but the last; von Mangoldt keeps its sparse
    form, the positions k - 1 of its prime powers k and their weights, and a bool flag per
    position.  `joint(lag, start, stop)` counts a lag's pairs on positions [start, stop) the
    first time it is asked, then keeps them: J_lag by `_lag_counts`, or von Mangoldt's cross
    moment by `_sparse_cross`.  On [0, n), at a lag the report windows count, that is the
    windows' sum plus the pairs that straddle a window end or lie past the last window.
    """

    def __init__(self, n: int, segments, alphabet):
        self.n, self.alphabet, self._joint = n, alphabet, {}
        if alphabet is None:
            parts = [(values.offsets + (lo - 1), values.weights) for lo, _, values in segments]
            self.positions, self.weights = (np.concatenate(part) for part in zip(*parts))
            self.segments = [(1, n, SparseSegment(n, self.positions, self.weights))]
            self.flags = np.zeros(n, dtype=bool)
            self.flags[self.positions] = True
        else:
            self.bits, self.counts = _value_bits(n, segments, alphabet)
            self.a = np.array(alphabet, dtype=np.int64)
            self._counts = {(0, n): self.counts}
        self.mean = self._moments([], 0, n)[0] / n

    def range_counts(self, start: int, stop: int) -> np.ndarray:
        """Each alphabet value's count on positions [start, stop), the last one by difference."""
        if (start, stop) not in self._counts:
            found = _range_counts(self.bits, start, stop)
            self._counts[start, stop] = np.append(found, stop - start - found.sum())
        return self._counts[start, stop]

    def joint(self, lag: int, start: int = 0, stop: int | None = None):
        """J_lag on positions [start, stop), or von Mangoldt's sum w(k) w(k + lag) there."""
        key = (lag, start, stop or self.n)
        if key not in self._joint:
            if key[1:] == (0, self.n) and _window_lag(lag, self.n):
                windows = _report_windows(self.n)
                edges = [(b - lag, b + lag) for _, b in windows[:-1]] + [(windows[-1][1] - lag, self.n)]
                self._joint[key] = sum(self.joint(lag, a, b) for a, b in windows + edges if b - a > lag)
            elif self.alphabet is None:
                self._joint[key] = self._sparse_cross(*key)
            else:
                self._joint[key] = _lag_counts(self.bits, *key, self.range_counts(*key[1:]))
        return self._joint[key]

    def _sparse_cross(self, lag: int, start: int, stop: int) -> float:
        """sum w(k) w(k + lag) over the positions k in [start, stop - lag) whose k + lag is
        flagged, pairwise; each partner's index found by a search among the positions."""
        first, last = self.positions.searchsorted((start, stop - lag))
        pairs = first + np.flatnonzero(self.flags[self.positions[first:last] + lag])
        partners = self.positions.searchsorted(self.positions[pairs] + lag) if lag else pairs
        return float(np.sum(self.weights[pairs] * self.weights[partners]))

    def covariances(self, lags, start: int = 0, stop: int | None = None) -> list[float]:
        """Centered covariances on [start, stop) by one formula over `_moments`: the range's sum
        S, and at each lag h the cross moment C = sum f(k) f(k + h) and the sum E over the first
        and the last n - h values; r(h) = (C - m E)/(n - h) + m^2 with m = S/n, r(0) = C/n - m^2."""
        stop = stop or self.n
        n, (total, moments) = stop - start, self._moments(lags, start, stop)
        mean = total / n
        return [(cross - mean * ends) / (n - h) + mean * mean if h else max(cross / n - mean * mean, 0.0)
                for h, (cross, ends) in zip(lags, moments)]

    def _moments(self, lags, start: int, stop: int) -> tuple:
        """S and each lag's (C, E) for `covariances`.  Exact ints for an alphabet: C = a.J.a,
        E from J's row and column sums, J_0 the diagonal of the counts.  Von Mangoldt: S and the
        head and tail sums from one `range_sums` call, each rounded once, and C from `joint`."""
        if self.alphabet:
            a, counts = self.a, self.range_counts(start, stop)
            joints = [self.joint(h, start, stop) if h else np.diag(counts) for h in lags]
            return int(a @ counts), [
                (int(a @ j @ a), int(a @ j.sum(axis=1)) + int(a @ j.sum(axis=0))) for j in joints]
        ends = sorted({start, stop, *(e for h in lags for e in (start + h, stop - h))})
        rows = dict(zip(ends, np.cumsum(range_sums(VON_MANGOLDT, ends, self.segments), axis=1).T))

        def total(a: int, b: int) -> float:  # S on [a, b), its two parts added once
            return float((rows[b] - rows[a]).sum())

        return total(start, stop), [
            (self.joint(h, start, stop), total(start, stop - h) + total(start + h, stop)) for h in lags]

    def gaps(self, lag: int, rows1, rows2) -> np.ndarray:
        """|P(B1 x B2) - P(B1) P(B2)| over the n - lag pairs, for each value subset B1 of
        `rows1` against each B2 of `rows2`, given as 0/1 indicator rows over the alphabet."""
        rows1, rows2 = np.asarray(rows1, dtype=np.int64), np.asarray(rows2, dtype=np.int64)
        joint, m = self.joint(lag), self.n - lag
        cj = rows1 @ joint @ rows2.T
        c1, c2 = rows1 @ joint.sum(axis=1), rows2 @ joint.sum(axis=0)
        return np.abs(cj / m - np.outer(c1 / m, c2 / m))

    def alpha(self, lag: int) -> float:
        """Max gap over all pairs of nonempty proper value subsets."""
        size = len(self.alphabet)
        subsets = [[i in s for i in range(size)] for k in range(1, size)
                   for s in combinations(range(size), k)]
        return float(self.gaps(lag, subsets, subsets).max())


def autocovariance(table: ValueTable, n: int, lags) -> CovarianceSequence:
    """r_hat(h) = (1/(n-h)) sum_{k<=n-h} (f(k)-m)(f(k+h)-m), m the mean on [1, n]."""
    lags, pairs = validate_lags(lags, n, minimum=0), PairCounts(n, table.segments(n), table.kind.alphabet())
    return CovarianceSequence(n, tuple(lags), tuple(pairs.covariances(lags)), pairs.mean)


@dataclass(frozen=True)
class MixingEstimate:
    n: int
    lags: tuple[int, ...]
    alpha_hat: tuple[float, ...]
    event_family: str = EVENT_FAMILY


def alpha_hat(table: ValueTable, n: int, lags) -> MixingEstimate:
    """Max independence gap over all nonempty proper subset pairs, per lag."""
    alphabet = table.kind.alphabet()
    if alphabet is None:
        raise ValueError("mixing estimates require a finite-alphabet kind")
    lags, pairs = validate_lags(lags, n, minimum=1), PairCounts(n, table.segments(n), alphabet)
    return MixingEstimate(n, tuple(lags), tuple(pairs.alpha(h) for h in lags))


@dataclass(frozen=True)
class StationarityReport:
    kind: FunctionKind
    n: int
    checkpoints: tuple[int, ...]
    mean_trajectory: tuple[float, ...]
    mean_limit_estimate: float
    tail_oscillation: float
    value_bound: float
    bounded: bool
    covariance_lags: tuple[int, ...]
    covariance_global: tuple[float, ...]
    covariance_stability: float
    mean_verdict: bool
    covariance_verdict: bool
    variance_verdict: bool
    thresholds: dict = field(default_factory=dict)


def stationarity_report(
    kind: FunctionKind,
    n: int,
    checkpoints,
    *,
    table: ValueTable,
) -> StationarityReport:
    """Constant-mean, covariance-decay and bounded-variance verdicts for one kind.

    `table` must cover [1, n].  The thresholds are engineering settings,
    recorded in the report: the mean passes when the trajectory S(n)/n
    oscillates by at most MEAN_TOLERANCE*(1+|C|) over the last half of the
    checkpoints, and the covariance passes when
    |r_hat(h)| <= COVARIANCE_FACTOR*r_hat(0)/sqrt(n) for every lag
    h >= COVARIANCE_MIN_LAG among DEFAULT_REPORT_LAGS below n/2.
    """
    cps = validate_checkpoints(checkpoints, n)
    if table.kind != kind:
        raise ValueError("table kind does not match the requested kind")
    return report_from_pairs(kind, cps, PairCounts(n, table.segments(n), kind.alphabet()))


def report_from_pairs(kind: FunctionKind, cps, pairs: PairCounts) -> StationarityReport:
    """`stationarity_report` over checked checkpoints, reading [1, n]'s prebuilt `pairs`."""
    n = pairs.n
    if pairs.alphabet is None:  # S(c): the running `range_sums` of the kept weights, rounded once
        sums = np.cumsum(range_sums(kind, cps, pairs.segments), axis=1).sum(axis=0).tolist()
    else:  # S(c): each value's counts on [0, c1), [c1, c2), ..., summed up to c, dotted with the alphabet
        counts = [pairs.range_counts(a, b) for a, b in zip([0, *cps], cps)]
        sums = (np.cumsum(counts, axis=0) @ pairs.a).tolist()
    traj = [s / c for c, s in zip(cps, sums)]
    c_limit = traj[-1]
    tail = traj[len(traj) // 2 :]
    tail_osc = max(abs(v - c_limit) for v in tail)

    lags = validate_lags([h for h in DEFAULT_REPORT_LAGS if h < n / 2], n, minimum=1)
    r0, *r_global = pairs.covariances([0, *lags])

    # Position stability: covariances recomputed on disjoint windows.
    win_lags = [h for h in lags if _window_lag(h, n)]  # none when a window holds under 3 values
    r_windows = [pairs.covariances(win_lags, *window) for window in _report_windows(n)] if win_lags else []
    stability = max((abs(rw - rg) for r in r_windows for rw, rg in zip(r, r_global)), default=0.0)

    bound = kind.value_bound()
    bounded = bound is not None
    value_bound = float(bound) if bounded else float(pairs.weights.max(initial=0.0))

    mean_threshold = MEAN_TOLERANCE * (1.0 + abs(c_limit))
    cov_threshold = COVARIANCE_FACTOR * r0 / math.sqrt(n)
    tested = [r for h, r in zip(lags, r_global) if h >= COVARIANCE_MIN_LAG]
    covariance_verdict = all(abs(r) <= cov_threshold for r in tested)

    return StationarityReport(
        kind=kind,
        n=n,
        checkpoints=tuple(cps),
        mean_trajectory=tuple(traj),
        mean_limit_estimate=c_limit,
        tail_oscillation=tail_osc,
        value_bound=value_bound,
        bounded=bounded,
        covariance_lags=tuple(lags),
        covariance_global=tuple(r_global),
        covariance_stability=stability,
        mean_verdict=tail_osc <= mean_threshold,
        covariance_verdict=covariance_verdict,
        variance_verdict=bounded,
        thresholds={
            "mean_tolerance": mean_threshold,
            "covariance_bound": cov_threshold,
            "covariance_min_lag": COVARIANCE_MIN_LAG,
        },
    )

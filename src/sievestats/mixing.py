"""Autocovariance, independence gaps, strong-mixing estimates and stationarity verdicts.

Mixing coefficients are estimated over single-coordinate cylinder events
(value subsets of the alphabet) with an exhaustive subset scan, and event
probabilities are frequencies over positions, so the estimate is a certified
lower bound on the full sigma-algebra supremum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kinds import FunctionKind
from .sieves import DEFAULT_SEGMENT_SIZE, ValueTable
from .spectral import empirical_autocovariance
from .sums import checkpoint_sums, validate_checkpoints

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
    out = [int(h) for h in lags]
    if not out:
        raise ValueError("at least one lag is required")
    if any(h < minimum for h in out):
        raise ValueError(f"lags must be >= {minimum}")
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ValueError("lags must be strictly increasing")
    if out[-1] >= n / 2:
        raise ValueError(f"max lag {out[-1]} must be below n/2 = {n / 2}")
    return out


def _value_bits(values: np.ndarray, alphabet) -> tuple[list[np.ndarray], np.ndarray]:
    """Per alphabet value, the bitset of positions holding it, and each value's count.

    A bitset is little-endian uint64 words (position k is bit k % 64 of word
    k // 64) ending in at least one zero word, so a shift never reads past
    its end.  Refuses values outside the alphabet.
    """
    n = len(values)
    words = -(-n // 64) + 1
    hits = np.zeros(64 * words, dtype=bool)
    bits = []
    for a in alphabet:
        # Compared in the values' own dtype, so a stray value matches nothing.
        np.equal(values, a, out=hits[:n])
        bits.append(np.packbits(hits, bitorder="little").view("<u8"))
    counts = np.array([int(np.bitwise_count(b).sum()) for b in bits], dtype=np.int64)
    if int(counts.sum()) != n:
        raise ValueError(f"values outside the alphabet {tuple(alphabet)}")
    return bits, counts


def _lag_counts(bits: list[np.ndarray], lag: int) -> np.ndarray:
    """J[i, j] = #{k : f(k) = alphabet[i], f(k + lag) = alphabet[j]} from `_value_bits`."""
    q, r = divmod(lag, 64)
    words = len(bits[0]) - 1 - q
    joint = np.empty((len(bits), len(bits)), dtype=np.int64)
    both = np.empty(words, dtype=np.uint64)
    for j, b in enumerate(bits):
        # Bit k of `ahead` is bit k + lag of b: a word shift plus an r-bit carry.
        ahead = b[q : q + words] >> r
        if r:
            ahead |= b[q + 1 : q + 1 + words] << (64 - r)
        for i, a in enumerate(bits):
            np.bitwise_and(a[:words], ahead, out=both)
            joint[i, j] = int(np.bitwise_count(both).sum())
    return joint


def _autocov_values(values: np.ndarray, lags, alphabet) -> tuple[list[float], float]:
    """Centered covariances and the mean; exact integer cross-moments for a finite alphabet."""
    if alphabet is None:
        x = np.asarray(values, dtype=np.float64)
        return empirical_autocovariance(x, lags).tolist(), float(x.mean())
    n = len(values)
    bits, counts = _value_bits(values, alphabet)
    a = np.array(alphabet, dtype=np.int64)
    mean = int(a @ counts) / n
    out = []
    for h in lags:
        if h == 0:
            out.append(max(int(a * a @ counts) / n - mean * mean, 0.0))
            continue
        joint = _lag_counts(bits, h)
        cross = int(a @ joint @ a)
        s_head = int(a @ joint.sum(axis=1))
        s_tail = int(a @ joint.sum(axis=0))
        out.append((cross - mean * (s_head + s_tail)) / (n - h) + mean * mean)
    return out, mean


def autocovariance(table: ValueTable, n: int, lags) -> CovarianceSequence:
    """r_hat(h) = (1/(n-h)) sum_{k<=n-h} (f(k)-m)(f(k+h)-m), m the mean on [1, n]."""
    lags = validate_lags(lags, n, minimum=0)
    vals = table.prefix(n)
    r_hat, mean = _autocov_values(vals, lags, table.kind.alphabet())
    return CovarianceSequence(n, tuple(lags), tuple(r_hat), mean)


def _subset_gap(joint: np.ndarray, sel1: list[int], sel2: list[int], m: int) -> float:
    """|P(B1 x B2) - P(B1) P(B2)| from joint counts over m pairs; B1, B2 given as code lists."""
    block = joint[sel1, :]
    cj = int(block[:, sel2].sum())
    c1 = int(block.sum())
    c2 = int(joint[:, sel2].sum())
    return abs(cj / m - (c1 / m) * (c2 / m))


def independence_gap(table: ValueTable, n: int, lag: int, b1, b2) -> float:
    """|P(f(k) in B1, f(k+lag) in B2) - P(f(k) in B1) P(f(k+lag) in B2)|.

    Frequencies run over k in [1, n-lag]; an empty subset gives 0.
    """
    if lag < 1:
        raise ValueError("lag must be >= 1")
    if n - lag < 1:
        raise ValueError("empty range after the lag shift")
    alphabet = table.kind.alphabet()
    if alphabet is None:
        raise ValueError("independence gaps require a finite-alphabet kind")
    b1, b2 = frozenset(b1), frozenset(b2)
    if not b1 <= set(alphabet) or not b2 <= set(alphabet):
        raise ValueError(f"subsets must lie within the alphabet {alphabet}")
    bits, _ = _value_bits(table.prefix(n), alphabet)
    joint = _lag_counts(bits, lag)
    sel1 = [i for i, a in enumerate(alphabet) if a in b1]
    sel2 = [i for i, a in enumerate(alphabet) if a in b2]
    return _subset_gap(joint, sel1, sel2, n - lag)


@dataclass(frozen=True)
class MixingEstimate:
    n: int
    lags: tuple[int, ...]
    alpha_hat: tuple[float, ...]
    event_family: str = EVENT_FAMILY


def _subset_index_lists(size: int) -> list[list[int]]:
    # All nonempty proper subsets of {0..size-1} as index lists.
    return [
        [i for i in range(size) if mask >> i & 1]
        for mask in range(1, (1 << size) - 1)
    ]


def alpha_hat_values(values: np.ndarray, alphabet, lags) -> MixingEstimate:
    """Strong-mixing estimate for a raw value sequence over a finite alphabet."""
    values = np.asarray(values)
    n = len(values)
    lags = validate_lags(lags, n, minimum=1)
    alphabet = sorted(alphabet)
    size = len(alphabet)
    if size > 8:
        raise ValueError("exhaustive subset scan limited to alphabets of <= 8 values")
    bits, _ = _value_bits(values, alphabet)
    subsets = _subset_index_lists(size)
    out = []
    for h in lags:
        joint = _lag_counts(bits, h)
        gaps = (_subset_gap(joint, s1, s2, n - h) for s1 in subsets for s2 in subsets)
        out.append(max(gaps, default=0.0))
    return MixingEstimate(n, tuple(lags), tuple(out))


def alpha_hat(table: ValueTable, n: int, lags) -> MixingEstimate:
    """Max independence gap over all nonempty proper subset pairs, per lag."""
    alphabet = table.kind.alphabet()
    if alphabet is None:
        raise ValueError("mixing estimates require a finite-alphabet kind")
    return alpha_hat_values(table.prefix(n), alphabet, lags)


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
    vals = table.prefix(n)
    alphabet = kind.alphabet()

    # Sliced as `iter_segments` slices [1, n], so von Mangoldt's float
    # trajectory matches `accumulate` bit for bit.
    step = DEFAULT_SEGMENT_SIZE
    segments = (
        (lo, min(lo + step - 1, n), vals[lo - 1 : lo - 1 + step]) for lo in range(1, n + 1, step)
    )
    traj = [s / c for c, s in zip(cps, checkpoint_sums(kind, cps, segments))]
    c_limit = traj[-1]
    tail = traj[len(traj) // 2 :]
    tail_osc = max(abs(v - c_limit) for v in tail)

    lags = validate_lags([h for h in DEFAULT_REPORT_LAGS if h < n / 2], n, minimum=1)
    (r0, *r_global), _ = _autocov_values(vals, [0, *lags], alphabet)

    # Position stability: covariances recomputed on disjoint windows.
    window = n // REPORT_WINDOWS
    stability = 0.0
    if window >= 2:
        win_lags = [h for h in lags if h < window / 2]
        for w in range(REPORT_WINDOWS):
            seg = vals[w * window : (w + 1) * window]
            r_win, _ = _autocov_values(seg, win_lags, alphabet)
            for rw, rg in zip(r_win, r_global):
                stability = max(stability, abs(rw - rg))

    bound = kind.value_bound()
    bounded = bound is not None
    value_bound = float(bound) if bounded else float(np.max(np.abs(vals)))

    mean_threshold = MEAN_TOLERANCE * (1.0 + abs(c_limit))
    cov_threshold = COVARIANCE_FACTOR * r0 / math.sqrt(n)
    tested = [
        (h, r) for h, r in zip(lags, r_global) if h >= COVARIANCE_MIN_LAG
    ]
    covariance_verdict = all(abs(r) <= cov_threshold for _, r in tested)

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

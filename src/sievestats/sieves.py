"""Segmented sieves that materialize arithmetic-function values over a range.

All sieves stream over cache-sized segments, so ranges up to the fixed
maximum `DEFAULT_MAX_HI` = 10^9 run in bounded memory.  Every stream is
one loop on the calling thread: each segment is sieved when its consumer
asks for it, in ascending order, so a reduction reads f(lo), f(lo + 1), ...
in order, and the stream holds one segment at a time.

A segment kernel starts from a residue pattern of the wheel primes 2, 3, 5,
7, 11 and 13 (`_wheels`, built on first use), copied or tiled from lo mod
WHEEL = 30030.  Those six primes carry over half of the strided writes of a
plain sieve; here they cost one copy.  The base primes above 13 then write
their multiples from offsets found in one vectorized step per segment
(`_sieve_steps`).  A step below a threshold, 2^13 for adds and 2^15 for
zeros, writes through its own strided view in place, because `buf[o::p] += u`
writes the view a second time through `__setitem__`.  The larger steps hit a
segment a few times each, so, as in a bucket sieve, their hits are gathered
and written in batched scatters, not one numpy call per step.  Primes, units,
squares and prime powers are computed once per stream (`sieve_base`).
A von Mangoldt segment is a `SparseSegment` of its prime powers, about
1 in 20 values at 10^9: a fresh psi(10^9) `sum` takes 3.2-3.3 s and 37 MiB peak RSS
(shared 2 vCPU host).

A slow trial-division oracle (`factor_signature`, `oracle_value`) computes
the same functions straight from the definitions and is the independent
cross-check used by the test suite.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import math
import os
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .kinds import FunctionKind, parse_kind

DEFAULT_SEGMENT_SIZE = 1 << 20  # cache-resident marking buffers
CHUNK_CHARS = 1 << 20  # the most text a cache check or a cache hit's copy reads at once
TAKE_VALUES = 1 << 14  # values rendered at once: `np.take` copies its indices to intp
PIECE_VALUES = 1 << 16  # the most values of an int8 segment that a reduction casts at once
DEFAULT_MAX_HI = 10**9  # the largest hi any sieve accepts; below SIGNATURE_MAX_HI
LOG_UNITS = 6  # accumulator units per bit in the factor-signature kernel
SIGNATURE_MAX_HI = 2**36 - 1  # largest hi whose accumulator fits in uint8
WHEEL_PRIMES = (2, 3, 5, 7, 11, 13)  # sieved by tiling residue patterns mod their product
WHEEL = math.prod(WHEEL_PRIMES)  # 30030
ADD_BATCH_STEP = 1 << 13  # the least step whose adds `_sieve_steps` batches
ZERO_BATCH_STEP = 1 << 15  # the least step whose zeros `_sieve_steps` batches
STRIKE_HITS = 1 << 15  # the most hits one batched scatter applies


@dataclass(frozen=True)
class SparseSegment:
    """Von Mangoldt on `size` values: the ascending int64 offsets of its prime powers, their logs."""

    size: int
    offsets: np.ndarray
    weights: np.ndarray

    def __len__(self) -> int:
        return self.size

    @classmethod
    def of(cls, values: np.ndarray) -> SparseSegment:
        offsets = np.flatnonzero(values)
        return cls(len(values), offsets, values[offsets])


@dataclass(frozen=True)
class ValueTable:
    """Dense values of one arithmetic function on the inclusive range [lo, hi].

    Integer kinds use an int8 buffer; von Mangoldt uses float64, which `segments` yields as
    `SparseSegment`s, as `iter_segments` does.  A completed table is treated as immutable.
    """

    kind: FunctionKind
    lo: int
    hi: int
    values: np.ndarray

    def __post_init__(self):
        if not 1 <= self.lo <= self.hi:
            raise ValueError(f"invalid range [{self.lo}, {self.hi}]")
        if len(self.values) != self.hi - self.lo + 1:
            raise ValueError("value buffer length does not match the range")

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def value_at(self, n: int):
        if not self.lo <= n <= self.hi:
            raise ValueError(f"{n} outside table range [{self.lo}, {self.hi}]")
        v = self.values[n - self.lo]
        return int(v) if self.kind.is_integer_valued else float(v)

    def segments(self, n: int) -> Iterator[tuple[int, int, np.ndarray | SparseSegment]]:
        """f(1), ..., f(n) as (lo, hi, values) views, sliced as `iter_segments` slices [1, n]."""
        if self.lo != 1 or self.hi < n or n < 1:
            raise ValueError(f"table [{self.lo}, {self.hi}] does not cover [1, {n}]")
        form = np.asarray if self.kind.alphabet() else SparseSegment.of
        return ((lo, hi, form(self.values[lo - 1 : hi])) for lo, hi in segment_bounds(1, n))


def pieces(lo: int, values: np.ndarray) -> Iterator[tuple[int, int, np.ndarray]]:
    """(lo, hi, view) of each PIECE_VALUES-value slice of the segment `values` that starts at lo,
    uncopied: `ufunc.reduceat` with a wider `dtype`, and `np.cumsum` to one, cast their whole input."""
    for at in range(0, len(values), PIECE_VALUES):
        piece = values[at : at + PIECE_VALUES]
        yield lo + at, lo + at + len(piece) - 1, piece


def range_sums(kind: FunctionKind, ends, segments) -> np.ndarray:
    """The sum of f over each range (e', e] between consecutive ascending `ends`, the first from
    the stream's start, read from ascending (lo, hi, values) segments up to ends[-1] only.

    Two rows add up to the sums.  Integer kinds: the exact int64 sums, by one `np.add.reduceat`
    per `pieces` piece at the range starts inside it (a piece that holds none is summed), and 0s.
    Von Mangoldt: each weight w splits into its head h, w rounded to the 2^-22 grid, and the rest
    w - h, both exact; the heads' sums are exact, as psi(10^9) 2^22 < 2^53, and the rests' tiny,
    so the rows' sum, or that of their running sums, rounds once, as `math.fsum` does.
    """
    ends = np.asarray(ends, dtype=np.int64)
    last = int(ends[-1])
    rows = np.zeros((2, len(ends)), dtype=np.int64 if kind.is_integer_valued else np.float64)
    for lo, hi, values in segments:
        if kind.is_integer_valued:
            for a, b, piece in pieces(lo, values[: last - lo + 1]):
                first, final = ends.searchsorted((a, b))  # the ranges holding a and b
                if first == final:
                    rows[0, first] += piece.sum(dtype=np.int64)
                else:
                    starts = np.concatenate(([0], ends[first:final] + 1 - a))
                    rows[0, first : final + 1] += np.add.reduceat(piece, starts, dtype=np.int64)
        else:
            kept = values.offsets.searchsorted(last - lo + 1)
            offsets, weights = values.offsets[:kept], values.weights[:kept]
            head = weights + 2.0**30  # the 2^-22 grid: Rump, Ogita & Oishi's exact extraction
            head -= 2.0**30
            first, final = ends.searchsorted((lo, min(hi, last)))
            bounds = np.concatenate(([0], offsets.searchsorted(ends[first:final] + 1 - lo), [kept]))
            held = np.flatnonzero(np.diff(bounds))  # the ranges that hold a weight
            rows[0, first + held] += np.add.reduceat(head, bounds[held])
            rest = np.subtract(weights, head, out=head)  # the heads' buffer, so one temporary
            rows[1, first + held] += np.add.reduceat(rest, bounds[held])
        if hi >= last:
            return rows
    raise ValueError(f"the segments end before {last}")


def prime_flags_upto(limit: int) -> np.ndarray:
    """Dense primality flags for 0..limit (plain Eratosthenes)."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[: min(2, limit + 1)] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


def base_primes(limit: int) -> np.ndarray:
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    return np.flatnonzero(prime_flags_upto(limit)).astype(np.int64)


@dataclass(frozen=True)
class SieveBase:
    """Per-stream constants of the segment kernels for values up to a bound: the base
    primes p <= sqrt(bound), ascending, with L(p) (see `_signature_sign`) and p^2, and the
    proper prime powers p^k <= bound (k >= 2), ascending, with p and L(p)."""

    primes: np.ndarray
    units: np.ndarray
    squares: np.ndarray
    powers: np.ndarray
    power_primes: np.ndarray
    power_units: np.ndarray


def _log_units(primes) -> np.ndarray:
    """L(p), the least odd integer >= LOG_UNITS*log2(p), of each prime as uint8."""
    return np.ceil(LOG_UNITS * np.log2(primes)).astype(np.uint8) | 1


def sieve_base(bound: int) -> SieveBase:
    """The `SieveBase` of every segment of values up to `bound`."""
    primes = base_primes(math.isqrt(bound))
    owners, powers = [primes], [primes * primes]
    while len(owners[-1]):
        keep = powers[-1] <= bound // owners[-1]  # p^(k+1) <= bound
        owners.append(owners[-1][keep])
        powers.append(powers[-1][keep] * owners[-1])
    powers, owners = np.concatenate(powers), np.concatenate(owners)
    order = np.argsort(powers)
    owners = owners[order]
    return SieveBase(primes, _log_units(primes), primes * primes, powers[order], owners, _log_units(owners))


@functools.cache
def _wheels() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Residues 0..2*WHEEL-1 (two periods) of the patterns each segment starts from: the sum
    of L(p) (uint8) and the count (int8) of the wheel primes p dividing the residue, and
    whether the residue is coprime to WHEEL."""
    units = np.zeros(2 * WHEEL, dtype=np.uint8)
    count = np.zeros(2 * WHEEL, dtype=np.int8)
    for p, unit in zip(WHEEL_PRIMES, _log_units(WHEEL_PRIMES)):
        units[::p] += unit
        count[::p] += 1
    patterns = units, count, count == 0
    for pattern in patterns:  # shared by every caller
        pattern.flags.writeable = False
    return patterns


def _tiled(pattern: np.ndarray, lo: int, size: int) -> np.ndarray:
    """A new array of the `size` values of the doubled wheel `pattern` from residue lo % WHEEL on."""
    start = lo % WHEEL
    if size <= WHEEL:
        return pattern[start : start + size].copy()
    return np.resize(pattern[start : start + WHEEL], size)


@functools.cache
def _unit_cells(dtype: np.dtype) -> list[np.ndarray]:
    """The 256 values of a one-byte `dtype`, each as a read-only 0-d array, indexed by their byte."""
    cells = [np.array(v) for v in np.arange(256, dtype=np.uint8).view(dtype)]
    for cell in cells:  # shared by every caller
        cell.flags.writeable = False
    return cells


def _sieve_steps(buf: np.ndarray, offsets: np.ndarray, steps: np.ndarray, units=None) -> None:
    """buf[o::s] += u, or buf[o::s] = 0 without `units`, for each offset o, step s and unit u
    of buf's one-byte dtype.

    `steps` ascend.  A step below the threshold, ADD_BATCH_STEP for adds and ZERO_BATCH_STEP
    for zeros (a strided zero costs less per call), writes through its own strided view, in
    place: `buf[o::s] += u` would write the view back through `__setitem__`, a second strided
    pass.  An add takes its unit as a prebuilt 0-d array (`_unit_cells`), since numpy converts a
    scalar operand on every call.  A larger step hits the segment only a few times, so a numpy
    call of its own would cost more than its writes.  The hits of those steps are gathered, at
    most STRIKE_HITS at once, from `np.repeat` of the steps and their first offsets by their
    counts plus one `arange`, and each batch is one scatter: `buf[hits] = 0`, or `np.add.at`,
    which is unbuffered, so two steps that hit one value both add there.  A step at least as
    long as the segment is the case of one hit or none.  STRIKE_HITS int64s are 256 KiB, which
    the allocator reuses; at 2^16 each batch mapped fresh pages and paid their faults.
    """
    batched = steps.searchsorted(ZERO_BATCH_STEP if units is None else ADD_BATCH_STEP)
    strided = zip(offsets[:batched].tolist(), steps[:batched].tolist())
    if units is None:
        for o, s in strided:
            buf[o::s] = 0
    else:
        cells = _unit_cells(buf.dtype)
        for (o, s), u in zip(strided, units[:batched].view(np.uint8).tolist()):
            view = buf[o::s]
            view += cells[u]
    if batched == len(steps):
        return
    offsets, steps = offsets[batched:], steps[batched:]
    live = offsets < len(buf)  # most steps longer than the segment hit nothing
    offsets, steps = offsets[live], steps[live]
    counts = (len(buf) - 1 - offsets) // steps + 1
    if units is not None:
        units = units[batched:][live]
    ends = np.cumsum(counts)  # the hits of the steps up to each one
    at = 0
    while at < len(steps):
        done = int(ends[at] - counts[at])
        stop = max(int(ends.searchsorted(done + STRIKE_HITS, "right")), at + 1)
        part, times = slice(at, stop), counts[at:stop]
        # The batch's i-th hit, the k-th of a step whose first hit is the batch's j-th, lands at
        # o + k*s = (o - j*s) + i*s.
        hits = np.arange(int(ends[stop - 1]) - done)
        hits *= np.repeat(steps[part], times)
        hits += np.repeat(offsets[part] - (ends[part] - times - done) * steps[part], times)
        if units is None:
            buf[hits] = 0
        else:
            np.add.at(buf, hits, np.repeat(units[part], times))
        at = stop


def _prime_flags_segment(lo: int, hi: int, base: SieveBase) -> np.ndarray:
    flags = _tiled(_wheels()[2], lo, hi - lo + 1)
    if lo <= WHEEL_PRIMES[-1]:  # below 14 the primes are the wheel primes, which the pattern strikes
        small = np.arange(lo, min(hi, WHEEL_PRIMES[-1]) + 1)
        flags[: len(small)] = np.isin(small, WHEEL_PRIMES)
    live = slice(len(WHEEL_PRIMES), base.squares.searchsorted(hi, "right"))
    primes, squares = base.primes[live], base.squares[live]
    # The pattern already clears the even n, so each prime strikes its odd multiples, all
    # p mod 2p, from p^2 (itself odd) or lo on.
    _sieve_steps(flags, np.maximum(squares - lo, (primes - lo) % (2 * primes)), 2 * primes)
    return flags


def _strike_squares(buf: np.ndarray, lo: int, hi: int, base: SieveBase) -> np.ndarray:
    """`buf`, the values of [lo, hi], with 0 written at each n that a prime square divides."""
    squares = base.squares[: base.squares.searchsorted(hi, "right")]
    _sieve_steps(buf, (-lo) % squares, squares)
    return buf


def _signature_sign(
    lo: int, hi: int, base: SieveBase, *, multiplicity: bool, omega=None
) -> np.ndarray:
    """(-1)^(prime-factor count) of each n in [lo, hi] as int8, from a log sieve.

    Counts distinct primes, or primes with multiplicity when `multiplicity`
    is set; `omega`, if given, the wheel primes' count of each n, gains the
    count of the other distinct primes.  A uint8
    accumulator `acc` gains L(p), the least odd integer >= S*log2(p) with
    S = LOG_UNITS = 6, at every multiple of each base prime p (and of p^k when
    counting multiplicity).  It starts from the wheel: the sum of L(p) over the
    primes p <= 13 dividing n, tiled from the residue of lo mod WHEEL = 30030;
    the base primes above 13 then add in place.  Odd units make `acc & 1` the
    parity of the sieved count.  The sieved primes are every prime up to at
    least sqrt(hi), 2 included, so they leave over 1 or one prime q > sqrt(hi),
    with q > m = n/q and q >= 3.
    The cofactor shows as a log deficit, acc < S*floor(log2 n), a threshold
    constant on each [2^k, 2^(k+1)).  A fully sieved n has acc >= S*log2(n);
    n = m*q has acc <= S*log2(m) + 2*Omega(m) <= (S+2)*log2(m) < S*(log2(n)-1)
    as (S-2)*log2(q) >= S for q >= 3.  L(p) <= 7*log2(p) for every p, so
    acc <= 7*log2(n) < 252 for n <= SIGNATURE_MAX_HI = 2^36 - 1: no wrap.
    """
    acc = _tiled(_wheels()[0], lo, hi - lo + 1)
    live = slice(len(WHEEL_PRIMES), base.primes.searchsorted(hi, "right"))
    primes = base.primes[live]
    offsets = (-lo) % primes
    _sieve_steps(acc, offsets, primes, base.units[live])
    if omega is not None:
        _sieve_steps(omega, offsets, primes, np.broadcast_to(np.int8(1), primes.shape))
    if multiplicity:
        powers = base.powers[: base.powers.searchsorted(hi, "right")]
        _sieve_steps(acc, (-lo) % powers, powers, base.power_units[: len(powers)])
    for k in range(lo.bit_length() - 1, hi.bit_length()):
        start, stop = max(lo, 1 << k) - lo, min(hi, (2 << k) - 1) - lo + 1
        for at in range(start, stop, PIECE_VALUES):  # a mask of at most PIECE_VALUES at once
            bits = acc[at : min(at + PIECE_VALUES, stop)]
            cofactor = bits < LOG_UNITS * k
            if omega is not None:
                count = omega[at : at + len(bits)]
                count += cofactor
            bits &= 1
            bits ^= cofactor
    sign = acc.view(np.int8)
    sign *= -2
    sign += 1
    return sign


def _von_mangoldt_segment(lo: int, hi: int, base: SieveBase) -> SparseSegment:
    offsets = np.flatnonzero(_prime_flags_segment(lo, hi, base))
    first, end = base.powers.searchsorted((lo, hi + 1))  # the proper prime powers in [lo, hi]
    powers = base.powers[first:end] - lo
    at, logs = offsets.searchsorted(powers), [math.log(p) for p in base.power_primes[first:end].tolist()]
    weights = np.insert(np.log(offsets + lo), at, logs)  # log p at each p^k, k >= 1
    return SparseSegment(hi - lo + 1, np.insert(offsets, at, powers), weights)


def _segment_values(kind: FunctionKind, lo: int, hi: int, base: SieveBase) -> np.ndarray | SparseSegment:
    tag = kind.tag
    if tag == "prime_indicator":
        return _prime_flags_segment(lo, hi, base).view(np.int8)
    if tag == "twin_prime_indicator":
        flags = _prime_flags_segment(lo, hi + 2, base)
        twins = flags[:-2]
        for at, _, piece in pieces(0, twins):  # in place, ascending: no piece reads a flag written before
            piece &= flags[at + 2 : at + 2 + len(piece)]
        return twins.view(np.int8)
    if tag == "squarefree_indicator":
        return _strike_squares(np.ones(hi - lo + 1, dtype=np.int8), lo, hi, base)
    if tag in ("moebius", "squarefree_parity_weight"):
        mu = _strike_squares(_signature_sign(lo, hi, base, multiplicity=False), lo, hi, base)
        if tag == "squarefree_parity_weight":
            for _, _, piece in pieces(lo, mu):  # 2 where mu is 1, with a mask of one piece
                piece += piece == 1
        return mu
    if tag == "liouville":
        return _signature_sign(lo, hi, base, multiplicity=True)
    if tag == "omega_equals":
        omega = _tiled(_wheels()[1], lo, hi - lo + 1)  # the wheel primes' count
        _signature_sign(lo, hi, base, multiplicity=True, omega=omega)
        return np.equal(omega, kind.k, out=omega.view(bool)).view(np.int8)
    if tag == "von_mangoldt":
        return _von_mangoldt_segment(lo, hi, base)
    raise ValueError(f"unsupported kind: {kind}")


def segment_bounds(lo: int, hi: int, size: int = DEFAULT_SEGMENT_SIZE) -> list[tuple[int, int]]:
    """The (lo, hi) bounds of the `size`-value segments `iter_segments` cuts [lo, hi] into."""
    return [(a, min(a + size - 1, hi)) for a in range(lo, hi + 1, size)]


def validate_range(lo: int, hi: int) -> None:
    """Raise ValueError for a range that `iter_segments` refuses."""
    if not 1 <= lo <= hi:
        raise ValueError(f"invalid range [{lo}, {hi}]")
    if hi > DEFAULT_MAX_HI:
        raise ValueError(f"hi={hi} exceeds the configured maximum {DEFAULT_MAX_HI}")


def iter_segments(
    kind: FunctionKind,
    lo: int,
    hi: int,
    *,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    workers: int = 1,
) -> Iterator[tuple[int, int, np.ndarray | SparseSegment]]:
    """Yield (seg_lo, seg_hi, values) covering [lo, hi] in ascending order, each segment sieved
    on the calling thread when it is asked for; von Mangoldt's values are `SparseSegment`s.

    Every segment holds `segment_size` values but the last.  This is the one place a segment
    length is chosen: no result depends on it, so every other entry point streams at the
    default.  `workers` is accepted and ignored: every stream runs this one loop.
    """
    if segment_size < 1:
        raise ValueError("segment_size must be positive")
    validate_range(lo, hi)
    base = sieve_base(hi + 2)  # +2 covers the twin lookahead
    for a, b in segment_bounds(lo, hi, segment_size):
        yield a, b, _segment_values(kind, a, b, base)


def sieve_table(kind: FunctionKind, lo: int, hi: int, *, workers: int = 1) -> ValueTable:
    """Materialize f(lo..hi) as a ValueTable, each segment written into one buffer; `workers`
    is accepted and ignored, as in `iter_segments`."""
    return table_from_segments(kind, lo, hi, iter_segments(kind, lo, hi))


def table_from_segments(kind: FunctionKind, lo: int, hi: int, segments) -> ValueTable:
    """f on [lo, hi] from ascending (lo, hi, values) segments covering it, filled into one buffer
    (von Mangoldt's scattered into zeros); a single dense segment covering [lo, hi] is kept uncopied."""
    values, dense = None, kind.alphabet() is not None
    for a, b, part in segments:
        if (a, b) == (lo, hi) and isinstance(part, np.ndarray):
            values = part
            continue
        if values is None:
            values = np.zeros(hi - lo + 1, dtype=np.int8 if dense else np.float64)
        if dense:
            values[a - lo : b - lo + 1] = part
        else:
            values[part.offsets + (a - lo)] = part.weights
    return ValueTable(kind, lo, hi, values)


# ---------------------------------------------------------------------------
# Trial-division oracle (slow; used for testing and for vendored data files)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FactorSignature:
    omega: int       # distinct prime divisors
    big_omega: int   # prime divisors with multiplicity
    squarefree: bool


def trial_factors(n: int) -> list[tuple[int, int]]:
    """Prime factorization [(p, e), ...] by trial division."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    out = []
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def factor_signature(n: int) -> FactorSignature:
    factors = trial_factors(n)
    omega = len(factors)
    big_omega = sum(e for _, e in factors)
    return FactorSignature(omega, big_omega, omega == big_omega)


def _is_prime_slow(n: int) -> bool:
    return n >= 2 and trial_factors(n) == [(n, 1)]


def oracle_value(kind: FunctionKind, n: int):
    """Definition-level value of f(n), independent of the segmented sieves."""
    tag = kind.tag
    if tag == "prime_indicator":
        return 1 if _is_prime_slow(n) else 0
    if tag == "twin_prime_indicator":
        return 1 if _is_prime_slow(n) and _is_prime_slow(n + 2) else 0
    if tag == "von_mangoldt":
        factors = trial_factors(n)
        return math.log(factors[0][0]) if len(factors) == 1 else 0.0
    sig = factor_signature(n)
    if tag == "squarefree_indicator":
        return 1 if sig.squarefree else 0
    if tag in ("moebius", "squarefree_parity_weight"):
        if not sig.squarefree:
            return 0
        if sig.omega % 2:
            return -1
        return 1 if tag == "moebius" else 2
    if tag == "liouville":
        return -1 if sig.big_omega % 2 else 1
    if tag == "omega_equals":
        return 1 if sig.omega == kind.k else 0
    raise ValueError(f"unsupported kind: {kind}")


# ---------------------------------------------------------------------------
# On-disk CSV cache
# ---------------------------------------------------------------------------


def _line_rows(alphabet) -> np.ndarray:
    """256 `V{width}` rows, one per int8 byte: each alphabet value's line `f"{v}\\n"`, zero-padded
    on the left to the longest line's width, sits at the row of its byte v mod 256; the rows of
    every other byte are all zero, so they hold no newline."""
    width = max(len(f"{v}\n") for v in alphabet)
    rows = np.zeros((256, width), dtype=np.uint8)
    for v in alphabet:
        line = f"{v}\n".encode()
        rows[v % 256, width - len(line) :] = list(line)
    return rows.view(f"V{width}")[:, 0]


def _refuse_outside(kind: FunctionKind, values: np.ndarray) -> None:
    """Raise ValueError naming the first of `values` outside `kind`'s alphabet, if any."""
    if (outside := values[~np.isin(values, kind.alphabet())]).size:
        raise ValueError(f"{kind} takes no value {outside[0]}; its alphabet is {kind.alphabet()}")


def _integer_lines(kind: FunctionKind, rows: np.ndarray, values: np.ndarray) -> str:
    """The lines of an integer kind's `values`, TAKE_VALUES at a time: their `_line_rows` by byte,
    taken into one reused buffer, then the padding deleted, if the alphabet's lines differ in
    width.  A value outside the alphabet takes a row with no newline and is refused."""
    if values.dtype != np.int8:  # read by value, never by the bytes of a wider item
        _refuse_outside(kind, values)
        values = values.astype(np.int8)
    index = values.view(np.uint8)
    padded = len({len(str(v)) for v in kind.alphabet()}) > 1
    buffer, texts = np.empty(min(len(index), TAKE_VALUES), dtype=rows.dtype), []
    for at in range(0, len(index), TAKE_VALUES):
        part = index[at : at + TAKE_VALUES]
        lines = np.take(rows, part, out=buffer[: len(part)])
        if not lines.view(np.uint8)[rows.itemsize - 1 :: rows.itemsize].all():  # each line's last byte
            _refuse_outside(kind, values)
        text = lines.tobytes()
        texts.append((text.translate(None, b"\0") if padded else text).decode("ascii"))
    return "".join(texts)


def _von_mangoldt_lines(segment: SparseSegment) -> str:
    """One line per value: each log to 17 digits, after the run of "0" lines before it."""
    zeros = np.diff(segment.offsets, prepend=-1, append=len(segment)) - 1  # before each log, then at the end
    logs = [f"{x:.17g}\n" for x in segment.weights.tolist()]
    return "".join(["0\n" * z + log for z, log in zip(zeros.tolist(), [*logs, ""])])


def table_pieces(kind: FunctionKind, lo: int, hi: int, segments) -> Iterator[str]:
    """Cache format of f on [lo, hi]: the header `kind,lo,hi`, then one line per value, as one
    str per segment of the ascending (lo, hi, values) `segments` covering [lo, hi].  Integer lines
    are looked up from `_line_rows`, and a value outside the alphabet raises ValueError; von
    Mangoldt's zeros print as "0", its logs to 17 digits."""
    alphabet = kind.alphabet()
    if alphabet:
        lines = functools.partial(_integer_lines, kind, _line_rows(alphabet))
    else:
        lines = _von_mangoldt_lines
    yield f"{kind},{lo},{hi}\n"
    for _, _, values in segments:
        yield lines(values)


def table_text(table: ValueTable) -> str:
    """`table_pieces` of the whole table, joined."""
    values = table.values if table.kind.alphabet() else SparseSegment.of(table.values)
    return "".join(table_pieces(table.kind, table.lo, table.hi, [(table.lo, table.hi, values)]))


@contextlib.contextmanager
def atomic_writer(path):
    """A text handle on a temporary file beside `path`, renamed over `path` on a clean exit;
    on any failure the temporary file is removed, so no partial file is left at `path`."""
    import tempfile

    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with open(fd, "w", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_table_csv(table: ValueTable, path) -> str:
    """Write `table_text(table)` to `path` through `atomic_writer` and return that text."""
    with atomic_writer(path) as fh:
        fh.write(text := table_text(table))
    return text


def _line_after(fh, chars: int) -> int:
    """The number of the line that follows the first `chars` characters of `fh`, read again
    from the start at most CHUNK_CHARS at a time."""
    fh.seek(0)
    reads = (fh.read(min(CHUNK_CHARS, chars - at)) for at in range(0, chars, CHUNK_CHARS))
    return 1 + sum(text.count("\n") for text in reads)


def checked_pieces(fh, pieces) -> Iterator[str]:
    """Each of `pieces`, once the text file `fh` (opened with newline="") was found to hold it
    next, read at most CHUNK_CHARS characters at a time; after the last, `fh` must end.  The first
    difference raises ValueError naming its line, what `fh` holds there and what `table` writes.
    Lines are counted only then, in the text before the piece, which `fh` was found to hold."""
    matched = 0  # the characters of `fh` found to hold the pieces before this one
    for piece in pieces:
        for at in range(0, len(piece), CHUNK_CHARS):
            if (got := fh.read(min(CHUNK_CHARS, len(piece) - at))) != piece[at : at + CHUNK_CHARS]:
                read = io.StringIO(piece[:at] + got + fh.readline(CHUNK_CHARS))  # `fh` from the piece on
                first = _line_after(fh, matched)  # the number of the piece's first line
                pairs = enumerate(itertools.zip_longest(read, io.StringIO(piece), fillvalue=""), first)
                line, (held, wanted) = next((k, pair) for k, pair in pairs if pair[0] != pair[1])
                found = f"line {line} holds {held!r}" if held else f"ends at line {line}"
                raise ValueError(f"cache file {fh.name} {found}, where table writes {wanted!r}")
        matched += len(piece)
        yield piece
    if extra := fh.readline(CHUNK_CHARS):
        line = _line_after(fh, matched)
        raise ValueError(f"cache file {fh.name} line {line} holds {extra!r}, where table ends")


def read_table_csv(path) -> ValueTable:
    """The table a cache file's header names, filled as `checked_pieces` checks each segment."""
    with open(path, newline="") as fh:
        name, lo, hi = fh.readline().split(",")
        kind, lo, hi = parse_kind(name), int(lo), int(hi)
        fh.seek(0)
        segments, shown = itertools.tee(iter_segments(kind, lo, hi))
        pieces = checked_pieces(fh, table_pieces(kind, lo, hi, shown))
        next(pieces)  # the header, checked before any sieving
        return table_from_segments(kind, lo, hi, (segment for _, segment in zip(pieces, segments)))

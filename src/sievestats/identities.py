"""Exact prefix sums at sparse checkpoints from floor-quotient identities.

Five kinds have a summation function that an identity gives without sieving
[1, c] (V(c) is the set of floor quotients c // k, k >= 1):

* pi(c), the prime count, by the Legendre / floor-quotient recursion over
  V(c) (Lagarias, Miller & Odlyzko, Math. Comp. 44, 1985), in O(c^(3/4)):
  one Python step per prime up to c^(1/3), and one vectorized batch above.
* Q(c) = sum_{d <= sqrt c} mu(d) * (c // d^2), the squarefree count.
* M(c) from sum_{k <= c} M(c // k) = 1 (Deleglise & Rivat, Exp. Math. 5,
  1996): mu and M are sieved once to u >= max(c)^(2/3), and M at the
  quotients above u follows from the recursion, in O(c^(2/3)).
* L(c) = sum_{d <= sqrt c} M(c // d^2), since lambda(n) = sum_{d^2 | n} mu(n/d^2).
  Every c // d^2 is at most u or a quotient c // j with j = d^2, so the
  same M values serve.
* W(c) = (3 M(c) + Q(c)) / 2 for the squarefree parity weight, which is
  (3 mu + mu^2) / 2 pointwise.

Twin primes, omega_equals and von Mangoldt have no such identity here and
are always sieved.
"""

from __future__ import annotations

import math

import numpy as np

from .kinds import MOEBIUS, FunctionKind
from .sieves import base_primes, iter_segments

PAIRS = 1 << 14  # the most (p, k) pairs `prime_count` applies at once

IDENTITY_TAGS = frozenset(
    {"prime_indicator", "squarefree_indicator", "moebius", "liouville", "squarefree_parity_weight"}
)


def prefers_identities(kind: FunctionKind, cps: list[int], n_max: int) -> bool:
    """The cost model that routes `sums.accumulate`.

    Sieving costs about n_max values.  The identities cost at most about
    c^(3/4) steps per checkpoint c (the prime recursion; the others are
    cheaper), so they are taken when len(cps) * max(cps)^(3/4) <= n_max.
    """
    return kind.tag in IDENTITY_TAGS and len(cps) * cps[-1] ** 0.75 <= n_max


class _MoebiusTable:
    """mu(0..u) and M(0..u) from one moebius sieve, with mu(0) = M(0) = 0."""

    def __init__(self, u: int):
        mu = np.zeros(u + 1, dtype=np.int8)
        for lo, hi, vals in iter_segments(MOEBIUS, 1, u):
            mu[lo : hi + 1] = vals
        self.u = u
        self.mu = mu
        self.m = np.cumsum(mu, dtype=np.int32)

    def squarefree_count(self, c: int) -> int:
        d = np.arange(1, math.isqrt(c) + 1, dtype=np.int64)
        return int((self.mu[1 : len(d) + 1] * (c // (d * d))).sum())

    def quotient_mertens(self, c: int) -> np.ndarray:
        """big[j] = M(c // j) for 1 <= j <= J = c // (u + 1), the quotients above u."""
        u, m = self.u, self.m
        count = c // (u + 1)
        big = np.zeros(count + 1, dtype=np.int64)
        for j in range(count, 0, -1):
            x = c // j
            s = math.isqrt(x)
            # sum_{2 <= d <= s} M(x // d): quotient j*d while it is still above u.
            split = min(s, count // j)
            total = int(big[2 * j : split * j + 1 : j].sum())
            d = np.arange(split + 1, s + 1, dtype=np.int64)
            total += int(m[x // d].sum(dtype=np.int64))
            # sum_{d > s} M(x // d), grouped by the quotient q = x // d <= x // (s + 1).
            q = np.arange(1, x // (s + 1) + 1, dtype=np.int64)
            total += int(((x // q - x // (q + 1)) * m[q]).sum())
            big[j] = 1 - total
        return big

    def mertens(self, c: int, big: np.ndarray) -> int:
        return int(self.m[c]) if c <= self.u else int(big[1])

    def liouville(self, c: int, big: np.ndarray) -> int:
        d = np.arange(1, math.isqrt(c) + 1, dtype=np.int64)
        squares = d * d
        above = squares < len(big)  # c // d^2 > u exactly when d^2 <= J
        return int(big[squares[above]].sum() + self.m[c // squares[~above]].sum(dtype=np.int64))


def prime_count(c: int) -> int:
    """pi(c) by the floor-quotient recursion.

    S(v) counts the integers in [2, v] left after sieving by the primes below
    p; for each prime p <= sqrt(c), S(v) -= S(v // p) - S(p - 1) for every v
    in V(c) with v >= p^2.  `small[v]` holds S(v) for v <= r = isqrt(c) and
    `large[k]` holds S(c // k) for k <= r; v // p of v = c // k is c // (k p).
    The primes p <= c^(1/3) take one step each.  Every prime above c^(1/3) is
    applied at once, PAIRS (p, k) pairs at a time: each of its reads is final
    by then.  `small` changes only for p^2 <= r, and such p are below c^(1/3).
    `large[kp]` with kp >= p > c^(1/3) changes only for the primes
    q <= sqrt(c / kp) < c^(1/3).  Every write lands at k <= c // p^2 < c^(1/3),
    below every index the batch reads, so its order does not matter.
    """
    if c < 2:
        return 0
    r = math.isqrt(c)
    small = np.arange(-1, r, dtype=np.int64)
    small[0] = 0
    k = np.arange(1, r + 1, dtype=np.int64)
    large = np.zeros(r + 1, dtype=np.int64)
    large[1:] = c // k - 1
    primes = base_primes(r)
    last = c // (primes * primes)  # the last k at which each prime p writes, c // p^2
    cubed = int(np.count_nonzero(primes <= last))  # primes[:cubed] are the p with p^3 <= c
    for p in primes[:cubed].tolist():
        below = int(small[p - 1])
        p2 = p * p
        kmax = min(r, c // p2)
        inner = min(kmax, r // p)
        large[1 : inner + 1] -= large[p : inner * p + 1 : p] - below
        if kmax > inner:
            ks = k[inner:kmax]
            large[inner + 1 : kmax + 1] -= small[c // (ks * p)] - below
        if p2 <= r:
            small[p2:] -= small[np.arange(p2, r + 1) // p] - below
    cuts = np.cumsum(last[cubed:]).searchsorted(np.arange(PAIRS, last[cubed:].sum(), PAIRS))
    for ps, counts in zip(np.split(primes[cubed:], cuts), np.split(last[cubed:], cuts)):
        p = np.repeat(ps, counts)
        at = np.arange(1, len(p) + 1) - np.repeat(np.cumsum(counts) - counts, counts)  # k = 1..c // p^2
        kp = at * p  # S(c // kp) is large[kp] up to r, small[c // kp] above
        reads = np.where(kp <= r, large[np.minimum(kp, r)], small[np.minimum(c // kp, r)])
        np.subtract.at(large, at, reads - small[p - 1])
    return int(large[1])


def identity_sums(kind: FunctionKind, cps: list[int]) -> list[int]:
    """S(c) for each checkpoint c of a kind in IDENTITY_TAGS; the moebius sieve to u streams
    its segments into one table."""
    if kind.tag not in IDENTITY_TAGS:
        raise ValueError(f"no prefix-sum identity for {kind}")
    if kind.tag == "prime_indicator":
        return [prime_count(c) for c in cps]
    u = math.isqrt(cps[-1])
    if kind.tag != "squarefree_indicator":
        u = max(u, round(cps[-1] ** (2 / 3)))
    table = _MoebiusTable(u)
    if kind.tag == "squarefree_indicator":
        return [table.squarefree_count(c) for c in cps]
    out = []
    for c in cps:
        big = table.quotient_mertens(c)
        if kind.tag == "liouville":
            out.append(table.liouville(c, big))
        else:
            m = table.mertens(c, big)
            out.append(m if kind.tag == "moebius" else (3 * m + table.squarefree_count(c)) // 2)
    return out

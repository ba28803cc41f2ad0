"""Output checks for every benchmark op.

Each checker reads the files an op wrote and returns a list of problems; an
empty list means the output is correct.  References are either published
values or computed independently of the segmented sieves (the
trial-division oracle and exact identities).
"""

from __future__ import annotations

import csv
import functools
import json
import math
from pathlib import Path

from sievestats.kinds import MOEBIUS, parse_kind
from sievestats.sieves import oracle_value

# Published prefix sums at powers of ten: pi(n) (OEIS A006880), Q(n) (A071172),
# twin-prime pairs with p <= n (A007508), M(n) (A084237), L(n) (A090410).
PUBLISHED = {
    "prime_indicator": {
        10: 4, 10**2: 25, 10**3: 168, 10**4: 1229, 10**5: 9592, 10**6: 78498,
        10**7: 664579, 10**8: 5761455, 10**9: 50847534,
    },
    "squarefree_indicator": {
        10: 7, 10**2: 61, 10**3: 608, 10**4: 6083, 10**5: 60794, 10**6: 607926,
        10**7: 6079291, 10**8: 60792694, 10**9: 607927124,
    },
    "twin_prime_indicator": {
        10: 2, 10**2: 8, 10**3: 35, 10**4: 205, 10**5: 1224, 10**6: 8169,
        10**7: 58980, 10**8: 440312,
    },
    "moebius": {
        10: -1, 10**2: 1, 10**3: 2, 10**4: -23, 10**5: -48, 10**6: 212,
        10**7: 1037, 10**8: 1928,
    },
    "liouville": {
        10: 0, 10**2: -2, 10**3: -14, 10**4: -94, 10**5: -288, 10**6: -530,
        10**7: -842,
    },
}

#: L(n) <= 0 for 2 <= n below this (Tanaka's counterexample to Polya's conjecture).
POLYA_LIMIT = 906150257


@functools.lru_cache(maxsize=4)
def _mu_upto(limit: int) -> tuple[int, ...]:
    return (0,) + tuple(oracle_value(MOEBIUS, d) for d in range(1, limit + 1))


def squarefree_count(c: int) -> int:
    """Q(c) = sum_{d <= sqrt(c)} mu(d) floor(c / d^2), with mu from the oracle."""
    root = math.isqrt(c)
    mu = _mu_upto(root)
    return sum(mu[d] * (c // (d * d)) for d in range(1, root + 1) if mu[d])


def _read_json(path) -> dict:
    return json.loads(Path(path).read_text())


def _read_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _guard(check):
    """Turn an unreadable or malformed output into a reported problem."""

    @functools.wraps(check)
    def wrapper(*args, **kwargs):
        try:
            return check(*args, **kwargs)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"{check.__name__}: unreadable output ({type(exc).__name__}: {exc})"]

    return wrapper


@_guard
def sums(path, kind_text: str, checkpoints) -> list[str]:
    """`sum` CSV: exact checkpoints, published values and per-kind identities."""
    kind = parse_kind(kind_text)
    published = PUBLISHED.get(kind.tag, {})
    header, rows = _read_csv(path)
    if header != ["n", "S"]:
        return [f"sum {kind}: header {header}"]
    ns = [int(r[0]) for r in rows]
    if ns != list(checkpoints):
        return [f"sum {kind}: checkpoints {ns} != requested {list(checkpoints)}"]
    parse = int if kind.is_integer_valued else float
    values = dict(zip(ns, (parse(r[1]) for r in rows)))
    problems = [
        f"sum {kind}: S({c}) = {values[c]}, published {v}"
        for c, v in published.items()
        if c in values and values[c] != v
    ]
    if kind.is_indicator:
        seq = [values[c] for c in ns]
        if any(b < a for a, b in zip(seq, seq[1:])) or any(not 0 <= values[c] <= c for c in ns):
            problems.append(f"sum {kind}: indicator sums not monotone within [0, n]")
    if kind.tag == "squarefree_indicator":
        problems += [
            f"sum {kind}: Q({c}) = {values[c]}, identity gives {q}"
            for c in ns
            if (q := squarefree_count(c)) != values[c]
        ]
    if kind.tag == "moebius":
        # Mertens' bound |M(n)| < sqrt(n) is verified far beyond 10^9.
        problems += [f"sum {kind}: |M({c})| >= sqrt(n)" for c in ns if c > 1 and values[c] ** 2 >= c]
    if kind.tag == "liouville":
        problems += [f"sum {kind}: L({c}) > 0" for c in ns if 2 <= c < POLYA_LIMIT and values[c] > 0]
    if kind.tag == "von_mangoldt":
        # Schoenfeld's bound |psi(x) - x| < sqrt(x) log^2(x) / (8 pi), x >= 73.2.
        problems += [
            f"sum {kind}: psi({c}) = {values[c]} outside Schoenfeld's bound"
            for c in ns
            if c >= 74 and abs(values[c] - c) >= math.sqrt(c) * math.log(c) ** 2 / (8 * math.pi)
        ]
    return problems


@_guard
def riemann(path, n_max: int) -> list[str]:
    report = _read_json(path)
    problems = []
    if report["passed"] is not True:
        problems.append(f"riemann-check: passed = {report['passed']}")
    if (report["n_lo"], report["n_hi"]) != (2, n_max):
        problems.append(f"riemann-check: range [{report['n_lo']}, {report['n_hi']}]")
    if not 0.0 < report["worst_ratio"] <= 1.0:
        problems.append(f"riemann-check: worst_ratio {report['worst_ratio']}")
    return problems


@_guard
def dependence(csv_path, report_path, n: int, lags) -> list[str]:
    header, rows = _read_csv(csv_path)
    problems = []
    if header != ["lag", "r_hat", "alpha_hat"]:
        problems.append(f"dependence: header {header}")
    if [int(r[0]) for r in rows] != list(lags):
        problems.append("dependence: lags differ from the request")
    for lag, r_hat, alpha in rows:
        r_hat, alpha = float(r_hat), float(alpha)
        # A single-coordinate independence gap never exceeds 1/4.
        if not (math.isfinite(r_hat) and 0.0 <= alpha <= 0.25):
            problems.append(f"dependence: lag {lag} gives r_hat={r_hat}, alpha_hat={alpha}")
    report = _read_json(report_path)
    if report["n"] != n or report["kind"] != "moebius" or report["value_bound"] != 1.0:
        problems.append("dependence: stationarity report header")
    m = report["mean_limit_estimate"] * n
    if abs(m - round(m)) > 1e-6 * n or abs(m) >= math.sqrt(n):
        problems.append(f"dependence: mean limit {report['mean_limit_estimate']} is not M(n)/n")
    return problems


@_guard
def stats(path, n: int) -> list[str]:
    out = _read_json(path)
    mom, cdf = out["moments"], out["cdf"]
    hist = {int(k): v for k, v in mom["histogram"].items()}
    problems = []
    if mom["n"] != n or set(hist) != {-1, 0, 1} or sum(hist.values()) != n:
        problems.append(f"stats: histogram {hist} does not cover n={n}")
    elif hist[0] != n - squarefree_count(n):
        problems.append(f"stats: {hist[0]} zeros, identity gives {n - squarefree_count(n)}")
    elif mom["mean"] != (hist[1] - hist[-1]) / n:
        problems.append("stats: mean disagrees with the histogram")
    if cdf["support"] != [-1, 0, 1] or cdf["counts"] != [hist.get(v) for v in (-1, 0, 1)]:
        problems.append("stats: cdf counts disagree with the histogram")
    if cdf["cdf_below"][0] != 0.0 or cdf["cdf_below"][-1] != 1.0:
        problems.append("stats: cdf does not run from 0 to 1")
    return problems


@_guard
def normality(path, n: int, block_size: int) -> list[str]:
    report = _read_json(path)
    count = n // block_size
    problems = []
    if report["block_count"] != count or len(report["standardized"]) != count:
        problems.append(f"normality: {report['block_count']} blocks, expected {count}")
    if not 0.0 < report["ks_statistic"] < 1.0:
        problems.append(f"normality: ks_statistic {report['ks_statistic']}")
    return problems


@_guard
def variance_growth(path, n: int) -> list[str]:
    growth = _read_json(path)
    ns, h = growth["n_values"], growth["h_hat"]
    if len(ns) != len(h) or not ns or ns != sorted(set(ns)) or ns[-1] > n:
        return [f"variance-growth: grid {ns[:3]}..{ns[-3:]}"]
    if not all(math.isfinite(v) and v > 0 for v in h) or not math.isfinite(growth["slope"]):
        return ["variance-growth: non-positive or non-finite h_hat"]
    return []


@_guard
def oeis(path, overlap: int) -> list[str]:
    result = _read_json(path)
    if result["mismatches"]:
        return [f"oeis-check {result['sequence_id']}: {len(result['mismatches'])} mismatches"]
    if result["overlap"] != overlap:
        return [f"oeis-check {result['sequence_id']}: overlap {result['overlap']} != {overlap}"]
    return []


@_guard
def table(miss_path, hit_path, kind_text: str, lo: int, hi: int, positions) -> list[str]:
    """Miss and hit byte-identical, right shape, oracle values at the positions."""
    miss = Path(miss_path).read_bytes()
    if Path(hit_path).read_bytes() != miss:
        return ["table: cache hit output differs from the miss output"]
    lines = miss.decode().splitlines()
    if lines[0] != f"{kind_text},{lo},{hi}" or len(lines) != hi - lo + 2:
        return [f"table: header {lines[0]!r} with {len(lines) - 1} values"]
    kind = parse_kind(kind_text)
    return [
        f"table: f({p}) = {lines[p - lo + 1]}, oracle {v}"
        for p in positions
        if int(lines[p - lo + 1]) != (v := oracle_value(kind, p))
    ]

"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.

Two squarefree checks compare against the exact arithmetic rather than
against independence or a continuous normal, which the arithmetic rules out:

* squarefree mixing (criterion 5, first clause): for the 0/1 indicator,
  alpha_hat(h) is |P(n and n+h squarefree) - P(squarefree)^2|, which tends to
  |D(h) - (6/pi^2)^2| with Mirsky's pair density D(h) = prod_p (1 - c_p/p^2),
  c_p = 1 if p^2 | h else 2.  D(1) = 0.3226 against (6/pi^2)^2 = 0.3696, so
  the lag-1 limit is 0.0469 and no n brings it under a fixed 0.01.  At
  n = 10^6 and lags 1..100 the measured values run from 0.00083 (at lags
  divisible by 9, where c_3 = 1 lifts D(h) towards (6/pi^2)^2) to 0.1835
  (lag 36); each lies within n^(-1/2) of its limit.
* squarefree block-sum normality (criterion 6, squarefree clause): the 1000
  block sums of size 1000 at n = 10^6 take 17 integer values with standard
  deviation 2.58 and a largest atom of 16%.  Against a continuous normal
  that lattice alone keeps the KS distance near phi(0)/(2 * 2.58) = 0.077,
  so the 0.10 bound is applied to the distance from the discretized normal,
  sup_k |F(k) - Phi((k + 1/2 - mean)/sd)| over integers k.  Measured: 0.0253
  (uncorrected KS 0.1025).

The estimators themselves are verified against enumeration oracles in
tests/test_mixing.py and tests/test_normality.py.
"""

import math
import time
from pathlib import Path

import numpy as np

import sievestats as ss
from sievestats.cli import run
from sievestats.normality import normal_cdf
from sievestats.oeis import read_bfile
from sievestats.sieves import ValueTable, trial_factors
from sievestats.spectral import MovingAverageSpec, SpectralSpec, empirical_autocovariance

DATA = Path(__file__).parent / "data"
PI2 = math.pi**2


def _record(name: str, ok: bool, detail: str = "") -> bool:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    return ok


def test_criterion_1_sieves_match_factorization_oracle(
    mu_table, sf_table, pw_table, prime_table
):
    start = time.monotonic()
    n_max = 10**5
    twin = ss.sieve_table(ss.TWIN_PRIME, 1, n_max).values
    mu = mu_table.values[:n_max]
    sf = sf_table.values[:n_max]
    pw = pw_table.values[:n_max]
    pr = prime_table.values[:n_max]

    is_prime = np.zeros(n_max + 3, dtype=bool)
    for n in range(2, n_max + 3):
        factors = trial_factors(n)
        is_prime[n] = len(factors) == 1 and factors[0][1] == 1

    mismatches = 0
    for n in range(1, n_max + 1):
        factors = trial_factors(n)
        omega = len(factors)
        squarefree = omega == sum(e for _, e in factors)
        i = n - 1
        mu_expect = 0 if not squarefree else (1 if omega % 2 == 0 else -1)
        pw_expect = 0 if not squarefree else (2 if omega % 2 == 0 else -1)
        if mu[i] != mu_expect:
            mismatches += 1
        if sf[i] != (1 if squarefree else 0):
            mismatches += 1
        if pw[i] != pw_expect:
            mismatches += 1
        if pr[i] != (1 if is_prime[n] else 0):
            mismatches += 1
        if twin[i] != (1 if is_prime[n] and is_prime[n + 2] else 0):
            mismatches += 1
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and elapsed < 30
    assert _record(
        "1 sieve vs trial-factorization oracle (n <= 1e5)",
        ok,
        f"{mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_2_mertens_spot_values_and_bfile():
    # Independent route: prefix sums of oracle mu values.
    oracle_m = {}
    total = 0
    for n in range(1, 10**4 + 1):
        total += ss.oracle_value(ss.MOEBIUS, n)
        if n in (1, 2, 10, 100, 10**4):
            oracle_m[n] = total
    expected = {1: 1, 2: 0, 10: -1, 100: 1, 10**4: -23}
    sieved = {n: ss.mertens(n) for n in expected}
    spot_ok = oracle_m == expected and sieved == expected

    bfile = read_bfile(DATA / "b002321.txt")
    dense = np.cumsum(ss.sieve_table(ss.MOEBIUS, 1, bfile.entries[-1][0]).values, dtype=np.int64)
    computed = {n: int(dense[n - 1]) for n, _ in bfile.entries}
    mismatches = ss.oeis_check(computed, bfile)
    ok = spot_ok and mismatches == []
    assert _record(
        "2 Mertens spot values + A002321 overlap",
        ok,
        f"spots {sieved}, {len(mismatches)} b-file mismatches over {len(bfile.entries)}",
    )


def test_criterion_3_squarefree_density():
    start = time.monotonic()
    target = 6 / PI2
    dense = np.cumsum(ss.sieve_table(ss.SQUAREFREE, 1, 10**6).values, dtype=np.int64)
    d4 = dense[10**4 - 1] / 10**4
    d6 = dense[10**6 - 1] / 10**6
    ns = np.arange(100, 10**6 + 1, dtype=np.float64)
    ratios = np.abs(dense[99:] - target * ns) / np.sqrt(ns)
    constant = float(ratios.max())
    elapsed = time.monotonic() - start
    ok = (
        abs(d4 - target) <= 1e-2
        and abs(d6 - target) <= 1e-3
        and constant <= 2.0
        and elapsed < 10
    )
    assert _record(
        "3 squarefree density 6/pi^2 + sqrt-deviation constant",
        ok,
        f"|d(1e4)-c|={abs(d4 - target):.2e}, |d(1e6)-c|={abs(d6 - target):.2e}, "
        f"max|Q-6n/pi^2|/sqrt(n)={constant:.3f}, {elapsed:.1f}s",
    )


def test_criterion_4_three_valued_weight_moments(pw_table, mu_table):
    m_pw = ss.moments(pw_table, 10**6)
    mean_target, var_target = ss.squarefree_parity_weight_moments()
    m_mu = ss.moments(mu_table, 10**6)
    var_mu_target = ss.mertens_increment_variance()
    ok = (
        abs(m_pw.mean - mean_target) <= 0.01
        and abs(m_pw.variance - var_target) <= 0.02
        and abs(m_mu.variance - var_mu_target) <= 0.01
    )
    assert _record(
        "4 three-valued weight moments + Mertens increment variance",
        ok,
        f"mean {m_pw.mean:.6f} vs {mean_target:.6f}, "
        f"var {m_pw.variance:.6f} vs {var_target:.6f}, "
        f"mu var {m_mu.variance:.6f} vs {var_mu_target:.6f}",
    )


def test_criterion_5_squarefree_mixing_small(sf_table, squarefree_pair_gap):
    """alpha_hat matches Mirsky's limiting gap within n^(-1/2) (see module docstring)."""
    n = 10**6
    estimate = ss.alpha_hat(sf_table, n, range(1, 101))
    deviations = [
        abs(a - squarefree_pair_gap(h)) for h, a in zip(estimate.lags, estimate.alpha_hat)
    ]
    worst = max(deviations)
    worst_lag = estimate.lags[deviations.index(worst)]
    ok = worst <= n**-0.5
    assert _record(
        "5 squarefree alpha_hat within n^-1/2 of |D(h) - (6/pi^2)^2| at lags 1..100",
        ok,
        f"max deviation {worst:.1e} at lag {worst_lag}, "
        f"alpha_hat {min(estimate.alpha_hat):.5f}..{max(estimate.alpha_hat):.4f}",
    ), (
        f"alpha_hat at lag {worst_lag} is {worst:.2e} away from Mirsky's limiting "
        f"gap, more than the sampling scale n^-1/2 = {n**-0.5:.0e}"
    )


def test_criterion_5_prime_mixing_level_and_decay(prime_table_1e4, prime_table):
    a4 = ss.alpha_hat(prime_table_1e4, 10**4, [1]).alpha_hat[0]
    a6 = ss.alpha_hat(prime_table, 10**6, [1]).alpha_hat[0]
    # The inverse-log-squared shape predicts a drop by (log 1e4 / log 1e6)^2,
    # about 0.44; allow a generous band around it.
    log_shape = (math.log(10**4) / math.log(10**6)) ** 2
    ok = 0.010 <= a4 <= 0.020 and a6 < a4 and 0.5 * log_shape <= a6 / a4 <= 1.6 * log_shape
    assert _record(
        "5 prime alpha_hat(1) level and decay",
        ok,
        f"alpha(1e4)={a4:.4f}, alpha(1e6)={a6:.4f}, "
        f"ratio {a6 / a4:.3f} vs log-shape {log_shape:.3f}",
    )


def _ks(table) -> float:
    """KS distance to the normal of the 1000 studentized block sums of size 1000 on [1, 10^6]."""
    blocks = ss.block_standardize(table, 10**6, 1000)
    return ss.normality_report(str(table.kind), 10**6, blocks).ks_statistic


def test_criterion_6_block_sum_normality(mu_table, pw_table):
    start = time.monotonic()
    ks_mu = _ks(mu_table)
    ks_pw = _ks(pw_table)
    rng = np.random.default_rng(np.random.SeedSequence(20240801))
    control = (rng.random(10**6) < 0.5).astype(np.int8)
    ks_control = _ks(ValueTable(ss.PRIME, 1, 10**6, control))
    elapsed = time.monotonic() - start
    ok = ks_mu <= 0.15 and ks_pw <= 0.10 and ks_control <= 0.05 and elapsed < 60
    assert _record(
        "6 block-sum KS: Mertens/parity weight/control",
        ok,
        f"mu {ks_mu:.4f} (<=0.15), weight {ks_pw:.4f} (<=0.10), "
        f"control {ks_control:.4f} (<=0.05), {elapsed:.1f}s",
    )


def _discretized_normal_distance(blocks) -> float:
    """sup over integers k of |F(k) - Phi((k + 1/2 - mean)/sd)| for integer block sums.

    Both CDFs are step functions that jump only at integers, so the supremum
    over the reals is reached at an integer in [min - 1, max].
    """
    sums = np.sort(np.asarray(blocks.block_sums))
    ks = np.arange(sums[0] - 1, sums[-1] + 1)
    empirical = np.searchsorted(sums, ks, side="right") / sums.size
    normal = [normal_cdf((k + 0.5 - blocks.sample_mean) / blocks.sample_sd) for k in ks]
    return float(np.max(np.abs(empirical - normal)))


def test_criterion_6_block_sum_normality_squarefree(sf_table):
    """Squarefree window counts are lattice-valued, so the normal is discretized too."""
    blocks = ss.block_standardize(sf_table, 10**6, 1000)
    distance = _discretized_normal_distance(blocks)
    ks_sf = ss.normality_report("squarefree_indicator", 10**6, blocks).ks_statistic
    ok = distance <= 0.10
    assert _record(
        "6 block-sum normality: squarefree vs discretized normal <= 0.10",
        ok,
        f"distance {distance:.4f}, {len(set(blocks.block_sums))} lattice values, "
        f"sd {blocks.sample_sd:.2f}, uncorrected KS {ks_sf:.4f}",
    ), (
        f"squarefree block sums are {distance:.4f} from the normal rounded to "
        f"their integer lattice, above the 0.10 bound"
    )


def test_criterion_7_ergodic_simulator():
    zero_atom = ss.mse_study(SpectralSpec(((0.0, 1.0),)), [100, 10**4])
    exact_ok = zero_atom.mse == (0.0, 0.0)

    moving = ss.mse_study(SpectralSpec(((1.0, 1.0), (2.2, 0.5))), [100, 10**4])
    decay_ok = moving.mse[1] <= 0.02 * moving.mse[0]

    cov = ss.covariance_average(SpectralSpec(((0.0, 2.0),)), 10**4)
    cov_ok = abs(cov - 2.0) <= 1e-3

    spec = MovingAverageSpec((1.0, 1.0))
    y = ss.sample_moving_average(spec, 10**5, seed=77)
    emp = empirical_autocovariance(y, [0, 1, 2])
    ma_ok = True
    for h in (0, 1, 2):
        theory = ss.ma_theoretical_covariance(spec, h)
        terms = sum(
            ss.ma_theoretical_covariance(spec, m) ** 2
            + ss.ma_theoretical_covariance(spec, m + h)
            * ss.ma_theoretical_covariance(spec, m - h)
            for m in range(-3, 4)
        )
        se = math.sqrt(abs(terms) / 10**5)
        ma_ok = ma_ok and abs(emp[h] - theory) <= 3 * se
    ok = exact_ok and decay_ok and cov_ok and ma_ok
    assert _record(
        "7 ergodic simulator: exact zero atom, mse decay, covariance average, MA match",
        ok,
        f"mse0={zero_atom.mse}, decay ratio={moving.mse[1] / moving.mse[0]:.2e}, "
        f"cov avg err={abs(cov - 2.0):.1e}, MA within 3 SE: {ma_ok}",
    )


def test_criterion_8_mertens_riemann_bound():
    start = time.monotonic()
    report = ss.mertens_riemann_check(10**7, 0.0)
    elapsed = time.monotonic() - start
    ok = report.passed and elapsed < 60
    assert _record(
        "8 exhaustive |M(n)| <= sqrt(n) for 2 <= n <= 1e7",
        ok,
        f"worst ratio {report.worst_ratio:.4f} at n={report.argmax_n}, {elapsed:.1f}s",
    )


def test_criterion_9_deterministic_outputs(tmp_path):
    jobs = [
        (
            "riemann.json",
            ["riemann-check", "--n-max", "100000", "--xi", "0"],
        ),
        (
            "sums.csv",
            ["sum", "--kind", "moebius", "--n-max", "10000",
             "--checkpoints", "1,100,10000"],
        ),
        (
            "mse.csv",
            ["ergodic", "--atoms", "1.0:1,2.2:0.5", "--n", "1000", "--seed", "13",
             "--mse-output"],
        ),
    ]
    identical = True
    for name, args in jobs:
        a, b = tmp_path / f"a_{name}", tmp_path / f"b_{name}"
        if name == "mse.csv":
            assert run(args + [str(a), "--output", str(tmp_path / "cov_a.csv")]) == 0
            assert run(args + [str(b), "--output", str(tmp_path / "cov_b.csv")]) == 0
            identical = identical and (
                (tmp_path / "cov_a.csv").read_bytes() == (tmp_path / "cov_b.csv").read_bytes()
            )
        else:
            assert run(args + ["--output", str(a)]) == 0
            assert run(args + ["--output", str(b)]) == 0
        identical = identical and a.read_bytes() == b.read_bytes()
    assert _record("9 byte-identical reruns with fixed seeds", identical)

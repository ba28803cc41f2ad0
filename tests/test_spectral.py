import cmath
import math

import numpy as np
import pytest

import sievestats as ss
from reference import (
    MovingAverageSpec,
    _reconstruct,
    empirical_autocovariance,
    ma_theoretical_covariance,
    sample_moving_average,
)
from sievestats.spectral import SpectralSpec, _draw_amplitudes, _partial_mean_factor, realized_autocovariance


def realize(spec: SpectralSpec, n: int, seed: int):
    """The amplitudes z that `ergodic` draws for `seed`, and x_0..x_{n-1} built from them."""
    z = _draw_amplitudes(spec, np.random.default_rng(np.random.SeedSequence(seed)))
    return z, _reconstruct(spec, z, n)


def test_spec_validation():
    with pytest.raises(ValueError, match="distinct"):
        SpectralSpec(((0.5, 1.0), (0.5, 2.0)))
    with pytest.raises(ValueError, match="positive"):
        SpectralSpec(((0.5, 0.0),))
    with pytest.raises(ValueError, match="outside"):
        SpectralSpec(((4.0, 1.0),))
    with pytest.raises(ValueError, match="at least one atom"):
        ss.mse_study(SpectralSpec(()), [10])


def test_zero_frequency_atom_gives_constant_sequence():
    z, x = realize(SpectralSpec(((0.0, 1.0),)), 50, seed=42)
    assert np.all(x == x[0])
    assert x[0] == z[0]


def test_pi_frequency_atom_alternates():
    (z,), x = realize(SpectralSpec(((math.pi, 1.0),)), 6, seed=42)
    assert x[0] == pytest.approx(z)
    assert x[1] == pytest.approx(-z)
    assert x[2] == pytest.approx(z, rel=1e-12)
    assert x[5] == pytest.approx(-z, rel=1e-12)


def test_reconstruction_matches_termwise_sum():
    spec = SpectralSpec(((0.5, 1.0), (-1.3, 2.0), (3.0, 0.25)))
    amplitudes, x = realize(spec, 300, seed=7)
    direct = np.array(
        [
            sum(z * cmath.exp(1j * lam * k) for z, (lam, _) in zip(amplitudes, spec.atoms))
            for k in range(300)
        ]
    )
    assert np.abs(x - direct).max() < 1e-12


def test_theoretical_covariance_examples():
    assert ss.theoretical_covariance(SpectralSpec(((0.0, 2.0),)), 5) == pytest.approx(2.0)
    assert ss.theoretical_covariance(SpectralSpec(((math.pi, 1.0),)), 1) == pytest.approx(
        -1.0, abs=1e-12
    )
    spec = SpectralSpec(((math.pi / 2, 1.0), (-math.pi / 2, 1.0)))
    assert ss.theoretical_covariance(spec, 1) == pytest.approx(
        2 * math.cos(math.pi / 2), abs=1e-12
    )


def test_covariance_bounded_by_lag_zero():
    spec = SpectralSpec(((0.3, 1.5), (1.1, 0.5), (-2.0, 0.75)))
    r0 = ss.theoretical_covariance(spec, 0)
    assert r0 == pytest.approx(sum(sig2 for _, sig2 in spec.atoms))
    for h in range(1, 30):
        assert abs(ss.theoretical_covariance(spec, h)) <= abs(r0) + 1e-12


SPECTRA = {
    "zero-atom": SpectralSpec(((0.0, 2.0), (1.0471975511965976, 1.0), (-2.5, 0.5))),
    "generic": SpectralSpec(((0.3, 1.5), (1.1, 0.5), (-2.0, 0.75), (2.9, 1.0))),
    "minus-pi-and-pi": SpectralSpec(((-math.pi, 1.0), (math.pi, 0.5), (0.7, 0.25))),
}


@pytest.mark.parametrize("name", SPECTRA)
@pytest.mark.parametrize("n", [11, 1000, 10**5])
def test_realized_autocovariance_matches_direct_sum(name, n):
    spec = SPECTRA[name]
    z = _draw_amplitudes(spec, np.random.default_rng(np.random.SeedSequence(n)))
    x = _reconstruct(spec, z, n)
    lags = range(0, 11)
    direct = np.array([np.dot(x[h:], np.conj(x[: n - h])) / (n - h) for h in lags])
    closed = realized_autocovariance(spec, z, n, lags)
    assert np.abs(closed - direct).max() <= 1e-10 * np.abs(direct).max()
    assert closed[0].imag == 0.0  # the mean of |x_k|^2
    with pytest.raises(ValueError, match=rf"lag {n} outside \[0, {n}\)"):
        realized_autocovariance(spec, z, n, [0, n])


def test_realized_autocovariance_matches_theory_on_average():
    # Average over a pinned seed set; single realizations keep the realized
    # |z|^2 rather than the ensemble variances.
    spec = SpectralSpec(((0.5, 1.0), (-1.3, 2.0), (3.0, 0.25)))
    n, replicates = 400, 64
    children = np.random.SeedSequence(2024).spawn(replicates)
    lags = range(0, 11)
    acc = np.zeros(11, dtype=complex)
    for child in children:
        z = _draw_amplitudes(spec, np.random.default_rng(child))
        acc += realized_autocovariance(spec, z, n, lags)
    acc /= replicates
    theory = np.array([ss.theoretical_covariance(spec, h) for h in lags])
    tolerance = 5 * sum(sig2 for _, sig2 in spec.atoms) / math.sqrt(n)
    assert np.abs(acc - theory).max() <= tolerance


def test_two_atom_autocovariance_within_monte_carlo_error():
    spec = SpectralSpec(((0.7, 1.0), (-2.1, 0.5)))
    replicates, n = 100, 10**4
    lags = [0, 1, 2, 5, 10]
    children = np.random.SeedSequence(424242).spawn(replicates)
    samples = np.zeros((replicates, len(lags)), dtype=complex)
    for i, child in enumerate(children):
        z = _draw_amplitudes(spec, np.random.default_rng(child))
        samples[i] = realized_autocovariance(spec, z, n, lags)
    mean = samples.mean(axis=0)
    stderr = samples.std(axis=0, ddof=1) / math.sqrt(replicates)
    for j, h in enumerate(lags):
        theory = ss.theoretical_covariance(spec, h)
        assert abs(mean[j] - theory) <= 3 * abs(stderr[j])


def test_ergodic_average_exact_at_zero_frequency():
    z, x = realize(SpectralSpec(((0.0, 1.0),)), 100, seed=42)
    assert abs(complex(x.mean()) - complex(z[0])) < 1e-14


def test_ergodic_average_geometric_bound():
    spec = SpectralSpec(((math.pi / 2, 1.0),))
    for n in (10, 100, 1000):
        z, x = realize(spec, n, seed=3)
        bound = abs(z[0]) * 2 / (abs(1 - cmath.exp(1j * math.pi / 2)) * n)
        assert abs(complex(x.mean())) <= bound * (1 + 1e-9)


@pytest.mark.parametrize("lam", [1e-9, 1e-6, 1e-3, 1.0, math.pi, -math.pi])
@pytest.mark.parametrize("n", [1, 2, 7, 1000])
def test_partial_mean_factor_matches_direct_mean(lam, n):
    direct = np.exp(1j * lam * np.arange(n)).mean()
    # abs: at +-pi and even n the mean is 0 but for the direct sum's rounding of lam k (1e-15 at n = 1000)
    assert _partial_mean_factor(lam, n) == pytest.approx(direct, rel=1e-14, abs=1e-14)


def test_mse_study_zero_atom_is_exactly_zero():
    study = ss.mse_study(SpectralSpec(((0.0, 1.0),)), [100, 10**4])
    assert study.mse == (0.0, 0.0)


def test_mse_study_decay_without_zero_atom():
    spec = SpectralSpec(((1.0, 1.0), (2.2, 0.5)))
    study = ss.mse_study(spec, [100, 10**4])
    assert study.mse[1] <= 0.02 * study.mse[0]


@pytest.mark.parametrize("name", SPECTRA)
@pytest.mark.parametrize("n", [10, 100])
def test_mse_study_matches_monte_carlo(name, n):
    spec, draws = SPECTRA[name], 2000
    rng = np.random.default_rng(np.random.SeedSequence(n))
    zero = np.array([lam == 0.0 for lam, _ in spec.atoms])
    errs = np.empty(draws)
    for r in range(draws):
        z = _draw_amplitudes(spec, rng)
        errs[r] = abs(_reconstruct(spec, z, n).mean() - z[zero].sum()) ** 2
    stderr = errs.std(ddof=1) / math.sqrt(draws)
    assert abs(ss.mse_study(spec, [n]).mse[0] - errs.mean()) <= 4 * stderr


@pytest.mark.parametrize("lam", [1e-9, 0.3, -2.5, math.pi])
@pytest.mark.parametrize("n", [1, 10, 999, 10**9])
def test_mse_study_one_moving_atom(lam, n):
    expected = 0.7 * math.sin(lam * n / 2) ** 2 / (n * math.sin(lam / 2)) ** 2
    mse = ss.mse_study(SpectralSpec(((0.0, 2.0), (lam, 0.7))), [n]).mse[0]
    assert mse == pytest.approx(expected, rel=1e-15, abs=0.0)


def test_mse_study_decays_like_inverse_n_squared():
    spec = SPECTRA["generic"]
    bound = sum(sig2 / math.sin(lam / 2) ** 2 for lam, sig2 in spec.atoms)
    ns = [10**k for k in range(13)] + [7, 999_999_937]
    for n, mse in zip(ns, ss.mse_study(spec, ns).mse):
        assert n * n * mse <= bound * (1 + 1e-12)


def test_mse_study_validation():
    with pytest.raises(ValueError, match="positive"):
        ss.mse_study(SpectralSpec(((1.0, 1.0),)), [0])
    with pytest.raises(ValueError, match="at least one atom"):
        ss.mse_study(SpectralSpec(()), [10])


def test_covariance_average_zero_atom_exact():
    spec = SpectralSpec(((0.0, 2.0),))
    for n in (1, 7, 100, 10**12):
        assert ss.covariance_average(spec, n) == 2.0


@pytest.mark.parametrize("name", SPECTRA)
def test_covariance_average_matches_direct_sum(name):
    spec, n = SPECTRA[name], 1000
    direct = sum(ss.theoretical_covariance(spec, k) for k in range(n)).real / n
    assert ss.covariance_average(spec, n) == pytest.approx(direct, rel=1e-10, abs=1e-12)


def test_covariance_average_pi_atom_cancels_on_even_n():
    spec = SpectralSpec(((math.pi, 1.0),))
    assert abs(ss.covariance_average(spec, 10)) < 1e-9
    assert abs(ss.covariance_average(spec, 10**4)) < 1e-9


def test_covariance_average_mixed_spectrum():
    spec = SpectralSpec(((0.0, 2.0), (math.pi / 3, 1.0)))
    assert ss.covariance_average(spec, 10**4) == pytest.approx(2.0, abs=1e-3)


def test_moving_average_matches_loop_oracle():
    coeffs = (0.5, -1.0, 2.0)
    spec = MovingAverageSpec(coeffs)
    y = sample_moving_average(spec, 40, seed=3)
    rng = np.random.default_rng(np.random.SeedSequence(3))
    xi = rng.standard_normal(40 + 2)
    direct = np.array(
        [sum(coeffs[k] * xi[t + 2 - k] for k in range(3)) for t in range(40)]
    )
    assert np.abs(y - direct).max() < 1e-12


def test_moving_average_white_noise():
    y = sample_moving_average(MovingAverageSpec((1.0,)), 10**5, seed=5)
    r1 = empirical_autocovariance(y, [1])[0]
    assert abs(r1) <= 3 / math.sqrt(10**5)


def _bartlett_se(spec: MovingAverageSpec, h: int, n: int) -> float:
    r = lambda m: ma_theoretical_covariance(spec, m)
    span = spec.span
    s = sum(r(m) ** 2 + r(m + h) * r(m - h) for m in range(-span - 2, span + 3))
    return math.sqrt(abs(s) / n)


def test_moving_average_covariance_matches_convolution_oracle():
    spec = MovingAverageSpec((1.0, 1.0))
    assert ma_theoretical_covariance(spec, 0) == pytest.approx(2.0)
    assert ma_theoretical_covariance(spec, 1) == pytest.approx(1.0)
    assert ma_theoretical_covariance(spec, 2) == 0.0
    n = 10**5
    y = sample_moving_average(spec, n, seed=77)
    emp = empirical_autocovariance(y, [0, 1, 2])
    for h in (0, 1, 2):
        theory = ma_theoretical_covariance(spec, h)
        assert abs(emp[h] - theory) <= 3 * _bartlett_se(spec, h, n)


def test_ma_covariance_is_a_convolution():
    coeffs = (0.5, -1.0, 2.0, 0.25)
    spec = MovingAverageSpec(coeffs)
    for h in range(0, 6):
        direct = sum(
            coeffs[j + h] * coeffs[j] for j in range(len(coeffs) - h)
        ) if h < len(coeffs) else 0.0
        assert ma_theoretical_covariance(spec, h) == pytest.approx(direct)


def test_moving_average_mean_recovery():
    spec = MovingAverageSpec((2.0,), mean=1.5)
    y = sample_moving_average(spec, 10**4, seed=11)
    assert y.mean() == pytest.approx(1.5, abs=3 * 2.0 / math.sqrt(10**4))


def test_moving_average_span_validation():
    spec = MovingAverageSpec((1.0,) * 11)
    with pytest.raises(ValueError, match="too small"):
        sample_moving_average(spec, 100, seed=1)
    with pytest.raises(ValueError, match="coefficient"):
        MovingAverageSpec(())

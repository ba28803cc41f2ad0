"""Synthetic stationary sequences with atomic spectra, and ergodic averaging.

A spectrum is a finite list of atoms (frequency, variance).  Realizations draw
one complex Gaussian amplitude per atom, so the sequence is
x_t = sum_k z_k exp(i lambda_k t) and its covariance is the finite
trigonometric sum R(h) = sum_k sigma_k^2 exp(i lambda_k h).  The ergodic
average of a realization converges to the realized amplitude at frequency
zero; with no zero atom the average decays like 1/n.

Every average over t < n is taken in closed form, atom by atom, from the
partial mean (1/n) sum_{t<n} exp(i lambda t) (`_partial_mean_factor`), in the
same time and memory at any n, and the ergodic average's mean-square error is
exact (`mse_study`); no sequence is built, and the only randomness is a draw
of amplitudes from PCG64 seeded with SeedSequence(seed).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np


@dataclass(frozen=True)
class SpectralSpec:
    """Atomic spectral measure: atoms are (frequency in [-pi, pi], variance > 0)."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        freqs = [a[0] for a in self.atoms]
        if len(set(freqs)) != len(freqs):
            raise ValueError("atom frequencies must be distinct")
        for lam, sig2 in self.atoms:
            if not -math.pi <= lam <= math.pi:
                raise ValueError(f"frequency {lam} outside [-pi, pi]")
            if sig2 <= 0:
                raise ValueError("atom variances must be positive")


def _draw_amplitudes(spec: SpectralSpec, rng: np.random.Generator) -> np.ndarray:
    sig2 = np.array([a[1] for a in spec.atoms], dtype=np.float64)
    scale = np.sqrt(sig2 / 2.0)
    return rng.standard_normal(len(sig2)) * scale + 1j * rng.standard_normal(len(sig2)) * scale


def theoretical_covariance(spec: SpectralSpec, h: int) -> complex:
    """R(h) = sum_k sigma_k^2 exp(i lambda_k h) (the atomic spectral transform)."""
    return complex(sum(sig2 * np.exp(1j * lam * h) for lam, sig2 in spec.atoms))


def _dirichlet_mean(lam: float, n: int) -> float:
    # sin(lam n/2) / (n sin(lam/2)), the partial mean over exp(i lam (n-1)/2): no cancellation near 0
    return 1.0 if lam == 0.0 else math.sin(0.5 * lam * n) / (n * math.sin(0.5 * lam))


def _partial_mean_factor(lam: float, n: int) -> complex:
    # (1/n) sum_{k<n} exp(i lam k); exactly 1 at lam = 0.
    return cmath.exp(0.5j * lam * (n - 1)) * _dirichlet_mean(lam, n)


@dataclass(frozen=True)
class MseStudy:
    n_values: tuple[int, ...]
    mse: tuple[float, ...]


def mse_study(spec: SpectralSpec, n_values) -> MseStudy:
    """Exact E|A_n - Z_0|^2 = sum_{lambda != 0} sigma^2 |F_lambda(n)|^2 for each n, F the partial
    mean and Z_0 the zero atom's amplitude (else 0): `_draw_amplitudes` draws them independent
    and circular with E|z|^2 = sigma^2, so the cross terms vanish and Z_0 drops out exactly."""
    if not spec.atoms:
        raise ValueError("spectrum must contain at least one atom")
    ns = [int(v) for v in n_values]
    if not ns or any(v < 1 for v in ns):
        raise ValueError("n values must be positive")
    mse = [sum(sig2 * _dirichlet_mean(lam, n) ** 2 for lam, sig2 in spec.atoms if lam != 0.0) for n in ns]
    return MseStudy(tuple(ns), tuple(map(float, mse)))


def covariance_average(spec: SpectralSpec, n: int) -> float:
    """(1/n) sum_{k<n} R(k) from each atom's partial mean; converges to the zero atom's variance."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return float(sum(sig2 * _partial_mean_factor(lam, n) for lam, sig2 in spec.atoms).real)


def realized_autocovariance(spec: SpectralSpec, z: np.ndarray, n: int, lags) -> np.ndarray:
    """R_hat(h) = (1/(n-h)) sum_{k<n-h} x_{k+h} conj(x_k) of the realization with amplitudes z,
    as sum_{j,l} z_j conj(z_l) exp(i lambda_j h) times the partial mean of exp(i d k) over
    k < n - h, where d = lambda_j - lambda_l is reduced modulo 2 pi: atoms at -pi and pi
    are one frequency, and their d is exactly 0."""
    lam = [a[0] for a in spec.atoms]
    # (j, l) next to (l, j): at lag 0 their terms are conjugates, so R_hat(0) sums to a real
    pairs = [(z[j] * np.conj(z[l]), lam[j], math.remainder(lam[j] - lam[l], 2 * math.pi))
             for p, q in combinations_with_replacement(range(len(lam)), 2) for j, l in {(p, q), (q, p)}]
    out = []
    for h in map(int, lags):
        if not 0 <= h < n:
            raise ValueError(f"lag {h} outside [0, {n})")
        out.append(sum(c * np.exp(1j * lj * h) * _partial_mean_factor(d, n - h) for c, lj, d in pairs))
    return np.array(out, dtype=np.complex128)

"""Reference builders and exact constants that tests compare the package against.

Nothing here runs in the package: a realized atomic-spectrum sequence, a
moving-average sample with its exact covariance and a direct autocovariance
estimate, the limiting moments of two sieved sequences, and the b-file text
format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sievestats.oeis import BFile
from sievestats.spectral import SpectralSpec


def _reconstruct(spec: SpectralSpec, z: np.ndarray, n: int) -> np.ndarray:
    lam = np.array([a[0] for a in spec.atoms], dtype=np.float64)
    phases = np.exp(1j * np.outer(np.arange(n), lam))
    return phases @ z


@dataclass(frozen=True)
class MovingAverageSpec:
    """Finite moving average y_t = sum_{k<=K} a_k xi_{t-k} (+ mean)."""

    coefficients: tuple
    mean: float = 0.0

    def __post_init__(self):
        if not self.coefficients:
            raise ValueError("at least one coefficient is required")

    @property
    def span(self) -> int:
        return len(self.coefficients) - 1


def sample_moving_average(spec: MovingAverageSpec, n: int, seed: int) -> np.ndarray:
    """Length-n sample driven by i.i.d. standard normal innovations."""
    k = spec.span
    if n <= 10 * k:
        raise ValueError(f"n={n} too small for coefficient span {k} (need n > {10 * k})")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    xi = rng.standard_normal(n + k)
    a = np.asarray(spec.coefficients)
    y = np.convolve(xi, a, mode="valid")
    return y + spec.mean


def ma_theoretical_covariance(spec: MovingAverageSpec, h: int):
    """R(h) = sum_j a_{j+h} conj(a_j) for unit-variance orthonormal innovations."""
    a = np.asarray(spec.coefficients)
    h = abs(int(h))
    if h > spec.span:
        return 0.0 if not np.iscomplexobj(a) else 0.0j
    value = np.sum(a[h:] * np.conj(a[: len(a) - h]))
    return complex(value) if np.iscomplexobj(a) else float(value.real)


def empirical_autocovariance(x: np.ndarray, lags) -> np.ndarray:
    """R_hat(h) = (1/(n-h)) sum_k (x_{k+h} - m)(x_k - m) for each lag, x real, m its mean."""
    x = np.asarray(x)
    n, xc = len(x), x - x.mean()
    out = []
    for h in map(int, lags):
        if not 0 <= h < n:
            raise ValueError(f"lag {h} outside [0, {n})")
        out.append(np.dot(xc[h:], xc[: n - h]) / (n - h))
    return np.array(out)


def squarefree_parity_weight_moments() -> tuple[float, float]:
    """Limiting mean 3/pi^2 and variance 15/pi^2 - 9/pi^4 of the three-valued weight.

    The weight takes 2 and -1 with limiting probability 3/pi^2 each and 0 with
    probability 1 - 6/pi^2, giving mean (2 - 1)*3/pi^2 and second moment
    (4 + 1)*3/pi^2.
    """
    pi2 = math.pi**2
    mean = 3.0 / pi2
    variance = 15.0 / pi2 - 9.0 / pi2**2
    return mean, variance


def mertens_increment_variance() -> float:
    """Limiting variance 6/pi^2 of the Moebius values (density of squarefree numbers)."""
    return 6.0 / math.pi**2


def format_bfile(bfile: BFile) -> str:
    return "".join(f"{i} {v}\n" for i, v in bfile.entries)

"""Sieve-backed statistics for summation arithmetic functions.

The package materializes arithmetic-function values with segmented sieves,
takes exact prefix sums, and measures the statistical behavior of the
resulting sequences: empirical moments and distribution functions,
autocovariance and strong-mixing estimates, block-sum normality, ergodic
averaging of synthetic atomic-spectrum sequences, and square-root-order
deviation bounds (including an exhaustive |M(n)| <= sqrt(n) scan for the
Mertens function).
"""

from .deviation import (
    DeviationReport,
    PsiSpec,
    VarianceGrowth,
    counting_deviation_check,
    exponent_check,
    mertens_riemann_check,
    psi,
    variance_growth,
)
from .empirical import EmpiricalCdf, EmpiricalMoments, density, empirical_cdf, moments
from .kinds import (
    LIOUVILLE,
    MOEBIUS,
    PARITY_WEIGHT,
    PRIME,
    SQUAREFREE,
    TWIN_PRIME,
    VON_MANGOLDT,
    FunctionKind,
    omega_equals,
    parse_kind,
)
from .mixing import (
    CovarianceSequence,
    MixingEstimate,
    StationarityReport,
    alpha_hat,
    autocovariance,
    independence_gap,
    stationarity_report,
)
from .normality import (
    NormalityReport,
    binomial_variance,
    block_standardize,
    ks_normal,
    mertens_increment_variance,
    normality_report,
    squarefree_parity_weight_moments,
)
from .oeis import BFile, oeis_check, parse_bfile, read_bfile
from .sieves import (
    FactorSignature,
    ValueTable,
    factor_signature,
    oracle_value,
    sieve_table,
)
from .spectral import (
    MovingAverageSpec,
    SpectralRealization,
    SpectralSpec,
    covariance_average,
    ergodic_average,
    ma_theoretical_covariance,
    mse_study,
    sample_moving_average,
    sample_spectral,
    theoretical_covariance,
)
from .sums import SummationSeries, accumulate, mertens

__version__ = "0.1.0"

__all__ = [
    "BFile",
    "CovarianceSequence",
    "DeviationReport",
    "EmpiricalCdf",
    "EmpiricalMoments",
    "FactorSignature",
    "FunctionKind",
    "LIOUVILLE",
    "MOEBIUS",
    "MixingEstimate",
    "MovingAverageSpec",
    "NormalityReport",
    "PARITY_WEIGHT",
    "PRIME",
    "PsiSpec",
    "SQUAREFREE",
    "SpectralRealization",
    "SpectralSpec",
    "StationarityReport",
    "SummationSeries",
    "TWIN_PRIME",
    "VON_MANGOLDT",
    "ValueTable",
    "VarianceGrowth",
    "accumulate",
    "alpha_hat",
    "autocovariance",
    "binomial_variance",
    "block_standardize",
    "counting_deviation_check",
    "covariance_average",
    "density",
    "empirical_cdf",
    "ergodic_average",
    "exponent_check",
    "factor_signature",
    "independence_gap",
    "ks_normal",
    "ma_theoretical_covariance",
    "mertens",
    "mertens_increment_variance",
    "mertens_riemann_check",
    "mse_study",
    "moments",
    "normality_report",
    "oeis_check",
    "omega_equals",
    "oracle_value",
    "parse_bfile",
    "parse_kind",
    "psi",
    "read_bfile",
    "sample_moving_average",
    "sample_spectral",
    "sieve_table",
    "squarefree_parity_weight_moments",
    "stationarity_report",
    "theoretical_covariance",
    "variance_growth",
]

"""Sieve-backed statistics for summation arithmetic functions.

The package materializes arithmetic-function values with segmented sieves,
takes exact prefix sums, and measures the statistical behavior of the
resulting sequences: empirical moments and distribution functions,
autocovariance and strong-mixing estimates, block-sum normality, ergodic
averaging of synthetic atomic-spectrum sequences, and square-root-order
deviation bounds (including an exhaustive |M(n)| <= sqrt(n) scan for the
Mertens function).

`import sievestats` loads no submodule: each public name, and each submodule
named as an attribute, is imported on first access (PEP 562), so a command
line run compiles only the modules its subcommand uses.
"""

import importlib

__version__ = "0.1.0"

#: The public names, by the submodule that defines them.
_EXPORTS = {
    "deviation": (
        "DeviationReport",
        "PsiSpec",
        "VarianceGrowth",
        "counting_deviation_check",
        "exponent_check",
        "mertens_riemann_check",
        "psi",
        "variance_growth",
    ),
    "empirical": ("EmpiricalCdf", "EmpiricalMoments", "empirical_cdf", "moments"),
    "kinds": (
        "LIOUVILLE",
        "MOEBIUS",
        "PARITY_WEIGHT",
        "PRIME",
        "SQUAREFREE",
        "TWIN_PRIME",
        "VON_MANGOLDT",
        "FunctionKind",
        "omega_equals",
        "parse_kind",
    ),
    "mixing": (
        "CovarianceSequence",
        "MixingEstimate",
        "StationarityReport",
        "alpha_hat",
        "autocovariance",
        "stationarity_report",
    ),
    "normality": ("NormalityReport", "block_standardize", "ks_normal", "normality_report"),
    "oeis": ("BFile", "oeis_check", "parse_bfile", "read_bfile"),
    "sieves": ("FactorSignature", "ValueTable", "factor_signature", "oracle_value", "sieve_table"),
    "spectral": ("SpectralSpec", "covariance_average", "mse_study", "theoretical_covariance"),
    "sums": ("SummationSeries", "accumulate"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({"cli", "identities", *_EXPORTS})

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)  # also binds it here
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})

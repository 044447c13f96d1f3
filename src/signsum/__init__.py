"""Exact invariants of two-sided sign-sum constraints on positive vectors.

For a positive vector alpha and a chosen index pair, the package counts
sign vectors on the remaining coordinates whose signed sum against alpha
lies strictly between the pair's difference and its sum, together with
the product-weighted (signed) variant.  Everything upstream of the
quadrature diagnostics is exact rational or integer arithmetic, in both
the plain realization and the logarithmic one used for prime vectors.

Public names are resolved on first access (PEP 562), so importing the
package, or one command-line subcommand, loads only the modules it uses.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# defining module of every public name; each module's __all__ reads its entry
_SOURCES = {
    "core": (
        "AlphaVector",
        "DegenerateVectorError",
        "GenericityReport",
        "InternalCheckError",
        "PairSelection",
        "ParseError",
        "PreconditionError",
        "Scalar",
        "SignVector",
        "SignsumError",
        "check_generic",
        "format_scalar",
        "log_vector",
        "max_vector_length",
        "orient_pair",
        "parse_scalar",
        "parse_vector",
        "rational_vector",
        "require_generic",
    ),
    "invariants": (
        "InvariantReport",
        "PairInvariants",
        "SolutionSet",
        "count_solutions",
        "enumerate_solutions",
        "pair_invariants",
        "parity",
        "signed_count",
        "verify_invariance",
    ),
    "forms": (
        "closed_form_g",
        "count_via_sign_sum",
        "extended_signed_count",
        "signed_count_even_via_sign_sum",
    ),
    "walls": (
        "WallCrossing",
        "wall_crossing_check",
        "zero_sum_masks",
    ),
    "weights": (
        "WeightFunction",
        "check_condition_star",
        "parity_product_weight",
        "solve_weight_space",
        "weighted_count",
    ),
    "shortening": (
        "ShortenedVector",
        "compare_scalars",
        "delete_pair",
        "pair_for_values",
        "scalar_abs_diff",
        "scalar_add",
        "shorten",
        "verify_count_split",
        "verify_count_split_general",
        "verify_signed_split_even",
        "verify_signed_split_odd",
    ),
    "trig": (
        "BetaApproximation",
        "QuadratureResult",
        "approximate_beta",
        "exact_formula_value",
        "integer_beta",
        "integral_N_even",
        "integral_N_odd",
        "integral_count",
        "kernel_pairing",
        "kernel_pairing_quadrature",
        "minimum_gap",
        "quadrature_check",
        "rademacher",
    ),
    "primes": (
        "PrimeExample",
        "PrimeReport",
        "mobius_sum",
        "prime_alpha",
        "verify_prime_example",
    ),
}

_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = sorted(_MODULE_OF) + ["__version__"]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})

"""Exact computations with integer-valued polynomials.

Core pieces: p-adic valuations and residues, polynomial algebra over Q with
the binomial-basis transform, greedy orderings with generalized factorial
valuations and their interpolation bases, classification of finite sequence
windows, membership at the points of the prime spectrum, Smith normal form
with transforms, matrix-content certificates, and an exactly verified
solution of the four-term strong Bezout problem for one concrete 2x2 matrix.

Importing the package loads none of its modules.  Each public name in
`__all__` is imported from the module `_EXPORTS` lists it under on first use
(PEP 562) and then kept in the package's namespace, so later lookups are
plain attribute reads.  The modules themselves (`intpoly.poly`, ...) resolve
the same way.
"""

# module -> the public names it defines
_EXPORTS = {
    "arith": (
        "INF", "DomainError", "Infinity", "InputParseError", "PAdicResidue", "ext_gcd",
        "padic_residue", "vp",
    ),
    "example_lab": (
        "ExampleCertificate", "SolutionFailure", "bounded_search", "recover_solution",
        "reduce_relation", "verify_known_solution",
    ),
    "matrices": (
        "ContentVerdict", "SNFResult", "UcsReport", "idempotent_check", "snf_with_transforms",
        "strong_bezout_z", "trace_combination_search", "trace_combination_z",
        "trace_normalize", "ucs_pair_check", "unit_content_decide",
    ),
    "poly": (
        "BinomialForm", "Polynomial", "bezout_gcd_qx", "from_binomial_basis",
        "is_int_valued", "parse_polynomial", "poly_sqrt", "residue_image",
        "to_binomial_basis",
    ),
    "sequences": (
        "ImageDichotomy", "SeqWindow", "WindowClass", "classify_window",
        "image_window_classify", "is_pseudo_limit",
    ),
    "spectrum": (
        "IntEM", "MaxCompletion", "MaxSequence", "MaxTrivial", "PrimeAboveZero", "TriVerdict",
        "ideal_membership", "parse_ideal", "residue_representative", "separation_check",
    ),
    "vorder": (
        "ALL_INTEGERS", "MembershipTarget", "SubsetDescriptor", "VOrdering",
        "expand_in_basis", "factorial_valuation", "int_membership", "regular_basis",
        "v_ordering",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the module that defines `name` (or the module `name`), keep the
    value in the package's namespace and return it."""
    import importlib

    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})

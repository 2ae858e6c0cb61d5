"""Exact symmetric and non-symmetric Jack polynomials.

Two independent engines compute the integral non-symmetric polynomials: a
memoized creation-operator recursion and an admissible-tableau sum.  The
symmetric polynomials are obtained by a tail-symmetric star-chain walk, by
restriction or by full symmetrization, and a family of verification sweeps
checks the defining operator, orthogonality, coefficient and positivity
identities by exact arithmetic.

The public names are imported on first access (PEP 562), so that a command
line run loads only the modules it uses.
"""

import sys

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "AlphaFrac": "alphapoly", "AlphaPoly": "alphapoly", "ExactnessError": "alphapoly",
    "Ordering": "compositions", "compare": "compositions",
    "compositions": "compositions", "eigenvalue": "compositions",
    "lambda_plus": "compositions", "lower_hook": "compositions",
    "lower_hook_product": "compositions", "partitions": "compositions",
    "sorting_word": "compositions", "upper_hook": "compositions",
    "upper_hook_product": "compositions",
    "MPoly": "mpoly", "divide_coefficients": "mpoly",
    "divided_transposition": "mpoly", "specialize_alpha": "mpoly",
    "RecursionCache": "recursion", "e_poly": "recursion", "f_poly": "recursion",
    "phi_k": "recursion",
    "PositivityViolation": "symmetric", "expand_monomial": "symmetric",
    "expand_partial_sym": "symmetric", "gram_schmidt_e": "symmetric",
    "j_poly": "symmetric", "j_via_restriction": "symmetric",
    "j_via_symmetrization": "symmetric", "p_poly": "symmetric",
    "schur_poly": "symmetric",
    "Tableau": "tableaux", "f_comb": "tableaux", "hook_weight": "tableaux",
    "is_admissible": "tableaux", "is_zero_admissible": "tableaux",
    "j_comb": "tableaux", "tableaux": "tableaux",
    "pairing_context": "cherednik", "scalar_product": "cherednik",
    "xi_apply": "cherednik",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


class _Package(type(sys)):
    """Keeps public names that share a submodule's name (``compositions``,
    ``tableaux``) bound to the function: importing the submodule would
    otherwise rebind the package attribute to the module."""

    def __setattr__(self, name, value):
        if _EXPORTS.get(name) == name and value is sys.modules.get(f"{__name__}.{name}"):
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

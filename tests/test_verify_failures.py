"""Failing verdicts of every verify sweep.

Each case breaks one or two engine names that a sweep of jackpoly.verify
compares against, so that a chosen case fails, and pins the whole verdict
the sweep then returns: its theorem, its parameters, the cases counted up to
and including the failing one, and the counterexample.
"""

import inspect
from types import SimpleNamespace

import pytest

from jackpoly import cli, verify
from jackpoly.mpoly import MPoly
from jackpoly.recursion import RecursionCache
from jackpoly.symmetric import PositivityViolation


def _none(real, *args):
    return None


def _zero(real, lam, n, *rest):
    return MPoly(n)


def _fails(real, *args, **kwargs):
    return SimpleNamespace(holds=False)


def _violation(*args):
    raise PositivityViolation("injected")


def _violating_augmented(real, *args):
    return SimpleNamespace(augmented=_violation)


def _second_false(real, *args):
    results = real(*args)
    results[1] = False
    return results


def _negative_augmented(real, *args):
    augmented = real(*args).augmented()
    mu = list(augmented)[-1]
    augmented[mu] = -augmented[mu]
    return SimpleNamespace(augmented=lambda: augmented)


def _negative_entry(real, *args):
    entries = dict(real(*args).entries)
    mu = list(entries)[-1]
    entries[mu] = -entries[mu]
    return SimpleNamespace(entries=entries)


# (id, [(engine name in jackpoly.verify, when to break it, what it returns
# then)], the sweep, its arguments, the verdict's to_json())
CASES = [
    ("oracle-equivalence",
     [("f_comb", lambda lam: lam == (1, 1), _none)],
     "engine_equivalence", (2, 2),
     {"check": "oracle-equivalence", "theorem": "combinatorial-formula",
      "params": {"n_max": 2, "deg_max": 2}, "pass": False, "cases": 8,
      "counterexample": {"lambda": [1, 1]}}),
    ("eigen-batch",
     [("eigen_check", lambda lam, cache: lam == (1, 0, 1), _second_false)],
     "eigenfunctions", (3, 2),
     {"check": "eigen", "theorem": "commuting-operator-eigenbasis",
      "params": {"n_max": 3, "deg_max": 2}, "pass": False, "cases": 39,
      "counterexample": {"lambda": [1, 0, 1], "i": 2}}),
    ("hecke",
     [("hecke_relations_check", lambda n, deg: n == 3,
       lambda real, n, deg: {"relation": "injected"})],
     "hecke", (3, 2),
     {"check": "hecke", "theorem": "graded-hecke-relations",
      "params": {"n_max": 3, "deg_max": 2}, "pass": False, "cases": 2,
      "counterexample": {"relation": "injected", "n": 3}}),
    ("orthogonality-pairing",
     [("orthogonality_check", lambda lam, ctx, cache: lam == (1, 0) and ctx.k == 2,
       lambda real, *args: {"side": "nonsymmetric", "mu": [0, 1], "value": "1"})],
     "orthogonality", (2, 2, (1, 2)),
     {"check": "orthogonality", "theorem": "triangular-orthogonality",
      "params": {"n_max": 2, "deg_max": 2, "k_list": [1, 2]}, "pass": False,
      "cases": 15,
      "counterexample": {"side": "nonsymmetric", "mu": [0, 1], "value": "1",
                         "lambda": [1, 0], "n": 2, "k": 2}}),
    ("orthogonality-gram-schmidt",
     [("gram_schmidt_e", lambda lam, k: lam == (1, 1) and k == 1, _none)],
     "orthogonality", (2, 2, (1, 2)),
     {"check": "orthogonality", "theorem": "triangular-orthogonality",
      "params": {"n_max": 2, "deg_max": 2, "k_list": [1, 2]}, "pass": False,
      "cases": 11,
      "counterexample": {"lambda": [1, 1], "n": 2, "k": 1,
                         "detail": "gram-schmidt oracle disagrees"}}),
    ("j-positivity-violation",
     [("j_expansion", lambda lam, n: lam == (2, 1), _violating_augmented)],
     "j_positivity", (3, 3),
     {"check": "positivity", "theorem": "positive-integral-expansion",
      "params": {"n": 3, "deg_max": 3}, "pass": False, "cases": 8,
      "counterexample": {"lambda": [2, 1], "detail": "injected"}}),
    ("j-positivity-negative",
     [("j_expansion", lambda lam, n: lam == (2, 1), _negative_augmented)],
     "j_positivity", (3, 3),
     {"check": "positivity", "theorem": "positive-integral-expansion",
      "params": {"n": 3, "deg_max": 3}, "pass": False, "cases": 10,
      "counterexample": {"lambda": [2, 1], "mu": [1, 1, 1], "coef": ["-1"]}}),
    ("f-positivity-violation",
     [("expand_partial_sym", lambda f, m: f.n == 2 and m == 2, _violation)],
     "f_positivity", (2, 2),
     {"check": "positivity", "theorem": "partially-symmetric-positivity",
      "params": {"n_max": 2, "deg_max": 2}, "pass": False, "cases": 4,
      "counterexample": {"lambda": [0, 1], "detail": "injected"}}),
    ("f-positivity-negative",
     [("expand_partial_sym", lambda f, m: f.n == 2 and m == 2, _negative_entry)],
     "f_positivity", (2, 2),
     {"check": "positivity", "theorem": "partially-symmetric-positivity",
      "params": {"n_max": 2, "deg_max": 2}, "pass": False, "cases": 5,
      "counterexample": {"lambda": [0, 1], "mu": [0, 1], "coef": ["-2", "-1"]}}),
    ("coeff-identities-nonsymmetric",
     [("f_poly", lambda lam, cache: lam == (1, 1, 0, 0),
       lambda real, lam, cache: MPoly(len(lam)))],
     "coeff_identities", (2, 2, 2),
     {"check": "coeff-identities", "theorem": "square-free-coefficients",
      "params": {"deg_ns": 2, "deg_sym": 2, "length_cap": 2}, "pass": False,
      "cases": 5,
      "counterexample": {"side": "nonsymmetric", "lambda": [1, 1, 0, 0]}}),
    ("coeff-identities-symmetric",
     [("j_poly", lambda lam, *rest: lam == (2,), _zero)],
     "coeff_identities", (2, 2, 2),
     {"check": "coeff-identities", "theorem": "square-free-coefficients",
      "params": {"deg_ns": 2, "deg_sym": 2, "length_cap": 2}, "pass": False,
      "cases": 7,
      "counterexample": {"side": "symmetric", "lambda": [2]}}),
    ("stability-restriction",
     [("e_poly", lambda lam, cache: lam == (1,), _none)],
     "stability_symmetry", (3, 2),
     {"check": "stability", "theorem": "restriction-stability-and-symmetry",
      "params": {"n_max": 3, "deg_max": 2}, "pass": False, "cases": 3,
      "counterexample": {"identity": "restriction", "lambda": [1, 0]}}),
    ("stability-symmetry",
     [("e_poly", lambda lam, cache: lam == (1, 1),
       lambda real, lam, cache: MPoly.monomial(2, (1, 0)))],
     "stability_symmetry", (3, 2),
     {"check": "stability", "theorem": "restriction-stability-and-symmetry",
      "params": {"n_max": 3, "deg_max": 2}, "pass": False, "cases": 4,
      "counterexample": {"identity": "equal-part-symmetry", "lambda": [1, 1], "i": 1}}),
    ("sym-routes-restriction",
     [("j_via_restriction", lambda lam, n, cache: lam == (1, 1), _none)],
     "sym_routes", (3, 2),
     {"check": "sym-routes", "theorem": "symmetrization-routes",
      "params": {"n_max": 3, "deg_max": 2}, "pass": False, "cases": 10,
      "counterexample": {"lambda": [1, 1], "n": 2, "route": "restriction"}}),
    ("sym-routes-first-disagreeing-route",
     [("j_poly", lambda lam, n, *rest: lam == (2,) and n == 2, _none),
      ("j_via_symmetrization", lambda lam, n, cache: lam == (2,) and n == 2, _none)],
     "sym_routes", (3, 2),
     {"check": "sym-routes", "theorem": "symmetrization-routes",
      "params": {"n_max": 3, "deg_max": 2}, "pass": False, "cases": 8,
      "counterexample": {"lambda": [2], "n": 2, "route": "walk"}}),
    ("sym-routes-symmetrization",
     [("j_via_symmetrization", lambda lam, n, cache: lam == (1,) and n == 3, _none)],
     "sym_routes", (3, 2),
     {"check": "sym-routes", "theorem": "symmetrization-routes",
      "params": {"n_max": 3, "deg_max": 2}, "pass": False, "cases": 6,
      "counterexample": {"lambda": [1], "n": 3, "route": "symmetrization"}}),
    ("swap",
     [("swap_adjacent", lambda lam, i, e: lam == (1, 0, 1) and i == 1, _none)],
     "swap_consistency", (3, 2),
     {"check": "swap", "theorem": "adjacent-swap-recurrence",
      "params": {"n_max": 3, "deg_max": 2}, "pass": False, "cases": 6,
      "counterexample": {"lambda": [1, 0, 1], "i": 1}}),
    ("cyclic",
     [("cyclic_identity", lambda lam, cache: lam == (1, 1), _fails)],
     "cyclic_consistency", (2, 2),
     {"check": "cyclic", "theorem": "cyclic-creation-identity",
      "params": {"n_max": 2, "deg_max": 2}, "pass": False, "cases": 5,
      "counterexample": {"lambda": [1, 1]}}),
    ("l2l3-swap",
     [("swap_identity_witness", lambda lam, i: lam == (0, 1) and i == 1, _fails)],
     "l2l3", (2, 2),
     {"check": "l2l3", "theorem": "tableau-sum-recurrences",
      "params": {"n_max": 2, "deg_max": 2}, "pass": False, "cases": 5,
      "counterexample": {"identity": "swap", "lambda": [0, 1], "i": 1}}),
    ("l2l3-shift",
     [("shift_identity_witness", lambda lam: lam == (1, 0), _fails)],
     "l2l3", (2, 2),
     {"check": "l2l3", "theorem": "tableau-sum-recurrences",
      "params": {"n_max": 2, "deg_max": 2}, "pass": False, "cases": 7,
      "counterexample": {"identity": "shift", "lambda": [1, 0]}}),
    ("specializations-alpha-one",
     [("schur_poly", lambda lam, n: lam == (1, 1) and n == 3, _zero)],
     "specializations", (3, 2),
     {"check": "specializations", "theorem": "classical-specializations",
      "params": {"n_max": 3, "deg_max": 2}, "pass": False, "cases": 11,
      "counterexample": {"lambda": [1, 1], "n": 3, "alpha": 1}}),
    ("specializations-alpha-zero",
     [("elementary_product", lambda mu, n: mu == (1, 1) and n == 2,
       lambda real, mu, n: MPoly.monomial(2, (2, 0)))],
     "specializations", (3, 2),
     {"check": "specializations", "theorem": "classical-specializations",
      "params": {"n_max": 3, "deg_max": 2}, "pass": False, "cases": 8,
      "counterexample": {"lambda": [2], "n": 2, "alpha": 0}}),
]


def _break(monkeypatch, name, bad, result):
    """Replace a name of jackpoly.verify.  bad sees the positional arguments;
    keyword arguments, such as the l2l3 sweep's tableau-sum memo, are passed
    on to result and to the real function."""
    real = getattr(verify, name)

    def broken(*args, **kwargs):
        return result(real, *args, **kwargs) if bad(*args) else real(*args, **kwargs)

    monkeypatch.setattr(verify, name, broken)


@pytest.mark.parametrize("breaks,sweep,args,expected",
                         [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_failing_verdict(monkeypatch, breaks, sweep, args, expected):
    for name, bad, result in breaks:
        _break(monkeypatch, name, bad, result)
    function = getattr(verify, sweep)
    if "cache" in inspect.signature(function).parameters:
        verdict = function(*args, cache=RecursionCache())
    else:
        verdict = function(*args)
    assert verdict.to_json() == expected


def test_every_sweep_has_a_failing_case():
    assert {case[2] for case in CASES} == {
        name for sweeps in cli.CHECKS.values() for name, _, _ in sweeps}

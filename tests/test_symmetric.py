from fractions import Fraction

import pytest

from jackpoly.alphapoly import AlphaFrac, AlphaPoly
from jackpoly.compositions import (
    Ordering,
    compare,
    compositions_up_to,
    conjugate,
    lower_hook_product,
    partitions,
)
from jackpoly.mpoly import MPoly, specialize_alpha
from jackpoly.recursion import e_poly, f_poly
from jackpoly.symmetric import (
    MonomialExpansion,
    PositivityViolation,
    elementary_poly,
    elementary_product,
    expand_monomial,
    expand_partial_sym,
    gram_schmidt_e,
    j_poly,
    j_via_restriction,
    j_via_symmetrization,
    monomial_symmetric,
    p_poly,
    partial_monomial,
    schur_poly,
)
from jackpoly.tableaux import j_comb

A = AlphaPoly.ALPHA


def test_j_via_restriction_examples(shared_cache):
    assert j_via_restriction((1,), 2, shared_cache) == MPoly(1, {(1,): AlphaPoly.ONE})
    assert j_via_restriction((1, 1), 4, shared_cache) == \
        MPoly(2, {(1, 1): 2 * AlphaPoly.ONE})
    assert j_via_restriction((2,), 2, shared_cache) == MPoly(1, {(2,): A + 1})
    with pytest.raises(ValueError):
        j_via_restriction((1, 1), 3, shared_cache)
    with pytest.raises(ValueError):
        j_via_restriction((1, 2), 4, shared_cache)


def test_j_poly_variable_count():
    j = j_poly((2, 1), 3)
    assert j.n == 3
    assert j == j_comb((2, 1), 3)
    assert j_poly((), 2) == MPoly.one(2, AlphaPoly.ONE)
    with pytest.raises(ValueError):
        j_poly((1, 1, 1), 2)


def test_j_via_symmetrization_examples(shared_cache):
    assert j_via_symmetrization((1,), 2, shared_cache) == \
        MPoly(2, {(1, 0): AlphaPoly.ONE, (0, 1): AlphaPoly.ONE})
    assert j_via_symmetrization((1, 1), 2, shared_cache) == \
        MPoly(2, {(1, 1): 2 * AlphaPoly.ONE})
    j21 = j_via_symmetrization((2, 1), 3, shared_cache)
    assert j21 == j_comb((2, 1), 3)
    with pytest.raises(ValueError):
        j_via_symmetrization((1,), 7, shared_cache)


def test_routes_agree_small(shared_cache):
    for d in range(5):
        for lam in partitions(d, max_len=3):
            for n in range(max(len(lam), 1), 4):
                assert j_poly(lam, n) == j_comb(lam, n)
                assert j_via_symmetrization(lam, n, shared_cache) == j_comb(lam, n)


def test_p_poly_examples():
    assert p_poly((1, 1), 2) == MPoly(2, {(1, 1): AlphaFrac(1)})
    p2 = p_poly((2,), 2)
    assert p2 == MPoly(2, {
        (2, 0): AlphaFrac(1), (0, 2): AlphaFrac(1), (1, 1): AlphaFrac(2, A + 1),
    })
    assert p_poly((1,), 3) == MPoly(3, {
        (1, 0, 0): AlphaFrac(1), (0, 1, 0): AlphaFrac(1), (0, 0, 1): AlphaFrac(1),
    })


def test_p_is_monic_with_dominance_lower_terms():
    for d in range(1, 5):
        for lam in partitions(d, max_len=3):
            n = 3
            p = p_poly(lam, n)
            padded = lam + (0,) * (n - len(lam))
            expansion = expand_monomial(p)
            assert expansion.entries[lam] == 1
            for mu in expansion.entries:
                if mu != lam:
                    mu_p = mu + (0,) * (n - len(mu))
                    assert compare(mu_p, padded) is Ordering.LESS


def test_monomial_symmetric():
    m11 = monomial_symmetric((1, 1), 3)
    assert m11 == MPoly(3, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1})
    assert monomial_symmetric((1, 1, 1), 2) == MPoly.zero(2)
    assert monomial_symmetric((), 2) == MPoly.one(2)
    assert monomial_symmetric((2, 2, 0), 3).coefficient((2, 2, 0)) == 1
    with pytest.raises(ValueError):
        monomial_symmetric((1, 2), 3)


def test_expand_monomial_examples():
    exp = expand_monomial(j_poly((2,), 2))
    assert exp.entries == {(2,): A + 1, (1, 1): 2 * AlphaPoly.ONE}
    assert exp.augmented()[(1, 1)] == 1
    exp = expand_monomial(j_poly((2, 1), 3))
    assert exp.entries[(2, 1)] == A + 2
    assert exp.entries[(1, 1, 1)] == 6
    assert exp.augmented()[(1, 1, 1)] == 1
    exp = expand_monomial(monomial_symmetric((1,), 2))
    assert exp.entries == {(1,): 1}


def test_expand_monomial_reconstructs():
    j = j_poly((3, 1), 3)
    assert expand_monomial(j).reconstruct() == j


def test_expand_monomial_rejects_asymmetric():
    with pytest.raises(ValueError):
        expand_monomial(MPoly.variable(2, 1))


def test_expand_monomial_flags_non_integral_augmentation():
    # m_{1,1} alone has v = 1, which 2 does not divide
    exp = expand_monomial(monomial_symmetric((1, 1), 2).scale(AlphaPoly.ONE))
    with pytest.raises(PositivityViolation):
        exp.augmented()


def test_expand_monomial_handles_fraction_coefficients():
    p = p_poly((2,), 2)
    exp = expand_monomial(p)
    assert exp.entries[(2,)] == 1
    assert exp.entries[(1, 1)] == AlphaFrac(2, A + 1)
    assert exp.augmented()[(1, 1)] == AlphaFrac(1, A + 1)


def test_partial_monomial():
    pm = partial_monomial((2, 1, 0), 1, 3)
    assert pm == MPoly(3, {(2, 1, 0): 1, (2, 0, 1): 1})
    assert partial_monomial((1, 1), 2, 2) == MPoly(2, {(1, 1): 1})


def test_expand_partial_sym_examples(shared_cache):
    f = f_poly((1, 0), shared_cache)
    exp = expand_partial_sym(f, 1)
    assert exp.entries == {(1, 0): A + 1, (0, 1): AlphaPoly.ONE}
    f = f_poly((1, 1), shared_cache)
    exp = expand_partial_sym(f, 2)
    assert exp.entries == {(1, 1): (A + 1) * (A + 2)}


def test_expand_partial_sym_split_zero_matches_monomial():
    j = j_poly((2, 1), 3)
    full = expand_monomial(j)
    split = expand_partial_sym(j, 0)
    for mu, coef in split.entries.items():
        trimmed = tuple(x for x in mu if x)
        assert full.augmented()[trimmed] == coef


def test_expand_partial_sym_reconstructs(shared_cache):
    f = f_poly((0, 2, 1), shared_cache)
    exp = expand_partial_sym(f, 3)
    assert exp.reconstruct() == f
    f = f_poly((2, 0, 0), shared_cache)
    exp = expand_partial_sym(f, 1)
    assert exp.reconstruct() == f


def test_expand_partial_sym_rejects_bad_tail():
    with pytest.raises(ValueError):
        expand_partial_sym(MPoly.variable(3, 2).scale(AlphaPoly.ONE), 1)


def test_schur_examples():
    assert schur_poly((1,), 2) == MPoly(2, {(1, 0): 1, (0, 1): 1})
    assert schur_poly((2,), 2) == MPoly(2, {(2, 0): 1, (1, 1): 1, (0, 2): 1})
    assert schur_poly((1, 1), 2) == MPoly(2, {(1, 1): 1})
    assert schur_poly((1, 1, 1), 2) == MPoly.zero(2)
    assert schur_poly((), 2) == MPoly.one(2)


def test_schur_dimension_count():
    # number of semistandard fillings of a column is a binomial coefficient
    from math import comb
    s = schur_poly((1, 1), 4)
    assert sum(1 for _ in s.terms) == comb(4, 2)


def test_elementary():
    assert elementary_poly(1, 2) == MPoly(2, {(1, 0): 1, (0, 1): 1})
    assert elementary_poly(2, 2) == MPoly(2, {(1, 1): 1})
    assert elementary_poly(3, 2) == MPoly.zero(2)
    assert elementary_poly(0, 2) == MPoly.one(2)
    e21 = elementary_product((2, 1), 3)
    assert e21.coefficient((2, 1, 0)) == 1
    assert e21.coefficient((1, 1, 1)) == 3


def test_specialization_examples():
    # alpha = 1 collapses to a hook multiple of the Schur polynomial
    j = j_poly((2, 1), 3)
    hooks = lower_hook_product((2, 1)).evaluate(1)
    assert specialize_alpha(j, 1) == schur_poly((2, 1), 3).scale(hooks)
    # alpha = 0 is proportional to the conjugate elementary product
    j0 = specialize_alpha(j, 0)
    elem = elementary_product(conjugate((2, 1)), 3)
    lead = elem.sorted_terms()[0][0]
    assert j0.scale(elem.coefficient(lead)) == elem.scale(j0.coefficient(lead))


def test_gram_schmidt_examples():
    assert gram_schmidt_e((0, 1), 1) == MPoly(2, {(0, 1): Fraction(1)})
    assert gram_schmidt_e((1, 0), 1) == \
        MPoly(2, {(1, 0): Fraction(1), (0, 1): Fraction(1, 2)})
    assert gram_schmidt_e((0, 0), 1) == MPoly.one(2, Fraction(1))


def test_gram_schmidt_matches_engine(shared_cache):
    for k in (1, 2):
        for n in (2, 3):
            for lam in compositions_up_to(n, 3):
                expected = specialize_alpha(e_poly(lam, shared_cache), Fraction(1, k))
                assert gram_schmidt_e(lam, k) == expected


def test_monomial_expansion_dataclass():
    exp = MonomialExpansion(2, {(1, 1): 2 * AlphaPoly.ONE})
    assert exp.reconstruct() == monomial_symmetric((1, 1), 2).scale(2 * AlphaPoly.ONE)
    assert exp.augmented() == {(1, 1): 1}

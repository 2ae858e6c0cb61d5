import pytest

from jackpoly.alphapoly import AlphaPoly
from jackpoly.cherednik import (
    PairingContext,
    eigen_check,
    hecke_relations_check,
    monomial_pairing,
    orthogonality_check,
    pairing_context,
    scalar_product,
    self_adjoint_check,
    xi_apply,
)
from jackpoly.compositions import (
    Ordering,
    compare,
    compositions_up_to,
    eigenvalue,
)
from jackpoly.mpoly import MPoly, specialize_alpha
from jackpoly.recursion import e_poly
from jackpoly import permutations as perm

A = AlphaPoly.ALPHA


def ap(n, terms):
    return MPoly(n, {e: AlphaPoly(c) if isinstance(c, int) else c
                     for e, c in terms.items()})


def test_xi_examples():
    assert xi_apply(1, ap(2, {(1, 0): 1})) == ap(2, {(1, 0): A, (0, 1): 1})
    assert xi_apply(2, MPoly.one(2, AlphaPoly.ONE)) == ap(2, {(0, 0): -1})
    e = e_poly((1, 0))
    assert xi_apply(1, e) == e.scale(A)
    with pytest.raises(ValueError):
        xi_apply(3, MPoly.one(2, AlphaPoly.ONE))


def test_xi_on_zero_index_spectrum():
    # on the constant polynomial the i-th operator acts by -(i-1)
    one = MPoly.one(4, AlphaPoly.ONE)
    for i in range(1, 5):
        assert xi_apply(i, one) == one.scale(AlphaPoly(-(i - 1)))


def test_eigen_check_examples(shared_cache):
    assert all(eigen_check((0, 0), shared_cache))
    assert all(eigen_check((1, 0), shared_cache))
    assert all(eigen_check((0, 2, 1), shared_cache))
    # explicit spectral values for (0, 2, 1)
    e = e_poly((0, 2, 1), shared_cache)
    assert xi_apply(1, e) == e.scale(AlphaPoly(-2))
    assert xi_apply(2, e) == e.scale(2 * A)
    assert xi_apply(3, e) == e.scale(A - 1)


def test_xi_triangular_on_monomials(shared_cache):
    for n in (2, 3, 4):
        for lam in compositions_up_to(n, 5):
            mono = MPoly.monomial(n, lam, AlphaPoly.ONE)
            for i in range(1, n + 1):
                image = xi_apply(i, mono) - mono.scale(eigenvalue(lam, i))
                for exp in image.terms:
                    assert compare(exp, lam) is Ordering.LESS


def test_hecke_relations_small():
    assert hecke_relations_check(2, 3) is None
    assert hecke_relations_check(3, 2) is None


def test_commuting_pair_explicit():
    # s_2 fixes xi_1; s_1 does not fix xi_2
    f = ap(3, {(1, 1, 0): 2, (0, 0, 1): 1})
    assert xi_apply(1, f.swap(2, 3)) == xi_apply(1, f).swap(2, 3)
    g = ap(3, {(1, 0, 0): 1})
    assert xi_apply(2, g.swap(1, 2)) != xi_apply(2, g).swap(1, 2)


def test_commutators_on_product():
    f = ap(3, {(1, 1, 0): 1})
    for i in range(1, 4):
        for j in range(i + 1, 4):
            assert xi_apply(i, xi_apply(j, f)) == xi_apply(j, xi_apply(i, f))


def test_restriction_commutes_with_xi():
    # on inputs free of the last variable, applying xi_i (i < n) and then
    # restricting equals restricting first
    for lam in compositions_up_to(2, 3):
        mono3 = MPoly.monomial(3, lam + (0,), AlphaPoly.ONE)
        mono2 = MPoly.monomial(2, lam, AlphaPoly.ONE)
        for i in (1, 2):
            restricted = xi_apply(i, mono3).substitute_zero([3]).drop_last_variable()
            assert restricted == xi_apply(i, mono2)


# -- the pairing ---------------------------------------------------------------


def test_delta_n2_k1():
    ctx = pairing_context(2, 1)
    assert ctx.delta == MPoly(2, {(0, 0): 2, (1, -1): -1, (-1, 1): -1})
    assert ctx.delta.coefficient((0, 0)) == 2


def test_delta_constant_terms_match_frozen_values():
    # classical product-formula values (nk)!/(k!)^n, frozen as regressions
    expected = {(2, 1): 2, (2, 2): 6, (3, 1): 6, (3, 2): 90}
    for (n, k), value in expected.items():
        assert pairing_context(n, k).delta.coefficient((0,) * n) == value


def test_delta_is_symmetric():
    for n, k in [(2, 2), (3, 1)]:
        ctx = pairing_context(n, k)
        for w in perm.all_permutations(n):
            assert ctx.delta.act(w) == ctx.delta


def test_scalar_product_examples():
    ctx = pairing_context(2, 1)
    one = MPoly.one(2)
    assert scalar_product(one, one, ctx) == 2
    x1 = MPoly.variable(2, 1)
    x2 = MPoly.variable(2, 2)
    assert scalar_product(x1, x2, ctx) == -1
    e_spec = specialize_alpha(e_poly((1, 0)), 1)
    assert scalar_product(e_spec, x2, ctx) == 0
    with pytest.raises(ValueError):
        scalar_product(MPoly(2, {(-1, 0): 1}), x1, ctx)
    with pytest.raises(ValueError):
        scalar_product(MPoly.one(3), MPoly.one(3), ctx)


def test_monomial_pairing_consistency():
    ctx = pairing_context(2, 1)
    assert monomial_pairing(ctx, (1, 0), (0, 1)) == -1
    assert monomial_pairing(ctx, (1, 0), (1, 0)) == 2
    assert monomial_pairing(ctx, (2, 0), (1, 1)) == -1


def test_orthogonality_examples(shared_cache):
    ctx = pairing_context(2, 1)
    assert orthogonality_check((1, 0), ctx, shared_cache) is None
    assert orthogonality_check((1, 1), ctx, shared_cache) is None
    assert orthogonality_check((2, 0), ctx, shared_cache) is None
    ctx2 = pairing_context(2, 2)
    assert orthogonality_check((2, 1), ctx2, shared_cache) is None


def test_self_adjoint_examples():
    ctx = pairing_context(2, 1)
    x1 = MPoly.variable(2, 1).scale(AlphaPoly.ONE)
    x2 = MPoly.variable(2, 2).scale(AlphaPoly.ONE)
    assert self_adjoint_check(1, x1, x2, ctx)
    assert self_adjoint_check(1, x1, x1, ctx)
    ctx2 = pairing_context(2, 2)
    f = MPoly(2, {(2, 0): AlphaPoly.ONE})
    g = MPoly(2, {(1, 1): AlphaPoly.ONE})
    assert self_adjoint_check(1, f, g, ctx2)
    assert self_adjoint_check(2, f, g, ctx2)


def test_self_adjoint_sweep():
    for n, k in [(2, 1), (2, 2), (3, 1)]:
        ctx = pairing_context(n, k)
        monos = [MPoly.monomial(n, e, AlphaPoly.ONE) for e in compositions_up_to(n, 2)]
        for f in monos:
            for g in monos:
                for i in range(1, n + 1):
                    assert self_adjoint_check(i, f, g, ctx)


def test_pairing_context_validation():
    with pytest.raises(ValueError):
        pairing_context(2, 0)
    ctx = pairing_context(2, 1)
    assert isinstance(ctx, PairingContext)
    assert ctx.weight_coefficient((5, 5)) == 0

import pytest

from jackpoly.alphapoly import AlphaFrac, AlphaPoly
from jackpoly.compositions import (
    Ordering,
    compare,
    compositions_up_to,
    sharp_shape,
    star_shape,
    upper_hook_product,
)
from jackpoly.mpoly import MPoly
from jackpoly.recursion import (
    RecursionCache,
    creation_apply,
    cyclic_identity,
    e_poly,
    f_poly,
    phi_k,
    swap_adjacent,
)
from jackpoly.compositions import length, raising_scalar

A = AlphaPoly.ALPHA


def test_phi_k_examples():
    assert phi_k(2, MPoly(3, {(1, 0, 0): 1})) == MPoly(3, {(0, 2, 0): 1})
    assert phi_k(2, MPoly.one(2)) == MPoly(2, {(0, 1): 1})
    assert phi_k(3, MPoly(3, {(1, 1, 0): 1})) == MPoly(3, {(1, 0, 2): 1})
    with pytest.raises(ValueError):
        phi_k(4, MPoly.one(3))
    with pytest.raises(ValueError):
        phi_k(0, MPoly.one(3))


def test_f_base_case():
    assert f_poly((0, 0, 0)) == MPoly.one(3, AlphaPoly.ONE)


def test_f_small_values():
    assert f_poly((1, 0)) == MPoly(2, {(1, 0): A + 1, (0, 1): AlphaPoly.ONE})
    assert f_poly((0, 1)) == MPoly(2, {(0, 1): A + 2})
    assert f_poly((1, 1)) == MPoly(2, {(1, 1): (A + 1) * (A + 2)})
    # hand computation: two recursion steps from (1, 0)
    assert f_poly((2, 0)) == MPoly(2, {
        (2, 0): (2 * A + 1) * (A + 1),
        (1, 1): 2 * A + 2,
        (0, 2): A + 1,
    })


def test_e_small_values():
    assert e_poly((0, 1)) == MPoly(2, {(0, 1): AlphaFrac(1)})
    assert e_poly((1, 0)) == MPoly(2, {(1, 0): AlphaFrac(1), (0, 1): AlphaFrac(1, A + 1)})
    assert e_poly((0, 0)) == MPoly.one(2, AlphaFrac(1))
    inv = AlphaFrac(1, A + 1)
    assert e_poly((1, 0, 0)) == MPoly(3, {
        (1, 0, 0): AlphaFrac(1), (0, 1, 0): inv, (0, 0, 1): inv,
    })


def test_e_is_monic_with_lower_support(shared_cache):
    for n in range(1, 5):
        for lam in compositions_up_to(n, 5):
            f = f_poly(lam, shared_cache)
            assert f.coefficient(lam) == upper_hook_product(lam)
            for exp in f.terms:
                if exp != lam:
                    assert compare(exp, lam) is Ordering.LESS


def test_memo_transparency(shared_cache):
    lam = (2, 1, 0)
    cold = f_poly(lam)
    warm1 = f_poly(lam, shared_cache)
    warm2 = f_poly(lam, shared_cache)
    assert cold == warm1 == warm2
    # the chain below lam was cached too
    assert shared_cache.get(star_shape(lam)) is not None


def test_swap_adjacent_examples(shared_cache):
    produced = swap_adjacent((1, 0), 1, e_poly((0, 1), shared_cache))
    assert produced == e_poly((1, 0), shared_cache)
    produced = swap_adjacent((1, 0, 0), 1, e_poly((0, 1, 0), shared_cache))
    assert produced == e_poly((1, 0, 0), shared_cache)
    with pytest.raises(ValueError):
        swap_adjacent((0, 1), 1, e_poly((1, 0)))
    with pytest.raises(ValueError):
        swap_adjacent((1, 1), 1, e_poly((1, 1)))


def test_swap_adjacent_sweep(shared_cache):
    for n in (2, 3):
        for lam in compositions_up_to(n, 3):
            for i in range(1, n):
                if lam[i - 1] > lam[i]:
                    swapped = lam[: i - 1] + (lam[i], lam[i - 1]) + lam[i + 1:]
                    got = swap_adjacent(lam, i, e_poly(swapped, shared_cache))
                    assert got == e_poly(lam, shared_cache)


def test_creation_apply(shared_cache):
    # full-length shapes degenerate to plain scaling
    f = e_poly((1, 1), shared_cache)
    assert creation_apply((1, 1), f) == f.scale(raising_scalar((1, 1)))
    # one trailing zero: matches the sharp route
    lam = (0, 1, 0)
    lhs = e_poly(lam, shared_cache).scale(raising_scalar(lam))
    assert creation_apply(lam, e_poly(sharp_shape(lam), shared_cache)) == lhs
    with pytest.raises(ValueError):
        creation_apply((0, 0), f_poly((0, 0)))


def test_creation_apply_sweep(shared_cache):
    for n in (2, 3):
        for lam in compositions_up_to(n, 3):
            if length(lam) == 0:
                continue
            lhs = e_poly(lam, shared_cache).scale(raising_scalar(lam))
            rhs = creation_apply(lam, e_poly(sharp_shape(lam), shared_cache))
            assert lhs == rhs


def test_cyclic_identity(shared_cache):
    w = cyclic_identity((0, 1), shared_cache)
    assert w.holds and w.lhs == MPoly(2, {(0, 1): AlphaFrac(1)})
    w = cyclic_identity((1, 1), shared_cache)
    assert w.holds and w.lhs == MPoly(2, {(1, 1): AlphaFrac(1)})
    assert cyclic_identity((1, 0, 2), shared_cache).holds
    with pytest.raises(ValueError):
        cyclic_identity((1, 0), shared_cache)


def test_lead_coefficient_of_f_is_the_upper_hook_product(shared_cache):
    count = 0
    for n in range(1, 6):
        for lam in compositions_up_to(n, 6):
            assert f_poly(lam, shared_cache).terms[lam] == upper_hook_product(lam), lam
            count += 1
    assert count == 791


# -- the in-memory E memo ----------------------------------------------------


def test_e_memo_returns_the_stored_object():
    cache = RecursionCache()
    first = e_poly((0, 2, 1), cache)
    assert e_poly((0, 2, 1), cache) is first
    assert first == e_poly((0, 2, 1))


def test_e_memo_is_not_an_f_entry():
    cache = RecursionCache()
    lam = (2, 0, 1)
    f = f_poly(lam, cache)
    entries = len(cache)
    e = e_poly(lam, cache)
    assert e != f
    assert cache.get(lam) is f and cache.monic[lam] is e
    assert len(cache) == entries


def test_lead_check_runs_when_e_is_first_built():
    cache = RecursionCache()
    lam = (1, 0)
    cache.put(lam, f_poly(lam).scale(2))
    for _ in range(2):
        with pytest.raises(ArithmeticError, match="leading coefficient"):
            e_poly(lam, cache)
    assert lam not in cache.monic

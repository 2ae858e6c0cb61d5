import types

import pytest

from jackpoly.alphapoly import AlphaPoly
from jackpoly.compositions import compositions, compositions_up_to, degree, partitions
from jackpoly.mpoly import MPoly
from jackpoly.recursion import f_poly, phi_k
from jackpoly.tableaux import (
    Tableau,
    critical_boxes,
    f_comb,
    hook_weight,
    is_admissible,
    is_zero_admissible,
    j_comb,
    shift_identity_witness,
    swap_identity_witness,
    tableaux,
)

A = AlphaPoly.ALPHA


def test_tableau_basics():
    t = Tableau((2, 1), 3, (2, 1, 1))
    assert t.label(1, 1) == 2 and t.label(1, 2) == 1 and t.label(2, 1) == 1
    assert t.weight() == (2, 1, 0)
    assert t.monomial() == MPoly(3, {(2, 1, 0): AlphaPoly.ONE})
    with pytest.raises(ValueError):
        Tableau((2, 1), 3, (1, 2))
    with pytest.raises(ValueError):
        Tableau((1,), 2, (3,))


def test_is_admissible_examples():
    assert not is_admissible(Tableau((1, 1), 2, (1, 1)))
    assert is_admissible(Tableau((2, 1), 2, (2, 1, 1)))
    for labels in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        assert is_admissible(Tableau((2,), 2, labels))


def test_is_zero_admissible_examples():
    assert not is_zero_admissible(Tableau((0, 1), 2, (1,)))
    assert is_zero_admissible(Tableau((0, 1), 2, (2,)))
    survivors = [labels for labels in
                 [(1, 1), (1, 2), (2, 1), (2, 2)]
                 if is_zero_admissible(Tableau((1, 1), 2, labels))]
    assert survivors == [(1, 2)]
    for v in (1, 2, 3):
        assert is_zero_admissible(Tableau((1,), 3, (v,)))


def test_critical_and_hook_weight():
    t = Tableau((2,), 2, (1, 1))
    assert critical_boxes(t) == [(1, 2)]
    assert hook_weight(t) == A + 1

    t = Tableau((1, 1), 2, (1, 2))
    assert critical_boxes(t, zero_variant=True) == [(1, 1), (2, 1)]
    assert hook_weight(t, zero_variant=True) == (A + 1) * (A + 2)

    t = Tableau((2,), 2, (2, 1))
    assert hook_weight(t, zero_variant=True) == 1


def test_enumeration_is_streaming_and_counts():
    gen = tableaux((2,), 3)
    assert isinstance(gen, types.GeneratorType)
    assert len(list(gen)) == 9  # n^2 for a single row of two boxes
    for n in (2, 3, 4):
        single = (1,) + (0,) * (n - 1)
        assert len(list(tableaux(single, n, zero_variant=True))) == n
        assert len(list(tableaux((2,), n, zero_variant=True))) == n * n


def test_enumeration_matches_filter():
    shape, n = (2, 1), 3
    import itertools
    all_labelings = list(itertools.product(range(1, n + 1), repeat=3))
    plain = {t.labels for t in tableaux(shape, n)}
    zero = {t.labels for t in tableaux(shape, n, zero_variant=True)}
    assert plain == {ls for ls in all_labelings if is_admissible(Tableau(shape, n, ls))}
    assert zero == {ls for ls in all_labelings if is_zero_admissible(Tableau(shape, n, ls))}


def _assert_weighted_stream_matches(shape, n, zero_variant):
    expected = [(t.weight(), hook_weight(t, zero_variant))
                for t in tableaux(shape, n, zero_variant)]
    got = list(tableaux(shape, n, zero_variant, weighted=True))
    assert got == expected, (shape, n, zero_variant)
    return len(got)


def test_weighted_stream_matches_definitions_on_compositions():
    count = 0
    for n in range(1, 6):
        for lam in compositions_up_to(n, 5):
            for zero_variant in (False, True):
                count += _assert_weighted_stream_matches(lam, n, zero_variant)
    assert count > 10**5


def test_weighted_stream_matches_definitions_on_partitions():
    for n in range(1, 7):
        for d in range(7):
            for lam in partitions(d, max_len=n):
                _assert_weighted_stream_matches(lam, n, False)


def test_weighted_stream_of_the_empty_shape():
    for shape in [(), (0,), (0, 0, 0)]:
        for zero_variant in (False, True):
            assert list(tableaux(shape, 3, zero_variant, weighted=True)) == \
                [((0, 0, 0), AlphaPoly.ONE)]
            assert _assert_weighted_stream_matches(shape, 3, zero_variant) == 1


@pytest.mark.slow
def test_weighted_stream_matches_definitions_wider():
    # degree 6 at n = 5: 1.2 million tableaux over both variants
    for lam in compositions(5, 6):
        for zero_variant in (False, True):
            _assert_weighted_stream_matches(lam, 5, zero_variant)


def test_weight_bookkeeping():
    for lam in compositions_up_to(3, 3):
        for t in tableaux(lam, 3, zero_variant=True):
            assert sum(t.weight()) == degree(lam)
            assert [sum(e) for e in t.monomial().terms] == [degree(lam)]


def test_f_comb_examples():
    assert f_comb((1, 0)) == MPoly(2, {(1, 0): A + 1, (0, 1): AlphaPoly.ONE})
    assert f_comb((0, 1)) == MPoly(2, {(0, 1): A + 2})
    assert f_comb((0, 0)) == MPoly.one(2, AlphaPoly.ONE)


def test_j_comb_examples():
    assert j_comb((2,), 2) == MPoly(2, {(2, 0): A + 1, (0, 2): A + 1, (1, 1): 2 * AlphaPoly.ONE})
    m11 = MPoly(3, {(1, 1, 0): 2, (1, 0, 1): 2, (0, 1, 1): 2})
    assert j_comb((1, 1), 3) == m11
    j21 = j_comb((2, 1), 3)
    assert j21.coefficient((2, 1, 0)) == A + 2
    assert j21.coefficient((1, 1, 1)) == 6
    with pytest.raises(ValueError):
        j_comb((1, 2), 3)


def test_j_comb_is_symmetric():
    for lam in [(2,), (1, 1), (2, 1), (3, 1)]:
        j = j_comb(lam, 3)
        for i in (1, 2):
            assert j.swap(i, i + 1) == j


def test_zero_variant_agrees_with_plain_on_high_labels():
    # with all labels above the composition length, the first-column rules
    # never fire, so both variants enumerate the same weighted sum
    lam, n = (2, 1), 5  # n >= |lam| + length(lam)
    m = 2
    plain = MPoly(n)
    zero = MPoly(n)
    for t in tableaux(lam, n):
        if all(v > m for v in t.labels):
            plain = plain + t.monomial().scale(hook_weight(t))
    for t in tableaux(lam, n, zero_variant=True):
        if all(v > m for v in t.labels):
            zero = zero + t.monomial().scale(hook_weight(t, zero_variant=True))
    assert plain == zero and plain


def test_swap_identity_witness():
    w = swap_identity_witness((0, 1), 1)
    assert w.holds
    assert w.hook == A + 2
    w = swap_identity_witness((0, 0, 1), 2)
    assert w.holds
    with pytest.raises(ValueError):
        swap_identity_witness((1, 0), 1)


def test_shift_identity_witness():
    w = shift_identity_witness((0, 0))
    assert w.holds
    assert w.hook == A + 2
    assert w.lhs == f_comb((0, 1))
    assert w.rhs == phi_k(2, f_comb((0, 0))).scale(A + 2)
    assert shift_identity_witness((1, 0, 2)).holds


def test_engines_agree_spot():
    for lam in [(2, 1), (0, 2, 1), (1, 0, 2), (3, 0)]:
        assert f_comb(lam) == f_poly(lam)

"""Tableau enumeration and the combinatorial formula.

A tableau is a labeling of the diagram of a composition by values 1..n.
Admissibility forbids a label from repeating anywhere below it in its own
column and anywhere above it in the previous column; the 0-variant further
requires first-column labels to be at least their row index.  Summing the
monomials of all admissible labelings weighted by upper-hook products over
the critical boxes reproduces the polynomials of the recursion engine.

The sums walk the same enumeration as tableaux(), but keep each tableau's
weight vector and hook product up to date as boxes are placed and removed,
with every box's upper hook computed once per shape.  Tableau, is_admissible,
critical_boxes and hook_weight are the definitions written out; the tests
check the kept-up-to-date values against them.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple, Sequence

from .alphapoly import AlphaPoly
from .compositions import (
    Composition,
    boxes,
    is_partition,
    phi_shift,
    upper_hook,
)
from .mpoly import MPoly
from .recursion import phi_k


class _TableauFields(NamedTuple):
    shape: Composition
    n: int
    labels: tuple[int, ...]


class Tableau(_TableauFields):
    """Labels are stored row-major, aligned with boxes(shape)."""

    __slots__ = ()

    def __new__(cls, shape: Composition, n: int, labels: tuple[int, ...]):
        count = sum(shape)
        if len(labels) != count:
            raise ValueError(f"expected {count} labels, got {len(labels)}")
        if any(not 1 <= v <= n for v in labels):
            raise ValueError("labels must lie in 1..n")
        return super().__new__(cls, shape, n, labels)

    def _offset(self, i: int, j: int) -> int:
        if not (1 <= i <= len(self.shape) and 1 <= j <= self.shape[i - 1]):
            raise ValueError(f"box {(i, j)} outside the diagram")
        return sum(self.shape[: i - 1]) + (j - 1)

    def label(self, i: int, j: int) -> int:
        return self.labels[self._offset(i, j)]

    def weight(self) -> tuple[int, ...]:
        """Exponent vector: how often each value 1..n is used."""
        w = [0] * self.n
        for v in self.labels:
            w[v - 1] += 1
        return tuple(w)

    def monomial(self) -> MPoly:
        return MPoly.monomial(self.n, self.weight(), AlphaPoly.ONE)


def is_admissible(tab: Tableau) -> bool:
    """No label repeats below itself in its column, nor above itself in the
    previous column."""
    shape = tab.shape
    for (i, j) in boxes(shape):
        v = tab.label(i, j)
        for i2 in range(i + 1, len(shape) + 1):
            if shape[i2 - 1] >= j and tab.label(i2, j) == v:
                return False
        if j > 1:
            for i2 in range(1, i):
                if shape[i2 - 1] >= j - 1 and tab.label(i2, j - 1) == v:
                    return False
    return True


def is_zero_admissible(tab: Tableau) -> bool:
    """Admissible, and first-column labels meet the floor label(i, 1) >= i."""
    if not is_admissible(tab):
        return False
    return all(tab.label(i, 1) >= i
               for i in range(1, len(tab.shape) + 1) if tab.shape[i - 1] >= 1)


def critical_boxes(tab: Tableau, zero_variant: bool = False) -> list[tuple[int, int]]:
    """Boxes repeating their left neighbour; with the 0-variant, also
    first-column boxes whose label equals the row index."""
    out = []
    for (i, j) in boxes(tab.shape):
        if j > 1:
            if tab.label(i, j) == tab.label(i, j - 1):
                out.append((i, j))
        elif zero_variant and tab.label(i, 1) == i:
            out.append((i, 1))
    return out


def hook_weight(tab: Tableau, zero_variant: bool = False) -> AlphaPoly:
    """Product of upper hooks over the critical boxes (1 for none)."""
    out = AlphaPoly.ONE
    for box in critical_boxes(tab, zero_variant):
        out = out * upper_hook(tab.shape, box)
    return out


def _column_major_order(shape: Sequence[int]) -> list[tuple[int, int]]:
    width = max(shape, default=0)
    return [(i + 1, j) for j in range(1, width + 1)
            for i in range(len(shape)) if shape[i] >= j]


def tableaux(shape: Sequence[int], n: int, zero_variant: bool = False,
             weighted: bool = False) -> Iterator:
    """Stream the admissible (or 0-admissible) tableaux of a shape.

    Boxes are filled column by column so that every rule prunes as soon as a
    label is placed.  With weighted=True each tableau comes as the pair
    (tab.weight(), hook_weight(tab, zero_variant)) instead, both kept up to
    date as the walk places and removes boxes.
    """
    shape = tuple(shape)
    order = _column_major_order(shape)
    if not order:
        yield ((0,) * n, AlphaPoly.ONE) if weighted else Tableau(shape, n, ())
        return

    count = len(order)
    # row-major position of each fill-order slot, plus the slots each new
    # label must differ from: same column below-or-above, previous column above
    offsets = {}
    pos = 0
    for i in range(1, len(shape) + 1):
        for j in range(1, shape[i - 1] + 1):
            offsets[(i, j)] = pos
            pos += 1
    fill_offset = [offsets[b] for b in order]
    conflicts: list[list[int]] = []
    placed_at: dict[tuple[int, int], int] = {}
    for idx, (i, j) in enumerate(order):
        own = [placed_at[(i2, j)] for (i2, j2) in placed_at if j2 == j and i2 != i]
        prev = [placed_at[(i2, j - 1)] for (i2, j2) in placed_at if j2 == j - 1 and i2 < i]
        conflicts.append(own + prev)
        placed_at[(i, j)] = idx
    # a box is critical when it repeats the label of its left neighbour's
    # slot, or (0-variant, first column, no neighbour) when its label is i
    left = [placed_at.get((i, j - 1), -1) for (i, j) in order]
    hooks = [upper_hook(shape, box) for box in order]

    chosen = [0] * count
    labels_rm = [0] * count
    w = [0] * n
    # prods[idx] is the hook product over the critical boxes of slots < idx
    prods = [AlphaPoly.ONE] * (count + 1)

    def rec(idx: int) -> Iterator:
        i, j = order[idx]
        lo = i if (zero_variant and j == 1) else 1
        k = left[idx]
        for v in range(lo, n + 1):
            if any(chosen[c] == v for c in conflicts[idx]):
                continue
            chosen[idx] = v
            labels_rm[fill_offset[idx]] = v
            critical = chosen[k] == v if k >= 0 else zero_variant and v == i
            prods[idx + 1] = prods[idx] * hooks[idx] if critical else prods[idx]
            w[v - 1] += 1
            if idx + 1 < count:
                yield from rec(idx + 1)
            elif weighted:
                yield tuple(w), prods[count]
            else:
                yield Tableau(shape, n, tuple(labels_rm))
            w[v - 1] -= 1
        chosen[idx] = 0

    yield from rec(0)


def _tableau_sum(shape: Composition, n: int, zero_variant: bool) -> MPoly:
    # every hook product has non-negative coefficients, so no sum cancels
    acc: dict[tuple[int, ...], AlphaPoly] = {}
    for exp, c in tableaux(shape, n, zero_variant, weighted=True):
        prev = acc.get(exp)
        acc[exp] = c if prev is None else prev + c
    out = MPoly(n)
    out.terms = acc
    return out


def f_comb(lam: Sequence[int]) -> MPoly:
    """The integral non-symmetric polynomial as a 0-admissible tableau sum."""
    shape = tuple(lam)
    return _tableau_sum(shape, len(shape), True)


def j_comb(lam: Sequence[int], n: int) -> MPoly:
    """The integral symmetric polynomial of a partition as an admissible
    tableau sum in n variables."""
    shape = tuple(lam)
    if not is_partition(shape):
        raise ValueError(f"{shape} is not a partition")
    return _tableau_sum(shape, n, False)


class TableauIdentityWitness(NamedTuple):
    holds: bool
    hook: AlphaPoly
    lhs: MPoly
    rhs: MPoly


def swap_identity_witness(lam: Sequence[int], i: int,
                          comb: Callable[[Composition], MPoly] = f_comb
                          ) -> TableauIdentityWitness:
    """Raw tableau-sum identity for swapping a zero part below a nonzero one:
    with lam_i = 0 < lam_{i+1} and h the upper hook at box (i+1, 1),

        h * sum(swapped shape) == (h - 1) * (swap of sum) + sum.

    comb computes each sum; a sweep passes a memo of f_comb.
    """
    lam = tuple(lam)
    if not 1 <= i <= len(lam) - 1:
        raise ValueError(f"index {i} out of range")
    if not (lam[i - 1] == 0 and lam[i] > 0):
        raise ValueError(f"need lam_{i} = 0 and lam_{i + 1} > 0")
    hook = upper_hook(lam, (i + 1, 1))
    base = comb(lam)
    swapped = lam[: i - 1] + (lam[i], 0) + lam[i + 1:]
    lhs = comb(swapped).scale(hook)
    rhs = base.swap(i, i + 1).scale(hook - 1) + base
    return TableauIdentityWitness(lhs == rhs, hook, lhs, rhs)


def shift_identity_witness(lam: Sequence[int],
                           comb: Callable[[Composition], MPoly] = f_comb
                           ) -> TableauIdentityWitness:
    """Raw tableau-sum identity for the cycled-and-raised shape: with h the
    upper hook at box (n, 1) of the shifted shape,

        sum(shifted shape) == h * Phi_n(sum).

    comb computes each sum, as in swap_identity_witness.
    """
    lam = tuple(lam)
    shifted = phi_shift(lam)
    hook = upper_hook(shifted, (len(lam), 1))
    lhs = comb(shifted)
    rhs = phi_k(len(lam), comb(lam)).scale(hook)
    return TableauIdentityWitness(lhs == rhs, hook, lhs, rhs)

"""Tableau enumeration and the combinatorial formula.

A tableau is a labeling of the diagram of a composition by values 1..n.
Admissibility forbids a label from repeating anywhere below it in its own
column and anywhere above it in the previous column; the 0-variant further
requires first-column labels to be at least their row index.  Summing the
monomials of all admissible labelings weighted by upper-hook products over
the critical boxes reproduces the polynomials of the recursion engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

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


@dataclass(frozen=True)
class Tableau:
    """Labels are stored row-major, aligned with boxes(shape)."""

    shape: Composition
    n: int
    labels: tuple[int, ...]

    def __post_init__(self):
        count = sum(self.shape)
        if len(self.labels) != count:
            raise ValueError(f"expected {count} labels, got {len(self.labels)}")
        if any(not 1 <= v <= self.n for v in self.labels):
            raise ValueError("labels must lie in 1..n")

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


def format_tableau(tab: Tableau) -> str:
    """One-line debug form: shape header, then rows of labels."""
    rows = []
    pos = 0
    for row_len in tab.shape:
        rows.append(".".join(str(v) for v in tab.labels[pos:pos + row_len]))
        pos += row_len
    shape = ",".join(str(x) for x in tab.shape)
    return f"shape={shape} rows={'|'.join(rows)}"


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


def tableaux(shape: Sequence[int], n: int, zero_variant: bool = False) -> Iterator[Tableau]:
    """Stream the admissible (or 0-admissible) tableaux of a shape.

    Boxes are filled column by column so that every rule prunes as soon as a
    label is placed.
    """
    shape = tuple(shape)
    order = _column_major_order(shape)
    if not order:
        yield Tableau(shape, n, ())
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

    chosen = [0] * count
    labels_rm = [0] * count

    def rec(idx: int) -> Iterator[Tableau]:
        if idx == count:
            yield Tableau(shape, n, tuple(labels_rm))
            return
        i, j = order[idx]
        lo = i if (zero_variant and j == 1) else 1
        for v in range(lo, n + 1):
            if any(chosen[k] == v for k in conflicts[idx]):
                continue
            chosen[idx] = v
            labels_rm[fill_offset[idx]] = v
            yield from rec(idx + 1)
        chosen[idx] = 0

    yield from rec(0)


def _tableau_sum(shape: Composition, n: int, zero_variant: bool) -> MPoly:
    acc: dict[tuple[int, ...], AlphaPoly] = {}
    for tab in tableaux(shape, n, zero_variant):
        exp = tab.weight()
        c = hook_weight(tab, zero_variant)
        prev = acc.get(exp)
        s = c if prev is None else prev + c
        if s:
            acc[exp] = s
        elif exp in acc:
            del acc[exp]
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


@dataclass(frozen=True)
class TableauIdentityWitness:
    holds: bool
    hook: AlphaPoly
    lhs: MPoly
    rhs: MPoly


def swap_identity_witness(lam: Sequence[int], i: int) -> TableauIdentityWitness:
    """Raw tableau-sum identity for swapping a zero part below a nonzero one:
    with lam_i = 0 < lam_{i+1} and h the upper hook at box (i+1, 1),

        h * sum(swapped shape) == (h - 1) * (swap of sum) + sum.
    """
    lam = tuple(lam)
    if not 1 <= i <= len(lam) - 1:
        raise ValueError(f"index {i} out of range")
    if not (lam[i - 1] == 0 and lam[i] > 0):
        raise ValueError(f"need lam_{i} = 0 and lam_{i + 1} > 0")
    hook = upper_hook(lam, (i + 1, 1))
    base = f_comb(lam)
    swapped = lam[: i - 1] + (lam[i], 0) + lam[i + 1:]
    lhs = f_comb(swapped).scale(hook)
    rhs = base.swap(i, i + 1).scale(hook - 1) + base
    return TableauIdentityWitness(lhs == rhs, hook, lhs, rhs)


def shift_identity_witness(lam: Sequence[int]) -> TableauIdentityWitness:
    """Raw tableau-sum identity for the cycled-and-raised shape: with h the
    upper hook at box (n, 1) of the shifted shape,

        sum(shifted shape) == h * Phi_n(sum).
    """
    lam = tuple(lam)
    shifted = phi_shift(lam)
    hook = upper_hook(shifted, (len(lam), 1))
    lhs = f_comb(shifted)
    rhs = phi_k(len(lam), f_comb(lam)).scale(hook)
    return TableauIdentityWitness(lhs == rhs, hook, lhs, rhs)

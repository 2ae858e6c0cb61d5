"""Compositions, diagrams, hook statistics and the composition order.

A composition is a plain tuple of n non-negative integers; a partition is
the weakly decreasing special case.  Boxes of the diagram are 1-based pairs
(i, j) with 1 <= j <= lam[i-1].  The order on compositions of equal degree
compares the sorted shapes by dominance first and, within one orbit of the
symmetric group, the minimal sorting permutations by reversed Bruhat order.
"""

from __future__ import annotations

from enum import Enum
from math import prod
from typing import Iterator, Sequence

from .alphapoly import AlphaPoly
from . import permutations as perm

Composition = tuple[int, ...]
Box = tuple[int, int]


class Ordering(Enum):
    LESS = "less"
    GREATER = "greater"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def degree(lam: Sequence[int]) -> int:
    return sum(lam)


def length(lam: Sequence[int]) -> int:
    """Index of the last nonzero part (0 for the zero composition)."""
    for i in range(len(lam) - 1, -1, -1):
        if lam[i]:
            return i + 1
    return 0


def is_partition(lam: Sequence[int]) -> bool:
    return all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1)) and all(x >= 0 for x in lam)


def lambda_plus(lam: Sequence[int]) -> Composition:
    """The weakly decreasing rearrangement, the unique partition in the orbit."""
    return tuple(sorted(lam, reverse=True))


def sorting_word(lam: Sequence[int]) -> tuple[int, ...]:
    """The minimal-length permutation w with lam = w applied to lambda_plus.

    Equal parts keep their relative order (stable sort), which yields the
    shortest coset representative.

    >>> sorting_word((0, 1))
    (1, 0)
    >>> sorting_word((1, 1))
    (0, 1)
    """
    plus = lambda_plus(lam)
    next_slot: dict[int, int] = {}
    w_inv = []
    for part in lam:
        j = next_slot.get(part, 0)
        while plus[j] != part:
            j += 1
        w_inv.append(j)
        next_slot[part] = j + 1
    return perm.inverse(tuple(w_inv))


def dominance(p: Sequence[int], q: Sequence[int]) -> Ordering:
    """Dominance comparison of two partitions of the same degree by prefix sums."""
    ge = le = True
    sp = sq = 0
    for a, b in zip(p, q):
        sp += a
        sq += b
        if sp < sq:
            ge = False
        if sp > sq:
            le = False
    if ge and le:
        return Ordering.EQUAL
    if ge:
        return Ordering.GREATER
    if le:
        return Ordering.LESS
    return Ordering.INCOMPARABLE


def compare(lam: Sequence[int], mu: Sequence[int]) -> Ordering:
    """Order on compositions: dominance of sorted shapes, refined within an
    orbit by reversed Bruhat comparison of the sorting permutations.

    Compositions of different lengths or degrees are incomparable.
    """
    if len(lam) != len(mu) or degree(lam) != degree(mu):
        return Ordering.INCOMPARABLE
    lp, mp = lambda_plus(lam), lambda_plus(mu)
    if lp != mp:
        return dominance(lp, mp)
    wl, wm = sorting_word(lam), sorting_word(mu)
    if wl == wm:
        return Ordering.EQUAL
    if perm.bruhat_leq(wl, wm):
        return Ordering.GREATER
    if perm.bruhat_leq(wm, wl):
        return Ordering.LESS
    return Ordering.INCOMPARABLE


# -- diagrams and hook statistics ---------------------------------------

def boxes(lam: Sequence[int]) -> list[Box]:
    """Boxes of the diagram in row-major order."""
    return [(i + 1, j + 1) for i in range(len(lam)) for j in range(lam[i])]


def in_diagram(lam: Sequence[int], box: Box) -> bool:
    i, j = box
    return 1 <= i <= len(lam) and 1 <= j <= lam[i - 1]


def hook_stats(lam: Sequence[int], box: Box) -> tuple[int, int, int]:
    """Arm length and the two leg counts (rows above, rows below) of a box.

    The arm counts boxes strictly to the right in the same row.  The upper
    leg counts rows k < i with j <= lam[k] + 1 <= lam[i]; the lower leg
    counts rows k > i with j <= lam[k] <= lam[i].
    """
    if not in_diagram(lam, box):
        raise ValueError(f"box {box} outside the diagram of {lam}")
    i, j = box
    row = lam[i - 1]
    arm = row - j
    above = sum(1 for k in range(i - 1) if j <= lam[k] + 1 <= row)
    below = sum(1 for k in range(i, len(lam)) if j <= lam[k] <= row)
    return arm, above, below


def lower_hook(lam: Sequence[int], box: Box) -> AlphaPoly:
    """alpha * arm + (leg + 1)."""
    arm, above, below = hook_stats(lam, box)
    return AlphaPoly((above + below + 1, arm))


def upper_hook(lam: Sequence[int], box: Box) -> AlphaPoly:
    """alpha * (arm + 1) + (leg + 1)."""
    arm, above, below = hook_stats(lam, box)
    return AlphaPoly((above + below + 1, arm + 1))


def lower_hooks(lam: Sequence[int]) -> list[AlphaPoly]:
    """The lower hook of every box: linear factors of lower_hook_product."""
    return [lower_hook(lam, box) for box in boxes(lam)]


def upper_hooks(lam: Sequence[int]) -> list[AlphaPoly]:
    """The upper hook of every box: linear factors of upper_hook_product."""
    return [upper_hook(lam, box) for box in boxes(lam)]


def lower_hook_product(lam: Sequence[int]) -> AlphaPoly:
    return prod(lower_hooks(lam), start=AlphaPoly.ONE)


def upper_hook_product(lam: Sequence[int]) -> AlphaPoly:
    return prod(upper_hooks(lam), start=AlphaPoly.ONE)


def eigenvalue(lam: Sequence[int], i: int) -> AlphaPoly:
    """Spectral value of the i-th commuting operator on the polynomial
    indexed by lam: alpha*lam_i minus the number of earlier parts >= lam_i
    and later parts > lam_i.
    """
    if not 1 <= i <= len(lam):
        raise ValueError(f"index {i} out of range for n={len(lam)}")
    part = lam[i - 1]
    before = sum(1 for j in range(i - 1) if lam[j] >= part)
    after = sum(1 for j in range(i, len(lam)) if lam[j] > part)
    return AlphaPoly((-(before + after), part))


def raising_scalar(lam: Sequence[int]) -> AlphaPoly:
    """The coefficient carried by the recursion step: eigenvalue at the last
    nonzero position plus that position."""
    m = length(lam)
    if m == 0:
        raise ValueError("zero composition has no raising scalar")
    return eigenvalue(lam, m) + m


# -- derived shapes ------------------------------------------------------

def star_shape(lam: Sequence[int]) -> Composition:
    """Remove the first box of the last nonzero row and cycle the prefix:
    (lam_m - 1, lam_1, ..., lam_{m-1}, 0, ..., 0) with m the length."""
    m = length(lam)
    if m == 0:
        raise ValueError("zero composition has no star shape")
    return (lam[m - 1] - 1,) + tuple(lam[: m - 1]) + (0,) * (len(lam) - m)


def sharp_shape(lam: Sequence[int]) -> Composition:
    """Move the last nonzero part to the end: (lam_1, ..., lam_{m-1}, 0, ..., 0, lam_m)."""
    m = length(lam)
    if m == 0:
        raise ValueError("zero composition has no sharp shape")
    return tuple(lam[: m - 1]) + (0,) * (len(lam) - m) + (lam[m - 1],)


def zero_shape(lam: Sequence[int]) -> Composition:
    """Reverse the nonzero parts of a partition and lower each by one:
    (lam_m - 1, ..., lam_1 - 1, 0, ..., 0)."""
    m = length(lam)
    if not is_partition(lam):
        raise ValueError(f"{lam} is not a partition")
    if any(lam[i] < 1 for i in range(m)):
        raise ValueError(f"{lam} has a zero part before its length")
    return tuple(lam[i] - 1 for i in range(m - 1, -1, -1)) + (0,) * (len(lam) - m)


def phi_shift(lam: Sequence[int]) -> Composition:
    """(lam_2, ..., lam_n, lam_1 + 1): the shape raised by the cycling operator."""
    return tuple(lam[1:]) + (lam[0] + 1,)


def phi_unshift(lam: Sequence[int]) -> Composition:
    """Inverse of phi_shift: (lam_n - 1, lam_1, ..., lam_{n-1}); needs lam_n >= 1."""
    if lam[-1] < 1:
        raise ValueError("last part must be nonzero")
    return (lam[-1] - 1,) + tuple(lam[:-1])


# -- multiplicities ------------------------------------------------------

def multiplicities(lam: Sequence[int]) -> dict[int, int]:
    """Counts of each nonzero part value."""
    out: dict[int, int] = {}
    for x in lam:
        if x:
            out[x] = out.get(x, 0) + 1
    return out


def multiplicity_factorial(lam: Sequence[int]) -> int:
    """Product of the factorials of the nonzero-part multiplicities."""
    out = 1
    for count in multiplicities(lam).values():
        for k in range(2, count + 1):
            out *= k
    return out


def conjugate(lam: Sequence[int]) -> Composition:
    """Conjugate (transposed) partition."""
    if not is_partition(lam):
        raise ValueError(f"{lam} is not a partition")
    m = lam[0] if lam else 0
    return tuple(sum(1 for x in lam if x >= j) for j in range(1, m + 1))


# -- enumeration helpers ---------------------------------------------------

def compositions(n: int, deg: int) -> Iterator[Composition]:
    """All tuples in N^n summing to deg."""
    if n == 1:
        yield (deg,)
        return
    for first in range(deg + 1):
        for rest in compositions(n - 1, deg - first):
            yield (first,) + rest


def compositions_up_to(n: int, max_deg: int) -> Iterator[Composition]:
    for d in range(max_deg + 1):
        yield from compositions(n, d)


def partitions(deg: int, max_len: int | None = None, max_part: int | None = None) -> Iterator[Composition]:
    """All partitions of deg, largest part first (no trailing zeros)."""
    if max_len is None:
        max_len = deg
    if max_part is None:
        max_part = deg
    if deg == 0:
        yield ()
        return
    if max_len == 0:
        return
    for first in range(min(deg, max_part), 0, -1):
        for rest in partitions(deg - first, max_len - 1, first):
            yield (first,) + rest


def distinct_permutations(items: Sequence[int]) -> Iterator[Composition]:
    """All distinct rearrangements of a tuple (multiset permutations)."""
    pool = sorted(set(items))
    counts = {x: 0 for x in pool}
    for x in items:
        counts[x] += 1
    n = len(items)
    current: list[int] = []

    def rec() -> Iterator[Composition]:
        if len(current) == n:
            yield tuple(current)
            return
        for x in pool:
            if counts[x]:
                counts[x] -= 1
                current.append(x)
                yield from rec()
                current.pop()
                counts[x] += 1

    yield from rec()

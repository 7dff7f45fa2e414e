"""Compositions of a partition and the two exact-arithmetic lemmas.

A composition of a partition is an ordered tuple of its parts; summing the
reciprocal products R(c) = Π 1/c_i and the prefix-sum reciprocal products
RS(c) = Π 1/(c_1+…+c_i) over all compositions of a fixed partition gives
the fraction identity Σ RS = (1/k!)·Σ R.  These are the coefficients by
which the perturbed-inclusion series resums into the exponential Todd
class, so the identity is tested exhaustively at small size.  The second
lemma is the classical quadratic Bernoulli recursion, checked against the
generating-function values of bernoulli().
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .todd import bernoulli


@dataclass(frozen=True)
class Composition:
    """Ordered tuple of positive integers with its sum and length."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts or any(p < 1 for p in self.parts):
            raise ValueError("composition parts must be positive integers")

    @property
    def l(self) -> int:
        return sum(self.parts)

    @property
    def k(self) -> int:
        return len(self.parts)


def compositions_of_partition(parts) -> list[Composition]:
    """All distinct orderings of the given multiset of positive parts."""
    pool = tuple(sorted(parts))
    if not pool or any(p < 1 for p in pool):
        raise ValueError("partition must be a nonempty multiset of positive integers")
    return [Composition(p) for p in sorted(set(permutations(pool)))]


def erased_compositions(parts) -> list[Composition]:
    """One coordinate erased from the compositions of the partition.

    Counted with multiplicity: one erasure per distinct part value (erasing
    equal parts gives literally the same shorter tuple), each contributing
    every composition of the reduced partition.  This is the multiset the
    fraction lemma's induction step counts with its (k+1)-fold overlap.
    """
    pool = list(sorted(parts))
    if len(pool) < 2:
        raise ValueError("need at least two parts to erase one")
    out: list[Composition] = []
    for v in sorted(set(pool)):
        reduced = list(pool)
        reduced.remove(v)
        out.extend(compositions_of_partition(reduced))
    return out


def reciprocal_product(c: Composition) -> Fraction:
    """R(c) = Π_i 1/c_i."""
    acc = Fraction(1)
    for p in c.parts:
        acc /= p
    return acc


def prefix_reciprocal_product(c: Composition) -> Fraction:
    """RS(c) = Π_i 1/(c_1 + … + c_i)."""
    acc = Fraction(1)
    run = 0
    for p in c.parts:
        run += p
        acc /= run
    return acc


def lemma_frac_check(parts) -> tuple[Fraction, Fraction]:
    """Both sides of Σ_c RS(c) = (1/k!)·Σ_c R(c) over the partition's compositions."""
    comps = compositions_of_partition(parts)
    k = comps[0].k
    lhs = sum(prefix_reciprocal_product(c) for c in comps)
    rhs = sum(reciprocal_product(c) for c in comps) / math.factorial(k)
    return Fraction(lhs), Fraction(rhs)


def bernoulli_recursion_check(n: int) -> tuple[Fraction, Fraction]:
    """Both sides of Σ_{i=1}^{n−1} C(2n,2i)·B_{2i}·B_{2n−2i} = −(2n+1)·B_{2n}."""
    if n < 2:
        raise ValueError("recursion needs n ≥ 2")
    lhs = sum(
        Fraction(math.comb(2 * n, 2 * i)) * bernoulli(2 * i) * bernoulli(2 * n - 2 * i)
        for i in range(1, n)
    )
    rhs = -(2 * n + 1) * bernoulli(2 * n)
    return Fraction(lhs), Fraction(rhs)


def partitions_of(l: int, max_parts: int | None = None):
    """All partitions of l (as sorted tuples), optionally capped in length."""
    if l < 1:
        raise ValueError("partitions are of positive integers")

    def rec(rest: int, lo: int, room: int):
        if rest == 0:
            yield ()
            return
        if room == 0:
            return
        for first in range(lo, rest + 1):
            for tail in rec(rest - first, first, room - 1):
                yield (first,) + tail

    yield from rec(l, 1, max_parts if max_parts is not None else l)

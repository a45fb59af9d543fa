"""Brute-force transposition-factorization oracle and the Hurwitz table type.

The oracle counts tuples of transpositions in S_d with prescribed product by
dynamic programming over the full group algebra, bins counts by cycle type,
assembles the exponential generating series in (x, u, p), and extracts
connected counts through the series logarithm — no ad-hoc connectivity
bookkeeping — so it stays independent of the cut-and-join route and usable
as a ground-truth cross-check.

A vector over S_d is a list of exact ints indexed by position in
``list(itertools.permutations(range(d)))``; that order is lexicographic, so
the identity sits at index 0.  Permutations are held as ``bytes``, so the
product tau∘sigma is ``sigma.translate(table)`` with one 256-byte table per
transposition tau.  A transposition is an involution, so one step is a
gather: the next count at sigma is the sum over tau of the count at
tau∘sigma, read by one ``operator.itemgetter`` per transposition.  Cycle
types are found once per permutation, and each class's counts are summed
over its member indices after every step.

Deliberately desk-scale: the oracle holds d! * max(r_max, 1) step-vector
cells, the C(d, 2) * d! gather indices, and the d!-entry permutation list,
index and class members.  Those cells at 64 bytes each must fit in
HURWITZ_MEMORY_BUDGET (bytes; the default admits d = 7 with 20 steps).  The
largest degree is checked before any counting starts.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from fractions import Fraction
from operator import itemgetter
from typing import Iterable

from .algebra import (
    SeriesRing,
    Truncation,
    VarSet,
    rational_str,
)
from .partitions import Partition

__all__ = [
    "BudgetExceededError",
    "cycle_type",
    "transpositions",
    "count_factorizations",
    "connected_hurwitz",
    "HurwitzTable",
    "riemann_hurwitz_r",
]

MEMORY_BUDGET_ENV = "HURWITZ_MEMORY_BUDGET"
_BYTES_PER_CELL = 64


def _oracle_cells(d: int, r_max: int) -> int:
    """Cells the oracle allocates for degree d: the step vectors, the
    per-transposition gathers, and the permutation list, index and class
    members."""
    return math.factorial(d) * (max(r_max, 1) + math.comb(d, 2) + 3)


_DEFAULT_COST_BUDGET = _oracle_cells(7, 20)


class BudgetExceededError(Exception):
    """The requested computation exceeds the configured resource budget."""


def _cost_budget() -> int:
    """The budget in cells: HURWITZ_MEMORY_BUDGET bytes over 64 bytes a cell."""
    env = os.environ.get(MEMORY_BUDGET_ENV)
    if env is None:
        return _DEFAULT_COST_BUDGET
    if not env.isdecimal():
        raise ValueError(
            f"{MEMORY_BUDGET_ENV} must be a non-negative integer number of bytes, "
            f"got {env!r}"
        )
    return max(int(env) // _BYTES_PER_CELL, 1)


def _check_cost(d: int, r_max: int) -> None:
    cost = _oracle_cells(d, r_max)
    budget = _cost_budget()
    if cost > budget:
        raise BudgetExceededError(
            f"d={d}, r_max={r_max} costs {cost} cells > budget {budget}; "
            f"raise {MEMORY_BUDGET_ENV} to override"
        )


# -- permutations --------------------------------------------------------------


def _cycle_lengths(perm) -> tuple[int, ...]:
    """Cycle lengths of a permutation of range(len(perm)), sorted."""
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        n = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            n += 1
        lengths.append(n)
    return tuple(sorted(lengths))


def cycle_type(perm: tuple[int, ...]) -> Partition:
    """Cycle type as a sorted partition.

    >>> tuple(cycle_type((1, 0, 2, 3)))
    (1, 1, 2)
    """
    return Partition(_cycle_lengths(perm))


def transpositions(d: int) -> list[tuple[int, ...]]:
    """All transpositions of S_d as permutation tuples."""
    out = []
    for i in range(d):
        for j in range(i + 1, d):
            p = list(range(d))
            p[i], p[j] = p[j], p[i]
            out.append(tuple(p))
    return out


def count_factorizations(d: int, r_max: int) -> list[dict[Partition, int]]:
    """Counts of length-r transposition factorizations, binned by cycle type.

    Returns a list indexed by r in [0, r_max]; entry r maps the cycle type
    of the product to the number of r-tuples of transpositions with that
    product.  Exact integers throughout.

    Each step is C-level: every transposition's gather reads the current
    vector at tau∘sigma for all sigma at once, the gathered tuples are summed
    position by position, and each cycle type's count is the sum over its
    member indices (counts are class functions, so a class is either all
    zero or all nonzero).
    """
    _check_cost(d, r_max)
    perms = [bytes(sigma) for sigma in itertools.permutations(range(d))]
    index = {sigma: i for i, sigma in enumerate(perms)}
    tail = bytes(range(d, 256))
    gathers = [
        itemgetter(*[index[sigma.translate(table)] for sigma in perms])
        for table in [bytes(tau) + tail for tau in transpositions(d)]
    ]
    members: dict[tuple[int, ...], list[int]] = {}
    for i, sigma in enumerate(perms):
        members.setdefault(_cycle_lengths(sigma), []).append(i)
    classes = [(Partition(lengths), idx) for lengths, idx in members.items()]

    def binned(counts: list[int]) -> dict[Partition, int]:
        sums = [(alpha, sum(map(counts.__getitem__, idx))) for alpha, idx in classes]
        return {alpha: c for alpha, c in sums if c}

    counts = [0] * len(perms)
    counts[0] = 1  # perms[0] is the identity
    out = [binned(counts)]
    for _ in range(r_max):
        if gathers:
            counts = list(map(sum, zip(*[g(counts) for g in gathers])))
        else:  # d <= 1: no transposition, so every product of r >= 1 is empty
            counts = [0] * len(perms)
        out.append(binned(counts))
    return out


# -- Hurwitz table -------------------------------------------------------------


def riemann_hurwitz_r(g: int, alpha: Iterable[int]) -> int:
    """Number of simple branch points for genus g and profile alpha."""
    alpha = tuple(alpha)
    return sum(alpha) + len(alpha) + 2 * (g - 1)


class HurwitzTable:
    """Connected counts indexed by (genus, profile partition).

    Values are nonnegative rationals (automorphism-weighted counts); the
    production method is recorded for provenance in exports.
    """

    def __init__(
        self, method: str, entries: dict[tuple[int, Partition], Fraction] | None = None
    ) -> None:
        self.method = method
        self.entries = {} if entries is None else entries

    def add(self, g: int, alpha, value) -> None:
        alpha = Partition(alpha)
        value = Fraction(value)
        if g < 0:
            raise ValueError(f"negative genus {g}")
        if riemann_hurwitz_r(g, alpha) < 0:
            raise ValueError(f"negative branch count for g={g}, alpha={alpha}")
        if value < 0:
            raise ValueError(f"negative count for g={g}, alpha={alpha}: {value}")
        self.entries[(g, alpha)] = value

    def value(self, g: int, alpha) -> Fraction:
        """Count with the zero-absence convention: exact zeros are never
        stored, so a missing key reads as 0."""
        return self.entries.get((g, Partition(alpha)), Fraction(0))

    def keys(self) -> list[tuple[int, Partition]]:
        return sorted(self.entries, key=lambda k: (k[0], sum(k[1]), k[1]))

    def restricted(self, r_max: int) -> "HurwitzTable":
        """The entries with at most r_max simple branch points."""
        kept = {
            (g, alpha): v
            for (g, alpha), v in self.entries.items()
            if riemann_hurwitz_r(g, alpha) <= r_max
        }
        return HurwitzTable(self.method, kept)

    def to_json_records(self) -> list[dict]:
        return [
            {
                "g": g,
                "alpha": list(alpha),
                "r": riemann_hurwitz_r(g, alpha),
                "value": rational_str(v),
                "method": self.method,
            }
            for (g, alpha) in self.keys()
            for v in (self.entries[(g, alpha)],)
        ]

    def to_json(self) -> str:
        return json.dumps(self.to_json_records(), indent=2)


def connected_hurwitz(d_max: int, g_max: int, r_max: int) -> HurwitzTable:
    """Connected Hurwitz counts of degree <= d_max, genus <= g_max and at
    most r_max simple branch points, by brute-force factorization counting.

    Assembles E = sum N(d, r, alpha)/(d! r!) p_alpha x^d u^r over all
    degrees <= d_max and steps <= r_max, takes the series logarithm (which
    is what removes disconnected configurations), and reads one table entry
    per retained monomial with genus from the branch-count formula.
    """
    _check_cost(d_max, r_max)
    ring = SeriesRing(
        VarSet.xup(d_max),
        Truncation(x_max=d_max, u_max=r_max, p_weight_max=d_max),
    )
    monomials = [ring.one()]
    for d in range(1, d_max + 1):
        binned = count_factorizations(d, r_max)
        d_fact = math.factorial(d)
        for r, bins in enumerate(binned):
            r_fact = math.factorial(r)
            for alpha, count in sorted(bins.items()):
                monomials.append(
                    ring.profile_monomial(alpha, Fraction(count, d_fact * r_fact), r=r)
                )
    connected = ring.sum(monomials).log()
    table = HurwitzTable("oracle")
    for exps, coeff in sorted(connected.terms.items()):
        d, r, parts = ring.varset.profile(exps)
        alpha = Partition(parts)
        if sum(alpha) != d:
            raise AssertionError(f"inhomogeneous term {exps}")
        two_g = r - d - len(alpha) + 2
        if two_g % 2 or two_g < 0:
            raise AssertionError(
                f"parity/genus violation at d={d}, r={r}, alpha={tuple(alpha)}"
            )
        g = two_g // 2
        if g <= g_max:
            table.add(g, alpha, coeff * math.factorial(r))
    return table

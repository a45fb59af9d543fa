"""Brute-force transposition-factorization oracle.

The oracle counts tuples of transpositions in S_d with prescribed product,
binned by cycle type, by plain permutation composition: since the sum of all
transpositions is central, the count depends only on the cycle type of the
product, so it composes one representative per conjugacy class with every
transposition, checks the resulting class action against the class sizes,
and runs dynamic programming on class counts.  It then assembles the
exponential generating series in (x, u, p) and extracts connected counts
through the series logarithm — no ad-hoc connectivity bookkeeping — so it
stays independent of the cut-and-join route and usable as a ground-truth
cross-check.  Its table is built through `HurwitzTable.from_counts`, and
`riemann_hurwitz_r` stays importable from here (perfbench's query checker
takes it from this module).

The sweep forms p(d) * C(d, 2) products and holds one representative and
one action row per class.  The budget charges d! * (max(r_max, 1) +
C(d, 2) + 3) cells of 64 bytes, room for vectors over all of S_d, so it
over-bounds this sweep by far.  Those cells must fit in
HURWITZ_MEMORY_BUDGET (bytes; the default admits d = 7 with 20 steps).  The
largest degree is checked before any counting starts.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from fractions import Fraction

from .algebra import ExactSeries, SeriesRing, VarSet
from .partitions import Partition, aut_count
from .table import HurwitzTable, riemann_hurwitz_r

__all__ = [
    "BudgetExceededError",
    "transpositions",
    "count_factorizations",
    "connected_hurwitz",
]

MEMORY_BUDGET_ENV = "HURWITZ_MEMORY_BUDGET"
_BYTES_PER_CELL = 64


def _oracle_cells(d: int, r_max: int) -> int:
    """Cells charged for degree d: d! (max(r_max, 1) + C(d, 2) + 3), fitted
    to an earlier sweep over all of S_d.  The class-representative sweep
    holds p(d) representatives, action rows and count vectors and one
    binned dict per step, so the charge over-bounds it (its traced peak is
    under 1% of the charge at d = 7)."""
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
    left = list(perm)  # a visited point is overwritten with -1
    lengths = []
    for start, j in enumerate(perm):
        if left[start] < 0:
            continue
        left[start] = -1
        n = 1
        while j != start:
            left[j], j = -1, left[j]
            n += 1
        lengths.append(n)
    lengths.sort()
    return tuple(lengths)


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

    >>> count_factorizations(3, 2)[2]
    {(1, 1, 1): 3, (3,): 6}

    The sum of all transpositions is central in the group algebra of S_d,
    so N_r(pi) depends only on the cycle type of pi.  Starting from the
    identity, each class representative sigma_C is composed with every
    transposition tau; a product of a new cycle type becomes that class's
    representative, and m(C, C') counts the tau with tau∘sigma_C in C'.
    That is p(d) * C(d, 2) products, whatever r_max is.  The class sizes
    |C| = d!/(prod parts * aut) must sum to d! and satisfy detailed balance
    |C| m(C, C') = |C'| m(C', C), or AssertionError is raised.  Then
    N_0 = delta_id, N_{r+1}(C) = sum_C' m(C, C') N_r(C'), and class C bins
    |C| N_r(C).
    """
    _check_cost(d, r_max)
    taus = transpositions(d)
    ids = {(1,) * d: 0}  # cycle type -> class id, in order of discovery
    reps = [tuple(range(d))]
    action: list[Counter] = []  # action[c][c'] = m(c, c')
    for sigma in reps:  # reps grows while it is swept
        row = Counter()
        for tau in taus:
            prod = tuple(tau[v] for v in sigma)
            lengths = _cycle_lengths(prod)
            if lengths not in ids:
                ids[lengths] = len(reps)
                reps.append(prod)
            row[ids[lengths]] += 1
        action.append(row)
    alphas = [Partition(lengths) for lengths in ids]
    sizes = [math.factorial(d) // (math.prod(a) * aut_count(a)) for a in alphas]
    if sum(sizes) != math.factorial(d) or any(
        sizes[c] * f != sizes[c2] * action[c2][c]
        for c, row in enumerate(action)
        for c2, f in row.items()
    ):
        raise AssertionError(f"transposition counts are not class functions in S_{d}")

    def binned(counts: list[int]) -> dict[Partition, int]:
        return {a: s * n for a, s, n in zip(alphas, sizes, counts) if n}

    counts = [0] * len(ids)
    counts[0] = 1  # the identity, alone in class 0
    out = [binned(counts)]
    for _ in range(r_max):
        counts = [sum(f * counts[c2] for c2, f in row.items()) for row in action]
        out.append(binned(counts))
    return out


def connected_hurwitz(d_max: int, g_max: int, r_max: int) -> HurwitzTable:
    """Connected Hurwitz counts of degree <= d_max, genus <= g_max and at
    most r_max simple branch points, by brute-force factorization counting.

    Assembles E = sum N(d, r, alpha)/(d! r!) p_alpha x^d u^r over all
    degrees <= d_max and steps <= r_max, takes the series logarithm (which
    is what removes disconnected configurations), and reads one table entry
    per retained monomial with genus from the branch-count formula.
    """
    _check_cost(d_max, r_max)
    ring = SeriesRing(VarSet.xup(d_max), x_max=d_max, u_max=r_max, p_weight_max=d_max)
    encode = ring.varset.profile_exps
    ratios = [(encode(()), 1, 1)]
    for d in range(1, d_max + 1):
        d_fact = math.factorial(d)
        for r, bins in enumerate(count_factorizations(d, r_max)):
            if not bins:  # every step r >= 1 of degree 1, which has no transposition
                continue
            r_fact = math.factorial(r)
            for alpha, count in bins.items():
                ratios.append((encode(alpha, r), count, d_fact * r_fact))
    connected = ExactSeries.from_ratios(ring, ratios).log()

    def counts():
        for e, n in sorted((ring.exps(k), n) for k, n in connected.nums.items()):
            d, r, parts = ring.varset.profile(e)
            alpha = Partition(parts)
            if alpha.d != d:
                raise AssertionError(f"inhomogeneous term {e}")
            yield r, alpha, Fraction(n * math.factorial(r), connected.den)

    return HurwitzTable.from_counts("oracle", counts(), g_max)

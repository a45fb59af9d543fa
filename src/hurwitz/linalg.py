"""Exact rational linear algebra: row reduction, null spaces, unique solve.

Small dense systems only (tens of rows, at most a few hundred).  Every
entry is an `int` or a `Fraction`; anything else, a float, a Decimal or a
string, is refused with a TypeError rather than read as a nearby binary
fraction.  Inside, each row is read through `algebra.over_lcm`, scaled to
coprime integers and eliminated fraction-free (Bareiss 1968), so no
intermediate rational is ever normalised; a caller whose data are already
integer rows (the fit) builds no `Fraction` on the way in.  Outputs are
`Fraction`s.  Pivoting is deterministic (first nonzero in column order), so
results are byte-reproducible across runs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .algebra import over_lcm

__all__ = ["row_reduce", "nullspace", "solve_exact", "RankDeficientError", "InconsistentSystemError"]

_P = 2**61 - 1  # the prime that picks a square subsystem in `solve_exact`


class RankDeficientError(ValueError):
    """The system has fewer independent equations than unknowns."""


class InconsistentSystemError(ValueError):
    """An over-determined system has no exact solution."""


def _integer_row(row) -> list[int]:
    """The row's numerators over the lcm of its denominators (`over_lcm`),
    divided by their gcd: a coprime integer row with the same span.
    Refuses an entry that is neither an int nor a Fraction."""
    for kind in set(map(type, row)):
        if not issubclass(kind, (int, Fraction)):
            bad = next(v for v in row if type(v) is kind)
            raise TypeError(f"exact entries only (int or Fraction), got {bad!r} ({kind.__name__})")
    _, ints = over_lcm((v.numerator, v.denominator) for v in row)
    g = math.gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def row_reduce(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rref_rows, pivot_columns).

    The forward phase is Bareiss elimination on integer rows: after pivot k
    every entry below the pivots is a (k+1)-minor, so each division is exact.
    With D the last pivot (the determinant of the pivot block), D times the
    reduced form is integral by Cramer's rule; the back phase computes it row
    by row from the bottom with exact divisions, over the non-pivot columns
    only.
    """
    m = [_integer_row(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    prev = 1
    for col in range(ncols):
        rank = len(pivots)
        sel = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if sel is None:
            continue
        m[rank], m[sel] = m[sel], m[rank]
        prow = m[rank]
        piv = prow[col]
        tail = prow[col + 1 :]
        for i in range(rank + 1, len(m)):
            row = m[i]
            f = row[col]
            if f:
                row[col + 1 :] = [(piv * a - f * b) // prev for a, b in zip(row[col + 1 :], tail)]
                row[col] = 0
            elif piv != prev:
                row[col + 1 :] = [piv * a // prev for a in row[col + 1 :]]
        prev = piv
        pivots.append(col)
    rank = len(pivots)
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    det = prev
    scaled: list[list[int]] = [[]] * rank  # det * rref row k on the free columns
    for k in range(rank - 1, -1, -1):
        row = m[k]
        later = [(row[pivots[l]], scaled[l]) for l in range(k + 1, rank) if row[pivots[l]]]
        scaled[k] = [
            (det * row[j] - sum(c * x[i] for c, x in later)) // row[pivots[k]]
            for i, j in enumerate(free)
        ]
    rref = []
    for k, pcol in enumerate(pivots):
        out = [Fraction(0)] * ncols
        out[pcol] = Fraction(1)
        for j, x in zip(free, scaled[k]):
            if x:
                out[j] = Fraction(x, det)
        rref.append(out)
    return rref, pivots


def nullspace(rows: list[list[Fraction]], ncols: int | None = None) -> list[list[Fraction]]:
    """Basis of the right null space of the matrix, one vector per free column.

    Each basis vector has entry 1 in its free column and is supported on
    that free column plus pivot columns, in increasing free-column order.
    """
    if ncols is None:
        if not rows:
            raise ValueError("empty matrix needs an explicit column count")
        ncols = len(rows[0])
    rref, pivots = row_reduce(rows) if rows else ([], [])
    pivot_set = set(pivots)
    basis: list[list[Fraction]] = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, pcol in zip(rref, pivots):
            vec[pcol] = -r[free]
        basis.append(vec)
    return basis


def _independent_mod_p(rows: list[list[int]], n: int) -> list[int]:
    """Indices of the first rows, greedily in row order, whose first n
    entries are independent mod `_P`; stops at n of them."""
    basis: list[tuple[int, list[int]]] = []  # (pivot column, row with pivot 1)
    chosen = []
    for idx, row in enumerate(rows):
        v = [a % _P for a in row[:n]]
        for pcol, b in basis:
            c = v[pcol]
            if c:
                v = [(a - c * e) % _P for a, e in zip(v, b)]
        pcol = next((j for j, a in enumerate(v) if a), None)
        if pcol is None:
            continue
        inv = pow(v[pcol], -1, _P)
        basis.append((pcol, [a * inv % _P for a in v]))
        chosen.append(idx)
        if len(chosen) == n:
            break
    return chosen


def solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Solve an (over-determined) system requiring full column rank and
    exact consistency of every equation; raises otherwise.

    The solution comes from n rows that are independent mod a large prime
    (such rows are independent over Q too); it is then substituted into
    every equation exactly.  When fewer than n rows are independent mod the
    prime, the whole system is reduced over Q, so `RankDeficientError`
    means the rank over Q is short.

    >>> solve_exact([[1, 1], [1, -1], [2, 0]], [3, 1, 4])
    [Fraction(2, 1), Fraction(1, 1)]
    """
    if not rows:
        raise RankDeficientError("no equations")
    ncols = len(rows[0])
    if len(rhs) != len(rows):
        raise ValueError(f"{len(rows)} equations but {len(rhs)} right-hand sides")
    if any(len(row) != ncols for row in rows):
        raise ValueError(f"ragged system: every equation needs {ncols} coefficients")
    aug = [_integer_row([*row, b]) for row, b in zip(rows, rhs)]
    chosen = _independent_mod_p(aug, ncols)
    rref, pivots = row_reduce([aug[i] for i in chosen] if len(chosen) == ncols else aug)
    if ncols in pivots:
        raise InconsistentSystemError("no exact solution (contradictory rows)")
    if len(pivots) < ncols:
        missing = sorted(set(range(ncols)) - set(pivots))
        raise RankDeficientError(
            f"rank {len(pivots)} < {ncols} unknowns; undetermined columns {missing}"
        )
    sol = [r[ncols] for r in rref]
    den, nums = over_lcm((v.numerator, v.denominator) for v in sol)
    if any(sum(map(mul, row, nums)) != row[ncols] * den for row in aug):
        raise InconsistentSystemError("no exact solution (contradictory rows)")
    return sol

"""Exact rational linear algebra: row reduction, null spaces, unique solve.

Small dense systems only (tens of rows, at most a few hundred).  Every
entry is an `int` or a `Fraction`; anything else, a float, a Decimal or a
string, is refused with a TypeError rather than read as a nearby binary
fraction.  One elimination path, `row_reduce`, serves `nullspace` and
`solve_exact`: each row is read through `algebra.over_lcm`, scaled to
coprime integers and eliminated fraction-free (Bareiss 1968), so no
intermediate rational is normalised and integer rows (the fit's) build no
`Fraction` on the way in.  Outputs are `Fraction`s.  Pivoting is
deterministic (first nonzero in column order), so results are
byte-reproducible across runs.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .algebra import over_lcm

__all__ = ["row_reduce", "nullspace", "solve_exact", "RankDeficientError", "InconsistentSystemError"]


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


def nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the right null space of the matrix with `ncols` columns,
    one vector per free column.

    Each basis vector has entry 1 in its free column and is supported on
    that free column plus pivot columns, in increasing free-column order.
    """
    rref, pivots = row_reduce(rows)
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


def solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Solve an (over-determined) system requiring full column rank and
    exact consistency of every equation; raises otherwise.

    The augmented rows are reduced together (`row_reduce`), so every
    equation is decided: a pivot in the right-hand-side column means
    contradictory rows, and fewer pivots than unknowns a short rank over Q.

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
    rref, pivots = row_reduce([[*row, b] for row, b in zip(rows, rhs)])
    if ncols in pivots:
        raise InconsistentSystemError("no exact solution (contradictory rows)")
    if len(pivots) < ncols:
        missing = sorted(set(range(ncols)) - set(pivots))
        raise RankDeficientError(
            f"rank {len(pivots)} < {ncols} unknowns; undetermined columns {missing}"
        )
    return [r[ncols] for r in rref]

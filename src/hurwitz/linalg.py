"""Exact rational linear algebra: row reduction, null spaces, unique solve.

Small dense systems only (tens of rows/columns); everything is Fraction
arithmetic with deterministic pivoting (first nonzero in column order), so
results are byte-reproducible across runs.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["row_reduce", "nullspace", "solve_exact", "RankDeficientError", "InconsistentSystemError"]


class RankDeficientError(ValueError):
    """The system has fewer independent equations than unknowns."""


class InconsistentSystemError(ValueError):
    """An over-determined system has no exact solution."""


def row_reduce(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rref_rows, pivot_columns)."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        sel = None
        for i in range(rank, len(m)):
            if m[i][col] != 0:
                sel = i
                break
        if sel is None:
            continue
        m[rank], m[sel] = m[sel], m[rank]
        pivot = m[rank][col]
        m[rank] = [v / pivot for v in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[rank])]
        pivots.append(col)
        rank += 1
    return m[:rank], pivots


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


def solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Solve an (over-determined) system requiring full column rank and
    exact consistency of every equation; raises otherwise.

    >>> solve_exact([[1, 1], [1, -1], [2, 0]], [3, 1, 4])
    [Fraction(2, 1), Fraction(1, 1)]
    """
    if not rows:
        raise RankDeficientError("no equations")
    ncols = len(rows[0])
    aug = [list(map(Fraction, row)) + [Fraction(b)] for row, b in zip(rows, rhs)]
    rref, pivots = row_reduce(aug)
    if ncols in pivots:
        raise InconsistentSystemError("no exact solution (contradictory rows)")
    if len(pivots) < ncols:
        missing = sorted(set(range(ncols)) - set(pivots))
        raise RankDeficientError(
            f"rank {len(pivots)} < {ncols} unknowns; undetermined columns {missing}"
        )
    sol = [Fraction(0)] * ncols
    for r, pcol in zip(rref, pivots):
        sol[pcol] = r[ncols]
    return sol

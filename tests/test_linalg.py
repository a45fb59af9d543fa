"""Exact rational linear algebra: row reduction, null spaces, and the
over-determined solver used by the constant fits."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitz import linalg
from hurwitz.linalg import (
    InconsistentSystemError,
    RankDeficientError,
    nullspace,
    row_reduce,
    solve_exact,
)


P = 2**61 - 1


def frac_matrix(rows):
    return [[Fraction(v) for v in row] for row in rows]


def mat_vec(rows, vec):
    return [sum((r * v for r, v in zip(row, vec)), Fraction(0)) for row in rows]


def reference_row_reduce(rows):
    """Gauss-Jordan over Fractions on every row, pivoting on the first
    nonzero in column order: the reference `row_reduce` must equal."""
    m = [list(map(Fraction, r)) for r in rows]
    pivots = []
    for col in range(len(m[0]) if m else 0):
        rank = len(pivots)
        sel = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if sel is None:
            continue
        m[rank], m[sel] = m[sel], m[rank]
        m[rank] = [v / m[rank][col] for v in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[rank])]
        pivots.append(col)
    return m[: len(pivots)], pivots


def reference_solve(rows, rhs):
    """The solution over Q from the reference reduction of the whole
    augmented system, or the error class `solve_exact` must raise."""
    ncols = len(rows[0])
    rref, pivots = reference_row_reduce([list(row) + [b] for row, b in zip(rows, rhs)])
    if ncols in pivots:
        return InconsistentSystemError
    if len(pivots) < ncols:
        return RankDeficientError
    return [r[ncols] for r in rref]


def outcome(rows, rhs):
    try:
        return solve_exact(rows, rhs)
    except (InconsistentSystemError, RankDeficientError) as ex:
        return type(ex)


def test_row_reduce_identifies_pivots():
    reduced, pivots = row_reduce(frac_matrix([[1, 2, 3], [2, 4, 7], [0, 1, 0]]))
    assert pivots == [0, 1, 2]
    assert len(reduced) == 3


def test_nullspace_of_rank_one_matrix():
    basis = nullspace(frac_matrix([[1, 2, 3]]), 3)
    assert len(basis) == 2
    for vec in basis:
        assert sum(c * v for c, v in zip([1, 2, 3], vec)) == 0


def test_nullspace_needs_ncols_for_empty_matrix():
    assert nullspace([], 3) == [
        [Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1)],
    ]
    with pytest.raises(TypeError):
        nullspace([])  # the column count is a required argument


def test_solve_exact_overdetermined_consistent():
    rows = frac_matrix([[1, 1], [1, -1], [2, 0]])
    rhs = [Fraction(3), Fraction(1), Fraction(4)]
    assert solve_exact(rows, rhs) == [Fraction(2), Fraction(1)]


def test_solve_exact_rejects_contradiction():
    rows = frac_matrix([[1, 0], [0, 1], [1, 1]])
    with pytest.raises(InconsistentSystemError):
        solve_exact(rows, [Fraction(1), Fraction(1), Fraction(3)])


def test_solve_exact_rejects_rank_deficiency():
    with pytest.raises(RankDeficientError):
        solve_exact(frac_matrix([[1, 2], [2, 4]]), [Fraction(1), Fraction(2)])
    with pytest.raises(RankDeficientError):
        solve_exact([], [])


def test_solve_exact_refuses_mismatched_shapes_before_eliminating(monkeypatch):
    def no_elimination(rows):
        raise AssertionError("eliminated a malformed system")

    monkeypatch.setattr(linalg, "row_reduce", no_elimination)
    rows = [[1, 1], [1, -1], [2, 0], [5, 0]]
    for bad_rows, rhs in [
        (rows, [3, 1, 4]),  # a short rhs once dropped the last equation
        (rows[:2], [3, 1, 4]),
        ([[1, 1], [1], [2, 0]], [3, 1, 4]),
        ([[1, 1], [1, -1, 0], [2, 0]], [3, 1, 4]),
    ]:
        with pytest.raises(ValueError) as info:
            solve_exact(bad_rows, rhs)
        assert info.type is ValueError


# neither int nor Fraction: Fraction() would read a float or a Decimal as a
# nearby binary fraction and parse a string, silently
INEXACT = [0.1, Decimal("0.1"), "1/2"]


@pytest.mark.parametrize("bad", INEXACT, ids=["float", "Decimal", "str"])
def test_row_reduce_refuses_an_inexact_entry(bad):
    with pytest.raises(TypeError, match=type(bad).__name__) as info:
        row_reduce([[1, Fraction(1, 2)], [bad, 3]])
    assert repr(bad) in str(info.value)


@pytest.mark.parametrize("bad", INEXACT, ids=["float", "Decimal", "str"])
def test_nullspace_refuses_an_inexact_entry(bad):
    with pytest.raises(TypeError, match=type(bad).__name__) as info:
        nullspace([[1, bad, 2]], 3)
    assert repr(bad) in str(info.value)


@pytest.mark.parametrize("bad", INEXACT, ids=["float", "Decimal", "str"])
def test_solve_exact_refuses_an_inexact_entry(bad):
    # in the matrix and on the right-hand side
    cases = [([[1, 0], [0, bad], [1, 1]], [1, 2, 3]), ([[1, 0], [0, 1], [1, 1]], [1, bad, 3])]
    for rows, rhs in cases:
        with pytest.raises(TypeError, match=type(bad).__name__) as info:
            solve_exact(rows, rhs)
        assert repr(bad) in str(info.value)


def test_solve_exact_keeps_a_large_prime_pivot():
    # the second pivot is the large prime P: the rank over Q is full, the
    # solution comes out exact, and a surplus row that is a multiple of the
    # second is checked against its own right-hand side
    assert solve_exact([[1, 0], [0, P]], [1, P]) == [1, 1]
    assert outcome([[1, 0], [0, P]], [1, P + 1]) == [1, Fraction(P + 1, P)]
    assert outcome([[1, 0], [0, P], [0, 2 * P]], [1, P, 3 * P]) is InconsistentSystemError


@st.composite
def matrices(draw):
    ncols = draw(st.integers(1, 4))
    nrows = draw(st.integers(1, 5))
    return [
        [Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 3))) for _ in range(ncols)]
        for _ in range(nrows)
    ]


@st.composite
def low_rank_matrices(draw):
    """A product of an nrows x k and a k x ncols rational matrix, so the
    rank is at most k; k = 0 gives the zero matrix."""
    ncols = draw(st.integers(1, 6))
    nrows = draw(st.integers(1, 8))
    k = draw(st.integers(0, min(nrows, ncols)))
    entry = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))
    left = [[draw(entry) for _ in range(k)] for _ in range(nrows)]
    right = [[draw(entry) for _ in range(ncols)] for _ in range(k)]
    return [
        [sum((left[i][t] * right[t][j] for t in range(k)), Fraction(0)) for j in range(ncols)]
        for i in range(nrows)
    ]


@given(st.one_of(matrices(), low_rank_matrices()))
@settings(max_examples=150, deadline=None)
def test_row_reduce_matches_fraction_gauss_jordan(rows):
    assert row_reduce(rows) == reference_row_reduce(rows)


@given(low_rank_matrices(), st.data())
@settings(max_examples=100, deadline=None)
def test_solve_exact_matches_the_reference_solve(rows, data):
    ncols = len(rows[0])
    planted = [Fraction(data.draw(st.integers(-4, 4)), data.draw(st.integers(1, 3))) for _ in range(ncols)]
    rhs = mat_vec(rows, planted)
    assert outcome(rows, rhs) == reference_solve(rows, rhs)
    i = data.draw(st.integers(0, len(rows) - 1))
    perturbed = rhs[:i] + [rhs[i] + data.draw(st.integers(1, 3))] + rhs[i + 1 :]
    assert outcome(rows, perturbed) == reference_solve(rows, perturbed)


@given(low_rank_matrices(), st.data())
@settings(max_examples=60, deadline=None)
def test_solve_exact_on_a_square_subsystem_checks_every_equation(rows, data):
    """Full column rank with surplus rows: n identity rows already pin the
    solution, and a perturbed surplus equation after them must still be
    caught."""
    ncols = len(rows[0])
    identity = [[Fraction(int(i == j)) for j in range(ncols)] for i in range(ncols)]
    system = identity + rows
    planted = [Fraction(data.draw(st.integers(-4, 4)), data.draw(st.integers(1, 3))) for _ in range(ncols)]
    rhs = mat_vec(system, planted)
    assert solve_exact(system, rhs) == planted
    i = data.draw(st.integers(ncols, len(system) - 1))
    rhs[i] += 1
    with pytest.raises(InconsistentSystemError):
        solve_exact(system, rhs)


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_nullspace_vectors_are_in_kernel(rows):
    ncols = len(rows[0])
    basis = nullspace(rows, ncols)
    _, pivots = row_reduce([row[:] for row in rows])
    assert len(basis) == ncols - len(pivots)
    for vec in basis:
        assert mat_vec(rows, vec) == [Fraction(0)] * len(rows)


@given(matrices(), st.data())
@settings(max_examples=60, deadline=None)
def test_solve_exact_recovers_planted_solution(rows, data):
    ncols = len(rows[0])
    planted = [
        Fraction(data.draw(st.integers(-4, 4)), data.draw(st.integers(1, 3)))
        for _ in range(ncols)
    ]
    rhs = mat_vec(rows, planted)
    try:
        got = solve_exact(rows, rhs)
    except RankDeficientError:
        _, pivots = row_reduce([row[:] for row in rows])
        assert len(pivots) < ncols
        return
    assert mat_vec(rows, got) == rhs

"""Shared fixtures: one deep cut-and-join table and one fitted bracket
table per session, since both are pure functions of their parameters, and
Hurwitz's genus-0 formula as an independent check."""

import math
from collections import Counter
from fractions import Fraction

import pytest

from hurwitz.ansatz import fit_constants
from hurwitz.cutjoin import hurwitz_via_cutjoin
from hurwitz.hodge import HodgeTable
from hurwitz.oracle import connected_hurwitz


@pytest.fixture(scope="session")
def deep_table():
    """Cut-and-join counts for d <= 12, g <= 3 (r <= 28)."""
    return hurwitz_via_cutjoin(12, 3)


@pytest.fixture(scope="session")
def oracle_table():
    """Brute-force group-algebra counts for d <= 5, r <= 16."""
    return connected_hurwitz(5, 8, 16)


@pytest.fixture(scope="session")
def fitted(deep_table):
    """(form2, form3, hodge_table): pole-form fits for g = 2, 3 and the
    bracket table holding their fitted primitives."""
    hodge = HodgeTable()
    form2 = fit_constants(2, deep_table, 6, hodge)
    form3 = fit_constants(3, deep_table, 8, hodge)
    return form2, form3, hodge


def _genus0_hurwitz(alpha):
    """Hurwitz's genus-0 formula: r!/|Aut| * d^(m-3) * prod a^a/a!."""
    d, m = sum(alpha), len(alpha)
    aut = math.prod(math.factorial(k) for k in Counter(alpha).values())
    value = Fraction(math.factorial(d + m - 2), aut) * Fraction(d) ** (m - 3)
    for a in alpha:
        value *= Fraction(a**a, math.factorial(a))
    return value


@pytest.fixture(scope="session")
def genus0_hurwitz():
    """H^0_alpha by Hurwitz's closed formula, sharing no code with any route."""
    return _genus0_hurwitz

"""Partition plumbing: enumeration, automorphism counts, and the
primitive index sets used by the pole-form fits."""

from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitz.partitions import (
    Partition,
    ThetaPartition,
    aut_count,
    multinomial,
    partitions,
    primitive_thetas,
)

# number of partitions of 0..12
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]


def test_partition_validation():
    assert Partition((1, 1, 2)) == (1, 1, 2)
    with pytest.raises(ValueError):
        Partition((2, 1))
    with pytest.raises(ValueError):
        Partition((0, 1))
    assert Partition.of((3, 1, 2)) == (1, 2, 3)


def test_theta_partition_needs_parts_at_least_two():
    assert ThetaPartition((2, 3)) == (2, 3)
    with pytest.raises(ValueError):
        ThetaPartition((1, 2))


@given(st.integers(0, 12))
@settings(max_examples=13, deadline=None)
def test_partition_counts(d):
    assert len(list(partitions(d))) == PARTITION_COUNTS[d]


def test_partitions_respect_bounds():
    assert list(partitions(4, min_part=2)) == [(2, 2), (4,)]


def test_aut_count():
    assert aut_count((1, 1, 2)) == 2
    assert aut_count((2, 2, 2)) == 6
    assert aut_count(()) == 1


def test_multinomial():
    assert multinomial(4, (2, 2)) == 6
    assert multinomial(5, (1, 1, 3)) == 20
    assert multinomial(0, ()) == 1


def test_primitive_theta_counts():
    # one key per unknown constant in the genus-2 and genus-3 pole forms
    assert len(primitive_thetas(2)) == 6
    assert len(primitive_thetas(3)) == 26


def test_primitive_theta_invariants():
    for g in (2, 3):
        for theta, e, k in primitive_thetas(g):
            assert all(part >= 2 for part in theta)
            assert e == len(theta) + 2 * g - 2
            assert k == 3 * g - 3 + len(theta) - sum(theta)
            assert 0 <= k <= g


def test_genus2_primitive_thetas_exactly():
    keys = [theta for theta, _, _ in primitive_thetas(2)]
    assert sorted(keys) == [(2,), (2, 2), (2, 2, 2), (2, 3), (3,), (4,)]


def _reference_primitive_thetas(g):
    """(theta, e, k) by brute force over non-decreasing tuples of parts
    >= 2, in the canonical order: by length l, then size n, then
    lexicographically."""
    out = []
    for l in range(1, 3 * g - 2):
        for n in range(l + 2 * g - 3, l + 3 * g - 2):
            # the largest part leaves at least 2 for each of the other l - 1
            for theta in combinations_with_replacement(range(2, n - 2 * l + 3), l):
                if sum(theta) == n:
                    out.append((theta, l + 2 * g - 2, 3 * g - 3 + l - n))
    return out


@pytest.mark.parametrize("g, count", [(2, 6), (3, 26), (4, 85), (5, 242), (6, 617)])
def test_primitive_thetas_match_a_brute_force_reference(g, count):
    thetas = primitive_thetas(g)
    assert len(thetas) == count
    assert thetas == _reference_primitive_thetas(g)
    assert all(type(theta) is ThetaPartition for theta, _, _ in thetas)

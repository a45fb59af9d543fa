"""Cut-and-join slice iteration: independent agreement with the
brute-force oracle and internal consistency of the table builder."""

import inspect
from fractions import Fraction

import pytest

from hurwitz import cutjoin
from hurwitz.cutjoin import (
    _log_slices,
    _sub_profiles,
    connected_slices,
    disconnected_slices,
    hurwitz_number,
    hurwitz_via_cutjoin,
)
from hurwitz.hodge import elsv_hurwitz
from hurwitz.oracle import connected_hurwitz, count_factorizations, riemann_hurwitz_r
from hurwitz.partitions import Partition, partitions
from hurwitz.simple_hurwitz import closed_form_simple


def test_matches_oracle_on_full_overlap(oracle_table, deep_table):
    """Every (g, alpha) with d <= 5, r <= 16 agrees between the two
    completely independent computations, including which keys are absent."""
    cut_g3 = {
        (g, alpha): v
        for (g, alpha), v in deep_table.entries.items()
        if sum(alpha) <= 5 and g <= 3 and riemann_hurwitz_r(g, alpha) <= 16
    }
    oracle = {(g, alpha): v for (g, alpha), v in oracle_table.entries.items() if g <= 3}
    assert cut_g3 == oracle


@pytest.mark.parametrize("d", range(1, 8))
def test_all_covers_slices_are_factorization_counts(d):
    """In degree d, the integer of profile alpha at step r is the number of
    r-tuples of transpositions in S_d with product of type alpha: two
    independent routes, with no logarithm and no division."""
    r_max = 2 * d + 2
    slices = disconnected_slices(d, r_max)
    counts = count_factorizations(d, r_max)
    for r in range(r_max + 1):
        assert {k: v for k, v in slices[r].items() if sum(k) == d} == counts[r]


def test_slices_hold_ints_and_answers_are_fractions():
    keep = _sub_profiles(Partition((1, 2, 3)))
    e = disconnected_slices(6, 10, keep)
    slices = (
        connected_slices(7, 16, 2) + disconnected_slices(6, 10) + e
        + _log_slices(e, 6, keep)
    )
    assert all(type(v) is int for s in slices for v in s.values())
    assert all(
        type(v) is Fraction for v in hurwitz_via_cutjoin(5, 2).entries.values()
    )
    assert type(hurwitz_number(1, (1, 2, 3))) is Fraction


def test_odd_doubled_join_is_refused(monkeypatch):
    """The doubled join sum must be even; one stray unit in it raises
    instead of being floored away by the halving."""
    real = cutjoin._join_components

    def off_by_one(*args):
        out = real(*args)
        key = next(iter(out))
        out[key] += 1
        return out

    monkeypatch.setattr(cutjoin, "_join_components", off_by_one)
    with pytest.raises(AssertionError, match="odd"):
        connected_slices(4, 6, 2)


def _log_route(d_max, r_max, g_max=None):
    """H = log E from the all-covers slices, cut to genus <= g_max."""
    h = _log_slices(disconnected_slices(d_max, r_max), d_max)
    if g_max is None:
        return h
    return [
        {k: v for k, v in s.items() if r - sum(k) - len(k) + 2 <= 2 * g_max}
        for r, s in enumerate(h)
    ]


@pytest.mark.parametrize("d_max", range(1, 11))
def test_connected_evolution_equals_log_of_all_covers(d_max):
    """The connected cut-and-join evolution, pruned at genus 3, equals the
    logarithm of the all-covers series slice by slice and entry by entry."""
    r_max = 2 * d_max + 4
    assert connected_slices(d_max, r_max, 3) == _log_route(d_max, r_max, 3)


@pytest.mark.parametrize("d_max, r_max", [(3, 4), (5, 16), (6, 18)])
def test_connected_evolution_without_genus_cap(d_max, r_max):
    # r >= 2g on every entry, so the cap r_max // 2 never prunes
    assert connected_slices(d_max, r_max, r_max // 2) == _log_route(d_max, r_max)


def test_low_degree_spot_values(deep_table):
    assert deep_table.value(0, (1, 1, 1)) == 4
    assert deep_table.value(1, (1, 1)) == Fraction(1, 2)
    assert deep_table.value(1, (2,)) == Fraction(1, 2)
    assert deep_table.value(1, (3,)) == 9
    assert deep_table.value(2, (1, 1)) == Fraction(1, 2)
    # one-part genus-0 profiles follow H^0_{(d)} = d^(d-3)
    assert deep_table.value(0, (3,)) == 1
    assert deep_table.value(0, (4,)) == 4
    assert deep_table.value(0, (1, 3)) == 27
    assert deep_table.value(0, (2, 2)) == 12


def test_table_covers_requested_window(deep_table):
    # every profile of every d <= 12 with g <= 3 and nonzero count is present
    assert deep_table.value(3, (1,) * 12) > 0
    assert deep_table.value(0, (12,)) > 0
    for (g, alpha) in deep_table.entries:
        assert sum(alpha) <= 12
        assert g <= 3
        assert riemann_hurwitz_r(g, alpha) <= 28


def test_explicit_rmax_truncates():
    table = hurwitz_via_cutjoin(3, 2).restricted(4)
    assert table.value(0, (1, 1, 1)) == 4
    assert table.value(1, (1, 1)) == Fraction(1, 2)
    for (g, alpha) in table.entries:
        assert riemann_hurwitz_r(g, alpha) <= 4


@pytest.mark.parametrize("builder", [hurwitz_via_cutjoin, connected_slices, connected_hurwitz])
def test_table_builders_take_one_set_of_required_bounds(builder):
    """Each builder takes its bounds one way: no bound has a default that
    would select another mode."""
    params = inspect.signature(builder).parameters.values()
    assert [p.name for p in params if p.default is not p.empty] == []


def test_single_answer_matches_table_everywhere():
    """Every profile of degree <= 9 at every genus <= 3, zeros included."""
    table = hurwitz_via_cutjoin(9, 3)
    assert hurwitz_number(1, (1,)) == 0 == table.value(1, (1,))
    mismatches = [
        (g, alpha)
        for d in range(1, 10)
        for alpha in partitions(d)
        for g in range(4)
        if hurwitz_number(g, alpha) != table.value(g, alpha)
    ]
    assert mismatches == []


@pytest.mark.parametrize(
    "g, alpha",
    [(1, (12,)), (1, (5, 7)), (1, (2, 3, 9)), (2, (13,)), (2, (6, 8)), (2, (16,))],
)
def test_single_answer_matches_elsv_beyond_the_table(fitted, g, alpha):
    _, _, hodge = fitted
    assert hurwitz_number(g, alpha) == elsv_hurwitz(g, alpha, hodge)


@pytest.mark.parametrize("g, d", [(2, 12), (2, 14), (3, 12), (3, 14)])
def test_single_answer_with_many_ones_matches_closed_form(g, d):
    # all-ones profiles are where pruning by part count drops the most
    assert hurwitz_number(g, (1,) * d) == closed_form_simple(g, d)


def test_pruned_slices_keep_every_reachable_coefficient():
    # alpha = (1, 1, 2, 3) at g = 1: r = 9.  Each slice keeps exactly the
    # profiles within r - s part counts of a sub-multiset of alpha of the
    # same degree, with the unpruned coefficients.
    keep = _sub_profiles(Partition((1, 1, 2, 3)))
    r = riemann_hurwitz_r(1, (1, 1, 2, 3))
    full = disconnected_slices(7, r)
    pruned = disconnected_slices(7, r, keep)
    dropped = 0
    for s, (a, b) in enumerate(zip(full, pruned)):
        reach = {
            k: v
            for k, v in a.items()
            if any(sum(t) == sum(k) and abs(len(t) - len(k)) <= r - s for t in keep)
        }
        assert b == reach
        dropped += len(a) - len(b)
    assert dropped > 0


def test_single_answer_rejects_bad_input():
    with pytest.raises(ValueError):
        hurwitz_number(-1, (2,))
    with pytest.raises(ValueError):
        hurwitz_number(0, ())

"""Brute-force transposition-factorization oracle: permutation helpers,
raw counts against hand values and a naive count, and the budget guard."""

import math
import tracemalloc
from fractions import Fraction

import pytest

from hurwitz import oracle
from hurwitz.oracle import (
    BudgetExceededError,
    HurwitzTable,
    connected_hurwitz,
    count_factorizations,
    cycle_type,
    riemann_hurwitz_r,
    transpositions,
)
from hurwitz.partitions import Partition


def _naive_counts(d, r_max):
    """Binned counts from a perm -> count dict, composing tuples directly."""
    taus = transpositions(d)
    vec = {tuple(range(d)): 1}
    out = []
    for _ in range(r_max + 1):
        bins = {}
        for sigma, c in vec.items():
            alpha = cycle_type(sigma)
            bins[alpha] = bins.get(alpha, 0) + c
        out.append(bins)
        nxt = {}
        for sigma, c in vec.items():
            for tau in taus:
                prod = tuple(tau[v] for v in sigma)
                nxt[prod] = nxt.get(prod, 0) + c
        vec = nxt
    return out


def test_cycle_type():
    assert cycle_type((0, 1, 2)) == (1, 1, 1)
    assert cycle_type((1, 0, 2)) == (1, 2)
    assert cycle_type((1, 2, 0)) == (3,)


def test_transposition_count():
    assert len(transpositions(4)) == 6
    assert len(transpositions(1)) == 0


def test_count_factorizations_s3():
    # products of r transpositions in S_3, binned by cycle type of the product
    by_r = count_factorizations(3, 4)
    assert by_r[0] == {Partition((1, 1, 1)): 1}
    assert by_r[1] == {Partition((1, 2)): 3}
    # r = 2: 9 products; 3 give identity, 6 give a 3-cycle
    assert by_r[2] == {Partition((1, 1, 1)): 3, Partition((3,)): 6}
    assert sum(by_r[4].values()) == 3**4


@pytest.mark.parametrize("d", range(1, 6))
def test_count_factorizations_matches_naive_count(d):
    by_r = count_factorizations(d, 6)
    assert by_r == _naive_counts(d, 6)
    for r, bins in enumerate(by_r):
        assert sum(bins.values()) == math.comb(d, 2) ** r
        assert all((d - len(alpha) - r) % 2 == 0 for alpha in bins)


@pytest.mark.parametrize("d", range(2, 8))
def test_cycle_factorizations_match_denes_count(d):
    """Denes (1959): a d-cycle has d^(d-2) minimal factorizations into
    transpositions, so (d-1)! * d^(d-2) ordered ones with its class of
    (d-1)! cycles; this pins the d = 6 and d = 7 sweeps."""
    by_r = count_factorizations(d, d - 1)
    assert by_r[d - 1][Partition((d,))] == d ** (d - 2) * math.factorial(d - 1)


def _traced_peak(d, r):
    tracemalloc.start()
    try:
        count_factorizations(d, r)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("d", (6, 7))
def test_sweep_allocates_within_its_cost_model(d):
    """The traced peak of a sweep stays inside the cells the budget charges
    for it, and barely grows with the step count, so a sweep that kept every
    step vector would fail here.  Below d = 6, fixed overheads that do not
    scale with d! can exceed the model."""
    peaks = {r: _traced_peak(d, r) for r in (1, 2 * d + 2)}
    for r, peak in peaks.items():
        assert peak <= oracle._BYTES_PER_CELL * oracle._oracle_cells(d, r)
    assert peaks[2 * d + 2] <= 1.5 * peaks[1]


def test_riemann_hurwitz_r():
    assert riemann_hurwitz_r(0, (1, 1, 1)) == 4
    assert riemann_hurwitz_r(1, (1, 1)) == 4
    assert riemann_hurwitz_r(0, (3,)) == 2


def test_connected_spot_values(oracle_table):
    assert oracle_table.value(0, (1, 1, 1)) == 4
    assert oracle_table.value(1, (1, 1)) == Fraction(1, 2)
    assert oracle_table.value(0, (3,)) == 1
    assert oracle_table.value(1, (3,)) == 9
    assert oracle_table.value(1, (1, 1, 1)) == 40
    # degree-1 covers of positive genus do not exist
    assert oracle_table.value(1, (1,)) == 0
    assert (1, Partition((1,))) not in oracle_table.entries


def test_disconnected_minus_connected():
    # H^0_{(1,1)} = 1/2: the two-sheet cover branched at two points,
    # weighted by its automorphism
    table = connected_hurwitz(2, 1, 4)
    assert table.value(0, (1, 1)) == Fraction(1, 2)
    assert table.value(1, (1, 1)) == Fraction(1, 2)


def test_zero_values_never_stored(oracle_table):
    for (g, alpha), value in oracle_table.entries.items():
        assert value > 0
        assert riemann_hurwitz_r(g, alpha) >= 0


def test_budget_guard(monkeypatch):
    monkeypatch.setenv("HURWITZ_MEMORY_BUDGET", "64")
    with pytest.raises(BudgetExceededError):
        count_factorizations(5, 10)


def test_budget_counts_what_the_oracle_allocates(monkeypatch):
    """A byte budget for the 7! * 20 step cells alone no longer admits
    d = 7, r = 20: the transposition action table and the permutation
    list, index and cycle types are counted too."""
    oracle._check_cost(7, 20)  # the default budget admits d = 7 with 20 steps
    with pytest.raises(BudgetExceededError):
        oracle._check_cost(7, 21)
    monkeypatch.setenv("HURWITZ_MEMORY_BUDGET", str(64 * math.factorial(7) * 20))
    with pytest.raises(BudgetExceededError):
        count_factorizations(7, 20)


def test_over_budget_refused_before_counting(monkeypatch):
    calls = []
    monkeypatch.setattr(
        oracle, "count_factorizations", lambda d, r_max: calls.append(d) or []
    )
    with pytest.raises(BudgetExceededError):
        connected_hurwitz(8, 2, 18)
    assert calls == []


def test_table_json_roundtrip(oracle_table):
    records = oracle_table.to_json_records()
    assert records == sorted(
        records, key=lambda r: (r["g"], sum(r["alpha"]), tuple(r["alpha"]))
    )
    back = {(rec["g"], Partition(rec["alpha"])): Fraction(rec["value"]) for rec in records}
    assert back == oracle_table.entries


def test_table_constructor_forms():
    entries = {(0, Partition((1, 1))): Fraction(1, 2), (1, Partition((2,))): Fraction(1, 2)}
    table = HurwitzTable("given", entries)
    assert (table.method, table.entries) == ("given", entries)
    assert HurwitzTable("empty").entries == {}
    assert HurwitzTable("a").entries is not HurwitzTable("b").entries
    sub = table.restricted(r_max=2)
    assert (sub.method, sub.entries) == ("given", {(0, Partition((1, 1))): Fraction(1, 2)})


def test_table_validates_entries():
    table = HurwitzTable("test")
    with pytest.raises(ValueError):
        table.add(-1, (1,), 1)
    with pytest.raises(ValueError):
        table.add(0, (1, 1, 1), -4)

"""Brute-force transposition-factorization oracle: permutation helpers,
raw counts against hand values and a naive count, and the budget guard.
The table container's own tests are in test_table.py."""

import gc
import math
import tracemalloc
from fractions import Fraction

import pytest

from hurwitz import oracle
from hurwitz.cutjoin import hurwitz_via_cutjoin
from hurwitz.oracle import (
    BudgetExceededError,
    connected_hurwitz,
    count_factorizations,
    transpositions,
)
from hurwitz.partitions import Partition, partitions
from hurwitz.table import riemann_hurwitz_r


def _naive_counts(d, r_max):
    """Binned counts from a perm -> count dict, composing tuples directly."""
    taus = transpositions(d)
    vec = {tuple(range(d)): 1}
    out = []
    for _ in range(r_max + 1):
        bins = {}
        for sigma, c in vec.items():
            alpha = Partition(oracle._cycle_lengths(sigma))
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
    assert Partition(oracle._cycle_lengths((0, 1, 2))) == (1, 1, 1)
    assert Partition(oracle._cycle_lengths((1, 0, 2))) == (1, 2)
    assert Partition(oracle._cycle_lengths((1, 2, 0))) == (3,)


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


@pytest.mark.parametrize("d", range(1, 7))
def test_count_factorizations_matches_naive_count(d):
    by_r = count_factorizations(d, 8)
    assert by_r == _naive_counts(d, 8)
    for r, bins in enumerate(by_r):
        assert sum(bins.values()) == math.comb(d, 2) ** r
        assert all((d - len(alpha) - r) % 2 == 0 for alpha in bins)


def test_degree_7_counts_keep_mass_and_parity():
    """Beyond the naive count's reach: at d = 7 every step still spreads
    all 21^r tuples over cycle types of the parity r forces."""
    for r, bins in enumerate(count_factorizations(7, 16)):
        assert sum(bins.values()) == 21**r
        assert all((7 - len(alpha) - r) % 2 == 0 for alpha in bins)


def test_class_action_is_checked_not_assumed(monkeypatch):
    """With one transposition missing the products are no longer a class
    function: the sweep finds the disagreeing class and raises."""
    real = oracle.transpositions
    monkeypatch.setattr(oracle, "transpositions", lambda d: real(d)[1:])
    with pytest.raises(AssertionError, match="class functions"):
        count_factorizations(3, 2)


@pytest.mark.parametrize("r_max", (1, 16))
def test_cycle_types_are_read_once_per_class_product(monkeypatch, r_max):
    """The per-degree work does not grow with the step count and never
    spans S_7: one representative of each of the p(7) classes is composed
    with each of the C(7, 2) transpositions, and each product's cycle type
    is read exactly once."""
    calls = []
    real = oracle._cycle_lengths
    monkeypatch.setattr(oracle, "_cycle_lengths", lambda perm: calls.append(perm) or real(perm))
    count_factorizations(7, r_max)
    assert len(calls) == len(list(partitions(7))) * math.comb(7, 2) == 315


@pytest.mark.parametrize("d", range(2, 8))
def test_cycle_factorizations_match_denes_count(d):
    """Denes (1959): a d-cycle has d^(d-2) minimal factorizations into
    transpositions, so (d-1)! * d^(d-2) ordered ones with its class of
    (d-1)! cycles; this pins the d = 6 and d = 7 sweeps."""
    by_r = count_factorizations(d, d - 1)
    assert by_r[d - 1][Partition((d,))] == d ** (d - 2) * math.factorial(d - 1)


def _traced_peak(d, r):
    # the peak depends on what the allocator already holds: one untraced run
    # and a collection first, so that earlier tests do not move it
    count_factorizations(d, r)
    gc.collect()
    tracemalloc.start()
    try:
        count_factorizations(d, r)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("d", (6, 7))
def test_sweep_allocates_within_its_cost_model(d):
    """The traced peak of the class-representative sweep (p(d)
    representatives, action rows and count vectors, and one binned dict
    per step) stays inside the d!-scaled cells the budget charges for it,
    and barely grows with the step count.  Below d = 4, fixed overheads
    that do not scale with d! exceed the charge."""
    peaks = {r: _traced_peak(d, r) for r in (1, 2 * d + 2)}
    for r, peak in peaks.items():
        assert peak <= oracle._BYTES_PER_CELL * oracle._oracle_cells(d, r)
    assert peaks[2 * d + 2] <= 1.5 * peaks[1]


def test_connected_counts_match_cutjoin_at_degree_10(monkeypatch):
    """Past the default budget, the oracle and cut-and-join agree on every
    entry of degree <= 10 and genus <= 3 (r <= 24 reaches (1^10) at g = 3)."""
    monkeypatch.setenv("HURWITZ_MEMORY_BUDGET", str(10**12))
    table = connected_hurwitz(10, 3, 24)
    assert table.entries == hurwitz_via_cutjoin(10, 3).entries
    assert max(alpha.d for _, alpha in table.entries) == 10


def test_connected_spot_values(oracle_table):
    assert oracle_table.value(0, (1, 1, 1)) == 4
    assert oracle_table.value(1, (1, 1)) == Fraction(1, 2)
    assert oracle_table.value(0, (3,)) == 1
    assert oracle_table.value(1, (3,)) == 9
    assert oracle_table.value(1, (1, 1, 1)) == 40
    # degree-1 covers of positive genus do not exist
    assert oracle_table.value(1, (1,)) == 0
    assert (1, Partition((1,))) not in oracle_table.entries


def test_degree_one_forms_no_factorial_of_an_empty_step(monkeypatch):
    """S_1 has no transposition, so every degree-1 step r >= 1 holds no
    count, and the oracle forms r! only for a step that holds counts: at
    r_max = 100 it takes the factorials of 0 and 1 alone."""
    args, real = [], math.factorial
    monkeypatch.setattr(math, "factorial", lambda n: args.append(n) or real(n))
    table = connected_hurwitz(1, 50, 100)
    assert set(args) == {0, 1}
    assert table.entries == {(0, Partition((1,))): 1}


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
    """A byte budget for the 7! * 20 step cells alone does not admit
    d = 7, r = 20: the charge adds d! (C(d, 2) + 3) cells to the step
    cells, and refuses before any class is swept, although the
    class-representative sweep allocates far less than either term."""
    oracle._check_cost(7, 20)  # the default budget admits d = 7 with 20 steps
    with pytest.raises(BudgetExceededError):
        oracle._check_cost(7, 21)
    monkeypatch.setenv("HURWITZ_MEMORY_BUDGET", str(64 * math.factorial(7) * 20))
    with pytest.raises(BudgetExceededError):
        count_factorizations(7, 20)


def test_budget_charge_is_pinned_by_its_own_numbers(monkeypatch):
    """d = 7, r = 20 is charged 7! (20 + C(7, 2) + 3) = 221760 cells of 64
    bytes: a byte budget of exactly that admits it and one byte less refuses
    it, so neither the cell size nor the + 3 can change unseen."""
    assert oracle._oracle_cells(7, 20) == 221_760
    monkeypatch.setenv("HURWITZ_MEMORY_BUDGET", str(64 * 221_760))
    oracle._check_cost(7, 20)
    monkeypatch.setenv("HURWITZ_MEMORY_BUDGET", str(64 * 221_760 - 1))
    with pytest.raises(BudgetExceededError):
        oracle._check_cost(7, 20)


def test_over_budget_refused_before_counting(monkeypatch):
    calls = []
    monkeypatch.setattr(
        oracle, "count_factorizations", lambda d, r_max: calls.append(d) or []
    )
    with pytest.raises(BudgetExceededError):
        connected_hurwitz(8, 2, 18)
    assert calls == []

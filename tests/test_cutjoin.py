"""Cut-and-join slice iteration: independent agreement with the
brute-force oracle and internal consistency of the table builder."""

import inspect
import math
from fractions import Fraction

import pytest

from hurwitz import cutjoin
from hurwitz.cutjoin import (
    ProfileKeys,
    _log_slices,
    _sub_profiles,
    connected_slices,
    disconnected_slices,
    hurwitz_number,
    hurwitz_via_cutjoin,
)
from hurwitz.hodge import elsv_hurwitz
from hurwitz.oracle import connected_hurwitz, count_factorizations
from hurwitz.partitions import Partition, partitions
from hurwitz.simple_hurwitz import closed_form_simple
from hurwitz.table import riemann_hurwitz_r


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
    keys = ProfileKeys(d)
    slices = disconnected_slices(keys, r_max)
    counts = count_factorizations(d, r_max)
    for r in range(r_max + 1):
        assert {
            keys.unpack(k): v for k, v in slices[r].items() if keys[k][0] == d
        } == counts[r]


def test_slices_hold_ints_and_answers_are_fractions():
    keys = ProfileKeys(6)
    keep = _sub_profiles(Partition((1, 2, 3)), keys)
    e = disconnected_slices(keys, 10, keep)
    slices = (
        connected_slices(ProfileKeys(7), 2) + disconnected_slices(keys, 10) + e
        + _log_slices(e, keys, keep)
    )
    assert all(type(v) is int for s in slices for v in s.values())
    assert all(
        type(v) is Fraction for v in hurwitz_via_cutjoin(5, 2).entries.values()
    )
    assert type(hurwitz_number(1, (1, 2, 3))) is Fraction


def test_odd_doubled_join_is_refused(monkeypatch):
    """The doubled join sum must be even; one stray unit in it raises
    instead of being floored away by the halving."""
    real = cutjoin._join_into

    def off_by_one(out, *args):
        real(out, *args)
        key = next(iter(out))
        out[key] += 1

    monkeypatch.setattr(cutjoin, "_join_into", off_by_one)
    with pytest.raises(AssertionError, match="odd"):
        connected_slices(ProfileKeys(4), 2)


def test_step_of_the_wrong_parity_is_refused(monkeypatch):
    """A profile of degree d with n parts appears only at steps r with
    r - d + n even; a step that emits (1, 1) at r = 1 raises and names
    both."""
    keys = ProfileKeys(2)
    monkeypatch.setattr(cutjoin, "cutjoin_step", lambda *args: {keys.pack((1, 1)): 1})
    with pytest.raises(AssertionError) as info:
        disconnected_slices(keys, 1)
    assert str(info.value) == "parity violation at r=1, alpha=(1, 1)"


def _log_route(d_max, r_max, g_max=None):
    """H = log E from the all-covers slices, cut to genus <= g_max."""
    keys = ProfileKeys(d_max)
    h = _log_slices(disconnected_slices(keys, r_max), keys)
    if g_max is None:
        return h
    return [
        {k: v for k, v in s.items() if r - keys[k][0] - keys[k][1] + 2 <= 2 * g_max}
        for r, s in enumerate(h)
    ]


@pytest.mark.parametrize("d_max", range(1, 11))
def test_connected_evolution_equals_log_of_all_covers(d_max):
    """The connected cut-and-join evolution, pruned at genus 3, equals the
    logarithm of the all-covers series slice by slice and entry by entry,
    over the 2 d_max + 4 steps that genus 3 and profile 1^d_max need."""
    assert connected_slices(ProfileKeys(d_max), 3) == _log_route(d_max, 2 * d_max + 4, 3)


@pytest.mark.parametrize("d_max, r_max", [(3, 4), (5, 16), (6, 18), (7, 22)])
def test_connected_evolution_without_genus_cap(d_max, r_max):
    # r >= 2g on every entry, so the cap r_max // 2 never prunes the first
    # r_max + 1 slices; at r = 22 the join pairs profiles of every genus up to 10
    h = connected_slices(ProfileKeys(d_max), r_max // 2)
    assert h[: r_max + 1] == _log_route(d_max, r_max)


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


def _one_part_closed_form(g, d):
    """Shapiro-Shapiro-Vainshtein (see Goulden-Jackson-Vakil,
    math/0309440): H^g_(d) = r! d^(r-1)/d! [t^(2g)] (sinh(t/2)/(t/2))^(d-1)
    with r = d + 2g - 1, from a power series in s = t^2 over Fractions."""
    r = d + 2 * g - 1
    # sinh(t/2)/(t/2) = sum_k s^k / (4^k (2k+1)!)
    base = [Fraction(1, 4**k * math.factorial(2 * k + 1)) for k in range(g + 1)]
    power = [Fraction(1)] + [Fraction(0)] * g
    for _ in range(d - 1):
        power = [sum(power[i] * base[k - i] for i in range(k + 1)) for k in range(g + 1)]
    return Fraction(math.factorial(r) * d ** (r - 1), math.factorial(d)) * power[g]


@pytest.mark.parametrize("g, d", [(0, 16), (1, 10), (2, 12), (3, 20), (7, 9), (12, 16)])
def test_single_answer_with_one_part_matches_closed_form(g, d):
    assert hurwitz_number(g, (d,)) == _one_part_closed_form(g, d)


def test_pruned_slices_keep_every_reachable_coefficient(monkeypatch):
    # Each slice E_s keeps exactly the profiles within r - s part counts of
    # a sub-multiset of alpha of the same degree, with the unpruned
    # coefficients, and the step forms no entry that the slice then drops.
    emitted = []
    real_step = cutjoin.cutjoin_step

    def spy(*args):
        emitted.append(real_step(*args))
        return emitted[-1]

    for g, alpha in [(1, (1, 1, 2, 3)), (1, (3, 3, 4)), (2, (6, 6)), (0, (2, 2, 3))]:
        keys = ProfileKeys(sum(alpha))
        keep = _sub_profiles(Partition(alpha), keys)
        r = riemann_hurwitz_r(g, alpha)
        full = disconnected_slices(keys, r)
        emitted.clear()
        with monkeypatch.context() as m:
            m.setattr(cutjoin, "cutjoin_step", spy)
            pruned = disconnected_slices(keys, r, keep)
        assert emitted == pruned[1:]
        dropped = 0
        for s, (a, b) in enumerate(zip(full, pruned)):
            reach = {
                k: v
                for k, v in a.items()
                if any(
                    keys[t][0] == keys[k][0] and abs(keys[t][1] - keys[k][1]) <= r - s
                    for t in keep
                )
            }
            assert b == reach
            dropped += len(a) - len(b)
        assert dropped > 0


@pytest.mark.parametrize("d_max, g_max", [(6, 0), (10, 3), (13, 3)])
def test_connected_step_forms_nothing_it_would_drop(monkeypatch, d_max, g_max):
    # A connected step is told which part counts keep genus <= g_max, and
    # every profile it forms has one of them, so no prune follows it.
    formed = []
    real_step = cutjoin.cutjoin_step

    def spy(slice_r, keys, reach):
        out = real_step(slice_r, keys, reach)
        formed.extend((keys[k][:2], reach) for k in out)
        return out

    monkeypatch.setattr(cutjoin, "cutjoin_step", spy)
    keys = ProfileKeys(d_max)
    h = connected_slices(keys, g_max)
    assert formed and all(n in reach[d] for (d, n), reach in formed)
    genera = {(r - keys[k][0] - keys[k][1] + 2) // 2 for r, s in enumerate(h) for k in s}
    assert max(genera) == g_max


def _distinct_joins(keys, h, g_max):
    """The distinct (alpha, i, beta, j) of the connected join, up to order:
    profiles of degrees adding to <= d_max whose lowest genera add to <=
    g_max, and distinct parts i of alpha and j of beta."""
    lowest = {}
    for r, s in enumerate(h):
        for k in s:
            d, n, _ = keys[k]
            lowest.setdefault(k, (r - d - n + 2) // 2)
    terms = [k for k in lowest for _ in keys[k][2]]  # one per distinct part
    return sum(
        1
        for a, ka in enumerate(terms)
        for kb in terms[a:]
        if keys[ka][0] + keys[kb][0] <= keys.d_max and lowest[ka] + lowest[kb] <= g_max
    )


@pytest.mark.parametrize("d_max, g_max, products", [(6, 0, 61), (10, 3, 1029), (13, 3, 5784)])
def test_connected_join_updates_once_per_distinct_product(monkeypatch, d_max, g_max, products):
    """Each distinct (alpha, i, beta, j) builds its key and updates the
    doubled join once, over all the genera of alpha and beta together (a
    step-by-step join made 9563 updates for the 1029 at d <= 10, g <= 3)."""
    updates = []

    class Counted(dict):
        def get(self, key, default=None):
            updates.append(key)
            return super().get(key, default)

    real = cutjoin._join_into

    def spy(out, *args):
        counted = Counted(out)
        real(counted, *args)
        out.update(counted)

    monkeypatch.setattr(cutjoin, "_join_into", spy)
    keys = ProfileKeys(d_max)
    h = connected_slices(keys, g_max)
    assert len(updates) == _distinct_joins(keys, h, g_max) == products


@pytest.mark.parametrize("d_max", [1, 7, 8, 15, 16])
def test_profile_keys_round_trip_at_width_boundaries(d_max):
    """Fields are d_max.bit_length() bits wide, so they widen at 8 and 16.
    Every profile packs and unpacks to itself, and a full field (d_max
    ones) does not spill into the field of part 2."""
    keys = ProfileKeys(d_max)
    for d in range(min(d_max, 12) + 1):
        for alpha in partitions(d):
            key = keys.pack(alpha)
            assert (keys.unpack(key), keys[key][:2]) == (alpha, (d, len(alpha)))
    for alpha in [(1,) * d_max, (d_max,)]:
        assert keys.unpack(keys.pack(alpha)) == alpha
    with pytest.raises(ValueError):
        keys.pack((1,) * (d_max + 1))


def test_table_is_exact_across_a_width_change(genus0_hurwitz):
    """d_max = 16 is the first table with 5-bit fields.  Its genus-0
    entries of degree 15 and 16 follow Hurwitz's formula, and its entries of
    degree <= 15 equal those of the 4-bit table of d_max = 15."""
    table = hurwitz_via_cutjoin(16, 1)
    assert table.value(0, (16,)) == 16**13
    mismatches = [
        alpha
        for d in (15, 16)
        for alpha in partitions(d)
        if table.value(0, alpha) != genus0_hurwitz(alpha)
    ]
    assert mismatches == []
    narrow = {key: v for key, v in table.entries.items() if sum(key[1]) <= 15}
    assert narrow == hurwitz_via_cutjoin(15, 1).entries


def test_single_answer_rejects_bad_input():
    with pytest.raises(ValueError):
        hurwitz_number(-1, (2,))
    with pytest.raises(ValueError):
        hurwitz_number(0, ())

"""Bracket evaluation: the validity gate, string/dilaton reduction, the
genus-0 closed form, and the weighted-sum formula for Hurwitz numbers."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitz.cutjoin import hurwitz_number
from hurwitz.hodge import (
    DegenerateProfileError,
    HodgeKey,
    HodgeTable,
    MissingPrimitiveError,
    PrimitiveConflictError,
    elsv_hurwitz,
    evaluate,
    validity_gate,
)
from hurwitz.partitions import multinomial, partitions


def test_gate_order():
    # instability masks any other reason, then lambda range, then dimension
    assert validity_gate(HodgeKey.make(0, (0,), 5)) == "zero_unstable"
    assert validity_gate(HodgeKey.make(1, (0, 1), 7)) == "zero_lambda_range"
    assert validity_gate(HodgeKey.make(1, (1, 1), 1)) == "zero_dimension"
    assert validity_gate(HodgeKey.make(1, (0, 2), 0)) == "valid"


def test_key_is_a_value_type():
    key = HodgeKey.make(2, (3, 0, 1), 1)
    fields = (2, (0, 1, 3), 1)
    assert key == fields and hash(key) == hash(fields)
    assert key == HodgeKey(2, (0, 1, 3), 1) and len(key.theta) == 3
    assert repr(key) == "HodgeKey(g=2, theta=(0, 1, 3), k=1)"
    assert str(key) == "<tau_0 tau_1 tau_3 lambda_1>_2"


def test_new_table_holds_exactly_the_base_values():
    table = HodgeTable()
    assert table.primitives == {
        (0, (0, 0, 0), 0): 1,
        (1, (1,), 0): Fraction(1, 24),
        (1, (0,), 1): Fraction(1, 24),
    }
    assert {rec["source"] for rec in table.to_json_records()} == {"base"}
    # each table owns its dicts: storing in one leaves the next one bare
    table.set_primitive(HodgeKey.make(2, (4,), 0), Fraction(1, 1152))
    assert len(HodgeTable().primitives) == 3


def test_base_values():
    table = HodgeTable()
    assert evaluate(HodgeKey.make(0, (0, 0, 0), 0), table) == 1
    assert evaluate(HodgeKey.make(1, (1,), 0), table) == Fraction(1, 24)
    assert evaluate(HodgeKey.make(1, (0,), 1), table) == Fraction(1, 24)


def test_genus0_multinomial_spot_values():
    table = HodgeTable()
    # n-point brackets need sum(theta) = n - 3; values are multinomials
    assert evaluate(HodgeKey.make(0, (0, 0, 0, 1), 0), table) == 1
    assert evaluate(HodgeKey.make(0, (0, 0, 0, 1, 1), 0), table) == 2
    assert evaluate(HodgeKey.make(0, (0, 0, 0, 0, 2), 0), table) == 1
    assert evaluate(HodgeKey.make(0, (0, 0, 0, 1, 1, 1), 0), table) == 6
    # dimension mismatch reads as zero
    assert evaluate(HodgeKey.make(0, (0, 0, 1, 1), 0), table) == 0


def test_genus0_string_route_equals_multinomial():
    """Pure string-equation recursion equals the multinomial closed form
    for every genus-0 bracket with n <= 8 points."""
    table = HodgeTable()
    for n in range(3, 9):
        for parts in partitions(n - 3):
            key = HodgeKey.make(0, (0,) * (n - len(parts)) + parts, 0)
            lhs = evaluate(key, table, genus0="string")
            rhs = evaluate(key, table, genus0="closed_form")
            assert lhs == rhs == multinomial(n - 3, key.theta), key


def test_genus1_reductions():
    table = HodgeTable()
    # <tau_0 tau_2>_1 = 1/24 by string from <tau_1>_1
    assert evaluate(HodgeKey.make(1, (0, 2), 0), table) == Fraction(1, 24)
    # dilaton: <tau_1 tau_1>_1 = (2-2+1) <tau_1>_1 = 1/24
    assert evaluate(HodgeKey.make(1, (1, 1), 0), table) == Fraction(1, 24)
    # lambda-decorated string chains down to <tau_0 lambda_1>_1
    assert evaluate(HodgeKey.make(1, (0, 0, 2), 1), table) == Fraction(1, 24)
    assert evaluate(HodgeKey.make(1, (0, 1, 1), 1), table) == Fraction(1, 12)


@st.composite
def valid_keys(draw):
    g = draw(st.integers(0, 3))
    n = draw(st.integers(max(1, 3 - 2 * g), 6))
    k = draw(st.integers(0, min(g, 3 * g - 3 + n)))
    theta, remaining = [], 3 * g - 3 + n - k
    for _ in range(n - 1):
        part = draw(st.integers(0, remaining))
        theta.append(part)
        remaining -= part
    theta.append(remaining)
    return HodgeKey.make(g, theta, k)


@given(key=valid_keys())
@settings(max_examples=50, deadline=None)
def test_reduction_order_independence(fitted, key):
    _, _, hodge = fitted
    a = evaluate(key, hodge, order="string_first")
    b = evaluate(key, hodge, order="dilaton_first")
    assert a == b, key


def test_missing_primitive_raises():
    table = HodgeTable()
    with pytest.raises(MissingPrimitiveError):
        evaluate(HodgeKey.make(2, (2,), 2), table)


def test_primitive_conflict_detected():
    table = HodgeTable()
    key = HodgeKey.make(2, (4,), 0)
    table.set_primitive(key, Fraction(1, 1152))
    table.set_primitive(key, Fraction(1, 1152))  # same value is fine
    with pytest.raises(PrimitiveConflictError):
        table.set_primitive(key, Fraction(1, 2))


def test_known_genus2_brackets(fitted):
    _, _, hodge = fitted
    assert evaluate(HodgeKey.make(2, (4,), 0), hodge) == Fraction(1, 1152)
    assert evaluate(HodgeKey.make(2, (3,), 1), hodge) == Fraction(1, 480)
    assert evaluate(HodgeKey.make(2, (2,), 2), hodge) == Fraction(7, 5760)


def test_elsv_rejects_short_genus0_profiles():
    with pytest.raises(DegenerateProfileError):
        elsv_hurwitz(0, (1, 1), HodgeTable())


def test_elsv_reproduces_cutjoin(deep_table, fitted):
    """Weighted-sum formula vs cut-and-join for every profile with d <= 5
    at g <= 2 (at least 3 parts at g = 0) and with d <= 8 at g = 3."""
    _, _, hodge = fitted
    for g, d_max in ((0, 5), (1, 5), (2, 5), (3, 8)):
        for d in range(1, d_max + 1):
            for alpha in partitions(d):
                if g == 0 and len(alpha) < 3:
                    continue
                got = elsv_hurwitz(g, alpha, hodge)
                assert got == deep_table.value(g, alpha), (g, alpha)


@pytest.mark.parametrize("alpha", [(1,) * 10, (1,) * 12, (1, 1, 2, 2, 3, 3, 4)])
def test_elsv_genus3_matches_hurwitz_number(fitted, alpha):
    """ELSV equals the single-answer cut-and-join at g = 3 on 7, 10 and 12
    parts."""
    _, _, hodge = fitted
    assert elsv_hurwitz(3, alpha, hodge) == hurwitz_number(3, alpha)


def test_hodge_json_records(fitted):
    _, _, hodge = fitted
    records = hodge.to_json_records()
    assert {rec["source"] for rec in records} == {"base", "fitted"}
    back = {
        HodgeKey.make(rec["g"], rec["theta"], rec["k"]): Fraction(rec["value"])
        for rec in records
    }
    assert back == hodge.primitives


def test_genus_one_without_points_is_unstable():
    # 2g - 2 + n = 0: unstable, whatever the lambda-index
    for k in (0, 1, 2):
        assert validity_gate(HodgeKey.make(1, (), k)) == "zero_unstable"
        assert evaluate(HodgeKey.make(1, (), k), HodgeTable()) == 0


@pytest.mark.parametrize("genus0", ["closed_form", "string"])
@pytest.mark.parametrize("order", ["string_first", "dilaton_first"])
@pytest.mark.parametrize(
    "g, theta, k",
    [
        (0, (1, 0, 0, 1, 0), 0),
        (0, (3, 0, 0, 1, 0, 0, 0), 0),
        (1, (2, 0, 1), 0),
        (1, (2, 0, 0, 1), 1),
    ],
)
def test_unsorted_key_evaluates_as_its_sorted_twin(genus0, order, g, theta, k):
    """`evaluate` sorts a key once, on entry, and every sub-key of its
    reduction stays sorted: an unsorted key has its sorted twin's value,
    and the memo, one map per route, holds sorted keys only."""
    unsorted, table = HodgeKey(g, theta, k), HodgeTable()
    value = evaluate(unsorted, table, genus0=genus0, order=order)
    assert value == evaluate(HodgeKey.make(g, theta, k), HodgeTable(), genus0=genus0, order=order)
    assert value != 0
    assert list(table._memo) == [(genus0, order)]
    assert all(list(key[1]) == sorted(key[1]) for key in table._memo[genus0, order])


@pytest.mark.parametrize(
    "route",
    [{"genus0": "closed-form"}, {"genus0": "String"}, {"order": "dilaton-first"}, {"order": ""}],
    ids=["closed-form", "String", "dilaton-first", "empty-order"],
)
def test_evaluate_refuses_an_unknown_route(route):
    """A misspelt route is refused on entry, not read as the other route;
    a genus-0 key with a misspelt closed form would otherwise go by string."""
    table = HodgeTable()
    with pytest.raises(ValueError, match="unknown evaluation route"):
        evaluate(HodgeKey.make(0, (0, 0, 0, 1, 1), 0), table, **route)
    assert table._memo == {}

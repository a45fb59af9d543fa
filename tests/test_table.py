"""The Hurwitz table container: its constructor forms, the `from_counts`
boundary every counting route builds through, its JSON layout, and the
Riemann-Hurwitz branch count.  No test here reads the oracle."""

import json
from fractions import Fraction

import pytest

from hurwitz.cutjoin import hurwitz_via_cutjoin
from hurwitz.partitions import Partition
from hurwitz.table import HurwitzTable, riemann_hurwitz_r


@pytest.fixture(scope="module")
def small_table():
    """Cut-and-join counts for d <= 5, g <= 3: several genera and degrees."""
    return hurwitz_via_cutjoin(5, 3)


def test_riemann_hurwitz_r():
    assert riemann_hurwitz_r(0, (1, 1, 1)) == 4
    assert riemann_hurwitz_r(1, (1, 1)) == 4
    assert riemann_hurwitz_r(0, (3,)) == 2


def test_table_json_roundtrip(small_table):
    records = small_table.to_json_records()
    assert records == sorted(
        records, key=lambda r: (r["g"], sum(r["alpha"]), tuple(r["alpha"]))
    )
    back = {(rec["g"], Partition(rec["alpha"])): Fraction(rec["value"]) for rec in records}
    assert back == small_table.entries


def test_table_json_is_the_indented_dump_of_its_records(small_table):
    """`to_json` writes the record layout itself, byte for byte what
    `json.dumps(..., indent=2)` writes."""
    one = HurwitzTable("one", {(1, Partition((2,))): Fraction(1, 2)})
    for table in [HurwitzTable("empty"), one, hurwitz_via_cutjoin(6, 2), small_table]:
        assert table.to_json() == json.dumps(table.to_json_records(), indent=2)


def test_table_constructor_forms():
    entries = {(0, Partition((1, 1))): Fraction(1, 2), (1, Partition((2,))): Fraction(1, 2)}
    table = HurwitzTable("given", entries)
    assert (table.method, table.entries) == ("given", entries)
    assert HurwitzTable("empty").entries == {}
    assert HurwitzTable("a").entries is not HurwitzTable("b").entries
    sub = table.restricted(r_max=2)
    assert (sub.method, sub.entries) == ("given", {(0, Partition((1, 1))): Fraction(1, 2)})


def test_table_validates_entries():
    """`from_counts` refuses a constant term, an odd or a negative 2g and a
    negative value; r = 2 on (1, 1) is genus 0."""
    for bad in [
        (0, Partition(()), Fraction(1)),  # constant term
        (3, Partition((1, 1)), Fraction(1)),  # 2g = 1
        (0, Partition((1, 1)), Fraction(1)),  # 2g = -2
    ]:
        with pytest.raises(AssertionError):
            HurwitzTable.from_counts("test", [bad], 3)
    with pytest.raises(ValueError, match="negative count"):
        HurwitzTable.from_counts("test", [(4, Partition((1, 1, 1)), Fraction(-4))], 3)
    table = HurwitzTable.from_counts("test", [(2, Partition((1, 1)), Fraction(1, 2))], 0)
    assert (table.method, table.entries) == ("test", {(0, (1, 1)): Fraction(1, 2)})


def test_from_counts_keeps_genus_up_to_g_max():
    # r = d + l + 2g - 2 on (2,): r = 1, 3, 5 are genus 0, 1, 2
    counts = [(r, Partition((2,)), Fraction(r)) for r in (1, 3, 5)]
    assert HurwitzTable.from_counts("test", counts, 1).entries == {
        (0, (2,)): Fraction(1),
        (1, (2,)): Fraction(3),
    }
    assert len(HurwitzTable.from_counts("test", counts, 2).entries) == 3

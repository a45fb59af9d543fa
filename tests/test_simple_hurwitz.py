"""Single-variable layer for profiles (1,...,1): Laurent-plus-log
expressions in W, the pinned displays, recurrences, and closed forms."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitz import golden
from hurwitz.cutjoin import hurwitz_via_cutjoin
from hurwitz.simple_hurwitz import (
    LogProductError,
    WExpr,
    a_series_coeff,
    closed_form_simple,
    differential_identity_wexpr,
    extract_coeff,
    family_wexprs,
    genus3_a_form,
    genus3_p_form,
    pinned,
    pole_form,
    search_recursions,
    verify_recurrence,
    wexpr_for,
    wexpr_from_ansatz,
    wexpr_to_xseries,
)
from hurwitz.algebra import lagrange_coeff
from hurwitz.partitions import Partition
from hurwitz.table import HurwitzTable


def F(a, b=1):
    return Fraction(a, b)


# -- WExpr arithmetic ----------------------------------------------------------


def test_wexpr_equality_drops_zeros():
    zero = WExpr({2: F(0)})
    assert (zero.den, zero.nums) == (1, {})
    assert WExpr({0: F(1)}) == WExpr.const(F(1))


def test_wexpr_product_of_logs_rejected():
    lg = WExpr({}, {0: F(1)})
    with pytest.raises(LogProductError):
        lg * lg


def test_apply_D_on_monomials():
    # D = W^2 (W - 1) d/dW sends W^j to j (W^(j+2) - W^(j+1))
    expr = WExpr({3: F(1)})
    assert expr.apply_D() == WExpr({5: F(3), 4: F(-3)})
    # and log W to W^2 - W
    assert WExpr({}, {0: F(1)}).apply_D() == WExpr({2: F(1), 1: F(-1)})


def test_apply_D_product_rule_on_log_terms():
    # W^2 log W -> 2(W^4 - W^3) log W + (W^4 - W^3)
    expr = WExpr({}, {2: F(1)})
    got = expr.apply_D()
    assert got.logpart == {4: F(2), 3: F(-2)}
    assert got.laurent == {4: F(1), 3: F(-1)}


rationals = st.builds(F, st.integers(-9, 9), st.integers(1, 9))


@st.composite
def laurent_exprs(draw, with_log=False):
    """A WExpr of up to four W^j terms, and up to four W^j log W terms
    when `with_log` is set."""

    def slot():
        return {draw(st.integers(-4, 6)): draw(rationals) for _ in range(draw(st.integers(0, 4)))}

    return WExpr(slot(), slot() if with_log else None)


@given(laurent_exprs(), laurent_exprs())
@settings(max_examples=50, deadline=None)
def test_wexpr_mul_matches_series(a, b):
    prod = a * b
    sa = wexpr_to_xseries(a, 8)
    sb = wexpr_to_xseries(b, 8)
    assert wexpr_to_xseries(prod, 8) == sa * sb


def assert_canonical(expr):
    assert expr.den > 0
    assert all(type(n) is int and n for n in expr.nums.values())
    assert math.gcd(expr.den, *expr.nums.values()) == 1


@given(st.lists(st.tuples(rationals, laurent_exprs(with_log=True)), max_size=4))
@settings(max_examples=80, deadline=None)
def test_wexpr_is_canonical_and_combination_sums_its_terms(pairs):
    expected = {}
    for c, e in pairs:
        assert_canonical(e)
        assert_canonical(e.apply_D())
        # the same expression built another way has the same fields
        for other in (
            WExpr(e.laurent, e.logpart),
            e.scale(F(7, 3)).scale(F(3, 7)),
            (e * WExpr.const(F(7, 3))) * WExpr.const(F(3, 7)),
        ):
            assert (other.den, other.nums) == (e.den, e.nums)
        for k, n in e.nums.items():
            expected[k] = expected.get(k, 0) + c * F(n, e.den)
    got = WExpr.combination(pairs)
    assert_canonical(got)
    assert {k: F(n, got.den) for k, n in got.nums.items()} == {
        k: v for k, v in expected.items() if v
    }


@given(laurent_exprs())
@settings(max_examples=80, deadline=None)
def test_extract_coeff_matches_series_route(expr):
    series = wexpr_to_xseries(expr, 10)
    for d in range(1, 11):
        assert extract_coeff(expr, d) == series.coeff({"x": d}), d


@given(laurent_exprs())
@settings(max_examples=40, deadline=None)
def test_apply_D_is_euler_operator(expr):
    # D corresponds to x d/dx on x-series
    derived = wexpr_to_xseries(expr.apply_D(), 9)
    assert derived == wexpr_to_xseries(expr, 9).euler("x")


@pytest.mark.parametrize("j", [-2, 0, 3])
def test_apply_D_is_euler_operator_on_log_terms(j):
    expr = WExpr({}, {j: F(1)})  # W^j log W
    assert wexpr_to_xseries(expr.apply_D(), 10) == wexpr_to_xseries(expr, 10).euler("x")


@pytest.mark.parametrize("g", [0, 1, 2, 3])
def test_laurent_and_logpart_are_the_two_slots_of_one_map(g):
    for n in range(g == 0, 7):
        e = wexpr_for(g, n)
        assert WExpr(e.laurent, e.logpart) == e, (g, n)
        assert set(e.nums) == {(0, j) for j in e.laurent} | {(1, j) for j in e.logpart}


def test_extract_coeff_reads_the_log_bearing_genus1_display():
    expr = wexpr_for(1, 0)
    assert not expr.is_log_free()
    series = wexpr_to_xseries(expr, 12)
    for d in range(1, 13):
        assert extract_coeff(expr, d) == series.coeff({"x": d}), d
    with pytest.raises(ValueError, match="log W"):
        extract_coeff(WExpr({}, {2: F(1)}), 3)  # W^2 log W


# -- pinned displays and their consequences --------------------------------------


def test_wexpr_for_rejects_bare_genus0():
    with pytest.raises(ValueError):
        wexpr_for(0, 0)


def test_pinned_displays_are_self_consistent():
    # each display (g, n) maps to (g, n+1) under D
    for (g, n), data in golden.PINNED_W_SERIES.items():
        expr = WExpr(data["laurent"], data["log"])
        assert wexpr_for(g, n) == expr
        assert wexpr_for(g, n + 1) == expr.apply_D()


def test_h3_quartic_factorization():
    # H~_3 = W^4 (W-1)^2 (8575 W^4 - 21840 W^3 + 19250 W^2 - 6696 W + 720)/725760
    quartic = WExpr({0: F(720), 1: F(-6696), 2: F(19250), 3: F(-21840), 4: F(8575)})
    shift = WExpr({1: F(1), 0: F(-1)})
    assert (quartic * shift * shift * WExpr({4: F(1)})).scale(
        F(1, 725760)
    ) == wexpr_for(3, 0)


def test_displays_match_table(deep_table):
    # [x^d] D^n H~_g = d^n H^g_{(1^d)} / (2d + 2g - 2)! for the pinned
    # pairs; the series route also covers the log-bearing H~_1 display
    for (g, n) in golden.PINNED_W_SERIES:
        series = wexpr_to_xseries(wexpr_for(g, n), 10)
        for d in range(1, 11):
            h = deep_table.value(g, Partition((1,) * d))
            lhs = series.coeff({"x": d})
            assert lhs == d**n * h / math.factorial(2 * d + 2 * g - 2), (g, n, d)


def test_fitted_forms_reproduce_displays(fitted):
    form2, form3, _ = fitted
    assert wexpr_from_ansatz(form2) == wexpr_for(2, 0)
    assert wexpr_from_ansatz(form3) == wexpr_for(3, 0)


# -- recurrences and identities ---------------------------------------------------


@pytest.mark.parametrize("name", sorted(golden.RECURRENCES))
def test_recurrences_hold(name, deep_table):
    spec = golden.RECURRENCES[name]
    d_top = 12 if name in ("genus0", "genus1") else 10
    result = verify_recurrence(spec, deep_table, range(2, d_top + 1))
    assert result["status"] == "pass", result["failures"]


# One coefficient of each recurrence, by the factors of its term, and its
# value in a deliberately broken copy.
_ONE_CONSTANT_CHANGED = {
    "genus0": ([(0, 2), (0, 2)], F(-1, 2), F(-1, 3)),
    "genus1": ([(0, 3), (0, 3)], F(-1, 24), F(-1, 23)),
    "genus2": ([(1, 2)], F(300), F(301)),
    "genus3": ([(2, 2)], F(99845, 588), F(99846, 588)),
    "genus3-geometric": (
        [(1, 1), (2, 1)],
        F(4 * -42109762821, 2553394515),
        F(4 * -42109762822, 2553394515),
    ),
}


def _broken_copy(name):
    """A copy of the recurrence's term list with one coefficient changed;
    the pinned list is left as it is."""
    factors, old, new = _ONE_CONSTANT_CHANGED[name]
    terms = [dict(term) for term in golden.RECURRENCES[name]]
    (term,) = [term for term in terms if term["factors"] == factors]
    assert term["coeff"] == old, name
    term["coeff"] = new
    return terms


@pytest.mark.parametrize("name", sorted(golden.RECURRENCES))
def test_recurrence_is_an_identity_in_w(name):
    """Each recurrence holds at every d, not only at the degrees a table
    reaches: its identity is 0 in W, and the broken copy is not."""
    assert differential_identity_wexpr(golden.RECURRENCES[name]).is_zero()
    assert not differential_identity_wexpr(_broken_copy(name)).is_zero()


@pytest.mark.parametrize("name", sorted(golden.RECURRENCES))
def test_recurrence_with_one_constant_changed_fails(name, deep_table):
    """A recurrence cannot pass vacuously: with one of its constants
    changed, some degree must fail."""
    assert set(_ONE_CONSTANT_CHANGED) == set(golden.RECURRENCES)
    d_range = range(2, 11)
    result = verify_recurrence(_broken_copy(name), deep_table, d_range)
    assert list(result) == ["status", "failures"]
    assert result["status"] == "fail"
    failing = [f["d"] for f in result["failures"]]
    assert failing and set(failing) <= set(d_range)
    assert all(Fraction(f["residual"]) != 0 for f in result["failures"])


@pytest.mark.parametrize(
    "d_range", [range(1, 4), range(0, 3), range(2, 2)], ids=["from-1", "from-0", "empty"]
)
def test_recurrence_check_refuses_degrees_below_2(d_range, deep_table):
    # a recurrence is read as its identity's [x^d] residual, which divides
    # by no d^2 - d, so d = 1 is checked like any other degree; a range
    # reaching d = 0, or an empty one, is refused
    genus0 = golden.RECURRENCES["genus0"]
    if d_range.start == 1:
        assert verify_recurrence(genus0, deep_table, d_range)["status"] == "pass"
        return
    with pytest.raises(ValueError, match="d >= 1"):
        verify_recurrence(genus0, deep_table, d_range)


def _residuals(terms, table, d_range):
    """The failures of `verify_recurrence` as {d: residual}."""
    result = verify_recurrence(terms, table, d_range)
    return {f["d"]: Fraction(f["residual"]) for f in result["failures"]}


@pytest.mark.parametrize("name", sorted(golden.DIFFERENTIAL_IDENTITIES))
def test_differential_identities(name, deep_table):
    terms = golden.DIFFERENTIAL_IDENTITIES[name]
    assert differential_identity_wexpr(terms).is_zero()
    assert verify_recurrence(terms, deep_table, range(1, 11)) == {"status": "pass", "failures": []}


def test_family_term_numeric_translation(deep_table):
    # [x^d] of a product of D^p H~_g factors = convolution of the factors'
    # numeric translations; spot-check one two-factor term both ways
    descriptor = {"factors": [(0, 2), (1, 1)]}
    expr = family_wexprs([descriptor])[0]
    for d in range(1, 9):
        direct = extract_coeff(expr, d)
        conv = Fraction(0)
        for i in range(1, d):
            j = d - i
            conv += (
                i**2
                * deep_table.value(0, Partition((1,) * i))
                / math.factorial(2 * i - 2)
                * j
                * deep_table.value(1, Partition((1,) * j))
                / math.factorial(2 * j)
            )
        assert direct == conv, d


def test_search_family_nullity(deep_table):
    result = search_recursions(golden.SEARCH_FAMILY_26, deep_table, d_verify=10)
    assert result["dimension"] == golden.SEARCH_FAMILY_26_NULLITY == 11
    assert result["numeric_failures"] == []


def test_search_on_trivially_dependent_family(deep_table):
    # duplicated term: null space is exactly the difference vector's line
    family = [{"factors": [(1, 1)]}, {"factors": [(1, 1)]}]
    result = search_recursions(family, deep_table, d_verify=10)
    assert result["numeric_failures"] == []
    assert result["dimension"] == 1
    vec = result["basis"][0]
    assert vec[0] == -vec[1] != 0


@pytest.mark.parametrize(
    "factors",
    [[(0, 2), (0, 2), (1, 1)], [(0, 3), (1, 1), (0, 2)], [(1, 1), (0, 4), (1, 1)]],
    ids=str,
)
def test_three_factor_products_match_lagrange_route(factors, deep_table):
    # a one-term identity's residual is the term's [x^d] itself, so the
    # convolved table columns must equal the W-expression's Lagrange extraction;
    # D^p H~_g starts at x^1 in genus 0 and at x^2 above (H^g_{(1)} = 0)
    term = {"coeff": 1, "factors": factors}
    residuals = _residuals([term], deep_table, range(1, 13))
    lowest = sum(1 if g == 0 else 2 for g, _ in factors)
    assert set(residuals) == set(range(lowest, 13))
    for d in range(1, 13):
        assert residuals.get(d, 0) == extract_coeff(family_wexprs([term])[0], d), d


def _with_changed_entry(table, g, d):
    entries = dict(table.entries)
    entries[(g, Partition((1,) * d))] += 1
    return HurwitzTable("changed", entries)


def test_changed_entry_fails_identity_and_search(deep_table):
    """The term lists are shared across degrees and basis vectors; a wrong
    H^2_{(1^7)} must still fail first at d = 7, and only there for the
    linear genus-2 identity."""
    terms = golden.DIFFERENTIAL_IDENTITIES["genus2-linear"]
    family = golden.SEARCH_FAMILY_26
    changed = _with_changed_entry(deep_table, 2, 7)
    assert set(_residuals(terms, changed, range(1, 11))) == {7}
    failing = {f["d"] for f in search_recursions(family, changed, d_verify=10)["numeric_failures"]}
    assert min(failing) == 7
    assert _residuals(terms, deep_table, range(1, 11)) == {}
    assert search_recursions(family, deep_table, d_verify=10)["numeric_failures"] == []


@pytest.fixture(scope="module")
def table_to_4():
    return hurwitz_via_cutjoin(4, 3)


def test_identity_check_refuses_degrees_the_table_lacks(table_to_4):
    # D H~_1 = 0 is false; with degrees 5..11 missing it used to read 0 = 0
    false_identity = [{"coeff": 1, "factors": [(1, 1)]}]
    assert _residuals(false_identity, table_to_4, range(1, 5))
    with pytest.raises(ValueError, match="lacks"):
        verify_recurrence(false_identity, table_to_4, range(5, 12))
    with pytest.raises(ValueError, match="lacks"):
        verify_recurrence(golden.RECURRENCES["genus2"], table_to_4, range(2, 20))
    with pytest.raises(ValueError, match="lacks"):
        search_recursions(golden.SEARCH_FAMILY_26, table_to_4, d_verify=10)


@pytest.mark.parametrize("d_range", [range(1, 1), range(0, 3)], ids=["empty", "from-0"])
def test_identity_check_refuses_vacuous_ranges(d_range, deep_table):
    terms = golden.DIFFERENTIAL_IDENTITIES["genus1-square"]
    with pytest.raises(ValueError, match="d >= 1"):
        verify_recurrence(terms, deep_table, d_range)


@pytest.mark.parametrize("d_verify", [0, -1])
def test_search_refuses_vacuous_verification(d_verify, deep_table):
    with pytest.raises(ValueError, match="d_verify >= 1"):
        search_recursions(golden.SEARCH_FAMILY_26, deep_table, d_verify=d_verify)


def test_search_refuses_a_degree_range_where_every_member_is_0(deep_table):
    """No member of the 26-term family has a nonzero [x^1]: H^g_(1) = 0 for
    g >= 1, and a product of two factors starts at x^2.  At d_verify = 1 the
    re-check of every null vector would compare only zeros."""
    with pytest.raises(ValueError, match="every member is 0 for d <= 1"):
        search_recursions(golden.SEARCH_FAMILY_26, deep_table, d_verify=1)
    assert search_recursions(golden.SEARCH_FAMILY_26, deep_table, d_verify=2)["dimension"] == 11


@pytest.fixture
def lookups(monkeypatch):
    """Counts HurwitzTable.value calls made while the test runs."""
    calls = []
    value = HurwitzTable.value

    def counting(self, g, alpha):
        calls.append((g, alpha))
        return value(self, g, alpha)

    monkeypatch.setattr(HurwitzTable, "value", counting)
    return calls


def test_search_reads_each_column_once(lookups, deep_table):
    # four genera to degree 10; recomputing each [x^d] from the table took 6194
    search_recursions(golden.SEARCH_FAMILY_26, deep_table, d_verify=10)
    assert len(lookups) <= 4 * 10


@pytest.mark.parametrize("name", sorted(golden.DIFFERENTIAL_IDENTITIES))
def test_identity_reads_each_column_once(name, lookups, deep_table):
    terms = golden.DIFFERENTIAL_IDENTITIES[name]
    genera = {g for term in terms for g, _ in term["factors"]}
    verify_recurrence(terms, deep_table, range(1, 11))
    assert len(lookups) <= len(genera) * 10


@pytest.mark.parametrize("name", sorted(golden.RECURRENCES))
def test_recurrence_reads_each_column_once(name, lookups, deep_table):
    verify_recurrence(golden.RECURRENCES[name], deep_table, range(2, 11))
    assert len(lookups) <= len({g for g, _ in lookups}) * 10


# -- closed forms ------------------------------------------------------------------


def test_closed_forms_match_table(deep_table):
    for g in range(0, 4):
        for d in range(1, 13):
            assert closed_form_simple(g, d) == deep_table.value(g, Partition((1,) * d)), (g, d)


def test_genus3_a_and_p_forms(deep_table):
    for d in range(1, 9):
        h = deep_table.value(3, Partition((1,) * d))
        assert genus3_a_form(d) == h, d
        assert genus3_p_form(d) == h, d


def test_pole_form_extracts_as_the_lagrange_double_sum():
    """[x^d] w^m W^r read through the W-expression of `pole_form` equals
    the double sum of `lagrange_coeff`: a second route to its m > 0 branch,
    which no verify suite reaches beyond m = 1."""
    for m in range(7):
        for r in range(9):
            expr = pole_form([((m, r), 1)])
            for d in range(1, 13):
                assert extract_coeff(expr, d) == lagrange_coeff(m, r, d), (m, r, d)


def test_pole_form_sums_its_terms():
    # w W = W - 1, and each pinned pole form is the pinned display
    assert pole_form([((1, 1), 1)]) == WExpr({1: F(1), 0: F(-1)})
    assert pole_form([((1, 1), F(1, 2)), ((0, 0), F(1, 2))]) == WExpr({1: F(1, 2)})
    assert pole_form([]) == WExpr({})
    for g, coeffs in golden.POLE_FORM_COEFFS.items():
        assert pole_form(coeffs.items()) == pinned(g, 0), g


def test_a_series_is_lagrange_column():
    for k in range(1, 11):
        for d in range(1, 13):
            assert a_series_coeff(k, d) == lagrange_coeff(0, k, d), (k, d)


def test_spot_values(deep_table):
    for (g, d), value in golden.SPOT_VALUES.items():
        assert deep_table.value(g, Partition((1,) * d)) == value


@pytest.mark.parametrize(
    "family",
    [golden.SEARCH_FAMILY_26, *golden.DIFFERENTIAL_IDENTITIES.values()],
    ids=["search-family-26", *sorted(golden.DIFFERENTIAL_IDENTITIES)],
)
def test_family_wexprs_build_each_factor_once(family, monkeypatch):
    """Each member equals the product of its factors as `wexpr_for` builds
    them, and D is applied once per D^p H~_g up to each genus's highest p,
    counting from the bases H~_g (g >= 1) and D H~_0."""
    expected = []
    for term in family:
        product = WExpr.const(1)
        for g, p in term["factors"]:
            product = product * wexpr_for(g, p)
        expected.append(product)
    applied = []
    real = WExpr.apply_D
    monkeypatch.setattr(WExpr, "apply_D", lambda self: applied.append(1) or real(self))
    assert family_wexprs(family) == expected
    top: dict[int, int] = {}
    for term in family:
        for g, p in term["factors"]:
            top[g] = max(top.get(g, 0), p)
    assert len(applied) == sum(p - (g == 0) for g, p in top.items())
    monkeypatch.undo()
    assert [family_wexprs([term])[0] for term in family] == expected


def test_family_wexprs_refuses_an_unpinned_genus_at_any_order():
    # the walk down to the base is a loop, so a high order reaches the
    # refusal instead of the recursion limit
    with pytest.raises(ValueError, match="g <= 3"):
        family_wexprs([{"factors": [(9, 5000)]}])

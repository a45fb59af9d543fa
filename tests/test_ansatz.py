"""Generating-series layer: the t -> phi substitution, the assembled
G_g potentials, the pole-form fits, and the structural verifiers."""

import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hurwitz import ansatz
from hurwitz.algebra import ExactSeries, SeriesRing
from hurwitz.ansatz import (
    AnsatzForm,
    TContext,
    XpContext,
    assemble_G,
    check_fit_size,
    compare_series,
    extract_weight_slice,
    fit_constants,
    fit_rows,
    hurwitz_series,
    pair_correction_series,
    pole_basis_rows,
    pole_basis_series,
    verify_change_theorem,
    verify_delta_annihilation,
    verify_euler_square,
    verify_genus_expansion,
    verify_phi_shift_expansion,
    verify_xi_on_I,
    xi_substitute,
)
from hurwitz.cutjoin import hurwitz_via_cutjoin
from hurwitz.hodge import HodgeTable, evaluate
from hurwitz.linalg import InconsistentSystemError
from hurwitz.partitions import Partition, aut_count, partitions, primitive_thetas
from hurwitz.table import HurwitzTable


def test_phi_zero_is_tree_weighted():
    # [x^n p_n] phi_0 = n^n / n!
    ctx = XpContext(5)
    phi0 = ctx.phi_x(0)
    assert phi0.coeff({"x": 1, "p_1": 1}) == 1
    assert phi0.coeff({"x": 3, "p_3": 1}) == Fraction(27, 6)


def test_s_fixpoint_property():
    # s = x exp(phi_0(s, p)); spot-check via the defining equation
    ctx = XpContext(6)
    assert ctx.s_powers()[1] == ctx.ring.var("x") * ctx.phi_s(0).exp()


def full_ring_fixpoint(functional, ring, max_grade):
    """Iterate from 0 with every iteration in the full ring: the reference
    for the solver's lowered-cap iterations."""
    cur = ring.const(0)
    for _ in range(max_grade):
        cur = functional(cur)
    assert functional(cur) == cur
    return cur


def test_fixed_points_match_full_ring_iteration():
    xp, n, phi = XpContext(7), 7, ansatz._phi
    s = full_ring_fixpoint(
        lambda v: xp.ring.var("x") * phi(xp.ring, 0, ansatz._p_times(xp.ring, v.powers(n))).exp(),
        xp.ring,
        n,
    )
    assert xp.s_powers()[1] == s
    t = TContext(6, 6)
    i0 = full_ring_fixpoint(lambda v: ansatz._descend(t.ring, 0, v.powers(6)), t.ring, 6)
    assert t.I(0) == i0


def _reference_xi(t_series, ctx):
    """t_k -> phi_k(x, p) one monomial at a time: the constant times one
    phi_x(k) per unit of each exponent, summed term by term."""
    indices = t_series.ring.varset.indices
    total = ctx.ring.const(0)
    for exps, coeff in t_series.terms.items():
        term = ctx.ring.const(coeff)
        for pos, a in enumerate(exps):
            for _ in range(a):
                term = term * ctx.phi_x(indices[pos])
        total = total + term
    return total


# t_0..t_4 up to t-degree 6 against x-degree 4: degrees 5 and 6 map to 0
_T_RING = TContext(4, 6).ring
_t_series = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 5).filter(lambda e: sum(e) <= 6),
    st.fractions(max_denominator=50),
    max_size=12,
).map(lambda terms: ExactSeries.from_ratios(
    _T_RING, [(e, c.numerator, c.denominator) for e, c in terms.items()]
))


@given(_t_series, _t_series)
@example(_T_RING.const(0), _T_RING.monomial({"t_4": 5}, 1))
@settings(max_examples=40, deadline=None)
def test_xi_substitute_matches_per_monomial_products(a, b):
    # one context for both series, so the second reuses the first's products
    ctx = XpContext(4)
    assert xi_substitute(a, ctx) == _reference_xi(a, ctx)
    assert xi_substitute(b, ctx) == _reference_xi(b, ctx)
    assert xi_substitute(a + b, ctx) == _reference_xi(a + b, ctx)


# t_0..t_9 up to t-degree 8 against x-degree 8: the size of G_2's rings
_G2_T_RING = TContext(9, 8).ring
_g2_t_series = st.dictionaries(
    st.lists(st.integers(0, 9), max_size=8).map(_G2_T_RING.varset.theta_exps),
    st.fractions(max_denominator=50),
    max_size=10,
).map(lambda terms: ExactSeries.from_ratios(
    _G2_T_RING, [(e, c.numerator, c.denominator) for e, c in terms.items()]
))


@given(_g2_t_series)
@settings(max_examples=15, deadline=None)
def test_xi_substitute_matches_per_monomial_products_at_g2_size(a):
    assert xi_substitute(a, XpContext(8)) == _reference_xi(a, XpContext(8))


def test_xi_image_of_G2_matches_per_monomial_products(fitted):
    _, _, hodge = fitted
    G = assemble_G(2, hodge, TContext(11, 8))
    assert len(G.nums) == 362
    assert xi_substitute(G, XpContext(8)) == _reference_xi(G, XpContext(8))


def test_xi_substitute_forms_no_series_product(fitted, monkeypatch):
    _, _, hodge = fitted
    G = assemble_G(2, hodge, TContext(11, 8))
    calls, real = [], SeriesRing._product

    def spy(ring, a, b):
        calls.append(1)
        return real(ring, a, b)

    monkeypatch.setattr(SeriesRing, "_product", spy)
    image = xi_substitute(G, XpContext(8))
    assert calls == [] and len(image.nums) > 0


def test_one_context_builds_one_profile_codec(monkeypatch):
    """Repeated substitutions into one `XpContext`, from two t-rings, share
    the context's one `ProfileKeys`, and still match the reference."""
    built, real = [], ansatz.ProfileKeys

    def spy(d_max):
        built.append(d_max)
        return real(d_max)

    monkeypatch.setattr(ansatz, "ProfileKeys", spy)
    ctx = XpContext(5)
    series = [TContext(4, 5).I(0), TContext(3, 4).I(1), TContext(4, 5).I(2)]
    for t_series in series + series:
        assert xi_substitute(t_series, ctx) == _reference_xi(t_series, ctx)
    assert built == [5]


def _phi_by_products(ring, k, z_pows):
    """phi_k(z, p) as a sum of full products, the one-term series
    n^(n+k)/n! p_n times z^n."""
    encode = ring.varset.profile_exps
    return ring.sum(
        ExactSeries.from_ratios(
            ring, [(encode((n,), d=0), n ** max(n + k, 0), math.factorial(n) * n ** max(-n - k, 0))]
        )
        * z_pows[n]
        for n in range(1, len(z_pows))
    )


@pytest.mark.parametrize("z", ["x", "s"])
def test_shifted_phi_matches_the_product_route(z):
    ctx = XpContext(7)
    z_pows = ctx.ring.var("x").powers(7) if z == "x" else ctx.s_powers()
    phi = ctx.phi_x if z == "x" else ctx.phi_s
    for k in range(-3, 6):
        reference = _phi_by_products(ctx.ring, k, z_pows)
        assert phi(k) == ansatz._phi(ctx.ring, k, ansatz._p_times(ctx.ring, z_pows)) == reference, k


def test_phi_shift_expansion_forms_each_phi0_s_power_once(monkeypatch):
    """Past the first check, each of the genus-expansion suite's five
    checks forms only its d_max + 1 products phi_{k+m}(x) phi_0(s)^m: the
    d_max - 1 powers past phi_0(s) come from the context."""
    d, ctx = 7, XpContext(7)
    ctx.phi_s(0)
    ctx.phi_x(0)  # the powers of s and of x are products too: build them first
    products, real = [], ExactSeries.__mul__

    def spy(a, b):
        products[-1] += 1
        return real(a, b)

    monkeypatch.setattr(ExactSeries, "__mul__", spy)
    for k in range(5):
        products.append(0)
        assert verify_phi_shift_expansion(k, ctx)["status"] == "pass"
    assert products == [2 * d] + [d + 1] * 4


@pytest.mark.parametrize("g", (2, 3))
def test_pole_basis_is_the_plain_factor_chain(g):
    for ctx in (XpContext(2 * g + 2), TContext(3 * g + 2, 5)):
        for theta, e, _, series in pole_basis_series(g, ctx):
            plain = (ctx.ring.one() - ctx.F(1)).inverse().powers(e)[e]
            plain = plain.scale(Fraction(1, aut_count(theta)))
            for part in theta:
                plain = plain * ctx.F(part)
            assert series == plain, theta


@given(st.integers(0, 4))
@settings(max_examples=5, deadline=None)
def test_xi_on_I(k):
    report = verify_xi_on_I(k, XpContext(7), TContext(k + 7, 7))
    assert report["status"] == "pass", report.get("first_mismatch")


def test_xi_on_I_fails_in_too_small_a_t_ring():
    # I_3 up to t-degree 7 needs t_3..t_9; t_0..t_8 drops t_9's terms
    assert verify_xi_on_I(3, XpContext(7), TContext(9, 7))["status"] == "pass"
    report = verify_xi_on_I(3, XpContext(7), TContext(8, 7))
    assert report["status"] == "fail"


@given(st.integers(0, 4))
@settings(max_examples=5, deadline=None)
def test_phi_shift_expansion(k):
    report = verify_phi_shift_expansion(k, XpContext(7))
    assert report["status"] == "pass", report.get("first_mismatch")


def test_euler_square(deep_table):
    assert verify_euler_square(deep_table, XpContext(8))["status"] == "pass"


def test_change_theorem_all_genera(deep_table, fitted):
    _, _, hodge = fitted
    ctx = XpContext(8)
    for g in (0, 1, 2):
        report = verify_change_theorem(g, deep_table, hodge, ctx)
        assert report["status"] == "pass", (g, report.get("first_mismatch"))


# sha256 of repr((den, sorted (exponent vector, numerator) pairs)) of G_g
# in TContext(3g - 3 + 8, 8), with the fitted g = 2 and g = 3 primitives
G_SHA256 = {
    0: "83cd98470b31fbf85f04bce6f8a2398437cec0da504f30374c9fd2811575a2e7",
    1: "54bf61059c06d5952fb3f811de5d8527dea627bafb6c8e2d187a7c5412060bd1",
    2: "371c2d86910e429ab31d79e6127000409823f600ad20b32db2b8d0d3818b49fe",
    3: "deaa1d050981c513ef4e0bc979fd71834cbb6f40d8069cc93a939ccf41cd1b1a",
}


@pytest.mark.parametrize("g", sorted(G_SHA256))
def test_assembled_brackets_agree_on_every_route(fitted, monkeypatch, g):
    """Every bracket that `assemble_G` reads at t-degree <= 8 and subscripts
    <= 3g - 3 + 8 has one value on all four routes (genus-0 closed form or
    string, string or dilaton first), each reduced in a table of its own,
    and G_g is exactly the recorded series."""
    _, _, hodge = fitted
    keys, real = [], ansatz.evaluate

    def reading(key, table):
        keys.append(key)
        return real(key, table)

    monkeypatch.setattr(ansatz, "evaluate", reading)
    G = assemble_G(g, hodge, TContext(3 * g - 3 + 8, 8))
    assert len(keys) == len(set(keys)) >= len(G.nums) > 0
    values = set()
    for genus0 in ("closed_form", "string"):
        for order in ("string_first", "dilaton_first"):
            table = HodgeTable()
            for key, value in hodge.primitives.items():
                table.set_primitive(key, value)
            values.add(tuple(evaluate(key, table, genus0=genus0, order=order) for key in keys))
    assert len(values) == 1
    items = sorted((G.ring.exps(k), n) for k, n in G.nums.items())
    assert hashlib.sha256(repr((G.den, items)).encode()).hexdigest() == G_SHA256[g]


def test_pair_correction_is_symmetric_quadratic():
    ctx = XpContext(4)
    series = pair_correction_series(ctx)
    # i = j = 1 term: (1!/(0!0!)) * 1 * 1 / (2 * 2!) = 1/4
    assert series.coeff({"x": 2, "p_1": 2}) == Fraction(1, 4)
    # i, j = 1, 2 appears twice: 2 * (2!/0!1!) * 1 * 2 / (2 * 3!) = 4/6
    assert series.coeff({"x": 3, "p_1": 1, "p_2": 1}) == Fraction(2, 3)


def test_fit_reproduces_known_genus2_constants(fitted):
    form2, _, _ = fitted
    assert form2.constants[(2,)] == Fraction(7, 5760)
    assert form2.constants[(3,)] == Fraction(-1, 480)
    assert form2.constants[(4,)] == Fraction(1, 1152)
    assert form2.constants[(2, 2)] == Fraction(-5, 576)
    assert form2.constants[(2, 3)] == Fraction(29, 5760)
    assert form2.constants[(2, 2, 2)] == Fraction(7, 240)


def test_fit_writes_primitives_with_sign(fitted):
    _, _, hodge = fitted
    from hurwitz.hodge import HodgeKey

    # K_theta = (-1)^k <tau_theta lambda_k>: odd k flips the sign
    assert hodge.primitives[HodgeKey.make(2, (3,), 1)] == Fraction(1, 480)
    assert hodge.primitives[HodgeKey.make(2, (2,), 2)] == Fraction(7, 5760)


def test_fit_is_overdetermined_and_consistent(deep_table):
    # rank 6 with >= 10 surplus rows must already hold at d_fit = 6
    hodge = HodgeTable()
    form = fit_constants(2, deep_table, 6, hodge)
    assert len(form.constants) == 6


@pytest.mark.parametrize("g, count", [(2, 29), (3, 66), (4, 138)])
def test_fit_rows_are_the_monomials_its_series_hold(g, count):
    """The rows, counted before any series is built, are the encoded
    profiles of degree <= d_fit: exactly the monomials that the Hurwitz
    series and the pole basis hold between them."""
    d_fit = 2 * g + 2
    ctx = XpContext(d_fit)
    monomials = set(hurwitz_series(hurwitz_via_cutjoin(d_fit, g), g, ctx).terms)
    for _, _, _, series in pole_basis_series(g, ctx):
        monomials.update(series.terms)
    rows = fit_rows(g, d_fit)
    assert rows == sorted(monomials) and len(rows) == count
    encode = ctx.ring.varset.profile_exps
    assert rows == sorted(encode(a) for d in range(1, d_fit + 1) for a in partitions(d))


@pytest.mark.parametrize("g", [2, 3, 4])
def test_pole_basis_rows_are_the_series_columns(g):
    """Every integer entry, read back over D_alpha Aut theta, is the
    coefficient that `pole_basis_series` forms by series products in the
    (x, p) ring, zeros included: the closed form is the whole column."""
    d_fit = 2 * g + 2
    rows = fit_rows(g, d_fit)
    ctx = XpContext(d_fit)
    scales = []
    for exps in rows:
        alpha = ctx.ring.varset.profile(exps)[2]
        weights = (Fraction(math.factorial(a), a**a) for a in alpha)
        scales.append(aut_count(alpha) * math.prod(weights))
    table = pole_basis_rows(g, rows)
    assert len(table) == len(rows) and {len(row) for row in table} == {len(primitive_thetas(g))}
    for i, (theta, _, _, series) in enumerate(pole_basis_series(g, ctx)):
        read = {e: row[i] / (f * aut_count(theta)) for e, row, f in zip(rows, table, scales)}
        assert {e: v for e, v in read.items() if v} == series.terms, theta


def test_fit_forms_no_series_product_and_no_xp_ring(deep_table, fitted, monkeypatch):
    """The fit's columns come from integer kernels alone: no `XpContext`,
    no series product, and the same constants as the g = 3 fixture."""
    calls = []

    def spy(name, real):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(ExactSeries, "__mul__", spy("mul", ExactSeries.__mul__))
    monkeypatch.setattr(SeriesRing, "_product", spy("product", SeriesRing._product))
    monkeypatch.setattr(XpContext, "__init__", spy("XpContext", XpContext.__init__))
    form = fit_constants(3, deep_table, 8, HodgeTable())
    assert calls == [] and form.constants == fitted[1].constants


def test_fit_detects_corrupted_data(deep_table):
    bad = HurwitzTable("corrupt", dict(deep_table.entries))
    key = (2, Partition((1, 1, 1, 1, 1, 1)))
    assert key in bad.entries
    bad.entries[key] = bad.entries[key] + 1
    with pytest.raises(InconsistentSystemError):
        fit_constants(2, bad, 6, HodgeTable())


@pytest.mark.parametrize("g", range(2, 8))
def test_fit_size_is_counted_as_enumeration_would(g):
    """The refusal's counts, made without enumerating, are the number of
    profiles of degree <= d_fit and the number of `primitive_thetas(g)`."""
    rows = sum(1 for d in range(1, 4) for _ in partitions(d))
    with pytest.raises(ValueError, match=f"^only {rows} equations for {len(primitive_thetas(g))} "):
        check_fit_size(g, 3)


def block_spy(monkeypatch):
    """The (rows, unknowns) shape of each block that `fit_constants` solves."""
    shapes = []

    def spy(rows, rhs, real=ansatz.solve_exact):
        shapes.append((len(rows), len(rows[0])))
        return real(rows, rhs)

    monkeypatch.setattr(ansatz, "solve_exact", spy)
    return shapes


def test_fit_solves_one_block_per_part_count(deep_table, fitted, monkeypatch):
    """At g = 3 (d_fit = 8) the rows with l parts fix the theta of length l:
    every row lands in exactly one block, every block has a spare row, and
    the blocks with l > 3g - 3 = 6 have no unknown."""
    shapes = block_spy(monkeypatch)
    form = fit_constants(3, deep_table, 8, HodgeTable())
    assert form.constants == fitted[1].constants
    assert shapes == [(8, 4), (16, 8), (16, 7), (12, 4), (7, 2), (4, 1), (2, 0), (1, 0)]
    assert sum(r for r, _ in shapes) == len(fit_rows(3, 8))
    assert sum(n for _, n in shapes) == len(primitive_thetas(3))


@pytest.mark.parametrize("l", range(1, 9))
def test_every_fit_block_catches_a_raised_entry(deep_table, monkeypatch, l):
    """Raising H^3 at (1^(l-1), 9 - l), a row only block l reads, makes that
    block's spare rows contradict each other, before any later block."""
    bad = HurwitzTable("corrupt", dict(deep_table.entries))
    key = (3, Partition((1,) * (l - 1) + (9 - l,)))
    bad.entries[key] += 1
    shapes = block_spy(monkeypatch)
    with pytest.raises(InconsistentSystemError):
        fit_constants(3, bad, 8, HodgeTable())
    assert len(shapes) == l


def test_genus_expansion_reports(fitted):
    form2, _, hodge = fitted
    for report in verify_genus_expansion(2, form2, hodge):
        assert report["status"] == "pass", (report["check"], report.get("first_mismatch"))


def test_delta_annihilation(fitted):
    _, _, hodge = fitted
    assert verify_delta_annihilation(1, hodge)["status"] == "pass"
    assert verify_delta_annihilation(2, hodge)["status"] == "pass"


def test_ansatz_series_equals_hurwitz_series(deep_table, fitted):
    form2, _, _ = fitted
    ctx = XpContext(6)
    lhs = ctx.ring.combination(
        (form2.constants[theta], series) for theta, _, _, series in pole_basis_series(2, ctx)
    )
    rhs = hurwitz_series(deep_table, 2, ctx)
    assert lhs == rhs


def test_pole_basis_count_matches_unknowns():
    for ctx in (XpContext(4), TContext(5, 3)):
        assert len(pole_basis_series(2, ctx)) == 6
        assert len(pole_basis_series(3, ctx)) == 26


@pytest.mark.parametrize("ctx", [XpContext(5), TContext(6, 4)], ids=["xp", "t"])
def test_inv_pole_power_inverts_one_minus_F1(ctx):
    one_minus = ctx.ring.one() - ctx.F(1)
    for e in range(4):
        assert ctx.inv_pole_power(e) * one_minus.powers(e)[e] == ctx.ring.one()
    assert ctx.inv_pole_power(3) is ctx.inv_pole_power(3)  # built once


def test_weight_slice_partition():
    # weight grading slices a G-polynomial into disjoint pieces that sum
    # back; lambda-decorated terms sit at negative weight
    tctx = TContext(5, 4)
    hodge = HodgeTable()
    G = assemble_G(1, hodge, tctx)
    total = tctx.ring.const(0)
    for w in range(-6, 7):
        total = total + extract_weight_slice(G, w)
    assert total == G
    assert extract_weight_slice(G, -1) != tctx.ring.const(0)


def test_form_json_roundtrip(fitted):
    form2, _, _ = fitted
    obj = form2.to_json_obj()
    back = {tuple(rec["theta"]): Fraction(rec["K"]) for rec in obj["constants"]}
    assert obj["g"] == 2
    assert back == {tuple(theta): value for theta, value in form2.constants.items()}


def test_compare_series_reports_first_mismatch():
    ctx = XpContext(3)
    x = ctx.ring.var("x")
    record = compare_series(x, x + ctx.ring.monomial({"x": 2}, 1), "probe", {"x_max": 3})
    assert record == {
        "check": "probe",
        "truncation": {"x_max": 3},
        "status": "fail",
        "first_mismatch": {"monomial": {"x": 2}, "lhs": "0/1", "rhs": "1/1"},
        "compared": 2,
    }
    assert list(record) == ["check", "truncation", "status", "first_mismatch", "compared"]


def test_report_and_form_constructor_forms():
    x = XpContext(3).ring.var("x")
    record = compare_series(x, x, "probe", {"x_max": 3})
    assert record == {"check": "probe", "truncation": {"x_max": 3}, "status": "pass", "compared": 1}
    assert list(record) == ["check", "truncation", "status", "compared"]
    record = compare_series(x, x, "probe", {}, cancelled=0)
    assert list(record) == ["check", "truncation", "status", "compared", "cancelled"]
    assert record["cancelled"] == 0
    form = AnsatzForm(2, {(2,): Fraction(1)})
    assert (form.g, form.constants) == (2, {(2,): Fraction(1)})
    assert AnsatzForm(3).constants == {}
    assert AnsatzForm(2).constants is not AnsatzForm(2).constants

"""Exact truncated multivariate series: ring laws, analytic maps, and the
Lagrange coefficient extractor."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitz.algebra import (
    ConstantTermError,
    ExactSeries,
    SeriesRing,
    VarSet,
    VarSetMismatchError,
    lagrange_coeff,
    rational_str,
)


def xp_ring(d_max: int) -> SeriesRing:
    return SeriesRing(VarSet.xp(d_max), x_max=d_max, p_weight_max=d_max)


def x_ring(d_max: int) -> SeriesRing:
    return SeriesRing(VarSet(("x",)), x_max=d_max)


@st.composite
def small_series(draw, ring, zero_const=False, max_terms=5):
    terms = {}
    names = ring.varset.names
    for _ in range(draw(st.integers(0, max_terms))):
        exps = tuple(draw(st.integers(0, 2)) for _ in names)
        if not ring.admits(exps):
            continue
        num = draw(st.integers(-9, 9))
        den = draw(st.integers(1, 9))
        terms[exps] = (num, den)
    s = ExactSeries.from_ratios(ring, [(e, n, d) for e, (n, d) in terms.items()])
    if zero_const:
        s = s - ring.const(s.constant_term())
    return s


RING4 = xp_ring(4)


def test_ring_admits_truncation():
    assert RING4.admits((4, 0, 0, 0, 0))
    assert not RING4.admits((5, 0, 0, 0, 0))
    # p-weight: sum of i * e_i over the p-variables
    assert RING4.admits((0, 0, 2, 0, 0))
    assert not RING4.admits((0, 0, 0, 0, 2))


def test_mismatched_rings_refuse_to_mix():
    other = xp_ring(3)
    with pytest.raises(VarSetMismatchError):
        RING4.one() + other.one()
    with pytest.raises(VarSetMismatchError):
        RING4.var("x") * other.var("x")


def test_series_are_unhashable():
    with pytest.raises(TypeError):
        hash(RING4.one())


def test_mul_drops_overflow_terms():
    x = RING4.var("x")
    assert (x**4 * x).is_zero()


def test_powers_lists_one_product_per_power():
    x = RING4.var("x")
    assert RING4.zero().powers(0) == [RING4.one()]
    assert x.powers(5) == [x**n for n in range(6)]
    assert x.powers(5)[5].is_zero()


def test_negative_cap_is_refused():
    # a ring with a negative cap admits no constant, so one() and exp()
    # could not agree on what 1 is
    for caps in ({"x_max": -1, "p_weight_max": 1}, {"x_max": 1, "p_weight_max": -1}):
        with pytest.raises(ValueError):
            SeriesRing(VarSet.xp(1), **caps)
    with pytest.raises(ValueError):
        SeriesRing(VarSet.tvars(2), t_deg_max=-1)


@given(small_series(RING4), small_series(RING4), small_series(RING4))
@settings(max_examples=60, deadline=None)
def test_mul_commutative_associative_distributive(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(small_series(RING4, zero_const=True))
@settings(max_examples=60, deadline=None)
def test_exp_log_roundtrip(a):
    assert a.exp().log() == a


@given(small_series(RING4, zero_const=True))
@settings(max_examples=40, deadline=None)
def test_inverse_roundtrip(a):
    u = RING4.one() + a
    assert u * u.inverse() == RING4.one()


def test_exp_needs_zero_constant_term():
    with pytest.raises(ConstantTermError):
        RING4.one().exp()
    with pytest.raises(ConstantTermError):
        (RING4.const(2)).log()
    with pytest.raises(ConstantTermError):
        RING4.var("x").inverse()


def test_diff_and_euler():
    ring = x_ring(6)
    x = ring.var("x")
    s = x**3
    assert s.diff("x") == x**2 * ring.const(3)
    assert s.euler("x") == s * ring.const(3)


def test_exp_of_x_has_factorial_coefficients():
    ring = x_ring(6)
    e = ring.var("x").exp()
    for n in range(7):
        assert e.coeff({"x": n}) == Fraction(1, math.factorial(n))


def tree_function(ring, d_max):
    """w = sum_n n^(n-1)/n! x^n, the closed form of the tree function."""
    return ExactSeries.from_ratios(
        ring, [((n,), n ** (n - 1), math.factorial(n)) for n in range(1, d_max + 1)]
    )


def test_tree_function_via_graded_fixpoint():
    # w = x * exp(w) raises the x-degree, so its fixed point is unique and
    # one exact check proves the closed form
    ring = x_ring(8)
    w = tree_function(ring, 8)
    assert ring.var("x") * w.exp() == w


def test_tree_function_check_sees_one_wrong_coefficient():
    # the check that proves w can fail: [x^3] w + 1 is not a fixed point
    ring = x_ring(8)
    w = tree_function(ring, 8) + ring.monomial({"x": 3}, 1)
    assert ring.var("x") * w.exp() != w


def test_rings_with_equal_varset_and_caps_are_equal():
    ring = SeriesRing(VarSet.xp(2), x_max=3, p_weight_max=2)
    twin = SeriesRing(VarSet.xp(2), x_max=3, p_weight_max=2)
    assert ring == twin and hash(ring) == hash(twin) and ring.caps == (3, None, 2, None)
    assert ring != SeriesRing(VarSet.xp(2), x_max=3, p_weight_max=3)
    assert ring != SeriesRing(VarSet.xp(2), x_max=4, p_weight_max=2)
    assert ring != SeriesRing(VarSet.xp(2), x_max=3, u_max=0, p_weight_max=2)
    assert repr(ring) == "SeriesRing(VarSet(('x', 'p_1', 'p_2')), x_max=3, p_weight_max=2)"
    with pytest.raises(TypeError):
        SeriesRing(VarSet(("x",)), 3)  # caps are keyword-only
    with pytest.raises(ValueError, match=r"SeriesRing\(VarSet\(\('x',\)\), x_max=-1\)"):
        SeriesRing(VarSet(("x",)), x_max=-1)


def test_ring_with_no_variables_is_refused():
    with pytest.raises(ValueError, match="at least one variable"):
        SeriesRing(VarSet(()), x_max=3)


def test_lagrange_coeff_matches_series_extraction():
    # w is the tree function w = x e^w, written down in closed form and
    # proved by the fixed-point check, so the closed double sum has a
    # series oracle.
    d_max = 12
    ring = x_ring(d_max)
    s = tree_function(ring, d_max)
    assert ring.var("x") * s.exp() == s
    # n <= 6 and r <= 10 cover every (m, r) of golden.POLE_FORM_COEFFS
    s_pows = s.powers(6)
    inv_pows = (ring.one() - s).inverse().powers(10)
    for n in range(0, 7):
        for r in range(0, 11):
            series = s_pows[n] * inv_pows[r]
            for d in range(1, d_max + 1):
                assert lagrange_coeff(n, r, d) == series.coeff({"x": d}), (n, r, d)


def test_euler_operator_counts_degree():
    s = RING4.var("x") * RING4.var("p_2")
    assert s.euler("x") == s


@given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
@settings(max_examples=80, deadline=None)
def test_rational_str_roundtrip(num, den):
    q = Fraction(num, den)
    text = rational_str(q)
    assert "/" in text
    assert Fraction(text) == q


# -- the product kernel against naive references on every kind of ring ----------

ORACLE_RING = SeriesRing(VarSet.xup(3), x_max=3, u_max=4, p_weight_max=3)
T_RING = SeriesRing(VarSet.tvars(3), t_deg_max=3)
KERNEL_RINGS = [RING4, ORACLE_RING, T_RING]
RING_IDS = ["xp", "xup", "t-deg"]


def family_admits(ring, exps):
    """The truncation rule family by family, as the ring's caps read."""
    x = u = p = t_deg = 0
    for fam, idx, e in zip(ring.varset.families, ring.varset.indices, exps):
        if e < 0:
            return False
        x += e if fam == "x" else 0
        u += e if fam == "u" else 0
        p += idx * e if fam == "p" else 0
        t_deg += e if fam == "t" else 0
    return all(c is None or v <= c for v, c in zip([x, u, p, t_deg], ring.caps))


def naive_mul(a, b):
    """Every pair of terms, kept if the product monomial is admitted."""
    ring = a.ring
    acc = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if ring.admits(e):
                acc[e] = acc.get(e, 0) + ca * cb
    ratios = [(e, c.numerator, c.denominator) for e, c in acc.items()]
    return ExactSeries.from_ratios(ring, ratios)


def naive_power_sum(a, coeffs):
    """sum_k coeffs[k] * a^k, each power a naive product."""
    power, total = a.ring.one(), a.ring.zero()
    for c in coeffs:
        total = total + power.scale(c)
        power = naive_mul(power, a)
    assert power.is_zero()  # the sum is complete
    return total


@st.composite
def ring_series(draw, ring, graded=False, max_terms=6):
    """Admitted terms with exponents in [0, 2].  With graded=True, every term
    has positive degree, as inverse/exp/log require."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = tuple(draw(st.integers(0, 2)) for _ in ring.varset.names)
        if graded and not any(exps):
            continue
        if ring.admits(exps):
            terms[exps] = (draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
    return ExactSeries.from_ratios(ring, [(e, n, d) for e, (n, d) in terms.items()])


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=RING_IDS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_load_admission_matches_family_rule(ring, data):
    exps = tuple(data.draw(st.integers(-3, 5)) for _ in ring.varset.names)
    assert ring.admits(exps) == family_admits(ring, exps)


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=RING_IDS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_mul_matches_naive_product(ring, data):
    a = data.draw(ring_series(ring))
    b = data.draw(ring_series(ring))
    assert a * b == naive_mul(a, b)


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=RING_IDS)
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_exp_log_inverse_match_power_sums(ring, data):
    a = data.draw(ring_series(ring, graded=True))
    c0 = Fraction(data.draw(st.sampled_from([-3, -1, 1, 2])), data.draw(st.integers(1, 3)))
    n = ring.max_total_degree() + 1
    assert a.exp() == naive_power_sum(a, [Fraction(1, math.factorial(k)) for k in range(n)])
    log_coeffs = [Fraction(0)] + [Fraction((-1) ** (k + 1), k) for k in range(1, n)]
    assert (ring.one() + a).log() == naive_power_sum(a, log_coeffs)
    inv_coeffs = [Fraction(-1) ** k / c0 ** (k + 1) for k in range(n)]
    assert (ring.const(c0) + a).inverse() == naive_power_sum(a, inv_coeffs)


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=RING_IDS)
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_truncated_products_associate_and_exp_is_a_homomorphism(ring, data):
    # every cap is a non-negative load on non-negative exponents, so the
    # truncation is a quotient by a monomial ideal and these identities hold
    a, b, c = (data.draw(ring_series(ring)) for _ in range(3))
    assert (a * b) * c == a * (b * c)
    a, b = (data.draw(ring_series(ring, graded=True)) for _ in range(2))
    assert (a + b).exp() == a.exp() * b.exp()


CODEC_VARSET = VarSet(("x", "u", "p_1", "p_3", "t_0", "t_2"))


@given(st.lists(st.integers(0, 3), min_size=6, max_size=6).map(tuple))
@settings(max_examples=60, deadline=None)
def test_varset_codecs_invert_each_other(exps):
    vs = CODEC_VARSET
    assert vs.encode(vs.decode(exps)) == exps
    d, r, parts = vs.profile(exps)
    theta = vs.theta(exps)
    assert vs.profile_exps(parts, r=r, d=d) == exps[:4] + (0, 0)
    assert vs.theta_exps(theta) == (0, 0, 0, 0) + exps[4:]
    assert list(theta) == sorted(theta) and list(parts) == sorted(parts)


def test_unknown_variable_family_is_refused():
    with pytest.raises(ValueError):
        VarSet(("x", "y"))


# -- packed keys and integer numerators against a plain-Fraction reference -------

# 0, 2^k - 1 and 2^k: the guard bit of a load sits just above its cap, so a
# cap of 2^k - 1 fills its field and a cap of 2^k starts a wider one
EDGE_CAPS = st.sampled_from([0, 1, 2, 3, 4, 7, 8])


@st.composite
def edge_ring(draw):
    kind = draw(st.sampled_from(["xp", "xup", "t"]))
    if kind == "xp":
        return SeriesRing(VarSet.xp(3), x_max=draw(EDGE_CAPS), p_weight_max=draw(EDGE_CAPS))
    if kind == "xup":
        return SeriesRing(
            VarSet.xup(2),
            x_max=draw(EDGE_CAPS),
            u_max=draw(EDGE_CAPS),
            p_weight_max=draw(EDGE_CAPS),
        )
    return SeriesRing(VarSet.tvars(3), t_deg_max=draw(EDGE_CAPS))


def ref_terms(ring, terms):
    """The reference form of a series: admitted nonzero Fraction terms."""
    return {e: Fraction(c) for e, c in terms.items() if c and family_admits(ring, e)}


def ref_mul(ring, a, b):
    acc = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            acc[e] = acc.get(e, 0) + ca * cb
    return ref_terms(ring, acc)


def ref_add(ring, a, b, sign=1):
    acc = dict(a)
    for e, c in b.items():
        acc[e] = acc.get(e, 0) + sign * c
    return ref_terms(ring, acc)


def ref_power_sum(ring, a, coeff):
    """sum_k coeff(k) a^k for a series a without constant term."""
    power, total, k = ref_terms(ring, {(0,) * len(ring.varset.names): 1}), {}, 0
    while power:
        total = ref_add(ring, total, {e: coeff(k) * c for e, c in power.items()})
        power, k = ref_mul(ring, power, a), k + 1
    return total


def assert_canonical(s):
    assert s.den > 0 and 0 not in s.nums.values()
    assert math.gcd(s.den, *s.nums.values()) == 1
    for c in s.terms.values():
        assert type(c) is Fraction and c and math.gcd(c.numerator, c.denominator) == 1


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_packed_kernel_matches_fraction_reference(data):
    ring = data.draw(edge_ring())
    a, b = (data.draw(ring_series(ring)) for _ in range(2))
    ta, tb = ref_terms(ring, a.terms), ref_terms(ring, b.terms)
    c = Fraction(data.draw(st.integers(-5, 5)), data.draw(st.integers(1, 5)))
    results = {
        "mul": (a * b, ref_mul(ring, ta, tb)),
        "add": (a + b, ref_add(ring, ta, tb)),
        "sub": (a - b, ref_add(ring, ta, tb, -1)),
        "scale": (a.scale(c), {e: c * v for e, v in ta.items() if c}),
    }
    g = data.draw(ring_series(ring, graded=True))
    tg = ref_terms(ring, g.terms)
    c0 = data.draw(st.sampled_from([Fraction(-3, 2), Fraction(-1), Fraction(1), Fraction(2, 3)]))
    results["exp"] = (g.exp(), ref_power_sum(ring, tg, lambda k: Fraction(1, math.factorial(k))))
    results["log"] = (
        (ring.one() + g).log(),
        ref_power_sum(ring, tg, lambda k: Fraction((-1) ** (k + 1), k) if k else 0),
    )
    results["inverse"] = (
        (ring.const(c0) + g).inverse(),
        ref_power_sum(ring, tg, lambda k: (-1) ** k / c0 ** (k + 1)),
    )
    for name, (got, want) in results.items():
        assert_canonical(got)
        assert got.terms == want, name


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_equal_series_by_different_routes_compare_equal(data):
    ring = data.draw(edge_ring())
    a, b = (data.draw(ring_series(ring)) for _ in range(2))
    c = Fraction(data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9)))
    assert (a + b) - b == a
    assert a.scale(c).scale(1 / c) == a
    assert ring.sum([a, b, -a]) == b
    unit = ring.const(c) + data.draw(ring_series(ring, graded=True))
    assert (a * unit) * unit.inverse() == a
    ratios = [(e, q.numerator, q.denominator) for e, q in a.terms.items()]
    assert ExactSeries.from_ratios(ring, ratios) == a


def test_terms_are_reduced_fractions_over_a_common_denominator():
    ring = x_ring(4)
    s = ExactSeries.from_ratios(ring, [((1,), 2, 4), ((2,), 1, 6), ((3,), 0, 1)])
    assert (s.den, sorted(s.nums.values())) == (6, [1, 3])
    assert s.terms == {(1,): Fraction(1, 2), (2,): Fraction(1, 6)}
    assert_canonical(s)
    half = s.scale(3)  # 3/2 x + 1/2 x^2: the 3 cancels into the denominator
    assert (half.den, sorted(half.nums.values())) == (2, [1, 3])


def test_from_ratios_drops_what_the_ring_does_not_admit():
    """`from_ratios` filters by `admits` before the keyed constructor, which
    trusts its keys: a term over a cap is dropped, not packed."""
    kept, over_x, over_weight = (4, 0, 0, 0, 0), (5, 0, 0, 0, 0), (0, 0, 0, 0, 2)
    s = ExactSeries.from_ratios(RING4, [(kept, 1, 2), (over_x, 1, 3), (over_weight, 7, 1)])
    assert s.terms == {kept: Fraction(1, 2)}
    assert s == ExactSeries.from_keys(RING4, [(RING4.key(kept), 1, 2)])


@pytest.mark.parametrize(
    "varset, caps",
    [
        (VarSet(("x",)), {}),
        (VarSet.xp(2), {"x_max": 3}),
        (VarSet.xup(1), {"x_max": 1, "p_weight_max": 1}),
        (VarSet.tvars(2), {"x_max": 2}),
    ],
    ids=["x-no-caps", "xp-no-p-weight", "xup-no-u", "t-x-cap-only"],
)
def test_ring_with_an_uncapped_variable_is_refused(varset, caps):
    with pytest.raises(ValueError, match="bounds the variable"):
        SeriesRing(varset, **caps)


def test_sum_refuses_a_series_of_another_ring():
    with pytest.raises(VarSetMismatchError):
        RING4.sum([RING4.one(), xp_ring(3).one()])


# -- the monomial shift, the key split and the degree window ---------------------

# one cap of each kind that the change of variables meets
SHIFT_RING = SeriesRing(
    VarSet(("x", "p_1", "p_2", "t_0", "t_1")), x_max=3, p_weight_max=4, t_deg_max=2
)
SHIFT_RINGS = KERNEL_RINGS + [SHIFT_RING]
SHIFT_IDS = RING_IDS + ["x-p-t"]


@pytest.mark.parametrize(
    "base, unit, over",
    [
        ((2, 0, 0, 0, 0), (1, 0, 0, 0, 0), (2, 0, 0, 0, 0)),
        ((0, 0, 1, 0, 0), (0, 0, 1, 0, 0), (0, 1, 1, 0, 0)),
        ((0, 0, 0, 1, 0), (0, 0, 0, 0, 1), (0, 0, 0, 1, 1)),
    ],
    ids=["x_max", "p_weight_max", "t_deg_max"],
)
def test_times_monomial_keeps_each_cap_and_drops_one_over(base, unit, over):
    """base times unit sits at the cap and is kept; base times over is one
    degree past it and is dropped, leaving the constant's shift reduced."""
    series = ExactSeries.from_ratios(SHIFT_RING, [(base, 1, 6), ((0,) * 5, 1, 2)])
    at_cap = tuple(map(sum, zip(base, unit)))
    assert SHIFT_RING.admits(at_cap) and SHIFT_RING.admits(over)
    assert not SHIFT_RING.admits(tuple(map(sum, zip(base, over))))
    assert series.times_monomial(unit) == ExactSeries.from_ratios(
        SHIFT_RING, [(at_cap, 1, 6), (unit, 1, 2)]
    )
    assert series.times_monomial(over) == ExactSeries.from_ratios(SHIFT_RING, [(over, 1, 2)])
    assert series.times_monomial((0, 0, 0, 3, 0)).is_zero()  # itself over a cap


@pytest.mark.parametrize("ring", SHIFT_RINGS, ids=SHIFT_IDS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_times_monomial_matches_the_product(ring, data):
    a = data.draw(ring_series(ring))
    exps = tuple(data.draw(st.integers(0, 2)) for _ in ring.varset.names)
    monomial = ExactSeries.from_ratios(ring, [(exps, 1, 1)])
    assert a.times_monomial(exps) == a * monomial == naive_mul(a, monomial)


@pytest.mark.parametrize("ring", SHIFT_RINGS, ids=SHIFT_IDS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_split_takes_off_the_last_variable(ring, data):
    for exps in data.draw(ring_series(ring, graded=True)).terms:
        pos, rest = ring.split(ring.key(exps))
        assert pos == max(i for i, e in enumerate(exps) if e)
        assert ring.exps(rest) == exps[:pos] + (exps[pos] - 1,) + exps[pos + 1 :]


@pytest.mark.parametrize("ring", SHIFT_RINGS, ids=SHIFT_IDS)
@given(data=st.data(), m=st.integers(0, 4))
@settings(max_examples=20, deadline=None)
def test_up_to_degree_reads_the_total_degree(ring, data, m):
    a = data.draw(ring_series(ring))
    assert a.up_to_degree(m) == a.where(lambda e: sum(e) <= m)

"""Pinned exact constants for the one-part (p_1 = 1) specialization.

Laurent series in W = 1/(1-w) for the low-genus simple-Hurwitz generating
series and their D-derivatives, pole-form coefficients in w, the 26-term
search family and its null space, aggregate constant checks, and the
recurrences on H^g_{(1^d)} as differential identities.  Every constant is
an exact rational; tests and the CLI verification suites consume this
module and never restate the numbers.

Encodings
---------
* Laurent data: {exponent: Fraction} for sums c * W^exponent; a parallel
  map holds coefficients of W^exponent * log W.  For example
  D H~_0 = 1/2 - W^-2/2:

  >>> PINNED_W_SERIES[(0, 1)]["laurent"]
  {0: Fraction(1, 2), -2: Fraction(-1, 2)}

* Differential identities: list of terms, each {"coeff": Fraction,
  "factors": [(g, p), ...]} standing for coeff * prod D^p H~_g; the terms
  sum to zero.  An empty factor list would be a constant term (unused).
* Recurrences: differential identities in the encoding above; [x^d] of an
  identity in genus g, times (2d+2g-2)!, is its recurrence on H^g_{(1^d)}.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "PINNED_W_SERIES",
    "POLE_FORM_COEFFS",
    "P3_PREFACTOR_DENOM",
    "P3_POLY",
    "DIFFERENTIAL_IDENTITIES",
    "SEARCH_FAMILY_26",
    "SEARCH_FAMILY_26_NULLITY",
    "SEARCH_FAMILY_26_BASIS",
    "RECURRENCES",
    "AGGREGATE_CONSTANT_CHECKS_G2",
    "SPOT_VALUES",
]


# D^n H~_g as Laurent data in W, keyed by (g, n).  These are the five
# displayed base series; everything else is derived by applying D.
PINNED_W_SERIES: dict[tuple[int, int], dict[str, dict[int, Fraction]]] = {
    (0, 1): {
        "laurent": {0: Fraction(1, 2), -2: Fraction(-1, 2)},
        "log": {},
    },
    (1, 0): {
        "laurent": {0: Fraction(-1, 24), -1: Fraction(1, 24)},
        "log": {0: Fraction(1, 24)},
    },
    (1, 1): {
        "laurent": {2: Fraction(1, 24), 1: Fraction(-1, 12), 0: Fraction(1, 24)},
        "log": {},
    },
    (2, 0): {
        "laurent": {
            5: Fraction(7, 1440), 4: Fraction(-1, 72), 3: Fraction(19, 1440), 2: Fraction(-1, 240)
        },
        "log": {},
    },
    (3, 0): {
        "laurent": {
            4: Fraction(720, 725760),
            5: Fraction(-8136, 725760),
            6: Fraction(33362, 725760),
            7: Fraction(-67036, 725760),
            8: Fraction(71505, 725760),
            9: Fraction(-38990, 725760),
            10: Fraction(8575, 725760),
        },
        "log": {},
    },
}

# H~_g as sum of c * w^m / (1-w)^r, keyed g -> {(m, r): c}.
POLE_FORM_COEFFS: dict[int, dict[tuple[int, int], Fraction]] = {
    2: {(2, 4): Fraction(4, 5760), (3, 5): Fraction(28, 5760)},
    3: {
        (2, 6): Fraction(1, 80640),
        (3, 7): Fraction(73, 90720),
        (4, 8): Fraction(37, 5184),
        (5, 9): Fraction(89, 5184),
        (6, 10): Fraction(245, 20736),
    },
}

# H^3_{(1^d)} = (2d+4)!/P3_PREFACTOR_DENOM *
#   sum_{r=0}^{d-1} d^{d-r-2}/(d-r-1)! * C(r+4,5) * (r+1) * P3(r),
# with P3 listed by ascending power of r.
P3_PREFACTOR_DENOM = 313528320
P3_POLY: tuple[int, ...] = (1680, -2822, 35, 3770, 1225)

DIFFERENTIAL_IDENTITIES: dict[str, list[dict]] = {
    # D^2 H~_0 = (1/2)(D^2 H~_0)^2 + D H~_0
    "genus0-quadratic": [
        {"coeff": Fraction(1), "factors": [(0, 2)]},
        {"coeff": Fraction(-1, 2), "factors": [(0, 2), (0, 2)]},
        {"coeff": Fraction(-1), "factors": [(0, 1)]},
    ],
    # D H~_1 = (1/24)(D^3 H~_0)^2
    "genus1-square": [
        {"coeff": Fraction(1), "factors": [(1, 1)]},
        {"coeff": Fraction(-1, 24), "factors": [(0, 3), (0, 3)]},
    ],
    # D H~_1 = D^3 H~_0/24 - D^2 H~_0/24 + (D^2 H~_0)(D H~_1)
    "genus1-mixed": [
        {"coeff": Fraction(1), "factors": [(1, 1)]},
        {"coeff": Fraction(-1, 24), "factors": [(0, 3)]},
        {"coeff": Fraction(1, 24), "factors": [(0, 2)]},
        {"coeff": Fraction(-1), "factors": [(0, 2), (1, 1)]},
    ],
    # 4320 H~_2 = -300 D^2 H~_1 + 7(D^5 - D^4) H~_0
    "genus2-linear": [
        {"coeff": Fraction(4320), "factors": [(2, 0)]},
        {"coeff": Fraction(300), "factors": [(1, 2)]},
        {"coeff": Fraction(-7), "factors": [(0, 5)]},
        {"coeff": Fraction(7), "factors": [(0, 4)]},
    ],
    # 2880 H~_3 = -(2/49 - (227/294)D + (99845/588)D^2) H~_2
    #             -((1/490)D^2 - (11/294)D^3 + (38845/14112)D^4 - (1225/576)D^5) H~_1
    "genus3-linear": [
        {"coeff": Fraction(2880), "factors": [(3, 0)]},
        {"coeff": Fraction(2, 49), "factors": [(2, 0)]},
        {"coeff": Fraction(-227, 294), "factors": [(2, 1)]},
        {"coeff": Fraction(99845, 588), "factors": [(2, 2)]},
        {"coeff": Fraction(1, 490), "factors": [(1, 2)]},
        {"coeff": Fraction(-11, 294), "factors": [(1, 3)]},
        {"coeff": Fraction(38845, 14112), "factors": [(1, 4)]},
        {"coeff": Fraction(-1225, 576), "factors": [(1, 5)]},
    ],
}

# The 26-term genus-3 search family: products (D^p H~_i)(D^q H~_j) with
# p+q = 4, i+j = 3 (8 distinct terms once symmetric pairs are merged and
# the unrepresentable H~_0 factor is excluded), plus singles D^p H~_3 for
# 0 <= p <= 4, D^p H~_2 for 0 <= p <= 5, D^p H~_1 for 1 <= p <= 7.  The
# p = 0 singles for genus 2 and 3 are included so that the family contains
# the genus3-linear identity above; this also makes the count 26.
SEARCH_FAMILY_26: list[dict] = (
    [{"factors": [(0, p), (3, 4 - p)]} for p in range(1, 5)]
    + [{"factors": [(1, p), (2, 4 - p)]} for p in range(1, 5)]
    + [{"factors": [(3, p)]} for p in range(0, 5)]
    + [{"factors": [(2, p)]} for p in range(0, 6)]
    + [{"factors": [(1, p)]} for p in range(1, 8)]
)
SEARCH_FAMILY_26_NULLITY = 11

# The null space of the family as `search_recursions` returns it: one vector
# per free member, 1 in that member's place, as {member index: coefficient}
# over its nonzero entries (99 in all).  Members 12, 18 and 19 (D^4 H~_3,
# D^5 H~_2 and D H~_1) appear in no vector.
SEARCH_FAMILY_26_BASIS: list[dict[int, Fraction]] = [
    {
        1: Fraction(-1), 2: Fraction(-44963, 141), 3: Fraction(19886, 47),
        4: Fraction(879520, 2961), 5: Fraction(50590, 329), 6: Fraction(1077215, 2961),
        7: Fraction(729025, 987), 9: Fraction(-2), 10: Fraction(1),
    },
    {
        0: Fraction(-2), 1: Fraction(-14), 2: Fraction(-203020, 141), 3: Fraction(87344, 47),
        4: Fraction(3936320, 2961), 5: Fraction(698182, 987), 6: Fraction(4859146, 2961),
        7: Fraction(3247240, 987), 9: Fraction(-4), 11: Fraction(1),
    },
    {
        2: Fraction(53039861, 1410), 3: Fraction(-13248543, 235), 4: Fraction(-75988793, 2115),
        5: Fraction(-23801221, 1410), 6: Fraction(-36832807, 846), 7: Fraction(-8643995, 94),
        8: Fraction(126, 5), 9: Fraction(-623, 5), 15: Fraction(1),
    },
    {
        2: Fraction(8117704, 141), 3: Fraction(-4033512, 47), 4: Fraction(-23293832, 423),
        5: Fraction(-3687464, 141), 6: Fraction(-28176520, 423), 7: Fraction(-6595840, 47),
        9: Fraction(-224), 16: Fraction(1),
    },
    {
        2: Fraction(10836056, 141), 3: Fraction(-5391288, 47), 4: Fraction(-31140640, 423),
        5: Fraction(-4957600, 141), 6: Fraction(-37740320, 423), 7: Fraction(-8814440, 47),
        9: Fraction(-448), 17: Fraction(1),
    },
    {
        2: Fraction(5185904465, 3384), 3: Fraction(-449966265, 188),
        4: Fraction(-7427123795, 5076), 5: Fraction(-2151596615, 3384),
        6: Fraction(-16893128525, 10152), 7: Fraction(-12856185125, 3384), 8: Fraction(-735, 2),
        9: Fraction(-36995, 12), 13: Fraction(20), 14: Fraction(-35, 3), 20: Fraction(1),
    },
    {
        2: Fraction(952179809, 282), 3: Fraction(-244053467, 47), 4: Fraction(-1363248467, 423),
        5: Fraction(-393715399, 282), 6: Fraction(-3245603165, 846), 7: Fraction(-2352136325, 282),
        8: Fraction(294), 9: Fraction(-7987), 14: Fraction(20), 21: Fraction(1),
    },
    {
        2: Fraction(259599186, 47), 3: Fraction(-398989668, 47), 4: Fraction(-247855652, 47),
        5: Fraction(-109217246, 47), 6: Fraction(-294377070, 47), 7: Fraction(-638825850, 47),
        8: Fraction(-504), 9: Fraction(-13188), 22: Fraction(1),
    },
    {
        2: Fraction(474436480, 47), 3: Fraction(-723784320, 47), 4: Fraction(-1359074720, 141),
        5: Fraction(-203578640, 47), 6: Fraction(-1623878800, 141), 7: Fraction(-1165183200, 47),
        9: Fraction(-26880), 23: Fraction(1),
    },
    {
        2: Fraction(825050240, 47), 3: Fraction(-1251089280, 47), 4: Fraction(-2364505600, 141),
        5: Fraction(-359483200, 47), 6: Fraction(-2834427200, 141), 7: Fraction(-2022288000, 47),
        9: Fraction(-53760), 24: Fraction(1),
    },
    {
        1: Fraction(-331776, 245), 2: Fraction(325092705152, 11515),
        3: Fraction(-70316373888, 1645), 4: Fraction(-186519294464, 6909),
        5: Fraction(-1000745596672, 80605), 6: Fraction(-160038727424, 4935),
        7: Fraction(-1115434519680, 16121), 9: Fraction(-107520), 25: Fraction(1),
    },
]

# The recurrences on H^g_{(1^d)} the paper prints, as differential
# identities: [x^d] (2d+2g-2)! of an identity in genus g is its recurrence,
# since [x^d] D^p H~_g = d^p H^g_{(1^d)}/(2d+2g-2)! and a product's [x^d]
# sums over i + j = d.  Four of them are identities above.  The geometric
# genus-3 recurrence
#   H^3_{(1^d)} = a(d) C(d, 2) H^2_{(1^d)} + sum_{i+j=d} (
#       -2 q03(i, j)/121590215 C(2d+2, 2i-2) H^0_{(1^i)} H^3_{(1^j)}
#       -4 q12(i, j)/2553394515 C(2d+2, 2i) H^1_{(1^i)} H^2_{(1^j)}),
# with a(d) = (1532127678 d - 2213123851)/851131505 and q03, q12 the
# polynomials below, is divided by (2d+2)!: (4D^2 + 14D + 12) H~_3 equals
# a(D) C(D, 2) H~_2 plus the D^a H~_0 D^b H~_3 and D^a H~_1 D^b H~_2 terms
# of each i^a j^b monomial.  Solving its 10-constant system exactly from
# table data pins the 1/851131505, which absorbs the 1/2 of C(d, 2).
_MONOMIALS = ((2, 2), (2, 1), (1, 2), (1, 1))  # (a, b) of i^a j^b
RECURRENCES: dict[str, list[dict]] = {
    "genus0": DIFFERENTIAL_IDENTITIES["genus0-quadratic"],
    "genus1": DIFFERENTIAL_IDENTITIES["genus1-square"],
    "genus2": DIFFERENTIAL_IDENTITIES["genus2-linear"],
    "genus3": DIFFERENTIAL_IDENTITIES["genus3-linear"],
    "genus3-geometric": [
        {"coeff": Fraction(4), "factors": [(3, 2)]},
        {"coeff": Fraction(14), "factors": [(3, 1)]},
        {"coeff": Fraction(12), "factors": [(3, 0)]},
        # a(d) C(d, 2) = (1532127678 d^3 - 3745251529 d^2 + 2213123851 d)/(2 * 851131505)
        {"coeff": Fraction(-1532127678, 2 * 851131505), "factors": [(2, 3)]},
        {"coeff": Fraction(3745251529, 2 * 851131505), "factors": [(2, 2)]},
        {"coeff": Fraction(-2213123851, 2 * 851131505), "factors": [(2, 1)]},
    ]
    # q03 = ij(760192125 ij - 12054428314 i - 2006745110 j + 1033797958)
    + [
        {"coeff": Fraction(2 * q, 121590215), "factors": [(0, a), (3, b)]}
        for (a, b), q in zip(_MONOMIALS, (760192125, -12054428314, -2006745110, 1033797958))
    ]
    # q12 = ij(798201731250 ij - 217500288725 i - 473678414332 j - 42109762821)
    + [
        {"coeff": Fraction(4 * q, 2553394515), "factors": [(1, a), (2, b)]}
        for (a, b), q in zip(
            _MONOMIALS, (798201731250, -217500288725, -473678414332, -42109762821)
        )
    ],
}

# Constraints the fitted genus-2 constants must satisfy, implied by the
# pole-form coefficients above under the p_1 = 1 specialization:
# sum of singleton K's; K_{(2,2)}/2 + K_{(2,3)}; K_{(2,2,2)}.
AGGREGATE_CONSTANT_CHECKS_G2 = {
    "singleton_sum": Fraction(0),
    "pair_weighted_sum": Fraction(1, 1440),
    "triple": Fraction(7, 240),
}

# Hand-checked table entries (g, d) -> H^g_{(1^d)}.
SPOT_VALUES: dict[tuple[int, int], Fraction] = {
    (0, 3): Fraction(4),
    (1, 2): Fraction(1, 2),
}

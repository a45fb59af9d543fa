"""Pinned-data module: internal consistency of the stored displays."""

from fractions import Fraction

from hurwitz import golden
from hurwitz.algebra import lagrange_coeff
from hurwitz.simple_hurwitz import genus3_a_form, genus3_p_form


def test_genus3_linear_constants_present():
    coeffs = {
        (tuple(term["factors"][0]), abs(term["coeff"]))
        for term in golden.DIFFERENTIAL_IDENTITIES["genus3-linear"]
        if len(term["factors"]) == 1
    }
    for expected in [
        ((2, 0), Fraction(2, 49)),
        ((2, 1), Fraction(227, 294)),
        ((2, 2), Fraction(99845, 588)),
        ((1, 2), Fraction(1, 490)),
        ((1, 3), Fraction(11, 294)),
        ((1, 4), Fraction(38845, 14112)),
        ((1, 5), Fraction(1225, 576)),
    ]:
        assert expected in coeffs, expected


def test_golden_defines_no_function():
    """The module pins data: even its recurrences are term lists."""
    defined = [
        name
        for name, value in vars(golden).items()
        if callable(value) and getattr(value, "__module__", None) == golden.__name__
    ]
    assert defined == []


def test_family_has_26_members():
    assert len(golden.SEARCH_FAMILY_26) == 26
    assert golden.SEARCH_FAMILY_26_NULLITY == 11


def test_a_combination_agrees_with_p_form():
    # two independently stored genus-3 closed forms, one value
    for d in range(1, 13):
        assert genus3_a_form(d) == genus3_p_form(d), d


def test_a_combination_coefficient_window():
    assert set(golden.PINNED_W_SERIES[(3, 0)]["laurent"]) == set(range(4, 11))


def test_pole_form_top_coefficient_is_fit_aggregate():
    # w^6/(1-w)^10 coefficient = K_(2,2,2,2,2,2)/6!
    assert golden.POLE_FORM_COEFFS[3][(6, 10)] == Fraction(245, 20736)
    assert golden.AGGREGATE_CONSTANT_CHECKS_G2["triple"] == Fraction(7, 240)


def test_p3_prefactor_consistency():
    # P-form: d^4 (d-1) poly(d) / denom with poly of degree 4
    assert len(golden.P3_POLY) == 5
    assert golden.P3_PREFACTOR_DENOM == 313528320


def test_lagrange_spot_values():
    # anchor the shared coefficient extractor against hand values:
    # [x^3] w = 3^1/2! * ... = 9/6 * 1 = 3/2 and [x^d] w/(1-w) column sums
    assert lagrange_coeff(1, 0, 3) == Fraction(3, 2)
    assert lagrange_coeff(0, 1, 1) == 1
    assert lagrange_coeff(2, 1, 2) == 1

"""Acceptance gate: fifteen exact-equality criteria, one per test, each
printing a single PASS/FAIL line (run with -s to see them inline).

Every criterion compares two independently computed exact rational
objects; there are no tolerances anywhere.
"""

import math
from fractions import Fraction

from hurwitz import golden
from hurwitz.algebra import (
    ExactSeries,
    SeriesRing,
    VarSet,
    lagrange_coeff,
)
from hurwitz.ansatz import (
    XpContext,
    fit_constants,
    verify_change_theorem,
    verify_euler_square,
    verify_genus_expansion,
)
from hurwitz.cutjoin import hurwitz_via_cutjoin
from hurwitz.hodge import HodgeKey, HodgeTable, elsv_hurwitz, evaluate
from hurwitz.oracle import connected_hurwitz
from hurwitz.partitions import Partition, multinomial, partitions
from hurwitz.simple_hurwitz import (
    WExpr,
    a_series_coeff,
    differential_identity_wexpr,
    extract_coeff,
    genus3_a_form,
    genus3_p_form,
    search_recursions,
    verify_recurrence,
    wexpr_for,
    wexpr_from_ansatz,
)


def run_criterion(slug: str, body) -> None:
    try:
        body()
    except BaseException:
        print(f"FAIL {slug}")
        raise
    print(f"PASS {slug}")


def test_criterion_01_oracle_equals_cutjoin():
    def body():
        oracle = connected_hurwitz(5, 8, 16)
        cutjoin = hurwitz_via_cutjoin(5, 8).restricted(r_max=16)
        assert oracle.entries == cutjoin.entries
        assert len(oracle.entries) > 100

    run_criterion("01 oracle-equals-cutjoin-d5-r16", body)


def test_criterion_02_base_bracket_values():
    def body():
        table = HodgeTable()
        assert evaluate(HodgeKey.make(0, (0, 0, 0), 0), table) == 1
        assert evaluate(HodgeKey.make(1, (1,), 0), table) == Fraction(1, 24)
        assert evaluate(HodgeKey.make(1, (0,), 1), table) == Fraction(1, 24)

    run_criterion("02 base-bracket-values", body)


def test_criterion_03_genus0_string_equals_multinomial():
    def body():
        table = HodgeTable()
        for n in range(3, 9):
            for parts in partitions(n - 3):
                key = HodgeKey.make(0, (0,) * (n - len(parts)) + parts, 0)
                by_string = evaluate(key, table, genus0="string")
                assert by_string == multinomial(n - 3, key.theta), key

    run_criterion("03 genus0-string-equals-multinomial-n8", body)


def test_criterion_04_pole_displays_match_cutjoin(deep_table):
    def body():
        for g, coeffs in golden.POLE_FORM_COEFFS.items():
            for d in range(1, 11):
                total = sum(
                    (c * lagrange_coeff(m, r, d) for (m, r), c in coeffs.items()),
                    Fraction(0),
                )
                h = deep_table.value(g, Partition((1,) * d))
                assert total * math.factorial(2 * d + 2 * g - 2) == h, (g, d)

    run_criterion("04 pole-displays-g2-g3-degree10", body)


def test_criterion_05_w_table_displays():
    def body():
        for (g, n), data in golden.PINNED_W_SERIES.items():
            assert wexpr_for(g, n) == WExpr(data["laurent"], data["log"]), (g, n)
        quartic = WExpr(
            {
                0: Fraction(720),
                1: Fraction(-6696),
                2: Fraction(19250),
                3: Fraction(-21840),
                4: Fraction(8575),
            }
        )
        shift = WExpr({1: Fraction(1), 0: Fraction(-1)})
        product = (quartic * shift * shift * WExpr({4: Fraction(1)})).scale(
            Fraction(1, 725760)
        )
        assert product == wexpr_for(3, 0)

    run_criterion("05 w-table-five-displays", body)


def test_criterion_06_null_space_dimension_11(deep_table):
    def body():
        result = search_recursions(golden.SEARCH_FAMILY_26, deep_table, d_verify=10)
        assert result["dimension"] == 11
        assert result["numeric_failures"] == []

    run_criterion("06 family26-null-space-dimension-11", body)


def test_criterion_07_genus3_linear_recursion(deep_table):
    def body():
        spec = golden.RECURRENCES["genus3"]
        assert verify_recurrence(spec, deep_table, range(2, 11))["status"] == "pass"
        terms = golden.DIFFERENTIAL_IDENTITIES["genus3-linear"]
        assert differential_identity_wexpr(terms).is_zero()
        assert verify_recurrence(terms, deep_table, range(1, 11))["status"] == "pass"

    run_criterion("07 genus3-linear-recursion-d10", body)


def test_criterion_08_genus3_geometric_recursion(deep_table):
    def body():
        spec = golden.RECURRENCES["genus3-geometric"]
        assert verify_recurrence(spec, deep_table, range(2, 9))["status"] == "pass"

    run_criterion("08 genus3-geometric-recursion-d8", body)


def test_criterion_09_genus2_recursion(deep_table):
    def body():
        spec = golden.RECURRENCES["genus2"]
        assert verify_recurrence(spec, deep_table, range(2, 11))["status"] == "pass"
        terms = golden.DIFFERENTIAL_IDENTITIES["genus2-linear"]
        assert differential_identity_wexpr(terms).is_zero()

    run_criterion("09 genus2-recursion-and-differential-form", body)


def test_criterion_10_low_genus_recursions(deep_table):
    def body():
        for name in ("genus0", "genus1"):
            spec = golden.RECURRENCES[name]
            result = verify_recurrence(spec, deep_table, range(2, 13))
            assert result["status"] == "pass", name
        assert deep_table.value(0, (1, 1, 1)) == 4
        assert deep_table.value(1, (1, 1)) == Fraction(1, 2)

    run_criterion("10 genus0-genus1-recursions-d12", body)


def test_criterion_11_change_of_variables(deep_table, fitted):
    def body():
        _, _, hodge = fitted
        ctx = XpContext(8)
        assert verify_euler_square(deep_table, ctx)["status"] == "pass"
        for g in (0, 1, 2):
            report = verify_change_theorem(g, deep_table, hodge, ctx)
            assert report["status"] == "pass", (g, report.get("first_mismatch"))

    run_criterion("11 change-of-variables-degree8", body)


def test_criterion_12_genus_expansion_forms(fitted):
    def body():
        form2, _, hodge = fitted
        reports = verify_genus_expansion(2, form2, hodge)
        for report in reports:
            assert report["status"] == "pass", (report["check"], report.get("first_mismatch"))

    run_criterion("12 genus-expansion-both-forms-g2", body)


def test_criterion_13_fitting_soundness(deep_table):
    def body():
        hodge = HodgeTable()
        form2 = fit_constants(2, deep_table, 6, hodge)
        assert len(form2.constants) == 6
        c = form2.constants
        assert c[(2,)] + c[(3,)] + c[(4,)] == 0
        assert c[(2, 2)] / 2 + c[(2, 3)] == Fraction(1, 1440)
        assert c[(2, 2, 2)] == Fraction(7, 240)
        form3 = fit_constants(3, deep_table, 8, hodge)
        assert len(form3.constants) == 26
        assert wexpr_from_ansatz(form3) == wexpr_for(3, 0)

    run_criterion("13 fit-rank-surplus-and-aggregates", body)


def test_criterion_14_closed_forms(deep_table):
    def body():
        for d in range(1, 9):
            h = deep_table.value(3, Partition((1,) * d))
            assert genus3_a_form(d) == h, d
            assert genus3_p_form(d) == h, d
        ring = SeriesRing(VarSet(("x",)), x_max=12)
        # the tree function w = x e^w in closed form; the map raises the
        # x-degree, so one exact check proves its fixed point
        w = ExactSeries.from_ratios(
            ring, [((n,), n ** (n - 1), math.factorial(n)) for n in range(1, 13)]
        )
        assert ring.var("x") * w.exp() == w
        inv = (ring.one() - w).inverse()
        for n in range(0, 4):
            for r in range(0, 5):
                if n == 0 and r == 0:
                    continue
                series = (w**n) * (inv**r)
                for d in range(1, 13):
                    assert lagrange_coeff(n, r, d) == series.coeff({"x": d}), (n, r, d)
        for k in range(1, 11):
            for d in range(1, 13):
                assert a_series_coeff(k, d) == lagrange_coeff(0, k, d), (k, d)

    run_criterion("14 closed-forms-and-lagrange-double-sum", body)


def test_criterion_15_elsv_matches_cutjoin(deep_table, fitted):
    def body():
        _, _, hodge = fitted
        checked = 0
        for g in (0, 1, 2):
            for d in range(3, 6):
                for alpha in partitions(d):
                    if len(alpha) < 3:
                        continue
                    got = elsv_hurwitz(g, alpha, hodge)
                    assert got == deep_table.value(g, Partition(alpha)), (g, alpha)
                    checked += 1
        assert checked == 21

    run_criterion("15 elsv-matches-cutjoin-d5-g2", body)

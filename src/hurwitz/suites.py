"""The `verify` suites: checks of the paper's claims on exact tables.

`SUITES` maps a suite's name to its runner and default `--dmax`.  A runner
takes the command's `Session` (a `cli` class; this module imports nothing
from `cli`, so the two form no cycle) and the `--dmax`, returns one record
per check, and raises `ValueError` for a `--dmax` under which it would
compare nothing.  A new check goes in its runner, with its case in
`PERTURBATIONS` (tests/test_cli.py).
"""

from __future__ import annotations

import math

from .algebra import lagrange_coeff, rational_str
from .ansatz import TContext, XpContext, verify_change_theorem, verify_delta_annihilation
from .ansatz import verify_euler_square, verify_genus_expansion, verify_phi_shift_expansion
from .ansatz import verify_xi_on_I
from .oracle import connected_hurwitz
from . import golden, simple_hurwitz

__all__ = ["SUITES"]


def _check(name: str, ok: bool, detail: dict) -> dict:
    """The record of a check that compares no pair of series."""
    return {"check": name, "status": "pass" if ok else "fail", "detail": detail}


def _suite_oracle_vs_cutjoin(session: Session, dmax: int) -> list[dict]:
    r_max = 2 * dmax + 6
    oracle = connected_hurwitz(dmax, r_max // 2, r_max)
    # r >= 2g on every entry, so genus r_max // 2 reaches all of r <= r_max
    cj = session.table(dmax, r_max // 2).restricted(r_max)
    name = f"oracle-vs-cutjoin-d{dmax}-r{r_max}"
    for g, alpha in sorted(oracle.entries.keys() | cj.entries.keys()):
        a, b = oracle.value(g, alpha), cj.value(g, alpha)
        if a != b:
            mismatch = {
                "g": g,
                "alpha": list(alpha),
                "oracle": rational_str(a),
                "cutjoin": rational_str(b),
            }
            return [_check(name, False, mismatch)]
    return [_check(name, True, {"entries": len(cj.entries)})]


def _suite_change_theorem(session: Session, dmax: int) -> list[dict]:
    if dmax < 2:
        # H^g of degree 1 is 0 for g >= 1, so both sides would be 0
        raise ValueError(
            f"change-theorem check would compare nothing: --dmax must be >= 2, got {dmax}"
        )
    table = session.table(dmax, 2)
    hodge = session.brackets(2)
    ctx = XpContext(dmax)
    return [verify_euler_square(table, ctx)] + [
        verify_change_theorem(g, table, hodge, ctx) for g in (0, 1, 2)
    ]


def _suite_genus_expansion(session: Session, dmax: int) -> list[dict]:
    if not 2 <= dmax <= 8:
        # at --dmax 1 the xi-image and phi-shift checks see one monomial each
        raise ValueError(f"genus-expansion checks run for 2 <= --dmax <= 8, got {dmax}")
    form = session.form(2)
    hodge = session.brackets(2)
    checks = verify_genus_expansion(2, form, hodge)
    checks.append(verify_delta_annihilation(1, hodge))
    checks.append(verify_delta_annihilation(2, hodge))
    ctx, tctx = XpContext(dmax), TContext(4 + dmax, dmax)
    for k in range(5):
        checks.append(verify_xi_on_I(k, ctx, tctx))
        checks.append(verify_phi_shift_expansion(k, ctx))
    return checks


def _suite_recursions(session: Session, dmax: int) -> list[dict]:
    if dmax < 2:
        raise ValueError(f"recurrence check would compare nothing: --dmax must be >= 2, got {dmax}")
    table = session.table(dmax, 3)
    # RECURRENCES and DIFFERENTIAL_IDENTITIES share lists: each distinct list
    # object is checked once on d = 1..dmax, and every check of it reads that run
    every = (*golden.RECURRENCES.values(), *golden.DIFFERENTIAL_IDENTITIES.values())
    runs = {
        id(terms): simple_hurwitz.verify_recurrence(terms, table, range(1, dmax + 1))["failures"]
        for terms in {id(t): t for t in every}.values()
    }
    checks = []
    for name, terms in sorted(golden.RECURRENCES.items()):
        # a recurrence is read from d = 2 on
        failed = [f for f in runs[id(terms)] if f["d"] >= 2]
        checks.append(_check(f"recurrence-{name}-d{dmax}", not failed, {"failures": failed}))
    for name, terms in sorted(golden.DIFFERENTIAL_IDENTITIES.items()):
        symbolic_zero = simple_hurwitz.differential_identity_wexpr(terms).is_zero()
        numeric = {str(f["d"]): f["residual"] for f in runs[id(terms)]}
        detail = {"symbolic_zero": symbolic_zero, "numeric_failures": numeric}
        checks.append(_check(f"differential-{name}", symbolic_zero and not numeric, detail))
    result = simple_hurwitz.search_recursions(golden.SEARCH_FAMILY_26, table, d_verify=dmax)
    basis = [{i: c for i, c in enumerate(vec) if c} for vec in result["basis"]]
    ok = (
        result["dimension"] == golden.SEARCH_FAMILY_26_NULLITY
        and basis == golden.SEARCH_FAMILY_26_BASIS
        and not result["numeric_failures"]
    )
    checks.append(_check("search-family-26-nullity", ok, {"dimension": result["dimension"]}))
    return checks


def _suite_closed_forms(session: Session, dmax: int) -> list[dict]:
    if dmax < 2:
        # H^g_(1) = 0 for g >= 1, and so is every genus-1..3 closed form at d = 1
        raise ValueError(
            f"closed-form checks would compare nothing: --dmax must be >= 2, got {dmax}"
        )
    d_table = max(dmax, 10)
    table = session.table(d_table, 3)
    # H^g_{(1^d)} for d <= d_table, read once per genus
    h = {g: simple_hurwitz.one_part_column(table, g, d_table) for g in range(4)}
    degrees = range(1, dmax + 1)
    results = []

    # each pinned D^n H~_g, expanded in x, against the table: [x^d] of it
    # is d^n H^g_{(1^d)} / (2d + 2g - 2)!
    for g, n in sorted(golden.PINNED_W_SERIES):
        series = simple_hurwitz.wexpr_to_xseries(simple_hurwitz.pinned(g, n), dmax)
        ok = all(
            series.coeff({"x": d}) * math.factorial(2 * d + 2 * g - 2) == d**n * h[g][d]
            for d in degrees
        )
        results.append((f"w-series-display-g{g}-n{n}", ok))
    for g in (2, 3):
        ok = simple_hurwitz.wexpr_from_ansatz(session.form(g)) == simple_hurwitz.wexpr_for(g, 0)
        results.append((f"fitted-form-matches-display-g{g}", ok))
    for g, coeffs in sorted(golden.POLE_FORM_COEFFS.items()):
        form = simple_hurwitz.pole_form(coeffs.items())
        ok = all(
            simple_hurwitz.extract_coeff(form, d) * math.factorial(2 * d + 2 * g - 2) == h[g][d]
            for d in degrees
        )
        results.append((f"pole-form-display-g{g}", ok))
    c = session.form(2).constants
    agg = golden.AGGREGATE_CONSTANT_CHECKS_G2
    results.append(
        (
            "fitted-aggregates-g2",
            c[(2,)] + c[(3,)] + c[(4,)] == agg["singleton_sum"]
            and c[(2, 2)] / 2 + c[(2, 3)] == agg["pair_weighted_sum"]
            and c[(2, 2, 2)] == agg["triple"],
        )
    )
    results.append(
        ("a-combination-g3", all(simple_hurwitz.genus3_a_form(d) == h[3][d] for d in degrees))
    )
    results.append(
        ("polynomial-form-g3", all(simple_hurwitz.genus3_p_form(d) == h[3][d] for d in degrees))
    )
    lag_ok = all(
        simple_hurwitz.a_series_coeff(k, d) == lagrange_coeff(0, k, d)
        for k in range(1, 11)
        for d in range(1, max(dmax, 12) + 1)
    )
    results.append(("a-series-vs-lagrange", lag_ok))
    low_ok = all(
        simple_hurwitz.closed_form_simple(g, d) == h[g][d] for g in (0, 1, 2, 3) for d in degrees
    )
    results.append(("closed-form-low-genus", low_ok))
    results.append(
        ("spot-values", all(h[g][d] == v for (g, d), v in golden.SPOT_VALUES.items()))
    )
    return [_check(name, ok, {}) for name, ok in results]


SUITES = {
    "change-theorem": (_suite_change_theorem, 8),
    "genus-expansion": (_suite_genus_expansion, 8),
    "recursions": (_suite_recursions, 10),
    "closed-forms": (_suite_closed_forms, 10),
    "oracle-vs-cutjoin": (_suite_oracle_vs_cutjoin, 5),
}

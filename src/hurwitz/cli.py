"""Command-line surface.

Commands: `hurwitz` (one number, by any method), `table` (bulk exact
tables), `fit` (pole-form constants + primitive brackets), `hodge` (one
bracket), `verify` (named identity suites), `search` (recurrence null
spaces over a term family).  All output is exact-rational JSON or CSV,
deterministic for a fixed configuration.

Exit codes: 0 success; 1 a verification failed; 2 usage error; 3 memory
budget exceeded; 4 malformed family file; 141 stdout closed by its reader
(128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from fractions import Fraction

from .algebra import lagrange_coeff, rational_str
from .ansatz import (
    AnsatzForm,
    TContext,
    XpContext,
    fit_constants,
    verify_change_theorem,
    verify_delta_annihilation,
    verify_euler_square,
    verify_genus_expansion,
    verify_phi_shift_expansion,
    verify_xi_on_I,
)
from .cutjoin import hurwitz_number, hurwitz_via_cutjoin
from .hodge import (
    DegenerateProfileError,
    HodgeKey,
    HodgeTable,
    MissingPrimitiveError,
    elsv_hurwitz,
    evaluate,
    validity_gate,
)
from .oracle import (
    BudgetExceededError,
    HurwitzTable,
    connected_hurwitz,
    riemann_hurwitz_r,
)
from .partitions import Partition
from . import golden, simple_hurwitz

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_FAMILY = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a reader gone

_METHODS = ("oracle", "cutjoin", "elsv", "closed-form")
_SUITES = (
    "change-theorem",
    "genus-expansion",
    "recursions",
    "closed-forms",
    "oracle-vs-cutjoin",
)


class FamilyFormatError(ValueError):
    """Family file is not a JSON list of {"factors": [[g, p], ...]}."""


# -- per-invocation state ---------------------------------------------------------


class Session:
    """Work shared by the steps of one CLI invocation.

    `tables` holds the cut-and-join tables keyed by (d_max, g_max), `forms`
    the fitted pole forms by genus, and `hodge` the bracket table that
    every fit writes its primitives into.
    """

    def __init__(self) -> None:
        self.tables: dict[tuple[int, int], HurwitzTable] = {}
        self.forms: dict[int, AnsatzForm] = {}
        self.hodge = HodgeTable()

    def table(self, d_max: int, g_max: int) -> HurwitzTable:
        """The cut-and-join table of degree <= d_max and genus <= g_max.

        A table at least as large in both bounds is trimmed instead of
        recomputed: its entries are exact, since the evolution it came from
        prunes by degree and genus, which no cut-and-join term lowers.
        """
        key = (d_max, g_max)
        if key not in self.tables:
            larger = next(
                (t for (d, g), t in self.tables.items() if d >= d_max and g >= g_max),
                None,
            )
            if larger is None:
                self.tables[key] = hurwitz_via_cutjoin(d_max, g_max)
            else:
                trimmed = {
                    (g, alpha): v
                    for (g, alpha), v in larger.entries.items()
                    if g <= g_max and alpha.d <= d_max
                }
                self.tables[key] = HurwitzTable(larger.method, trimmed)
        return self.tables[key]

    def form(self, g: int) -> AnsatzForm:
        if g not in self.forms:
            d_fit = 2 * g + 2
            self.forms[g] = fit_constants(g, self.table(d_fit, g), d_fit, self.hodge)
        return self.forms[g]

    def brackets(self, g: int) -> HodgeTable:
        """The bracket table, holding the fitted primitives of genus g."""
        if g >= 2:
            self.form(g)
        return self.hodge


# -- output plumbing --------------------------------------------------------------


def _emit(text: str, out_path: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as ex:
            raise ValueError(f"cannot write {out_path}: {ex.strerror or ex}") from ex
    else:
        # flush here, so that a reader gone raises where main catches it
        sys.stdout.write(text)
        sys.stdout.flush()


def _table_csv(table: HurwitzTable) -> str:
    import csv  # only this command writes CSV; keep it off the import path

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["g", "alpha", "r", "value"])
    for rec in table.to_json_records():
        writer.writerow(
            [rec["g"], ",".join(map(str, rec["alpha"])), rec["r"], rec["value"]]
        )
    return buf.getvalue()


def _parse_parts(text: str, *, minimum: int) -> tuple[int, ...]:
    if text == "":
        return ()
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError as ex:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from ex
    if any(p < minimum for p in parts):
        raise ValueError(f"parts must be >= {minimum}: {text!r}")
    return parts


def _check_bounds(args: argparse.Namespace) -> None:
    """Refuse degree and genus bounds under which there is nothing to compute."""
    for name, minimum in (("dmax", 1), ("gmax", 0), ("rmax", 0)):
        value = getattr(args, name, None)
        if value is not None and value < minimum:
            raise ValueError(f"--{name} must be >= {minimum}, got {value}")


# -- commands ---------------------------------------------------------------------


def _cmd_hurwitz(args: argparse.Namespace, session: Session) -> int:
    if args.g < 0:
        raise ValueError("genus must be >= 0")
    alpha = Partition.of(_parse_parts(args.alpha, minimum=1))
    if not alpha:
        raise ValueError("profile must be non-empty")
    g, d = args.g, alpha.d
    r = riemann_hurwitz_r(g, alpha)
    if args.method == "oracle":
        table = connected_hurwitz(d, g, r)
        value = table.value(g, alpha)
    elif args.method == "cutjoin":
        value = hurwitz_number(g, alpha)
    elif args.method == "elsv":
        if g > 3:
            raise ValueError("elsv needs fitted primitives; supported for g <= 3")
        value = elsv_hurwitz(g, alpha, session.brackets(g))
    else:  # closed-form
        if set(alpha) != {1}:
            raise ValueError("closed-form method covers only profiles (1,...,1)")
        value = simple_hurwitz.closed_form_simple(g, d)
    obj = {
        "g": g,
        "alpha": list(alpha),
        "r": r,
        "value": rational_str(value),
        "method": args.method,
    }
    _emit(json.dumps(obj, indent=2), args.out)
    return EXIT_OK


def _cmd_table(args: argparse.Namespace, session: Session) -> int:
    if args.method == "oracle":
        r_max = args.rmax if args.rmax is not None else 2 * args.dmax + 2 * args.gmax - 2
        table = connected_hurwitz(args.dmax, args.gmax, r_max)
    elif args.method == "cutjoin":
        table = session.table(args.dmax, args.gmax)
        if args.rmax is not None:
            table = table.restricted(r_max=args.rmax)
    else:
        raise ValueError("table method must be oracle or cutjoin")
    if args.format == "csv":
        _emit(_table_csv(table), args.out)
    else:
        _emit(table.to_json(), args.out)
    return EXIT_OK


def _cmd_fit(args: argparse.Namespace, session: Session) -> int:
    if args.g < 2:
        raise ValueError("pole-form constants exist for genus >= 2")
    form = session.form(args.g)
    primitives = [
        rec
        for rec in session.hodge.to_json_records()
        if rec["g"] == args.g and rec["source"] == "fitted"
    ]
    obj = {"form": form.to_json_obj(), "primitives": primitives}
    _emit(json.dumps(obj, indent=2), args.out)
    return EXIT_OK


def _cmd_hodge(args: argparse.Namespace, session: Session) -> int:
    theta = _parse_parts(args.theta, minimum=0)
    key = HodgeKey.make(args.g, theta, args.k)
    if args.g > 3:
        raise ValueError("primitive brackets are fitted for g <= 3 only")
    # a key the gate zeroes needs no fitted primitives
    valid = validity_gate(key) == "valid"
    value = evaluate(key, session.brackets(args.g) if valid else session.hodge)
    obj = {
        "g": args.g,
        "theta": sorted(theta),
        "k": args.k,
        "value": rational_str(value),
    }
    _emit(json.dumps(obj, indent=2), args.out)
    return EXIT_OK


def _load_family(path: str | None) -> list[dict]:
    if path is None:
        return golden.SEARCH_FAMILY_26
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as ex:
        raise FamilyFormatError(f"cannot read family file: {ex}") from ex
    if not isinstance(raw, list) or not raw:
        raise FamilyFormatError("family file must be a non-empty JSON list")
    family = []
    for entry in raw:
        if not isinstance(entry, dict) or "factors" not in entry:
            raise FamilyFormatError(f"family term missing 'factors': {entry!r}")
        factors = entry["factors"]
        if not isinstance(factors, list) or not factors:
            raise FamilyFormatError(f"'factors' must be a non-empty list: {entry!r}")
        clean = []
        for pair in factors:
            if (
                not isinstance(pair, (list, tuple))
                or len(pair) != 2
                or not all(isinstance(v, int) and v >= 0 for v in pair)
            ):
                raise FamilyFormatError(f"factor must be [g, p] of ints >= 0: {pair!r}")
            clean.append((pair[0], pair[1]))
        family.append({"factors": clean})
    return family


def _cmd_search(args: argparse.Namespace, session: Session) -> int:
    family = _load_family(args.family)
    # each term's W-expression refuses a genus above 3 or a term it cannot
    # represent, so build them before the table
    exprs = simple_hurwitz.family_wexprs(family)
    table = session.table(args.dmax, max(g for term in family for g, _ in term["factors"]))
    result = simple_hurwitz.search_recursions(family, table, d_verify=args.dmax, exprs=exprs)
    obj = {
        "family_size": len(family),
        "dimension": result["dimension"],
        "rows": [[kind, j] for kind, j in result["rows"]],
        "basis": [[rational_str(c) for c in vec] for vec in result["basis"]],
        "numeric_failures": [
            {
                "vector": [rational_str(c) for c in item["vector"]],
                "d": item["d"],
                "residual": rational_str(item["residual"]),
            }
            for item in result["numeric_failures"]
        ],
    }
    _emit(json.dumps(obj, indent=2), args.out)
    return EXIT_VERIFY if result["numeric_failures"] else EXIT_OK


# -- verification suites ----------------------------------------------------------


def _suite_oracle_vs_cutjoin(session: Session, dmax: int) -> list[dict]:
    r_max = 2 * dmax + 6
    oracle = connected_hurwitz(dmax, r_max // 2, r_max)
    # r >= 2g on every entry, so genus r_max // 2 reaches all of r <= r_max
    cj = session.table(dmax, r_max // 2).restricted(r_max)
    checks = []
    mismatch = None
    for key in sorted(set(oracle.entries) | set(cj.entries)):
        a, b = oracle.entries.get(key), cj.entries.get(key)
        if a != b:
            mismatch = {"g": key[0], "alpha": list(key[1]), "oracle": str(a), "cutjoin": str(b)}
            break
    checks.append(
        {
            "check": f"oracle-vs-cutjoin-d{dmax}-r{r_max}",
            "status": "pass" if mismatch is None else "fail",
            "detail": mismatch or {"entries": len(cj.entries)},
        }
    )
    return checks


def _suite_change_theorem(session: Session, dmax: int) -> list[dict]:
    if dmax < 2:
        # H^g of degree 1 is 0 for g >= 1, so both sides would be 0
        raise ValueError(
            f"change-theorem check would compare nothing: --dmax must be >= 2, got {dmax}"
        )
    table = session.table(dmax, 2)
    hodge = session.brackets(2)
    ctx = XpContext(dmax)
    reports = [verify_euler_square(table, ctx)]
    reports += [verify_change_theorem(g, table, hodge, ctx) for g in (0, 1, 2)]
    return [r.to_json_obj() for r in reports]


def _suite_genus_expansion(session: Session, dmax: int) -> list[dict]:
    if not 2 <= dmax <= 8:
        # at --dmax 1 the xi-image and phi-shift checks see one monomial each
        raise ValueError(f"genus-expansion checks run for 2 <= --dmax <= 8, got {dmax}")
    form = session.form(2)
    hodge = session.brackets(2)
    reports = list(verify_genus_expansion(2, form, hodge))
    reports.append(verify_delta_annihilation(1, hodge))
    reports.append(verify_delta_annihilation(2, hodge))
    ctx, tctx = XpContext(dmax), TContext(4 + dmax, dmax)
    for k in range(5):
        reports.append(verify_xi_on_I(k, ctx, tctx))
        reports.append(verify_phi_shift_expansion(k, ctx))
    return [r.to_json_obj() for r in reports]


def _suite_recursions(session: Session, dmax: int) -> list[dict]:
    if dmax < 2:
        raise ValueError(f"recurrence check would compare nothing: --dmax must be >= 2, got {dmax}")
    table = session.table(max(dmax, 10), 3)
    checks = []
    for name, spec in sorted(golden.RECURRENCES.items()):
        rep = simple_hurwitz.verify_recurrence(spec, table, range(2, dmax + 1))
        checks.append(
            {
                "check": f"recurrence-{name}-d{dmax}",
                "status": rep["status"],
                "detail": {"failures": rep["failures"]},
            }
        )
    for name, terms in sorted(golden.DIFFERENTIAL_IDENTITIES.items()):
        expr = simple_hurwitz.differential_identity_wexpr(terms)
        numeric = simple_hurwitz.differential_identity_residuals(
            terms, table, range(1, dmax + 1)
        )
        ok = expr.is_zero() and not numeric
        checks.append(
            {
                "check": f"differential-{name}",
                "status": "pass" if ok else "fail",
                "detail": {
                    "symbolic_zero": expr.is_zero(),
                    "numeric_failures": {str(d): rational_str(v) for d, v in numeric.items()},
                },
            }
        )
    result = simple_hurwitz.search_recursions(
        golden.SEARCH_FAMILY_26, table, d_verify=dmax
    )
    checks.append(
        {
            "check": "search-family-26-nullity",
            "status": "pass"
            if result["dimension"] == golden.SEARCH_FAMILY_26_NULLITY
            and not result["numeric_failures"]
            else "fail",
            "detail": {"dimension": result["dimension"]},
        }
    )
    return checks


def _suite_closed_forms(session: Session, dmax: int) -> list[dict]:
    table = session.table(max(dmax, 10), 3)
    checks = []

    def add(name: str, ok: bool, detail=None) -> None:
        checks.append(
            {"check": name, "status": "pass" if ok else "fail", "detail": detail or {}}
        )

    # each pinned D^n H~_g, expanded in x, against the table: [x^d] of it
    # is d^n H^g_{(1^d)} / (2d + 2g - 2)!
    for (g, n), data in sorted(golden.PINNED_W_SERIES.items()):
        pinned = simple_hurwitz.WExpr(data["laurent"], data["log"])
        series = simple_hurwitz.wexpr_to_xseries(pinned, dmax)
        ok = all(
            series.coeff({"x": d}) * math.factorial(2 * d + 2 * g - 2)
            == d**n * table.value(g, Partition((1,) * d))
            for d in range(1, dmax + 1)
        )
        add(f"w-series-display-g{g}-n{n}", ok)
    for g in (2, 3):
        fitted = simple_hurwitz.wexpr_from_ansatz(session.form(g))
        add(f"fitted-form-matches-display-g{g}", fitted == simple_hurwitz.wexpr_for(g, 0))
    for g, coeffs in sorted(golden.POLE_FORM_COEFFS.items()):
        ok = True
        for d in range(1, dmax + 1):
            total = sum(
                (c * lagrange_coeff(m, r, d) for (m, r), c in coeffs.items()),
                Fraction(0),
            )
            if total * math.factorial(2 * d + 2 * g - 2) != table.value(
                g, Partition((1,) * d)
            ):
                ok = False
        add(f"pole-form-display-g{g}", ok)
    form2 = session.form(2)
    agg = golden.AGGREGATE_CONSTANT_CHECKS_G2
    add(
        "fitted-aggregates-g2",
        form2.constants[(2,)] + form2.constants[(3,)] + form2.constants[(4,)]
        == agg["singleton_sum"]
        and form2.constants[(2, 2)] / 2 + form2.constants[(2, 3)]
        == agg["pair_weighted_sum"]
        and form2.constants[(2, 2, 2)] == agg["triple"],
    )
    a_ok = all(
        simple_hurwitz.genus3_a_form(d) == table.value(3, Partition((1,) * d))
        for d in range(1, dmax + 1)
    )
    p_ok = all(
        simple_hurwitz.genus3_p_form(d) == table.value(3, Partition((1,) * d))
        for d in range(1, dmax + 1)
    )
    add("a-combination-g3", a_ok)
    add("polynomial-form-g3", p_ok)
    lag_ok = all(
        simple_hurwitz.a_series_coeff(k, d) == lagrange_coeff(0, k, d)
        for k in range(1, 11)
        for d in range(1, 13)
    )
    add("a-series-vs-lagrange", lag_ok)
    low_ok = all(
        simple_hurwitz.closed_form_simple(g, d) == table.value(g, Partition((1,) * d))
        for g in (0, 1, 2, 3)
        for d in range(1, dmax + 1)
    )
    add("closed-form-low-genus", low_ok)
    spot_ok = all(
        table.value(g, Partition((1,) * d)) == v
        for (g, d), v in golden.SPOT_VALUES.items()
    )
    add("spot-values", spot_ok)
    return checks


_SUITE_RUNNERS = {
    "oracle-vs-cutjoin": (_suite_oracle_vs_cutjoin, 5),
    "change-theorem": (_suite_change_theorem, 8),
    "genus-expansion": (_suite_genus_expansion, 8),
    "recursions": (_suite_recursions, 10),
    "closed-forms": (_suite_closed_forms, 10),
}


def _cmd_verify(args: argparse.Namespace, session: Session) -> int:
    runner, default_dmax = _SUITE_RUNNERS[args.suite]
    dmax = args.dmax if args.dmax is not None else default_dmax
    checks = runner(session, dmax)
    if args.format == "json":
        _emit(json.dumps({"suite": args.suite, "checks": checks}, indent=2), args.out)
    else:
        lines = []
        for check in checks:
            mark = "PASS" if check["status"] == "pass" else "FAIL"
            lines.append(f"{mark} {check['check']}")
        _emit("\n".join(lines), args.out)
    return EXIT_OK if all(c["status"] == "pass" for c in checks) else EXIT_VERIFY


# -- argument parsing -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hurwitz",
        description="Exact Hurwitz numbers, Hodge integrals, and their identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hurwitz", help="one Hurwitz number by a chosen method")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--alpha", required=True, help="profile parts, e.g. 1,1,2")
    p.add_argument("--method", choices=_METHODS, default="cutjoin")
    p.add_argument("--out")

    p = sub.add_parser("table", help="bulk table of Hurwitz numbers")
    p.add_argument("--method", choices=("oracle", "cutjoin"), default="cutjoin")
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--gmax", type=int, default=2)
    p.add_argument("--rmax", type=int)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")

    p = sub.add_parser("fit", help="pole-form constants for one genus")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--out")

    p = sub.add_parser("hodge", help="evaluate one bracket")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--theta", required=True, help="tau subscripts, e.g. 0,0,1 ('' for none)")
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--out")

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", choices=_SUITES, required=True)
    p.add_argument("--dmax", type=int)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out")

    p = sub.add_parser("search", help="null space of a recurrence family")
    p.add_argument("--family", help="JSON file: [{'factors': [[g, p], ...]}, ...]")
    p.add_argument("--dmax", type=int, default=10)
    p.add_argument("--out")

    return parser


_COMMANDS = {
    "hurwitz": _cmd_hurwitz,
    "table": _cmd_table,
    "fit": _cmd_fit,
    "hodge": _cmd_hodge,
    "verify": _cmd_verify,
    "search": _cmd_search,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_bounds(args)
        return _COMMANDS[args.command](args, Session())
    except BudgetExceededError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_BUDGET
    except FamilyFormatError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_FAMILY
    except (ValueError, DegenerateProfileError, MissingPrimitiveError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader is gone: send the buffered rest to devnull, so the exit flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())

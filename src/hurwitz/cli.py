"""Command-line surface.

Commands: `hurwitz` (one number, by any method), `table` (bulk exact
tables), `fit` (pole-form constants + primitive brackets), `hodge` (one
bracket), `verify` (named identity suites), `search` (recurrence null
spaces over a term family), their flags in `_OPTIONS`, read by `parse_args`
without argparse, whose import every one-answer process would pay for.  All
output is exact-rational JSON or CSV, deterministic for a fixed configuration.

Exit codes: 0 success; 1 a verification or an internal check failed, a
fit's contradictory rows included (one `error: internal check failed: ...`
line on stderr, no traceback); 2 usage error; 3 memory budget exceeded; 4
malformed family file; 141 stdout closed by its reader (128 + SIGPIPE).
"""

from __future__ import annotations

import io
import json
import math
import os
import sys
from fractions import Fraction
from types import SimpleNamespace

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
from .linalg import InconsistentSystemError
from .oracle import BudgetExceededError, connected_hurwitz
from .partitions import Partition
from .table import HurwitzTable, riemann_hurwitz_r
from . import golden, simple_hurwitz

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_FAMILY = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a reader gone


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
        """A cut-and-join table covering degree <= d_max and genus <= g_max.

        The first cached table at least as large in both bounds is handed
        out as it is, so a caller reads only the entries within its own
        bounds; they are exact, since the evolution prunes by degree and
        genus, which no cut-and-join term lowers.
        """
        for (d, g), table in self.tables.items():
            if d >= d_max and g >= g_max:
                return table
        table = self.tables[d_max, g_max] = hurwitz_via_cutjoin(d_max, g_max)
        return table

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
        writer.writerow([rec["g"], ",".join(map(str, rec["alpha"])), rec["r"], rec["value"]])
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


def _check_bounds(args: SimpleNamespace) -> None:
    """Refuse degree and genus bounds under which there is nothing to compute."""
    for name, minimum in (("dmax", 1), ("gmax", 0), ("rmax", 0)):
        value = getattr(args, name, None)
        if value is not None and value < minimum:
            raise ValueError(f"--{name} must be >= {minimum}, got {value}")


# -- commands ---------------------------------------------------------------------


def _cmd_hurwitz(args: SimpleNamespace, session: Session) -> int:
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


def _cmd_table(args: SimpleNamespace, session: Session) -> int:
    if args.method == "oracle":
        r_max = args.rmax if args.rmax is not None else 2 * args.dmax + 2 * args.gmax - 2
        table = connected_hurwitz(args.dmax, args.gmax, r_max)
    else:
        table = hurwitz_via_cutjoin(args.dmax, args.gmax)
        if args.rmax is not None:
            table = table.restricted(r_max=args.rmax)
    if args.format == "csv":
        _emit(_table_csv(table), args.out)
    else:
        _emit(table.to_json(), args.out)
    return EXIT_OK


def _cmd_fit(args: SimpleNamespace, session: Session) -> int:
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


def _cmd_hodge(args: SimpleNamespace, session: Session) -> int:
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


def _cmd_search(args: SimpleNamespace, session: Session) -> int:
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


def _check(name: str, ok: bool, detail: dict) -> dict:
    """The record of a check that compares no pair of series."""
    return {"check": name, "status": "pass" if ok else "fail", "detail": detail}


def _suite_oracle_vs_cutjoin(session: Session, dmax: int) -> list[dict]:
    r_max = 2 * dmax + 6
    oracle = connected_hurwitz(dmax, r_max // 2, r_max)
    # r >= 2g on every entry, so genus r_max // 2 reaches all of r <= r_max
    cj = hurwitz_via_cutjoin(dmax, r_max // 2).restricted(r_max)
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
    table = session.table(max(dmax, 10), 3)
    checks = []
    for name, spec in sorted(golden.RECURRENCES.items()):
        failures = simple_hurwitz.verify_recurrence(spec, table, range(2, dmax + 1))["failures"]
        checks.append(_check(f"recurrence-{name}-d{dmax}", not failures, {"failures": failures}))
    for name, terms in sorted(golden.DIFFERENTIAL_IDENTITIES.items()):
        symbolic_zero = simple_hurwitz.differential_identity_wexpr(terms).is_zero()
        numeric = simple_hurwitz.differential_identity_residuals(
            terms, table, range(1, dmax + 1)
        )
        detail = {
            "symbolic_zero": symbolic_zero,
            "numeric_failures": {str(d): rational_str(v) for d, v in numeric.items()},
        }
        checks.append(_check(f"differential-{name}", symbolic_zero and not numeric, detail))
    result = simple_hurwitz.search_recursions(
        golden.SEARCH_FAMILY_26, table, d_verify=dmax
    )
    ok = result["dimension"] == golden.SEARCH_FAMILY_26_NULLITY and not result["numeric_failures"]
    checks.append(_check("search-family-26-nullity", ok, {"dimension": result["dimension"]}))
    return checks


def _suite_closed_forms(session: Session, dmax: int) -> list[dict]:
    d_table = max(dmax, 10)
    table = session.table(d_table, 3)
    # H^g_{(1^d)} for d <= d_table, read once per genus
    h = {g: simple_hurwitz.one_part_column(table, g, d_table) for g in range(4)}
    degrees = range(1, dmax + 1)
    results = []

    # each pinned D^n H~_g, expanded in x, against the table: [x^d] of it
    # is d^n H^g_{(1^d)} / (2d + 2g - 2)!
    for (g, n), data in sorted(golden.PINNED_W_SERIES.items()):
        pinned = simple_hurwitz.WExpr(data["laurent"], data["log"])
        series = simple_hurwitz.wexpr_to_xseries(pinned, dmax)
        ok = all(
            series.coeff({"x": d}) * math.factorial(2 * d + 2 * g - 2) == d**n * h[g][d]
            for d in degrees
        )
        results.append((f"w-series-display-g{g}-n{n}", ok))
    for g in (2, 3):
        fitted = simple_hurwitz.wexpr_from_ansatz(session.form(g))
        ok = fitted == simple_hurwitz.wexpr_for(g, 0)
        results.append((f"fitted-form-matches-display-g{g}", ok))
    for g, coeffs in sorted(golden.POLE_FORM_COEFFS.items()):
        ok = all(
            sum((c * lagrange_coeff(m, r, d) for (m, r), c in coeffs.items()), Fraction(0))
            * math.factorial(2 * d + 2 * g - 2)
            == h[g][d]
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


_SUITE_RUNNERS = {
    "change-theorem": (_suite_change_theorem, 8),
    "genus-expansion": (_suite_genus_expansion, 8),
    "recursions": (_suite_recursions, 10),
    "closed-forms": (_suite_closed_forms, 10),
    "oracle-vs-cutjoin": (_suite_oracle_vs_cutjoin, 5),
}


def _cmd_verify(args: SimpleNamespace, session: Session) -> int:
    runner, default_dmax = _SUITE_RUNNERS[args.suite]
    dmax = args.dmax if args.dmax is not None else default_dmax
    checks = runner(session, dmax)
    if args.format == "json":
        _emit(json.dumps({"suite": args.suite, "checks": checks}, indent=2), args.out)
    else:
        _emit("\n".join(f"{c['status'].upper()} {c['check']}" for c in checks), args.out)
    return EXIT_OK if all(c["status"] == "pass" for c in checks) else EXIT_VERIFY


# -- argument parsing -------------------------------------------------------------

# command -> flag -> (kind, default): a kind is int, str or a tuple of
# choices, and a default of ... marks a flag that must be given
_OPTIONS = {
    "hurwitz": {"g": (int, ...), "alpha": (str, ...),
                "method": (("oracle", "cutjoin", "elsv", "closed-form"), "cutjoin"),
                "out": (str, None)},
    "table": {"method": (("oracle", "cutjoin"), "cutjoin"), "dmax": (int, ...), "gmax": (int, 2),
              "rmax": (int, None), "format": (("json", "csv"), "json"), "out": (str, None)},
    "fit": {"g": (int, ...), "out": (str, None)},
    "hodge": {"g": (int, ...), "theta": (str, ...), "k": (int, 0), "out": (str, None)},
    "verify": {"suite": (tuple(_SUITE_RUNNERS), ...), "dmax": (int, None),
               "format": (("text", "json"), "text"), "out": (str, None)},
    "search": {"family": (str, None), "dmax": (int, 10), "out": (str, None)},
}


def _usage(command: str | None) -> str:
    if command not in _OPTIONS:
        return "\n".join(map(_usage, _OPTIONS))
    flags = []
    for name, (kind, default) in _OPTIONS[command].items():
        flag = f"--{name} " + (name.upper() if kind in (int, str) else "{" + ",".join(kind) + "}")
        flags.append(flag if default is ... else f"[{flag}]")
    return f"usage: hurwitz {command} [-h] " + " ".join(flags)


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The command and its flags, defaults filled in, from `--flag value` or
    `--flag=value`: the last value wins and may be empty or start with "-".
    -h or --help prints usage and exits 0; a usage error prints `error: ...`
    and usage to stderr and exits 2."""
    command = argv[0] if argv else None

    def stop(code: int, error: str = ""):
        out = sys.stderr if code else sys.stdout
        print(error and f"error: {error}\n", _usage(command), sep="", file=out)
        raise SystemExit(code)

    if "-h" in argv or "--help" in argv:
        stop(EXIT_OK)
    options = _OPTIONS.get(command) or stop(EXIT_USAGE, "the first argument must be a command")
    given, tokens = {}, iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag[:2] != "--" or flag[2:] not in options:
            stop(EXIT_USAGE, f"unrecognized argument {token!r}")
        given[flag[2:]] = value if eq else next(tokens, ...)
    args = SimpleNamespace(command=command)
    for name, (kind, default) in options.items():
        value = given.get(name, default)
        if value is ...:
            stop(EXIT_USAGE, f"--{name} needs a value")
        if name in given and kind is int:
            try:
                value = int(value)
            except ValueError:
                stop(EXIT_USAGE, f"--{name}: invalid int value {value!r}")
        elif name in given and kind is not str and value not in kind:
            stop(EXIT_USAGE, f"--{name}: invalid choice {value!r}")
        setattr(args, name, value)
    return args


_COMMANDS = {
    "hurwitz": _cmd_hurwitz,
    "table": _cmd_table,
    "fit": _cmd_fit,
    "hodge": _cmd_hodge,
    "verify": _cmd_verify,
    "search": _cmd_search,
}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        _check_bounds(args)
        return _COMMANDS[args.command](args, Session())
    except BudgetExceededError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_BUDGET
    except FamilyFormatError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_FAMILY
    except (AssertionError, InconsistentSystemError) as ex:
        # a fit's contradictory rows come from the program's own tables
        print(f"error: internal check failed: {ex}", file=sys.stderr)
        return EXIT_VERIFY
    except (ValueError, DegenerateProfileError, MissingPrimitiveError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader is gone: send the buffered rest to devnull, so the exit flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())

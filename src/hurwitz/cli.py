"""Command-line surface.

Commands: `hurwitz` (one number, by any method), `table` (bulk exact
tables), `fit` (pole-form constants + primitive brackets), `hodge` (one
bracket), `verify` (one suite of `suites.SUITES`), `search` (recurrence null
spaces over a term family), each with its handler and flags in `_COMMANDS`,
which `parse_args` reads without argparse, whose import every one-answer
process would pay for.  All output is exact-rational JSON or CSV,
deterministic for a fixed configuration.

Exit codes: 0 success; 1 a verification or an internal check failed, a
fit's contradictory rows included (one `error: internal check failed: ...`
line on stderr, no traceback); 2 usage error; 3 too large: over the memory
budget, out of memory, or a recursion too deep, as reducing a bracket of
991 points is; 4 malformed family file; 141 stdout closed by its reader
(128 + SIGPIPE).

`run()` is the process entry point (`python -m hurwitz.cli` and the
installed `hurwitz` script); `main(argv)` is the in-process API.  `run`
calls `main` and then `gc.freeze()`, which moves every live object into the
permanent generation that the interpreter's exit-time collections skip, so
a command's process no longer walks its whole heap on the way out.  The
interpreter still flushes `sys.stdout` and `sys.stderr` and runs atexit
handlers after the freeze, but `main` must not leave output to those: every
write is closed or flushed inside `main`, as `_emit` does, so that an error
in writing is reported with `main`'s exit codes.
"""

from __future__ import annotations

import gc
import io
import json
import os
import sys
from types import SimpleNamespace

from .algebra import rational_str
from .ansatz import AnsatzForm, check_fit_size, fit_constants
from .cutjoin import hurwitz_number, hurwitz_via_cutjoin
from .hodge import (
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
from .suites import SUITES
from .table import HurwitzTable, riemann_hurwitz_r
from . import golden, simple_hurwitz

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_FAMILY = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a reader gone

FIT_G_MAX = 5  # the largest genus whose primitive brackets the fit serves


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
            check_fit_size(g, d_fit)  # a fit too small is refused before its table is built
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
    if args.method == "oracle":
        table = connected_hurwitz(d, g, riemann_hurwitz_r(g, alpha))
        value = table.value(g, alpha)
    elif args.method == "cutjoin":
        value = hurwitz_number(g, alpha)
    elif args.method == "elsv":
        if g > FIT_G_MAX:
            raise ValueError(f"elsv needs fitted primitives; supported for g <= {FIT_G_MAX}")
        value = elsv_hurwitz(g, alpha, session.brackets(g))
    else:  # closed-form
        if set(alpha) != {1}:
            raise ValueError("closed-form method covers only profiles (1,...,1)")
        value = simple_hurwitz.closed_form_simple(g, d)
    (record,) = HurwitzTable(args.method, {(g, alpha): value}).to_json_records()
    _emit(json.dumps(record, indent=2), args.out)
    return EXIT_OK


def _cmd_table(args: SimpleNamespace, session: Session) -> int:
    if args.method == "oracle":
        r_max = riemann_hurwitz_r(args.gmax, (1,) * args.dmax) if args.rmax is None else args.rmax
        table = connected_hurwitz(args.dmax, args.gmax, r_max)
    else:
        table = session.table(args.dmax, args.gmax)
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
    if args.g > FIT_G_MAX:
        raise ValueError(f"primitive brackets are fitted for g <= {FIT_G_MAX} only")
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
                # a bool is an int, but JSON true or false is no factor
                or not all(type(v) is int and v >= 0 for v in pair)
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


def _cmd_verify(args: SimpleNamespace, session: Session) -> int:
    runner, default_dmax = SUITES[args.suite]
    dmax = args.dmax if args.dmax is not None else default_dmax
    checks = runner(session, dmax)
    if args.format == "json":
        _emit(json.dumps({"suite": args.suite, "checks": checks}, indent=2), args.out)
    else:
        _emit("\n".join(f"{c['status'].upper()} {c['check']}" for c in checks), args.out)
    return EXIT_OK if all(c["status"] == "pass" for c in checks) else EXIT_VERIFY


# -- argument parsing -------------------------------------------------------------

# command -> (handler, flag -> (kind, default)): a kind is int, str or a
# tuple of choices, and a default of ... marks a flag that must be given
_COMMANDS = {
    "hurwitz": (_cmd_hurwitz, {"g": (int, ...), "alpha": (str, ...),
                "method": (("oracle", "cutjoin", "elsv", "closed-form"), "cutjoin"),
                "out": (str, None)}),
    "table": (_cmd_table, {"method": (("oracle", "cutjoin"), "cutjoin"), "dmax": (int, ...),
              "gmax": (int, 2), "rmax": (int, None), "format": (("json", "csv"), "json"),
              "out": (str, None)}),
    "fit": (_cmd_fit, {"g": (int, ...), "out": (str, None)}),
    "hodge": (_cmd_hodge, {"g": (int, ...), "theta": (str, ...), "k": (int, 0),
              "out": (str, None)}),
    "verify": (_cmd_verify, {"suite": (tuple(SUITES), ...), "dmax": (int, None),
               "format": (("text", "json"), "text"), "out": (str, None)}),
    "search": (_cmd_search, {"family": (str, None), "dmax": (int, 10), "out": (str, None)}),
}


def _usage(command: str | None) -> str:
    if command not in _COMMANDS:
        return "\n".join(map(_usage, _COMMANDS))
    flags = []
    for name, (kind, default) in _COMMANDS[command][1].items():
        flag = f"--{name} " + (name.upper() if kind in (int, str) else "{" + ",".join(kind) + "}")
        flags.append(flag if default is ... else f"[{flag}]")
    return f"usage: hurwitz {command} [-h] " + " ".join(flags)


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The command and its flags, defaults filled in, from `--flag value` or
    `--flag=value`: the last value wins and may be empty or start with "-".
    -h or --help in place of the command or of a flag prints usage and exits
    0; a usage error prints `error: ...` and usage to stderr and exits 2."""
    command = argv[0] if argv else None

    def stop(code: int, error: str = ""):
        out = sys.stderr if code else sys.stdout
        print(error and f"error: {error}\n", _usage(command), sep="", file=out, flush=True)
        raise SystemExit(code)

    if command in ("-h", "--help"):
        stop(EXIT_OK)
    _, options = _COMMANDS.get(command) or stop(EXIT_USAGE, "the first argument must be a command")
    given, tokens = {}, iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            stop(EXIT_OK)
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


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        _check_bounds(args)
        return _COMMANDS[args.command][0](args, Session())
    except BudgetExceededError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_BUDGET
    except RecursionError:
        print("error: too large: recursion deeper than the interpreter allows", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        print("error: too large: out of memory", file=sys.stderr)
        return EXIT_BUDGET
    except FamilyFormatError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_FAMILY
    except (AssertionError, InconsistentSystemError) as ex:
        # a fit's contradictory rows come from the program's own tables
        print(f"error: internal check failed: {ex}", file=sys.stderr)
        return EXIT_VERIFY
    except (ValueError, MissingPrimitiveError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader is gone: send the buffered rest to devnull, so the exit flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


def run() -> int:
    """Process entry point: `main()` on sys.argv, then freeze the heap so
    that the exit-time collections skip it.  Never call this in a process
    that goes on working."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())

"""Per-layer probes for the hurwitz CLI, installed from outside the package.

Run as ``python perfbench/probes.py <hurwitz argv...>`` with ``src`` on
PYTHONPATH: it imports ``hurwitz.cli``, wraps the public functions listed
in PROBES, runs ``cli.main`` with the given argv (stdout untouched), then
writes one line ``perfbench-trace: {json}`` to stderr holding the counters
of that process.

Rules the wrappers follow:

* every binding of a wrapped object is replaced, in every ``hurwitz.*``
  module and class, so names imported elsewhere (``cli`` imports
  ``hurwitz_via_cutjoin``) and class aliases (``__rmul__ = __mul__``) are
  reached too; a binding left behind in a module-level container, or a
  target that no longer exists, raises instead of reading 0;
* a probe times and counts only its outermost call, so a re-entrant
  function such as ``hodge.evaluate`` (which recurses through its module
  global) is measured once per top-level call;
* ``<probe>.self_s`` is the probe's time minus the time of probes of the
  same layer (module) running inside it, e.g. ``cutjoin.connected`` minus
  ``cutjoin.disconnected``.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from collections import Counter

TRACE_PREFIX = "perfbench-trace: "

counters: Counter = Counter()


def _mul_counts(args, result, out):
    self, other = args
    if type(other) is type(self):
        out["algebra.mul.pairs"] += len(self.terms) * len(other.terms)
        out["algebra.mul.terms_out"] += len(result.terms)


def _step_counts(args, result, out):
    out["cutjoin.step.terms_out"] += len(result)


def _connected_counts(args, result, out):
    out["cutjoin.coeffs_computed"] += sum(len(s) for s in result)


def _table_counts(args, result, out):
    out["cutjoin.entries_kept"] += len(result.entries)


def _row_reduce_counts(args, result, out):
    rows = args[0]
    out["linalg.row_reduce.rows"] += len(rows)
    out["linalg.row_reduce.cols"] += len(rows[0]) if rows else 0
    out["linalg.row_reduce.rank"] += len(result[1])


def _count_cells(args, result, out):
    d, r_max = args[:2]
    out["oracle.cells"] += math.factorial(d) * r_max * math.comb(d, 2)


_VERIFIERS = (
    "verify_change_theorem",
    "verify_euler_square",
    "verify_genus_expansion",
    "verify_delta_annihilation",
    "verify_xi_on_I",
    "verify_phi_shift_expansion",
)

# (probe name, module, attribute paths, timed?, extra counts)
PROBES = (
    ("algebra.mul", "algebra", ("ExactSeries.__mul__",), True, _mul_counts),
    ("algebra.admits", "algebra", ("SeriesRing.admits",), False, None),
    ("algebra.add", "algebra", ("ExactSeries.__add__",), True, None),
    ("algebra.exp", "algebra", ("ExactSeries.exp",), True, None),
    ("algebra.log", "algebra", ("ExactSeries.log",), True, None),
    ("algebra.inverse", "algebra", ("ExactSeries.inverse",), True, None),
    ("algebra.lagrange_coeff", "algebra", ("lagrange_coeff",), True, None),
    ("cutjoin.step", "cutjoin", ("cutjoin_step",), True, _step_counts),
    ("cutjoin.disconnected", "cutjoin", ("disconnected_slices",), True, None),
    ("cutjoin.connected", "cutjoin", ("connected_slices",), True, _connected_counts),
    ("cutjoin.table", "cutjoin", ("hurwitz_via_cutjoin",), True, _table_counts),
    ("linalg.row_reduce", "linalg", ("row_reduce",), True, _row_reduce_counts),
    ("oracle.count", "oracle", ("count_factorizations",), True, _count_cells),
    ("oracle.connected", "oracle", ("connected_hurwitz",), True, None),
    (
        "oracle.table_out",
        "oracle",
        ("HurwitzTable.to_json", "HurwitzTable.to_json_records"),
        True,
        None,
    ),
    ("hodge.evaluate", "hodge", ("evaluate",), True, None),
    ("hodge.elsv", "hodge", ("elsv_hurwitz",), True, None),
    ("ansatz.fit", "ansatz", ("fit_constants",), True, None),
    ("ansatz.pole_basis", "ansatz", ("pole_basis_series",), True, None),
    ("ansatz.verify", "ansatz", _VERIFIERS, True, None),
    ("simple_hurwitz.search", "simple_hurwitz", ("search_recursions",), True, None),
    ("simple_hurwitz.wexpr_mul", "simple_hurwitz", ("WExpr.__mul__",), False, None),
    (
        "simple_hurwitz.verify_recurrence",
        "simple_hurwitz",
        ("verify_recurrence",),
        True,
        None,
    ),
)

# Active outermost spans: [name, layer, start, time of same-layer children].
_stack: list[list] = []


def _timed(name, layer, fn, extra, depth):
    calls, total, own = f"{name}.calls", f"{name}.s", f"{name}.self_s"

    def wrapper(*args, **kwargs):
        if depth[0]:
            return fn(*args, **kwargs)
        depth[0] = 1
        span = [name, layer, time.perf_counter(), 0.0]
        _stack.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - span[2]
            _stack.pop()
            depth[0] = 0
            counters[calls] += 1
            counters[total] += elapsed
            counters[own] += elapsed - span[3]
            for outer in reversed(_stack):
                if outer[1] == layer:
                    outer[3] += elapsed
                    break
        if extra is not None:
            extra(args, result, counters)
        return result

    return wrapper


def _counted(name, fn):
    calls = f"{name}.calls"

    def wrapper(*args, **kwargs):
        counters[calls] += 1
        return fn(*args, **kwargs)

    return wrapper


def _hurwitz_modules():
    return [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "hurwitz"]


def _owners(modules):
    """The hurwitz modules and the classes each one defines."""
    for mod in modules:
        yield mod
        for value in list(vars(mod).values()):
            if isinstance(value, type) and value.__module__ == mod.__name__:
                yield value


def install() -> None:
    """Wrap every probe target at every binding in the hurwitz package."""
    modules = _hurwitz_modules()
    for name, layer, paths, timed, extra in PROBES:
        module = importlib.import_module(f"hurwitz.{layer}")
        depth = [0]  # shared by all targets of the probe: only the outermost call counts
        for path in paths:
            owner = module
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            if timed:
                wrapper = _timed(name, layer, original, extra, depth)
            else:
                wrapper = _counted(name, original)
            bound = 0
            for space in _owners(modules):
                for key, value in list(vars(space).items()):
                    if value is original:
                        setattr(space, key, wrapper)
                        bound += 1
                    elif isinstance(value, (dict, list, tuple, set)) and _holds(value, original):
                        raise RuntimeError(f"{path} is held in {key}; cannot probe it")
            if not bound:
                raise RuntimeError(f"no binding of {path} found")


def _holds(container, obj) -> bool:
    values = container.values() if isinstance(container, dict) else container
    return any(v is obj for v in values)


def main(argv: list[str]) -> int:
    from hurwitz import cli

    install()
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    finally:
        counters["cli.main.s"] = time.perf_counter() - start
        sys.stdout.flush()
        sys.stderr.write(TRACE_PREFIX + json.dumps(counters, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

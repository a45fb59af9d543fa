"""The four benchmark workloads: hurwitz CLI argv lists built from a seed.

`tables`, `series` and `oracle` are fixed command lists (the seed only
shuffles their order); their stdout is checked against the sha256 recorded
in expected.json.  `queries` is a seeded stream of single-answer requests
whose values are checked against a second route computed in this process,
outside the timed section.

Why these workloads: each one makes a different layer dominate, and each
layer has a workload that bypasses it, so a change to one kernel has a
workload where it should move `wall_s` and one where it should not.

* tables  - cut-and-join log convolution, row_reduce in `search`, WExpr
  kernels; never touches ExactSeries or the oracle.
* series  - ExactSeries mul/exp/inverse in the pole-form fit and the
  genus-expansion suite; cut-and-join only at d <= 8, oracle never.
* oracle  - the S_d transposition sweep, plus ExactSeries add/log in the
  (x, u, p) ring.
* queries - ~40 small requests: interpreter start-up, hodge.evaluate,
  lagrange_coeff and small per-query tables dominate.

Every query class has a fixed cost shape (method, degree, genus); the seed
chooses only the profile, the bracket indices and the order, so the work
per pass hardly depends on the seed.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

FIXED = {
    "tables": [
        ["table", "--method", "cutjoin", "--dmax", "13", "--gmax", "3"],
        ["table", "--method", "cutjoin", "--dmax", "10", "--gmax", "3", "--format", "csv"],
        ["search", "--dmax", "10"],
        ["verify", "--suite", "recursions"],
    ],
    "series": [
        ["fit", "--g", "3"],
        ["verify", "--suite", "genus-expansion", "--dmax", "7"],
        ["verify", "--suite", "change-theorem"],
    ],
    "oracle": [
        ["table", "--method", "oracle", "--dmax", "7", "--gmax", "2"],
        ["verify", "--suite", "oracle-vs-cutjoin", "--dmax", "6"],
    ],
}
WORKLOADS = (*FIXED, "queries")

# (degree, genus) of each cutjoin query; the table it builds sets its cost.
_CUTJOIN_SHAPES = [
    (4, 0), (5, 3), (6, 1), (7, 2), (8, 0), (8, 3),
    (9, 1), (9, 2), (10, 0), (10, 2), (11, 0), (11, 1),
]
_ELSV_GENERA = [0, 0, 1, 1, 1, 2, 2, 2]
_CLOSED_FORM_GENERA = [0, 1, 1, 2, 3, 3]
_ORACLE_DEGREES = [3, 4, 4, 5, 5, 5]
_HODGE_GENERA = [0, 0, 1, 1, 1, 2, 2, 2]
# Profiles of cutjoin queries have at most this many parts, so the ELSV
# bracket sum used to check them stays small.
_MAX_CHECK_PARTS = 4


def commands(workload: str, seed: int) -> list[list[str]]:
    """The argv list of one pass of a workload."""
    rng = random.Random(f"{workload}:{seed}")
    if workload in FIXED:
        cmds = [list(c) for c in FIXED[workload]]
    elif workload == "queries":
        cmds = _queries(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng.shuffle(cmds)
    return cmds


def _profile(rng: random.Random, d: int, min_parts: int, max_parts: int) -> list[int]:
    """A random partition of d with a part count in [min_parts, max_parts]."""
    m = rng.randint(min_parts, min(max_parts, d))
    cuts = sorted(rng.sample(range(1, d), m - 1))
    return sorted(b - a for a, b in zip([0, *cuts], [*cuts, d]))


def _hurwitz_query(g: int, alpha: list[int], method: str) -> list[str]:
    return ["hurwitz", "--g", str(g), "--alpha", ",".join(map(str, alpha)), "--method", method]


def _queries(rng: random.Random) -> list[list[str]]:
    out = []
    for d, g in _CUTJOIN_SHAPES:
        out.append(_hurwitz_query(g, _profile(rng, d, 1, _MAX_CHECK_PARTS), "cutjoin"))
    for g in _ELSV_GENERA:
        # ELSV is defined for genus 0 only with at least 3 parts.
        d = rng.randint(3, 6)
        out.append(_hurwitz_query(g, _profile(rng, d, 3 if g == 0 else 1, d), "elsv"))
    for g in _CLOSED_FORM_GENERA:
        out.append(_hurwitz_query(g, [1] * rng.randint(2, 8), "closed-form"))
    for d in _ORACLE_DEGREES:
        # d <= 5 keeps d! * r_max far inside the oracle's default budget.
        out.append(_hurwitz_query(rng.randint(0, 2), _profile(rng, d, 1, d), "oracle"))
    for g in _HODGE_GENERA:
        theta, k = _hodge_key(rng, g)
        out.append(["hodge", "--g", str(g), "--theta", ",".join(map(str, theta)), "--k", str(k)])
    return out


def _hodge_key(rng: random.Random, g: int) -> tuple[list[int], int]:
    """A bracket index that passes hodge.validity_gate: stable, 0 <= k <= g,
    and sum(theta) + k = 3g - 3 + n."""
    n = rng.randint(3 if g == 0 else 1, 4)
    k = rng.randint(0, g)
    dim = 3 * g - 3 + n - k  # >= 0 for these n, k
    cuts = sorted(rng.choices(range(dim + 1), k=n - 1))
    return [b - a for a, b in zip([0, *cuts], [*cuts, dim])], k


# -- checks ---------------------------------------------------------------------------


def _genus0_hurwitz(alpha: list[int]) -> Fraction:
    """Hurwitz's genus-0 formula: r!/|Aut| * d^(m-3) * prod a^a/a!."""
    d, m = sum(alpha), len(alpha)
    aut = math.prod(math.factorial(alpha.count(a)) for a in set(alpha))
    value = Fraction(math.factorial(d + m - 2), aut) * Fraction(d) ** (m - 3)
    for a in alpha:
        value *= Fraction(a**a, math.factorial(a))
    return value


class QueryOracle:
    """Second-route answers for `queries`, computed in this process with
    the library under test, by a different method than the one queried."""

    def __init__(self) -> None:
        from hurwitz.ansatz import fit_constants
        from hurwitz.cutjoin import hurwitz_via_cutjoin
        from hurwitz.hodge import HodgeTable

        self._table = hurwitz_via_cutjoin(8, 3)
        self._hodge = HodgeTable()
        for g in (2, 3):
            d_fit = 2 * g + 2
            fit_constants(g, hurwitz_via_cutjoin(d_fit, g), d_fit, self._hodge)

    def expected(self, argv: list[str]) -> dict:
        from hurwitz.hodge import HodgeKey, elsv_hurwitz, evaluate, validity_gate
        from hurwitz.oracle import riemann_hurwitz_r

        opts = dict(zip(argv[1::2], argv[2::2]))
        g = int(opts["--g"])
        if argv[0] == "hodge":
            theta = sorted(int(t) for t in opts["--theta"].split(","))
            k = int(opts["--k"])
            key = HodgeKey.make(g, theta, k)
            if validity_gate(key) != "valid":
                raise ValueError(f"generated an out-of-domain bracket {key}")
            value = evaluate(key, self._hodge, genus0="string", order="dilaton_first")
            return {"g": g, "theta": theta, "k": k, "value": value}
        alpha = sorted(int(a) for a in opts["--alpha"].split(","))
        method = opts["--method"]
        if method != "cutjoin":
            value = self._table.value(g, alpha)
        elif g == 0:
            value = _genus0_hurwitz(alpha)
        else:
            value = elsv_hurwitz(g, alpha, self._hodge)
        r = riemann_hurwitz_r(g, alpha)
        return {"g": g, "alpha": alpha, "r": r, "value": value, "method": method}


def check_query(stdout: bytes, expected: dict) -> str | None:
    """None if the CLI's JSON answer equals the second route, else why not."""
    try:
        got = json.loads(stdout)
        got["value"] = Fraction(got["value"])
    except (ValueError, KeyError, TypeError) as ex:
        return f"unparsable answer: {ex}"
    if got != expected:
        return f"got {got}, second route gives {expected}"
    return None

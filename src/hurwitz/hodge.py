"""Descendant/Hodge bracket storage and evaluation.

A bracket <tau_{theta_1} ... tau_{theta_n} lambda_k>_g is keyed by genus,
the sorted multiset of tau-subscripts, and the lambda-index k.  Evaluation
is exact: a validity gate (dimension, stability, lambda range), the genus-0
multinomial closed form, string/dilaton reduction toward primitive keys
(every subscript >= 2), and a pluggable primitive table that the fitter in
the ansatz module fills from Hurwitz data.  Three explicit base values seed
the reduction: <tau_0^3>_0 = 1, <tau_1>_1 = 1/24, and the genus-1 n=1, k=1
bracket = 1/24.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .algebra import over_lcm, rational_str
from .partitions import Partition, aut_count, multinomial
from .table import riemann_hurwitz_r

__all__ = [
    "HodgeKey",
    "HodgeTable",
    "MissingPrimitiveError",
    "PrimitiveConflictError",
    "DegenerateProfileError",
    "validity_gate",
    "evaluate",
    "elsv_hurwitz",
]


class MissingPrimitiveError(Exception):
    """A required primitive bracket is not in the table."""

    def __init__(self, key: "HodgeKey"):
        self.key = key
        super().__init__(f"missing primitive bracket {key}")


class PrimitiveConflictError(Exception):
    """Attempt to overwrite a stored primitive with a different value."""


class DegenerateProfileError(ValueError):
    """Profile outside the formula's domain (genus 0 with < 3 parts)."""


class HodgeKey(NamedTuple):
    """Canonical bracket index: genus, sorted tau-subscripts, lambda-index."""

    g: int
    theta: tuple[int, ...]
    k: int

    @classmethod
    def make(cls, g: int, theta, k: int) -> "HodgeKey":
        theta = tuple(sorted(map(int, theta)))
        if g < 0 or k < 0 or (theta and theta[0] < 0):
            raise ValueError(f"bad bracket index g={g}, theta={theta}, k={k}")
        return cls(g, theta, k)

    def __str__(self) -> str:
        taus = " ".join(f"tau_{a}" for a in self.theta)
        return f"<{taus} lambda_{self.k}>_{self.g}"


def validity_gate(key: HodgeKey) -> str:
    """Classify a key: "valid" or the specific reason its bracket is zero.

    >>> validity_gate(HodgeKey.make(0, (0, 0, 0), 0))
    'valid'
    >>> validity_gate(HodgeKey.make(0, (5,), 0))
    'zero_unstable'
    >>> validity_gate(HodgeKey.make(1, (1, 1), 1))
    'zero_dimension'
    """
    g, theta, k = key
    n = len(theta)
    if 2 * g - 2 + n <= 0:
        return "zero_unstable"
    if not 0 <= k <= g:
        return "zero_lambda_range"
    if sum(theta) + k != 3 * g - 3 + n:
        return "zero_dimension"
    return "valid"


_BASE_VALUES = {
    HodgeKey(0, (0, 0, 0), 0): Fraction(1),
    HodgeKey(1, (1,), 0): Fraction(1, 24),
    HodgeKey(1, (0,), 1): Fraction(1, 24),
}


class HodgeTable:
    """Primitive bracket values plus an evaluation memo.

    `primitives` holds base and fitted values (write-once); a key is a
    base value exactly when it is in `_BASE_VALUES`.  `_memo` maps each
    evaluation route (genus0, order) to that route's values by key.
    """

    def __init__(self) -> None:
        self.primitives: dict[HodgeKey, Fraction] = dict(_BASE_VALUES)
        self._memo: dict = {}

    def set_primitive(self, key: HodgeKey, value) -> None:
        value = Fraction(value)
        if key in self.primitives:
            if self.primitives[key] != value:
                raise PrimitiveConflictError(
                    f"{key}: stored {self.primitives[key]}, new {value}"
                )
            return
        if validity_gate(key) != "valid":
            raise ValueError(f"refusing to store non-valid key {key}")
        self.primitives[key] = value

    def to_json_records(self) -> list[dict]:
        keys = sorted(
            self.primitives, key=lambda key: (key.g, sum(key.theta), key.theta, key.k)
        )
        return [
            {
                "g": key.g,
                "theta": list(key.theta),
                "k": key.k,
                "value": rational_str(self.primitives[key]),
                "source": "base" if key in _BASE_VALUES else "fitted",
            }
            for key in keys
        ]


def evaluate(
    key: HodgeKey,
    table: HodgeTable,
    *,
    genus0: str = "closed_form",
    order: str = "string_first",
) -> Fraction:
    """Exact bracket value by gate, closed form, and string/dilaton reduction.

    genus0 selects the genus-0 route: "closed_form" (multinomial) or
    "string" (pure string-equation recursion down to <tau_0^3>_0); the two
    must agree, which the test suite checks.  `order` switches whether a
    key containing both a 0 and a 1 subscript reduces by string or dilaton
    first; the result is order-independent.  Any other route name is
    refused.

    The key, a `HodgeKey` or any (g, theta, k) triple, is made canonical
    and gated here, once; its reduction goes through the table's memo of
    this route.
    """
    if genus0 not in ("closed_form", "string") or order not in ("string_first", "dilaton_first"):
        raise ValueError(f"unknown evaluation route genus0={genus0!r}, order={order!r}")
    key = HodgeKey.make(*key)
    if validity_gate(key) != "valid":
        return Fraction(0)
    memo = table._memo.setdefault((genus0, order), {})
    return _bracket(key, table, memo, genus0 == "closed_form", order == "string_first")


def _bracket(
    key: tuple, table: HodgeTable, memo: dict, closed: bool, string_first: bool
) -> Fraction:
    """The value of a valid (g, sorted theta, k) key through one route's
    `memo`, one frame per string or dilaton step.  A step keeps the
    dimension and k, and the only valid keys whose step would leave the
    stable range are base values, so every sub-key is valid.  Lowering the
    first copy of a subscript or dropping the first 0 or 1 keeps theta
    sorted, so each sub-key is built directly as a plain tuple."""
    value = memo.get(key)
    if value is not None:
        return value
    g, theta, k = key
    if key in _BASE_VALUES:
        value = _BASE_VALUES[key]
    elif g == 0 and closed:
        value = multinomial(len(theta) - 3, theta)
    elif theta[0] == 0 and (string_first or 1 not in theta):
        rest = theta[1:]  # theta is sorted, so its first subscript is the 0
        terms = []  # (copies of v * numerator, denominator) per distinct v > 0
        prev = 0
        for i, v in enumerate(rest):
            if v != prev:  # the first copy of v
                prev = v
                sub_key = (g, rest[:i] + (v - 1,) + rest[i + 1 :], k)
                sub = _bracket(sub_key, table, memo, closed, string_first)
                terms.append((rest.count(v) * sub.numerator, sub.denominator))
        # summed as integers over one denominator: one Fraction per key
        den, nums = over_lcm(terms)
        value = Fraction(sum(nums), den)
    elif 1 in theta:
        i = theta.index(1)
        rest = theta[:i] + theta[i + 1 :]
        value = (2 * g - 2 + len(rest)) * _bracket((g, rest, k), table, memo, closed, string_first)
    elif key in table.primitives:
        value = table.primitives[key]
    else:
        raise MissingPrimitiveError(HodgeKey(*key))
    memo[key] = value
    return value


def elsv_hurwitz(g: int, alpha, table: HodgeTable) -> Fraction:
    """Hurwitz number from the bracket sum over descendant exponents.

    H^g_alpha = (r!/Aut(alpha)) * prod(alpha_i^alpha_i / alpha_i!) * sum over
    sorted exponent vectors b, with k = 3g-3+m-|b| in [0, g], of (-1)^k *
    <tau_{b_1}...tau_{b_m} lambda_k>_g * m_b(alpha): the monomial symmetric
    polynomial m_b sums prod(alpha_i^{b_i}) over b's distinct orderings.

    Genus 0 with fewer than 3 parts is outside the formula's domain.
    """
    alpha = Partition(alpha)
    m = len(alpha)
    if g == 0 and m < 3:
        raise DegenerateProfileError(
            f"genus 0 needs at least 3 parts, got {tuple(alpha)}"
        )
    top = 3 * g - 3 + m
    weights = {(): 1}  # m_b over the parts seen so far, keyed by sorted b
    for a in alpha:
        grown: dict[tuple[int, ...], int] = {}
        for b, w in weights.items():
            for e in range(top - sum(b) + 1):
                key = tuple(sorted((*b, e)))
                grown[key] = grown.get(key, 0) + w * a**e
        weights = grown
    terms = []  # (signed weight * numerator, denominator) of each nonzero bracket
    for b, w in weights.items():
        k = top - sum(b)
        bracket = evaluate(HodgeKey(g, b, k), table) if k <= g else 0
        if bracket:
            terms.append(((-1) ** k * w * bracket.numerator, bracket.denominator))
    den, nums = over_lcm(terms)
    prefactor = math.factorial(riemann_hurwitz_r(g, alpha)) * math.prod(a**a for a in alpha)
    return Fraction(
        prefactor * sum(nums), den * aut_count(alpha) * math.prod(map(math.factorial, alpha))
    )

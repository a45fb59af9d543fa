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
from typing import Iterator, NamedTuple

from .algebra import rational_str
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
        theta = tuple(sorted(int(a) for a in theta))
        if g < 0 or k < 0 or any(a < 0 for a in theta):
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
    g, theta, k = key.g, key.theta, key.k
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
    base value exactly when it is in `_BASE_VALUES`.
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


def _without_one(theta: tuple[int, ...], value: int) -> tuple[int, ...]:
    out = list(theta)
    out.remove(value)
    return tuple(out)


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
    first; the result is order-independent.
    """
    memo_key = (key, genus0, order)
    if memo_key in table._memo:
        return table._memo[memo_key]

    value = _evaluate(key, table, genus0, order)
    table._memo[memo_key] = value
    return value


def _evaluate(key: HodgeKey, table: HodgeTable, genus0: str, order: str) -> Fraction:
    if validity_gate(key) != "valid":
        return Fraction(0)
    if key in _BASE_VALUES:
        return _BASE_VALUES[key]
    g, theta, k = key.g, key.theta, key.k

    if g == 0 and genus0 == "closed_form":
        return multinomial(len(theta) - 3, theta)

    if 0 in theta and (1 not in theta or order == "string_first"):
        rest = _without_one(theta, 0)
        total = Fraction(0)
        for v in sorted(set(rest)):
            if v < 1:
                continue
            mult = rest.count(v)
            sub = HodgeKey.make(g, _without_one(rest, v) + (v - 1,), k)
            total += mult * evaluate(sub, table, genus0=genus0, order=order)
        return total
    if 1 in theta:
        rest = _without_one(theta, 1)
        sub = HodgeKey.make(g, rest, k)
        return (2 * g - 2 + len(rest)) * evaluate(
            sub, table, genus0=genus0, order=order
        )

    if key not in table.primitives:
        raise MissingPrimitiveError(key)
    return table.primitives[key]


def _compositions(total: int, slots: int) -> Iterator[tuple[int, ...]]:
    """Nonnegative integer vectors of given length summing to total."""
    if slots == 0:
        if total == 0:
            yield ()
        return
    if slots == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, slots - 1):
            yield (first,) + rest


def elsv_hurwitz(g: int, alpha, table: HodgeTable) -> Fraction:
    """Hurwitz number from the bracket sum over descendant exponents.

    H^g_alpha = (r!/Aut(alpha)) * prod(alpha_i^alpha_i / alpha_i!) *
    sum over k and exponent vectors b with |b| = 3g-3+m-k of
    (-1)^k <tau_{b_1}...tau_{b_m} lambda_k>_g * prod(alpha_i^{b_i}).

    Genus 0 with fewer than 3 parts is outside the formula's domain.
    """
    alpha = Partition(alpha)
    m = len(alpha)
    if g == 0 and m < 3:
        raise DegenerateProfileError(
            f"genus 0 needs at least 3 parts, got {tuple(alpha)}"
        )
    r = riemann_hurwitz_r(g, alpha)
    prefactor = Fraction(math.factorial(r), aut_count(alpha))
    for a in alpha:
        prefactor *= Fraction(a**a, math.factorial(a))
    total = Fraction(0)
    for k in range(g + 1):
        dim = 3 * g - 3 + m - k
        if dim < 0:
            continue
        sign = (-1) ** k
        for b in _compositions(dim, m):
            bracket = evaluate(HodgeKey.make(g, b, k), table)
            if bracket:
                weight = math.prod(a**e for a, e in zip(alpha, b))
                total += sign * bracket * weight
    return prefactor * total

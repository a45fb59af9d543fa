"""The Hurwitz table: connected counts indexed by (genus, profile).

`HurwitzTable.from_counts` is the one table boundary of the oracle and of
cut-and-join alike: it solves each count for its genus and refuses what no
connected series holds.  Every counting route imports the table from here,
so none of them imports another.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Iterable

from .algebra import rational_str
from .partitions import Partition

__all__ = ["HurwitzTable", "riemann_hurwitz_r"]

_ZERO = Fraction(0)  # what `HurwitzTable.value` reads for a missing key


def riemann_hurwitz_r(g: int, alpha: Iterable[int]) -> int:
    """Number of simple branch points for genus g and profile alpha."""
    alpha = tuple(alpha)
    return sum(alpha) + len(alpha) + 2 * (g - 1)


class HurwitzTable:
    """Connected counts indexed by (genus, profile partition).

    Values are nonnegative rationals (automorphism-weighted counts); the
    production method is recorded for provenance in exports.  Both
    production routes build their table through `from_counts`.
    """

    def __init__(
        self, method: str, entries: dict[tuple[int, Partition], Fraction] | None = None
    ) -> None:
        self.method = method
        self.entries = {} if entries is None else entries

    @classmethod
    def from_counts(
        cls, method: str, counts: Iterable[tuple[int, Partition, Fraction]], g_max: int
    ) -> "HurwitzTable":
        """The table of (r, alpha, value) triples of a connected series, with
        genus from r = d + l(alpha) + 2g - 2, keeping genus <= g_max.

        A constant term, or an odd or negative 2g, raises AssertionError; a
        negative value raises ValueError.

        >>> HurwitzTable.from_counts("demo", [(2, Partition((1, 1)), Fraction(1, 2))], 0).entries
        {(0, (1, 1)): Fraction(1, 2)}
        """
        entries = {}
        for r, alpha, value in counts:
            if not alpha:
                raise AssertionError("connected series contains a constant term")
            two_g = r - alpha.d - len(alpha) + 2
            if two_g % 2 or two_g < 0:
                raise AssertionError(f"parity/genus violation at r={r}, alpha={alpha}")
            if value.numerator < 0:
                raise ValueError(f"negative count at r={r}, alpha={alpha}: {value}")
            if two_g <= 2 * g_max:
                entries[two_g // 2, alpha] = value
        return cls(method, entries)

    def value(self, g: int, alpha) -> Fraction:
        """Count with the zero-absence convention: exact zeros are never
        stored, so a missing key reads as 0."""
        return self.entries.get((g, Partition(alpha)), _ZERO)

    def keys(self) -> list[tuple[int, Partition]]:
        return sorted(self.entries, key=lambda k: (k[0], sum(k[1]), k[1]))

    def restricted(self, r_max: int) -> "HurwitzTable":
        """The entries with at most r_max simple branch points."""
        kept = {
            (g, alpha): v
            for (g, alpha), v in self.entries.items()
            if riemann_hurwitz_r(g, alpha) <= r_max
        }
        return HurwitzTable(self.method, kept)

    def to_json_records(self) -> list[dict]:
        return [
            {
                "g": g,
                "alpha": list(alpha),
                "r": riemann_hurwitz_r(g, alpha),
                "value": rational_str(v),
                "method": self.method,
            }
            for (g, alpha) in self.keys()
            for v in (self.entries[(g, alpha)],)
        ]

    def to_json(self) -> str:
        """``json.dumps(self.to_json_records(), indent=2)``, written directly:
        with an indent, ``json.dumps`` runs the pure-Python encoder."""
        if not self.entries:
            return "[]"
        method = encode_basestring_ascii(self.method)
        records = []
        # the order of `keys`, with each degree summed once
        for g, d, alpha in sorted((g, sum(alpha), alpha) for g, alpha in self.entries):
            parts = "[\n      " + ",\n      ".join(map(str, alpha)) + "\n    ]"
            v = self.entries[g, alpha]
            records.append(
                f'  {{\n    "g": {g},\n    "alpha": {parts if alpha else "[]"},\n'
                f'    "r": {d + len(alpha) + 2 * g - 2},\n'
                f'    "value": "{v.numerator}/{v.denominator}",\n'
                f'    "method": {method}\n  }}'
            )
        return "[\n" + ",\n".join(records) + "\n]"

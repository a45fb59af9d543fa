"""Integer partitions, automorphism counts, and indexing for primitive keys.

Partitions are tuples of positive parts sorted non-decreasingly; `Partition`
is a validating tuple subclass so instances hash and compare exactly like
plain tuples and can key dictionaries interchangeably with them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import groupby
from typing import Iterator

__all__ = [
    "Partition",
    "ThetaPartition",
    "aut_count",
    "partitions",
    "primitive_thetas",
    "multinomial",
]


class Partition(tuple):
    """A partition as a non-decreasing tuple of positive integers.

    >>> Partition((1, 1, 3)).d
    5
    >>> Partition((2, 1))
    Traceback (most recent call last):
        ...
    ValueError: parts must be sorted non-decreasingly: (2, 1)
    """

    def __new__(cls, parts=()):
        parts = tuple(int(a) for a in parts)
        if any(a < 1 for a in parts):
            raise ValueError(f"parts must be positive: {parts}")
        if any(parts[i] > parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be sorted non-decreasingly: {parts}")
        return super().__new__(cls, parts)

    @classmethod
    def of(cls, parts) -> "Partition":
        """Build from parts in any order."""
        return cls(sorted(parts))

    @property
    def d(self) -> int:
        return sum(self)


class ThetaPartition(Partition):
    """A partition with every part >= 2 (index of a primitive constant).

    >>> ThetaPartition((2, 2, 3)).d
    7
    >>> ThetaPartition((1, 2))
    Traceback (most recent call last):
        ...
    ValueError: all parts must be >= 2: (1, 2)
    """

    def __new__(cls, parts=()):
        self = super().__new__(cls, parts)
        if any(a < 2 for a in self):
            raise ValueError(f"all parts must be >= 2: {tuple(self)}")
        return self


def aut_count(parts) -> int:
    """Order of the part-permutation group: product of multiplicity factorials.

    >>> aut_count((1, 1, 2, 2, 2))
    12
    """
    return math.prod(math.factorial(len(list(g))) for _, g in groupby(parts))


def partitions(d: int, min_part: int = 1) -> Iterator[tuple[int, ...]]:
    """Yield partitions of d with parts >= min_part, sorted parts.

    Ordering is deterministic: lexicographic on the non-decreasing tuples.
    """

    def rec(remaining: int, lo: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        for a in range(lo, remaining + 1):
            if remaining - a == 0 or remaining - a >= a:
                yield from rec(remaining - a, a, prefix + (a,))

    yield from rec(d, min_part, ())


def primitive_thetas(g: int) -> list[tuple[ThetaPartition, int, int]]:
    """Index set for the genus-g primitive constants, as (theta, e, k).

    theta runs over partitions with parts >= 2, length l in [1, 3g-3] and
    size n in [l + 2g - 3, l + 3g - 3]; e = l + 2g - 2 is the associated
    pole order and k = 3g - 3 + l - n the lambda-degree (0 <= k <= g by
    construction of the range).

    >>> len(primitive_thetas(2)), len(primitive_thetas(3))
    (6, 26)
    """
    if g < 2:
        raise ValueError("primitive constants exist only for g >= 2")
    # each size n is enumerated once, its partitions bucketed by length
    by_length: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for n in range(2 * g - 2, 6 * g - 6 + 1):
        for theta in partitions(n, min_part=2):
            by_length.setdefault((len(theta), n), []).append(theta)
    return [
        (ThetaPartition(theta), l + 2 * g - 2, 3 * g - 3 + l - n)
        for l in range(1, 3 * g - 3 + 1)
        for n in range(l + 2 * g - 3, l + 3 * g - 3 + 1)
        for theta in by_length.get((l, n), ())
    ]


def multinomial(n: int, parts) -> Fraction:
    """n! / prod(parts_i!) as an exact rational (0 if any part negative)."""
    if n < 0 or any(a < 0 for a in parts):
        return Fraction(0)
    return Fraction(
        math.factorial(n), math.prod(math.factorial(a) for a in parts)
    )

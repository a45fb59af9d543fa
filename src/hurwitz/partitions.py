"""Integer partitions, automorphism counts, primitive-key indexing, profile keys.

Partitions are tuples of positive parts sorted non-decreasingly; `Partition`
is a validating tuple subclass so instances hash and compare exactly like
plain tuples and can key dictionaries interchangeably with them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import groupby
from typing import Iterable, Iterator

__all__ = [
    "Partition",
    "ProfileKeys",
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


class ProfileKeys(dict):
    """The one packing of a profile (a multiset of positive parts) of degree
    <= d_max into an int, and a memo of decodings: ``keys[key]`` is (degree,
    part count, ((part, multiplicity), ...)) with parts increasing.

    The multiplicity of part i fills a field of w = d_max.bit_length() bits
    at offset w (i - 1), and the degree the field above, at ``top`` = w d_max,
    so ``key >> top`` is the degree.  No multiplicity exceeds d_max, so no
    field carries into the next: ``unit[i]``, the key of (i,), adds a part
    i, a cut of v into a + b adds unit[a] + unit[b] - unit[v], a multiset
    union adds keys (its degree field exceeds d_max exactly when its degree
    does), and 1^d packs to d unit[1].  ``key & -key`` falls in the field of
    the smallest part.

    >>> keys = ProfileKeys(5)
    >>> keys.pack((1, 1, 3)), keys[163906], keys.unpack(163906), 163906 >> keys.top
    (163906, (5, 3, ((1, 2), (3, 1))), (1, 1, 3), 5)
    """

    def __init__(self, d_max: int) -> None:
        super().__init__()
        self.d_max = d_max
        self.width = w = d_max.bit_length()
        self.top = w * d_max
        self.unit = [0] + [(i << self.top) + (1 << w * (i - 1)) for i in range(1, d_max + 1)]

    def __missing__(self, key: int) -> tuple[int, int, tuple[tuple[int, int], ...]]:
        mask = (1 << self.width) - 1
        pairs = []
        rest, i = key & ((1 << self.top) - 1), 1
        while rest:
            if rest & mask:
                pairs.append((i, rest & mask))
            rest >>= self.width
            i += 1
        decoded = (key >> self.top, sum(m for _, m in pairs), tuple(pairs))
        self[key] = decoded
        return decoded

    def pack(self, alpha: Iterable[int]) -> int:
        """The key of the profile with parts alpha, in any order."""
        alpha = tuple(alpha)
        if any(a < 1 for a in alpha) or sum(alpha) > self.d_max:
            raise ValueError(f"{alpha} is not a profile of degree <= {self.d_max}")
        return sum(self.unit[a] for a in alpha)

    def unpack(self, key: int) -> tuple[int, ...]:
        """The parts of the profile of a key, sorted."""
        return tuple(i for i, m in self[key][2] for _ in range(m))


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

    theta runs over partitions with parts >= 2 whose length l and size n
    give a lambda-degree k = 3g - 3 + l - n in [0, g], ordered by (l, n);
    e = l + 2g - 2 is the associated pole order.  Parts >= 2 make l <= n/2,
    so n <= 6g - 6 and l <= 3g - 3.

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
        for (l, n), thetas in sorted(by_length.items())
        if 0 <= 3 * g - 3 + l - n <= g
        for theta in thetas
    ]


def multinomial(n: int, parts) -> Fraction:
    """n! / prod(parts_i!) as an exact rational (0 if any part negative)."""
    if n < 0 or any(a < 0 for a in parts):
        return Fraction(0)
    return Fraction(
        math.factorial(n), math.prod(math.factorial(a) for a in parts)
    )

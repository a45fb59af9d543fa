"""Exact truncated multivariate formal power series over the rationals.

All coefficients are exact rationals: a series holds integer numerators
over one common denominator and shows its terms as `fractions.Fraction`;
the package contains no floating point.  A series is attached to a
`SeriesRing` (a variable set plus a truncation policy) fixed at
construction.  Arithmetic between series from different rings raises
instead of silently re-truncating, since mismatched truncations are the
classic source of wrong exact-series results.

Variable names encode their role:

* ``x``  — degree marker (one per ring),
* ``u``  — step/branch-point marker,
* ``p_i`` (i >= 1) — part markers,
* ``t_i`` (i >= 0) — descendant markers.

Exponents are non-negative.  The truncation policy caps, per ring: the
x-exponent, the u-exponent, the total weight sum(i * exp(p_i)) and the
total t-degree.  Each cap bounds a load with non-negative weights, so the
admitted monomials are the complement of a monomial ideal and truncated
arithmetic is exactly arithmetic in the quotient ring: products are
associative, and exp(a + b) = exp(a) exp(b).  Overflowing terms are
discarded on creation; retained terms are always exact.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import le, mul
from typing import Callable, Iterable, Mapping

__all__ = [
    "Fraction",
    "VarSetMismatchError",
    "ConstantTermError",
    "VarSet",
    "SeriesRing",
    "ExactSeries",
    "lagrange_coeff",
    "over_lcm",
    "rational_str",
]


class VarSetMismatchError(Exception):
    """Operands live in different rings (variables or truncation differ)."""


class ConstantTermError(Exception):
    """A constant-term precondition (0 for exp, 1 for log, unit for inverse)."""


_VAR_RE = re.compile(r"^(x|u|p_(\d+)|t_(\d+))$")


class VarSet:
    """An ordered set of named variables with derived family/index metadata,
    and the one codec between exponent vectors and what they stand for:
    name maps (`encode`/`decode`), profiles (`profile_exps`/`profile`) and
    multisets of t-subscripts (`theta_exps`/`theta`).

    >>> vs = VarSet(("x", "p_1", "p_2"))
    >>> vs.families
    ('x', 'p', 'p')
    >>> vs.indices
    (0, 1, 2)
    """

    __slots__ = ("names", "families", "indices", "position", "_at", "_ordered")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names!r}")
        families = []
        indices = []
        for name in names:
            m = _VAR_RE.match(name)
            if not m:
                raise ValueError(f"unrecognized variable name {name!r}")
            fam = name[0]
            idx = 0
            if fam == "p":
                idx = int(m.group(2))
                if idx < 1:
                    raise ValueError("p-variables start at p_1")
            elif fam == "t":
                idx = int(m.group(3))
            families.append(fam)
            indices.append(idx)
        self.names = names
        self.families = tuple(families)
        self.indices = tuple(indices)
        self.position = {n: i for i, n in enumerate(names)}
        # per family, subscript -> position, and the (subscript, position)
        # pairs by subscript, so a codec never builds or parses a name
        self._at = {f: {} for f in "xupt"}
        for pos, (f, i) in enumerate(zip(self.families, self.indices)):
            self._at[f][i] = pos
        self._ordered = {f: sorted(at.items()) for f, at in self._at.items()}

    def encode(self, named: Mapping[str, int]) -> tuple[int, ...]:
        """The exponent vector of prod name^e over `named`: the one place a
        monomial is built from variable names."""
        return self._vector(named, ())

    def _vector(self, named: Mapping[str, int], positions: Iterable[int]) -> tuple[int, ...]:
        """The vector of the powers in `named` times one more power of the
        variable at each of `positions`."""
        vec = [0] * len(self.names)
        for name, e in named.items():
            vec[self.position[name]] = e
        for pos in positions:
            vec[pos] += 1
        return tuple(vec)

    def decode(self, exps: tuple[int, ...]) -> dict[str, int]:
        """name -> exponent of the variables in an exponent vector."""
        return {name: e for name, e in zip(self.names, exps) if e}

    def _subscripts(self, family: str, exps: tuple[int, ...]) -> tuple[int, ...]:
        """The sorted multiset of the family's subscripts in a vector."""
        return tuple(i for i, pos in self._ordered[family] for _ in range(exps[pos]))

    def profile_exps(
        self, alpha: Iterable[int], r: int | None = None, d: int | None = None
    ) -> tuple[int, ...]:
        """The exponent vector of x^d p_alpha, with d = |alpha| unless given,
        times u^r when r is given: the one encoding of a profile as a monomial.

        >>> VarSet.xup(2).profile_exps((2, 1), r=2)
        (3, 2, 1, 1)
        """
        alpha = tuple(alpha)
        head = {"x": sum(alpha) if d is None else d} | ({} if r is None else {"u": r})
        return self._vector(head, map(self._at["p"].__getitem__, alpha))

    def profile(self, exps: tuple[int, ...]) -> tuple[int, int, tuple[int, ...]]:
        """(x-degree, u-degree, sorted parts) of an exponent vector; the
        inverse of `profile_exps`.

        >>> vs = VarSet.xup(2)
        >>> vs.profile(vs.profile_exps((2, 1), r=2))
        (3, 2, (1, 2))
        """
        x, u = (exps[self.position[v]] if v in self.position else 0 for v in "xu")
        return x, u, self._subscripts("p", exps)

    def theta_exps(self, theta: Iterable[int]) -> tuple[int, ...]:
        """The exponent vector of prod_i t_{theta_i}."""
        return self._vector({}, map(self._at["t"].__getitem__, theta))

    def theta(self, exps: tuple[int, ...]) -> tuple[int, ...]:
        """The sorted t-subscripts of an exponent vector; the inverse of
        `theta_exps`."""
        return self._subscripts("t", exps)

    @classmethod
    def xp(cls, p_max: int) -> "VarSet":
        return cls(("x",) + tuple(f"p_{i}" for i in range(1, p_max + 1)))

    @classmethod
    def xup(cls, p_max: int) -> "VarSet":
        return cls(("x", "u") + tuple(f"p_{i}" for i in range(1, p_max + 1)))

    @classmethod
    def tvars(cls, t_max: int) -> "VarSet":
        return cls(tuple(f"t_{i}" for i in range(t_max + 1)))

    def __eq__(self, other) -> bool:
        return isinstance(other, VarSet) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"VarSet({self.names!r})"


class SeriesRing:
    """A VarSet plus degree caps, each stored as a linear load; a cap left
    ``None`` does not bound its family.

    Every cap is a bound ``sum_i w_i * e_i <= cap`` on the
    exponent vector ``e``, with every weight ``w_i >= 0``: x-degree,
    u-degree, p-weight and t-degree.  A monomial is admitted when its
    exponents are non-negative and every load is within its cap.  Since no
    weight is negative, a factor of an admitted monomial is admitted, so
    truncated multiplication is associative and the graded inverse/exp/log
    run in the ring itself.  A negative cap is refused: it would admit no
    monomial, not even the constant that `one` and `exp` need.  So is a
    variable that no cap bounds, since the packing below needs a bound, and
    so is a ring with no variables.

    An admitted monomial is packed into one int key.  From the low bits up:
    one field per variable, then the total degree, then every load after
    the first with a guard bit above it, then the first load on top.  Every
    field is linear in the exponents, so the key of an admitted product is
    the sum of the keys.  A variable's field holds its largest admitted
    exponent; in a product that is not admitted it may carry, but the total
    degree field holds twice the largest degree plus that carry, so no
    carry reaches the loads.  So a sum of two keys passes the guarded loads
    exactly when ``(ka + bias + kb) & guard == 0``, and keys sort by their
    first load.
    """

    __slots__ = (
        "varset", "caps", "_weights", "_caps", "_fields", "_units", "_var_at",
        "_deg_shift", "_deg_mask", "_top", "_limit", "_bias", "_guard",
    )

    def __init__(
        self,
        varset: VarSet,
        *,
        x_max: int | None = None,
        u_max: int | None = None,
        p_weight_max: int | None = None,
        t_deg_max: int | None = None,
    ):
        if not varset.names:
            raise ValueError("a ring needs at least one variable")
        self.varset = varset
        self.caps = (x_max, u_max, p_weight_max, t_deg_max)
        fams = varset.families
        rules = (
            (x_max, lambda f, i: int(f == "x")),
            (u_max, lambda f, i: int(f == "u")),
            (p_weight_max, lambda f, i: i if f == "p" else 0),
            (t_deg_max, lambda f, i: int(f == "t")),
        )
        weights, caps = [], []
        for cap, weight in rules:
            if cap is None:
                continue
            if cap < 0:
                raise ValueError(f"truncation caps must be non-negative: {self!r}")
            w = tuple(weight(f, i) for f, i in zip(fams, varset.indices))
            if any(w):  # an empty load never fails
                weights.append(w)
                caps.append(cap)
        maxima = []  # the largest admitted exponent of each variable
        for pos, name in enumerate(varset.names):
            bounds = [cap // w[pos] for w, cap in zip(weights, caps) if w[pos]]
            if not bounds:
                raise ValueError(f"no cap of {self!r} bounds the variable {name}")
            maxima.append(min(bounds))
        self._weights = tuple(weights)
        self._caps = tuple(caps)

        shift = 0
        fields = []
        for m in maxima:
            width = m.bit_length()
            fields.append((shift, (1 << width) - 1))
            shift += width
        self._fields = tuple(fields)
        self._var_at = tuple(pos for pos, m in enumerate(maxima) for _ in range(m.bit_length()))
        self._deg_shift = shift
        width = (2 * sum(caps)).bit_length()
        self._deg_mask = (1 << width) - 1
        shift += width
        load_shifts = []
        self._bias = self._guard = 0
        for cap in caps[1:]:
            width = cap.bit_length()  # the guard bit sits at 2^width > cap
            load_shifts.append(shift)
            self._bias += ((1 << width) - 1 - cap) << shift
            self._guard += 1 << (shift + width)
            shift += width + 1
        load_shifts.insert(0, shift)
        self._top = shift
        self._limit = (caps[0] + 1) << shift
        self._units = tuple(  # the key of each variable to the first power
            (1 << s)
            + (1 << self._deg_shift)
            + sum(w[pos] << ls for w, ls in zip(weights, load_shifts))
            for pos, (s, _) in enumerate(fields)
        )

    def _loads(self, exps: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(sum(map(mul, w, exps)) for w in self._weights)

    def admits(self, exps: tuple[int, ...]) -> bool:
        return min(exps) >= 0 and all(map(le, self._loads(exps), self._caps))

    def key(self, exps: tuple[int, ...]) -> int:
        """The packed key of an admitted exponent vector, as `nums` holds it."""
        return sum(map(mul, exps, self._units))

    def exps(self, key: int) -> tuple[int, ...]:
        """The exponent vector of a packed key; the inverse of `key`."""
        return tuple((key >> s) & m for s, m in self._fields)

    def split(self, key: int) -> tuple[int, int]:
        """(position of the last variable, key of the rest) of a non-constant key."""
        pos = self._var_at[(key & ((1 << self._deg_shift) - 1)).bit_length() - 1]
        return pos, key - self._units[pos]

    def _product(self, a: list, b: list) -> dict[int, int]:
        """Numerators of the admitted products of two operands, each a list
        of (key, numerator) sorted by key; the product's denominator is the
        product of theirs.

        Keys sort by first load, so each inner loop stops at the first key
        past the cap that is left; the other caps are one guard test."""
        if len(a) > len(b):
            a, b = b, a
        acc: dict[int, int] = {}
        if not a:
            return acc
        get = acc.get
        top, limit, bias, guard = self._top, self._limit, self._bias, self._guard
        b_min = b[0][0]
        for ka, na in a:
            room = limit - (ka >> top << top)
            if b_min >= room:
                break
            kab = ka + bias
            for kb, nb in b:
                if kb >= room:
                    break
                if (kab + kb) & guard:
                    continue
                k = ka + kb
                acc[k] = get(k, 0) + na * nb
        return acc

    def max_total_degree(self) -> int:
        """Upper bound on the total degree of any admitted monomial, used as
        the iteration bound for inverse/exp/log: every variable has weight
        >= 1 in some load, so the degree is at most the sum of the caps."""
        return sum(self._caps)

    def sum(self, series: Iterable["ExactSeries"]) -> "ExactSeries":
        """The sum of series of this ring, over one common denominator."""
        return self.combination((1, s) for s in series)

    def combination(self, pairs: Iterable[tuple[int | Fraction, "ExactSeries"]]) -> "ExactSeries":
        """sum c * S over (rational c, series S of this ring) pairs: one pass
        over the integer numerators, over one common denominator."""
        parts = []
        for c, s in pairs:
            self._require(s.ring)
            parts.append((c.numerator, c.denominator * s.den, s.nums))
        return ExactSeries(self, *_sum(parts))

    def _require(self, other: "SeriesRing") -> None:
        """Refuse an operand from another ring."""
        if other is not self and other != self:
            raise VarSetMismatchError(f"operands in different rings: {self!r} vs {other!r}")

    def zero(self) -> "ExactSeries":
        return ExactSeries(self, 1, {})

    def one(self) -> "ExactSeries":
        return self.const(1)

    def const(self, c) -> "ExactSeries":
        return self.monomial({}, c)

    def var(self, name: str) -> "ExactSeries":
        return self.monomial({name: 1}, 1)

    def monomial(self, exps: Mapping[str, int], coeff) -> "ExactSeries":
        c = Fraction(coeff)
        vec = self.varset.encode(exps)
        return ExactSeries.from_ratios(self, [(vec, c.numerator, c.denominator)])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SeriesRing)
            and self.varset == other.varset
            and self.caps == other.caps
        )

    def __hash__(self) -> int:
        return hash((self.varset, self.caps))

    def __repr__(self) -> str:
        names = ("x_max", "u_max", "p_weight_max", "t_deg_max")
        caps = "".join(f", {n}={c}" for n, c in zip(names, self.caps) if c is not None)
        return f"SeriesRing({self.varset!r}{caps})"


def _canonical(den: int, nums: Mapping[int, int]) -> tuple[int, dict[int, int]]:
    """(den, nums) with zeros dropped and the common factor divided out;
    den must be positive."""
    nums = {k: n for k, n in nums.items() if n}
    g = math.gcd(den, *nums.values())
    if g > 1:
        den //= g
        nums = {k: n // g for k, n in nums.items()}
    return den, nums


def over_lcm(pairs: Iterable[tuple[int, int]]) -> tuple[int, list[int]]:
    """(den, nums) with nums[i] / den = n_i / d_i over (n_i, d_i > 0) pairs,
    den their lcm (1 for none): where rationals go over a common denominator.

    >>> over_lcm([(1, 2), (1, 3), (-5, 6)])
    (6, [3, 2, -5])
    """
    pairs = list(pairs)
    den = math.lcm(*[d for _, d in pairs])
    return den, [n * (den // d) for n, d in pairs]


def _sum(parts: Iterable[tuple[int, int, Mapping[int, int]]]) -> tuple[int, dict[int, int]]:
    """The canonical sum of scale * nums / den over (scale, den, nums) parts,
    over the lcm of their dens."""
    parts = [p for p in parts if p[0] and p[2]]
    den, scales = over_lcm([(c, d) for c, d, _ in parts])
    acc: dict[int, int] = {}
    get = acc.get
    for f, (_, _, nums) in zip(scales, parts):
        for k, n in nums.items():
            acc[k] = get(k, 0) + f * n
    return _canonical(den, acc)


class ExactSeries:
    """A sparse truncated series: integer numerators over one denominator.

    `nums` maps the packed key of each admitted monomial to a nonzero
    numerator, and `den` is positive with gcd(den, *nums) == 1, so equal
    series have equal fields.  `terms`, the map from exponent vector to
    Fraction, and the key-sorted items that products read are built on
    first use.  Instances are immutable by convention; all operations
    return new series in the same ring.
    """

    __slots__ = ("ring", "den", "nums", "_terms", "_sorted")

    def __init__(self, ring: SeriesRing, den: int, nums: dict[int, int]):
        """Wrap a canonical (den, nums) of admitted keys, unchecked; a series
        of rationals is built by `from_ratios` or `from_keys`."""
        self.ring, self.den, self.nums = ring, den, nums
        self._terms = self._sorted = None

    @classmethod
    def from_ratios(
        cls, ring: SeriesRing, ratios: Iterable[tuple[tuple[int, ...], int, int]]
    ) -> "ExactSeries":
        """The series sum num/den x^exps over (exps, num, den) triples, with
        distinct vectors and den > 0, less the terms the ring does not admit,
        with no Fraction built."""
        return cls.from_keys(
            ring, ((ring.key(e), n, d) for e, n, d in ratios if n and ring.admits(e))
        )

    @classmethod
    def from_keys(cls, ring: SeriesRing, ratios: Iterable[tuple[int, int, int]]) -> "ExactSeries":
        """The series sum num/den m over (key, num, den) triples, where key is
        the packed key of a monomial m that the ring admits (unchecked), the
        keys are distinct and den > 0."""
        kept = [r for r in ratios if r[1]]
        den, nums = over_lcm([(n, d) for _, n, d in kept])
        return cls(ring, *_canonical(den, {k: n for (k, _, _), n in zip(kept, nums)}))

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        if self._terms is None:
            exps, den = self.ring.exps, self.den
            self._terms = {exps(k): Fraction(n, den) for k, n in self.nums.items()}
        return self._terms

    def _items(self) -> list[tuple[int, int]]:
        """The (key, numerator) pairs sorted by key, as the product kernel reads them."""
        if self._sorted is None:
            self._sorted = sorted(self.nums.items())
        return self._sorted

    def up_to_degree(self, m: int) -> "ExactSeries":
        """The terms of total degree at most m, read from each key's degree field."""
        shift, mask = self.ring._deg_shift, self.ring._deg_mask
        nums = {k: n for k, n in self.nums.items() if (k >> shift) & mask <= m}
        return ExactSeries(self.ring, *_canonical(self.den, nums))

    def where(self, keep: Callable[[tuple[int, ...]], bool]) -> "ExactSeries":
        """The terms whose exponent vector satisfies `keep`."""
        exps = self.ring.exps
        nums = {k: n for k, n in self.nums.items() if keep(exps(k))}
        return ExactSeries(self.ring, *_canonical(self.den, nums))

    # -- basics ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    def constant_term(self) -> Fraction:
        return Fraction(self.nums.get(0, 0), self.den)

    def coeff(self, exps: Mapping[str, int]) -> Fraction:
        vec = self.ring.varset.encode(exps)
        n = self.nums.get(self.ring.key(vec), 0) if self.ring.admits(vec) else 0
        return Fraction(n, self.den)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactSeries)
            and self.ring == other.ring
            and self.den == other.den
            and self.nums == other.nums
        )

    def __repr__(self) -> str:
        n = len(self.nums)
        return f"<ExactSeries {n} terms in {self.ring.varset.names}>"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "ExactSeries":
        if not isinstance(other, ExactSeries):
            other = self.ring.const(other)
        return self.ring.sum((self, other))

    __radd__ = __add__

    def __neg__(self) -> "ExactSeries":
        return self.scale(-1)

    def __sub__(self, other) -> "ExactSeries":
        if not isinstance(other, ExactSeries):
            other = self.ring.const(other)
        return self.ring.combination(((1, self), (-1, other)))

    def __rsub__(self, other) -> "ExactSeries":
        return self.ring.const(other) - self

    def scale(self, c) -> "ExactSeries":
        return self.ring.combination(((Fraction(c), self),))

    def __mul__(self, other) -> "ExactSeries":
        if not isinstance(other, ExactSeries):
            return self.scale(other)
        self.ring._require(other.ring)
        nums = self.ring._product(self._items(), other._items())
        return ExactSeries(self.ring, *_canonical(self.den * other.den, nums))

    __rmul__ = __mul__

    def times_monomial(self, exps: tuple[int, ...]) -> "ExactSeries":
        """This series times the monomial of `exps`: one key shift, under `_product`'s tests."""
        ring = self.ring
        nums = ring._product([(ring.key(exps), 1)], self._items()) if ring.admits(exps) else {}
        return ExactSeries(ring, *_canonical(self.den, nums))

    def __pow__(self, n: int) -> "ExactSeries":
        if n < 0:
            return self.inverse() ** (-n)
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def powers(self, n: int) -> list["ExactSeries"]:
        """[1, a, a^2, ..., a^n], each power one product from the last."""
        out = [self.ring.one()]
        for _ in range(n):
            out.append(out[-1] * self)
        return out

    # -- inverse / exp / log -----------------------------------------------
    #
    # All three solve a recurrence over slices by total degree,
    #   out_0 = first,  out_m = finish(m, sum_{j >= 1} fixed_j * out_{m-j}),
    # where every slice is a canonical (den, nums) pair and every product is
    # done by the ring's kernel.

    def _slices(self) -> dict[int, dict[int, int]]:
        """The numerators of this series, over `den`, by total degree."""
        ring = self.ring
        shift, mask = ring._deg_shift, ring._deg_mask
        slices: dict[int, dict[int, int]] = {}
        for k, n in self.nums.items():
            slices.setdefault((k >> shift) & mask, {})[k] = n
        return slices

    def _graded(
        self,
        fixed: dict[int, dict[int, int]],
        first: tuple,
        finish: Callable[[int, tuple], tuple],
    ) -> dict[int, tuple]:
        """The nonzero slices out_m of the recurrence above, by degree m;
        `fixed` holds numerators over `den`."""
        ring, den = self.ring, self.den
        fixed_ops = [(j, sorted(s.items())) for j, s in sorted(fixed.items()) if j]
        out = {0: first}
        ops = {0: (first[0], sorted(first[1].items()))}
        for m in range(1, ring.max_total_degree() + 1):
            acc = _sum(
                (1, den * ops[m - j][0], ring._product(op, ops[m - j][1]))
                for j, op in fixed_ops
                if m - j in ops
            )
            slice_m = finish(m, acc)
            if slice_m[1]:
                out[m] = slice_m
                ops[m] = (slice_m[0], sorted(slice_m[1].items()))
        return out

    def inverse(self) -> "ExactSeries":
        """Multiplicative inverse; requires an invertible constant term.

        B_0 = 1/A_0 and A_0*B_m = -sum_{j>=1} A_j*B_{m-j}.
        """
        c0 = self.constant_term()
        if c0 == 0:
            raise ConstantTermError("inverse requires nonzero constant term")
        # 1/c0 = q/p with p > 0
        p = abs(c0.numerator)
        q = c0.denominator if c0 > 0 else -c0.denominator
        slices = self._graded(
            self._slices(),
            (p, {0: q}),
            lambda m, acc: _canonical(acc[0] * p, {k: -q * n for k, n in acc[1].items()}),
        )
        return ExactSeries(self.ring, *_sum((1, *s) for s in slices.values()))

    def exp(self) -> "ExactSeries":
        """Exponential; requires constant term 0.

        Computed by the Euler-graded recurrence m*E_m = sum_j j*A_j*E_{m-j}
        over degree slices, so cost is one Cauchy product overall.
        """
        if self.constant_term() != 0:
            raise ConstantTermError("exp requires constant term 0")
        fixed = {j: {k: j * n for k, n in s.items()} for j, s in self._slices().items()}
        slices = self._graded(fixed, (1, {0: 1}), lambda m, acc: _canonical(acc[0] * m, acc[1]))
        return ExactSeries(self.ring, *_sum((1, *s) for s in slices.values()))

    def log(self) -> "ExactSeries":
        """Logarithm; requires constant term 1.

        Inverse recurrence of `exp`, solved for K_m = m*H_m:
        K_0 = 0 and K_m = m*E_m - sum_{j>=1} E_j*K_{m-j}.
        """
        if self.constant_term() != 1:
            raise ConstantTermError("log requires constant term 1")
        e_slices = self._slices()
        k_slices = self._graded(
            {j: {k: -n for k, n in s.items()} for j, s in e_slices.items()},
            (1, {}),
            lambda m, acc: _sum(((1, *acc), (m, self.den, e_slices.get(m, {})))),
        )
        return ExactSeries(
            self.ring, *_sum((1, d * m, nums) for m, (d, nums) in k_slices.items() if m)
        )

    # -- derivations -------------------------------------------------------

    def diff(self, name: str) -> "ExactSeries":
        """Partial derivative with respect to a named variable."""
        ring = self.ring
        pos = ring.varset.position[name]
        (shift, mask), unit = ring._fields[pos], ring._units[pos]
        nums = {}
        for k, n in self.nums.items():
            e = (k >> shift) & mask
            if e:
                nums[k - unit] = e * n
        return ExactSeries(ring, *_canonical(self.den, nums))

    def euler(self, name: str) -> "ExactSeries":
        """The operator v * d/dv for the named variable (degree scaling)."""
        ring = self.ring
        shift, mask = ring._fields[ring.varset.position[name]]
        return ExactSeries(
            ring, *_canonical(self.den, {k: ((k >> shift) & mask) * n for k, n in self.nums.items()})
        )


def lagrange_coeff(n: int, r: int, d: int) -> Fraction:
    """[x^d] of w^n / (1-w)^r where w = x*e^w, as an exact rational.

    Evaluates the closed double sum
    sum_i C(r+i-1, r-1) n d^(d-n-i-1)/(d-n-i)!
    + sum_i C(r+i, r) r d^(d-n-i-2)/(d-n-i-1)!
    as one integer over d (d-n)!: with k = d - n, each term's
    d^(k-i-1)/(k-i)! is d^(k-i) k!/(k-i)! over d k!.

    >>> lagrange_coeff(1, 0, 3)
    Fraction(3, 2)
    >>> lagrange_coeff(4, 7, 4)
    Fraction(1, 1)
    """
    if d < 1:
        raise ValueError("d must be positive")
    if n < 0 or r < 0:
        raise ValueError("n and r must be nonnegative")
    if n > d:
        return Fraction(0)
    k = d - n
    if r == 0:
        # w^n alone: only the i = 0 term of the first sum survives.
        return Fraction(n * d**k, d * math.factorial(k))
    total = sum(
        math.comb(r + i - 1, r - 1) * n * d ** (k - i) * math.perm(k, i) for i in range(k + 1)
    ) + sum(math.comb(r + i, r) * r * d ** (k - i - 1) * math.perm(k, i + 1) for i in range(k))
    return Fraction(total, d * math.factorial(k))


def rational_str(q) -> str:
    """Serialize a rational as "num/den" with an explicit denominator.

    >>> rational_str(Fraction(7, 240))
    '7/240'
    >>> rational_str(Fraction(-3))
    '-3/1'
    """
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"

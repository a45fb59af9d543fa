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
from typing import Callable, Iterable, Mapping, NamedTuple

__all__ = [
    "Fraction",
    "SeriesError",
    "VarSetMismatchError",
    "ConstantTermError",
    "DivergingFunctionalError",
    "VarSet",
    "Truncation",
    "SeriesRing",
    "ExactSeries",
    "solve_graded_fixpoint",
    "lagrange_coeff",
    "rational_str",
]


class SeriesError(Exception):
    """Base class for exact-series errors."""


class VarSetMismatchError(SeriesError):
    """Operands live in different rings (variables or truncation differ)."""


class ConstantTermError(SeriesError):
    """A constant-term precondition (0 for exp, 1 for log, unit for inverse)."""


class DivergingFunctionalError(SeriesError):
    """A graded fixed-point iteration changed an already-determined slice."""


_VAR_RE = re.compile(r"^(x|u|p_(\d+)|t_(\d+))$")


class VarSet:
    """An ordered set of named variables with derived family/index metadata.

    >>> vs = VarSet(("x", "p_1", "p_2"))
    >>> vs.families
    ('x', 'p', 'p')
    >>> vs.indices
    (0, 1, 2)
    """

    __slots__ = ("names", "families", "indices", "position")

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

    def profile_exps(self, alpha: Iterable[int], r: int | None = None) -> tuple[int, ...]:
        """The exponent vector of x^|alpha| p_alpha, times u^r when r is
        given: the one encoding of a profile as a monomial.

        >>> VarSet.xup(2).profile_exps((2, 1), r=2)
        (3, 2, 1, 1)
        """
        vec = [0] * len(self.names)
        vec[self.position["x"]] = sum(alpha)
        if r is not None:
            vec[self.position["u"]] = r
        for part in alpha:
            vec[self.position[f"p_{part}"]] += 1
        return tuple(vec)

    def profile(self, exps: tuple[int, ...]) -> tuple[int, int, tuple[int, ...]]:
        """(x-degree, u-degree, sorted parts) of an exponent vector; the
        inverse of `profile_exps`.

        >>> vs = VarSet.xup(2)
        >>> vs.profile(vs.profile_exps((2, 1), r=2))
        (3, 2, (1, 2))
        """
        d = r = 0
        parts: list[int] = []
        for fam, idx, e in zip(self.families, self.indices, exps):
            if fam == "x":
                d = e
            elif fam == "u":
                r = e
            elif fam == "p":
                parts.extend([idx] * e)
        return d, r, tuple(sorted(parts))

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


class Truncation(NamedTuple):
    """Per-family degree caps.  ``None`` means uncapped for that family."""

    x_max: int | None = None
    u_max: int | None = None
    p_weight_max: int | None = None
    t_deg_max: int | None = None


class SeriesRing:
    """A VarSet plus a Truncation, with each cap stored as a linear load.

    Every cap of the truncation is a bound ``sum_i w_i * e_i <= cap`` on the
    exponent vector ``e``, with every weight ``w_i >= 0``: x-degree,
    u-degree, p-weight and t-degree.  A monomial is admitted when its
    exponents are non-negative and every load is within its cap.  Since no
    weight is negative, a factor of an admitted monomial is admitted, so
    truncated multiplication is associative and the graded inverse/exp/log
    run in the ring itself.  A negative cap is refused: it would admit no
    monomial, not even the constant that `one` and `exp` need.  So is a
    variable that no cap bounds, since the packing below needs a bound.

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
        "varset", "trunc", "_weights", "_caps", "_fields", "_units",
        "_deg_shift", "_deg_mask", "_top", "_limit", "_bias", "_guard",
    )

    def __init__(self, varset: VarSet, trunc: Truncation):
        self.varset = varset
        self.trunc = trunc
        fams = varset.families
        rules = (
            (trunc.x_max, lambda f, i: int(f == "x")),
            (trunc.u_max, lambda f, i: int(f == "u")),
            (trunc.p_weight_max, lambda f, i: i if f == "p" else 0),
            (trunc.t_deg_max, lambda f, i: int(f == "t")),
        )
        weights, caps = [], []
        for cap, weight in rules:
            if cap is None:
                continue
            if cap < 0:
                raise ValueError(f"truncation caps must be non-negative: {trunc!r}")
            w = tuple(weight(f, i) for f, i in zip(fams, varset.indices))
            if any(w):  # an empty load never fails
                weights.append(w)
                caps.append(cap)
        maxima = []  # the largest admitted exponent of each variable
        for pos, name in enumerate(varset.names):
            bounds = [cap // w[pos] for w, cap in zip(weights, caps) if w[pos]]
            if not bounds:
                raise ValueError(f"no cap of {trunc!r} bounds the variable {name}")
            maxima.append(min(bounds))
        if not weights:  # no variables: the constant alone, under a zero load
            weights.append(())
            caps.append(0)
        self._weights = tuple(weights)
        self._caps = tuple(caps)

        shift = 0
        fields = []
        for m in maxima:
            width = m.bit_length()
            fields.append((shift, (1 << width) - 1))
            shift += width
        self._fields = tuple(fields)
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
        return min(exps, default=0) >= 0 and all(map(le, self._loads(exps), self._caps))

    def _key(self, exps: tuple[int, ...]) -> int:
        """The packed key of an admitted exponent vector."""
        return sum(map(mul, exps, self._units))

    def _exps(self, key: int) -> tuple[int, ...]:
        return tuple((key >> s) & m for s, m in self._fields)

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
            if s.ring is not self and s.ring != self:
                raise VarSetMismatchError(
                    f"operands in different rings: {self!r} vs {s.ring!r}"
                )
            parts.append((c.numerator, c.denominator * s.den, s.nums))
        return ExactSeries._of(self, *_sum(parts))

    def zero(self) -> "ExactSeries":
        return ExactSeries(self, {})

    def one(self) -> "ExactSeries":
        return self.const(1)

    def const(self, c) -> "ExactSeries":
        c = Fraction(c)
        if c == 0:
            return self.zero()
        return ExactSeries(self, {(0,) * len(self.varset.names): c})

    def var(self, name: str) -> "ExactSeries":
        return self.monomial({name: 1}, 1)

    def monomial(self, exps: Mapping[str, int], coeff) -> "ExactSeries":
        vec = [0] * len(self.varset.names)
        for name, e in exps.items():
            vec[self.varset.position[name]] = e
        return ExactSeries(self, {tuple(vec): Fraction(coeff)})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SeriesRing)
            and self.varset == other.varset
            and self.trunc == other.trunc
        )

    def __hash__(self) -> int:
        return hash((self.varset, self.trunc))

    def __repr__(self) -> str:
        return f"SeriesRing({self.varset!r}, {self.trunc!r})"


def _canonical(den: int, nums: Mapping[int, int]) -> tuple[int, dict[int, int]]:
    """(den, nums) with zeros dropped and the common factor divided out;
    den must be positive."""
    nums = {k: n for k, n in nums.items() if n}
    g = math.gcd(den, *nums.values())
    if g > 1:
        den //= g
        nums = {k: n // g for k, n in nums.items()}
    return den, nums


def _sum(parts: Iterable[tuple[int, int, Mapping[int, int]]]) -> tuple[int, dict[int, int]]:
    """The canonical sum of scale * nums / den over (scale, den, nums) parts,
    over the lcm of their dens."""
    parts = [p for p in parts if p[0] and p[2]]
    den = math.lcm(*(d for _, d, _ in parts))
    acc: dict[int, int] = {}
    get = acc.get
    for c, d, nums in parts:
        f = c * (den // d)
        for k, n in nums.items():
            acc[k] = get(k, 0) + f * n
    return _canonical(den, acc)


class ExactSeries:
    """A sparse truncated series: integer numerators over one denominator.

    `nums` maps the packed key of each admitted monomial to a nonzero
    numerator, and `den` is positive with gcd(den, *nums) == 1, so equal
    series have equal fields.  `terms`, the map from exponent vector to
    Fraction, is built on first read.  Instances are immutable by
    convention; all operations return new series in the same ring.
    """

    __slots__ = ("ring", "den", "nums", "_terms")

    def __init__(self, ring: SeriesRing, terms: Mapping[tuple[int, ...], Fraction]):
        self.ring = ring
        kept = {e: Fraction(c) for e, c in terms.items() if c != 0 and ring.admits(e)}
        # over the lcm of reduced denominators the numerators share no factor with it
        self.den = den = math.lcm(*(c.denominator for c in kept.values()))
        self.nums = {ring._key(e): c.numerator * (den // c.denominator) for e, c in kept.items()}
        self._terms = None

    @classmethod
    def _of(cls, ring: SeriesRing, den: int, nums: dict[int, int]) -> "ExactSeries":
        """Wrap a canonical (den, nums) of admitted keys."""
        series = object.__new__(cls)
        series.ring = ring
        series.den = den
        series.nums = nums
        series._terms = None
        return series

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        if self._terms is None:
            exps, den = self.ring._exps, self.den
            self._terms = {exps(k): Fraction(n, den) for k, n in self.nums.items()}
        return self._terms

    # -- basics ----------------------------------------------------------

    def _check_ring(self, other: "ExactSeries") -> None:
        if self.ring != other.ring:
            raise VarSetMismatchError(
                f"operands in different rings: {self.ring!r} vs {other.ring!r}"
            )

    def is_zero(self) -> bool:
        return not self.nums

    def constant_term(self) -> Fraction:
        return Fraction(self.nums.get(0, 0), self.den)

    def coeff(self, exps: Mapping[str, int]) -> Fraction:
        vec = [0] * len(self.ring.varset.names)
        for name, e in exps.items():
            vec[self.ring.varset.position[name]] = e
        if not self.ring.admits(vec):
            return Fraction(0)
        return Fraction(self.nums.get(self.ring._key(vec), 0), self.den)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactSeries)
            and self.ring == other.ring
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self):
        raise TypeError("ExactSeries is not hashable")

    def __repr__(self) -> str:
        n = len(self.nums)
        return f"<ExactSeries {n} terms in {self.ring.varset.names}>"

    def _moved(self, ring: SeriesRing) -> "ExactSeries":
        """This series in a ring over the same variables, less the terms
        that ring does not admit."""
        exps = self.ring._exps
        nums = {}
        for k, n in self.nums.items():
            e = exps(k)
            if ring.admits(e):
                nums[ring._key(e)] = n
        return ExactSeries._of(ring, *_canonical(self.den, nums))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "ExactSeries":
        if not isinstance(other, ExactSeries):
            other = self.ring.const(other)
        return self.ring.sum((self, other))

    __radd__ = __add__

    def __neg__(self) -> "ExactSeries":
        return ExactSeries._of(self.ring, self.den, {k: -n for k, n in self.nums.items()})

    def __sub__(self, other) -> "ExactSeries":
        if not isinstance(other, ExactSeries):
            other = self.ring.const(other)
        return self.ring.sum((self, -other))

    def __rsub__(self, other) -> "ExactSeries":
        return self.ring.const(other) - self

    def scale(self, c) -> "ExactSeries":
        c = Fraction(c)
        p = c.numerator
        return ExactSeries._of(
            self.ring,
            *_canonical(self.den * c.denominator, {k: n * p for k, n in self.nums.items()}),
        )

    def __mul__(self, other) -> "ExactSeries":
        if not isinstance(other, ExactSeries):
            return self.scale(other)
        self._check_ring(other)
        nums = self.ring._product(sorted(self.nums.items()), sorted(other.nums.items()))
        return ExactSeries._of(self.ring, *_canonical(self.den * other.den, nums))

    __rmul__ = __mul__

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
        return ExactSeries._of(self.ring, *_sum((1, *s) for s in slices.values()))

    def exp(self) -> "ExactSeries":
        """Exponential; requires constant term 0.

        Computed by the Euler-graded recurrence m*E_m = sum_j j*A_j*E_{m-j}
        over degree slices, so cost is one Cauchy product overall.
        """
        if self.constant_term() != 0:
            raise ConstantTermError("exp requires constant term 0")
        fixed = {j: {k: j * n for k, n in s.items()} for j, s in self._slices().items()}
        slices = self._graded(fixed, (1, {0: 1}), lambda m, acc: _canonical(acc[0] * m, acc[1]))
        return ExactSeries._of(self.ring, *_sum((1, *s) for s in slices.values()))

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
        return ExactSeries._of(
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
        return ExactSeries._of(ring, *_canonical(self.den, nums))

    def euler(self, name: str) -> "ExactSeries":
        """The operator v * d/dv for the named variable (degree scaling)."""
        ring = self.ring
        shift, mask = ring._fields[ring.varset.position[name]]
        return ExactSeries._of(
            ring, *_canonical(self.den, {k: ((k >> shift) & mask) * n for k, n in self.nums.items()})
        )


def solve_graded_fixpoint(
    functional: Callable[[ExactSeries], ExactSeries],
    ring: SeriesRing,
    max_grade: int,
    cap: str,
) -> ExactSeries:
    """Solve v = functional(v) where the functional raises the grading that
    the ring's cap `cap` (a `Truncation` field, such as "x_max") bounds.

    Starting from 0, iteration k determines the slices of grade <= k, so it
    runs in the ring whose cap is lowered to k; the functional must build
    its result in `v.ring`.  Truncation by a cap is a ring homomorphism, so
    each lowered iteration is exact.  Each lowered ring packs its keys
    differently, so the iterate is repacked into the next one.  The solver
    confirms that previously determined slices never change, and that the
    result is an exact fixed point in `ring`; otherwise raises
    DivergingFunctionalError.
    """

    def lowered(k: int) -> SeriesRing:
        return SeriesRing(ring.varset, ring.trunc._replace(**{cap: k}))

    cur = lowered(0).zero()
    for step in range(1, max_grade + 1):
        sub = lowered(step)
        nxt = functional(cur._moved(sub))
        if nxt.ring != sub:
            raise VarSetMismatchError(f"the functional left the ring {sub!r}")
        if nxt._moved(cur.ring) != cur:
            raise DivergingFunctionalError(
                f"slice of grade <= {step - 1} changed at iteration {step}"
            )
        cur = nxt
    cur = cur._moved(ring)
    if functional(cur) != cur:
        raise DivergingFunctionalError(
            f"no fixed point within grade {max_grade}"
        )
    return cur


def lagrange_coeff(n: int, r: int, d: int) -> Fraction:
    """[x^d] of w^n / (1-w)^r where w = x*e^w, as an exact rational.

    Evaluates the closed double sum
    sum_i C(r+i-1, r-1) n d^(d-n-i-1)/(d-n-i)!
    + sum_i C(r+i, r) r d^(d-n-i-2)/(d-n-i-1)!.

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
    total = Fraction(0)
    if r == 0:
        # w^n alone: only the i = 0 term of the first sum survives.
        if n == 0:
            return Fraction(1) if d == 0 else Fraction(0)
        return n * Fraction(d) ** (d - n - 1) / math.factorial(d - n)
    for i in range(0, d - n + 1):
        total += (
            math.comb(r + i - 1, r - 1)
            * n
            * Fraction(d) ** (d - n - i - 1)
            / math.factorial(d - n - i)
        )
    for i in range(0, d - n):
        total += (
            math.comb(r + i, r)
            * r
            * Fraction(d) ** (d - n - i - 2)
            / math.factorial(d - n - i - 1)
        )
    return total


def rational_str(q) -> str:
    """Serialize a rational as "num/den" with an explicit denominator.

    >>> rational_str(Fraction(7, 240))
    '7/240'
    >>> rational_str(Fraction(-3))
    '-3/1'
    """
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"

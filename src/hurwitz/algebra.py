"""Exact truncated multivariate formal power series over the rationals.

All coefficients are `fractions.Fraction`; the package contains no floating
point.  A series is attached to a `SeriesRing` (a variable set plus a
truncation policy) fixed at construction.  Arithmetic between series from
different rings raises instead of silently re-truncating, since mismatched
truncations are the classic source of wrong exact-series results.

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
from operator import add, itemgetter, le, mul, sub
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

    def profile(self, exps: tuple[int, ...]) -> tuple[int, int, tuple[int, ...]]:
        """(x-degree, u-degree, sorted parts) of an exponent vector; the
        inverse of `SeriesRing.profile_monomial`."""
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
    exponents are non-negative and every load is within its cap.  Loads are
    linear, so a product's loads are the sums of its factors' loads; the
    product kernel uses that to reject pairs without building their exponent
    vectors.  Since no weight is negative, a factor of an admitted monomial
    is admitted, so truncated multiplication is associative and the graded
    inverse/exp/log run in the ring itself.  A negative cap is refused: it
    would admit no monomial, not even the constant that `one` and `exp` need.
    """

    __slots__ = ("varset", "trunc", "_weights", "_caps")

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
        if not weights:  # the kernel sorts by a first load; give it one
            weights.append((0,) * len(fams))
            caps.append(0)
        self._weights = tuple(weights)
        self._caps = tuple(caps)

    def _loads(self, exps: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(sum(map(mul, w, exps)) for w in self._weights)

    def admits(self, exps: tuple[int, ...]) -> bool:
        return min(exps, default=0) >= 0 and all(map(le, self._loads(exps), self._caps))

    def _prepare(self, terms: Mapping[tuple[int, ...], Fraction]) -> tuple:
        """The operand form of `_mul_into`: the terms over one common
        denominator, as (denominator, [(first load, other loads, exponents,
        numerator), ...]) sorted by first load."""
        den = math.lcm(*(c.denominator for c in terms.values()))
        out = []
        for e, c in terms.items():
            loads = self._loads(e)
            out.append((loads[0], loads[1:], e, c.numerator * (den // c.denominator)))
        out.sort(key=itemgetter(0))
        return den, out

    def _mul_into(self, acc: dict, a: tuple, b: tuple) -> None:
        """acc += a * b over admitted products, for prepared admitted terms.

        Both operands are sorted by first load, so each inner loop stops at
        the first cap; an exponent tuple is built only for admitted pairs.
        Products are summed as integer numerators and divided once per
        monomial.
        """
        (den_a, a), (den_b, b) = a, b
        if not b:
            return
        cap0, caps = self._caps[0], self._caps[1:]
        lb_min = b[0][0]
        nums: dict[tuple[int, ...], int] = {}
        for la, ra, ea, na in a:
            room = cap0 - la
            if lb_min > room:
                break
            rooms = tuple(map(sub, caps, ra))
            for lb, rb, eb, nb in b:
                if lb > room:
                    break
                if rooms and not all(map(le, rb, rooms)):
                    continue
                e = tuple(map(add, ea, eb))
                nums[e] = nums.get(e, 0) + na * nb
        den = den_a * den_b
        for e, n in nums.items():
            if n:
                q = Fraction(n, den)
                acc[e] = acc[e] + q if e in acc else q

    def max_total_degree(self) -> int:
        """Upper bound on the total degree of any admitted monomial.

        Requires every family that is present to be capped; used as the
        iteration bound for inverse/exp/log.
        """
        t = self.trunc
        bound = 0
        fams = set(self.varset.families)
        if "x" in fams:
            if t.x_max is None:
                raise SeriesError("x is uncapped; no finite degree bound")
            bound += t.x_max
        if "u" in fams:
            if t.u_max is None:
                raise SeriesError("u is uncapped; no finite degree bound")
            bound += t.u_max
        if "p" in fams:
            if t.p_weight_max is None:
                raise SeriesError("p-weight is uncapped; no finite degree bound")
            bound += t.p_weight_max  # deg(p_i) = 1 <= i <= weight
        if "t" in fams:
            if t.t_deg_max is None:
                raise SeriesError("t-degree is uncapped; no finite degree bound")
            bound += t.t_deg_max
        return bound

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

    def profile_monomial(self, alpha: Iterable[int], coeff, r: int | None = None) -> "ExactSeries":
        """coeff * x^|alpha| p_alpha, times u^r when r is given: the one
        encoding of a profile as a monomial.  `VarSet.profile` decodes it.

        >>> ring = SeriesRing(VarSet.xup(2), Truncation(x_max=3, u_max=2, p_weight_max=3))
        >>> [ring.varset.profile(e) for e in ring.profile_monomial((2, 1), 1, r=2).terms]
        [(3, 2, (1, 2))]
        """
        exps = {"x": sum(alpha)}
        if r is not None:
            exps["u"] = r
        for part in alpha:
            name = f"p_{part}"
            exps[name] = exps.get(name, 0) + 1
        return self.monomial(exps, coeff)

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


class ExactSeries:
    """A sparse truncated series: map from exponent vector to Fraction.

    Instances are immutable by convention; all operations return new series
    in the same ring.  Stored coefficients are never zero and every stored
    exponent vector is admitted by the ring's truncation.
    """

    __slots__ = ("ring", "terms", "_operand")

    def __init__(self, ring: SeriesRing, terms: Mapping[tuple[int, ...], Fraction]):
        self.ring = ring
        self.terms = {
            e: c for e, c in terms.items() if c != 0 and ring.admits(e)
        }

    @classmethod
    def _admitted(cls, ring: SeriesRing, terms: dict) -> "ExactSeries":
        """Wrap terms that are admitted and nonzero by construction."""
        series = object.__new__(cls)
        series.ring = ring
        series.terms = terms
        return series

    # -- basics ----------------------------------------------------------

    def _check_ring(self, other: "ExactSeries") -> None:
        if self.ring != other.ring:
            raise VarSetMismatchError(
                f"operands in different rings: {self.ring!r} vs {other.ring!r}"
            )

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> Fraction:
        zero_key = (0,) * len(self.ring.varset.names)
        return self.terms.get(zero_key, Fraction(0))

    def coeff(self, exps: Mapping[str, int]) -> Fraction:
        vec = [0] * len(self.ring.varset.names)
        for name, e in exps.items():
            vec[self.ring.varset.position[name]] = e
        return self.terms.get(tuple(vec), Fraction(0))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactSeries)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        raise TypeError("ExactSeries is not hashable")

    def __repr__(self) -> str:
        n = len(self.terms)
        return f"<ExactSeries {n} terms in {self.ring.varset.names}>"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "ExactSeries":
        if not isinstance(other, ExactSeries):
            return self + self.ring.const(other)
        self._check_ring(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            acc = terms.get(e, 0) + c
            if acc:
                terms[e] = acc
            else:
                terms.pop(e, None)
        return ExactSeries._admitted(self.ring, terms)

    __radd__ = __add__

    def __neg__(self) -> "ExactSeries":
        return ExactSeries._admitted(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "ExactSeries":
        if not isinstance(other, ExactSeries):
            return self - self.ring.const(other)
        return self + (-other)

    def __rsub__(self, other) -> "ExactSeries":
        return (-self) + self.ring.const(other)

    def scale(self, c) -> "ExactSeries":
        c = Fraction(c)
        if c == 0:
            return self.ring.zero()
        return ExactSeries._admitted(
            self.ring, {e: c * v for e, v in self.terms.items()}
        )

    def __mul__(self, other) -> "ExactSeries":
        if not isinstance(other, ExactSeries):
            return self.scale(other)
        self._check_ring(other)
        ring = self.ring
        a, b = self, other
        if len(a.terms) > len(b.terms):
            a, b = b, a
        acc: dict[tuple[int, ...], Fraction] = {}
        ring._mul_into(acc, a._prepared(), b._prepared())
        return ExactSeries._admitted(ring, acc)

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
    # with every product done by the ring's kernel.

    def _prepared(self) -> tuple:
        """The terms in the kernel's operand form, computed once."""
        try:
            return self._operand
        except AttributeError:
            self._operand = self.ring._prepare(self.terms)
            return self._operand

    def _zero_key(self) -> tuple[int, ...]:
        return (0,) * len(self.ring.varset.names)

    def _slices_by_degree(self) -> dict[int, dict]:
        slices: dict[int, dict] = {}
        for e, c in self.terms.items():
            slices.setdefault(sum(e), {})[e] = c
        return slices

    def _graded(
        self,
        fixed: dict[int, dict],
        first: dict,
        finish: Callable[[int, dict], dict],
    ) -> dict[int, dict]:
        """The nonzero slices out_m of the recurrence above, by degree m."""
        ring = self.ring
        fixed_ops = sorted((j, ring._prepare(s)) for j, s in fixed.items() if j)
        out = {0: first}
        ops = {0: ring._prepare(first)}
        for m in range(1, ring.max_total_degree() + 1):
            acc: dict[tuple[int, ...], Fraction] = {}
            for j, op in fixed_ops:
                if j > m:
                    break
                if m - j in ops:
                    ring._mul_into(acc, op, ops[m - j])
            slice_m = {e: c for e, c in finish(m, acc).items() if c}
            if slice_m:
                out[m] = slice_m
                ops[m] = ring._prepare(slice_m)
        return out

    def _from_slices(self, slices: Iterable[dict]) -> "ExactSeries":
        return ExactSeries._admitted(self.ring, {e: c for s in slices for e, c in s.items()})

    def inverse(self) -> "ExactSeries":
        """Multiplicative inverse; requires an invertible constant term.

        B_0 = 1/A_0 and A_0*B_m = -sum_{j>=1} A_j*B_{m-j}.
        """
        c0 = self.constant_term()
        if c0 == 0:
            raise ConstantTermError("inverse requires nonzero constant term")
        slices = self._graded(
            self._slices_by_degree(),
            {self._zero_key(): Fraction(1) / c0},
            lambda m, acc: {e: -c / c0 for e, c in acc.items()},
        )
        return self._from_slices(slices.values())

    def exp(self) -> "ExactSeries":
        """Exponential; requires constant term 0.

        Computed by the Euler-graded recurrence m*E_m = sum_j j*A_j*E_{m-j}
        over degree slices, so cost is one Cauchy product overall.
        """
        if self.constant_term() != 0:
            raise ConstantTermError("exp requires constant term 0")
        fixed = {
            j: {e: j * c for e, c in s.items()}
            for j, s in self._slices_by_degree().items()
        }
        slices = self._graded(
            fixed,
            {self._zero_key(): Fraction(1)},
            lambda m, acc: {e: c / m for e, c in acc.items()},
        )
        return self._from_slices(slices.values())

    def log(self) -> "ExactSeries":
        """Logarithm; requires constant term 1.

        Inverse recurrence of `exp`, solved for K_m = m*H_m:
        K_0 = 0 and K_m = m*E_m - sum_{j>=1} E_j*K_{m-j}.
        """
        if self.constant_term() != 1:
            raise ConstantTermError("log requires constant term 1")
        e_slices = self._slices_by_degree()

        def finish(m: int, acc: dict) -> dict:
            for e, c in e_slices.get(m, {}).items():
                acc[e] = acc.get(e, 0) + m * c
            return acc

        k_slices = self._graded(
            {j: {e: -c for e, c in s.items()} for j, s in e_slices.items()},
            {},
            finish,
        )
        return self._from_slices(
            {e: c / m for e, c in s.items()} for m, s in k_slices.items() if m
        )

    # -- derivations -------------------------------------------------------

    def diff(self, name: str) -> "ExactSeries":
        """Partial derivative with respect to a named variable."""
        pos = self.ring.varset.position[name]
        terms: dict[tuple[int, ...], Fraction] = {}
        for e, c in self.terms.items():
            k = e[pos]
            if k == 0:
                continue
            e2 = e[:pos] + (k - 1,) + e[pos + 1 :]
            terms[e2] = terms.get(e2, 0) + k * c
        return ExactSeries(self.ring, terms)

    def euler(self, name: str) -> "ExactSeries":
        """The operator v * d/dv for the named variable (degree scaling)."""
        pos = self.ring.varset.position[name]
        return ExactSeries._admitted(
            self.ring,
            {e: e[pos] * c for e, c in self.terms.items() if e[pos]},
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
    each lowered iteration is exact.  The solver confirms that previously
    determined slices never change, and that the result is an exact fixed
    point in `ring`; otherwise raises DivergingFunctionalError.
    """

    def lowered(k: int) -> SeriesRing:
        return SeriesRing(ring.varset, ring.trunc._replace(**{cap: k}))

    cur = lowered(0).zero()
    for step in range(1, max_grade + 1):
        sub = lowered(step)
        nxt = functional(ExactSeries._admitted(sub, cur.terms))
        if nxt.ring != sub:
            raise VarSetMismatchError(f"the functional left the ring {sub!r}")
        if {e: c for e, c in nxt.terms.items() if cur.ring.admits(e)} != cur.terms:
            raise DivergingFunctionalError(
                f"slice of grade <= {step - 1} changed at iteration {step}"
            )
        cur = nxt
    cur = ExactSeries(ring, cur.terms)
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

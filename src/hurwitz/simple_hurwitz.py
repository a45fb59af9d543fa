"""One-part profiles: series H~_g = sum_d H^g_{(1^d)} x^d/(2d+2g-2)! and the
operator D = x d/dx, represented exactly in the variable W = 1/(1-w) where
w = x e^w.

In W-coordinates D acts as W^2(W-1) d/dW, so D^n H~_g is a Laurent
polynomial in W (plus one log W term for H~_1 alone), and questions about
recurrences among the D^n H~_g become exact linear algebra over the
rationals.  A `WExpr` holds integer numerators keyed by (log power,
W exponent) over one denominator, canonical as an `ExactSeries` is, and
sums through the same `algebra` kernel; the search matrix is its
numerators over the lcm of the members' denominators.  Coefficient
extraction [x^d] goes through the Lagrange double sum, with log W read
through D log W = W^2 - W, independently of any series expansion.

The two numeric checks against a HurwitzTable, `search_recursions` on its
null vectors and `verify_recurrence` on a differential identity (a
recurrence is an identity read at [x^d]), read each genus's one-part
column H^g_{(1^m)} once and then only convolve truncated coefficient
lists.  A degree the table does not hold is refused rather than read as 0,
since H^g_{(1^m)} > 0 for m >= 2.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable

from .algebra import (
    ExactSeries,
    SeriesRing,
    VarSet,
    _canonical,
    _sum,
    lagrange_coeff,
    over_lcm,
    rational_str,
)
from .golden import P3_POLY, P3_PREFACTOR_DENOM, PINNED_W_SERIES
from .linalg import nullspace
from .partitions import Partition, aut_count
from .table import HurwitzTable

__all__ = [
    "WExpr",
    "LogProductError",
    "pinned",
    "pole_form",
    "wexpr_for",
    "wexpr_from_ansatz",
    "wexpr_to_xseries",
    "extract_coeff",
    "family_wexprs",
    "search_recursions",
    "differential_identity_wexpr",
    "verify_recurrence",
    "one_part_column",
    "closed_form_simple",
    "genus3_a_form",
    "genus3_p_form",
    "a_series_coeff",
]


class LogProductError(ValueError):
    """Product would need log^2 W, which a WExpr cannot hold; like any
    unrepresentable input, a usage error at the command line."""


class WExpr:
    """sum (nums[l, j] / den) W^j (log W)^l, l in {0, 1}: integer numerators
    over one denominator.

    `nums` maps each (l, j) to a nonzero numerator and `den` is positive
    with gcd(den, *nums) == 1, as in `ExactSeries`, so equal expressions
    have equal fields.  `WExpr(laurent, logpart)` builds one from the
    rational log-free and log W coefficients by exponent; `laurent` and
    `logpart` read them back as Fractions.  Immutable by convention: all
    operations return new instances.

    >>> e = WExpr({1: Fraction(1)}, {})          # W
    >>> (e * e).laurent
    {2: Fraction(1, 1)}
    >>> e.apply_D().laurent                      # D W = W^3 - W^2
    {3: Fraction(1, 1), 2: Fraction(-1, 1)}
    """

    __slots__ = ("den", "nums")

    def __init__(self, laurent: dict[int, Fraction], logpart: dict[int, Fraction] | None = None):
        items = [((0, j), c) for j, c in laurent.items()]
        items += [((1, j), c) for j, c in (logpart or {}).items()]
        den, nums = over_lcm([(c.numerator, c.denominator) for _, c in items])
        self.den, self.nums = _canonical(den, {k: n for (k, _), n in zip(items, nums)})

    @classmethod
    def _of(cls, den: int, nums: dict[tuple[int, int], int]) -> "WExpr":
        """Wrap a canonical (den, nums)."""
        expr = object.__new__(cls)
        expr.den, expr.nums = den, nums
        return expr

    @classmethod
    def const(cls, c: Fraction | int) -> "WExpr":
        return cls({0: c})

    @classmethod
    def combination(cls, pairs: Iterable[tuple[int | Fraction, "WExpr"]]) -> "WExpr":
        """sum c * E over (rational c, WExpr E) pairs: one pass over the
        integer numerators, over one common denominator."""
        return cls._of(*_sum((c.numerator, c.denominator * e.den, e.nums) for c, e in pairs))

    @property
    def laurent(self) -> dict[int, Fraction]:
        return {j: Fraction(n, self.den) for (l, j), n in self.nums.items() if not l}

    @property
    def logpart(self) -> dict[int, Fraction]:
        return {j: Fraction(n, self.den) for (l, j), n in self.nums.items() if l}

    def is_zero(self) -> bool:
        return not self.nums

    def is_log_free(self) -> bool:
        return not any(l for l, _ in self.nums)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WExpr):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def scale(self, c: Fraction | int) -> "WExpr":
        return WExpr.combination(((c, self),))

    def __mul__(self, other: "WExpr") -> "WExpr":
        nums: dict[tuple[int, int], int] = {}
        for (l1, j1), n1 in self.nums.items():
            for (l2, j2), n2 in other.nums.items():
                if l1 and l2:
                    raise LogProductError("cannot multiply two log-bearing expressions")
                k = (l1 + l2, j1 + j2)
                nums[k] = nums.get(k, 0) + n1 * n2
        return WExpr._of(*_canonical(self.den * other.den, nums))

    def apply_D(self) -> "WExpr":
        """D = W^2(W-1) d/dW: sends W^j (log W)^l to
        (W^{j+2} - W^{j+1}) (j (log W)^l + l (log W)^{l-1})."""
        nums: dict[tuple[int, int], int] = {}
        for (l, j), n in self.nums.items():
            for ll, f in ((l, j * n), (l - 1, l * n)):
                if f:
                    nums[ll, j + 2] = nums.get((ll, j + 2), 0) + f
                    nums[ll, j + 1] = nums.get((ll, j + 1), 0) - f
        return WExpr._of(*_canonical(self.den, nums))

    def __repr__(self):
        return f"WExpr({self.laurent!r}, {self.logpart!r})"


def pinned(g: int, n: int) -> WExpr:
    """D^n H~_g as `golden.PINNED_W_SERIES` pins it: the one decoder of that table."""
    data = PINNED_W_SERIES[(g, n)]
    return WExpr(data["laurent"], data["log"])


def pole_form(terms: Iterable[tuple[tuple[int, int], Fraction | int]]) -> WExpr:
    """sum c w^m W^r over ((m, r), c) pairs, through w^m W^r = (W-1)^m W^(r-m)."""
    return WExpr.combination(
        (c, WExpr({r - m + k: math.comb(m, k) * (-1) ** (m - k) for k in range(m + 1)}))
        for (m, r), c in terms
    )


def wexpr_for(g: int, n: int) -> WExpr:
    """D^n H~_g as a WExpr.

    Bases: D H~_0, H~_1 (log-bearing), H~_2, H~_3, extended upward by
    repeated application of D.  H~_0 itself is not a Laurent-plus-log
    function of W, so (g, n) = (0, 0) is rejected; (0, 1) and (0, 2) are
    Laurent series with negative exponents, and every (g, n) with
    2g-2+n > 0 comes out a log-free polynomial.  Bases are pinned for
    g <= 3 only.

    >>> wexpr_for(0, 2).laurent == {0: Fraction(1), -1: Fraction(-1)}
    True
    >>> wexpr_for(0, 3).laurent == {1: Fraction(1), 0: Fraction(-1)}
    True
    >>> wexpr_for(1, 1).laurent == {2: Fraction(1, 24), 1: Fraction(-1, 12),
    ...                             0: Fraction(1, 24)}
    True
    """
    if g == 0 and n == 0:
        raise ValueError("the genus-0 series itself is not W-representable")
    if g < 0 or n < 0:
        raise ValueError("genus and derivative order must be non-negative")
    if g == 0:
        expr, start = pinned(0, 1), 1
    elif (g, 0) in PINNED_W_SERIES:
        expr, start = pinned(g, 0), 0
    else:
        raise ValueError(f"no pinned base series for genus {g}; supported for g <= 3")
    for _ in range(n - start):
        expr = expr.apply_D()
    if 2 * g - 2 + n > 0:
        assert all(l == 0 and j >= 0 for l, j in expr.nums)
    return expr


def wexpr_from_ansatz(form) -> WExpr:
    """H~_g from fitted constants: with every part specializing to w and 1 - phi_1
    to W^{-1}, each theta of length l is the pole term (K/Aut) w^l W^(l+2g-2)."""
    return pole_form(
        ((len(theta), len(theta) + 2 * form.g - 2), value / aut_count(theta))
        for theta, _e, _k, value in form.records()
    )


def wexpr_to_xseries(expr: WExpr, d_max: int) -> ExactSeries:
    """Expand a WExpr as a truncated x-series by substituting the tree
    series for w.  Reference route for extract_coeff; O(d_max^2) series
    arithmetic."""
    ring = SeriesRing(VarSet(("x",)), x_max=d_max)
    w = ExactSeries.from_ratios(
        ring, [((nn,), nn ** (nn - 1), math.factorial(nn)) for nn in range(1, d_max + 1)]
    )
    one_minus_w = ring.one() - w  # = W^-1
    exps = [0, *(j for _, j in expr.nums)]
    w_pows = dict(enumerate(one_minus_w.inverse().powers(max(exps))))
    w_pows.update((-j, s) for j, s in enumerate(one_minus_w.powers(-min(exps))))
    log_w = None if expr.is_log_free() else -one_minus_w.log()
    numerator = ring.combination(
        (n, w_pows[j] * log_w if l else w_pows[j]) for (l, j), n in expr.nums.items()
    )
    return numerator.scale(Fraction(1, expr.den))


def extract_coeff(expr: WExpr, d: int) -> Fraction:
    """[x^d] of a WExpr, via the Lagrange double sum.

    W^j = (1-w)^{-j} for j > 0; W^0 contributes nothing for d >= 1;
    negative exponents expand binomially in w.  log W is read through
    D log W = W^2 - W, since [x^d] f = [x^d] D f / d; any other log term is
    refused.

    >>> extract_coeff(WExpr({1: Fraction(1), 0: Fraction(-1)}), 1)
    Fraction(1, 1)
    >>> extract_coeff(WExpr({}, {0: Fraction(1)}), 2)   # log W = w + ...
    Fraction(3, 2)
    """
    if d < 1:
        raise ValueError("coefficient extraction needs d >= 1")
    parts = []  # (weight, m, r, div): weight/div times [x^d] w^m W^r
    for (l, j), n in expr.nums.items():
        if l:
            if j:
                raise ValueError(f"W^{j} log W has no Lagrange extraction here")
            parts += [(n, 0, 2, d), (-n, 0, 1, d)]
        elif j > 0:
            parts.append((n, 0, j, 1))
        elif j < 0:
            parts += [(n * math.comb(-j, m) * (-1) ** m, m, 0, 1) for m in range(-j + 1)]
    values = [(w, div, lagrange_coeff(m, r, d)) for w, m, r, div in parts]
    den, nums = over_lcm([(w * q.numerator, div * q.denominator) for w, div, q in values])
    return Fraction(sum(nums), den * expr.den)


# -- recurrence search ------------------------------------------------------------


def family_wexprs(family: list[dict]) -> list[WExpr]:
    """The product of D^p H~_g factors of each member
    {"factors": [(g, p), ...]}, with each distinct factor built once per
    call, as D applied to D^(p-1) H~_g."""
    built: dict[tuple[int, int], WExpr] = {}

    def factor(g: int, p: int) -> WExpr:
        q = p  # the highest order built so far, or the base D H~_0 or H~_g
        while (g, q) not in built and q > (g == 0):
            q -= 1
        if (g, q) not in built:
            built[g, q] = wexpr_for(g, q)  # a base, or a refusal
        for q in range(q + 1, p + 1):
            built[g, q] = built[g, q - 1].apply_D()
        return built[g, p]

    exprs = []
    for descriptor in family:
        product = WExpr.const(1)
        for g, p in descriptor["factors"]:
            product = product * factor(g, p)
        exprs.append(product)
    return exprs


def one_part_column(table: HurwitzTable, g: int, d_max: int) -> list[Fraction]:
    """H^g_{(1^m)} for m = 0..d_max, one table lookup per degree.

    Every such count is positive for m >= 2, so a zero there is an entry the
    table does not hold; it is refused rather than compared as 0."""
    column = [Fraction(0)]
    for m in range(1, d_max + 1):
        value = table.value(g, Partition((1,) * m))
        if not value and m >= 2:
            raise ValueError(
                f"table lacks H^{g}_(1^{m}); the check needs degrees <= {d_max} in genus {g}"
            )
        column.append(value)
    return column


def _term_lists(
    factor_lists: list[list[tuple[int, int]]], table: HurwitzTable, d_max: int
) -> list[tuple[int, list[int]]]:
    """[x^m] of each product of D^p H~_g factors, m = 0..d_max, as integer
    numerators over one denominator per product.

    Each genus's column is read once and each factor's list
    [x^m] D^p H~_g = m^p H^g_{(1^m)}/(2m+2g-2)! built once; a term's list is
    the truncated product of its factors' lists, which is the sum over
    compositions of m because every factor has a zero constant term."""
    column = functools.cache(lambda g: one_part_column(table, g, d_max))

    @functools.cache
    def factor(g: int, p: int) -> tuple[int, list[int]]:
        h = column(g)
        return over_lcm(
            [(0, 1)]
            + [
                (m**p * h[m].numerator, h[m].denominator * math.factorial(2 * m + 2 * g - 2))
                for m in range(1, d_max + 1)
            ]
        )

    lists = []
    for term in factor_lists:
        den, product = 1, [1] + [0] * d_max  # the empty product
        for g, p in term:
            f_den, f = factor(g, p)
            den *= f_den
            product = [
                sum(product[i] * f[n - i] for i in range(n) if product[i])
                for n in range(d_max + 1)
            ]
        lists.append((den, product))
    return lists


def _residuals(
    coeffs: list, term_lists: list[tuple[int, list[int]]], d_range: range
) -> dict[int, Fraction]:
    """The nonzero sums coeff_i [x^d] T_i over d in d_range, each summed as
    one integer over a common denominator; a Fraction is made only for a
    residual that is not zero."""
    used = [(c, t_den, t) for c, (t_den, t) in zip(coeffs, term_lists) if c]
    den, weights = over_lcm([(c.numerator, c.denominator * t_den) for c, t_den, _ in used])
    failures = {}
    for d in d_range:
        residual = sum(w * t[d] for w, (_, _, t) in zip(weights, used))
        if residual:
            failures[d] = Fraction(residual, den)
    return failures


def search_recursions(
    family: list[dict],
    table: HurwitzTable,
    *,
    d_verify: int,
    exprs: list[WExpr] | None = None,
) -> dict:
    """Exact null space of a family of D^p H~_g products.

    Assembles the matrix whose rows are the W-monomials (and W^j log W
    monomials) appearing in any family member and whose columns are the
    members, and returns a rational basis of its null space.  Every basis
    vector is independently re-verified against the table as a numeric
    recurrence on the coefficients [x^d] for 1 <= d <= d_verify; a
    d_verify below 1 or at which every member is 0, or a table lacking one
    of those degrees, is refused.  `exprs` are the members' `family_wexprs`
    when the caller has built them already.  Rows are reported as
    ("lau", j) for W^j and ("log", j) for W^j log W, in that sorted order.
    """
    if d_verify < 1:
        raise ValueError(f"numeric check needs d_verify >= 1, got {d_verify}")
    if exprs is None:
        exprs = family_wexprs(family)
    term_lists = _term_lists([term["factors"] for term in family], table, d_verify)
    if not any(any(t[1:]) for _, t in term_lists):
        raise ValueError(f"search would compare nothing: every member is 0 for d <= {d_verify}")
    rows = sorted(set().union(*(e.nums for e in exprs)))
    # every column over the lcm of the denominators: one uniform scalar
    _, scales = over_lcm([(1, e.den) for e in exprs])
    matrix = [[e.nums.get(row, 0) * f for e, f in zip(exprs, scales)] for row in rows]
    basis = nullspace(matrix, len(exprs))
    numeric_failures = [
        {"vector": vec, "d": d, "residual": residual}
        for vec in basis
        for d, residual in _residuals(vec, term_lists, range(1, d_verify + 1)).items()
    ]
    return {
        "dimension": len(basis),
        "basis": basis,
        "rows": [("log" if l else "lau", j) for l, j in rows],
        "numeric_failures": numeric_failures,
    }


def differential_identity_wexpr(terms: list[dict]) -> WExpr:
    """Sum of coeff * prod D^p H~_g terms; zero iff the identity holds."""
    return WExpr.combination(
        (term["coeff"], expr) for term, expr in zip(terms, family_wexprs(terms))
    )


# -- numeric identity check -------------------------------------------------------


def verify_recurrence(terms: list[dict], table: HurwitzTable, d_range: range) -> dict:
    """Exact check of a differential identity sum coeff * prod D^p H~_g = 0,
    and so of a recurrence (the identity's [x^d] (2d+2g-2)! in genus g), as
    its [x^d] residual at each d in d_range.  Returns a status and the
    failing d with their residuals as rational strings.  A d_range that is
    empty or holds a degree below 1 is refused, as is a table lacking one
    of its degrees: neither check could fail."""
    if not d_range or min(d_range) < 1:
        raise ValueError(
            f"identity check needs a nonempty degree range from d >= 1, got {d_range}"
        )
    term_lists = _term_lists([term["factors"] for term in terms], table, max(d_range))
    residuals = _residuals([term["coeff"] for term in terms], term_lists, d_range)
    failures = [{"d": d, "residual": rational_str(r)} for d, r in residuals.items()]
    return {"status": "fail" if failures else "pass", "failures": failures}


# -- closed forms -----------------------------------------------------------------


def closed_form_simple(g: int, d: int) -> Fraction:
    """H^g_{(1^d)} in closed form.

    Genus 0 is the tree formula (2d-2)! d^{d-3}/d!; every higher genus
    extracts [x^d] of its pinned display H~_g (log-bearing at g = 1).

    >>> closed_form_simple(0, 3)
    Fraction(4, 1)
    >>> closed_form_simple(1, 2)
    Fraction(1, 2)
    """
    if d < 1:
        raise ValueError("need d >= 1")
    if g == 0:
        return Fraction(math.factorial(2 * d - 2) * d**d, math.factorial(d) * d**3)
    return extract_coeff(wexpr_for(g, 0), d) * math.factorial(2 * d + 2 * g - 2)


def a_series_coeff(k: int, d: int) -> Fraction:
    """A_k(d) = [x^d] (1-w)^{-k} = (k/d) sum_r C(k+r, k) d^{d-r-1}/(d-r-1)!.

    Computed here from the displayed single sum, as integers over d!;
    agreement with lagrange_coeff(0, k, d) is a test.

    >>> a_series_coeff(3, 1)
    Fraction(3, 1)
    """
    total = sum(math.comb(k + r, k) * d ** (d - r - 1) * math.perm(d - 1, r) for r in range(d))
    return Fraction(k * total, math.factorial(d))


def genus3_a_form(d: int) -> Fraction:
    """H^3_{(1^d)} as (2d+4)! times sum_k c_k A_k(d), where c_k is the
    W^k coefficient of the pinned H~_3 and A_k(d) = [x^d] W^k, summed as
    integers over one denominator."""
    h3 = pinned(3, 0)
    values = [(n, a_series_coeff(k, d)) for (_, k), n in h3.nums.items()]
    den, nums = over_lcm((n * a.numerator, a.denominator) for n, a in values)
    return Fraction(sum(nums) * math.factorial(2 * d + 4), den * h3.den)


def genus3_p_form(d: int) -> Fraction:
    """H^3_{(1^d)} as the single-sum polynomial form, its terms
    d^{d-r-2}/(d-r-1)! = d^{d-r-1} (d-1)!/(d-r-1)! / d! summed as integers
    over d!."""
    total = 0
    for r in range(d):
        poly = sum(c * r**e for e, c in enumerate(P3_POLY))
        total += d ** (d - r - 1) * math.perm(d - 1, r) * math.comb(r + 4, 5) * (r + 1) * poly
    return Fraction(total * math.factorial(2 * d + 4), P3_PREFACTOR_DENOM * math.factorial(d))

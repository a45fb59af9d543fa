"""Change of variables between descendant series and Hurwitz series, and
exact fitting of the per-genus primitive constants.

The cast:

* phi_k(z, p) = sum_n n^(n+k)/n! p_n z^n, with integer (possibly negative) k;
* s, the unique series solution of s = x e^{phi_0(s, p)}, built from its
  Lagrange coefficients and then checked against that equation;
* the substitution homomorphism t_k -> phi_k(x, p) on descendant series;
* I_k(t), the unique series solution family of I_0 = sum t_i I_0^i / i!
  with I_k = sum_i t_{k+i} I_0^i / i!, I_0 built from its genus-0
  coefficients and then checked against its equation;
* G_g(t), the signed generating series of brackets, assembled from the
  hodge module;
* the pole form sum_theta (K_theta/Aut theta) prod F_{theta_i} (1 - F_1)^{-e},
  evaluated with F_k = I_k(t) in a `TContext`, where it is compared with
  G_g, and with F_k = phi_k(s, p) in an `XpContext`, as series;
* its constants K_theta, fitted against cut-and-join data by exact linear
  algebra on integer columns with no series at all: since
  s phi_0'(s) = phi_1(s), Lagrange's theorem in its second form gives
  [x^d] Psi(s)/(1 - phi_1(s)) = [z^d] Psi(z) e^{d phi_0(z)}, and in z each
  phi_k is a one-part sum, so each coefficient of the basis is a closed
  form in integers once row alpha is scaled by D_alpha (`pole_basis_rows`).

Each context builds every series it holds once, and every product of them
once per distinct prefix of its factors; the CLI builds one context per
ring a command needs and hands it to each check.

Verifiers return check records, plain dicts (pass/fail plus the first
mismatching monomial) rather than raising, which the CLI prints as they are.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Callable

from .algebra import (
    ExactSeries,
    SeriesRing,
    VarSet,
    over_lcm,
    rational_str,
)
from .hodge import HodgeKey, HodgeTable, evaluate
from .linalg import solve_exact
from .partitions import ThetaPartition, aut_count, partitions, primitive_thetas
from .table import HurwitzTable, riemann_hurwitz_r

__all__ = [
    "XpContext",
    "TContext",
    "AnsatzForm",
    "xi_substitute",
    "assemble_G",
    "extract_weight_slice",
    "hurwitz_series",
    "pair_correction_series",
    "pole_basis_series",
    "check_fit_size",
    "fit_rows",
    "pole_basis_rows",
    "fit_constants",
    "verify_change_theorem",
    "verify_euler_square",
    "verify_genus_expansion",
    "verify_delta_annihilation",
    "verify_xi_on_I",
    "verify_phi_shift_expansion",
    "compare_series",
]


def _phi(ring: SeriesRing, k: int, pz: list[ExactSeries]) -> ExactSeries:
    """phi_k(z, p) = sum_n n^(n+k)/n! p_n z^n (n^-(n+k) below when n + k < 0),
    one combination of the p_n z^n for n = 1..d_max, as `_p_times` lists them."""
    return ring.combination(
        (Fraction(n ** max(n + k, 0), math.factorial(n) * n ** max(-n - k, 0)), term)
        for n, term in enumerate(pz, 1)
    )


def _p_times(ring: SeriesRing, z_pows: list[ExactSeries]) -> list[ExactSeries]:
    """p_n z^n for n = 1..d_max, given z^0..z^d_max: each one key shift."""
    encode = ring.varset.profile_exps
    return [z_pows[n].times_monomial(encode((n,), d=0)) for n in range(1, len(z_pows))]


def _q_table(part: list[int]) -> dict[int, tuple[int, int, int]]:
    """Given the keys of p_n x^n by n <= d_max (0 at n = 0), the key of
    p_mu x^|mu| -> (|mu|, prod_j mu_j^mu_j, prod_j mu_j!) for every mu with
    |mu| <= d_max: q_mu = prod_j q_{mu_j}, where q_n = n^n/n! p_n x^n."""
    table = {}
    for d in range(len(part)):
        for mu in partitions(d):
            weights = math.prod(a**a for a in mu), math.prod(map(math.factorial, mu))
            table[sum(part[a] for a in mu)] = (d, *weights)
    return table


def _descend(ring: SeriesRing, k: int, v_pows: list[ExactSeries]) -> ExactSeries:
    """sum_i t_{k+i} v^i / i!, given v^0..v^n, over the t_j the ring has."""
    return ring.combination(
        (Fraction(1, math.factorial(i)), v_pow.times_monomial(ring.varset.theta_exps((k + i,))))
        for i, v_pow in enumerate(v_pows)
        if f"t_{k + i}" in ring.varset.names
    )


def _s_series(ring: SeriesRing, d_max: int) -> ExactSeries:
    """s by Lagrange inversion: e^{n phi_0(z, p)} = prod_j exp(n j^j/j! p_j z^j),
    so for mu |- n - 1 with m_j parts j,
    [x^n p_mu] s = (1/n) [z^(n-1) p_mu] e^{n phi_0} = (1/n) prod_j (n j^j/j!)^m_j / m_j!.

    >>> _s_series(SeriesRing(VarSet.xp(3), x_max=3, p_weight_max=3), 3).coeff(
    ...     {"x": 3, "p_1": 2})
    Fraction(3, 2)
    """
    encode = ring.varset.profile_exps
    ratios = []
    for n in range(1, d_max + 1):
        for mu in partitions(n - 1):
            num = n ** len(mu) * math.prod(j**j for j in mu)
            den = n * math.prod(math.factorial(j) for j in mu) * aut_count(mu)
            ratios.append((encode(mu, d=n), num, den))
    return ExactSeries.from_ratios(ring, ratios)


def _i0_series(ring: SeriesRing, t_index_max: int, t_deg_max: int) -> ExactSeries:
    """I_0 = sum_theta (len theta - 1)!/(prod theta_i! Aut theta) t_theta, over
    multisets theta of subscripts <= t_index_max with len theta <= t_deg_max
    and sum theta = len theta - 1 (the genus-0 brackets <tau_0^2 tau_theta>).

    >>> _i0_series(SeriesRing(VarSet.tvars(2), t_deg_max=3), 2, 3).coeff(
    ...     {"t_0": 2, "t_2": 1})
    Fraction(1, 2)
    """
    encode = ring.varset.theta_exps
    ratios = []
    for length in range(1, t_deg_max + 1):
        for q in partitions(length - 1):
            if q and q[-1] > t_index_max:
                continue
            theta = (0,) * (length - len(q)) + q
            den = math.prod(math.factorial(i) for i in theta) * aut_count(theta)
            ratios.append((encode(theta), math.factorial(length - 1), den))
    return ExactSeries.from_ratios(ring, ratios)


class _SeriesContext:
    """A ring plus every series built in it, each built once.

    A subclass defines the family F(k) that the pole form is evaluated on;
    `inv_pole_power` and `pole_term` are written here in terms of it.
    """

    def __init__(self, ring: SeriesRing):
        self.ring = ring
        self._memo: dict = {}

    def _once(self, key, build: Callable[[], object]):
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def _prefix_product(self, tag: str, factors: tuple, factor: Callable) -> ExactSeries:
        """prod factor(f) over `factors`, one product per new prefix."""
        if len(factors) <= 1:
            return factor(factors[0]) if factors else self.ring.one()
        return self._once(
            (tag, factors),
            lambda: self._prefix_product(tag, factors[:-1], factor) * factor(factors[-1]),
        )

    def inv_pole_power(self, e: int) -> ExactSeries:
        """(1 - F_1)^(-e) for e >= 0, one product per new e."""
        return self._prefix_product(
            "inv", (1,) * e, lambda _: self._once("inv", lambda: (1 - self.F(1)).inverse())
        )

    def pole_term(self, g: int, theta: tuple[int, ...]) -> ExactSeries:
        """prod_i F(theta_i) (1 - F_1)^-(len theta + 2g - 2), once per (g, theta);
        the product over theta is shared by every theta with the same prefix."""
        return self._once(
            ("pole", g, theta),
            lambda: self._prefix_product("F", theta, self.F)
            * self.inv_pole_power(len(theta) + 2 * g - 2),
        )


class XpContext(_SeriesContext):
    """Series in (x, p) with x-degree and part-weight capped at d_max:
    phi_k at x and at s, their powers and products, and the pole powers;
    F is phi_s.  `part_keys` holds the key of p_n x^n by n (0 at n = 0)."""

    def __init__(self, d_max: int):
        self.d_max = d_max
        super().__init__(SeriesRing(VarSet.xp(d_max), x_max=d_max, p_weight_max=d_max))
        exps = self.ring.varset.profile_exps
        self.part_keys = [0] + [self.ring.key(exps((n,))) for n in range(1, d_max + 1)]

    def phi_x(self, k: int) -> ExactSeries:
        """phi_k(x, p) = sum_n n^(n+k)/n! p_n x^n."""
        ring = self.ring
        pz = self._once(("pz", "x"), lambda: _p_times(ring, ring.var("x").powers(self.d_max)))
        return self._once(("phi_x", k), lambda: _phi(ring, k, pz))

    def s_powers(self) -> list[ExactSeries]:
        """s^0..s^d_max for the series solution of s = x e^{phi_0(s, p)}.

        The map s -> x e^{phi_0(s, p)} raises the x-degree, so its fixed
        point is unique and one exact check proves the Lagrange series."""
        return self._once("s", self._build_s_powers)

    def _build_s_powers(self) -> list[ExactSeries]:
        ring = self.ring
        s = _s_series(ring, self.d_max)
        powers = s.powers(self.d_max)
        pz = self._memo[("pz", "s")] = _p_times(ring, powers)
        phi0 = self._memo[("phi_s", 0)] = _phi(ring, 0, pz)
        if phi0.exp().times_monomial(ring.varset.encode({"x": 1})) != s:
            raise AssertionError("s is not the fixed point of s = x e^{phi_0(s, p)}")
        return powers

    def phi_s(self, k: int) -> ExactSeries:
        """phi_k evaluated at z = s: sum_n n^(n+k)/n! p_n s^n."""
        self.s_powers()  # builds the p_n s^n and phi_s(0) on the way
        return self._once(("phi_s", k), lambda: _phi(self.ring, k, self._memo[("pz", "s")]))

    F = phi_s


class TContext(_SeriesContext):
    """Descendant-variable ring t_0..t_index_max with total degree capped:
    the I_k and the pole powers; F is I."""

    def __init__(self, t_index_max: int, t_deg_max: int):
        self.t_index_max = t_index_max
        self.t_deg_max = t_deg_max
        super().__init__(SeriesRing(VarSet.tvars(t_index_max), t_deg_max=t_deg_max))

    def _i0_powers(self) -> list[ExactSeries]:
        """I_0^0..I_0^t_deg_max for the fixed point I_0 = sum_i t_i I_0^i / i!.

        The map v -> sum_i t_i v^i / i! raises the t-degree, so its fixed
        point is unique and one exact check proves the closed form."""
        return self._once("I0", self._build_i0_powers)

    def _build_i0_powers(self) -> list[ExactSeries]:
        i0 = _i0_series(self.ring, self.t_index_max, self.t_deg_max)
        powers = i0.powers(self.t_deg_max)
        if _descend(self.ring, 0, powers) != i0:
            raise AssertionError("I_0 is not the fixed point of I_0 = sum_i t_i I_0^i / i!")
        self._memo[("I", 0)] = i0
        return powers

    def I(self, k: int) -> ExactSeries:
        """I_k = sum_i t_{k+i} I_0^i / i! (k = 0 gives the fixed point)."""
        powers = self._i0_powers()  # builds I_0 on the way
        return self._once(("I", k), lambda: _descend(self.ring, k, powers))

    F = I


def xi_substitute(t_series: ExactSeries, ctx: XpContext) -> ExactSeries:
    """Apply the homomorphism t_k -> phi_k(x, p) to a descendant series.

    phi_k = sum_n n^k q_n with q_n = n^n/n! p_n x^n, so t_theta maps to the
    sum over n in Z_{>0}^len(theta) of prod_i n_i^theta_i q_{n_i}: integer
    sums, one part n <= d_max - |mu| (what the ring admits) per prefix of
    theta, shared per context and t-ring, weighted once per p_mu x^|mu|."""
    t_ring = t_series.ring
    if any(f != "t" for f in t_ring.varset.families):
        raise ValueError("xi_substitute expects a pure t-series")
    d_max, memo = ctx.d_max, ctx._once(("xi", t_ring), lambda: {0: {0: 1}})
    part, table = ctx.part_keys, ctx._once("q", lambda: _q_table(ctx.part_keys))

    def sums(t_key: int) -> dict[int, int]:
        if t_key not in memo:
            pos, rest = t_ring.split(t_key)
            row = [(part[n], n ** t_ring.varset.indices[pos]) for n in range(1, d_max + 1)]
            acc = memo[t_key] = {}
            for key, c in sums(rest).items():
                for step, w in row[: d_max - table[key][0]]:
                    acc[key + step] = acc.get(key + step, 0) + c * w
        return memo[t_key]

    image: dict[int, int] = {}
    for t_key, num in t_series.nums.items():
        for key, c in sums(t_key).items():
            image[key] = image.get(key, 0) + num * c
    return ExactSeries.from_keys(
        ctx.ring, ((k, c * table[k][1], t_series.den * table[k][2]) for k, c in image.items())
    )


def assemble_G(g: int, table: HodgeTable, tctx: TContext) -> ExactSeries:
    """The signed bracket generating series G_g as a truncated t-series.

    Coefficient of prod t_i^{a_i} is (-1)^k <prod tau_i^{a_i} lambda_k>_g /
    prod a_i!, summed over 0 <= k <= g, restricted to stable sizes and to
    subscripts within the ring's index range.  Such a monomial has t-degree
    at most the ring's cap, so the ring admits it, and its packed key is
    the sum of those of its t_i.
    """
    ring, t_deg_max = tctx.ring, tctx.t_deg_max
    t_key = [ring.key(ring.varset.theta_exps((i,))) for i in range(tctx.t_index_max + 1)]
    top, n_min = 3 * g - 3, max(3 - 2 * g, 0)  # n_min: the fewest points of a stable key
    ratios = []
    for size in range(max(top + n_min - g, 0), top + t_deg_max + 1):
        for q in partitions(size):
            if q and q[-1] > tctx.t_index_max:
                continue
            q_key, q_aut = sum(t_key[i] for i in q), aut_count(q)
            # theta = tau_0^(n - len q) q has k = 3g - 3 + n - size, so each theta comes once
            for n in range(max(len(q), n_min, size - top), min(size - top + g, t_deg_max) + 1):
                k, zeros = top + n - size, n - len(q)
                value = evaluate((g, (0,) * zeros + q, k), table)
                num, den = (-1) ** k * value.numerator, value.denominator * q_aut
                ratios.append((q_key + zeros * t_key[0], num, den * math.factorial(zeros)))
    return ExactSeries.from_keys(ring, ratios)


def extract_weight_slice(series: ExactSeries, weight: int) -> ExactSeries:
    """Terms whose t-weight sum((i-1) * a_i) equals the given value.

    For G_g this selects a fixed lambda-degree; weight 3g-3 is the
    lambda-free part F_g.
    """
    decode = series.ring.varset.theta
    return series.where(lambda e: sum(i - 1 for i in decode(e)) == weight)


def hurwitz_series(table: HurwitzTable, g: int, ctx: XpContext) -> ExactSeries:
    """H_g(x, p) = sum over profiles of H^g_alpha / r! p_alpha x^d.

    The ring admits x^d p_alpha for d <= d_max, and its packed key is the
    sum of those of x^a p_a over the parts a of alpha."""
    ratios = []
    for (gg, alpha), value in table.entries.items():
        if gg == g and sum(alpha) <= ctx.d_max:
            r_fact = math.factorial(riemann_hurwitz_r(g, alpha))
            key = sum(ctx.part_keys[a] for a in alpha)
            ratios.append((key, value.numerator, value.denominator * r_fact))
    return ExactSeries.from_keys(ctx.ring, ratios)


def pair_correction_series(ctx: XpContext) -> ExactSeries:
    """The two-part genus-0 correction: (1/2) sum over i, j >= 1 of
    (i+j-1)!/((i-1)!(j-1)!) i^{i-1} j^{j-1} p_i p_j x^{i+j}/(i+j)!.

    >>> pair_correction_series(XpContext(3)).coeff({"x": 3, "p_1": 1, "p_2": 1})
    Fraction(2, 3)
    """
    encode = ctx.ring.varset.profile_exps
    ratios = []
    for i in range(1, ctx.d_max):
        for j in range(i, ctx.d_max - i + 1):
            # (i, j) and (j, i) share one monomial, and (i+j-1)!/(i+j)! = 1/(i+j)
            num = (1 + (i < j)) * i ** (i - 1) * j ** (j - 1)
            den = 2 * (i + j) * math.factorial(i - 1) * math.factorial(j - 1)
            ratios.append((encode((i, j)), num, den))
    return ExactSeries.from_ratios(ctx.ring, ratios)


# -- check records ---------------------------------------------------------------


def compare_series(
    lhs: ExactSeries,
    rhs: ExactSeries,
    check: str,
    truncation: dict,
    cancelled: int | None = None,
) -> dict:
    """The check record of lhs == rhs: its name, truncation and status, the
    first mismatching monomial on a fail, `compared` (the distinct monomials
    on either side) and, where a check builds one side as a sum, `cancelled`
    (the summand monomials that cancelled inside the compared window)."""
    record = {"check": check, "truncation": truncation}
    diff = lhs - rhs
    if diff.is_zero():
        record["status"] = "pass"
    else:
        exps = sorted(diff.terms)[0]
        record["status"] = "fail"
        record["first_mismatch"] = {
            "monomial": lhs.ring.varset.decode(exps),
            "lhs": rational_str(lhs.terms.get(exps, Fraction(0))),
            "rhs": rational_str(rhs.terms.get(exps, Fraction(0))),
        }
    record["compared"] = len(lhs.nums.keys() | rhs.nums.keys())
    if cancelled is not None:
        record["cancelled"] = cancelled
    return record


# -- the fitted pole form --------------------------------------------------------


class AnsatzForm:
    """Fitted constants K_theta of the genus-g pole form."""

    def __init__(self, g: int, constants: dict[ThetaPartition, Fraction] | None = None) -> None:
        self.g = g
        self.constants = {} if constants is None else constants

    def records(self) -> list[tuple[ThetaPartition, int, int, Fraction]]:
        """(theta, pole order e, lambda-degree k, K) in the order the constants
        were fitted, the canonical order of `primitive_thetas`."""
        g = self.g
        return [
            (theta, len(theta) + 2 * g - 2, 3 * g - 3 + len(theta) - sum(theta), value)
            for theta, value in self.constants.items()
        ]

    def to_json_obj(self) -> dict:
        return {
            "g": self.g,
            "constants": [
                {
                    "theta": list(theta),
                    "K": rational_str(value),
                    "e": e,
                    "k": k,
                }
                for theta, e, k, value in self.records()
            ],
        }


def pole_basis_series(
    g: int, ctx: XpContext | TContext
) -> list[tuple[ThetaPartition, int, int, ExactSeries]]:
    """Per primitive theta: (theta, e, k, prod F_theta_i (1 - F_1)^-e / Aut),
    with F_j = phi_j(s, p) in an XpContext and F_j = I_j(t) in a TContext."""
    return [
        (theta, e, k, ctx.pole_term(g, theta).scale(Fraction(1, aut_count(theta))))
        for theta, e, k in primitive_thetas(g)
    ]


_MIN_SURPLUS = 10  # equations beyond the unknowns that a fit must have


def check_fit_size(g: int, d_fit: int) -> None:
    """Refuse (ValueError) a fit whose equations, one per alpha |- d <= d_fit,
    exceed its unknowns by less than `_MIN_SURPLUS`.  Both are counted, not
    enumerated: theta -> theta - (1, ..., 1) maps `primitive_thetas(g)` onto
    the partitions of 2g-3..3g-3."""
    p = [1] + [0] * max(d_fit, 3 * g - 3)  # p[m], the partitions of m
    for part in range(1, len(p)):
        for m in range(part, len(p)):
            p[m] += p[m - part]
    rows, unknowns = sum(p[1 : d_fit + 1]), sum(p[2 * g - 3 : 3 * g - 2])
    if rows < unknowns + _MIN_SURPLUS:
        raise ValueError(
            f"only {rows} equations for {unknowns} unknowns; "
            f"need {_MIN_SURPLUS} surplus — increase d_fit"
        )


def fit_rows(g: int, d_fit: int) -> list[tuple[int, ...]]:
    """The fit's equations, known before any column is formed: p_alpha x^d
    for every alpha |- d <= d_fit, encoded as in `XpContext(d_fit)`, sorted,
    and enumerated only once `check_fit_size` has passed."""
    check_fit_size(g, d_fit)
    encode = VarSet.xp(d_fit).profile_exps
    return sorted(encode(alpha) for d in range(1, d_fit + 1) for alpha in partitions(d))


def _row_scale(mults: tuple[int, ...]) -> Fraction:
    """D_alpha = prod_j (j!/j^j)^m_j m_j! = prod_i alpha_i!/alpha_i^alpha_i
    prod_j m_j! for the profile with m_j parts j: the factor that makes
    every pole-basis entry of row alpha an integer."""
    num = den = 1
    for j, m in enumerate(mults, 1):
        num *= math.factorial(j) ** m * math.factorial(m)
        den *= j ** (j * m)
    return Fraction(num, den)


def pole_basis_rows(g: int, rows: list[tuple[int, ...]]) -> list[list[int]]:
    """Per row of `fit_rows` (x^d p_alpha, m_j parts j), the integers
    D_alpha Aut theta [x^d p_alpha] prod_i phi_theta_i(s, p) (1 - phi_1(s, p))^-e
    for the theta of `primitive_thetas(g)` in that order, D_alpha as in
    `_row_scale`.

    By Lagrange's theorem (`fit_constants`), Aut theta times the coefficient
    is [p_alpha] prod_i phi_theta_i(z) (1 - phi_1(z))^-(e-1) e^{d phi_0(z)}:
    a sum over the sub-multisets beta of alpha with len theta parts, and
    gamma = alpha - beta (c_j parts j, L parts), of the products of
    * [p_beta] prod_i phi_theta_i = prod_beta n^n/n! S_theta(beta), with
      S_theta(beta) the sum of prod_i n_i^theta_i over the arrangements
      (n_i) of beta, and
    * [p_gamma] (1 - phi_1)^-(e-1) e^{d phi_0} = prod_gamma n^n/n! / prod_j
      c_j! T(gamma), with T(gamma) = sum_i (e-1)(e)...(e+i-2) d^(L-i)
      e_i(gamma) and e_i the elementary symmetric polynomials of its parts.
    D_alpha clears the weights n^n/n!, leaving S_theta(beta) T(gamma) prod_j
    m_j!/c_j!, an integer.  The S_theta come from prefix sums shared by
    every theta with the same prefix.  A multiset is packed as one int, a
    weight field above one multiplicity field per part size, so adding a
    part is one key shift.
    """
    d_fit = max(exps[0] for exps in rows)
    bits = d_fit.bit_length()
    top = bits * d_fit
    part = [0] + [(n << top) + (1 << bits * (n - 1)) for n in range(1, d_fit + 1)]
    sums: dict[tuple[int, ...], dict[int, int]] = {(): {0: 1}}
    elementary: dict[int, list[int]] = {0: [1]}

    def ordered(theta: tuple[int, ...]) -> dict[int, int]:
        """beta -> S_theta(beta) over the beta of weight <= d_fit."""
        if theta not in sums:
            acc = sums[theta] = {}
            steps = [(part[n], n ** theta[-1]) for n in range(1, d_fit + 1)]
            for key, c in ordered(theta[:-1]).items():
                for step, w in steps[: d_fit - (key >> top)]:
                    acc[key + step] = acc.get(key + step, 0) + c * w
        return sums[theta]

    def elem(key: int) -> list[int]:
        """e_0..e_L of the multiset packed in key, one part (1 + j y) at a time."""
        if key not in elementary:
            j = ((key & -key).bit_length() - 1) // bits + 1  # the smallest part
            prev = elem(key - part[j])
            elementary[key] = [a + j * b for a, b in zip(prev + [0], [0] + prev)]
        return elementary[key]

    # the theta of one length are consecutive in `primitive_thetas`, and their
    # S_theta share one set of keys beta: one vector over those theta per beta
    by_length: dict[int, list[dict[int, int]]] = {}
    for theta, _, _ in primitive_thetas(g):
        by_length.setdefault(len(theta), []).append(ordered(theta))
    vectors = {l: {b: [s[b] for s in sums_l] for b in sums_l[0]} for l, sums_l in by_length.items()}
    # (e-1)(e)...(e+i-2) for e = l + 2g - 2 and i <= d_fit, by l
    rising = {l: [math.perm(l + 2 * g + i - 4, i) for i in range(d_fit + 1)] for l in by_length}
    table = []
    for exps in rows:
        d, n = exps[0], sum(exps[1:])
        subs = [(0, 0, 1)]  # (len beta, beta, prod_j m_j!/c_j!) over the sub-multisets
        for j, m in enumerate(exps[1:], 1):
            if m:
                subs = [(l + k, b + k * part[j], f * math.perm(m, k))
                        for l, b, f in subs for k in range(m + 1)]
        alpha = subs[-1][1]  # every part taken
        by_size: dict[int, list[tuple[int, int]]] = {}
        for l, b, f in subs:
            by_size.setdefault(l, []).append((b, f))
        entries = []
        for l, sums_l in by_length.items():
            if l > n:
                entries += [0] * len(sums_l)
                continue
            coef = [r * d ** (n - l - i) for i, r in enumerate(rising[l][: n - l + 1])]
            acc = [0] * len(sums_l)
            for b, f in by_size[l]:
                w = f * sum(map(mul, coef, elem(alpha - b)))
                acc = [a + w * x for a, x in zip(acc, vectors[l][b])]
            entries += acc
        table.append(entries)
    return table


def fit_constants(
    g: int,
    hurwitz: HurwitzTable,
    d_fit: int,
    hodge_table: HodgeTable,
) -> AnsatzForm:
    """Determine the K_theta exactly from Hurwitz data.

    Equates coefficients of p_alpha x^d between the pole-form basis and the
    Hurwitz generating series on the rows of `fit_rows`, refused there
    before any column is formed.  Since s phi_0'(s) = phi_1(s) for the
    Lagrange series s = x e^{phi_0(s, p)}, Lagrange's theorem in its second
    form gives [x^d] Psi(s)/(1 - phi_1(s)) = [z^d] Psi(z) e^{d phi_0(z)},
    and in z every phi_k is a one-part sum, so `pole_basis_rows` forms each
    entry as an integer in closed form, row alpha scaled by D_alpha and
    column theta by Aut theta, with no series product.  The right-hand side
    is H^g_alpha / r! D_alpha, and a solution scales back by Aut theta.
    Column theta is zero on every row with fewer than len theta parts
    (AssertionError otherwise): block l = 1..d_fit, the rows with l parts,
    goes to `solve_exact` for the theta with len theta = l, the shorter
    ones known, and checks every row once, as a zero-column system if l >
    3g - 3.  Writes the fitted primitive brackets
    <tau_theta lambda_k>_g = (-1)^k K_theta into `hodge_table`.
    """
    rows = fit_rows(g, d_fit)
    basis = primitive_thetas(g)
    aug = []
    for exps, row in zip(rows, pole_basis_rows(g, rows)):
        alpha = tuple(j for j, m in enumerate(exps[1:], 1) for _ in range(m))
        h = hurwitz.value(g, alpha) / math.factorial(riemann_hurwitz_r(g, alpha))
        aug.append((len(alpha), row + [h * _row_scale(exps[1:])]))
    solution: list[Fraction] = []
    for l in range(1, d_fit + 1):
        block = [row for parts, row in aug if parts == l]
        known, end = len(solution), len(solution) + sum(len(t) == l for t, _, _ in basis)
        if any(any(row[end:-1]) for row in block):
            raise AssertionError(f"a longer pole-basis column is nonzero on a row with {l} parts")
        den, nums = over_lcm((v.numerator, v.denominator) for v in solution)
        solution += solve_exact(
            [[a * den for a in row[known:end]] for row in block],
            [row[-1] * den - sum(map(mul, row[:known], nums)) for row in block],
        )
    form = AnsatzForm(g)
    for (theta, e, k), value in zip(basis, solution):
        form.constants[theta] = value * aut_count(theta)
        hodge_table.set_primitive(HodgeKey.make(g, theta, k), (-1) ** k * form.constants[theta])
    return form


# -- theorem verifications -------------------------------------------------------


def verify_change_theorem(
    g: int, hurwitz: HurwitzTable, hodge_table: HodgeTable, ctx: XpContext
) -> dict:
    """H_g(x,p) = (t_k -> phi_k(x,p)) applied to G_g, for g >= 1; for g = 0
    the three-piece decomposition phi_{-2} + pair correction + image of F_0."""
    d_max = ctx.d_max
    trunc = {"x_max": d_max, "parts_max": d_max}
    lhs = hurwitz_series(hurwitz, g, ctx)
    tctx = TContext(3 * g - 3 + d_max if g > 0 else d_max, d_max)
    if g == 0:
        f0 = assemble_G(0, hodge_table, tctx)
        rhs = ctx.phi_x(-2) + pair_correction_series(ctx) + xi_substitute(f0, ctx)
        return compare_series(lhs, rhs, "change-theorem-g0-decomposition", trunc)
    G = assemble_G(g, hodge_table, tctx)
    rhs = xi_substitute(G, ctx)
    return compare_series(lhs, rhs, f"change-theorem-g{g}", trunc)


def verify_euler_square(hurwitz: HurwitzTable, ctx: XpContext) -> dict:
    """(x d/dx)^2 H_0 = phi_0(s, p)."""
    lhs = hurwitz_series(hurwitz, 0, ctx).euler("x").euler("x")
    return compare_series(
        lhs, ctx.phi_s(0), "euler-square-h0", {"x_max": ctx.d_max}
    )


def verify_genus_expansion(
    g: int, form: AnsatzForm, hodge_table: HodgeTable
) -> list[dict]:
    """The two pole-form expansions of G_g and their agreement, plus the
    lambda-free slice, as truncated t-series identities in t_0..t_{3g+2}
    up to t-degree 5."""
    t_index_max, t_deg_max = 3 * g + 2, 5
    tctx = TContext(t_index_max, t_deg_max)
    ring = tctx.ring
    trunc = {"t_index_max": t_index_max, "t_deg_max": t_deg_max}
    G = assemble_G(g, hodge_table, tctx)

    # Form 1: the pole form with F_j = I_j, weighted by the fitted constants.
    basis = pole_basis_series(g, tctx)
    rhs1 = ring.combination((form.constants[theta], series) for theta, _, _, series in basis)
    rhs1_k0 = ring.combination(
        (form.constants[theta], series) for theta, _, k, series in basis if k == 0
    )

    # Form 2: substitute t_0, t_1 -> 0, t_j -> I_j/(1-I_1) into G itself;
    # a monomial t_theta goes to prod I_theta_i (1 - I_1)^-(2g-2+len theta).
    thetas = ((ring.varset.theta(ring.exps(k)), n) for k, n in G.nums.items())
    rhs2 = ring.combination(
        (n, tctx.pole_term(g, theta)) for theta, n in thetas if 0 not in theta and 1 not in theta
    ).scale(Fraction(1, G.den))

    return [
        compare_series(G, rhs1, f"genus-expansion-g{g}-constants-form", trunc),
        compare_series(G, rhs2, f"genus-expansion-g{g}-substituted-form", trunc),
        compare_series(rhs1, rhs2, f"genus-expansion-g{g}-forms-agree", trunc),
        compare_series(
            extract_weight_slice(G, 3 * g - 3),
            rhs1_k0,
            f"genus-expansion-g{g}-lambda-free-slice",
            trunc,
        ),
    ]


def verify_delta_annihilation(g: int, hodge_table: HodgeTable) -> dict:
    """The operator sum_m t_{m+1} d/dt_m - d/dt_0 annihilates G_g (g >= 1)
    except for one boundary constant, checked in t_0..t_9 on the
    sub-window of t-degree <= 5 where the image is fully determined.

    Removing a tau_0 from an n-point bracket is only meaningful for n >= 2,
    so the t_0-linear term of G_g survives as a constant residue: it is
    -[t_0] G_g, which vanishes for g >= 2 but equals +1/24 for g = 1 (from
    the n = 1 bracket with one lambda-class).  The residue is pinned
    exactly rather than ignored.
    """
    t_index_max, t_deg_max = 9, 6
    tctx = TContext(t_index_max, t_deg_max)
    ring = tctx.ring
    G = assemble_G(g, hodge_table, tctx)
    theta_exps = ring.varset.theta_exps
    summands = [-G.diff("t_0")] + [
        G.diff(f"t_{m}").times_monomial(theta_exps((m + 1,))) for m in range(t_index_max)
    ]
    image = ring.sum(summands)
    complete = image.up_to_degree(t_deg_max - 1)
    window = set().union(*(s.up_to_degree(t_deg_max - 1).nums for s in summands))
    residue = ring.const(-G.coeff({"t_0": 1}))
    return compare_series(
        complete,
        residue,
        f"delta-annihilation-g{g}",
        {"t_index_max": t_index_max, "t_deg_max": t_deg_max - 1},
        cancelled=len(window - complete.nums.keys()),
    )


def verify_xi_on_I(k: int, ctx: XpContext, tctx: TContext) -> dict:
    """Image of I_k under t_j -> phi_j(x, p) equals phi_k(s, p).

    Exact when tctx has t-degree ctx.d_max and holds t_0..t_{k+d_max-1},
    the only descendants in I_k below that degree; a smaller ring drops
    terms, and the check fails.
    """
    lhs = xi_substitute(tctx.I(k), ctx)
    return compare_series(
        lhs, ctx.phi_s(k), f"xi-image-of-I{k}", {"x_max": ctx.d_max}
    )


def verify_phi_shift_expansion(k: int, ctx: XpContext) -> dict:
    """phi_k(s, p) = sum_m phi_{k+m}(x, p) phi_0(s, p)^m / m!, each power
    of phi_0(s, p) formed once per context."""
    d_max = ctx.d_max
    phi0s_pows = (ctx._prefix_product("F", (0,) * m, ctx.F) for m in range(d_max + 1))
    total = ctx.ring.combination(
        (Fraction(1, math.factorial(m)), ctx.phi_x(k + m) * phi0s_pow)
        for m, phi0s_pow in enumerate(phi0s_pows)
    )
    return compare_series(total, ctx.phi_s(k), f"phi-shift-expansion-k{k}", {"x_max": d_max})

"""Cut-and-join iteration for Hurwitz numbers, organized by step count.

The generating function E of all (possibly disconnected) covers satisfies a
first-order evolution equation in the step marker u whose right-hand side
is the cut-and-join operator: split one part v into a + b with weight v, or
merge two parts a, b into a + b with weight ab.  Starting from the step-0
series exp(p_1 x) and applying the operator once per step reproduces every
coefficient exactly.

Representation: the coefficient of u^r is a homogeneous "slice" mapping a
profile partition alpha of degree d = |alpha| to the integer
N = d! r! c, where c is the coefficient of p_alpha x^d u^r; that is, the
series are exponential generating functions in both x and u.  For E, N is
the number of r-tuples of transpositions in S_d whose product has cycle
type alpha; for the connected series it counts the transitive ones.  In
these units the step normalization 1/(r+1) cancels, every weight of the
operator is an integer, and the step-0 slice is 1 on every 1^d.  The
x-exponent and the genus are redundant given r and alpha, so both stay
implicit.  Slices are exact and closed under the operator, which preserves
|alpha|, so no truncation loss occurs inside a run.  A `Fraction` is made
only where a count is returned: H^g_alpha = N / d!.

The connected series H = log E has an equation of its own (Goulden and
Jackson, 1997): the same operator plus a quadratic term that joins two
connected covers into one.  No term lowers degree or genus, so H is exact
when pruned to degree <= d_max and genus <= g_max after every step.  The
quadratic term carries a factor 1/2; its symmetric sum is accumulated
doubled and halved exactly, and an odd sum is an error, never floored.

The two users reach connected counts by different routes:

* a table (`hurwitz_via_cutjoin`) evolves H directly (`connected_slices`),
  pruned to the table's degree and genus, and takes no logarithm;
* one answer (`hurwitz_number`) evolves E only on the degrees of the
  sub-multisets of alpha, up to step r = riemann_hurwitz_r(g, alpha), and
  takes the slice-wise logarithm with only those sub-multisets kept.  A
  product of slices takes the multiset union of profiles, so no other
  profile feeds the coefficient of p_alpha.  This quotient does not carry
  over to H, whose joins merge parts.

The slice-wise logarithm is its own convolution recurrence, deliberately
not shared with the generic series log used by the brute-force oracle, so
the two pipelines stay independent down to the connectivity step.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Iterable

from .oracle import HurwitzTable, riemann_hurwitz_r
from .partitions import Partition

__all__ = [
    "initial_slices",
    "cutjoin_step",
    "disconnected_slices",
    "connected_slices",
    "hurwitz_via_cutjoin",
    "hurwitz_number",
]

# profile -> d! r! times the coefficient of p_alpha x^d u^r
Slice = dict[tuple[int, ...], int]


def initial_slices(d_max: int) -> Slice:
    """Step-0 slice: exp(p_1 x) truncated at degree d_max, 1 on every 1^d."""
    return {(1,) * d: 1 for d in range(d_max + 1)}


def cutjoin_step(slice_r: Slice) -> Slice:
    """Apply the cut-and-join operator Delta.

    In the units of `Slice` one step is Delta itself.  Its weights are
    integers: an equal cut v = a + a has v even, and an equal join a + a
    has m_a (m_a - 1) even.
    """
    out: Slice = {}
    for alpha, c in slice_r.items():
        mult = Counter(alpha)
        for v, m in mult.items():
            i = alpha.index(v)
            rest = alpha[:i] + alpha[i + 1 :]
            # Cut: replace one part v by a + b = v.
            for a in range(1, v // 2 + 1):
                b = v - a
                key = tuple(sorted(rest + (a, b)))
                out[key] = out.get(key, 0) + c * (v * m // 2 if a == b else v * m)
            # Join: replace parts v, w (w >= v) by v + w.
            for w, n in mult.items():
                if w < v or (w == v and m < 2):
                    continue
                j = rest.index(w)
                key = tuple(sorted(rest[:j] + rest[j + 1 :] + (v + w,)))
                weight = v * v * m * (m - 1) // 2 if w == v else v * w * m * n
                out[key] = out.get(key, 0) + c * weight
    return {k: v for k, v in out.items() if v}


def disconnected_slices(
    d_max: int, r_max: int, keep: set[tuple[int, ...]] | None = None
) -> list[Slice]:
    """Slices E_0..E_{r_max} of the all-covers series.

    With `keep`, a set of profiles of degree <= d_max, each slice E_s holds
    only the profiles that can still reach a kept profile by step r_max.
    The operator preserves degree and changes the part count by exactly
    one, so a profile whose part count is more than r_max - s away from
    that of every kept profile of its degree feeds no kept coefficient at
    any step <= r_max.  The coefficients that remain are exact.
    """
    lengths: dict[int, set[int]] = {}
    for beta in keep or ():
        lengths.setdefault(sum(beta), set()).add(len(beta))

    def prune(s: Slice, steps_left: int) -> Slice:
        if keep is None:
            return s
        return {
            k: v
            for k, v in s.items()
            if any(abs(n - len(k)) <= steps_left for n in lengths.get(sum(k), ()))
        }

    slices = [prune(initial_slices(d_max), r_max)]
    for r in range(r_max):
        nxt = prune(cutjoin_step(slices[-1]), r_max - r - 1)
        for alpha in nxt:
            if ((r + 1) - (sum(alpha) - len(alpha))) % 2:
                raise AssertionError(
                    f"parity violation at r={r + 1}, alpha={alpha}"
                )
        slices.append(nxt)
    return slices


def _slice_mul(a: Slice, b: Slice, d_max: int) -> Slice:
    """The product of two slices in degree <= d_max, with the binomial
    C(d_a + d_b, d_a) that the exponential units in x carry."""
    out: Slice = {}
    b_items = [(kb, sum(kb), cb) for kb, cb in b.items()]
    for ka, ca in a.items():
        da = sum(ka)
        for kb, db, cb in b_items:
            if da + db > d_max:
                continue
            key = tuple(sorted(ka + kb))
            out[key] = out.get(key, 0) + math.comb(da + db, da) * ca * cb
    return {k: v for k, v in out.items() if v}


def _slice_axpy(acc: Slice, scale: int, s: Slice) -> None:
    for k, v in s.items():
        u = acc.get(k, 0) + scale * v
        if u:
            acc[k] = u
        else:
            del acc[k]


def _derivatives(slice_r: Slice, r: int) -> dict[tuple[int, int], list]:
    """The terms i * dH_r/dp_i of one connected slice, grouped by the
    (degree, genus) of the profile they came from.

    Each term is (i, rest, i * m_i * N): p_alpha with multiplicity m_i of
    part i loses one copy of i and leaves the sorted profile `rest`.
    """
    out: dict[tuple[int, int], list] = {}
    for alpha, c in slice_r.items():
        d = sum(alpha)
        items = out.setdefault((d, (r - d - len(alpha) + 2) // 2), [])
        for i, m in Counter(alpha).items():
            j = alpha.index(i)
            items.append((i, alpha[:j] + alpha[j + 1 :], i * m * c))
    return out


def _join_components(
    da: dict[tuple[int, int], list],
    db: dict[tuple[int, int], list],
    d_max: int,
    g_max: int | None,
) -> Slice:
    """sum_{i,j} ij p_{i+j} dH_a/dp_i dH_b/dp_j in degree <= d_max and
    genus <= g_max, in exponential units in x: each pair of degrees
    (d_a, d_b) carries C(d_a + d_b, d_a).  Joining two connected covers
    adds their genera."""
    out: Slice = {}
    for (deg_a, g_a), items_a in da.items():
        for (deg_b, g_b), items_b in db.items():
            if deg_a + deg_b > d_max or (g_max is not None and g_a + g_b > g_max):
                continue
            binom = math.comb(deg_a + deg_b, deg_a)
            for i, rest_a, wa in items_a:
                wa *= binom
                for j, rest_b, wb in items_b:
                    key = tuple(sorted(rest_a + rest_b + (i + j,)))
                    out[key] = out.get(key, 0) + wa * wb
    return out


def connected_slices(d_max: int, r_max: int, g_max: int | None = None) -> list[Slice]:
    """Slices H_0..H_{r_max} of the connected series H = log E in degree
    <= d_max, and in genus <= g_max when given, with no logarithm taken.

    H evolves by the connected cut-and-join equation from H_0 = p_1 x:
    (r+1) H_{r+1} = Delta H_r
                    + 1/2 sum_{a+b=r} sum_{i,j} ij p_{i+j} dH_a/dp_i dH_b/dp_j,
    with Delta the operator of `cutjoin_step`.  In the units of `Slice`
    the factor r+1 cancels and the join of steps a and b carries C(r, a).
    The sum over (a, b) is symmetric, so it runs over a <= b, doubled: with
    weight 2 for a < b and 1 for a = b, and the total is halved exactly.
    No term lowers degree or genus, so pruning every slice to d_max and
    g_max is exact.

    >>> connected_slices(3, 4)[2] == {(1, 1): 1, (3,): 6}
    True
    """
    h: list[Slice] = [{(1,): 1} if d_max >= 1 else {}]
    derivs = [_derivatives(h[0], 0)]
    for r in range(r_max):
        twice: Slice = {}
        for a in range(r // 2 + 1):
            b = r - a
            joined = _join_components(derivs[a], derivs[b], d_max, g_max)
            _slice_axpy(twice, math.comb(r, a) * (1 if a == b else 2), joined)
        nxt = cutjoin_step(h[r])
        for k, v in twice.items():
            half, odd = divmod(v, 2)
            if odd:
                raise AssertionError(f"odd doubled join at r={r + 1}, alpha={k}")
            nxt[k] = nxt.get(k, 0) + half
        if g_max is not None:
            nxt = {
                k: v
                for k, v in nxt.items()
                if r + 1 - sum(k) - len(k) + 2 <= 2 * g_max
            }
        h.append(nxt)
        derivs.append(_derivatives(nxt, r + 1))
    return h


def _log_slices(
    e: list[Slice], d_max: int, keep: set[tuple[int, ...]] | None = None
) -> list[Slice]:
    """Slices H_0..H_{len(e)-1} of log E, in degree <= d_max.

    Uses the derivative-of-log convolution in the step variable:
    (r+1) E_{r+1} = sum_k (k+1) H_{k+1} E_{r-k}, solved for H_{r+1} with
    E_0^{-1} = exp(-p_1 x).  In the units of `Slice` the term of k carries
    C(r, k), the slice product carries the binomial in degree, and
    E_0^{-1} is (-1)^d on 1^d.  With `keep`, a set of profiles closed under
    taking sub-multisets, every slice is also cut to `keep`: the profiles
    outside it span a monomial ideal, so the kept coefficients are exact.
    """

    def cut(s: Slice) -> Slice:
        return s if keep is None else {k: v for k, v in s.items() if k in keep}

    e = [cut(s) for s in e]
    # e0 = exp(p_1 x): its log is p_1 x.  Verify rather than assume.
    if e[0] != cut(initial_slices(d_max)):
        raise AssertionError("step-0 slice is not exp(p_1 x)")
    e0_inv = cut({(1,) * d: (-1) ** d for d in range(d_max + 1)})
    h: list[Slice] = [cut({(1,): 1}) if d_max >= 1 else {}]
    for r in range(len(e) - 1):
        acc: Slice = dict(e[r + 1])
        for k in range(r):
            term = cut(_slice_mul(h[k + 1], e[r - k], d_max))
            _slice_axpy(acc, -math.comb(r, k), term)
        h.append(cut(_slice_mul(e0_inv, acc, d_max)))
    return h


def hurwitz_via_cutjoin(
    d_max: int,
    g_max: int | None = None,
    r_max: int | None = None,
) -> HurwitzTable:
    """Connected Hurwitz table from the cut-and-join iteration.

    With g_max given, r_max defaults to 2*d_max + 2*g_max - 2 (enough steps
    for every profile of degree <= d_max at genus <= g_max) and an explicit
    smaller r_max is rejected.  Without g_max, every genus reachable within
    r_max is included.

    >>> table = hurwitz_via_cutjoin(3, 1)
    >>> table.value(0, (3,)), table.value(1, (1, 1))
    (Fraction(1, 1), Fraction(1, 2))
    """
    if g_max is not None:
        r_needed = 2 * d_max + 2 * g_max - 2
        if r_max is None:
            r_max = r_needed
        elif r_max < r_needed:
            raise ValueError(
                f"r_max={r_max} < {r_needed} required for d_max={d_max}, g_max={g_max}"
            )
    elif r_max is None:
        raise ValueError("need g_max or r_max")
    h = connected_slices(d_max, r_max, g_max)
    fact = [math.factorial(d) for d in range(d_max + 1)]
    table = HurwitzTable("cutjoin")
    for r, s in enumerate(h):
        for alpha, n in s.items():
            d = sum(alpha)
            if d == 0:
                raise AssertionError("connected slice contains a constant term")
            two_g = r - d - len(alpha) + 2
            if two_g % 2 or two_g < 0:
                raise AssertionError(
                    f"parity/genus violation at r={r}, alpha={alpha}"
                )
            table.add(two_g // 2, alpha, Fraction(n, fact[d]))
    return table


def _sub_profiles(alpha: Partition) -> set[tuple[int, ...]]:
    """Every sub-multiset of alpha, the empty one included, as a sorted tuple."""
    mult = Counter(alpha)
    parts = sorted(mult)
    return {
        tuple(p for p, k in zip(parts, ks) for _ in range(k))
        for ks in itertools.product(*(range(mult[p] + 1) for p in parts))
    }


def hurwitz_number(g: int, alpha: Iterable[int]) -> Fraction:
    """One connected Hurwitz number H^g_alpha, without building a table.

    Runs r = riemann_hurwitz_r(g, alpha) steps on the degrees of the
    sub-multisets of alpha only, and takes the log with only those
    sub-multisets kept; see the module docstring for why this is exact.

    >>> hurwitz_number(1, (3,)), hurwitz_number(0, (1, 1)), hurwitz_number(1, (1,))
    (Fraction(9, 1), Fraction(1, 2), Fraction(0, 1))
    """
    alpha = Partition.of(alpha)
    if g < 0 or not alpha:
        raise ValueError(f"need g >= 0 and a non-empty profile, got g={g}, alpha={alpha}")
    r = riemann_hurwitz_r(g, alpha)
    keep = _sub_profiles(alpha)
    e = disconnected_slices(alpha.d, r, keep)
    n = _log_slices(e, alpha.d, keep)[r].get(alpha, 0)
    return Fraction(n, math.factorial(alpha.d))

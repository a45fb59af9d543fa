"""Cut-and-join iteration for Hurwitz numbers, organized by step count.

The generating function E of all (possibly disconnected) covers satisfies a
first-order evolution equation in the step marker u whose right-hand side
is the cut-and-join operator: split one part v into a + b with weight v, or
merge two parts a, b into a + b with weight ab.  Starting from the step-0
series exp(p_1 x) and applying the operator once per step reproduces every
coefficient exactly.

Representation: the coefficient of u^r is a homogeneous "slice" mapping a
profile alpha of degree d = |alpha| to the integer N = d! r! c, where c is
the coefficient of p_alpha x^d u^r; that is, the series are exponential
generating functions in both x and u.  For E, N is the number of r-tuples
of transpositions in S_d whose product has cycle type alpha; for the
connected series it counts the transitive ones.  In these units the step
normalization 1/(r+1) cancels, every weight of the operator is an integer,
and the step-0 slice is 1 on every 1^d.  The x-exponent and the genus are
redundant given r and alpha, so both stay implicit.  Slices are exact and
closed under the operator, which preserves |alpha|, so no truncation loss
occurs inside a run.  A `Fraction` is made only where a count is returned:
H^g_alpha = N / d!.

A profile is keyed by one int of the `partitions.ProfileKeys` codec, so
every move of the operator and every product of slices adds keys.  Each
builder call owns one `ProfileKeys`; a table unpacks each distinct key once
into a `Partition` and hands its counts to `HurwitzTable.from_counts`, the
table boundary the oracle shares.

The connected series H = log E has an equation of its own (Goulden and
Jackson, 1997): the same operator plus a quadratic term that joins two
connected covers into one.  No term lowers degree or genus, so H is exact
when each step forms only profiles of degree <= d_max and genus <= g_max.
The quadratic term carries a factor 1/2; its symmetric sum is accumulated
doubled and halved exactly, and an odd sum is an error, never floored.

The two users reach connected counts by different routes:

* a table (`hurwitz_via_cutjoin`) evolves H directly (`connected_slices`),
  one degree at a time, pruned to the table's degree and genus, and takes
  no logarithm;
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
from fractions import Fraction
from typing import Container, Iterable

from .partitions import Partition, ProfileKeys
from .table import HurwitzTable, riemann_hurwitz_r

__all__ = [
    "cutjoin_step",
    "disconnected_slices",
    "connected_slices",
    "hurwitz_via_cutjoin",
    "hurwitz_number",
]

# packed profile key -> d! r! times the coefficient of p_alpha x^d u^r
Slice = dict[int, int]


def _initial_slices(keys: ProfileKeys) -> Slice:
    """Step-0 slice: exp(p_1 x) truncated at degree keys.d_max, 1 on every 1^d."""
    return {keys.pack((1,) * d): 1 for d in range(keys.d_max + 1)}


def cutjoin_step(
    slice_r: Slice, keys: ProfileKeys, reach: dict[int, Container[int]] | None = None
) -> Slice:
    """Apply the cut-and-join operator Delta.

    In the units of `Slice` one step is Delta itself.  Its weights are
    integers: an equal cut v = a + a has v even, and an equal join a + a
    has m_a (m_a - 1) even.

    With `reach`, a map from a degree to the part counts to emit, only
    profiles of those part counts are formed: a cut of a profile with n
    parts gives n + 1 parts and a join n - 1, so each input profile skips
    its whole cut loop or join loop when that count is out of reach.
    """
    unit = keys.unit
    out: Slice = {}
    for key, c in slice_r.items():
        d, parts, pairs = keys[key]
        cuts = joins = True
        if reach is not None:
            counts = reach.get(d, ())
            cuts, joins = parts + 1 in counts, parts - 1 in counts
        for at, (v, m) in enumerate(pairs):
            rest = key - unit[v]
            # Cut: replace one part v by a + b = v.
            for a in range(1, v // 2 + 1) if cuts else ():
                k = rest + unit[a] + unit[v - a]
                out[k] = out.get(k, 0) + c * (v * m // 2 if 2 * a == v else v * m)
            # Join: replace parts v, w (w >= v) by v + w.
            for w, n in pairs[at:] if joins else ():
                if w == v and m < 2:
                    continue
                k = rest - unit[w] + unit[v + w]
                weight = v * v * m * (m - 1) // 2 if w == v else v * w * m * n
                out[k] = out.get(k, 0) + c * weight
    return {k: v for k, v in out.items() if v}


def disconnected_slices(
    keys: ProfileKeys, r_max: int, keep: set[int] | None = None
) -> list[Slice]:
    """Slices E_0..E_{r_max} of the all-covers series, in degree <= keys.d_max.

    With `keep`, a set of keys of profiles, each slice E_s holds only the
    profiles that can still reach a kept profile by step r_max.  The
    operator preserves degree and changes the part count by exactly one, so
    a profile whose part count is more than r_max - s away from that of
    every kept profile of its degree feeds no kept coefficient at any step
    <= r_max; the step is told which part counts are in reach and forms no
    other profile.  The coefficients that remain are exact.
    """
    lengths: dict[int, set[int]] = {}
    for beta in keep or ():
        d, n, _ = keys[beta]
        lengths.setdefault(d, set()).add(n)

    def reach(steps_left: int) -> dict[int, set[int]] | None:
        if keep is None:
            return None
        return {
            d: {n for b in bs for n in range(b - steps_left, b + steps_left + 1)}
            for d, bs in lengths.items()
        }

    e0 = _initial_slices(keys)
    if keep is not None:
        within = reach(r_max)
        e0 = {k: c for k, c in e0.items() if keys[k][1] in within.get(keys[k][0], ())}
    slices = [e0]
    for r in range(r_max):
        nxt = cutjoin_step(slices[-1], keys, reach(r_max - r - 1))
        for k in nxt:
            d, n, _ = keys[k]
            if (r + 1 - d + n) % 2:
                raise AssertionError(
                    f"parity violation at r={r + 1}, alpha={keys.unpack(k)}"
                )
        slices.append(nxt)
    return slices


def _mul_into(
    out: Slice, scale: int, a: Slice, b: Slice, keys: ProfileKeys,
    keep: set[int] | None = None,
) -> None:
    """Add scale times the product of two slices into `out`, in degree <=
    keys.d_max, with the binomial C(d_a + d_b, d_a) that the exponential
    units in x carry.  With `keep`, no key outside it is formed."""
    top, d_max = keys.top, keys.d_max
    for ka, ca in a.items():
        da, ca = ka >> top, ca * scale
        for kb, cb in b.items():
            k = ka + kb
            if k >> top <= d_max and (keep is None or k in keep):
                out[k] = out.get(k, 0) + math.comb(k >> top, da) * ca * cb


def _join_into(
    out: dict[int, int],
    scale: int,
    terms_a: list,
    terms_b: list,
    keys: ProfileKeys,
    g_max: int,
    width: int,
) -> None:
    """Add scale times sum_{i,j} ij p_{i+j} dH_a/dp_i dH_b/dp_j, summed
    over both orders of (a, b), into `out`, where H_a and H_b are the parts
    of H in two degrees, given by their join terms.

    The term of a profile alpha is (parts, values): parts lists (i, key of
    alpha less one part i, i m_i), and values lists (g, r, N) by increasing
    genus.  Joining two covers adds their genera and their steps, with
    weight C(r_a + r_b, r_a), so a pair (alpha, beta) is weighted by one
    genus convolution, and `out` maps a key to its sums at genus 0..g_max
    packed in fields of `width` bits.  When both lists are one degree's,
    each unordered pair is formed once and counted twice, except (alpha, i,
    alpha, i), so every distinct (alpha, i, beta, j) updates `out` once.
    """
    unit = keys.unit
    comb = math.comb
    same = terms_a is terms_b
    for at, (parts_a, values_a) in enumerate(terms_a):
        for parts_b, values_b in terms_b[at:] if same else terms_b:
            fields = [0] * (g_max + 1)
            for g_a, r_a, n_a in values_a:
                for g_b, r_b, n_b in values_b:
                    if g_a + g_b > g_max:
                        break
                    fields[g_a + g_b] += comb(r_a + r_b, r_a) * n_a * n_b
            once = 0
            for n in reversed(fields):
                once = once << width | n
            once *= scale
            twice = 2 * once
            diagonal = parts_b is parts_a
            for at_i, (i, rest_a, w_a) in enumerate(parts_a):
                for j, rest_b, w_b in parts_b[at_i:] if diagonal else parts_b:
                    k = rest_a + rest_b + unit[i + j]
                    w = once if diagonal and j == i else twice
                    out[k] = out.get(k, 0) + w_a * w_b * w


def connected_slices(keys: ProfileKeys, g_max: int) -> list[Slice]:
    """Slices H_0..H_{r_max} of the connected series H = log E in degree
    <= keys.d_max and genus <= g_max, keyed by `keys`, with no logarithm
    taken.

    Riemann-Hurwitz fixes the step count: r = d + l(alpha) + 2g - 2 is at
    most its value r_max = 2*d_max + 2*g_max - 2 at genus g_max and profile
    (1^d_max), so that many steps reach every entry.

    H evolves by the connected cut-and-join equation from H_0 = p_1 x:
    (r+1) H_{r+1} = Delta H_r
                    + 1/2 sum_{a+b=r} sum_{i,j} ij p_{i+j} dH_a/dp_i dH_b/dp_j,
    with Delta the operator of `cutjoin_step`.  In the units of `Slice`
    the factor r+1 cancels and the join of steps a and b carries C(r, a).

    Delta preserves degree and the join adds degrees, so the series is
    evolved one degree at a time.  Once every degree below d is complete,
    the join of degree d is summed over the pairs of lower degrees that add
    to d (`_join_into`), doubled and halved exactly; then Delta runs through
    the steps of degree d, each step forming only profiles of genus <=
    g_max.  A profile with n parts sits at step d + n - 2 + 2g, one step
    per genus, and the join takes all its genera at once, so each distinct
    product (alpha, i, beta, j) forms its key once.  No term lowers degree
    or genus, so the slices are exact.

    >>> keys = ProfileKeys(3)
    >>> sorted((keys.unpack(k), n) for k, n in connected_slices(keys, 1)[2].items())
    [((1, 1), 1), ((3,), 6)]
    """
    unit = keys.unit
    h: list[Slice] = [{} for _ in range(riemann_hurwitz_r(g_max, (1,) * keys.d_max) + 1)]
    terms: list[list] = [[]]  # terms[d]: the join terms of the profiles of degree d
    for d in range(1, keys.d_max + 1):
        # a degree-d profile of genus <= g_max sits at a step in [d - 1, top]
        top = 2 * d - 2 + 2 * g_max
        layer: list[Slice] = [{} for _ in range(top + 1)]
        if d == 1:
            layer[0][unit[1]] = 1
        # A field holds a doubled join, at most twice the number of r-tuples
        # of transpositions in S_d, C(d, 2)^r, with r <= 2d - 2 + 2 g_max.
        width = 1 + (2 * d - 2 + 2 * g_max) * math.comb(d, 2).bit_length()
        twice: dict[int, int] = {}
        for d_a in range(1, d // 2 + 1):
            _join_into(twice, math.comb(d, d_a), terms[d_a], terms[d - d_a], keys, g_max, width)
        mask = (1 << width) - 1
        for k, packed in twice.items():
            r = d + keys[k][1] - 2
            while packed:
                half, odd = divmod(packed & mask, 2)
                if odd:
                    raise AssertionError(f"odd doubled join at r={r}, alpha={keys.unpack(k)}")
                if half:
                    layer[r][k] = half
                packed >>= width
                r += 2
        for r in range(d - 1, top):
            # at step r + 1 a profile of degree d has genus <= g_max exactly
            # when it has at least r + 3 - d - 2 g_max parts
            reach = {d: range(r + 3 - d - 2 * g_max, d + 1)}
            nxt = layer[r + 1]
            for k, v in cutjoin_step(layer[r], keys, reach).items():
                nxt[k] = nxt.get(k, 0) + v
        values: dict[int, list] = {}
        for r, s in enumerate(layer):
            h[r].update(s)
            for k, v in s.items():
                values.setdefault(k, []).append(((r - d - keys[k][1] + 2) // 2, r, v))
        if d < keys.d_max:  # a profile of degree d_max joins nothing
            terms.append(
                [([(i, k - unit[i], i * m) for i, m in keys[k][2]], v) for k, v in values.items()]
            )
    return h


def _log_slices(
    e: list[Slice], keys: ProfileKeys, keep: set[int] | None = None
) -> list[Slice]:
    """Slices H_0..H_{len(e)-1} of log E, in degree <= keys.d_max.

    Uses the derivative-of-log convolution in the step variable:
    (r+1) E_{r+1} = sum_k (k+1) H_{k+1} E_{r-k}, solved for H_{r+1} with
    E_0^{-1} = exp(-p_1 x).  In the units of `Slice` the term of k carries
    C(r, k), the slice product carries the binomial in degree, E_0^{-1} is
    (-1)^d on 1^d and H_0 is 1 on (1,).  With `keep`, a set of keys of profiles
    closed under taking sub-multisets, every slice is also cut to `keep`:
    the profiles outside it span a monomial ideal, so the kept coefficients
    are exact.
    """

    def cut(s: Slice) -> Slice:
        return s if keep is None else {k: v for k, v in s.items() if k in keep}

    e = [cut(s) for s in e]
    # e0 = exp(p_1 x): its log is p_1 x.  Verify rather than assume.
    if e[0] != cut(_initial_slices(keys)):
        raise AssertionError("step-0 slice is not exp(p_1 x)")
    e0_inv = cut({k: (-1) ** (k >> keys.top) for k in _initial_slices(keys)})
    h: list[Slice] = [cut({keys.unit[1]: 1}) if keys.d_max >= 1 else {}]
    for r in range(len(e) - 1):
        acc: Slice = dict(e[r + 1])
        for k in range(r):
            _mul_into(acc, -math.comb(r, k), h[k + 1], e[r - k], keys, keep)
        nxt: Slice = {}
        _mul_into(nxt, 1, e0_inv, acc, keys, keep)
        h.append({k: v for k, v in nxt.items() if v})
    return h


def hurwitz_via_cutjoin(d_max: int, g_max: int) -> HurwitzTable:
    """Connected Hurwitz table of degree <= d_max and genus <= g_max from
    the cut-and-join iteration.

    >>> table = hurwitz_via_cutjoin(3, 1)
    >>> table.value(0, (3,)), table.value(1, (1, 1))
    (Fraction(1, 1), Fraction(1, 2))
    """
    keys = ProfileKeys(d_max)
    h = connected_slices(keys, g_max)
    # decoded parts are positive and sorted: no `Partition` check needed
    alphas = {k: tuple.__new__(Partition, keys.unpack(k)) for k in set().union(*h)}
    counts = (
        (r, alphas[k], Fraction(n, math.factorial(k >> keys.top)))
        for r, s in enumerate(h)
        for k, n in s.items()
    )
    return HurwitzTable.from_counts("cutjoin", counts, g_max)


def _sub_profiles(alpha: Partition, keys: ProfileKeys) -> set[int]:
    """The keys of every sub-multiset of alpha, the empty one included."""
    counts = keys[keys.pack(alpha)][2]
    return {
        sum(m * keys.unit[i] for (i, _), m in zip(counts, ms))
        for ms in itertools.product(*(range(m + 1) for _, m in counts))
    }


def hurwitz_number(g: int, alpha: Iterable[int]) -> Fraction:
    """One connected Hurwitz number H^g_alpha, without building a table.

    Runs r = riemann_hurwitz_r(g, alpha) steps on the degrees of the
    sub-multisets of alpha only, and takes the log with only those
    sub-multisets kept; see the module docstring for why this is exact.

    A degree-1 profile at g >= 1 is 0 at once: S_1 has no transposition.

    >>> hurwitz_number(1, (3,)), hurwitz_number(0, (1, 1)), hurwitz_number(1, (1,))
    (Fraction(9, 1), Fraction(1, 2), Fraction(0, 1))
    """
    alpha = Partition.of(alpha)
    if g < 0 or not alpha:
        raise ValueError(f"need g >= 0 and a non-empty profile, got g={g}, alpha={alpha}")
    if alpha.d == 1 and g >= 1:
        return Fraction(0)
    r = riemann_hurwitz_r(g, alpha)
    keys = ProfileKeys(alpha.d)
    keep = _sub_profiles(alpha, keys)
    e = disconnected_slices(keys, r, keep)
    n = _log_slices(e, keys, keep)[r].get(keys.pack(alpha), 0)
    return Fraction(n, math.factorial(alpha.d))

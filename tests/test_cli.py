"""Command-line interface: output contracts, exit codes, determinism."""

import ast
import gc
import hashlib
import importlib.util
import json
import os
import shlex
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from hurwitz import ansatz, cli, cutjoin, golden, oracle, partitions, simple_hurwitz, suites
from hurwitz.algebra import ExactSeries, rational_str
from hurwitz.cli import Session, main
from hurwitz.cutjoin import hurwitz_via_cutjoin
from hurwitz.hodge import HodgeTable, elsv_hurwitz
from hurwitz.partitions import Partition
from hurwitz.table import HurwitzTable


RECORDED = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "expected.json").read_text()
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hurwitz_single_value_json(capsys):
    code, out, _ = run_cli(
        capsys, "hurwitz", "--g", "0", "--alpha", "1,1,1", "--method", "oracle"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj == {
        "g": 0,
        "alpha": [1, 1, 1],
        "r": 4,
        "value": "4/1",
        "method": "oracle",
    }
    assert out.endswith("\n")


@pytest.mark.parametrize("method", ["oracle", "cutjoin", "elsv"])
def test_methods_agree(capsys, method):
    code, out, _ = run_cli(
        capsys, "hurwitz", "--g", "1", "--alpha", "1,1,1", "--method", method
    )
    assert code == 0
    assert json.loads(out)["value"] == "40/1"


def test_cutjoin_single_answer_at_degree_20(capsys, genus0_hurwitz):
    code, out, _ = run_cli(capsys, "hurwitz", "--g", "0", "--alpha", "20")
    assert code == 0
    obj = json.loads(out)
    assert (obj["r"], obj["method"]) == (19, "cutjoin")
    assert Fraction(obj["value"]) == genus0_hurwitz((20,)) == 20**17


def test_cutjoin_query_builds_no_table(capsys, monkeypatch):
    """`hurwitz --method cutjoin` runs r steps on the degrees of the
    sub-multisets of alpha only, and never builds a table."""
    steps = []
    real_step = cutjoin.cutjoin_step

    def spy(slice_r, keys, reach):
        steps.append({keys[k][0] for k in slice_r})
        return real_step(slice_r, keys, reach)

    def no_table(*args, **kwargs):
        raise AssertionError("a table was built for one answer")

    monkeypatch.setattr(cutjoin, "cutjoin_step", spy)
    monkeypatch.setattr("hurwitz.cli.hurwitz_via_cutjoin", no_table)
    monkeypatch.setattr(cutjoin, "connected_slices", no_table)
    code, out, _ = run_cli(
        capsys, "hurwitz", "--g", "1", "--alpha", "2,2,5", "--method", "cutjoin"
    )
    assert code == 0
    assert json.loads(out)["r"] == 12
    assert len(steps) == 12
    evolved = Counter(d for degrees in steps for d in degrees)
    # degree 0 is the empty profile and degree 1 the single sheet: the
    # operator sends both to 0 after one step.
    assert evolved == {0: 1, 2: 12, 4: 12, 5: 12, 7: 12, 9: 12}


def test_closed_form_method(capsys):
    code, out, _ = run_cli(
        capsys, "hurwitz", "--g", "3", "--alpha", "1,1,1,1", "--method", "closed-form"
    )
    code2, out2, _ = run_cli(
        capsys, "hurwitz", "--g", "3", "--alpha", "1,1,1,1", "--method", "cutjoin"
    )
    assert code == code2 == 0
    assert json.loads(out)["value"] == json.loads(out2)["value"]


def test_table_csv_shape(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--method", "oracle", "--dmax", "3", "--gmax", "1",
        "--rmax", "6", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "g,alpha,r,value"
    assert '0,"1,1,1",4,4/1' in lines


def _table_records(capsys, *argv):
    code, out, _ = run_cli(capsys, "table", *argv)
    assert code == 0
    return json.loads(out)


@pytest.mark.parametrize("rmax", [0, 4, 7, 10])
def test_cutjoin_table_rmax_keeps_the_entries_within_it(capsys, rmax):
    """`table --method cutjoin --rmax N` prints the full table's records
    with r <= N and, up to degree 4, the oracle's records for the same N."""
    full = _table_records(capsys, "--dmax", "6")
    kept = _table_records(capsys, "--method", "cutjoin", "--dmax", "6", "--rmax", str(rmax))
    assert kept and len(kept) < len(full)
    assert kept == [rec for rec in full if rec["r"] <= rmax]
    small = _table_records(capsys, "--dmax", "4", "--rmax", str(rmax))
    oracle_small = _table_records(capsys, "--method", "oracle", "--dmax", "4", "--rmax", str(rmax))
    assert {rec.pop("method") for rec in small} == {"cutjoin"}
    assert {rec.pop("method") for rec in oracle_small} == {"oracle"}
    assert small == oracle_small


def test_table_json_matches_direct_build(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--method", "cutjoin", "--dmax", "3", "--gmax", "1"
    )
    assert code == 0
    records = json.loads(out)
    values = {(r["g"], tuple(r["alpha"])): r["value"] for r in records}
    assert values[(0, (1, 1, 1))] == "4/1"
    assert values[(1, (3,))] == "9/1"


def test_fit_emits_constants_and_primitives(capsys):
    code, out, _ = run_cli(capsys, "fit", "--g", "2")
    assert code == 0
    obj = json.loads(out)
    constants = {tuple(rec["theta"]): rec["K"] for rec in obj["form"]["constants"]}
    assert constants[(2, 2, 2)] == "7/240"
    assert {"g": 2, "theta": [4], "k": 0, "value": "1/1152", "source": "fitted"} in obj[
        "primitives"
    ]


def test_hodge_evaluation(capsys):
    code, out, _ = run_cli(capsys, "hodge", "--g", "1", "--theta", "1", "--k", "0")
    assert code == 0
    assert json.loads(out)["value"] == "1/24"
    code, out, _ = run_cli(capsys, "hodge", "--g", "2", "--theta", "2", "--k", "2")
    assert code == 0
    assert json.loads(out)["value"] == "7/5760"


def test_hodge_zero_by_the_gate_fits_nothing(capsys, monkeypatch):
    # k > g: the gate zeroes the bracket, so no genus-3 fit runs
    def no_fit(*args, **kwargs):
        raise AssertionError("a fit ran for a bracket the gate zeroes")

    monkeypatch.setattr(cli, "fit_constants", no_fit)
    code, out, _ = run_cli(capsys, "hodge", "--g", "3", "--theta", "1", "--k", "9")
    assert code == 0
    assert '"value": "0/1"' in out
    code, out, _ = run_cli(capsys, "hodge", "--g", "2", "--theta", "0,1", "--k", "0")
    assert (code, json.loads(out)["value"]) == (0, "0/1")


def test_verify_suite_text_output(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "oracle-vs-cutjoin", "--dmax", "4"
    )
    assert code == 0
    assert all(line.startswith("PASS ") for line in out.strip().split("\n"))


def test_verify_suite_json_output(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "recursions", "--dmax", "8", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == "recursions"
    assert all(c["status"] == "pass" for c in report["checks"])


# sha256 of `verify --suite S` at its default --dmax, as (text, JSON)
VERIFY_SHA256 = {
    "change-theorem": (
        "68947f3ec6b1bcea03bb6fc68386ecb92fb230167a1caba5b928b72fcbb5b7a3",
        "5b65f1b5634aacd9c4ab8f5ac9d5eab6522945983a720b545eb970f769323c8e",
    ),
    "genus-expansion": (
        "f68ad5f0aacbd3837f1ac0624a5774104651150d95cf37e644478996337526af",
        "331250280114b41f4252b5f1d045435b9dc1405a191479244979b9ffc0e2bd53",
    ),
    "recursions": (
        "d479298a7cbb3aaefb46a960a22f5c79c4a21c6984bab167390a018138c2854a",
        "06106013281fa37bec60c283a3452f54fb86ecc1bd167c426de19bff2eca5751",
    ),
    "closed-forms": (
        "33b5f6d7dbc3dda3a8f3ac06ec3f919098a73b8675f86a0679d1604e2ff70ccc",
        "96af770a0d507943217cad586c331318b2059205eecfca810f9832a9c234d95e",
    ),
    "oracle-vs-cutjoin": (
        "f98ba33cee2c254e9cef792c54b68717ec397d6fa6befcfee70b920384b8c76f",
        "91f360d86e29d6c563073b217ea89e309acf0e4d06fef08abe9437c5f2d49ff0",
    ),
}


@pytest.mark.parametrize("suite", sorted(VERIFY_SHA256))
def test_verify_output_is_pinned(capsys, suite):
    """Every suite prints exactly the recorded text and JSON, and each of
    its records names its check and passes or fails."""
    text_sha, json_sha = VERIFY_SHA256[suite]
    code, text, _ = run_cli(capsys, "verify", "--suite", suite)
    assert (code, hashlib.sha256(text.encode()).hexdigest()) == (0, text_sha)
    code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--format", "json")
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, json_sha)
    for check in json.loads(out)["checks"]:
        assert isinstance(check["check"], str) and check["status"] in ("pass", "fail")


@pytest.mark.parametrize(
    "key, oracle, cutjoin",
    [((1, (1, 1)), "0/1", "1/2"), ((0, (1, 1, 1)), "5/1", "4/1")],
    ids=["dropped", "changed"],
)
def test_oracle_mismatch_detail_is_rational(capsys, monkeypatch, key, oracle, cutjoin):
    """A wrong oracle entry fails the suite, and the detail gives both
    sides as n/d, reading an absent entry as 0/1."""
    real = suites.connected_hurwitz
    key = (key[0], Partition(key[1]))

    def broken(*args):
        table = real(*args)
        if oracle == "0/1":
            del table.entries[key]
        else:
            table.entries[key] += 1
        return table

    monkeypatch.setattr(suites, "connected_hurwitz", broken)
    code, out, _ = run_cli(capsys, "verify", "--suite", "oracle-vs-cutjoin", "--format", "json")
    [check] = json.loads(out)["checks"]
    assert (code, check["status"]) == (1, "fail")
    detail = {"g": key[0], "alpha": list(key[1]), "oracle": oracle, "cutjoin": cutjoin}
    assert check["detail"] == detail


@pytest.mark.parametrize(
    "argv, bounds",
    [
        (["table", "--dmax", "5", "--gmax", "1"], (5, 1)),
        (["table", "--dmax", "5", "--rmax", "4"], (5, 2)),
        (["verify", "--suite", "oracle-vs-cutjoin", "--dmax", "4", "--format", "json"], (4, 7)),
        (["verify", "--suite", "recursions", "--dmax", "5"], (5, 3)),
    ],
    ids=["table", "table-rmax", "oracle-vs-cutjoin", "recursions"],
)
def test_every_cutjoin_table_comes_from_the_session(capsys, monkeypatch, argv, bounds):
    """The commands read their cut-and-join table from `Session.table` and
    nowhere else: a session table with H^0_(1,1) raised by 1 is the one
    each command prints or compares against the oracle."""
    real, calls = Session.table, []

    def raised(self, d_max, g_max):
        calls.append((d_max, g_max))
        table = real(self, d_max, g_max)
        table.entries[(0, Partition((1, 1)))] += 1
        return table

    monkeypatch.setattr(Session, "table", raised)
    code, out, _ = run_cli(capsys, *argv)
    assert calls == [bounds]
    if argv[0] == "table":
        [value] = [r["value"] for r in json.loads(out) if (r["g"], r["alpha"]) == (0, [1, 1])]
        assert (code, value) == (0, "3/2")
    elif argv[2] == "recursions":
        assert (code, out.count("FAIL ")) == (1, 9)
    else:
        [check] = json.loads(out)["checks"]
        assert (code, check["status"]) == (1, "fail")
        assert check["detail"] == {"g": 0, "alpha": [1, 1], "oracle": "1/2", "cutjoin": "3/2"}


def test_closed_forms_refuse_a_table_missing_a_degree(capsys, monkeypatch):
    """A one-part count the table lacks is refused, not read as 0."""
    real = cli.hurwitz_via_cutjoin

    def missing(*args):
        table = real(*args)
        del table.entries[(3, Partition((1,) * 5))]
        return table

    monkeypatch.setattr(cli, "hurwitz_via_cutjoin", missing)
    code, out, err = run_cli(capsys, "verify", "--suite", "closed-forms")
    assert (code, out) == (2, "")
    assert "table lacks H^3_(1^5)" in err and "Traceback" not in err


def _raise_entry(g, alpha):
    """Raise one Hurwitz number by 1 in every table the session builds."""

    def perturb(monkeypatch):
        real = cli.hurwitz_via_cutjoin

        def raised(*args):
            table = real(*args)
            if (g, Partition(alpha)) in table.entries:
                table.entries[(g, Partition(alpha))] += 1
            return table

        monkeypatch.setattr(cli, "hurwitz_via_cutjoin", raised)

    return perturb


def _raise_first_constant(g):
    """Perturb the first fitted K_theta of genus g by 1."""

    def perturb(monkeypatch):
        real = cli.fit_constants

        def raised(gg, *args):
            form = real(gg, *args)
            if gg == g:
                form.constants[next(iter(form.constants))] += 1
            return form

        monkeypatch.setattr(cli, "fit_constants", raised)

    return perturb


def _add_w(g, n, power=1, delta=1):
    """Add delta W^power to the pinned D^n H~_g, in a copy that replaces its
    entry; [x^d] W is nonzero at every d >= 1."""

    def perturb(monkeypatch):
        entry = golden.PINNED_W_SERIES[(g, n)]
        laurent = {**entry["laurent"], power: entry["laurent"].get(power, 0) + delta}
        monkeypatch.setitem(golden.PINNED_W_SERIES, (g, n), {**entry, "laurent": laurent})

    return perturb


def _raise_pole_coeff(g):
    """Raise the first pinned pole-form coefficient of genus g by 1/5760."""

    def perturb(monkeypatch):
        coeffs = golden.POLE_FORM_COEFFS[g]
        first = next(iter(coeffs))
        monkeypatch.setitem(coeffs, first, coeffs[first] + Fraction(1, 5760))

    return perturb


def _raise_aggregate(monkeypatch):
    agg = golden.AGGREGATE_CONSTANT_CHECKS_G2
    monkeypatch.setitem(agg, "triple", agg["triple"] + 1)


def _raise_p3_poly(monkeypatch):
    first, *rest = simple_hurwitz.P3_POLY
    monkeypatch.setattr(simple_hurwitz, "P3_POLY", (first + 1, *rest))


def _raise_spot_value(monkeypatch):
    monkeypatch.setitem(golden.SPOT_VALUES, (1, 2), golden.SPOT_VALUES[(1, 2)] + 1)


def _raise_a_series_coeff(k, d):
    def perturb(monkeypatch):
        real = simple_hurwitz.a_series_coeff
        monkeypatch.setattr(
            simple_hurwitz, "a_series_coeff", lambda kk, dd: real(kk, dd) + ((kk, dd) == (k, d))
        )

    return perturb


def _raise_constant(theta):
    """Perturb the fitted genus-2 K_theta by 1 in the form the checks read;
    the brackets the fit wrote into the table stay as they were."""

    def perturb(monkeypatch):
        real = cli.fit_constants

        def raised(g, *args):
            form = real(g, *args)
            form.constants[theta] += 1
            return form

        monkeypatch.setattr(cli, "fit_constants", raised)

    return perturb


def _raise_bracket(key):
    """Perturb one bracket by 1 as `assemble_G` reads it.  A primitive
    bracket changed in the table would move every bracket the string and
    dilaton equations reduce to it, and G would stay consistent; so the key
    holds a tau_0, and only its own coefficient of G moves."""

    def perturb(monkeypatch):
        real = ansatz.evaluate
        monkeypatch.setattr(ansatz, "evaluate", lambda k, table: real(k, table) + (k == key))

    return perturb


def _raise_I(k):
    """Add t_k to I_k as the xi-image check reads it (the pole form reads I
    through `TContext.F`, bound before the patch)."""

    def perturb(monkeypatch):
        real = ansatz.TContext.I
        monkeypatch.setattr(
            ansatz.TContext,
            "I",
            lambda self, j: real(self, j) + self.ring.monomial({f"t_{k}": 1}, int(j == k)),
        )

    return perturb


def _raise_phi_s(k):
    """Add x p_1 to phi_k(s, p) as the xi-image and phi-shift checks read it
    (the fit reads phi(s, p) through `XpContext.F`, bound before the patch)."""

    def perturb(monkeypatch):
        real = ansatz.XpContext.phi_s
        monkeypatch.setattr(
            ansatz.XpContext,
            "phi_s",
            lambda self, j: real(self, j) + self.ring.monomial({"x": 1, "p_1": 1}, int(j == k)),
        )

    return perturb


@pytest.mark.parametrize("suite", ["change-theorem", "genus-expansion"])
def test_keyed_series_hold_admitted_keys_only(capsys, monkeypatch, suite):
    """`assemble_G` and `hurwitz_series` pack their keys without `admits`:
    every key that reaches the keyed constructor in a suite's rings decodes
    to a monomial the ring admits, and packs back to itself."""
    real, seen = ExactSeries.from_keys.__func__, Counter()

    def checked(cls, ring, ratios):
        ratios = list(ratios)
        for key, _, _ in ratios:
            exps = ring.exps(key)
            assert ring.admits(exps) and ring.key(exps) == key, (ring, exps)
        seen[ring.varset.families[0]] += len(ratios)
        return real(cls, ring, ratios)

    monkeypatch.setattr(ExactSeries, "from_keys", classmethod(checked))
    code, _, _ = run_cli(capsys, "verify", "--suite", suite)
    assert code == 0 and seen["t"] and seen["x"]


def _raise_coeff(pinned, name):
    """Raise the first coefficient of one pinned term list by 1, in a copy
    that replaces its entry: a list two maps share stays as it is."""

    def perturb(monkeypatch):
        terms = [dict(term) for term in pinned[name]]
        terms[0]["coeff"] += 1
        monkeypatch.setitem(pinned, name, terms)

    return perturb


def _lower_order(index):
    """Lower the derivative order of a one-factor member of the 26-term
    search family by 1, replacing its "factors" entry."""

    def perturb(monkeypatch):
        member = golden.SEARCH_FAMILY_26[index]
        ((g, p),) = member["factors"]
        monkeypatch.setitem(member, "factors", [(g, p - 1)])

    return perturb


def _fail_genus0_at(d):
    """Report one failure of the genus-0 identity at degree d alone; that
    list is both RECURRENCES["genus0"] and the genus0-quadratic identity."""

    def perturb(monkeypatch):
        real = simple_hurwitz.verify_recurrence

        def failing(terms, table, d_range):
            result = real(terms, table, d_range)
            if terms is golden.RECURRENCES["genus0"]:
                result["failures"].append({"d": d, "residual": "1/1"})
            return result

        monkeypatch.setattr(simple_hurwitz, "verify_recurrence", failing)

    return perturb


# suite -> case -> (an input of `verify --suite <suite>` off by one, the
# checks it must turn to FAIL, and no other).
#
# closed-forms: inputs are shared.  The pinned H~_g is the display, the
# fitted form's target and the closed form's source; at g = 2 the W-form and
# the aggregates read the same fitted sums by length; A_k(d) for d <= 10
# feeds the genus-3 A-combination as well as its own check, which runs to 12.
#
# change-theorem: H^2_(1^7) has degree 7, above the g = 2 fit's d_fit = 6,
# so the fit does not see it.
#
# recursions: RECURRENCES and DIFFERENTIAL_IDENTITIES share four lists, so
# each coefficient case replaces an entry of one map and leaves the other's
# list intact.  A recurrence is read from d = 2 on, its identity from d = 1.
# Member 12 of the family is D^4 H~_3; lowered to D^3 H~_3 it repeats
# member 11, which raises the nullity to 12.
PERTURBATIONS = {
    "closed-forms": {
        "pinned-g0-n1": (_add_w(0, 1), ["w-series-display-g0-n1"]),
        # the display expands the pinned series in x and reads the table, so a
        # changed W^-2 coefficient fails it too
        "pinned-g0-n1-W^-2": (_add_w(0, 1, -2, Fraction(1, 6)), ["w-series-display-g0-n1"]),
        "pinned-g1-n0": (_add_w(1, 0), ["w-series-display-g1-n0", "closed-form-low-genus"]),
        "pinned-g1-n1": (_add_w(1, 1), ["w-series-display-g1-n1"]),
        "pinned-g2-n0": (
            _add_w(2, 0),
            ["w-series-display-g2-n0", "fitted-form-matches-display-g2", "closed-form-low-genus"],
        ),
        "pinned-g3-n0": (
            _add_w(3, 0),
            [
                "w-series-display-g3-n0",
                "fitted-form-matches-display-g3",
                "a-combination-g3",
                "closed-form-low-genus",
            ],
        ),
        "fitted-constant-g2": (
            _raise_first_constant(2),
            ["fitted-form-matches-display-g2", "fitted-aggregates-g2"],
        ),
        "fitted-constant-g3": (_raise_first_constant(3), ["fitted-form-matches-display-g3"]),
        "pole-form-g2": (_raise_pole_coeff(2), ["pole-form-display-g2"]),
        "pole-form-g3": (_raise_pole_coeff(3), ["pole-form-display-g3"]),
        "aggregate-triple": (_raise_aggregate, ["fitted-aggregates-g2"]),
        "a-series-coeff-k4-d5": (
            _raise_a_series_coeff(4, 5),
            ["a-combination-g3", "a-series-vs-lagrange"],
        ),
        "p3-poly": (_raise_p3_poly, ["polynomial-form-g3"]),
        "a-series-coeff": (_raise_a_series_coeff(3, 12), ["a-series-vs-lagrange"]),
        "entry-g0-1^5": (
            _raise_entry(0, (1,) * 5),
            ["w-series-display-g0-n1", "closed-form-low-genus"],
        ),
        "spot-value": (_raise_spot_value, ["spot-values"]),
    },
    "genus-expansion": {
        # a fitted constant moves the constants form, and so its agreement
        # with the substituted form
        "genus-expansion-g2-constants-form": (
            _raise_constant((2,)),
            ["genus-expansion-g2-constants-form", "genus-expansion-g2-forms-agree"],
        ),
        # a bracket moves G, which both forms are compared with, and Delta G
        "genus-expansion-g2-substituted-form": (
            _raise_bracket((2, (0, 4), 1)),
            [
                "genus-expansion-g2-constants-form",
                "genus-expansion-g2-substituted-form",
                "delta-annihilation-g2",
            ],
        ),
        "genus-expansion-g2-forms-agree": (
            _raise_constant((3,)),
            ["genus-expansion-g2-constants-form", "genus-expansion-g2-forms-agree"],
        ),
        # (4,) has lambda-degree 0, so it sits in the lambda-free slice
        "genus-expansion-g2-lambda-free-slice": (
            _raise_constant((4,)),
            [
                "genus-expansion-g2-constants-form",
                "genus-expansion-g2-forms-agree",
                "genus-expansion-g2-lambda-free-slice",
            ],
        ),
        "delta-annihilation-g1": (_raise_bracket((1, (0, 2), 0)), ["delta-annihilation-g1"]),
        # a lambda-free bracket of genus 2
        "delta-annihilation-g2": (
            _raise_bracket((2, (0, 2, 4), 0)),
            [
                "genus-expansion-g2-constants-form",
                "genus-expansion-g2-substituted-form",
                "genus-expansion-g2-lambda-free-slice",
                "delta-annihilation-g2",
            ],
        ),
        **{f"xi-image-of-I{k}": (_raise_I(k), [f"xi-image-of-I{k}"]) for k in range(5)},
        # phi_k(s, p) is read by the xi image of I_k as well
        **{
            f"phi-shift-expansion-k{k}": (
                _raise_phi_s(k),
                [f"xi-image-of-I{k}", f"phi-shift-expansion-k{k}"],
            )
            for k in range(5)
        },
    },
    "change-theorem": {
        "phi-s-0": (_raise_phi_s(0), ["euler-square-h0"]),
        "entry-g0-111": (
            _raise_entry(0, (1, 1, 1)),
            ["euler-square-h0", "change-theorem-g0-decomposition"],
        ),
        "entry-g1-112": (_raise_entry(1, (1, 1, 2)), ["change-theorem-g1"]),
        "entry-g2-1^7": (_raise_entry(2, (1,) * 7), ["change-theorem-g2"]),
    },
    "recursions": {
        **{
            f"RECURRENCES[{name}]": (
                _raise_coeff(golden.RECURRENCES, name),
                [f"recurrence-{name}-d10"],
            )
            for name in golden.RECURRENCES
        },
        **{
            f"DIFFERENTIAL_IDENTITIES[{name}]": (
                _raise_coeff(golden.DIFFERENTIAL_IDENTITIES, name),
                [f"differential-{name}"],
            )
            for name in golden.DIFFERENTIAL_IDENTITIES
        },
        "genus0-fails-at-d2": (
            _fail_genus0_at(2),
            ["recurrence-genus0-d10", "differential-genus0-quadratic"],
        ),
        "genus0-fails-at-d1": (_fail_genus0_at(1), ["differential-genus0-quadratic"]),
        "SEARCH_FAMILY_26[12]": (_lower_order(12), ["search-family-26-nullity"]),
    },
    "oracle-vs-cutjoin": {
        "entry-g1-11": (_raise_entry(1, (1, 1)), ["oracle-vs-cutjoin-d5-r16"]),
    },
}


@pytest.mark.parametrize("suite", sorted(suites.SUITES))
def test_every_check_of_every_suite_has_a_case(capsys, suite):
    code, out, _ = run_cli(capsys, "verify", "--suite", suite)
    assert code == 0
    assert {line.removeprefix("PASS ") for line in out.splitlines()} == {
        check for _, failing in PERTURBATIONS[suite].values() for check in failing
    }


def _fails_exactly_its_listed_checks(capsys, monkeypatch, suite, case):
    perturb, failing = PERTURBATIONS[suite][case]
    perturb(monkeypatch)
    code, out, _ = run_cli(capsys, "verify", "--suite", suite)
    assert code == 1
    assert [line for line in out.splitlines() if not line.startswith("PASS ")] == [
        f"FAIL {name}" for name in failing
    ]


# Each case fails exactly its listed checks: every check of a suite fails
# when one input of its own is off by 1, the checks that share that input
# fail with it, and no other check does.  One test per suite keeps the
# names the cases have always run under.


@pytest.mark.parametrize("case", sorted(PERTURBATIONS["closed-forms"]))
def test_closed_forms_checks_fail_on_their_own_input(capsys, monkeypatch, case):
    _fails_exactly_its_listed_checks(capsys, monkeypatch, "closed-forms", case)


@pytest.mark.parametrize("case", sorted(PERTURBATIONS["genus-expansion"]))
def test_genus_expansion_checks_fail_on_their_own_input(capsys, monkeypatch, case):
    _fails_exactly_its_listed_checks(capsys, monkeypatch, "genus-expansion", case)


@pytest.mark.parametrize("case", sorted(PERTURBATIONS["change-theorem"]))
def test_change_theorem_checks_fail_on_their_own_input(capsys, monkeypatch, case):
    _fails_exactly_its_listed_checks(capsys, monkeypatch, "change-theorem", case)


@pytest.mark.parametrize("case", sorted(PERTURBATIONS["recursions"]))
def test_recursions_checks_fail_on_their_own_input(capsys, monkeypatch, case):
    _fails_exactly_its_listed_checks(capsys, monkeypatch, "recursions", case)


@pytest.mark.parametrize("case", sorted(PERTURBATIONS["oracle-vs-cutjoin"]))
def test_oracle_vs_cutjoin_checks_fail_on_their_own_input(capsys, monkeypatch, case):
    _fails_exactly_its_listed_checks(capsys, monkeypatch, "oracle-vs-cutjoin", case)

def test_search_check_sees_a_shift_that_keeps_the_nullity(capsys, monkeypatch, deep_table):
    """Member 0, (D H~_0)(D^3 H~_3), shifted to (D H~_0)(D^4 H~_3) leaves the
    nullity at 11 and every null vector holds numerically; the pinned basis
    still tells the two families apart."""
    member = golden.SEARCH_FAMILY_26[0]
    assert member["factors"] == [(0, 1), (3, 3)]
    monkeypatch.setitem(member, "factors", [(0, 1), (3, 4)])
    result = simple_hurwitz.search_recursions(golden.SEARCH_FAMILY_26, deep_table, d_verify=10)
    assert (result["dimension"], result["numeric_failures"]) == (11, [])
    code, out, _ = run_cli(capsys, "verify", "--suite", "recursions")
    assert code == 1
    assert [line for line in out.splitlines() if not line.startswith("PASS ")] == [
        "FAIL search-family-26-nullity"
    ]


def test_recursions_check_each_term_list_once(capsys, monkeypatch):
    """RECURRENCES and DIFFERENTIAL_IDENTITIES share four of their ten
    lists, so the suite makes six identity checks, each over d = 1..dmax."""
    calls, real = [], simple_hurwitz.verify_recurrence

    def spy(terms, table, d_range):
        calls.append((id(terms), d_range))
        return real(terms, table, d_range)

    monkeypatch.setattr(simple_hurwitz, "verify_recurrence", spy)
    code, _, _ = run_cli(capsys, "verify", "--suite", "recursions")
    assert code == 0
    assert len(calls) == 6
    lists = [*golden.RECURRENCES.values(), *golden.DIFFERENTIAL_IDENTITIES.values()]
    assert {key for key, _ in calls} == {id(terms) for terms in lists}
    assert {d_range for _, d_range in calls} == {range(1, 11)}


# the commands of the benchmark's `tables` workload, which must stay on
# cut-and-join slices, W-expressions and integer term lists
TABLES_COMMANDS = [
    ["table", "--method", "cutjoin", "--dmax", "13", "--gmax", "3"],
    ["table", "--method", "cutjoin", "--dmax", "10", "--gmax", "3", "--format", "csv"],
    ["search", "--dmax", "10"],
    ["verify", "--suite", "recursions"],
]


def test_tables_commands_multiply_no_series_and_count_no_covers(capsys, monkeypatch):
    calls = []

    def forbidden(name):
        def call(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} was called")

        return call

    monkeypatch.setattr(ExactSeries, "__mul__", forbidden("ExactSeries.__mul__"))
    monkeypatch.setattr(oracle, "count_factorizations", forbidden("count_factorizations"))
    for argv in TABLES_COMMANDS:
        code, _, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
    assert calls == []


@pytest.mark.parametrize("suite", ["change-theorem", "closed-forms"])
def test_series_suites_pass_at_their_lowest_dmax(capsys, suite):
    """--dmax 2 is the lowest bound either suite accepts, and every check
    of its default run passes there."""
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--dmax", "2")
    assert (code, err) == (0, "")
    assert all(line.startswith("PASS ") for line in out.splitlines())
    assert out == run_cli(capsys, "verify", "--suite", suite)[1]


def test_vacuous_recurrence_check_exits_2(capsys):
    """With --dmax 1 the recurrences, which start at d = 2, would compare
    nothing; that is a usage error, not five passes."""
    code, out, err = run_cli(capsys, "verify", "--suite", "recursions", "--dmax", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: recurrence check would compare nothing")
    assert "Traceback" not in err


@pytest.mark.parametrize("dmax", ["1", "9"])
def test_genus_expansion_refuses_a_dmax_it_cannot_honour(capsys, monkeypatch, dmax):
    """At --dmax 1 the xi-image and phi-shift checks would see one monomial
    each, and their rings stop at 8; both requests exit 2 before any fit."""
    fits = []
    monkeypatch.setattr(cli, "fit_constants", lambda *args: fits.append(args))
    code, out, err = run_cli(capsys, "verify", "--suite", "genus-expansion", "--dmax", dmax)
    assert (code, out, fits) == (2, "", [])
    assert err.startswith("error: genus-expansion checks run for 2 <= --dmax <= 8")


def test_closed_forms_check_every_degree_up_to_dmax(capsys, monkeypatch):
    degrees = []
    real = simple_hurwitz.genus3_a_form
    monkeypatch.setattr(
        simple_hurwitz, "genus3_a_form", lambda d: degrees.append(d) or real(d)
    )
    code, out, _ = run_cli(capsys, "verify", "--suite", "closed-forms", "--dmax", "12")
    assert code == 0 and "FAIL" not in out
    assert degrees == list(range(1, 13))


def test_a_series_check_reaches_dmax(capsys, monkeypatch):
    """a-series-vs-lagrange runs to max(--dmax, 12), like the other checks
    of the suite, rather than stopping at 12."""
    degrees = set()
    real = simple_hurwitz.a_series_coeff
    monkeypatch.setattr(
        simple_hurwitz, "a_series_coeff", lambda k, d: degrees.add(d) or real(k, d)
    )
    code, out, _ = run_cli(capsys, "verify", "--suite", "closed-forms", "--dmax", "14")
    assert code == 0 and "PASS a-series-vs-lagrange" in out.splitlines()
    assert degrees == set(range(1, 15))


@pytest.mark.parametrize("suite", ["change-theorem", "genus-expansion"])
def test_series_checks_report_what_they_compared(capsys, suite):
    """Every series check at the default --dmax compares some monomial, or
    shows that the summands of its sum side cancelled; text output names
    neither count."""
    code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--format", "json")
    assert code == 0
    for check in json.loads(out)["checks"]:
        assert check["compared"] > 0 or check.get("cancelled", 0) > 0, check
    code, text, _ = run_cli(capsys, "verify", "--suite", suite)
    assert code == 0 and "compared" not in text


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--g", "3"],
        ["verify", "--suite", "change-theorem"],
        ["table", "--method", "oracle", "--dmax", "7", "--gmax", "2"],
    ],
)
def test_series_sums_take_one_pass(capsys, monkeypatch, argv):
    """Series are summed by `SeriesRing.sum` in one pass; accumulating them
    one `+` at a time made 194, 1559 and 324 additions on these commands."""
    adds = []
    real = ExactSeries.__add__
    monkeypatch.setattr(ExactSeries, "__add__", lambda a, b: adds.append(1) or real(a, b))
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(adds) <= 5


def test_search_builds_each_family_factor_once(capsys, monkeypatch):
    """`search --dmax 10` applies D once per D^p H~_g its 26-term family
    needs, 19 times where building every factor anew took 81, and prints
    what the benchmark recorded."""
    applied = []
    real = simple_hurwitz.WExpr.apply_D
    monkeypatch.setattr(
        simple_hurwitz.WExpr, "apply_D", lambda self: applied.append(1) or real(self)
    )
    code, out, _ = run_cli(capsys, "search", "--dmax", "10")
    assert len(applied) == 19
    assert code == RECORDED["search --dmax 10"]["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == RECORDED["search --dmax 10"]["sha256"]


@pytest.mark.parametrize(
    "case",
    [
        "recursions-dmax-1",
        "change-theorem-dmax-1",
        "closed-forms-dmax-1",
        "closed-form-genus-4",
        "search-genus-9",
        "search-genus-0-series",
        "search-log-squared",
    ],
)
def test_refused_before_building_a_table(capsys, monkeypatch, tmp_path, case):
    """A request outside the supported degree range or genus, or a family
    term with no W-expression, exits 2 with a message naming the limit,
    before any cut-and-join table is evolved.  At --dmax 1 the recurrences,
    which start at d = 2, compare nothing, and every H^g with g >= 1 is 0,
    so the genus-1 and genus-2 change-theorem checks would compare 0 with 0,
    as would eight closed-forms checks whose closed forms are 0 at d = 1."""
    family = tmp_path / "family.json"
    family.write_text(
        json.dumps(
            {
                "search-genus-9": [{"factors": [[1, 1]]}, {"factors": [[9, 0]]}],
                "search-genus-0-series": [{"factors": [[3, 0]]}, {"factors": [[0, 0]]}],
                "search-log-squared": [{"factors": [[3, 0]]}, {"factors": [[1, 0], [1, 0]]}],
            }.get(case)
        )
    )
    search = ["search", "--family", str(family)]
    argv, limit = {
        "recursions-dmax-1": (["verify", "--suite", "recursions", "--dmax", "1"], "--dmax must be >= 2"),
        "change-theorem-dmax-1": (
            ["verify", "--suite", "change-theorem", "--dmax", "1"],
            "--dmax must be >= 2",
        ),
        "closed-forms-dmax-1": (
            ["verify", "--suite", "closed-forms", "--dmax", "1"],
            "--dmax must be >= 2",
        ),
        "closed-form-genus-4": (
            ["hurwitz", "--g", "4", "--alpha", "1,1", "--method", "closed-form"],
            "no pinned base series for genus 4",
        ),
        "search-genus-9": (search, "g <= 3"),
        "search-genus-0-series": (search, "not W-representable"),
        "search-log-squared": (search, "two log-bearing"),
    }[case]

    def no_table(*args, **kwargs):
        raise AssertionError("a table was built before the refusal")

    monkeypatch.setattr(cutjoin, "connected_slices", no_table)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert limit in err and "Traceback" not in err


def test_cutjoin_table_takes_no_log(capsys, monkeypatch):
    """`table --method cutjoin` evolves the connected series directly: it
    never evolves the all-covers series nor takes its logarithm."""

    def no_log(*args, **kwargs):
        raise AssertionError("the table path took the all-covers route")

    monkeypatch.setattr(cutjoin, "disconnected_slices", no_log)
    monkeypatch.setattr(cutjoin, "_log_slices", no_log)
    code, out, _ = run_cli(capsys, "table", "--method", "cutjoin", "--dmax", "6", "--gmax", "3")
    monkeypatch.undo()
    assert code == 0
    assert out == hurwitz_via_cutjoin(6, 3).to_json() + "\n"


def test_genus_expansion_builds_s_and_i0_once_per_ring(capsys, monkeypatch):
    # s in the (x, p) ring of the xi-image and phi-shift checks (the fit
    # forms its columns in closed form, with no s); I_0 in the genus
    # expansion's t ring and in the t ring the xi-image checks share
    built = []
    for name in ("_s_series", "_i0_series"):

        def spy(ring, *bounds, real=getattr(ansatz, name)):
            built.append(ring)
            return real(ring, *bounds)

        monkeypatch.setattr(ansatz, name, spy)
    code, out, _ = run_cli(capsys, "verify", "--suite", "genus-expansion", "--dmax", "7")
    assert code == 0 and "FAIL" not in out
    assert len(built) == len(set(built)) == 3


def test_a_perturbed_fixed_point_fails_its_check(capsys, monkeypatch):
    """One coefficient of s or of I_0 off by 1, at the top degree of its
    ring, is caught by the fixed-point check; the CLI exits 1 with one
    error line."""
    for name, monomial in [
        ("_s_series", {"x": 5, "p_2": 2}),
        ("_i0_series", {"t_0": 3, "t_3": 1}),
    ]:

        def perturbed(ring, *bounds, real=getattr(ansatz, name), monomial=monomial):
            series = real(ring, *bounds)
            assert series.coeff(monomial) != 0
            return series + ring.monomial(monomial, 1)

        monkeypatch.setattr(ansatz, name, perturbed)
    with pytest.raises(AssertionError, match="s is not the fixed point"):
        ansatz.XpContext(5).s_powers()
    with pytest.raises(AssertionError, match="I_0 is not the fixed point"):
        ansatz.TContext(4, 4).I(0)
    code, out, err = run_cli(capsys, "verify", "--suite", "change-theorem")
    assert (code, out) == (1, "")
    assert err.startswith("error: internal check failed: s is not the fixed point")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_contradictory_fit_rows_exit_1(capsys, monkeypatch):
    """One table entry raised at a degree the fit reads makes its rows
    contradict each other; the data are the program's own, so this is an
    internal check failure, not a usage error."""
    real = cli.hurwitz_via_cutjoin

    def raised(*args):
        table = real(*args)
        table.entries[(2, Partition((3, 3)))] += 1
        return table

    monkeypatch.setattr(cli, "hurwitz_via_cutjoin", raised)
    code, out, err = run_cli(capsys, "fit", "--g", "2")
    assert (code, out) == (1, "")
    assert err == "error: internal check failed: no exact solution (contradictory rows)\n"


@pytest.mark.parametrize(
    "g, line",
    [(6, "only 507 equations for 617 unknowns"), (7, "only 914 equations for 1458 unknowns")],
    ids=["g6", "g7"],
)
def test_too_small_a_fit_is_refused_before_any_work(capsys, monkeypatch, g, line):
    """A genus whose profiles up to d_fit = 2g + 2 give too few equations
    exits 2 from the row count alone: no table and no pole-basis column is
    formed."""

    def no_work(*args, **kwargs):
        raise AssertionError("work was done before the refusal")

    monkeypatch.setattr(cutjoin, "connected_slices", no_work)
    monkeypatch.setattr(ansatz, "pole_basis_rows", no_work)
    code, out, err = run_cli(capsys, "fit", "--g", str(g))
    assert (code, out) == (2, "")
    assert err == f"error: {line}; need 10 surplus — increase d_fit\n"
    # the fit refuses on its own too, before it forms a column
    with pytest.raises(ValueError, match=f"^{line};"):
        ansatz.fit_constants(g, HurwitzTable("cutjoin"), 2 * g + 2, HodgeTable())


def test_fit_refusal_enumerates_nothing(capsys, monkeypatch):
    """At g = 100 the counts alone refuse the fit: no partition, of the
    degrees or of the unknowns, is enumerated first."""

    def no_enumeration(*args, **kwargs):
        raise AssertionError("partitions enumerated before the refusal")

    monkeypatch.setattr(ansatz, "partitions", no_enumeration)
    monkeypatch.setattr(partitions, "partitions", no_enumeration)
    code, out, err = run_cli(capsys, "fit", "--g", "100")
    assert (code, out) == (2, "")
    assert err.startswith("error: only ") and err.endswith("; need 10 surplus — increase d_fit\n")


def test_fit_block_structure_is_checked(capsys, monkeypatch):
    """A pole-basis column of length 2 given an entry on a one-part row
    breaks the block structure the fit solves by: exit 1, one line."""

    def widened(g, rows, real=ansatz.pole_basis_rows):
        table = real(g, rows)
        thetas = [theta for theta, _, _ in partitions.primitive_thetas(g)]
        i = next(i for i, theta in enumerate(thetas) if len(theta) == 2)
        (r,) = [r for r, exps in enumerate(rows) if exps[0] == 3 and exps[3] == 1]
        assert table[r][i] == 0
        table[r][i] = 1
        return table

    monkeypatch.setattr(ansatz, "pole_basis_rows", widened)
    code, out, err = run_cli(capsys, "fit", "--g", "2")
    assert (code, out) == (1, "")
    assert err == (
        "error: internal check failed: a longer pole-basis column is nonzero on a row with 1 parts\n"
    )


def test_verify_failure_exits_1(capsys, monkeypatch):
    def broken_suite(session, dmax):
        return [{"check": "probe", "status": "fail", "detail": {}}]

    monkeypatch.setitem(suites.SUITES, "oracle-vs-cutjoin", (broken_suite, 4))
    code, out, _ = run_cli(capsys, "verify", "--suite", "oracle-vs-cutjoin")
    assert code == 1
    assert out.startswith("FAIL probe")


def test_internal_check_failure_exits_1_without_traceback(capsys, monkeypatch):
    """With one transposition missing, the oracle's class check fails: the
    user gets one error line and exit 1, not a traceback."""
    real = oracle.transpositions
    monkeypatch.setattr(oracle, "transpositions", lambda d: real(d)[1:])
    code, out, err = run_cli(capsys, "table", "--method", "oracle", "--dmax", "3", "--gmax", "1")
    assert (code, out) == (1, "")
    assert err.startswith("error: internal check failed:") and err.count("\n") == 1
    assert "class functions" in err and "Traceback" not in err


def test_search_default_family(capsys):
    code, out, _ = run_cli(capsys, "search", "--dmax", "8")
    assert code == 0
    obj = json.loads(out)
    assert obj["family_size"] == 26
    assert obj["dimension"] == 11
    assert obj["numeric_failures"] == []


def test_search_refuses_a_dmax_at_which_every_member_is_0(capsys):
    """At --dmax 1 every member of the default family has [x^1] = 0, so the
    numeric re-check of the null vectors would compare only zeros: a usage
    error on one line, not a pass."""
    code, out, err = run_cli(capsys, "search", "--dmax", "1")
    assert (code, out) == (2, "")
    assert err == "error: search would compare nothing: every member is 0 for d <= 1\n"


def test_search_exits_1_when_a_null_vector_fails_its_numeric_check(capsys, monkeypatch):
    """With H^2_{(1^7)} raised by 1 in the session's table, the null space
    (read from the W-expressions alone) is unchanged, but its vectors fail
    the numeric re-check from d = 7 on: exit 1, each failure printed with
    its vector and residual as rational strings."""
    real = cli.hurwitz_via_cutjoin

    def raised(*args):
        table = real(*args)
        table.entries[(2, Partition((1,) * 7))] += 1
        return table

    monkeypatch.setattr(cli, "hurwitz_via_cutjoin", raised)
    code, out, _ = run_cli(capsys, "search", "--dmax", "8")
    assert code == 1
    obj = json.loads(out)
    assert obj["dimension"] == 11
    failures = obj["numeric_failures"]
    assert failures and min(item["d"] for item in failures) == 7
    for item in failures:
        assert set(item) == {"vector", "d", "residual"}
        assert len(item["vector"]) == obj["family_size"]
        for text in [*item["vector"], item["residual"]]:
            assert rational_str(Fraction(text)) == text
        assert Fraction(item["residual"]) != 0 and type(item["d"]) is int


def test_search_custom_family_runs(capsys, tmp_path):
    path = tmp_path / "family.json"
    path.write_text(
        json.dumps([{"factors": [[0, 2], [0, 2]]}, {"factors": [[0, 2], [0, 2]]}])
    )
    code, out, _ = run_cli(capsys, "search", "--family", str(path))
    assert code == 0
    assert json.loads(out)["dimension"] == 1


@pytest.mark.parametrize(
    "factors, message",
    [
        ([[0, 0]], "not W-representable"),
        ([[1, 0], [1, 0]], "two log-bearing"),
    ],
    ids=["genus0-series", "two-log-factors"],
)
def test_unrepresentable_family_term_exits_2(capsys, tmp_path, factors, message):
    """A well-formed family term with no W-expression is a usage error,
    reported on one line, not a traceback read as a failed verification."""
    path = tmp_path / "family.json"
    path.write_text(json.dumps([{"factors": factors}]))
    code, out, err = run_cli(capsys, "search", "--family", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "content",
    [
        "not json",
        "{}",
        "[]",
        '[{"factors": []}]',
        '[{"factors": [[1]]}]',
        '[{"factors": [[1, -2]]}]',
        '[{"factors": [[true, 2]]}]',
        '[{"factors": [[1, false]]}]',
        '[{"terms": [[1, 2]]}]',
    ],
)
def test_malformed_family_exits_4(capsys, tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_text(content)
    code, _, err = run_cli(capsys, "search", "--family", str(path))
    assert code == 4
    assert "error:" in err


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "hurwitz", "--g", "0", "--alpha", "nope")[0] == 2
    assert run_cli(capsys, "hurwitz", "--g", "-1", "--alpha", "1")[0] == 2
    assert (
        run_cli(capsys, "hurwitz", "--g", "0", "--alpha", "2", "--method", "closed-form")[0]
        == 2
    )
    assert run_cli(capsys, "hodge", "--g", "6", "--theta", "2", "--k", "0")[0] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--dmax", "-2"],
        ["table", "--method", "cutjoin", "--dmax", "3", "--gmax", "-1"],
        ["verify", "--suite", "change-theorem", "--dmax", "0"],
        ["search", "--dmax", "0"],
        ["table", "--method", "oracle", "--dmax", "3", "--gmax", "1", "--rmax", "-5"],
        ["table", "--method", "cutjoin", "--dmax", "3", "--gmax", "1", "--rmax", "-5"],
    ],
    ids=[
        "table-dmax",
        "table-gmax",
        "verify-dmax",
        "search-dmax",
        "oracle-rmax",
        "cutjoin-rmax",
    ],
)
def test_empty_bounds_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --")


def test_argparse_usage_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hurwitz", "--method", "bogus", "--g", "0", "--alpha", "1"])
    assert exc.value.code == 2


# Each command with only its required flags, and the namespace that
# argparse made of it before the command table replaced it.
PARSED_DEFAULTS = {
    "hurwitz --g 0 --alpha 1": {
        "command": "hurwitz", "g": 0, "alpha": "1", "method": "cutjoin", "out": None,
    },
    "table --dmax 3": {
        "command": "table", "method": "cutjoin", "dmax": 3, "gmax": 2, "rmax": None,
        "format": "json", "out": None,
    },
    "fit --g 2": {"command": "fit", "g": 2, "out": None},
    "hodge --g 0 --theta 0,1": {"command": "hodge", "g": 0, "theta": "0,1", "k": 0, "out": None},
    "verify --suite recursions": {
        "command": "verify", "suite": "recursions", "dmax": None, "format": "text", "out": None,
    },
    "search": {"command": "search", "family": None, "dmax": 10, "out": None},
}


@pytest.mark.parametrize("line", sorted(PARSED_DEFAULTS))
def test_parse_fills_in_each_commands_defaults(line):
    assert vars(cli.parse_args(line.split())) == PARSED_DEFAULTS[line]


@pytest.mark.parametrize(
    "argv",
    [
        ["hurwitz", "--g", "-1", "--alpha", "1,2", "--method", "closed-form"],
        ["table", "--dmax", "5", "--gmax", "0", "--rmax", "4", "--format", "csv", "--out", "-"],
        ["hodge", "--g", "1", "--theta", "", "--k", "1"],
        ["verify", "--suite", "oracle-vs-cutjoin", "--dmax", "4", "--format", "json"],
        ["search", "--family", "--fam.json", "--dmax", "3"],
    ],
    ids=["hurwitz", "table", "hodge", "verify", "search"],
)
def test_flag_equals_value_parses_as_flag_space_value(argv):
    joined = [argv[0]] + [f"{flag}={value}" for flag, value in zip(argv[1::2], argv[2::2])]
    assert vars(cli.parse_args(joined)) == vars(cli.parse_args(argv))


def test_repeated_flag_takes_the_last_value():
    assert cli.parse_args(["table", "--dmax", "3", "--gmax", "1", "--dmax=5"]).dmax == 5


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["tables", "--dmax", "3"],
        ["table", "--dmax", "3", "--bogus", "1"],
        ["table", "--dm", "3"],
        ["table", "--dmax", "3", "6"],
        ["table", "--dmax"],
        ["table", "--dmax", "x"],
        ["table", "--dmax", "3", "--format", "xml"],
        ["hurwitz", "--alpha", "1"],
    ],
    ids=[
        "no-command",
        "unknown-command",
        "unknown-flag",
        "abbreviated-flag",
        "stray-value",
        "missing-value",
        "bad-int",
        "bad-choice",
        "missing-required",
    ],
)
def test_parse_errors_exit_2_with_an_error_and_the_usage(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert err.startswith("error: ")
    assert "usage: hurwitz " in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [["-h"], ["--help"]] + [[line.split()[0], "--help"] for line in sorted(PARSED_DEFAULTS)],
    ids=lambda argv: " ".join(argv),
)
def test_help_names_every_flag_and_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 0
    assert err == ""
    for line, parsed in PARSED_DEFAULTS.items():
        if argv[0] in (parsed["command"], "-h", "--help"):
            assert f"usage: hurwitz {parsed['command']} " in out
            assert all(f"--{flag} " in out for flag in parsed if flag != "command")


@pytest.mark.parametrize("value", ["-h", "--help"])
def test_help_as_a_flags_value_is_that_value(capsys, monkeypatch, tmp_path, value):
    """-h and --help ask for help only where the command or a flag is
    expected; as the value of --out they name the file to write."""
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "table", "--dmax", "2", "--out", value)
    assert (code, out, err) == (0, "", "")
    assert (tmp_path / value).read_text() == hurwitz_via_cutjoin(2, 2).to_json() + "\n"
    with pytest.raises(SystemExit) as exc:
        main(["table", "--dmax", "2", value, "--out", "x"])
    assert exc.value.code == 0 and not (tmp_path / "x").exists()


def test_readme_cli_lines_parse():
    """Every `hurwitz ...` line of the README's CLI block is a command the
    parser accepts."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv[1:] for argv in lines if argv[:1] == ["hurwitz"]]
    assert len(commands) >= 10
    for argv in commands:
        assert cli.parse_args(argv).command == argv[0]


def test_budget_exit_3(capsys, monkeypatch):
    monkeypatch.setenv("HURWITZ_MEMORY_BUDGET", "64")
    code, _, err = run_cli(
        capsys, "hurwitz", "--g", "0", "--alpha", "1,1,1,1,1", "--method", "oracle"
    )
    assert code == 3
    assert "budget" in err.lower()


@pytest.mark.parametrize("method", ["elsv", "cutjoin"])
def test_genus3_ten_simple_branch_points(capsys, method):
    """ELSV and cut-and-join print the same value for (1^10) at g = 3."""
    code, out, _ = run_cli(
        capsys, "hurwitz", "--g", "3", "--alpha", ",".join(["1"] * 10), "--method", method
    )
    assert code == 0
    assert json.loads(out)["value"] == "524746976911216327876608000/1"


@pytest.mark.parametrize("g", [4, 5])
def test_elsv_equals_cutjoin_at_every_fitted_genus(g):
    """With the primitives that the fit serves at g = 4 and 5, ELSV equals
    cut-and-join on every profile with at most 4 parts and degree <= 12."""
    session = Session()
    brackets, table = session.brackets(g), session.table(12, g)
    profiles = [a for d in range(1, 13) for a in partitions.partitions(d) if len(a) <= 4]
    assert len(profiles) == 154
    assert [a for a in profiles if elsv_hurwitz(g, a, brackets) != table.value(g, a)] == []


def test_elsv_and_hodge_serve_every_fitted_genus(capsys):
    """Both guards read `FIT_G_MAX`: a key the dimension gate zeroes prints
    0 at g = 4 and 5, ELSV answers at g = 4, and the genus above the fit
    exits 2."""
    for g in ("4", "5"):
        code, out, _ = run_cli(capsys, "hodge", "--g", g, "--theta", "2", "--k", "0")
        assert (code, json.loads(out)["value"]) == (0, "0/1")
    values = [
        json.loads(run_cli(capsys, "hurwitz", "--g", "4", "--alpha", "10,10", "--method", m)[1])
        for m in ("elsv", "cutjoin")
    ]
    assert values[0]["value"] == values[1]["value"] != "0/1"
    g = str(cli.FIT_G_MAX + 1)
    assert run_cli(capsys, "hodge", "--g", g, "--theta", "2", "--k", "0") == (
        2, "", f"error: primitive brackets are fitted for g <= {cli.FIT_G_MAX} only\n"
    )
    assert run_cli(capsys, "hurwitz", "--g", g, "--alpha", "2", "--method", "elsv") == (
        2, "", f"error: elsv needs fitted primitives; supported for g <= {cli.FIT_G_MAX}\n"
    )


def test_out_of_memory_exits_3(capsys, monkeypatch):
    """A kernel that runs out of memory gives one `error: too large` line
    and exit 3, with no traceback."""

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cutjoin, "ProfileKeys", exhausted)
    code, out, err = run_cli(capsys, "hurwitz", "--g", "2", "--alpha", "99999999999999999999")
    assert (code, out, err) == (3, "", "error: too large: out of memory\n")


@pytest.mark.parametrize(
    "argv",
    [
        "hurwitz --g 2 --alpha 99999999999999999999",
        "hurwitz --g 2 --alpha 99999999999999999999 --method oracle",
        "hurwitz --g 2 --alpha 99999999999999999999 --method elsv",
        "table --dmax 99999999999999999999",
        "verify --suite recursions --dmax 99999999999999999999",
        "search --dmax 99999999999999999999",
        "fit --g 99999999999999999999",
    ],
)
def test_integer_past_a_machine_word_exits_3(capsys, argv):
    """A 20-digit part, degree or genus overflows a machine-sized field (a
    key shift, a factorial, an index) before any memory is taken: one
    `error: too large` line and exit 3, with no traceback."""
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out) == (3, "")
    assert err.startswith("error: too large: ") and err.count("\n") == 1


def test_degree_one_profile_answers_without_slices(capsys, monkeypatch):
    """S_1 has no transposition, so a degree-1 profile at g >= 1 prints 0
    with no slice built, even at g = 100000; g = 0 still runs its one slice."""
    calls = []

    def spy(*args, real=cutjoin.disconnected_slices):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cutjoin, "disconnected_slices", spy)
    for g in ("1", "100000"):
        code, out, _ = run_cli(capsys, "hurwitz", "--g", g, "--alpha", "1")
        assert (code, json.loads(out)["value"], calls) == (0, "0/1", [])
    code, out, _ = run_cli(capsys, "hurwitz", "--g", "0", "--alpha", "1")
    assert (code, json.loads(out)["value"], len(calls)) == (0, "1/1", 1)


# <tau_0^2000 tau_2001>_1: its string reduction recurses once per tau_0
DEEP_HODGE = ("hodge", "--g", "1", "--theta", ",".join(["0"] * 2000 + ["2001"]), "--k", "0")


def test_deep_bracket_reduction_exits_3(capsys):
    code, out, err = run_cli(capsys, *DEEP_HODGE)
    assert (code, out) == (3, "")
    assert err.startswith("error: too large") and err.count("\n") == 1


def test_deep_bracket_reduction_child_has_no_traceback():
    proc = subprocess.run(
        [sys.executable, "-m", "hurwitz.cli", *DEEP_HODGE],
        capture_output=True,
        text=True,
        cwd=Path(__file__).resolve().parents[1],
        env=dict(os.environ, PYTHONPATH="src"),
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


@pytest.mark.parametrize("value", ["abc", "-64"])
def test_bad_memory_budget_exit_2(capsys, monkeypatch, value):
    monkeypatch.setenv("HURWITZ_MEMORY_BUDGET", value)
    code, out, err = run_cli(
        capsys, "hurwitz", "--g", "0", "--alpha", "1,1,1", "--method", "oracle"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: HURWITZ_MEMORY_BUDGET")


def test_out_flag_writes_file(capsys, tmp_path):
    path = tmp_path / "value.json"
    code, out, _ = run_cli(
        capsys, "hurwitz", "--g", "0", "--alpha", "3", "--out", str(path)
    )
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["value"] == "1/1"


def test_unwritable_out_exits_2(capsys, tmp_path):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(
        capsys, "hodge", "--g", "0", "--theta", "0,0,0", "--out", str(path)
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "big, small",
    [((10, 3), (6, 2)), ((10, 3), (8, 3)), ((8, 2), (6, 2)), ((10, 3), (10, 2))],
    ids=["d10g3-d6g2", "d10g3-d8g3", "d8g2-d6g2", "d10g3-d10g2"],
)
def test_session_serves_smaller_tables_from_a_covering_one(monkeypatch, big, small):
    """A smaller table is the cached covering one, not a copy; its entries
    within the smaller bounds are exact, and a fit read from it (every big
    table covers the g = 2 fit's (6, 2)) equals a fresh session's."""
    session = Session()
    covering = session.table(*big)

    def recompute(*args):
        raise AssertionError("a covered table was recomputed")

    monkeypatch.setattr(cutjoin, "connected_slices", recompute)
    assert session.table(*small) is covering
    constants = session.form(2).constants
    monkeypatch.undo()
    d_max, g_max = small
    within = {
        (g, alpha): v for (g, alpha), v in covering.entries.items() if g <= g_max and alpha.d <= d_max
    }
    assert within == hurwitz_via_cutjoin(*small).entries
    assert constants == Session().form(2).constants


def test_sessions_share_no_state(capsys):
    _, first, _ = run_cli(capsys, "fit", "--g", "2")
    _, second, _ = run_cli(capsys, "fit", "--g", "2")
    assert first == second
    assert {rec["source"] for rec in Session().hodge.to_json_records()} == {"base"}
    assert len(Session().hodge.primitives) == 3


def test_deterministic_output(capsys):
    args = ("table", "--method", "cutjoin", "--dmax", "4", "--gmax", "2")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "hurwitz.cli", "hurwitz", "--g", "0", "--alpha", "1,2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == "4/1"


def run_to_a_closed_stdout(*argv):
    """Exit code and stderr of `python -m hurwitz.cli argv` whose stdout
    reader is gone, as in `hurwitz ... | true`."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hurwitz.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            cwd=Path(__file__).resolve().parents[1],
            env=dict(os.environ, PYTHONPATH="src"),
        )
    finally:
        os.close(write_end)
    return proc.returncode, proc.stderr


def test_closed_stdout_exits_141_without_a_traceback():
    """With the reader of stdout gone, as in `hurwitz ... | true`, the
    command exits 128 + SIGPIPE and writes nothing to stderr."""
    assert run_to_a_closed_stdout("hurwitz", "--g", "0", "--alpha", "3") == (141, b"")


def test_help_to_a_closed_stdout_exits_141_without_a_traceback():
    """The usage text `-h` prints is flushed inside `main`, so a reader gone
    is reported as for any other command."""
    assert run_to_a_closed_stdout("-h") == (141, b"")


ENTRY_CASES = {
    "table": ("table --dmax 13 --gmax 3", {}),
    "table-out": ("table --dmax 13 --gmax 3 --out {out}", {}),
    "usage": ("hurwitz --g -1 --alpha 1", {}),
    "budget": ("hurwitz --g 0 --alpha 1,1,1,1,1 --method oracle", {"HURWITZ_MEMORY_BUDGET": "64"}),
}


@pytest.mark.parametrize("case", sorted(ENTRY_CASES))
def test_process_entry_point_matches_in_process_main(capsys, monkeypatch, tmp_path, case):
    """`python -m hurwitz.cli` runs `cli.run`, which freezes the heap after
    `main`: its stdout, stderr, `--out` file and exit code equal those of
    `main` called in process, byte for byte."""
    command, env = ENTRY_CASES[case]
    root = Path(__file__).resolve().parents[1]
    child_out, own_out = tmp_path / "child.json", tmp_path / "own.json"
    proc = subprocess.run(
        [sys.executable, "-m", "hurwitz.cli", *command.format(out=child_out).split()],
        capture_output=True,
        cwd=root,
        env=dict(os.environ, PYTHONPATH="src", **env),
    )
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, out, err = run_cli(capsys, *command.format(out=own_out).split())
    assert proc.returncode == code == {"usage": 2, "budget": 3}.get(case, 0)
    assert (proc.stdout, proc.stderr) == (out.encode(), err.encode())
    if case == "table-out":
        assert out == "" and child_out.read_bytes() == own_out.read_bytes()
    elif case == "table":
        assert proc.stdout.startswith(b"[") and proc.stdout.endswith(b"]\n")
    else:
        assert err.startswith("error: ")


def test_only_the_process_entry_point_freezes_the_heap(capsys):
    """The installed script and `python -m hurwitz.cli` both start at
    `cli.run`; `main` called in process leaves the collector as it was."""
    root = Path(__file__).resolve().parents[1]
    pyproject = (root / "pyproject.toml").read_text().split("\n[")
    scripts = next(s for s in pyproject if s.startswith("project.scripts]"))
    assert 'hurwitz = "hurwitz.cli:run"' in scripts.splitlines()
    tree = ast.parse((root / "src" / "hurwitz" / "cli.py").read_text())
    (guard,) = [node for node in tree.body if isinstance(node, ast.If)]
    assert ast.unparse(guard.test) == "__name__ == '__main__'"
    assert [ast.unparse(stmt) for stmt in guard.body] == ["sys.exit(run())"]
    argv = ["hodge", "--g", "0", "--theta", "0,0,0", "--out", os.devnull]
    code = f"import gc, sys, hurwitz.cli; sys.argv[1:] = {argv!r}; "
    code += "assert hurwitz.cli.run() == 0; print(gc.get_freeze_count() > 0)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=root,
        env=dict(os.environ, PYTHONPATH="src"),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "True\n", "")
    frozen = gc.get_freeze_count()
    assert main(["hurwitz", "--g", "0", "--alpha", "1,2"]) == 0
    assert main(["hurwitz", "--g", "-1", "--alpha", "1"]) == 2
    assert gc.get_freeze_count() == frozen
    capsys.readouterr()


def loaded_modules(code):
    """The modules a fresh interpreter holds after running `code`, under the
    benchmark's child environment: no PYTHON* variables and src on the path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = "src"
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}import sys; print(*sys.modules, sep='\\n')"],
        capture_output=True,
        text=True,
        cwd=Path(__file__).resolve().parents[1],
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_cli_import_loads_no_heavy_modules():
    """`import hurwitz.cli` and one parsed command add none of dataclasses,
    inspect, ast, dis, csv, argparse, gettext or locale to what the bare
    interpreter loads, and no numpy or sympy, under the benchmark's child
    environment.  gettext would load locale only at the first parse, so a
    command runs before the modules are read."""
    command = "hodge --g 0 --theta 0,0,0 --out".split() + [os.devnull]
    code = f"import hurwitz.cli; assert hurwitz.cli.main({command!r}) == 0; "
    added = loaded_modules(code) - loaded_modules("")
    assert {"hurwitz.cli", "hurwitz.hodge"} <= added
    heavy = {"dataclasses", "inspect", "ast", "dis", "csv", "numpy", "sympy", "argparse"}
    heavy |= {"gettext", "locale"}
    assert added & heavy == set()


def test_suites_import_no_cli():
    """The verify suites take the command's `Session` as a parameter, so
    `hurwitz.suites` loads without the command-line surface."""
    loaded = loaded_modules("import hurwitz.suites; ")
    assert "hurwitz.suites" in loaded and "hurwitz.cli" not in loaded


ROUTES = ("oracle", "cutjoin", "hodge", "simple_hurwitz")


@pytest.mark.parametrize("route", ROUTES)
def test_counting_routes_import_no_other_route(route):
    """Transposition counting, cut-and-join, ELSV and the closed forms reach
    the same numbers independently only if no route loads another: each
    takes the table from `hurwitz.table`."""
    loaded = loaded_modules(f"import hurwitz.{route}; ")
    assert f"hurwitz.{route}" in loaded
    assert {f"hurwitz.{r}" for r in ROUTES if r != route} & loaded == set()


def test_only_algebra_computes_a_common_denominator():
    """`algebra.over_lcm` is the one routine that puts rationals over a
    common denominator: no other module under src/hurwitz calls `math.lcm`
    or imports `lcm` from math."""
    src = Path(__file__).resolve().parents[1] / "src" / "hurwitz"
    callers = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr == "lcm") or (
                isinstance(node, ast.ImportFrom)
                and node.module == "math"
                and any(alias.name == "lcm" for alias in node.names)
            ):
                callers.add(path.name)
    assert callers == {"algebra.py"}


def test_probes_run_the_cli_in_traced_mode():
    # the benchmark's probes wrap library functions by name and refuse to
    # run when one is gone, so a rename in src shows up here
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "perfbench/probes.py", "hurwitz", "--g", "0", "--alpha", "1,2"],
        capture_output=True,
        text=True,
        cwd=root,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["value"] == "4/1"
    assert any(line.startswith("perfbench-trace: ") for line in proc.stderr.splitlines())


@pytest.mark.parametrize("command", sorted(RECORDED))
def test_recorded_benchmark_output(capsys, command):
    """Each fixed benchmark command, run in process, exits and prints
    exactly as recorded; the benchmark counts any difference as a failed
    operation."""
    code, out, _ = run_cli(capsys, *command.split())
    assert code == RECORDED[command]["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == RECORDED[command]["sha256"]


def test_query_checker_accepts_the_cli_answers(capsys):
    """The benchmark's `queries` checker, loaded from perfbench/workloads.py,
    accepts the CLI's answer to the first seed-1 query of each class."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    first = {}
    for argv in workloads.commands("queries", 1):
        first.setdefault("hodge" if argv[0] == "hodge" else argv[-1], argv)
    assert sorted(first) == ["closed-form", "cutjoin", "elsv", "hodge", "oracle"]
    checker = workloads.QueryOracle()
    for argv in first.values():
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        assert workloads.check_query(out.encode(), checker.expected(argv)) is None, argv

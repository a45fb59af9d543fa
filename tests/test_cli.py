"""Command-line interface: output contracts, exit codes, determinism."""

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

from hurwitz import ansatz, cli, cutjoin, golden, oracle, simple_hurwitz
from hurwitz.algebra import ExactSeries
from hurwitz.cli import Session, main
from hurwitz.cutjoin import hurwitz_via_cutjoin
from hurwitz.partitions import Partition


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
    real = cli.connected_hurwitz
    key = (key[0], Partition(key[1]))

    def broken(*args):
        table = real(*args)
        if oracle == "0/1":
            del table.entries[key]
        else:
            table.entries[key] += 1
        return table

    monkeypatch.setattr(cli, "connected_hurwitz", broken)
    code, out, _ = run_cli(capsys, "verify", "--suite", "oracle-vs-cutjoin", "--format", "json")
    [check] = json.loads(out)["checks"]
    assert (code, check["status"]) == (1, "fail")
    detail = {"g": key[0], "alpha": list(key[1]), "oracle": oracle, "cutjoin": cutjoin}
    assert check["detail"] == detail


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


def _raise_spot_value(monkeypatch):
    monkeypatch.setitem(golden.SPOT_VALUES, (1, 2), golden.SPOT_VALUES[(1, 2)] + 1)


def _raise_a_series_coeff(monkeypatch):
    real = simple_hurwitz.a_series_coeff
    monkeypatch.setattr(
        simple_hurwitz, "a_series_coeff", lambda k, d: real(k, d) + ((k, d) == (3, 12))
    )


@pytest.mark.parametrize(
    "perturb, failing",
    [
        # at g = 2 the W-form and the aggregates read the same sums by length
        (_raise_first_constant(2), ["fitted-form-matches-display-g2", "fitted-aggregates-g2"]),
        (_raise_first_constant(3), ["fitted-form-matches-display-g3"]),
        (_raise_spot_value, ["spot-values"]),
        (_raise_a_series_coeff, ["a-series-vs-lagrange"]),
    ],
    ids=["fitted-constant-g2", "fitted-constant-g3", "spot-value", "a-series-coeff"],
)
def test_closed_forms_checks_fail_on_their_own_input(capsys, monkeypatch, perturb, failing):
    """The closed-forms checks that no table perturbation reaches each
    fail, and no other check does, when their own input, a fitted
    constant, a pinned value or one A_k(d), is off by 1."""
    perturb(monkeypatch)
    code, out, _ = run_cli(capsys, "verify", "--suite", "closed-forms")
    assert code == 1
    assert [line for line in out.splitlines() if not line.startswith("PASS ")] == [
        f"FAIL {name}" for name in failing
    ]


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


def test_display_checks_compare_the_pinned_series_with_the_table(capsys, monkeypatch):
    """A pinned W-series with one coefficient changed fails its display
    check: the check expands it in x and reads the table, rather than
    comparing the pinned data with itself."""
    monkeypatch.setitem(
        golden.PINNED_W_SERIES,
        (0, 1),
        {"laurent": {0: Fraction(1, 2), -2: Fraction(-1, 3)}, "log": {}},
    )
    code, out, _ = run_cli(capsys, "verify", "--suite", "closed-forms")
    assert code == 1
    assert "FAIL w-series-display-g0-n1" in out.splitlines()


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
    so the genus-1 and genus-2 change-theorem checks would compare 0 with 0."""
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
    # s in the fit's (x, p) ring and in the (x, p) ring of the xi-image and
    # phi-shift checks; I_0 in the genus expansion's t ring and in the t ring
    # the xi-image checks share
    built = []
    for name in ("_s_series", "_i0_series"):

        def spy(ring, *bounds, real=getattr(ansatz, name)):
            built.append(ring)
            return real(ring, *bounds)

        monkeypatch.setattr(ansatz, name, spy)
    code, out, _ = run_cli(capsys, "verify", "--suite", "genus-expansion", "--dmax", "7")
    assert code == 0 and "FAIL" not in out
    assert len(built) == len(set(built)) == 4


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


def test_verify_failure_exits_1(capsys, monkeypatch):
    import hurwitz.cli as cli

    def broken_suite(session, dmax):
        return [{"check": "probe", "status": "fail", "detail": {}}]

    monkeypatch.setitem(cli._SUITE_RUNNERS, "oracle-vs-cutjoin", (broken_suite, 4))
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
    assert run_cli(capsys, "hodge", "--g", "4", "--theta", "2", "--k", "0")[0] == 2


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


def test_closed_stdout_exits_141_without_a_traceback():
    """With the reader of stdout gone, as in `hurwitz ... | true`, the
    command exits 128 + SIGPIPE and writes nothing to stderr."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH="src")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hurwitz.cli", "hurwitz", "--g", "0", "--alpha", "3"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            cwd=root,
            env=env,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


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


ROUTES = ("oracle", "cutjoin", "hodge", "simple_hurwitz")


@pytest.mark.parametrize("route", ROUTES)
def test_counting_routes_import_no_other_route(route):
    """Transposition counting, cut-and-join, ELSV and the closed forms reach
    the same numbers independently only if no route loads another: each
    takes the table from `hurwitz.table`."""
    loaded = loaded_modules(f"import hurwitz.{route}; ")
    assert f"hurwitz.{route}" in loaded
    assert {f"hurwitz.{r}" for r in ROUTES if r != route} & loaded == set()


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

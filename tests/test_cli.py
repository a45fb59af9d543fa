"""Command-line interface: output contracts, exit codes, determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from hurwitz import ansatz, cli, cutjoin, golden, simple_hurwitz
from hurwitz.algebra import ExactSeries
from hurwitz.cli import Session, main
from hurwitz.cutjoin import hurwitz_via_cutjoin


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


def _genus0_hurwitz(alpha):
    """Hurwitz's genus-0 formula: r!/|Aut| * d^(m-3) * prod a^a/a!."""
    d, m = sum(alpha), len(alpha)
    aut = math.prod(math.factorial(k) for k in Counter(alpha).values())
    value = Fraction(math.factorial(d + m - 2), aut) * Fraction(d) ** (m - 3)
    for a in alpha:
        value *= Fraction(a**a, math.factorial(a))
    return value


def test_cutjoin_single_answer_at_degree_20(capsys):
    code, out, _ = run_cli(capsys, "hurwitz", "--g", "0", "--alpha", "20")
    assert code == 0
    obj = json.loads(out)
    assert (obj["r"], obj["method"]) == (19, "cutjoin")
    assert Fraction(obj["value"]) == _genus0_hurwitz((20,)) == 20**17


def test_cutjoin_query_builds_no_table(capsys, monkeypatch):
    """`hurwitz --method cutjoin` runs r steps on the degrees of the
    sub-multisets of alpha only, and never builds a table."""
    steps = []
    real_step = cutjoin.cutjoin_step

    def spy(slice_r):
        steps.append({sum(k) for k in slice_r})
        return real_step(slice_r)

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


def test_genus_expansion_solves_one_fixed_point_per_ring(capsys, monkeypatch):
    # the fit's (x, p) ring, the genus expansion's t ring, the (x, p) ring
    # of the xi-image and phi-shift checks, and the t ring the xi-image
    # checks share
    solved = []
    real = ansatz.solve_graded_fixpoint

    def spy(*args, **kwargs):
        solved.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(ansatz, "solve_graded_fixpoint", spy)
    code, out, _ = run_cli(capsys, "verify", "--suite", "genus-expansion", "--dmax", "7")
    assert code == 0 and "FAIL" not in out
    assert len(solved) == len(set(solved)) == 4


def test_verify_failure_exits_1(capsys, monkeypatch):
    import hurwitz.cli as cli

    def broken_suite(session, dmax):
        return [{"check": "probe", "status": "fail", "detail": {}}]

    monkeypatch.setitem(cli._SUITE_RUNNERS, "oracle-vs-cutjoin", (broken_suite, 4))
    code, out, _ = run_cli(capsys, "verify", "--suite", "oracle-vs-cutjoin")
    assert code == 1
    assert out.startswith("FAIL probe")


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
def test_session_trims_smaller_tables(monkeypatch, big, small):
    session = Session()
    session.table(*big)

    def recompute(*args):
        raise AssertionError("smaller table was recomputed instead of trimmed")

    monkeypatch.setattr(cutjoin, "connected_slices", recompute)
    trimmed = session.table(*small).to_json()
    monkeypatch.undo()
    assert trimmed == hurwitz_via_cutjoin(*small).to_json()


def test_sessions_share_no_state(capsys):
    _, first, _ = run_cli(capsys, "fit", "--g", "2")
    _, second, _ = run_cli(capsys, "fit", "--g", "2")
    assert first == second
    assert set(Session().hodge.sources.values()) == {"base"}
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


def test_cli_import_loads_no_heavy_modules():
    """`import hurwitz.cli` adds none of dataclasses, inspect, ast, dis or
    csv to what the bare interpreter loads, and no numpy or sympy, under
    the benchmark's child environment."""
    root = Path(__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = "src"

    def loaded(code):
        proc = subprocess.run(
            [sys.executable, "-c", f"{code}import sys; print(*sys.modules, sep='\\n')"],
            capture_output=True,
            text=True,
            cwd=root,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.split())

    added = loaded("import hurwitz.cli; ") - loaded("")
    assert "hurwitz.cli" in added
    heavy = {"dataclasses", "inspect", "ast", "dis", "csv", "numpy", "sympy"}
    assert added & heavy == set()


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

"""Checks on the benchmark itself: probe reach and query domain.

    python3 -m pytest perfbench/test_probes.py

Each probe must be reached on the workload whose layer it measures, so a
binding the probes miss, or a later rename, fails here instead of reading
0; the layers a workload bypasses must read exactly 0 there.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))

REACHED = {
    "tables": [
        "cutjoin.step.calls",
        "cutjoin.connected.calls",
        "cutjoin.disconnected.calls",
        "cutjoin.entries_kept",
        "linalg.row_reduce.calls",
        "oracle.table_out.calls",
        "simple_hurwitz.search.calls",
        "simple_hurwitz.wexpr_mul.calls",
        "simple_hurwitz.verify_recurrence.calls",
    ],
    "series": [
        "algebra.mul.calls",
        "algebra.mul.pairs",
        "algebra.admits.calls",
        "algebra.exp.calls",
        "algebra.inverse.calls",
        "linalg.row_reduce.calls",
        "ansatz.fit.calls",
        "ansatz.pole_basis.calls",
        "ansatz.verify.calls",
        "cutjoin.slice_cache_hits",
    ],
    "oracle": [
        "algebra.log.calls",
        "algebra.add.calls",
        "oracle.count.calls",
        "oracle.cells",
        "oracle.connected.calls",
    ],
    "queries": [
        "algebra.lagrange_coeff.calls",
        "cutjoin.connected.calls",
        "cutjoin.disconnected.calls",
        "hodge.evaluate.calls",
        "hodge.elsv.calls",
        "cli.main.calls",
    ],
}
BYPASSED = {
    "tables": ["algebra.mul.calls", "oracle.count.calls"],
    "series": ["oracle.count.calls"],
}


@pytest.fixture(scope="module")
def layers() -> dict[str, dict[str, float]]:
    out = {}
    for workload in workloads.WORKLOADS:
        cmds = workloads.commands(workload, seed=1)
        done = run.run_pass(cmds, run.expectations(cmds), traced=True)
        assert done.failures == []
        out[workload] = run.layer_totals(done)
    return out


@pytest.mark.parametrize("workload", sorted(REACHED))
def test_probes_reach_their_workload(layers, workload):
    missed = [name for name in REACHED[workload] if not layers[workload].get(name)]
    assert missed == []


@pytest.mark.parametrize("workload", sorted(BYPASSED))
def test_bypassed_layers_read_zero(layers, workload):
    assert {n: layers[workload].get(n, 0) for n in BYPASSED[workload]} == dict.fromkeys(
        BYPASSED[workload], 0
    )


def test_every_declared_layer_metric_is_produced(layers):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    # trace.overhead_s needs an untraced pass beside the traced one.
    declared = [m["name"] for m in spec["per_layer"] if m["name"] != "trace.overhead_s"]
    assert [n for n in declared if not any(t.get(n) for t in layers.values())] == []


def test_queries_stay_in_domain():
    from hurwitz.oracle import _cost_budget

    oracle = workloads.QueryOracle()
    for seed in range(30):
        for argv in workloads.commands("queries", seed):
            oracle.expected(argv)  # raises on a bracket the validity gate rejects
            opts = dict(zip(argv[1::2], argv[2::2]))
            if argv[0] != "hurwitz":
                continue
            alpha = [int(a) for a in opts["--alpha"].split(",")]
            if opts["--method"] == "elsv" and opts["--g"] == "0":
                assert len(alpha) >= 3
            if opts["--method"] == "oracle":
                r = sum(alpha) + len(alpha) + 2 * (int(opts["--g"]) - 1)
                assert math.factorial(sum(alpha)) * r <= _cost_budget()


def test_same_seed_same_commands():
    for workload in workloads.WORKLOADS:
        assert workloads.commands(workload, 7) == workloads.commands(workload, 7)

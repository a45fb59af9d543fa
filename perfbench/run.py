"""Benchmark of the hurwitz CLI, run the way a user runs it.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --record      # re-record expected.json

One client, closed loop, no threads: every command is a fresh
``python -m hurwitz.cli`` child process with a fixed environment
(PYTHONHASHSEED=0, no HURWITZ_* or other PYTHON* variables), started only
after the previous one has exited.  One untimed ``import hurwitz.cli``
compiles the package's .pyc files before anything is timed; that import
loads every hurwitz module.

With ``--trace 0`` it repeats passes of the workload's command list for
``--seconds`` and reports the end-to-end metrics of BENCHMARK.json.  With
``--trace 1`` it alternates untraced passes with passes run under
perfbench/probes.py and reports the per-layer metrics: per-pass totals,
median over traced passes.  Every command's output is checked in both
modes; the last stdout line is the JSON result, and the exit code is 1 when
any check failed.

End-to-end times are scaled to a reference speed.  On a shared 2-core
machine the CPU speed moves by up to 2x within seconds under the
neighbours' load, and unscaled run medians spread by 20-40%.  So the
benchmark and its children are pinned to one CPU, a fixed pure-Python loop
is timed on it before, after and every SAMPLE_EVERY_S during each child
(stopped meanwhile), and the child's wall and CPU times are multiplied by
REFERENCE_S / (mean loop time).  Scaled run medians spread by a few
percent; the report also prints the unscaled wall and set-up times.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
sys.path.insert(0, str(HERE))

import probes  # noqa: E402
import workloads  # noqa: E402

CHILD_TIMEOUT_S = 150
REFERENCE_S = 0.005
SAMPLE_EVERY_S = 0.25
SETUP_SAMPLES_PER_PASS = 3
IMPORT = ["-c", "import hurwitz.cli"]


@dataclass
class Child:
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    rss_mb: float
    speeds: list[float]  # reference loop times around and during the child

    @property
    def scale(self) -> float:
        """Factor that takes the child's times to the reference speed."""
        return REFERENCE_S / statistics.mean(self.speeds)


def _child_env() -> dict[str, str]:
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith(("PYTHON", "HURWITZ_"))
    }
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


ENV = _child_env()


def reference_s(repeat: int = 1) -> float:
    """Median time of `repeat` runs of a fixed pure-Python loop of ~5 ms:
    the current speed of the CPU the benchmark is pinned to."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        acc = 0
        for i in range(70_000):
            acc += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def spawn(args: list[str], sample: bool = False) -> Child:
    """Run `python <args>` to completion; time it and collect its rusage.

    With `sample`, every SAMPLE_EVERY_S while the child runs the benchmark
    stops it, runs the reference loop once on their shared CPU and resumes
    it, which records the CPU's speed during the child; the child's wall
    time excludes those pauses."""
    start = time.perf_counter()
    speeds: list[float] = []
    sampling = 0.0
    next_sample = start + SAMPLE_EVERY_S if sample else math.inf
    proc = subprocess.Popen(
        [sys.executable, *args],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
        env=ENV,
    )
    chunks: dict = {proc.stdout: [], proc.stderr: []}
    try:
        with selectors.DefaultSelector() as sel:
            for pipe in chunks:
                sel.register(pipe, selectors.EVENT_READ)
            while sel.get_map():
                now = time.perf_counter()
                if now >= next_sample:
                    # Stopped, the child cannot share the CPU with the loop.
                    os.kill(proc.pid, signal.SIGSTOP)
                    speeds.append(reference_s())
                    os.kill(proc.pid, signal.SIGCONT)
                    next_sample = time.perf_counter()
                    sampling += next_sample - now
                    next_sample += SAMPLE_EVERY_S
                    continue
                if now - start > CHILD_TIMEOUT_S:
                    raise TimeoutError(f"{args} ran longer than {CHILD_TIMEOUT_S} s")
                timeout = min(next_sample - now, CHILD_TIMEOUT_S)
                for key, _ in sel.select(timeout=timeout):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
    except BaseException:
        os.kill(proc.pid, signal.SIGKILL)
        raise
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    return Child(
        code=proc.returncode,
        stdout=b"".join(chunks[proc.stdout]),
        stderr=b"".join(chunks[proc.stderr]),
        wall_s=time.perf_counter() - start - sampling,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        speeds=speeds,
    )


# -- output checks --------------------------------------------------------------------


def _key(argv: list[str]) -> str:
    return " ".join(argv)


def expectations(cmds: list[list[str]]) -> dict[str, object]:
    """What each command must print: a recorded exit code and stdout sha256
    for fixed commands, a second-route answer for queries."""
    recorded = json.loads(EXPECTED.read_text())
    oracle = None
    out = {}
    for argv in cmds:
        if _key(argv) in recorded:
            out[_key(argv)] = recorded[_key(argv)]
        else:
            oracle = oracle or workloads.QueryOracle()
            out[_key(argv)] = oracle.expected(argv)
    return out


def check(child: Child, argv: list[str], expected) -> str | None:
    """None when the command's output is right, else the reason it is not."""
    if "sha256" in expected:
        if child.code != expected["exit"]:
            return f"exit {child.code}, recorded {expected['exit']}"
        if hashlib.sha256(child.stdout).hexdigest() != expected["sha256"]:
            return "stdout differs from the recorded output"
    else:
        if child.code != 0:
            return f"exit {child.code}"
        why = workloads.check_query(child.stdout, expected)
        if why:
            return why
    if argv[0] == "verify":
        lines = child.stdout.decode().splitlines()
        if not lines or any(not line.startswith("PASS ") for line in lines):
            return "a verify line is not PASS"
    elif b"FAIL" in child.stdout:
        return "FAIL in output"
    return None


# -- passes ---------------------------------------------------------------------------


def run_scaled(arg_lists: list[list[str]], sample: bool = True) -> list[Child]:
    """Run `python <args>` for each entry, back to back, with the reference
    loop timed between children, so that each child's scale comes from the
    CPU speed just before, (with `sample`) during, and just after it."""
    children = []
    before = reference_s(repeat=3)
    for args in arg_lists:
        child = spawn(args, sample)
        after = reference_s(repeat=3)
        child.speeds = [before, *child.speeds, after]
        before = after
        children.append(child)
    return children


def scaled_wall(children: list[Child]) -> float:
    return sum(c.wall_s * c.scale for c in children)


@dataclass
class Pass:
    children: list[Child]
    failures: list[str]
    traces: list[dict[str, float]]


def run_pass(cmds, expected, traced: bool) -> Pass:
    """One closed-loop pass over the command list, checking every output."""
    prefix = [str(HERE / "probes.py")] if traced else ["-m", "hurwitz.cli"]
    # Traced children are never stopped, so their own timings stay whole.
    children = run_scaled([[*prefix, *argv] for argv in cmds], sample=not traced)
    failures, traces = [], []
    for argv, child in zip(cmds, children):
        why = check(child, argv, expected[_key(argv)])
        if traced:
            lines = [
                line[len(probes.TRACE_PREFIX):]
                for line in child.stderr.decode(errors="replace").splitlines()
                if line.startswith(probes.TRACE_PREFIX)
            ]
            if lines:
                counts = json.loads(lines[-1])
                counts["cli.main.calls"] = 1
                counts["cli.startup_s"] = child.wall_s - counts["cli.main.s"]
                traces.append(counts)
            else:
                why = why or "no trace line"
        if why:
            failures.append(f"{_key(argv)}: {why}")
    return Pass(children, failures, traces)


def layer_totals(done: Pass) -> Counter:
    """Per-layer totals of one traced pass, with the derived ratios; a probe
    never called reads 0."""
    t: Counter = Counter()
    for counts in done.traces:
        t.update(counts)
    t["algebra.mul.kept_ratio"] = _ratio(t["algebra.mul.terms_out"], t["algebra.mul.pairs"])
    t["cutjoin.kept_ratio"] = _ratio(t["cutjoin.entries_kept"], t["cutjoin.coeffs_computed"])
    t["cutjoin.slice_cache_hits"] = t["cutjoin.connected.calls"] - t["cutjoin.disconnected.calls"]
    return t


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- metrics --------------------------------------------------------------------------


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3


def summary(samples: list[float], value: float | None = None) -> dict:
    q1, _, q3 = quartiles(samples)
    return {
        "value": statistics.median(samples) if value is None else value,
        "median": statistics.median(samples),
        "q1": q1,
        "q3": q3,
        "n": len(samples),
    }


def measure(cmds, expected, seconds: float) -> tuple[dict, list[Pass]]:
    setup, passes = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        setup += run_scaled([IMPORT] * SETUP_SAMPLES_PER_PASS)
        passes.append(run_pass(cmds, expected, traced=False))
    if any(c.code for c in setup):
        raise SystemExit("error: `import hurwitz.cli` failed")
    # A request's latency is its median over the passes.
    latency = [
        statistics.median(p.children[i].wall_s * p.children[i].scale for p in passes)
        for i in range(len(cmds))
    ]
    _, p50, p75 = quartiles(latency)
    rss = [c.rss_mb for p in passes for c in p.children]
    return {
        "setup_s": summary([c.wall_s * c.scale for c in setup]),
        "wall_s": summary([scaled_wall(p.children) for p in passes]),
        "cpu_s": summary([sum(c.cpu_s * c.scale for c in p.children) for p in passes]),
        "peak_rss_mb": summary(rss, max(rss)),
        "request_p50_s": summary(latency, p50),
        "request_p75_s": summary(latency, p75),
        # Unscaled, for the report only.
        "unscaled_setup_s": summary([c.wall_s for c in setup]),
        "unscaled_wall_s": summary([sum(c.wall_s for c in p.children) for p in passes]),
    }, passes


def measure_traced(cmds, expected, seconds: float, names: list[str]) -> tuple[dict, list[Pass]]:
    passes, layers = [], []
    start = time.perf_counter()
    while not layers or time.perf_counter() - start < seconds:
        plain = run_pass(cmds, expected, traced=False)
        traced = run_pass(cmds, expected, traced=True)
        totals = layer_totals(traced)
        totals["trace.overhead_s"] = scaled_wall(traced.children) - scaled_wall(plain.children)
        layers.append(totals)
        passes += [plain, traced]
    return {n: summary([t[n] for t in layers]) for n in names}, passes


def machine() -> str:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (
        f"python {sys.version.split()[0]}, nproc {os.cpu_count()}, cpu {model}, "
        f"loadavg at start {load}"
    )


# -- entry point ----------------------------------------------------------------------


def record() -> int:
    """Write expected.json from the current program's outputs."""
    recorded = {}
    for argv in (c for cmds in workloads.FIXED.values() for c in cmds):
        child = spawn(["-m", "hurwitz.cli", *argv])
        recorded[_key(argv)] = {
            "exit": child.code,
            "sha256": hashlib.sha256(child.stdout).hexdigest(),
        }
        print(f"exit {child.code}  {_key(argv)}")
    EXPECTED.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="re-record expected.json")
    args = parser.parse_args()
    if not (SRC / "hurwitz" / "cli.py").is_file():
        print(f"error: no hurwitz sources under {SRC}", file=sys.stderr)
        return 2
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    info = machine()
    # Let a SIGTERM unwind through spawn(), which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # The reference loop must run on the CPU the children run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    cmds = workloads.commands(args.workload, args.seed)
    expected = expectations(cmds)
    warm_up = spawn(IMPORT)  # compiles the .pyc files, untimed
    if warm_up.code:
        print(f"error: `import hurwitz.cli` failed:\n{warm_up.stderr.decode()}", file=sys.stderr)
        return 2
    if args.trace:
        names = [m["name"] for m in declared]
        stats, passes = measure_traced(cmds, expected, args.seconds, names)
    else:
        stats, passes = measure(cmds, expected, args.seconds)
    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(p.children) for p in passes)

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"machine: {info}")
    print(f"commands per pass: {len(cmds)}, passes: {len(passes)}, "
          f"fail_ratio: {len(failures)}/{attempted}")
    for why in failures:
        print(f"FAILED {why}")
    print(f"{'metric':40} {'unit':6} {'value':>12} {'q1':>12} {'median':>12} {'q3':>12} {'n':>5}")
    units = {m["name"]: m["unit"] for m in declared}
    for name, s in stats.items():
        print(f"{name:40} {units.get(name, 's'):6} {s['value']:12.6g} {s['q1']:12.6g} "
              f"{s['median']:12.6g} {s['q3']:12.6g} {s['n']:5d}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": stats[m["name"]]["value"], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())

"""freqop benchmark: one run of one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload gram-sweep --seed 1 --seconds 30 --trace 0

The run builds the workload's inputs from ``--seed``, then runs whole rounds
of its cases in a closed loop (one case at a time, the next only after the
previous one returns) until ``--seconds`` have passed and at least
``MIN_CASES`` cases have run. Every output is checked. The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``. The line before it records the
environment and the per-case medians. See README.md.
"""

from __future__ import annotations

import os

# Fixed before numpy loads, and inherited by every process the run starts.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"   # inputs, spans and result records
MIN_CASES = 100       # so that ten case times lie beyond the 90th percentile
SETUP_PROBES = 6      # fresh processes timed for setup_s, half before and half after
                      # the timed phase; the median is reported
REFERENCE_EVERY = 5   # the workload's reference runs after every fifth case
STARTUP_PROBES = 3    # ``freqop --help`` processes timed for cli.startup_s

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "case_p50_s": "s",
    "case_p90_s": "s",
    "peak_rss_mb": "MB",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):   # numpy before 1.25 prints instead
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": int(BLAS_THREADS),
    }


class Tally:
    """Attempted and failed cases. A case fails when its call raises or its
    output fails a check; either makes the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, label: str, problems: list[str]) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(f"{label}: {'; '.join(problems)}")


def run_case(case, tally: Tally, span=contextlib.nullcontext) -> float | None:
    """Time one call; check its output outside the timed region.

    A call that raises has no output to check and no time: it returns None.

    A full collection first means that any collection during the call is
    paid for by the call's own allocations, not by garbage that earlier
    cases and checks left behind.
    """
    tally.attempted += 1
    gc.collect()
    t0 = time.perf_counter()
    try:
        with span():
            out = case.call()
    except Exception as exc:
        tally.fail(case.label, [f"raised {exc!r}"])
        return None
    elapsed = time.perf_counter() - t0
    try:
        problems = case.check(out)
    except Exception as exc:
        problems = [f"check raised {exc!r}"]
    if problems:
        tally.fail(case.label, problems)
    return elapsed


def time_processes(argv: list[str], count: int, ready: bytes | None = None) -> list[float]:
    """Wall times of ``count`` fresh processes, each started after the last ended.

    With ``ready``, a process is timed until it prints that line, else until
    it exits.
    """
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        with proc:
            line = proc.stdout.readline() if ready else b""
            t1 = time.perf_counter()
            rest = proc.stdout.read()
            code = proc.wait(timeout=60)
        if code != 0 or line != (ready or b""):
            raise RuntimeError(f"{argv} exited {code} after {line + rest[:200]!r}")
        times.append(t1 - t0 if ready else time.perf_counter() - t0)
    return times


def setup_probe(workload: str, seed: int) -> int:
    """Interpreter start, ``import freqop`` and input generation, then exit."""
    import workloads

    RUN_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="probe-", dir=RUN_DIR))
    try:
        workloads.build(workload, seed, workdir,
                        workloads.CliInvoker(ROOT, child_env(), in_process=False))
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir)
    return 0


def time_setup(probe: list[str], count: int) -> list[tuple[float, float]]:
    """(set-up time, reference time) of ``count`` probe processes, each timed
    right after one ``interpreter`` reference."""
    pairs = []
    for _ in range(count):
        ref_s = reference.interpreter()
        pairs.append((time_processes(probe, 1, ready=b"ready\n")[0], ref_s))
    return pairs


def untraced(cases, seconds: float, tally: Tally, per_label,
             ref) -> tuple[list, list, list]:
    """Case times, round walls without the reference's share, reference times."""
    times, walls, refs = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds or tally.attempted < MIN_CASES:
        r0 = time.perf_counter()
        ref_wall = 0.0
        for i, case in enumerate(cases):
            dt = run_case(case, tally)
            if dt is not None:
                times.append(dt)
                per_label[case.label].append(dt)
            if i % REFERENCE_EVERY == 0:
                q0 = time.perf_counter()
                refs.append(ref())
                ref_wall += time.perf_counter() - q0
        walls.append(time.perf_counter() - r0 - ref_wall)
    return times, walls, refs


def traced(cases, seconds: float, tally: Tally, tr, per_label) -> tuple[list, list]:
    """Traced and untraced rounds alternate, so both see the same machine."""
    traced_walls, plain_walls = [], []
    start = time.perf_counter()
    while not plain_walls or time.perf_counter() - start < seconds:
        tracing = len(traced_walls) <= len(plain_walls)
        r0 = time.perf_counter()
        with tr.installed() if tracing else contextlib.nullcontext():
            for case in cases:
                span = (lambda: tr.span(case.span)) if tracing else contextlib.nullcontext
                dt = run_case(case, tally, span)
                if dt is not None:
                    per_label[case.label].append(dt)
        (traced_walls if tracing else plain_walls).append(time.perf_counter() - r0)
    return traced_walls, plain_walls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "freqop" / "__init__.py").is_file():
        print(f"perfbench: no freqop sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import freqop
    import tracer
    import workloads

    if Path(freqop.__file__).resolve().parent != SRC / "freqop":
        print(f"perfbench: freqop imported from {freqop.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    is_cli = args.workload == "cli-suite"
    probe = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)]
    if not args.trace:
        # Half the probes now and half after the timed phase, so that their
        # median does not rest on the host's speed in one short moment.
        setup = time_setup(probe, SETUP_PROBES // 2)

    RUN_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_DIR))
    tally = Tally()
    per_label = defaultdict(list)
    try:
        invoke = workloads.CliInvoker(ROOT, child_env(), in_process=bool(args.trace))
        cases = workloads.build(args.workload, args.seed, workdir, invoke)
        if args.trace:
            tr = tracer.Tracer()
            traced_walls, plain_walls = traced(cases, args.seconds, tally, tr, per_label)
            values = tracer.per_layer(tr.spans, len(traced_walls))
            values["cli.startup_s"] = (
                statistics.median(time_processes([sys.executable, "-m", "freqop", "--help"],
                                                 STARTUP_PROBES))
                if is_cli else 0.0)
            values["trace.overhead_s"] = (statistics.median(traced_walls)
                                          - statistics.median(plain_walls))
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in tracer.UNITS.items()}
            rounds = {"traced_s": traced_walls, "untraced_s": plain_walls}
            host = {}
            tr.dump(RUN_DIR / f"spans-{args.workload}-seed{args.seed}.json")
        else:
            ref = workloads.REFERENCE[args.workload]
            times, walls, ref_times = untraced(cases, args.seconds, tally, per_label, ref)
            setup += time_setup(probe, SETUP_PROBES - SETUP_PROBES // 2)
            who = resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF
            measured = {
                "setup_s": statistics.median(t for t, _ in setup),
                "wall_s": statistics.median(walls),
                "case_p50_s": statistics.median(times),
                "case_p90_s": statistics.quantiles(times, n=10, method="inclusive")[8],
            }
            # Seconds at the reference machine's quiet speed; see reference.py.
            # Each set-up probe is scaled by the reference timed just before it.
            scale = reference.NOMINAL_S[ref.__name__] / statistics.fmean(ref_times)
            values = {name: measured[name] * scale for name in measured}
            values["setup_s"] = (reference.NOMINAL_S["interpreter"]
                                 * statistics.median(t / r for t, r in setup))
            values["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END.items()}
            rounds = {"untraced_s": walls}
            host = {"reference": ref.__name__, "scale": scale, "measured": measured}
    finally:
        shutil.rmtree(workdir)

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "round_walls": rounds,
        "host_speed": host,
        "cases_per_round": len(cases),
        "problems": tally.problems,
        "case_median_s": {k: statistics.median(v) for k, v in per_label.items()},
    }
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    (RUN_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"details": details, "result": result, "case_times_s": per_label}),
        encoding="utf-8")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

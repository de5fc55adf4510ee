#!/usr/bin/env python3
"""agstab benchmark: one workload run through the real command line.

    python3 perfbench/run.py --workload build|distance|decode --seed N --seconds S --trace 0|1

Run from the root of a checkout; agstab is imported from ``src/`` there.
The run sets up its inputs, runs passes of the workload's CLI calls until
about ``--seconds`` have gone, checks every output and prints, as its last
stdout line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The lines before it hold the run-environment record and
the workload's own detail metrics.  ``--trace 1`` alternates untraced and
traced passes over the same inputs and reports per-layer metrics instead;
its spans go to ``.perfbench_out/``.  The exit code is 0 only when every
output checked out.  README.md in this directory explains the metrics.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before anything imports numpy
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import workloads as wl
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_CAP_S = 170.0  # every run must end within 180 s, whatever regresses
SETUP_SAMPLES = 7  # this process plus six fresh ones


class NoProgram(Exception):
    """The checkout has no agstab sources to benchmark."""


def import_agstab() -> None:
    init = os.path.join(SRC, "agstab", "__init__.py")
    if not os.path.isfile(init):
        raise NoProgram(f"no agstab sources at {init}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import agstab.cli

    if os.path.realpath(agstab.cli.__file__) != os.path.realpath(os.path.join(SRC, "agstab", "cli.py")):
        raise NoProgram(f"imported agstab from {agstab.cli.__file__}, not from {SRC}")


def load_pins() -> dict[str, str]:
    with open(os.path.join(HERE, "pins.json")) as fh:
        return json.load(fh)


def setup(workload: wl.Workload, runner: wl.Runner) -> float:
    """Seconds to import agstab and write the workload's input artifacts."""
    t0 = time.perf_counter()
    import_agstab()
    for op in workload.setup:
        runner.run_op(op)
    return time.perf_counter() - t0


def probe_setup(name: str, tiny: bool, workdir: str) -> float:
    """Set-up time in a fresh interpreter (no field table or cache carried over)."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--setup-probe", workdir]
    if tiny:
        argv.append("--tiny")
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Run environment (recorded, never used to rescale a metric)
# ---------------------------------------------------------------------------

def _cpu_times() -> list[int] | None:
    try:
        with open("/proc/stat") as fh:
            return [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def _loadavg() -> list[float] | None:
    try:
        with open("/proc/loadavg") as fh:
            return [float(v) for v in fh.read().split()[:3]]
    except (OSError, ValueError):
        return None


def _calibration_s() -> float:
    """Best of three timings of a fixed pure-Python loop."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc ^= i * i
        best = min(best, time.perf_counter() - t0)
    return best


def _git() -> dict[str, object]:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return {"sha": None, "dirty": None}
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=20).stdout.strip()
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True, timeout=20).stdout
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}
    return {"sha": sha or None, "dirty": bool(status.strip())}


def snapshot() -> dict[str, object]:
    return {"loadavg": _loadavg(), "cpu": _cpu_times(), "calibration_s": _calibration_s()}


def environment(before: dict, after: dict) -> dict[str, object]:
    import numpy

    steal = None
    if before["cpu"] and after["cpu"] and len(before["cpu"]) > 7:
        delta = [a - b for a, b in zip(after["cpu"], before["cpu"])]
        steal = delta[7] / sum(delta) if sum(delta) else 0.0
    return {
        **_git(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "loadavg_before": before["loadavg"],
        "loadavg_after": after["loadavg"],
        "cpu_steal_share": steal,
        "calibration_s_before": before["calibration_s"],
        "calibration_s_after": after["calibration_s"],
    }


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

def stream_seed(seed: int, pass_index: int, stream_index: int) -> int:
    return (seed << 20) | (pass_index << 4) | stream_index


def run_pass(workload: wl.Workload, runner: wl.Runner, seed: int, pass_index: int) -> dict:
    """Seconds of each call of one pass, keyed (detail metric, call), plus decode latencies."""
    seconds: dict[tuple[str, str], float] = {}
    latencies: dict[str, list[float]] = {"guaranteed": [], "beyond": []}
    for op in workload.ops:
        seconds[op.metric, op.id] = runner.run_op(op)
    for i, stream in enumerate(workload.streams):
        key = "guaranteed" if stream.inside else "beyond"
        seconds[key, f"stream {i}"], lat = runner.run_stream(stream, stream_seed(seed, pass_index, i))
        latencies[key] += lat
    return {"seconds": seconds, "latencies": latencies}


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples above it."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    i = len(ordered) - 11
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def metric(value: float, unit: str) -> dict[str, object]:
    return {"value": value, "unit": unit}


def summarize(workload: wl.Workload, passes: list[dict], setup_s: float, peak_mb: float) -> tuple[dict, dict]:
    """(end-to-end metrics, workload detail metrics) of an untraced run.

    Each call's time is its median over the run's passes, and a metric
    sums those medians: bursts in which a shared host runs slower
    then move a metric only when they cover most of a call's samples.
    """
    per_metric: dict[str, float] = {}
    for key in passes[0]["seconds"]:
        med = statistics.median(p["seconds"][key] for p in passes)
        per_metric[key[0]] = per_metric.get(key[0], 0.0) + med
    wall = sum(per_metric.values())
    primary = per_metric.get(workload.primary, 0.0)
    common = {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(wall, "s"),
        "primary_s": metric(primary, "s"),
        "secondary_s": metric(wall - primary, "s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }
    detail = {k: metric(v, "s") for k, v in sorted(per_metric.items()) if k.endswith("_s")}
    if workload.streams:
        for key, inside in (("guaranteed", True), ("beyond", False)):
            count = sum(s.trials for s in workload.streams if s.inside == inside)
            detail[f"{key}_decodes_per_s"] = metric(count / per_metric[key] if per_metric[key] else 0.0, "1/s")
        lat = [x * 1000 for p in passes for x in p["latencies"]["guaranteed"]] or [0.0]  # [0.0]: no record came
        value, level = tail(lat)
        detail["decode_ms_p50"] = metric(statistics.median(lat), "ms")
        detail["decode_ms_tail"] = {**metric(value, "ms"), "percentile": round(level, 2), "samples": len(lat)}
    return common, detail


def layer_metrics(tracer: Tracer, traced_walls: list[float], untraced_walls: list[float]) -> dict:
    """Per-layer metrics, per traced pass (every traced pass has the same inputs)."""
    n = len(traced_walls)
    calls, self_ns = tracer.calls, tracer.self_ns
    out: dict[str, dict] = {}
    for name in COUNTED:
        out[f"{name}.calls"] = metric(calls[name] / n, "count")
    out["gf.mul_table.builds"] = metric(calls["gf.mul_table"] / n, "count")
    out["linalg.rref.scalar_calls"] = metric(calls["linalg.rref.scalar"] / n, "count")
    for name in TIMED:
        out[f"{name}.self_s"] = metric(self_ns[name] / 1e9 / n, "s")
    out["linalg.rref.scalar_self_s"] = metric(self_ns["linalg.rref.scalar"] / 1e9 / n, "s")
    for kind in ("exact", "budget"):
        out[f"symplectic.relative_min_weight.{kind}_self_s"] = metric(
            self_ns[f"symplectic.relative_min_weight.{kind}"] / 1e9 / n, "s")
    solves = calls["linalg.solve"]
    out["linalg.solve.consistent_ratio"] = metric(
        tracer.outcomes["linalg.solve.consistent"] / solves if solves else 0.0, "ratio")
    decodes = calls["decoder.symplectic_decode"]
    durations = [d / 1e6 for d in tracer.durations_ns["decoder.symplectic_decode"]]
    out["decoder.symplectic_decode.p50_ms"] = metric(statistics.median(durations) if durations else 0.0, "ms")
    out["decoder.symplectic_decode.tail_ms"] = metric(tail(durations)[0] if durations else 0.0, "ms")
    out["decoder.solves_per_decode"] = metric(solves / decodes if decodes else 0.0, "count")
    for status in STATUSES:
        out[f"decoder.status.{status}"] = metric(tracer.outcomes[f"decoder.status.{status}"] / n, "count")
    traced, untraced = statistics.median(traced_walls), statistics.median(untraced_walls)
    out["trace.wall_s"] = metric(traced, "s")
    out["trace.untraced_wall_s"] = metric(untraced, "s")
    out["trace.overhead_ratio"] = metric(traced / untraced if untraced else 0.0, "ratio")
    return out


COUNTED = (
    "gf.GF2m", "linalg.rref", "linalg.solve", "linalg.nullspace", "linalg.row_in_span",
    "symplectic.CodeBasis.from_rows", "symplectic.symplectic_dual", "curves.evaluation_matrix",
    "decoder.symplectic_decode",
)
TIMED = (
    "gf.GF2m", "gf.mul_table", "linalg.rref", "linalg.solve", "linalg.nullspace",
    "linalg.row_in_span", "symplectic.symplectic_dual", "symplectic.contains",
    "symplectic.min_hamming_weight", "curves.evaluation_matrix", "curves.build_codes",
    "curves.classical_params", "curves.make_backend", "descent.DescentBasis",
    "descent.descend_code", "decoder.hamming_min_solve", "decoder.syndrome_of",
    "artifact.construct_artifact", "artifact.verify_artifact", "artifact.descend_artifact",
    "artifact.load", "artifact.save", "bounds.emit_curves", "bounds.write_csv",
    "cli.sample_symplectic_error", "cli.main",
)
STATUSES = ("unique-guaranteed", "found-min", "budget-exhausted")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="self-test sizes")
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def _more(t_begin: float, rounds: int, seconds: float, hard_end: float) -> bool:
    """Whether to start another round: ``seconds`` have not yet gone, and a
    round as long as the mean so far still ends before the run's cap."""
    now = time.perf_counter()
    return now < t_begin + seconds and now + (now - t_begin) / rounds < hard_end - 5


def measure(args: argparse.Namespace, workload: wl.Workload, runner: wl.Runner, hard_end: float) -> list[dict]:
    """Untraced passes for about ``args.seconds``; each pass plants fresh errors."""
    passes: list[dict] = []
    t_begin = time.perf_counter()
    while not passes or _more(t_begin, len(passes), args.seconds, hard_end):
        passes.append(run_pass(workload, runner, args.seed, len(passes)))
    return passes


def measure_traced(args: argparse.Namespace, workload: wl.Workload, runner: wl.Runner,
                   hard_end: float) -> tuple[Tracer, list[float], list[float]]:
    """Alternating untraced and traced passes over the same inputs (pass 0).

    Returns the tracer and the traced and untraced pass times.
    """
    tracer = Tracer()
    traced, untraced = [], []
    t_begin = time.perf_counter()
    while not traced or _more(t_begin, len(traced), args.seconds, hard_end):
        p = run_pass(workload, runner, args.seed, 0)
        untraced.append(sum(p["seconds"].values()))
        tracer.install()
        try:
            p = run_pass(workload, runner, args.seed, 0)
        finally:
            tracer.uninstall()
        traced.append(sum(p["seconds"].values()))
    return tracer, traced, untraced


def main(argv: list[str] | None = None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    workload = wl.workload(args.workload, args.tiny)

    if args.setup_probe:
        os.makedirs(args.setup_probe, exist_ok=True)
        os.chdir(args.setup_probe)
        try:
            print(setup(workload, wl.Runner(None, t_start + 60)))
        except NoProgram as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0

    before = snapshot()
    hard_end = t_start + RUN_CAP_S
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        os.chdir(workdir)
        runner = wl.Runner(load_pins(), hard_end)
        samples = [setup(workload, runner)]
        samples += [probe_setup(args.workload, args.tiny, os.path.join(workdir, f"probe{i}"))
                    for i in range(1, SETUP_SAMPLES)]
        if args.trace:
            tracer, traced, untraced = measure_traced(args, workload, runner, hard_end)
        else:
            passes = measure(args, workload, runner, hard_end)
    except NoProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))  # only when no other run uses it

    if args.trace:
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        trace_file = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write(trace_file)
        metrics = layer_metrics(tracer, traced, untraced)
        detail = {"passes_traced": len(traced), "trace_file": trace_file}
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics, detail_metrics = summarize(workload, passes, statistics.median(samples), peak_mb)
        detail = {"passes": len(passes), "setup_samples_s": samples, "metrics": {
            **{k: metrics[k] for k in ("setup_s", "wall_s", "peak_rss_mb")}, **detail_metrics}}
    failed_ratio = runner.failed / runner.attempted if runner.attempted else 1.0
    print(json.dumps({"env": environment(before, snapshot())}))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "failed_ratio": failed_ratio, "failures": runner.failures, **detail}))
    correct = runner.failed == 0 and runner.attempted > 0
    print(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

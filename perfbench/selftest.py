#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny sizes (about 20 s).

    python3 perfbench/selftest.py

Checks that
- every workload emits exactly the end-to-end metrics of BENCHMARK.json
  untraced and exactly its per-layer metrics traced, and passes its
  output checks;
- every traced wrapper records calls (the scalar rref path, which only a
  q > 256 field takes, is driven by one direct call);
- corrupted outputs are counted as failed operations and make the run
  exit nonzero (negative controls), and a call past its time limit is a
  failed operation.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import time

import run
import workloads as wl
from tracer import Tracer, targets

FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def run_main(argv: list[str]) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(argv)
    return rc, json.loads(out.getvalue().strip().splitlines()[-1])


def test_metric_names(spec: dict) -> None:
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    for name in wl.WORKLOADS:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            rc, result = run_main(["--workload", name, "--seed", "3", "--seconds", "1",
                                   "--trace", str(trace), "--tiny"])
            got = set(result["metrics"])
            check(rc == 0 and result["correct"] and result["failed"] == 0,
                  f"{name} trace={trace}: exit 0 and every output correct")
            check(got == expected, f"{name} trace={trace}: metric names match BENCHMARK.json "
                                   f"(missing {sorted(expected - got)}, extra {sorted(got - expected)})")
            check(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                  f"{name} trace={trace}: every value is a number")


def _tiny_passes(runner: wl.Runner) -> None:
    for name in wl.WORKLOADS:
        workload = wl.workload(name, tiny=True)
        for op in workload.setup:
            runner.run_op(op)
        run.run_pass(workload, runner, seed=5, pass_index=0)


def test_wrappers(workdir: str) -> None:
    from agstab import linalg
    from agstab.gf import GF2m

    runner = wl.Runner(run.load_pins(), time.perf_counter() + 120)
    tracer = Tracer()
    tracer.install()
    try:
        _tiny_passes(runner)
        linalg.rref(GF2m(9), [[3, 5], [7, 1]], 2)
    finally:
        tracer.uninstall()
    check(runner.failed == 0, "traced tiny passes are correct")
    names = [name for name, _, _ in targets()] + ["gf.mul_table"]
    idle = [n for n in names if tracer.calls[n] == 0]
    check(not idle, f"every wrapper records calls (idle: {idle})")
    check(all(s is not None for s in tracer.spans), "every stored span is closed")
    from agstab import cli
    check(not hasattr(cli.main, "__wrapped__"), "uninstall restores the original functions")


@contextlib.contextmanager
def patched(owner, attr, value):
    old = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, old)


def test_negative_controls(workdir: str) -> None:
    from agstab import artifact, cli
    from agstab.decoder import DecodeResult

    real_to_json = artifact.to_json

    def corrupt_to_json(art):
        text = real_to_json(art)
        return text.replace('"d_exact": null', '"d_exact": 0', 1)

    with patched(artifact, "to_json", corrupt_to_json):
        rc, result = run_main(["--workload", "build", "--seed", "1", "--seconds", "1", "--tiny"])
    check(rc != 0 and not result["correct"] and result["failed"] > 0,
          "a corrupted artifact counts as failed and the run exits nonzero")

    real_decode = cli.symplectic_decode

    def wrong_decode(problem, deg_g):
        res = real_decode(problem, deg_g)
        if res.error is None:
            return res
        flipped = (res.error[0] ^ 1,) + res.error[1:]
        return DecodeResult(error=flipped, weight=res.weight, status=res.status)

    with patched(cli, "symplectic_decode", wrong_decode):
        rc, result = run_main(["--workload", "decode", "--seed", "1", "--seconds", "1", "--tiny"])
    check(rc != 0 and result["failed"] > 0, "a wrong decoded vector counts as failed")

    os.chdir(workdir)  # run.main returns to the checkout root
    runner = wl.Runner(run.load_pins(), time.perf_counter() + 60)
    slow = wl.construct("rational", 512, 4, limit_s=0.2)
    runner.run_op(slow)
    check(runner.failed == 1 and "limit" in runner.failures[0], "a call past its time limit is a failed operation")


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    run.import_agstab()
    test_metric_names(spec)
    workdir = os.path.join(run.ROOT, ".perfbench_work", f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    try:
        os.chdir(workdir)
        test_wrappers(workdir)
        test_negative_controls(workdir)
    finally:
        os.chdir(run.ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())

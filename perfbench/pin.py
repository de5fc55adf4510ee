#!/usr/bin/env python3
"""Regenerate pins.json: the SHA-256 of every pinned output of every workload.

    python3 perfbench/pin.py

Run it only at a commit whose outputs are known to be right: the
benchmark counts any later difference from these digests as a failed
operation.  It runs each workload's set-up and one pass at full and at
self-test size, which takes about half a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import run
import workloads as wl


def main() -> int:
    run.import_agstab()
    pins: dict[str, str] = {}
    workdir = os.path.join(run.ROOT, ".perfbench_work", f"pin-{os.getpid()}")
    os.makedirs(workdir)
    try:
        os.chdir(workdir)
        for name in wl.WORKLOADS:
            for tiny in (False, True):
                workload = wl.workload(name, tiny)
                runner = wl.Runner(None, time.perf_counter() + 3600)
                for op in workload.setup + workload.ops:
                    runner.run_op(op)
                if runner.failed:
                    print("\n".join(runner.failures), file=sys.stderr)
                    return 1
                pins.update(runner.recorded)
    finally:
        os.chdir(run.ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(run.HERE, "pins.json"), "w") as fh:
        json.dump(dict(sorted(pins.items())), fh, indent=1)
        fh.write("\n")
    print(f"pinned {len(pins)} outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())

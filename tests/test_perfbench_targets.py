"""The benchmark's tracer looks each traced callable up by name; keep every name in place."""

import importlib.util
from pathlib import Path

from agstab.gf import GF2m

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_callable_is_defined_on_its_owner():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    wanted = [(owner, attr) for _, owner, attr in tracer.targets()] + [(GF2m, "mul_table")]
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr in wanted
               if attr not in vars(owner)]
    assert not missing, f"perfbench/tracer.py traces names that are gone: {missing}"

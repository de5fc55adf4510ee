"""Span tracer for the per-layer benchmark run.

The tracer replaces each traced library function with a wrapper at every
place the function is looked up: the defining module and every agstab
module that copied it with ``from .x import y`` (``decoder.solve``,
``curves.rref``, ``artifact.build_codes``, ``cli.symplectic_decode`` ...).
A wrapper records one span per call: name, parent span, start and end.
Spans stay in memory; ``write`` dumps them when the run ends.

Self time of a span is its duration minus the time covered by its direct
child spans, so the self times of all spans add up to the traced time.
``GF2m.mul`` is deliberately not traced: it is called once per field
element and its wrapper would swamp everything else.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

MAX_STORED_SPANS = 200_000


def targets():
    """(span name, owner object, attribute) for every traced callable."""
    from agstab import artifact, bounds, cli, curves, decoder, descent, gf, linalg, symplectic

    return [
        ("gf.GF2m", gf.GF2m, "__init__"),
        ("linalg.rref", linalg, "rref"),
        ("linalg.rref.scalar", linalg, "_rref_scalar"),
        ("linalg.solve", linalg, "solve"),
        ("linalg.nullspace", linalg, "nullspace"),
        ("linalg.row_in_span", linalg, "row_in_span"),
        ("symplectic.CodeBasis.from_rows", symplectic.CodeBasis, "from_rows"),
        ("symplectic.symplectic_dual", symplectic, "symplectic_dual"),
        ("symplectic.contains", symplectic, "contains"),
        ("symplectic.relative_min_weight.exact", symplectic, "_enumerate_min_weight"),
        ("symplectic.relative_min_weight.budget", symplectic, "_budget_min_weight"),
        ("symplectic.min_hamming_weight", symplectic, "min_hamming_weight"),
        ("curves.evaluation_matrix", curves, "evaluation_matrix"),
        ("curves.build_codes", curves, "build_codes"),
        ("curves.classical_params", curves, "classical_params"),
        ("curves.make_backend", curves, "make_backend"),
        ("descent.DescentBasis", descent.DescentBasis, "__init__"),
        ("descent.descend_code", descent, "descend_code"),
        ("decoder.symplectic_decode", decoder, "symplectic_decode"),
        ("decoder.hamming_min_solve", decoder, "hamming_min_solve"),
        ("decoder.syndrome_of", decoder, "syndrome_of"),
        ("artifact.construct_artifact", artifact, "construct_artifact"),
        ("artifact.verify_artifact", artifact, "verify_artifact"),
        ("artifact.descend_artifact", artifact, "descend_artifact"),
        ("artifact.load", artifact, "load"),
        ("artifact.save", artifact, "save"),
        ("bounds.emit_curves", bounds, "emit_curves"),
        ("bounds.write_csv", bounds, "write_csv"),
        ("cli.sample_symplectic_error", cli, "sample_symplectic_error"),
        ("cli.main", cli, "main"),
    ]


class Tracer:
    """Collects spans and per-name aggregates while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, int]] = []  # name, parent, start_ns, end_ns
        self.dropped = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.durations_ns: dict[str, list[int]] = defaultdict(list)
        self.outcomes: dict[str, int] = defaultdict(int)
        self._stack: list[list[int]] = []  # [span id, start_ns, child_ns]
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _span(self, name: str, fn, outcome=None):
        idx = self._name_index.setdefault(name, len(self._name_index))
        if idx == len(self.names):
            self.names.append(name)
        keep_durations = name == "decoder.symplectic_decode"

        def wrapper(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else -1
            if len(self.spans) < MAX_STORED_SPANS:
                sid = len(self.spans)
                self.spans.append(None)
            else:
                sid = -2
                self.dropped += 1
            frame = [sid, time.perf_counter_ns(), 0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                dur = end - frame[1]
                if self._stack:
                    self._stack[-1][2] += dur
                self.calls[name] += 1
                self.self_ns[name] += dur - frame[2]
                if keep_durations:
                    self.durations_ns[name].append(dur)
                if sid >= 0:
                    self.spans[sid] = (idx, parent, frame[1], end)
            if outcome is not None:
                self.outcomes[outcome(result)] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------

    def _replace(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced callable wherever an agstab module holds it."""
        from agstab import gf

        wrapper_of: dict[int, object] = {}  # id of a module-level function -> its wrapper
        for name, owner, attr in targets():
            raw = vars(owner)[attr]
            is_classmethod = isinstance(raw, classmethod)
            wrapped = self._span(name, raw.__func__ if is_classmethod else raw, _OUTCOMES.get(name))
            if isinstance(owner, type):
                self._replace(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)
            else:
                wrapper_of[id(raw)] = wrapped
        for modname, mod in list(sys.modules.items()):
            if modname != "agstab" and not modname.startswith("agstab."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapped = wrapper_of.get(id(value))
                if wrapped is not None:
                    self._replace(mod, attr, wrapped)
        self._install_mul_table(gf.GF2m)

    def _install_mul_table(self, cls) -> None:
        prop = vars(cls)["mul_table"]
        build = self._span("gf.mul_table", prop.fget)

        def fget(field):
            if field._mul_table is None:
                return build(field)
            return field._mul_table

        self._replace(cls, "mul_table", property(fget, doc=prop.__doc__))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        """Dump the stored spans as [name index, parent span id, start ns, end ns].

        Span ids are list positions; parent -1 is a root span and -2 a
        parent past the storage cap.
        """
        doc = {
            "names": self.names,
            "dropped": self.dropped,
            "span_fields": ["name", "parent", "start_ns", "end_ns"],
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _solve_outcome(result):
    return "linalg.solve.consistent" if result[0] is not None else "linalg.solve.inconsistent"


def _decode_outcome(result):
    return "decoder.status." + result.status


_OUTCOMES = {
    "linalg.solve": _solve_outcome,
    "decoder.symplectic_decode": _decode_outcome,
}

"""Command line front end.

Subcommands: construct, verify, descend, decode-sim, bounds.  Exit codes
are 0 (success / all checks pass), 1 (a verification check failed, and
nothing else) and 2 (usage, parameter or file error, a file nested too
deep or too large to hold included, or an internal error).  Reports go
to stdout as JSON; diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

import numpy as np

from . import artifact as artifact_mod
from .bounds import emit_curves, write_csv
from .curves import power_basis
from .decoder import decode_syndromes, symplectic_decode  # noqa: F401 (perfbench/selftest.py patches it here)
from .symplectic import CodeBasis, _syndromes, symplectic_weight

_TRIALS = 256  # decode-sim trials sampled and decoded as one block
_ENTRIES = 1 << 22  # the most block trials times C(H) entries: bounds each gather of a block


class Lcg64:
    """Deterministic 64-bit linear congruential generator.

    state' = (6364136223846793005 * state + 1442695040888963407) mod 2^64
    with 32-bit outputs taken from the top half of the new state, and
    uniform sampling below n by rejection.  The exact procedure is spelled
    out in the README so independent implementations can replay a trial
    stream bit for bit.
    """

    MULT = 6364136223846793005
    INC = 1442695040888963407
    MASK = (1 << 64) - 1

    def __init__(self, seed: int) -> None:
        self.state = seed & self.MASK

    def next_u32(self) -> int:
        self.state = (self.MULT * self.state + self.INC) & self.MASK
        return self.state >> 32

    def below(self, n: int) -> int:
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        limit = (1 << 32) - ((1 << 32) % n)
        while True:
            v = self.next_u32()
            if v < limit:
                return v % n


def sample_symplectic_error(rng: Lcg64, n: int, q: int, weight: int) -> tuple[int, ...]:
    """A length-2n vector of symplectic weight ``weight``.

    Pair positions are drawn by rejection until distinct, then sorted; the
    nonzero pair value at each position (ascending) is 1 + below(q^2 - 1),
    split as (value // q, value % q).
    """
    if weight > n:
        raise ValueError(f"weight {weight} exceeds n = {n}")
    positions: list[int] = []
    while len(positions) < weight:
        p = rng.below(n)
        if p not in positions:
            positions.append(p)
    vec = [0] * (2 * n)
    for p in sorted(positions):
        v = 1 + rng.below(q * q - 1)
        vec[p] = v // q
        vec[n + p] = v % q
    return tuple(vec)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _check_count(flag: str, value: int | None) -> None:
    if value is not None and value < 0:
        raise ValueError(f"{flag} must be >= 0, got {value}")


def _cmd_construct(args: argparse.Namespace) -> int:
    art = artifact_mod.construct_artifact(args.backend, args.q, args.j, args.gamma)
    artifact_mod.save(art, args.out)
    print(json.dumps({"written": args.out, "n": art.n, "k": art.k, "d_lower": art.d_lower}))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    _check_count("--budget", args.budget)
    art = artifact_mod.load(args.artifact)
    report = artifact_mod.verify_artifact(
        art, exact_distance=args.exact_distance, budget=args.budget
    )
    print(json.dumps(report, indent=2))
    return 0 if report["ok"] else 1


def _cmd_descend(args: argparse.Namespace) -> int:
    art = artifact_mod.load(args.input)
    down = artifact_mod.descend_artifact(art, args.base_degree)
    artifact_mod.save(down, args.out)
    print(json.dumps({"written": args.out, "n": down.n, "k": down.k, "d_lower": down.d_lower}))
    return 0


def _cmd_decode_sim(args: argparse.Namespace) -> int:
    _check_count("--trials", args.trials)
    _check_count("--weight", args.weight)
    art = artifact_mod.load(args.artifact)
    if art.deg_g is None or art.backend_kind is None:
        raise ValueError("decode-sim needs a backend artifact with a recorded deg G")
    # the guarantee region comes from deg G, the field and C(H): never trust them.  They are
    # compared with the fresh code, not proved: decoding reads no claim of the proofs
    source = artifact_mod.fresh(art)
    backend, deg_g = source.backend, source.parts["deg_g"]
    if art.deg_g != deg_g:
        raise ValueError(f"artifact: params.deg_g is {art.deg_g}, but the "
                         f"{art.backend_kind} backend at j = {art.j} has deg G = {deg_g}")
    if source.stale in ("field", "c_h"):  # a stale C(G) plays no part in decoding
        raise ValueError(source.reason)
    field = art.field
    # on the rational curve C(H) is the rows x^i, i < rank, at the places: a closed-form rref, power-sum checks
    points = tuple(backend.places[:, 0].tolist()) if art.backend_kind == "rational" else None
    c_h = (power_basis(field, points, len(art.c_h_rows)) if points
           else CodeBasis.from_rows(field, art.c_h_rows, art.width))
    block = max(1, min(_TRIALS, _ENTRIES // max(1, c_h.rank * art.width)))
    rng = Lcg64(args.seed)
    sink = open(args.out, "w") if args.out else sys.stdout
    recovered = 0
    statuses = dict.fromkeys(("unique-guaranteed", "found-min", "budget-exhausted"), 0)
    decoders: dict[str, int] = {}
    try:
        for first in range(0, args.trials, block):
            planted = [sample_symplectic_error(rng, art.n, field.q, args.weight)
                       for _ in range(min(block, args.trials - first))]
            syn = _syndromes(field, np.array(planted, dtype=np.intp), c_h.rows)
            try:
                results = decode_syndromes(c_h, points, syn, art.deg_g)
            except (ValueError, AssertionError):  # write the records before the trial that fails, then fail
                results = (decode_syndromes(c_h, points, s[None], art.deg_g)[0] for s in syn)
            for t, (e, s, res) in enumerate(zip(planted, syn.tolist(), results), first):
                ok = res.error == e
                recovered += ok
                statuses[res.status] += 1
                decoders[res.decoder] = decoders.get(res.decoder, 0) + 1
                record = {
                    "trial": t,
                    "planted": list(e),
                    "planted_weight": symplectic_weight(e),
                    "syndrome": s,
                    "decoded": None if res.error is None else list(res.error),
                    "decoded_weight": res.weight,
                    "status": res.status,
                    "recovered": ok,
                }
                sink.write(json.dumps(record) + "\n")
    finally:
        if args.out:
            sink.close()
    print(f"recovered {recovered}/{args.trials}; status {_tally(statuses)}; decoder {_tally(decoders)}",
          file=sys.stderr)
    return 0


def _tally(counts: dict[str, int]) -> str:
    return ", ".join(f"{name} {count}" for name, count in counts.items()) or "-"


def _cmd_bounds(args: argparse.Namespace) -> int:
    curves = ("r1", "alt") if args.curve == "both" else (args.curve,)
    columns = emit_curves(args.delta_min, args.delta_max, args.step, curves)
    write_csv(columns, args.out)
    print(json.dumps({"written": args.out, "rows": sum(len(delta) for delta, _, _ in columns.values())}))
    return 0


@functools.cache  # built once per process: each call of main parses into a new Namespace
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="agstab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a code artifact from a curve backend")
    c.add_argument("--backend", required=True, choices=["rational", "hermitian"])
    c.add_argument("--q", required=True, type=int)
    c.add_argument("--j", required=True, type=int)
    c.add_argument("--gamma", type=int, default=1)
    c.add_argument("--out", required=True)
    c.set_defaults(func=_cmd_construct)

    v = sub.add_parser("verify", help="re-derive and check every claim in an artifact")
    v.add_argument("artifact")
    g = v.add_mutually_exclusive_group()
    g.add_argument("--exact-distance", action="store_true")
    g.add_argument("--budget", type=int)
    v.set_defaults(func=_cmd_verify)

    d = sub.add_parser("descend", help="descend an artifact's G-code to a subfield")
    d.add_argument("--in", dest="input", required=True)
    d.add_argument("--out", required=True)
    d.add_argument("--base-degree", type=int, default=1,
                   help="descend to GF(2^base_degree), default GF(2)")
    d.set_defaults(func=_cmd_descend)

    s = sub.add_parser("decode-sim", help="planted-error decoding trials (JSON-lines)")
    s.add_argument("--artifact", required=True)
    s.add_argument("--trials", type=int, required=True)
    s.add_argument("--weight", type=int, required=True)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--out", default=None)
    s.set_defaults(func=_cmd_decode_sim)

    b = sub.add_parser("bounds", help="emit rate-curve CSV data")
    b.add_argument("--curve", choices=["r1", "alt", "both"], default="both")
    b.add_argument("--delta-min", type=float, required=True)
    b.add_argument("--delta-max", type=float, required=True)
    b.add_argument("--step", type=float, required=True)
    b.add_argument("--out", required=True)
    b.set_defaults(func=_cmd_bounds)

    return p


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError) as exc:  # a file nested too deep or too large to hold
        print(f"error: input too deep or too large: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    except AssertionError as exc:  # a broken invariant is not a failed check
        print(f"error: internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

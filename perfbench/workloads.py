"""The benchmark's workloads, how their CLI calls run and how outputs are checked.

Every operation is a real ``agstab.cli.main`` call with real argv, run in
the run's work directory so artifacts are real files.  Written artifacts,
descended artifacts, verify reports and the bounds CSV are compared with
SHA-256 digests pinned in ``pins.json``; decode-sim records are checked
record by record against an independent replay of the documented LCG
stream and an independent syndrome computation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import signal
import time
from dataclasses import dataclass


class OpTimeout(Exception):
    """Raised inside a CLI call that ran past its time limit."""


@dataclass(frozen=True)
class Op:
    """One CLI call whose output is pinned.

    ``output`` names the file the call writes; None means the pinned
    output is the call's stdout (a verify report).
    """

    id: str
    argv: tuple[str, ...]
    metric: str
    limit_s: float
    output: str | None = None
    d_exact: int | None = None


@dataclass(frozen=True)
class Stream:
    """One ``decode-sim`` call: ``trials`` planted errors of ``weight``.

    ``inside`` marks a weight inside the guarantee region, where every
    record must be a recovered ``unique-guaranteed`` decode.
    """

    code: str
    weight: int
    trials: int
    inside: bool
    limit_s: float = 60.0


@dataclass(frozen=True)
class Workload:
    """Set-up calls, then the calls of one pass; ``primary`` names the
    detail metric reported as ``primary_s``."""

    name: str
    primary: str
    setup: tuple[Op, ...]
    ops: tuple[Op, ...] = ()
    streams: tuple[Stream, ...] = ()


def code_file(kind: str, q: int, j: int) -> str:
    return f"{kind}-q{q}-j{j}.json"


def construct(kind: str, q: int, j: int, metric: str = "setup", limit_s: float = 30.0) -> Op:
    out = code_file(kind, q, j)
    return Op(
        id=f"construct {kind} q={q} j={j}",
        argv=("construct", "--backend", kind, "--q", str(q), "--j", str(j), "--out", out),
        metric=metric,
        limit_s=limit_s,
        output=out,
    )


def verify(kind: str, q: int, j: int, *flags: str, metric: str, limit_s: float,
           d_exact: int | None = None, source: str | None = None) -> Op:
    path = source or code_file(kind, q, j)
    label = f"verify {path}" + "".join(f" {f}" for f in flags)
    return Op(id=label, argv=("verify", path, *flags), metric=metric, limit_s=limit_s, d_exact=d_exact)


def descend(kind: str, q: int, j: int, limit_s: float = 20.0) -> Op:
    src = code_file(kind, q, j)
    out = "descended-" + src
    return Op(
        id=f"descend {src}",
        argv=("descend", "--in", src, "--out", out),
        metric="descend_s",
        limit_s=limit_s,
        output=out,
    )


def bounds(step: str, limit_s: float = 20.0) -> Op:
    return Op(
        id=f"bounds both step={step}",
        argv=("bounds", "--curve", "both", "--delta-min", "0.0001", "--delta-max", "0.07",
              "--step", step, "--out", "curves.csv"),
        metric="bounds_s",
        limit_s=limit_s,
        output="curves.csv",
    )


# Exact relative distances that verify --exact-distance reports (its reports are also pinned).
D_EXACT = {
    ("rational", 8, 1): 2,
    ("rational", 8, 2): 2,
    ("rational", 8, 3): 1,
    ("hermitian", 2, 1): 1,
    ("hermitian", 2, 2): 1,
}


def workload(name: str, tiny: bool = False) -> Workload:
    """The named workload; ``tiny`` shrinks every size for the self-test."""
    if name == "build":
        codes = [("rational", 16, 1), ("hermitian", 2, 1)] if tiny else [("rational", 256, 4), ("hermitian", 8, 1)]
        ops = []
        for kind, q, j in codes:
            ops.append(construct(kind, q, j, metric="construct_s", limit_s=30.0))
            ops.append(verify(kind, q, j, metric="verify_s", limit_s=45.0))
        if not tiny:
            # the only q > 256 code: scalar arithmetic, about 70 % of a pass
            ops.append(construct("rational", 512, 4, metric="construct_q512_s", limit_s=90.0))
        ops.append(bounds("0.001" if tiny else "0.00001"))
        return Workload(name, "construct_q512_s", setup=(), ops=tuple(ops))

    if name == "distance":
        exact = [("rational", 8, 1), ("hermitian", 2, 1)] if tiny else sorted(D_EXACT)
        budget = [("rational", 8, 1)] if tiny else [("rational", 16, 1), ("hermitian", 4, 5)]
        down = [("hermitian", 2, 1)] if tiny else [("hermitian", 4, 1), ("hermitian", 4, 5)]
        setup = tuple(construct(*c) for c in dict.fromkeys(exact + budget + down))
        ops = [verify(*c, "--exact-distance", metric="distance_exact_s", limit_s=20.0, d_exact=D_EXACT[c])
               for c in exact]
        ops += [descend(*c) for c in down]
        ops += [verify(*c, "--budget", "2", metric="distance_budget_s", limit_s=30.0) for c in budget]
        # the binary descent of the last descended code (n = 120 at full size)
        ops.append(verify(*down[-1], "--budget", "2", metric="distance_budget_s", limit_s=40.0,
                          source="descended-" + code_file(*down[-1])))
        return Workload(name, "distance_budget_s", setup=setup, ops=tuple(ops))

    if name == "decode":
        if tiny:
            streams = (Stream("rational-q16-j1.json", 1, 3, True), Stream("rational-q16-j1.json", 2, 3, False))
            codes = [("rational", 16, 1)]
        else:
            # weight 1 everywhere inside the guarantee region; rational q=16
            # j=1 has t_cap = 1, so its weight-2 stream is beyond it
            streams = (
                Stream("rational-q16-j1.json", 1, 10, True),
                Stream("rational-q32-j4.json", 1, 5, True),
                Stream("rational-q64-j4.json", 1, 2, True),
                Stream("hermitian-q4-j5.json", 1, 3, True),
                Stream("rational-q16-j1.json", 2, 20, False),
            )
            codes = [("rational", 16, 1), ("rational", 32, 4), ("rational", 64, 4), ("hermitian", 4, 5)]
        return Workload(name, "guaranteed", setup=tuple(construct(*c) for c in codes), streams=streams)

    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("build", "distance", "decode")


# ---------------------------------------------------------------------------
# Independent reference: the README's LCG stream and GF(2^r) products
# ---------------------------------------------------------------------------

class Lcg64:
    MULT = 6364136223846793005
    INC = 1442695040888963407
    MASK = (1 << 64) - 1

    def __init__(self, seed: int) -> None:
        self.state = seed & self.MASK

    def below(self, n: int) -> int:
        limit = (1 << 32) - ((1 << 32) % n)
        while True:
            self.state = (self.MULT * self.state + self.INC) & self.MASK
            v = self.state >> 32
            if v < limit:
                return v % n


def planted_errors(seed: int, trials: int, n: int, q: int, weight: int) -> list[list[int]]:
    """The decode-sim planted vectors, replayed from the README procedure."""
    rng = Lcg64(seed)
    out = []
    for _ in range(trials):
        positions: list[int] = []
        while len(positions) < weight:
            p = rng.below(n)
            if p not in positions:
                positions.append(p)
        vec = [0] * (2 * n)
        for p in sorted(positions):
            v = 1 + rng.below(q * q - 1)
            vec[p], vec[n + p] = divmod(v, q)
        out.append(vec)
    return out


def gf_mul(a: int, b: int, degree: int, modulus: int) -> int:
    p = 0
    while b:
        if b & 1:
            p ^= a
        a <<= 1
        if a >> degree:
            a ^= modulus
        b >>= 1
    return p


class CodeView:
    """What the record checks need from an artifact file, parsed independently."""

    def __init__(self, path: str) -> None:
        with open(path) as fh:
            doc = json.load(fh)
        self.n = doc["params"]["n"]
        f = doc["field"]
        self.q, self.degree, self.modulus = f["size"], f["degree"], f["modulus"]
        self.h_rows = doc["matrices"]["c_h"]

    def syndrome(self, v: list[int]) -> list[int]:
        """Symplectic products with the raw C(H) rows (equal syndromes in
        any basis of C(H) are equal syndromes in this one)."""
        n = self.n
        support = [i for i in range(n) if v[i] or v[n + i]]
        out = []
        for h in self.h_rows:
            acc = 0
            for i in support:
                acc ^= gf_mul(v[i], h[n + i], self.degree, self.modulus)
                acc ^= gf_mul(v[n + i], h[i], self.degree, self.modulus)
            out.append(acc)
        return out


def symplectic_weight(v: list[int]) -> int:
    n = len(v) // 2
    return sum(1 for i in range(n) if v[i] or v[n + i])


def check_records(lines: list[str], code: CodeView, stream: Stream, seed: int) -> list[str]:
    """Problems with one decode-sim stream; one entry per bad or missing record."""
    problems = []
    planted = planted_errors(seed, stream.trials, code.n, code.q, stream.weight)
    for t, expect in enumerate(planted):
        if t >= len(lines):
            problems.append(f"trial {t}: no record")
            continue
        try:
            rec = json.loads(lines[t])
        except json.JSONDecodeError:
            problems.append(f"trial {t}: not JSON")
            continue
        why = _record_problem(rec, t, expect, code, stream)
        if why:
            problems.append(f"trial {t}: {why}")
    if len(lines) > len(planted):
        problems.append(f"{len(lines) - len(planted)} records beyond the requested trials")
    return problems


def _record_problem(rec: dict, t: int, expect: list[int], code: CodeView, stream: Stream) -> str | None:
    if rec.get("trial") != t or rec.get("planted") != expect:
        return "planted vector differs from the LCG replay"
    if rec.get("planted_weight") != stream.weight:
        return "wrong planted_weight"
    decoded, status = rec.get("decoded"), rec.get("status")
    if rec.get("recovered") is not (decoded == expect):
        return "recovered flag disagrees with decoded == planted"
    if stream.inside:
        if status != "unique-guaranteed" or decoded != expect or rec.get("decoded_weight") != stream.weight:
            return f"inside the guarantee region but status {status!r} / not recovered"
        return None
    if status == "budget-exhausted":
        return None if decoded is None and rec.get("decoded_weight") is None else "exhausted with a vector"
    if status != "found-min" or decoded is None:
        return f"unexpected status {status!r} beyond the guarantee region"
    if code.syndrome(decoded) != code.syndrome(expect):
        return "decoded vector does not reproduce the syndrome"
    w = symplectic_weight(decoded)
    if rec.get("decoded_weight") != w or w > stream.weight:
        return "decoded weight is wrong or heavier than the planted error"
    return None


# ---------------------------------------------------------------------------
# Running calls
# ---------------------------------------------------------------------------

def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class StampedWriter(io.TextIOBase):
    """stdout replacement that notes when each line arrives."""

    def __init__(self, start: float) -> None:
        self.lines: list[str] = []
        self.arrivals: list[float] = []
        self._start = start
        self._partial = ""

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        now = time.perf_counter()
        text = self._partial + s
        *done, self._partial = text.split("\n")
        for line in done:
            self.lines.append(line)
            self.arrivals.append(now)
        return len(s)

    def latencies(self) -> list[float]:
        """Seconds from the previous record (or the call start) to each record."""
        prev, out = self._start, []
        for t in self.arrivals:
            out.append(t - prev)
            prev = t
        return out


def _alarm(signum, frame):
    raise OpTimeout("time limit exceeded")


class Runner:
    """Runs CLI calls under a time limit and tallies checked outcomes.

    With ``pins`` None the runner records digests instead of checking
    them (used by pin.py).
    """

    def __init__(self, pins: dict[str, str] | None, hard_end: float) -> None:
        self.pins = pins
        self.recorded: dict[str, str] = {}
        self.hard_end = hard_end
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._codes: dict[str, CodeView] = {}

    def _fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(what)

    def call(self, argv: tuple[str, ...], limit_s: float, out) -> tuple[float, str | None]:
        """(seconds, error or None) of one ``agstab.cli.main`` call printing to ``out``."""
        import agstab.cli

        limit = min(limit_s, self.hard_end - time.perf_counter())
        if limit <= 0:
            return 0.0, "skipped: the run's time cap is used up"
        old = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, limit)
        err = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = agstab.cli.main(list(argv))
            seconds = time.perf_counter() - t0
            return seconds, None if rc == 0 else f"exit code {rc}: {err.getvalue().strip()[-200:]}"
        except OpTimeout:
            return time.perf_counter() - t0, f"exceeded its {limit:.0f} s limit"
        except Exception as exc:  # a crash is a failed operation, not a harness crash
            return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def run_op(self, op: Op) -> float:
        out = io.StringIO()
        seconds, err = self.call(op.argv, op.limit_s, out)
        self.attempted += 1
        why = err or self._check_op(op, out.getvalue())
        if why:
            self._fail(f"{op.id}: {why}")
        return seconds

    def _check_op(self, op: Op, stdout: str) -> str | None:
        if op.output is None:
            digest = hashlib.sha256(stdout.encode()).hexdigest()
        else:
            try:
                digest = sha256_file(op.output)
            except OSError as exc:
                return f"output missing: {exc}"
        if op.argv[0] == "verify":
            try:
                report = json.loads(stdout)
            except json.JSONDecodeError:
                return "verify printed no JSON report"
            if report.get("ok") is not True:
                return "verify report is not ok"
            if op.d_exact is not None and report.get("d_exact") != op.d_exact:
                return f"d_exact {report.get('d_exact')} != expected {op.d_exact}"
        if self.pins is None:
            self.recorded[op.id] = digest
            return None
        expected = self.pins.get(op.id)
        if expected is None:
            return "no pinned digest"
        return None if digest == expected else "output differs from the pinned SHA-256"

    def run_stream(self, stream: Stream, seed: int) -> tuple[float, list[float]]:
        """Seconds of one decode-sim call and the latency of each record."""
        out = StampedWriter(time.perf_counter())
        argv = ("decode-sim", "--artifact", stream.code, "--trials", str(stream.trials),
                "--weight", str(stream.weight), "--seed", str(seed))
        seconds, err = self.call(argv, stream.limit_s, out)
        self.attempted += stream.trials
        try:
            code = self._codes.get(stream.code)
            if code is None:
                code = self._codes[stream.code] = CodeView(stream.code)
            problems = check_records(out.lines, code, stream, seed)
        except (OSError, KeyError, ValueError) as exc:
            problems = [f"cannot read {stream.code}: {exc}"] * stream.trials
        if err and not problems:
            problems = [err]
        if problems:
            bad = min(stream.trials, len(problems))
            self._fail(f"decode-sim {stream.code} w={stream.weight} seed={seed}: {problems[0]}", bad)
        return seconds, out.latencies()

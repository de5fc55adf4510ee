"""Acceptance suite: one test per release criterion, each at its stated budget.

Each criterion prints a single PASS line (visible with ``pytest -s``) and
enforces its own wall-clock limit.  The code pairs are built once and
shared; criterion 1 pays the construction cost inside its own budget.
"""

import time

import numpy as np

from agstab import artifact as artifact_mod
from agstab.bounds import (
    ALT_DELTA_CAP,
    alt_envelope,
    alt_of_m,
    alt_window,
    r1_envelope,
    r1_of_m,
    r1_window,
)
from agstab.curves import HermitianBackend, RationalBackend, build_codes, classical_params
from agstab.decoder import (
    SyndromeProblem,
    exhaustive_coset_leaders,
    guarantee_cap,
    symplectic_decode,
    syndrome_of,
)
from agstab.descent import DescentBasis, descend_code
from agstab.gf import field
from agstab.symplectic import (
    contains,
    min_hamming_weight,
    relative_min_weight,
    symplectic_dual,
)

_CACHE = {}


def suite_codes():
    """All (backend, j) code pairs for the four acceptance backends."""
    if "codes" not in _CACHE:
        backends = [
            RationalBackend(8),
            RationalBackend(16),
            HermitianBackend(2),
            HermitianBackend(4),
        ]
        codes = {}
        for b in backends:
            for j in range(b.max_j + 1):
                codes[(b.kind, b.q, j)] = (b, *build_codes(b, j))
        _CACHE["codes"] = codes
    return _CACHE["codes"]


def _report(num, text, elapsed, limit):
    print(f"PASS criterion {num}: {text} ({elapsed:.2f}s < {limit:.0f}s)")


def test_criterion_1_dual_identity():
    t0 = time.perf_counter()
    codes = suite_codes()
    assert len(codes) == (4 + 1) + (8 + 1) + (2 + 1) + (24 + 1)
    for (kind, q, j), (backend, c_g, c_h) in codes.items():
        assert symplectic_dual(c_g) == c_h, (kind, q, j)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(1, f"symplectic dual of C(G) equals C(H) on all {len(codes)} (backend, j) pairs",
            elapsed, 10)


def test_criterion_2_parameters():
    t0 = time.perf_counter()
    codes = suite_codes()
    h2 = codes[("hermitian", 2, 0)][0]
    assert h2.n == 3 and h2.deg_g(0) == 3 == h2.n + h2.genus - 1
    h4 = codes[("hermitian", 4, 0)][0]
    assert h4.n == 30 and h4.genus == 6 and h4.deg_g(0) == 35
    for (kind, q, j), (backend, c_g, c_h) in codes.items():
        assert c_g.rank - backend.n == j, (kind, q, j)   # k = j exactly
        assert c_h.rank == backend.n - j, (kind, q, j)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(2, "n, genus, deg G0 as published and k = j on every supported j",
            elapsed, 10)


def test_criterion_3_distance_bound_exhaustive():
    t0 = time.perf_counter()
    codes = suite_codes()
    for kind, q, js in (("hermitian", 2, (1, 2)), ("rational", 8, (1, 2))):
        for j in js:
            backend, c_g, c_h = codes[(kind, q, j)]
            bound = backend.distance_bound(j)
            res = relative_min_weight(c_g, c_h)
            assert res.status == "exact" and res.weight >= bound, (kind, q, j)
    backend, c_g, c_h = codes[("rational", 8, 1)]
    res = relative_min_weight(c_g, c_h)
    assert res.weight == 2 == backend.distance_bound(1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(3, "exhaustive minimum weights respect n - floor(deg G / 2); "
               "rational q=8 j=1 meets it with d_exact = 2", elapsed, 5)


def test_criterion_4_weight_budget_sweep():
    t0 = time.perf_counter()
    backend, c_g, c_h = suite_codes()[("rational", 16, 1)]
    assert backend.distance_bound(1) == 4          # the [[8, 1, d >= 4]] claim
    res = relative_min_weight(c_g, c_h, budget=2, mode="budget")
    assert res.status == "at-least" and res.floor == 3
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(4, "no vector of symplectic weight <= 2 in C(G) \\ C(H) at rational q=16 j=1",
            elapsed, 30)


def test_criterion_5_subfield_descent():
    t0 = time.perf_counter()
    _, c_g, c_h = suite_codes()[("hermitian", 2, 1)]
    basis = DescentBasis(field(1), field(2), [1, 2])      # {1, w}
    assert basis.gram == ((0, 1), (1, 1))
    down = descend_code(c_g, basis)
    assert down.width == 12 and down.rank == 8
    assert contains(down, symplectic_dual(down))
    d_quaternary = relative_min_weight(c_g, c_h).weight
    d_binary = relative_min_weight(down, symplectic_dual(down)).weight
    assert d_binary >= d_quaternary
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(5, f"binary descent is [[6,2]] with preserved self-orthogonality and "
               f"d_binary {d_binary} >= d_quaternary {d_quaternary}; Gram = [[0,1],[1,1]]",
            elapsed, 5)


def test_criterion_6_decoding_guarantee():
    t0 = time.perf_counter()
    backend, c_g, c_h = suite_codes()[("rational", 16, 1)]
    f = backend.field
    n, deg_g = backend.n, backend.deg_g(1)
    count = 0
    for i in range(n):
        for v in range(1, 256):
            e = [0] * (2 * n)
            e[i], e[n + i] = v // 16, v % 16
            e = tuple(e)
            syn = syndrome_of(f, e, c_h.rows)
            res = symplectic_decode(SyndromeProblem(c_h, syn), deg_g)
            assert res.error == e and res.status == "unique-guaranteed"
            count += 1
    assert count == 2040

    hb, _, ch2 = suite_codes()[("hermitian", 2, 1)]
    leaders = exhaustive_coset_leaders(hb.field, ch2)
    t_cap = guarantee_cap(hb.n, hb.deg_g(1))
    for syn, (vec, w) in leaders.items():
        res = symplectic_decode(SyndromeProblem(ch2, syn), hb.deg_g(1))
        if res.status == "budget-exhausted":
            assert w > t_cap
        else:
            assert res.weight == w
            assert syndrome_of(hb.field, res.error, ch2.rows) == syn
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(6, "all 2040 weight-1 errors recovered exactly at rational q=16 j=1; "
               "decoder agrees with the exhaustive oracle on the full hermitian q=2 j=1 "
               "syndrome space", elapsed, 60)


def test_criterion_7_classical_claims():
    t0 = time.perf_counter()
    cases = [("hermitian", 2, 0), ("hermitian", 4, 0), ("hermitian", 4, 5)]
    for kind, q, j in cases:
        backend, c_g, _ = suite_codes()[(kind, q, j)]
        cp = classical_params(backend, j)
        assert cp.dim == cp.length // 2 + j, (kind, q, j)
        assert cp.euclidean_dual_contained, (kind, q, j)
    backend, c_g, _ = suite_codes()[("hermitian", 2, 0)]
    cp = classical_params(backend, 0)
    assert min_hamming_weight(c_g) >= cp.d_hamming_lower
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(7, "classical dimensions equal N/2 + j, Euclidean duals are contained, "
               "and the q=2 Hamming distance meets N/2 - g + 1 - j by full enumeration",
            elapsed, 10)


def test_criterion_8_rate_curves():
    t0 = time.perf_counter()
    assert abs(r1_of_m(3, 1 / 21) - 1 / 7) < 1e-15
    assert abs(alt_of_m(3, 3 / 100) - 29 / 70) < 1e-15
    for m in range(2, 11):
        lo, _ = r1_window(m)
        assert abs(r1_of_m(m, lo) - r1_of_m(m + 1, lo)) < 1e-12
        lo_a, _ = alt_window(m + 1)
        assert abs(alt_of_m(m + 1, lo_a) - alt_of_m(m + 2, lo_a)) < 1e-12
    for i in range(1, 1001):
        delta = i * 1e-4
        for env, line in ((r1_envelope, r1_of_m), (alt_envelope, alt_of_m)):
            rate, m = env(delta)
            assert abs(rate - max(line(mm, delta) for mm in range(2, 31))) < 1e-12
    assert alt_window(3)[1] == ALT_DELTA_CAP == 5 / 84
    assert all(alt_window(m)[1] <= 5 / 84 for m in range(3, 31))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(8, "pinned rate values, boundary continuity at 1e-12, envelope = pointwise "
               "max on a 1000-point grid, alt endpoint 5/84", elapsed, 1)


def test_criterion_9_negative_controls():
    t0 = time.perf_counter()
    # tampering one matrix entry must break the dual identity check
    art = artifact_mod.construct_artifact("hermitian", 2, 1)
    art.c_g_rows[0][0] ^= 1
    report = artifact_mod.verify_artifact(art)
    assert not report["ok"]
    failed = {c["name"] for c in report["checks"] if c["status"] == "fail"}
    assert failed & {"dual-equality", "matrices-recompute"}

    # heavy planted errors may fail to decode but are never mislabeled
    backend, c_g, c_h = suite_codes()[("rational", 16, 1)]
    f = backend.field
    bound = backend.distance_bound(1)
    rng = np.random.default_rng(12345)
    statuses = set()
    for _ in range(60):
        e = [0] * 16
        for i in map(int, rng.choice(8, size=2, replace=False)):
            v = int(rng.integers(1, 256))
            e[i], e[8 + i] = v // 16, v % 16
        syn = syndrome_of(f, tuple(e), c_h.rows)
        res = symplectic_decode(SyndromeProblem(c_h, syn), backend.deg_g(1))
        statuses.add(res.status)
        if res.status == "unique-guaranteed":
            assert 2 * res.weight + 1 <= bound      # the certificate is true
            assert syndrome_of(f, res.error, c_h.rows) == syn
        elif res.status == "found-min":
            assert syndrome_of(f, res.error, c_h.rows) == syn
        else:
            assert res.error is None
    assert statuses - {"unique-guaranteed"}          # some refusals happened
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(9, "tampering breaks verification; out-of-guarantee errors are never "
               "silently certified", elapsed, 30)

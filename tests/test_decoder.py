import dataclasses
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agstab import decoder
from agstab.curves import MAX_PLACE_PAIRS, HermitianBackend, RationalBackend, build_codes
from agstab.decoder import (
    SyndromeProblem,
    brute_oracle,
    exhaustive_coset_leaders,
    guarantee_cap,
    hamming_min_solve,
    power_sum_solve,
    symplectic_decode,
    syndrome_of,
)
from agstab.gf import field
from agstab.symplectic import CodeBasis, swap_halves, symplectic_weight
from conftest import naive_symplectic_form


def _dot(f, x, y):
    acc = 0
    for a, b in zip(x, y):
        acc ^= f.mul(a, b)
    return acc


# ---------------------------------------------------------------------------
# syndromes and the swap reduction
# ---------------------------------------------------------------------------

def test_syndrome_zero_vector():
    cg, ch = build_codes(HermitianBackend(2), 1)
    f = field(2)
    assert syndrome_of(f, (0,) * 6, ch.rows) == (0, 0)


def test_codewords_have_zero_syndrome():
    # C contains C^perp, so <C, C^perp> vanishes identically
    cg, ch = build_codes(RationalBackend(8), 1)
    f = field(3)
    for row in cg.rows:
        assert not any(syndrome_of(f, row, ch.rows))


def test_weight_one_error_has_nonzero_syndrome():
    rb = RationalBackend(16)
    cg, ch = build_codes(rb, 1)
    e = [0] * 16
    e[0] = 5
    assert any(syndrome_of(rb.field, tuple(e), ch.rows))


@pytest.mark.parametrize("degree", [1, 2, 4, 9])
def test_syndrome_of_matches_the_symplectic_form(degree):
    f = field(degree)
    rng = np.random.default_rng(7 + degree)
    rows = [tuple(int(v) for v in rng.integers(0, f.q, 8)) for _ in range(3)]
    for density in (0.0, 0.2, 1.0):
        for _ in range(10):
            e = tuple(int(v) if rng.random() < density else 0 for v in rng.integers(0, f.q, 8))
            got = syndrome_of(f, e, rows)
            assert got == tuple(naive_symplectic_form(f, e, r) for r in rows)
            assert all(type(v) is int for v in got)


@pytest.mark.parametrize("v, rows, message", [
    ((1, 0, 0, 0), [(0, 0, 0, 9)], "dual row 0: 9 is not an element of GF(2^2): expected an integer in [0, 4)"),   # in a column v misses
    ((1, 0, 0, 0), [(0, 0, 1, 0), (0, -1, 0, 0)], "dual row 1: -1 is not an element of GF(2^2): expected an integer in [0, 4)"),
    ((1, 0, 0, 0), [(0, 0, 1)], "dual row 0 has length 3, expected 4"),
    ((1, 0, 0, 4), [(0, 0, 1, 0)], "4 is not an element of GF(2^2)"),
    ((1, 0, 0), [(0, 0, 1)], "symplectic vectors have even length"),
    # numpy stores these vectors as floats; the message still names the Python value
    ((0, 2 ** 63, 0, 0), [(0, 0, 1, 0)], "9223372036854775808 is not an element of GF(2^2)"),
    ((0, 1.0, 0, 0), [(0, 0, 1, 0)], "1.0 is not an element of GF(2^2)"),
])
def test_syndrome_of_validates_the_whole_check_matrix(v, rows, message):
    with pytest.raises(ValueError) as info:
        syndrome_of(field(2), v, rows)
    assert str(info.value).startswith(message)


def test_swap_negate_definition():
    # e -> (-e_{n+1} .. -e_{2n}, e_1 .. e_n) is swap_halves in characteristic 2
    # n = 2: (a, 0 | 0, b) -> (0, -b | a, 0)
    assert swap_halves((5, 0, 0, 7)) == (0, 7, 5, 0)
    e = (1, 2, 3, 4, 5, 6)
    assert swap_halves(swap_halves(e)) == e     # involution (char 2): it is its own inverse


def test_swap_negate_transfers_the_form():
    rng = np.random.default_rng(19)
    for deg in (1, 2, 4):
        f = field(deg)
        for _ in range(60):
            e = tuple(int(v) for v in rng.integers(0, f.q, 8))
            b = tuple(int(v) for v in rng.integers(0, f.q, 8))
            assert syndrome_of(f, e, [b]) == (_dot(f, swap_halves(e), b),)


def test_hamming_bound_on_swap():
    rng = np.random.default_rng(29)
    f = field(2)
    for _ in range(60):
        e = tuple(int(v) for v in rng.integers(0, f.q, 10))
        wh = sum(1 for v in swap_halves(e) if v)
        assert wh <= 2 * symplectic_weight(e)


# ---------------------------------------------------------------------------
# the Hamming solver
# ---------------------------------------------------------------------------

def test_hamming_solver_zero_syndrome():
    cg, ch = build_codes(RationalBackend(8), 1)
    f = field(3)
    assert hamming_min_solve(f, (0,) * 3, ch.rows, 0) == (0,) * 8


def test_hamming_solver_budget_zero():
    cg, ch = build_codes(RationalBackend(8), 1)
    f = field(3)
    s = syndrome_of(f, (1,) + (0,) * 7, ch.rows)
    assert hamming_min_solve(f, s, ch.rows, 0) is None


def test_hamming_solver_recovers_planted():
    rb = RationalBackend(16)
    cg, ch = build_codes(rb, 1)
    f = rb.field
    rng = np.random.default_rng(37)
    for _ in range(25):
        y = [0] * 16
        y[int(rng.integers(0, 16))] = int(rng.integers(1, 16))
        target = tuple(_dot(f, y, b) for b in ch.rows.tolist())
        got = hamming_min_solve(f, target, ch.rows, 2)
        assert got == tuple(y)


GOOD_ROWS = [(1, 0, 2, 3), (0, 1, 1, 2)]


@pytest.mark.parametrize("rows, syndrome", [
    ([(1, 0, 2, 3), (0, 1, -1, 2)], (1, 0)),    # negative entry in a row
    ([(1, 0, 2, 3), (0, 1, 4, 2)], (1, 0)),     # entry = q in a row
    (GOOD_ROWS, (1, 5)),                        # syndrome entry > q - 1
    (GOOD_ROWS, (-1, 0)),                       # negative syndrome entry
    ([(1, 0, 2, 3), (0, 1, 1)], (1, 0)),        # ragged rows
    (GOOD_ROWS, (1, 0, 0)),                     # syndrome longer than the rows
    ([], ()),                                   # no check rows
])
def test_hamming_solver_rejects_malformed_input(rows, syndrome):
    f = field(2)
    with pytest.raises(ValueError):
        hamming_min_solve(f, syndrome, rows, 2)


def test_hamming_solver_rejects_negative_budget():
    with pytest.raises(ValueError):
        hamming_min_solve(field(2), (1, 0), GOOD_ROWS, -1)
    assert hamming_min_solve(field(2), (1, 0), GOOD_ROWS, 2) is not None


def test_hamming_solver_monotone_in_budget():
    rb = RationalBackend(8)
    cg, ch = build_codes(rb, 1)
    f = rb.field
    rng = np.random.default_rng(43)
    for _ in range(20):
        e = tuple(int(v) for v in rng.integers(0, f.q, 8))
        s = tuple(_dot(f, e, b) for b in ch.rows.tolist())
        found = None
        for budget in range(0, 6):
            got = hamming_min_solve(f, s, ch.rows, budget)
            if found is None:
                found = got
            elif got is not None and found is not None:
                assert got == found     # enlarging the budget never changes a minimum
            if got is not None and found is None:
                found = got


# ---------------------------------------------------------------------------
# the power-sum solver, against the kernel
# ---------------------------------------------------------------------------

# the largest Hamming weight the differential plants per q: the kernel's halves stay small
FAST_WEIGHT = {4: 4, 8: 4, 16: 3, 32: 2, 64: 2}


@lru_cache(maxsize=None)
def _rational_checks(q: int, j: int):
    """C(H) of rational q at j, and the x-coordinate of each of its columns."""
    backend = RationalBackend(q)
    return build_codes(backend, j)[1], tuple(backend.places[:, 0].tolist())


def _check_products(f, y, rows) -> tuple[int, ...]:
    return tuple(_dot(f, y, row) for row in rows.tolist())


def _both_solvers(q: int, j: int, budget: int, y) -> tuple:
    """(power_sum_solve, the kernel) on the checks y . C(H) rows of rational q at j;
    with no checks the kernel's answer is the zero vector, as in symplectic_decode."""
    checks, points = _rational_checks(q, j)
    s = _check_products(checks.field, y, checks.rows)
    kernel = hamming_min_solve(checks.field, s, checks.rows, budget) if checks.rank else (0,) * q
    return power_sum_solve(checks, points, s, budget), kernel


@st.composite
def _planted(draw):
    """(q, j, budget, y): a rational code at any j, a budget with 2 budget <= rank, and a
    vector of weight up to one past the budget, sometimes on the column of the point 0."""
    q = draw(st.sampled_from(sorted(FAST_WEIGHT)))
    j = draw(st.integers(0, q // 2))
    checks, points = _rational_checks(q, j)
    budget = draw(st.integers(0, min(checks.rank // 2, FAST_WEIGHT[q])))
    weight = draw(st.integers(0, min(budget + 1, FAST_WEIGHT[q])))
    support = draw(st.lists(st.integers(0, q - 1), min_size=weight, max_size=weight, unique=True))
    if support and draw(st.booleans()):
        zero = points.index(0)
        support = [zero] + [c for c in support if c != zero][:weight - 1]
    y = [0] * q
    for c in support:
        y[c] = draw(st.integers(1, q - 1))
    return q, j, budget, tuple(y)


@settings(max_examples=400)
@given(_planted())
def test_power_sum_solve_matches_the_kernel(case):
    ours, kernel = _both_solvers(*case)
    assert ours == kernel


def test_power_sum_solve_edge_cases():
    # the zero syndrome, rank 0 (j = n: no checks) and an error on the point 0 alone
    checks, points = _rational_checks(16, 3)
    assert power_sum_solve(checks, points, (0,) * checks.rank, 2) == (0,) * 16
    none, points8 = _rational_checks(8, 4)
    assert none.rank == 0 and power_sum_solve(none, points8, (), 0) == (0,) * 8
    y = [0] * 16
    y[points.index(0)] = 7
    assert _both_solvers(16, 3, 2, tuple(y)) == (tuple(y), tuple(y))
    with pytest.raises(ValueError, match="budget 3 is outside"):
        power_sum_solve(checks, points, (0,) * checks.rank, 3)   # rank 5: the answer need not be unique
    with pytest.raises(ValueError, match="syndrome length 4 != 5"):
        power_sum_solve(checks, points, (0,) * 4, 2)


def test_power_sum_budget_fits_every_rational_code():
    # 2 budget <= rank makes a vector of weight <= budget unique (the checked code is MDS of
    # distance rank + 1), so symplectic_decode takes the power sums at every rational (q, j)
    pairs = tight = 0
    q = 4
    while q // 2 <= MAX_PLACE_PAIRS:
        backend = RationalBackend(q)
        for j in range(backend.max_j + 1):
            budget = max(0, 2 * guarantee_cap(backend.n, backend.deg_g(j)))
            rank = backend.n - j
            assert 2 * budget <= rank, (q, j)
            pairs += 1
            tight += 2 * budget == rank
        q *= 2
    assert (pairs, tight) == (8202, 2059)


def test_mutation_without_the_point_zero_fails_the_differential(monkeypatch):
    # decoding as if no column had the point 0 loses every error there
    real = decoder._power_sums.__wrapped__
    monkeypatch.setattr(decoder, "_power_sums", lambda basis, points: real(basis, points)._replace(zero=None))
    with pytest.raises(AssertionError):
        test_power_sum_solve_matches_the_kernel()


def test_mutation_without_forneys_factor_fails_the_differential(monkeypatch):
    # the power sums start at p_0, so each value carries a factor X; without it they are wrong
    real = decoder._error_values

    def mutated(field, lam, omega, x_logs):
        log, antilog = field.log_antilog
        return antilog.take((log.take(real(field, lam, omega, x_logs)) - x_logs) % (field.q - 1))

    monkeypatch.setattr(decoder, "_error_values", mutated)
    with pytest.raises(AssertionError):
        test_power_sum_solve_matches_the_kernel()


@pytest.mark.parametrize("q, j", [(8, 1), (16, 1), (16, 5), (32, 12)])
def test_symplectic_decode_is_the_same_with_and_without_points(q, j):
    # in the region and one weight past it, where the kernel runs in milliseconds
    backend = RationalBackend(q)
    checks, points = _rational_checks(q, j)
    rng = np.random.default_rng(q + j)
    t_cap = guarantee_cap(backend.n, backend.deg_g(j))
    for weight in range(t_cap + 2):
        for _ in range(6):
            e = [0] * q
            for i in map(int, rng.choice(backend.n, size=weight, replace=False)):
                v = int(rng.integers(1, q * q))
                e[i], e[backend.n + i] = v // q, v % q
            problem = SyndromeProblem(checks, syndrome_of(backend.field, tuple(e), checks.rows), points)
            ours = symplectic_decode(problem, backend.deg_g(j))
            kernel = symplectic_decode(dataclasses.replace(problem, points=None), backend.deg_g(j))
            assert (ours.decoder, kernel.decoder) == ("power-sums", "search")
            assert dataclasses.replace(ours, decoder="search") == kernel


# ---------------------------------------------------------------------------
# end-to-end decoding
# ---------------------------------------------------------------------------

def test_decode_zero_syndrome():
    cg, ch = build_codes(RationalBackend(16), 1)
    res = symplectic_decode(SyndromeProblem(ch, (0,) * 7), deg_g=8)
    assert res.error == (0,) * 16 and res.weight == 0
    assert res.status == "unique-guaranteed"


def test_guarantee_cap_values():
    assert guarantee_cap(8, 8) == 1     # rational q=16, j=1
    assert guarantee_cap(3, 3) == 0     # hermitian q=2, j=0: bound 2
    assert guarantee_cap(3, 4) == 0     # hermitian q=2, j=1: bound 1
    assert guarantee_cap(3, 6) == -1


def test_decode_weight_one_sample():
    rb = RationalBackend(16)
    cg, ch = build_codes(rb, 1)
    f = rb.field
    rng = np.random.default_rng(51)
    for _ in range(40):
        e = [0] * 16
        i = int(rng.integers(0, 8))
        v = int(rng.integers(1, 256))
        e[i], e[8 + i] = v // 16, v % 16
        e = tuple(e)
        syn = syndrome_of(f, e, ch.rows)
        res = symplectic_decode(SyndromeProblem(ch, syn), rb.deg_g(1))
        assert res.error == e
        assert res.status == "unique-guaranteed"


def test_decode_never_mislabels_heavy_errors():
    rb = RationalBackend(16)
    cg, ch = build_codes(rb, 1)
    f = rb.field
    bound = rb.distance_bound(1)
    rng = np.random.default_rng(53)
    for _ in range(25):
        e = [0] * 16
        for i in map(int, rng.choice(8, size=2, replace=False)):
            v = int(rng.integers(1, 256))
            e[i], e[8 + i] = v // 16, v % 16
        e = tuple(e)  # weight 2 violates 2w + 1 <= 4
        syn = syndrome_of(f, e, ch.rows)
        res = symplectic_decode(SyndromeProblem(ch, syn), rb.deg_g(1))
        if res.status == "unique-guaranteed":
            # the certificate must be true of the returned vector
            assert res.error is not None
            assert 2 * res.weight + 1 <= bound
            assert syndrome_of(f, res.error, ch.rows) == syn
        elif res.status == "found-min":
            assert syndrome_of(f, res.error, ch.rows) == syn
        else:
            assert res.error is None


# ---------------------------------------------------------------------------
# the exhaustive oracle
# ---------------------------------------------------------------------------

def test_oracle_tiny_example():
    f = field(1)
    dual = CodeBasis.from_rows(f, [(1, 0)], 2)
    res = brute_oracle(SyndromeProblem(dual, (1,)))
    # coset {(0,1), (1,1)}: both weigh 1, lexicographic first wins
    assert res.error == (0, 1) and res.weight == 1


def test_oracle_zero_syndrome():
    cg, ch = build_codes(HermitianBackend(2), 1)
    res = brute_oracle(SyndromeProblem(ch, (0, 0)))
    assert res.error == (0,) * 6 and res.weight == 0


def test_decode_agrees_with_oracle_hermitian_q2_j1():
    hb = HermitianBackend(2)
    cg, ch = build_codes(hb, 1)
    leaders = exhaustive_coset_leaders(hb.field, ch)
    assert len(leaders) == 16
    t_cap = guarantee_cap(hb.n, hb.deg_g(1))
    for syn, (vec, w) in sorted(leaders.items()):
        res = symplectic_decode(SyndromeProblem(ch, syn), hb.deg_g(1))
        if res.status == "budget-exhausted":
            assert w > t_cap        # refusal was right: coset minimum exceeds the cap
        else:
            assert res.weight == w
            assert syndrome_of(hb.field, res.error, ch.rows) == syn


def test_oracle_matches_decode_inside_guarantee():
    rb = RationalBackend(8)
    cg, ch = build_codes(rb, 1)
    leaders = exhaustive_coset_leaders(rb.field, ch)
    t_cap = guarantee_cap(rb.n, rb.deg_g(1))
    checked = 0
    for syn, (vec, w) in leaders.items():
        if w > t_cap:
            continue
        checked += 1
        res = symplectic_decode(SyndromeProblem(ch, syn), rb.deg_g(1))
        assert res.status == "unique-guaranteed"
        assert res.error == vec and res.weight == w
    assert checked > 0


def test_weight_capped_oracle_matches_full():
    hb = HermitianBackend(2)
    cg, ch = build_codes(hb, 1)
    leaders = exhaustive_coset_leaders(hb.field, ch)
    for syn, (vec, w) in sorted(leaders.items()):
        capped = brute_oracle(SyndromeProblem(ch, syn), weight_cap=3)
        assert capped.error == vec and capped.weight == w
    # an impossible cap reports exhaustion instead of an answer
    nonzero = next(s for s in leaders if any(s) and leaders[s][1] > 0)
    res = brute_oracle(SyndromeProblem(ch, nonzero), weight_cap=0)
    assert res.status == "budget-exhausted" and res.error is None


def test_problem_validation():
    cg, ch = build_codes(HermitianBackend(2), 1)
    with pytest.raises(ValueError):
        SyndromeProblem(ch, (0,))   # wrong syndrome length
    p = SyndromeProblem(ch, (0, 0))
    assert p.n == 3 and p.k == 1

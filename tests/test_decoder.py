import dataclasses
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agstab import decoder
from agstab.curves import MAX_PLACE_PAIRS, HermitianBackend, RationalBackend, build_codes, power_basis
from agstab.decoder import (
    SyndromeProblem,
    brute_oracle,
    exhaustive_coset_leaders,
    guarantee_cap,
    hamming_min_solve,
    symplectic_decode,
    syndrome_of,
)
from agstab.gf import as_elements, field
from agstab.symplectic import CodeBasis, symplectic_weight
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


def test_swap_negate_transfers_the_form():
    rng = np.random.default_rng(19)
    for deg in (1, 2, 4):
        f = field(deg)
        for _ in range(60):
            e = tuple(int(v) for v in rng.integers(0, f.q, 8))
            b = tuple(int(v) for v in rng.integers(0, f.q, 8))
            assert syndrome_of(f, e, [b]) == (_dot(f, np.roll(e, 4), b),)


def test_hamming_bound_on_swap():
    rng = np.random.default_rng(29)
    f = field(2)
    for _ in range(60):
        e = tuple(int(v) for v in rng.integers(0, f.q, 10))
        wh = np.count_nonzero(np.roll(e, 5))
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
    """C(H) of rational q at j as its power basis, which knows the x-coordinate of each column."""
    backend = RationalBackend(q)
    return power_basis(backend.field, backend.places[:, 0], backend.n - j)


def _plain(basis: CodeBasis) -> CodeBasis:
    """The same rows as a basis that states no points, which the search decodes."""
    return CodeBasis(basis.field, basis.width, basis.rows, basis.pivots)


def _check_products(f, y, rows) -> tuple[int, ...]:
    return tuple(_dot(f, y, row) for row in rows.tolist())


def _power_sums(checks, s, budget: int):
    """The y of Hamming weight <= budget with the checks s, by the power sums alone, or None."""
    Y, found = decoder._power_sum_block(checks, as_elements(checks.field, s)[None], budget)
    return tuple(Y[0].tolist()) if found[0] else None


def _both_solvers(q: int, j: int, budget: int, y) -> tuple:
    """(the power sums, the kernel) on the checks y . C(H) rows of rational q at j;
    with no checks the kernel's answer is the zero vector, as in symplectic_decode."""
    checks = _rational_checks(q, j)
    s = _check_products(checks.field, y, checks.rows)
    kernel = hamming_min_solve(checks.field, s, checks.rows, budget) if checks.rank else (0,) * q
    return _power_sums(checks, s, budget), kernel


@st.composite
def _planted(draw):
    """(q, j, budget, y): a rational code at any j, a budget with 2 budget <= rank, and a
    vector of weight up to one past the budget, sometimes on the column of the point 0."""
    q = draw(st.sampled_from(sorted(FAST_WEIGHT)))
    j = draw(st.integers(0, q // 2))
    checks = _rational_checks(q, j)
    budget = draw(st.integers(0, min(checks.rank // 2, FAST_WEIGHT[q])))
    weight = draw(st.integers(0, min(budget + 1, FAST_WEIGHT[q])))
    support = draw(st.lists(st.integers(0, q - 1), min_size=weight, max_size=weight, unique=True))
    if support and draw(st.booleans()):
        zero = checks.points.index(0)
        support = [zero] + [c for c in support if c != zero][:weight - 1]
    y = [0] * q
    for c in support:
        y[c] = draw(st.integers(1, q - 1))
    return q, j, budget, tuple(y)


@settings(max_examples=400)
@given(_planted())
def test_the_power_sums_match_the_kernel(case):
    ours, kernel = _both_solvers(*case)
    assert ours == kernel


def test_power_sum_edge_cases():
    # the zero syndrome, rank 0 (j = n: no checks) and an error on the point 0 alone
    checks = _rational_checks(16, 3)
    assert _power_sums(checks, (0,) * checks.rank, 2) == (0,) * 16
    none = _rational_checks(8, 4)
    assert none.rank == 0 and _power_sums(none, (), 0) == (0,) * 8
    y = [0] * 16
    y[checks.points.index(0)] = 7
    assert _both_solvers(16, 3, 2, tuple(y)) == (tuple(y), tuple(y))


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
    monkeypatch.setattr(decoder, "_power_sums", lambda basis: real(basis)._replace(zero=None))
    with pytest.raises(AssertionError):
        test_the_power_sums_match_the_kernel()


def test_mutation_without_forneys_factor_fails_the_differential(monkeypatch):
    # the power sums start at p_0, so each value carries a factor X; without it they are wrong
    real = decoder._error_values

    def mutated(field, lam, omega, x_logs):
        log, antilog = field.log_antilog
        return antilog.take((log.take(real(field, lam, omega, x_logs)) - x_logs) % (field.q - 1))

    monkeypatch.setattr(decoder, "_error_values", mutated)
    with pytest.raises(AssertionError):
        test_the_power_sums_match_the_kernel()


@pytest.mark.parametrize("q, j", [(8, 1), (16, 1), (16, 5), (32, 12)])
def test_symplectic_decode_is_the_same_on_a_power_basis_and_its_plain_copy(q, j):
    # in the region and one weight past it, where the kernel runs in milliseconds
    backend = RationalBackend(q)
    checks = _rational_checks(q, j)
    rng = np.random.default_rng(q + j)
    t_cap = guarantee_cap(backend.n, backend.deg_g(j))
    for weight in range(t_cap + 2):
        for _ in range(6):
            e = [0] * q
            for i in map(int, rng.choice(backend.n, size=weight, replace=False)):
                v = int(rng.integers(1, q * q))
                e[i], e[backend.n + i] = v // q, v % q
            problem = SyndromeProblem(checks, syndrome_of(backend.field, tuple(e), checks.rows))
            ours = symplectic_decode(problem, backend.deg_g(j))
            kernel = symplectic_decode(dataclasses.replace(problem, dual_basis=_plain(checks)), backend.deg_g(j))
            assert (ours.decoder, kernel.decoder) == ("power-sums", "search")
            assert dataclasses.replace(ours, decoder="search") == kernel


class _NoBasis:
    """A class that no basis is an instance of."""


@pytest.mark.parametrize("mutant", ["every-basis", "no-basis", "none"])
def test_mutation_choosing_the_solver_otherwise_fails_named_rows(monkeypatch, mutant):
    # decode_syndromes takes the power sums for a power basis alone.  Taken for every basis, the
    # plain copy decodes by power sums, or finds no points to take them at; taken for none, the
    # power basis is searched.  The control fails no row
    if mutant != "none":
        monkeypatch.setattr(decoder, "PowerBasis", CodeBasis if mutant == "every-basis" else _NoBasis)
    failed = []
    for q, j in [(8, 1), (16, 5)]:
        try:
            test_symplectic_decode_is_the_same_on_a_power_basis_and_its_plain_copy(q, j)
        except (AssertionError, AttributeError):
            failed.append((q, j))
    decoder._power_sums.cache_clear()
    assert failed == ([] if mutant == "none" else [(8, 1), (16, 5)])


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


@pytest.mark.parametrize("backend, j, heaviest, random_syndromes, power", [
    (RationalBackend(16), 1, 3, True, True), (RationalBackend(64), 4, 9, True, True),
    (RationalBackend(16), 1, 2, True, False), (RationalBackend(8), 4, 1, False, True),
    (HermitianBackend(2), 1, 2, True, False), (HermitianBackend(4), 5, 1, False, False)], ids=repr)
def test_a_block_decodes_as_each_of_its_rows(backend, j, heaviest, random_syndromes, power):
    # planted errors of every weight up to ``heaviest``, some on the column of the point 0, and
    # random syndromes: unique-guaranteed, found-min and budget-exhausted rows in one block,
    # through the power sums, the search and (with no checks) neither
    checks = _rational_checks(backend.q, j) if power else build_codes(backend, j)[1]
    q, n, rng = backend.field.q, backend.n, np.random.default_rng(j)
    syndromes = []
    for weight in range(heaviest + 1):
        for _ in range(4):
            e = [0] * (2 * n)
            support = list(map(int, rng.choice(n, size=weight, replace=False)))
            if support and rng.integers(2):
                support[0] = 0
            for i in support:  # half of the pairs nonzero in their first half only
                v = int(rng.integers(1, q * q))
                e[i], e[n + i] = (v // q or 1, 0) if rng.integers(2) else (v // q, v % q)
            syndromes.append(syndrome_of(backend.field, tuple(e), checks.rows))
    if random_syndromes:
        syndromes += [tuple(map(int, rng.integers(0, q, checks.rank))) for _ in range(8)]
    block = decoder.decode_syndromes(checks, syndromes, backend.deg_g(j))
    assert block == [symplectic_decode(SyndromeProblem(checks, s), backend.deg_g(j)) for s in syndromes]
    statuses = {r.status for r in block}
    assert "unique-guaranteed" in statuses
    if heaviest > 1 and backend.kind == "rational":
        assert statuses == {"unique-guaranteed", "found-min", "budget-exhausted"}


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
    # rational q=8 j=0 has t_cap 1: every syndrome with a leader of weight <= 1 (253 of 8^8),
    # decoded as one block through the power sums and through the search
    rb = RationalBackend(8)
    ch = build_codes(rb, 0)[1]
    t_cap = guarantee_cap(rb.n, rb.deg_g(0))
    inside = {syn: vec for syn, (vec, w) in exhaustive_coset_leaders(rb.field, ch).items() if w <= t_cap}
    assert t_cap == 1 and len(inside) == 1 + rb.n * (rb.field.q ** 2 - 1) == 253
    for checks, solver in ((_rational_checks(8, 0), "power-sums"), (ch, "search")):
        block = decoder.decode_syndromes(checks, list(inside), rb.deg_g(0))
        assert [r.error for r in block] == list(inside.values())
        assert {(r.status, r.decoder) for r in block} == {("unique-guaranteed", solver)}


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

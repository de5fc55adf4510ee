import numpy as np
import pytest

from agstab.curves import HermitianBackend, RationalBackend, build_codes
from agstab.decoder import (
    SyndromeProblem,
    brute_oracle,
    exhaustive_coset_leaders,
    guarantee_cap,
    hamming_min_solve,
    symplectic_decode,
    syndrome_of,
)
from agstab.gf import field
from agstab.symplectic import CodeBasis, swap_halves, symplectic_form, symplectic_weight
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
            assert symplectic_form(f, e, b) == _dot(f, swap_halves(e), b)


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

"""Differential tests for the meet-in-the-middle syndrome kernel: the
kernel on symplectic and on Hamming weight against brute-force scans, the
weight-budget sweep and both exact distances (relative symplectic and
Hamming, each a sweep stopped at its first weight) against the naive span
oracle, the weight-capped decoding oracle against the exhaustive coset
leaders, the Hamming decoder against a whole-space minimum, and negative
controls for the D-rejection, fingerprint collisions, the work cap and
containment.  The cap tests set ``symplectic.ENUMERATION_CAP``, which every
refusal reads when it runs."""

from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agstab import linalg, symplectic
from agstab.decoder import (SyndromeProblem, _hamming_search, brute_oracle, exhaustive_coset_leaders,
                            hamming_min_solve)
from agstab.gf import field
from agstab.symplectic import (ENUMERATION_CAP, CodeBasis, _SyndromeSearch, contains, min_hamming_weight,
                                relative_min_weight, swap_halves, symplectic_dual)
from conftest import naive_relative_min_weight, naive_symplectic_form, naive_symplectic_weight, span_vectors

FUZZ = settings(max_examples=60)


@st.composite
def code_pairs(draw):
    """(C, D) over GF(2), GF(4) or GF(8) with D = 0 or D = C minus its last row."""
    f = field(draw(st.sampled_from((1, 2, 3))))
    n = draw(st.integers(1, 3 if f.q == 8 else 4))
    width = 2 * n
    k = draw(st.integers(1, min(width, 4 if f.q < 8 else 3)))
    rows = draw(st.lists(st.lists(st.integers(0, f.q - 1), min_size=width, max_size=width),
                         min_size=k, max_size=k))
    C = CodeBasis.from_rows(f, rows, width)
    if draw(st.booleans()) or C.rank == 0:
        D = CodeBasis.zero(f, width)
    else:
        D = CodeBasis.from_rows(f, C.rows[:-1], width)
    return C, D


@FUZZ
@given(code_pairs(), st.integers(1, 4))
def test_sweep_matches_naive(pair, budget):
    C, D = pair
    expected = naive_relative_min_weight(C.field, C.rows.tolist(), D.rows.tolist(), C.width)
    res = relative_min_weight(C, D, budget=budget, mode="budget")
    if expected is None:
        assert res.status == "empty"
    elif expected <= budget:
        assert (res.status, res.weight, res.floor) == ("exact", expected, None)
    else:
        assert (res.status, res.weight, res.floor) == ("at-least", None, budget + 1)


def test_sweep_over_gf512():
    f = field(9)
    # a*r1 + b*r2 with b != 0 has pair b*(511, 2) at position 1, and at
    # position 0 either x = 7b (a = 0) or z = 300a: weight exactly 2, while
    # D = span(r1) holds weight-1 vectors the sweep must skip
    rows = [(5, 0, 300, 0), (7, 511, 0, 2)]
    C = CodeBasis.from_rows(f, rows, 4)
    D = CodeBasis.from_rows(f, rows[:1], 4)
    assert relative_min_weight(C, D, budget=2, mode="budget").weight == 2
    res = relative_min_weight(C, D, budget=1, mode="budget")
    assert res.status == "at-least" and res.floor == 2


@FUZZ
@given(code_pairs())
def test_exact_distance_matches_naive(pair):
    C, D = pair
    expected = naive_relative_min_weight(C.field, C.rows.tolist(), D.rows.tolist(), C.width)
    res = relative_min_weight(C, D)      # q^dim <= 8^3: "auto" sweeps to the exact minimum
    if expected is None:
        assert res.status == "empty"
    else:
        assert (res.status, res.weight) == ("exact", expected)


@st.composite
def linear_codes(draw):
    """A nonzero code over GF(2), GF(4) or GF(8), full-rank in about one draw in four."""
    f = field(draw(st.sampled_from((1, 2, 3))))
    if draw(st.integers(0, 3)) == 0:
        width = draw(st.integers(1, {2: 5, 4: 3, 8: 2}[f.q]))
        rows = [[int(i == c) for c in range(width)] for i in range(width)]
    else:
        width = draw(st.integers(1, {2: 8, 4: 6, 8: 5}[f.q]))
        k = draw(st.integers(1, min(width, {2: 5, 4: 4, 8: 3}[f.q])))
        rows = draw(st.lists(st.lists(st.integers(0, f.q - 1), min_size=width, max_size=width),
                             min_size=k, max_size=k))
    C = CodeBasis.from_rows(f, rows, width)
    if C.rank == 0:
        C = CodeBasis.from_rows(f, [[1] + [0] * (width - 1)], width)
    return C


@FUZZ
@given(linear_codes())
def test_hamming_sweep_matches_naive(C):
    words = span_vectors(C.field, C.rows.tolist(), C.width) - {(0,) * C.width}
    expected = min(sum(1 for v in w if v) for w in words)
    assert min_hamming_weight(C) == expected
    # the Hamming weight of y is the symplectic weight of (y | 0)
    padded = [row + [0] * C.width for row in C.rows.tolist()]
    assert naive_relative_min_weight(C.field, padded, [], 2 * C.width) == expected


@st.composite
def self_dual_codes(draw):
    """C = C^perp (k = 0): the rows (e_i | S_i) for a symmetric S, with some pairs swapped."""
    f = field(draw(st.sampled_from((1, 2, 3))))
    n = draw(st.integers(1, {2: 5, 4: 4, 8: 3}[f.q]))
    S = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            S[i][j] = S[j][i] = draw(st.integers(0, f.q - 1))
    rows = [[int(i == c) for c in range(n)] + S[i] for i in range(n)]
    for i in draw(st.sets(st.integers(0, n - 1))):
        for row in rows:
            row[i], row[n + i] = row[n + i], row[i]
    return CodeBasis.from_rows(f, rows, 2 * n)


@FUZZ
@given(self_dual_codes())
def test_zero_k_min_weight_matches_naive(C):
    assert symplectic_dual(C) == C and relative_min_weight(C, C).status == "empty"
    zero = CodeBasis.zero(C.field, C.width)
    assert relative_min_weight(C, zero).weight == naive_relative_min_weight(C.field, C.rows.tolist(), [], C.width)


def test_exact_distances_over_gf512(monkeypatch):
    f = field(9)
    # a*r1 + b*r2 = (5a + 7b, 511b | 300a, 2b): symplectic weight 1 at b = 0
    # and 2 otherwise; Hamming weight 2 at b = 0 and 3 otherwise
    rows = [(5, 0, 300, 0), (7, 511, 0, 2)]
    C = CodeBasis.from_rows(f, rows, 4)
    D = CodeBasis.from_rows(f, rows[:1], 4)
    assert f.q ** C.rank <= ENUMERATION_CAP
    assert relative_min_weight(C, D).weight == 2
    assert relative_min_weight(C, CodeBasis.zero(f, 4)).weight == 1
    assert min_hamming_weight(C) == 2
    assert min_hamming_weight(D) == 2
    # q^dim = 512^2 = 262144: at that cap the gate lets the exact sweep start (its weight-1
    # half, 2 * 262143 rows, is the next refusal); one below it the gate asks for a budget
    monkeypatch.setattr(symplectic, "ENUMERATION_CAP", f.q ** 2)
    with pytest.raises(ValueError, match=r"^weight 1: the right half has C\(2,1\) \* 262143\^1 = 524286 rows"):
        relative_min_weight(C, D)
    monkeypatch.setattr(symplectic, "ENUMERATION_CAP", f.q ** 2 - 1)
    with pytest.raises(ValueError, match="^q\\^dim = 262144 exceeds the enumeration cap; a weight budget is required$"):
        relative_min_weight(C, D)


def test_exact_distances_refuse_past_the_cap(monkeypatch):
    f = field(2)
    C = CodeBasis.from_rows(f, [(1, 1, 1, 1, 1, 1)], 6)
    # q^dim = 4 passes the gate.  The symplectic weight is 3, and weight 3
    # needs C(3,2) * 15^2 = 675 rows.  The Hamming weight is 6 (the Singleton
    # bound), and weight 5 needs C(6,3) * 3^3 = 540 rows in its right half.
    monkeypatch.setattr(symplectic, "ENUMERATION_CAP", 45)
    with pytest.raises(ValueError, match=r"C\(3,2\) \* 15\^2 = 675 rows, over the cap 45"):
        relative_min_weight(C, CodeBasis.zero(f, 6))
    monkeypatch.setattr(symplectic, "ENUMERATION_CAP", 539)
    with pytest.raises(ValueError, match=r"weight 5: the right half has C\(6,3\) \* 3\^3 = 540 rows, over the cap 539"):
        min_hamming_weight(C)
    monkeypatch.setattr(symplectic, "ENUMERATION_CAP", 540)
    assert min_hamming_weight(C) == 6


def test_hamming_kernel_is_built_once_per_code():
    f = field(2)
    rows = [(1, 2, 0, 3, 1), (0, 1, 1, 2, 3)]
    _hamming_search.cache_clear()
    first = hamming_min_solve(f, (1, 2), rows, 3)
    again = hamming_min_solve(f, (1, 2), [list(r) for r in rows], 3)    # equal rows, other container
    assert first == again and _hamming_search.cache_info()[:2] == (1, 1)
    hamming_min_solve(f, (1, 2), [rows[1], rows[0]], 3)
    assert _hamming_search.cache_info()[:2] == (1, 2)


@st.composite
def syndrome_problems(draw):
    f = field(draw(st.sampled_from((1, 2, 3))))
    n = draw(st.integers(1, {2: 4, 4: 3, 8: 2}[f.q]))
    width = 2 * n
    rows = draw(st.lists(st.lists(st.integers(0, f.q - 1), min_size=width, max_size=width),
                         min_size=1, max_size=width))
    dual = CodeBasis.from_rows(f, rows, width)
    if dual.rank == 0:
        dual = CodeBasis.from_rows(f, [[1] + [0] * (width - 1)], width)
    syndrome = tuple(draw(st.lists(st.integers(0, f.q - 1), min_size=dual.rank, max_size=dual.rank)))
    return dual, syndrome


@FUZZ
@given(syndrome_problems())
def test_capped_oracle_matches_coset_leaders(case):
    dual, syndrome = case
    vec, w = exhaustive_coset_leaders(dual.field, dual)[syndrome]
    problem = SyndromeProblem(dual, syndrome)
    res = brute_oracle(problem, weight_cap=w)
    assert (res.error, res.weight, res.status) == (vec, w, "found-min")
    assert all(type(v) is int for v in res.error)
    if w:
        short = brute_oracle(problem, weight_cap=w - 1)
        assert (short.error, short.weight, short.status) == (None, None, "budget-exhausted")


def _kernel_solutions(search, w, syndrome):
    return [tuple(v) for block in search.solutions(w, syndrome)
            for v in search.dense(*block).tolist()]


def _brute_solutions(dual, w, syndrome):
    return {v for v in product(dual.field.elements(), repeat=dual.width) if naive_symplectic_weight(v) == w
            and tuple(naive_symplectic_form(dual.field, v, r) for r in dual.rows.tolist()) == syndrome}


@settings(max_examples=40)
@given(syndrome_problems(), st.integers(1, 4))
def test_kernel_lists_each_solution_once(case, w):
    dual, syndrome = case
    found = _kernel_solutions(_SyndromeSearch(dual.field, [swap_halves(r) for r in dual.rows.tolist()],
                                              dual.width // 2, 2), w, syndrome)
    assert len(found) == len(set(found)) and set(found) == _brute_solutions(dual, w, syndrome)


@st.composite
def hamming_problems(draw):
    """(field, rows, syndrome) over GF(2), GF(4) or GF(8); the rows need not be independent."""
    f = field(draw(st.sampled_from((1, 2, 3))))
    width = draw(st.integers(1, {2: 8, 4: 5, 8: 4}[f.q]))
    rows = draw(st.lists(st.lists(st.integers(0, f.q - 1), min_size=width, max_size=width),
                         min_size=1, max_size=width))
    syndrome = tuple(draw(st.lists(st.integers(0, f.q - 1), min_size=len(rows), max_size=len(rows))))
    return f, rows, syndrome


def _dot(f, x, y):
    acc = 0
    for a, b in zip(x, y):
        acc ^= f.mul(a, b)
    return acc


def _hamming_brute(f, rows, syndrome):
    """Every vector y with y . rows[i] = syndrome[i], by a whole-space scan."""
    return {v for v in product(f.elements(), repeat=len(rows[0]))
            if tuple(_dot(f, v, r) for r in rows) == syndrome}


def _hamming_weight(v):
    return sum(1 for x in v if x)


@settings(max_examples=40)
@given(hamming_problems(), st.integers(1, 4))
def test_hamming_kernel_lists_each_solution_once(case, w):
    f, rows, syndrome = case
    found = _kernel_solutions(_SyndromeSearch(f, rows, len(rows[0]), 1), w, syndrome)
    expected = {v for v in _hamming_brute(f, rows, syndrome) if _hamming_weight(v) == w}
    assert len(found) == len(set(found)) and set(found) == expected


@FUZZ
@given(hamming_problems())
def test_hamming_min_solve_matches_the_whole_space_minimum(case):
    f, rows, syndrome = case
    ranked = sorted((_hamming_weight(v), v) for v in _hamming_brute(f, rows, syndrome))
    for budget in range(5):
        got = hamming_min_solve(f, syndrome, rows, budget)
        expected = next((v for w, v in ranked if w <= budget), None)  # least weight, then lexicographic
        assert got == expected
        assert got is None or all(type(v) is int for v in got)


# ---------------------------------------------------------------------------
# negative controls
# ---------------------------------------------------------------------------

def test_sweep_skips_light_vectors_of_d():
    f = field(1)
    light = (1, 0, 0, 0, 0, 0)              # weight 1, inside D
    C = CodeBasis.from_rows(f, [light, (0, 1, 1, 0, 0, 0)], 6)
    D = CodeBasis.from_rows(f, [light], 6)
    assert naive_symplectic_weight(light) == 1
    res = relative_min_weight(C, D, budget=1, mode="budget")
    assert res.status == "at-least" and res.floor == 2
    assert relative_min_weight(C, D, budget=3, mode="budget").weight == 2


@pytest.mark.parametrize("w", [1, 2, 3])
def test_kernel_rejects_fingerprint_collisions(w):
    f = field(2)
    dual = CodeBasis.from_rows(f, [(1, 2, 0, 3, 1, 1), (0, 1, 1, 2, 0, 3)], 6)
    search = _SyndromeSearch(f, [swap_halves(r) for r in dual.rows.tolist()], 3, 2)
    search._mix[:], search._bit_keys[:] = 0, 0   # every fingerprint 0: every pair matches
    found = _kernel_solutions(search, w, (1, 2))
    assert len(found) == len(set(found)) and set(found) == _brute_solutions(dual, w, (1, 2))


@pytest.mark.parametrize("w", [1, 2, 3])
def test_hamming_kernel_rejects_fingerprint_collisions(w):
    f = field(2)
    rows = [(1, 2, 0, 3, 1), (0, 1, 1, 2, 3)]
    search = _SyndromeSearch(f, rows, 5, 1)
    search._mix[:], search._bit_keys[:] = 0, 0   # every fingerprint 0: every pair matches
    found = _kernel_solutions(search, w, (1, 2))
    expected = {v for v in _hamming_brute(f, rows, (1, 2)) if _hamming_weight(v) == w}
    assert len(found) == len(set(found)) and set(found) == expected


def test_hamming_min_solve_refuses_past_the_cap_naming_its_estimate():
    f = field(4)
    rows = [(1,) * 400, (1,) * 400]     # equal rows: syndrome (1, 0) is never reached
    # weights 1 and 2 need 400 * 15 = 6000 rows per half; weight 3 needs C(400,2) * 15^2
    assert comb(400, 2) * 15 ** 2 > ENUMERATION_CAP >= 400 * 15
    assert hamming_min_solve(f, (1, 0), rows, 2) is None
    with pytest.raises(ValueError, match=rf"weight 3: the right half has C\(400,2\) \* 15\^2 = "
                                         rf"{comb(400, 2) * 225} rows, over the cap {ENUMERATION_CAP}"):
        hamming_min_solve(f, (1, 0), rows, 3)


def test_sweep_refuses_past_the_cap_naming_its_estimate(monkeypatch):
    f = field(2)
    C = CodeBasis.from_rows(f, [(1, 1, 1, 1, 1, 1)], 6)      # weight 3
    D = CodeBasis.zero(f, 6)
    # weights 1 and 2 fit in 45 rows per half; weight 3 needs C(3,2) * 15^2 = 675
    monkeypatch.setattr(symplectic, "ENUMERATION_CAP", 45)
    with pytest.raises(ValueError, match=r"C\(3,2\) \* 15\^2 = 675 rows, over the cap 45"):
        relative_min_weight(C, D, budget=3, mode="budget")
    # a sweep that stops below the refused weight is unaffected
    res = relative_min_weight(C, D, budget=2, mode="budget")
    assert res.status == "at-least" and res.floor == 3
    light = CodeBasis.from_rows(f, [(1, 0, 0, 0, 0, 0)], 6)
    assert relative_min_weight(light, D, budget=3, mode="budget").weight == 1


def test_capped_oracle_refuses_past_the_cap(monkeypatch):
    f = field(2)
    dual = CodeBasis.from_rows(f, [(1, 1, 1, 1, 1, 1)], 6)
    monkeypatch.setattr(symplectic, "ENUMERATION_CAP", 44)
    with pytest.raises(ValueError, match="= 45 rows, over the cap 44"):
        brute_oracle(SyndromeProblem(dual, (1,)), weight_cap=1)


def test_exhaustive_oracle_refuses_past_the_cap(monkeypatch):
    # the exhaustive leaders enumerate all q^(2n) = 4^6 = 4096 ambient vectors
    f = field(2)
    dual = CodeBasis.from_rows(f, [(1, 1, 1, 1, 1, 1)], 6)
    monkeypatch.setattr(symplectic, "ENUMERATION_CAP", 4096)
    assert brute_oracle(SyndromeProblem(dual, (1,))).weight == 1
    monkeypatch.setattr(symplectic, "ENUMERATION_CAP", 4095)
    with pytest.raises(ValueError, match=r"^q\^\(2n\) = 4096 exceeds the enumeration cap 4095$"):
        exhaustive_coset_leaders(f, dual)


@pytest.mark.parametrize("degree", [1, 4, 9])
def test_contains_rejects_a_row_one_entry_off_the_span(degree):
    f = field(degree)
    rows = [(1, 0, 3 % f.q, 1, 0, 0), (0, 0, 1, 1, 1, 0), (0, 1, 0, 0, 1, 1)]
    outer = CodeBasis.from_rows(f, rows, 6)
    inside = [0] * 6
    for c, row in zip((1, 2 % f.q, f.q - 1), outer.rows.tolist()):
        inside = [a ^ f.mul(c, v) for a, v in zip(inside, row)]
    free = next(c for c in range(6) if c not in outer.pivots)
    off = list(inside)
    off[free] ^= f.q - 1                     # no span vector is zero on every pivot but this
    assert list(linalg.row_in_span(f, outer.rows, outer.pivots, [inside, off])) == [True, False]
    assert contains(outer, CodeBasis.from_rows(f, [inside], 6))
    assert not contains(outer, CodeBasis.from_rows(f, [inside, off], 6))

"""Differential tests for the meet-in-the-middle syndrome kernel: the
kernel on symplectic and on Hamming weight against brute-force scans, the
weight-budget sweep against the naive span oracle, the weight-capped
decoding oracle against the exhaustive coset leaders, the Hamming decoder
against a whole-space minimum, and negative controls for the
D-rejection, fingerprint collisions, the work cap and containment."""

from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agstab.decoder import (ORACLE_CAP, SyndromeProblem, brute_oracle, exhaustive_coset_leaders,
                            hamming_min_solve)
from agstab.gf import field
from agstab.symplectic import (ENUMERATION_CAP, CodeBasis, _SyndromeSearch, contains, relative_min_weight,
                                swap_halves)
from conftest import naive_relative_min_weight, naive_symplectic_form, naive_symplectic_weight

FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None)


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
        D = CodeBasis.from_rows(f, list(C.rows[:-1]), width)
    return C, D


@FUZZ
@given(code_pairs(), st.integers(1, 4))
def test_sweep_matches_naive(pair, budget):
    C, D = pair
    expected = naive_relative_min_weight(C.field, list(C.rows), list(D.rows), C.width)
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
    return [tuple(v) for block in search.solutions(w, syndrome, ENUMERATION_CAP)
            for v in search.dense(*block).tolist()]


def _brute_solutions(dual, w, syndrome):
    return {v for v in product(dual.field.elements(), repeat=dual.width) if naive_symplectic_weight(v) == w
            and tuple(naive_symplectic_form(dual.field, v, r) for r in dual.rows) == syndrome}


@settings(FUZZ, max_examples=40)
@given(syndrome_problems(), st.integers(1, 4))
def test_kernel_lists_each_solution_once(case, w):
    dual, syndrome = case
    found = _kernel_solutions(_SyndromeSearch(dual.field, [swap_halves(r) for r in dual.rows],
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


@settings(FUZZ, max_examples=40)
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
    search = _SyndromeSearch(f, [swap_halves(r) for r in dual.rows], 3, 2)
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
    assert comb(400, 2) * 15 ** 2 > ORACLE_CAP >= 400 * 15
    assert hamming_min_solve(f, (1, 0), rows, 2) is None
    with pytest.raises(ValueError, match=rf"weight 3: the right half has C\(400,2\) \* 15\^2 = "
                                         rf"{comb(400, 2) * 225} rows, over the cap {ORACLE_CAP}"):
        hamming_min_solve(f, (1, 0), rows, 3)


def test_sweep_refuses_past_the_cap_naming_its_estimate():
    f = field(2)
    C = CodeBasis.from_rows(f, [(1, 1, 1, 1, 1, 1)], 6)      # weight 3
    D = CodeBasis.zero(f, 6)
    # weights 1 and 2 fit in 45 rows per half; weight 3 needs C(3,2) * 15^2 = 675
    with pytest.raises(ValueError, match=r"C\(3,2\) \* 15\^2 = 675 rows, over the cap 45"):
        relative_min_weight(C, D, budget=3, mode="budget", cap=45)
    # a sweep that stops below the refused weight is unaffected
    res = relative_min_weight(C, D, budget=2, mode="budget", cap=45)
    assert res.status == "at-least" and res.floor == 3
    light = CodeBasis.from_rows(f, [(1, 0, 0, 0, 0, 0)], 6)
    assert relative_min_weight(light, D, budget=3, mode="budget", cap=45).weight == 1


def test_capped_oracle_refuses_past_the_cap():
    f = field(2)
    dual = CodeBasis.from_rows(f, [(1, 1, 1, 1, 1, 1)], 6)
    with pytest.raises(ValueError, match="= 45 rows, over the cap 44"):
        brute_oracle(SyndromeProblem(dual, (1,)), cap=44, weight_cap=1)


@pytest.mark.parametrize("degree", [1, 4, 9])
def test_contains_rejects_a_row_one_entry_off_the_span(degree):
    f = field(degree)
    rows = [(1, 0, 3 % f.q, 1, 0, 0), (0, 0, 1, 1, 1, 0), (0, 1, 0, 0, 1, 1)]
    outer = CodeBasis.from_rows(f, rows, 6)
    inside = [0] * 6
    for c, row in zip((1, 2 % f.q, f.q - 1), outer.rows):
        inside = [a ^ f.mul(c, v) for a, v in zip(inside, row)]
    free = next(c for c in range(6) if c not in outer.pivots)
    off = list(inside)
    off[free] ^= f.q - 1                     # no span vector is zero on every pivot but this
    assert outer.contains_row(inside) and not outer.contains_row(off)
    assert contains(outer, CodeBasis.from_rows(f, [inside], 6))
    assert not contains(outer, CodeBasis.from_rows(f, [inside, off], 6))

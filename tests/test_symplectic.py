from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agstab import artifact, linalg
from agstab.gf import field
from agstab.symplectic import (
    CodeBasis,
    contains,
    min_hamming_weight,
    relative_min_weight,
    row_reduce,
    stabilizer_params,
    swap_halves,
    symplectic_dual,
    symplectic_form,
    symplectic_weight,
)
from conftest import (
    naive_relative_min_weight,
    naive_symplectic_dual,
    span_vectors,
    two_reduction_symplectic_dual,
)


def _random_rows(field_obj, rng, count, width):
    return [tuple(int(v) for v in rng.integers(0, field_obj.q, width)) for _ in range(count)]


# ---------------------------------------------------------------------------
# row reduction
# ---------------------------------------------------------------------------

def test_row_reduce_duplicates():
    basis, rank = row_reduce(field(1), [(1, 1), (1, 1)])
    assert rank == 1 and basis.rows.tolist() == [[1, 1]]


def test_row_reduce_empty():
    basis, rank = row_reduce(field(1), [], width=4)
    assert rank == 0 and basis.rows.shape == (0, 4)


def test_row_reduce_gf4_dependent_pair():
    # (1, w^2) = w^2 * (w, 1)
    basis, rank = row_reduce(field(2), [(2, 1), (1, 3)])
    assert rank == 1


def test_row_reduce_canonical_under_row_ops():
    f = field(2)
    rng = np.random.default_rng(17)
    rows = _random_rows(f, rng, 3, 6)
    ref, _ = row_reduce(f, rows)
    for _ in range(10):
        mixed = []
        for r in rows:
            acc = [0] * 6
            for c, row in zip(rng.integers(0, f.q, len(rows)), rows):
                if c:
                    acc = [a ^ f.mul(int(c), v) for a, v in zip(acc, row)]
            mixed.append(tuple(acc))
        mixed.extend(rows)
        again, _ = row_reduce(f, mixed)
        assert again == ref and hash(again) == hash(ref)


def test_code_basis_equality_and_hash():
    # two generator sets of one span are one canonical basis
    f = field(2)
    a = CodeBasis.from_rows(f, [(1, 2, 0, 3), (0, 1, 1, 1)])
    b = CodeBasis.from_rows(f, np.array([(1, 3, 1, 2), (2, 2, 1, 0), (0, 0, 0, 0)]))  # a1 + a2, w a1 + a2
    assert a == b and hash(a) == hash(b)
    assert a.rows.tolist() == b.rows.tolist() and a.pivots == b.pivots
    # the same entries over another field, or in another width, are another subspace
    assert a != CodeBasis.from_rows(field(3), a.rows)
    assert a != CodeBasis.from_rows(f, [r + [0, 0] for r in a.rows.tolist()]) and a != CodeBasis.zero(f, 4)
    assert CodeBasis.zero(f, 4) != CodeBasis.zero(f, 6)
    with pytest.raises(ValueError, match="read-only"):
        a.rows[0, 0] = 0

# ---------------------------------------------------------------------------
# form and weight
# ---------------------------------------------------------------------------

def test_form_single_cross_term():
    assert symplectic_form(field(1), (1, 0, 0, 0), (0, 0, 1, 0)) == 1


def test_form_alternating_random():
    rng = np.random.default_rng(2)
    for q_deg in (1, 2, 3):
        f = field(q_deg)
        for _ in range(50):
            x = tuple(int(v) for v in rng.integers(0, f.q, 8))
            y = tuple(int(v) for v in rng.integers(0, f.q, 8))
            assert symplectic_form(f, x, x) == 0
            assert symplectic_form(f, x, y) == symplectic_form(f, y, x)  # -1 = 1


def test_form_gf4_example():
    assert symplectic_form(field(2), (2, 0), (0, 2)) == 3  # w * w = w^2


def test_form_length_checks():
    with pytest.raises(ValueError):
        symplectic_form(field(1), (1, 0), (1, 0, 0, 0))
    with pytest.raises(ValueError):
        symplectic_form(field(1), (1, 0, 0), (1, 0, 0))


def test_weight_examples():
    assert symplectic_weight((0, 0, 0, 0, 0, 0)) == 0
    assert symplectic_weight((1, 0, 0, 0, 1, 0)) == 2
    assert symplectic_weight((2, 3, 1, 0)) == 2


def test_weight_vs_hamming():
    rng = np.random.default_rng(4)
    f = field(2)
    for _ in range(100):
        x = tuple(int(v) for v in rng.integers(0, f.q, 10))
        sw = symplectic_weight(x)
        hw = sum(1 for v in x if v)
        assert sw <= hw <= 2 * sw


# ---------------------------------------------------------------------------
# duals and containment
# ---------------------------------------------------------------------------

def test_dual_trivial_cases():
    f = field(1)
    full = CodeBasis.from_rows(f, [(1, 0), (0, 1)], 2)
    assert symplectic_dual(full).rank == 0
    zero = CodeBasis.zero(f, 2)
    assert symplectic_dual(zero).rank == 2
    line = CodeBasis.from_rows(f, [(1, 0)], 2)
    assert symplectic_dual(line).rows.tolist() == [[1, 0]]


def test_dual_matches_naive_scan():
    rng = np.random.default_rng(7)
    for q_deg, width in ((1, 6), (2, 4)):
        f = field(q_deg)
        for _ in range(5):
            rows = _random_rows(f, rng, 2, width)
            C = CodeBasis.from_rows(f, rows, width)
            D = symplectic_dual(C)
            assert C.rank + D.rank == width
            assert span_vectors(f, D.rows.tolist(), width) == naive_symplectic_dual(f, C.rows.tolist(), width)
            assert symplectic_dual(D) == C  # double dual


@lru_cache(maxsize=None)
def _descended_codes() -> tuple[CodeBasis, ...]:
    """C(G) and C(H) of curve codes descended to GF(2) or GF(4)."""
    out = []
    for kind, q, j, base in (("hermitian", 2, 1, 1), ("rational", 4, 1, 1), ("rational", 8, 2, 1),
                             ("rational", 16, 3, 2), ("hermitian", 4, 1, 1), ("hermitian", 4, 5, 2)):
        down = artifact.descend_artifact(artifact.construct_artifact(kind, q, j), base)
        out.extend(CodeBasis.from_rows(down.field, rows, down.width) for rows in (down.c_g_rows, down.c_h_rows))
    return tuple(out)


@st.composite
def dual_inputs(draw):
    """A basis over GF(2), GF(4), GF(16) or GF(512): random rows of any rank, the
    zero basis, a full-rank basis, or a descended curve code."""
    shape = draw(st.sampled_from(("random", "zero", "full", "descended")))
    if shape == "descended":
        return draw(st.sampled_from(_descended_codes()))
    f = field(draw(st.sampled_from((1, 2, 4, 9))))
    width = 2 * draw(st.integers(1, 6))
    entry = st.integers(0, f.q - 1)
    if shape == "zero":
        return CodeBasis.zero(f, width)
    if shape == "random":
        k = draw(st.integers(0, width + 1))
        rows = draw(st.lists(st.lists(entry, min_size=width, max_size=width), min_size=k, max_size=k))
        return CodeBasis.from_rows(f, rows, width)
    # full rank: unit lower-triangular rows under a column permutation
    perm = draw(st.permutations(range(width)))
    rows = [[1 if c == r else draw(entry) if c < r else 0 for c in perm] for r in range(width)]
    C = CodeBasis.from_rows(f, rows, width)
    assert C.rank == width
    return C


@settings(max_examples=200)
@given(dual_inputs())
def test_one_reduction_dual_matches_its_definition(C):
    assert symplectic_dual(C) == two_reduction_symplectic_dual(C)


def test_dual_differential_tells_the_swap_apart():
    # the unswapped kernel (the Euclidean dual) differs from the symplectic dual on
    # most bases; on these the differential above fails for a dual without the swap
    f = field(2)
    for C in (CodeBasis.from_rows(f, [(1, 0)], 2), CodeBasis.from_rows(f, [(1, 2, 0, 3)], 4), *_descended_codes()[:2]):
        euclidean = CodeBasis.from_rows(C.field, linalg._nullspace_rows(C.rows, C.pivots, C.width), C.width)
        assert euclidean != two_reduction_symplectic_dual(C)


def test_contains():
    f = field(1)
    C = CodeBasis.from_rows(f, [(1, 0), (0, 1)], 2)
    D = CodeBasis.from_rows(f, [(1, 0)], 2)
    assert contains(C, C)
    assert contains(C, D)
    assert not contains(D, C)
    E = CodeBasis.from_rows(f, [(0, 1)], 2)
    assert not contains(D, E)


# ---------------------------------------------------------------------------
# relative minimum weight
# ---------------------------------------------------------------------------

def test_relative_weight_trivial():
    f = field(1)
    full = CodeBasis.from_rows(f, [(1, 0), (0, 1)], 2)
    zero = CodeBasis.zero(f, 2)
    res = relative_min_weight(full, zero)
    assert res.status == "exact" and res.weight == 1
    assert relative_min_weight(full, full).status == "empty"


def test_relative_weight_requires_containment():
    f = field(1)
    C = CodeBasis.from_rows(f, [(1, 0, 0, 0)], 4)
    D = CodeBasis.from_rows(f, [(0, 1, 0, 0)], 4)
    with pytest.raises(ValueError):
        relative_min_weight(C, D)


def test_relative_weight_matches_naive():
    rng = np.random.default_rng(23)
    f = field(2)
    width = 6
    done = 0
    while done < 8:
        c_rows = _random_rows(f, rng, 3, width)
        C = CodeBasis.from_rows(f, c_rows, width)
        sub = C.rows[: max(1, C.rank - 1)].tolist()
        D = CodeBasis.from_rows(f, sub, width) if sub else CodeBasis.zero(f, width)
        if C.rank == D.rank:
            continue
        done += 1
        expected = naive_relative_min_weight(f, C.rows.tolist(), D.rows.tolist(), width)
        got = relative_min_weight(C, D)
        assert got.status == "exact" and got.weight == expected


def test_budget_agrees_with_exact():
    rng = np.random.default_rng(31)
    f = field(2)
    width = 8
    done = 0
    while done < 8:
        C = CodeBasis.from_rows(f, _random_rows(f, rng, 4, width), width)
        D = CodeBasis.from_rows(f, C.rows[:2], width) if C.rank >= 2 else None
        if D is None or C.rank == D.rank:
            continue
        done += 1
        exact = relative_min_weight(C, D, mode="exact")
        sweep = relative_min_weight(C, D, budget=width // 2, mode="budget")
        assert sweep.status == "exact" and sweep.weight == exact.weight


def test_budget_verdict_when_exhausted():
    f = field(2)
    # the repetition-style space span{(1,1,1,1)} relative to zero has weight 2
    C = CodeBasis.from_rows(f, [(1, 1, 1, 1)], 4)
    D = CodeBasis.zero(f, 4)
    res = relative_min_weight(C, D, budget=1, mode="budget")
    assert res.status == "at-least" and res.floor == 2


def test_min_hamming_weight_matches_naive():
    rng = np.random.default_rng(41)
    f = field(2)
    width = 6
    for _ in range(5):
        C = CodeBasis.from_rows(f, _random_rows(f, rng, 2, width), width)
        if C.rank == 0:
            continue
        words = span_vectors(f, C.rows.tolist(), width) - {(0,) * width}
        expected = min(sum(1 for v in w if v) for w in words)
        assert min_hamming_weight(C) == expected


# ---------------------------------------------------------------------------
# stabilizer parameters
# ---------------------------------------------------------------------------

def test_params_full_binary_space():
    f = field(1)
    C = CodeBasis.from_rows(f, [(1, 0), (0, 1)], 2)
    p = stabilizer_params(C)
    assert (p.n, p.k, p.d_exact, p.t) == (1, 1, 1, 0)


def test_params_rejects_non_containing():
    f = field(1)
    C = CodeBasis.from_rows(f, [(1, 0, 0, 0), (0, 0, 1, 0)], 4)
    with pytest.raises(ValueError, match="self-orthogonal"):
        stabilizer_params(C)


def test_params_zero_k_convention():
    f = field(1)
    C = CodeBasis.from_rows(f, [(1, 0)], 2)  # self-dual line, k = 0
    p = stabilizer_params(C)
    assert p.k == 0 and p.empty_difference
    assert p.zero_k_min_weight == 1
    assert p.d is None and p.t is None


def test_params_exact_bound_consistency():
    f = field(1)
    C = CodeBasis.from_rows(f, [(1, 0), (0, 1)], 2)
    with pytest.raises(ValueError):
        stabilizer_params(C, d_lower=5)  # claimed bound above the exact minimum


def test_params_distance_modes():
    f = field(1)
    C = CodeBasis.from_rows(f, [(1, 0), (0, 1)], 2)
    p = stabilizer_params(C, distance="none", d_lower=1)
    assert p.d_exact is None and p.d_lower == 1 and p.t == 0
    p = stabilizer_params(C, distance="budget", budget=1)
    assert p.d_exact == 1
    # an exhausted budget upgrades the lower bound instead
    f4 = field(2)
    from agstab.curves import RationalBackend, build_codes

    backend = RationalBackend(8)
    cg, _ = build_codes(backend, 1)
    p = stabilizer_params(cg, distance="budget", budget=1)
    assert p.d_exact is None and p.d_lower == 2
    with pytest.raises(ValueError):
        stabilizer_params(C, distance="budget")  # budget mode without a budget
    with pytest.raises(ValueError):
        stabilizer_params(C, distance="sideways")


def test_swap_halves():
    assert swap_halves((1, 2, 3, 4)) == (3, 4, 1, 2)

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agstab import artifact, linalg
from agstab.gf import field
from agstab.symplectic import (
    CodeBasis,
    MinWeightResult,
    contains,
    min_hamming_weight,
    relative_min_weight,
    sweep_min_weight,
    symplectic_dual,
    symplectic_weight,
    syndrome_of,
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
    basis = CodeBasis.from_rows(field(1), [(1, 1), (1, 1)], 2)
    assert basis.rank == 1 and basis.rows.tolist() == [[1, 1]]


def test_row_reduce_empty():
    basis = CodeBasis.from_rows(field(1), [], 4)
    assert basis.rank == 0 and basis.rows.shape == (0, 4)


def test_row_reduce_gf4_dependent_pair():
    # (1, w^2) = w^2 * (w, 1)
    assert CodeBasis.from_rows(field(2), [(2, 1), (1, 3)], 2).rank == 1


def test_row_reduce_canonical_under_row_ops():
    f = field(2)
    rng = np.random.default_rng(17)
    rows = _random_rows(f, rng, 3, 6)
    ref = CodeBasis.from_rows(f, rows, 6)
    for _ in range(10):
        mixed = []
        for r in rows:
            acc = [0] * 6
            for c, row in zip(rng.integers(0, f.q, len(rows)), rows):
                if c:
                    acc = [a ^ f.mul(int(c), v) for a, v in zip(acc, row)]
            mixed.append(tuple(acc))
        mixed.extend(rows)
        again = CodeBasis.from_rows(f, mixed, 6)
        assert again == ref and hash(again) == hash(ref)


def test_code_basis_equality_and_hash():
    # two generator sets of one span are one canonical basis
    f = field(2)
    a = CodeBasis.from_rows(f, [(1, 2, 0, 3), (0, 1, 1, 1)], 4)
    b = CodeBasis.from_rows(f, np.array([(1, 3, 1, 2), (2, 2, 1, 0), (0, 0, 0, 0)]), 4)  # a1 + a2, w a1 + a2
    assert a == b and hash(a) == hash(b)
    assert a.rows.tolist() == b.rows.tolist() and a.pivots == b.pivots
    # the same entries over another field, or in another width, are another subspace
    assert a != CodeBasis.from_rows(field(3), a.rows, 4)
    assert a != CodeBasis.from_rows(f, [r + [0, 0] for r in a.rows.tolist()], 6) and a != CodeBasis.zero(f, 4)
    assert CodeBasis.zero(f, 4) != CodeBasis.zero(f, 6)
    with pytest.raises(ValueError, match="read-only"):
        a.rows[0, 0] = 0
    # equal pivots hash alike, and the rows tell the bases apart
    c = CodeBasis.from_rows(f, [(1, 0, 0, 3), (0, 1, 1, 1)], 4)
    assert a.pivots == c.pivots and hash(a) == hash(c) and a != c


def test_hashing_and_comparing_a_basis_holds_no_copy_of_its_rows():
    # the closed-form C(H) of rational q=512 j=4, and an equal basis that shares no array with it
    import tracemalloc

    from agstab import decoder
    from agstab.curves import PowerBasis, make_backend, power_basis

    backend = make_backend("rational", 512)
    a = power_basis(backend.field, backend.places[:, 0], backend.n - 4)
    b = CodeBasis(a.field, a.width, a.rows.copy(), a.pivots)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert hash(a) == hash(b) and a == b and {a: "memo"}[b] == "memo"
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert a.rows.nbytes == 252 * 512 * 2 and held < a.rows.nbytes // 16
    # a power basis compares and hashes as its rows do, so the decoder's memo keyed on the basis
    # still hits for an equal copy
    c = PowerBasis(a.field, a.width, a.rows.copy(), a.pivots, a.points)
    decoder._power_sums.cache_clear()
    assert decoder._power_sums(a) is decoder._power_sums(c)
    assert decoder._power_sums.cache_info()[:2] == (1, 1)
    decoder._power_sums.cache_clear()

# ---------------------------------------------------------------------------
# form and weight: <x, y> is the syndrome of x against the one row y
# ---------------------------------------------------------------------------

def test_form_single_cross_term():
    assert syndrome_of(field(1), (1, 0, 0, 0), [(0, 0, 1, 0)]) == (1,)


def test_form_alternating_random():
    rng = np.random.default_rng(2)
    for q_deg in (1, 2, 3):
        f = field(q_deg)
        for _ in range(50):
            x = tuple(int(v) for v in rng.integers(0, f.q, 8))
            y = tuple(int(v) for v in rng.integers(0, f.q, 8))
            assert syndrome_of(f, x, [x]) == (0,)
            assert syndrome_of(f, x, [y]) == syndrome_of(f, y, [x])  # -1 = 1


def test_form_gf4_example():
    assert syndrome_of(field(2), (2, 0), [(0, 2)]) == (3,)  # w * w = w^2


def test_form_length_checks():
    with pytest.raises(ValueError):
        syndrome_of(field(1), (1, 0), [(1, 0, 0, 0)])
    with pytest.raises(ValueError):
        syndrome_of(field(1), (1, 0, 0), [(1, 0, 0)])


def test_syndrome_of_typed_and_untyped_rows():
    # a check matrix already in the field's dtype is read as it is; any other form is
    # converted first, and every form gives the same syndrome or the same ValueError
    f = field(2)
    rng = np.random.default_rng(8)
    B = rng.integers(0, f.q, (5, 8)).astype(f.log_antilog[1].dtype)
    B.setflags(write=False)
    assert linalg._as_array(f, B, 8) is B
    v = tuple(int(x) for x in rng.integers(0, f.q, 8))
    expected = tuple(
        np.bitwise_xor.reduce([f.mul(v[i], int(b[(i + 4) % 8])) for i in range(8)]).item() for b in B)
    for rows in (B, B.astype(np.int64), B.tolist(), [tuple(r) for r in B.tolist()], list(B)):
        assert syndrome_of(f, v, rows) == expected
    bad = B.copy()
    bad[3, 6] = 4
    for rows in (bad, bad.astype(np.int64), bad.tolist()):
        with pytest.raises(ValueError, match=r"^dual row 3: 4 is not an element of GF\(2\^2\): "
                                             r"expected an integer in \[0, 4\)$"):
            syndrome_of(f, v, rows)
    with pytest.raises(ValueError, match=r"^dual row 0: -1 is not an element"):
        syndrome_of(f, v, [[-1] + [0] * 7])
    with pytest.raises(ValueError, match=r"^dual row 2 has length 7, expected 8$"):
        syndrome_of(f, v, B.tolist()[:2] + [B.tolist()[2][:7]])
    with pytest.raises(ValueError, match=r"^dual the rows do not form a 5 x 8 integer matrix$"):
        syndrome_of(f, v, B.astype(np.float64))


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
        exact = relative_min_weight(C, D)    # q^dim <= 4^4: "auto" runs the exact sweep
        sweep = relative_min_weight(C, D, budget=width // 2, mode="budget")
        assert sweep.status == "exact" and sweep.weight == exact.weight


def test_budget_verdict_when_exhausted():
    f = field(2)
    # the repetition-style space span{(1,1,1,1)} relative to zero has weight 2
    C = CodeBasis.from_rows(f, [(1, 1, 1, 1)], 4)
    D = CodeBasis.zero(f, 4)
    res = relative_min_weight(C, D, budget=1, mode="budget")
    assert res.status == "at-least" and res.floor == 2


def test_budget_mode_needs_a_budget():
    # q^dim = 4 is far below the cap: the refusal is about the missing budget, not the cap
    f = field(2)
    C = CodeBasis.from_rows(f, [(1, 1, 1, 1)], 4)
    with pytest.raises(ValueError, match='^mode "budget" needs a budget$'):
        relative_min_weight(C, CodeBasis.zero(f, 4), mode="budget")
    # the sweep says so itself, not that q^dim exceeds the cap
    with pytest.raises(ValueError, match='^mode "budget" needs a budget$'):
        sweep_min_weight(f, symplectic_dual(C).rows, symplectic_dual(CodeBasis.zero(f, 4)).rows, 4, mode="budget")
    assert relative_min_weight(C, CodeBasis.zero(f, 4)).weight == 2    # "auto" needs none here


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
# [[n, k, d]] as verify_artifact reads it: n and k from the ranks, d as the
# minimum weight over C \ C^perp
# ---------------------------------------------------------------------------

def test_params_full_binary_space():
    f = field(1)
    C = CodeBasis.from_rows(f, [(1, 0), (0, 1)], 2)
    dual = symplectic_dual(C)
    assert (C.width // 2, C.rank - C.width // 2, dual.rank) == (1, 1, 0)
    assert relative_min_weight(C, dual) == MinWeightResult(status="exact", weight=1)  # [[1, 1, 1]]


def test_params_rejects_non_containing():
    f = field(1)
    C = CodeBasis.from_rows(f, [(1, 0, 0, 0), (0, 0, 1, 0)], 4)
    assert not contains(C, symplectic_dual(C))
    with pytest.raises(ValueError, match="^D must be a subspace of C$"):
        relative_min_weight(C, symplectic_dual(C))


def test_params_zero_k_convention():
    # k = 0: C = C^perp, so C \ C^perp is empty and d is undefined; the minimum
    # nonzero weight of C itself is the search against the zero code
    f = field(1)
    C = CodeBasis.from_rows(f, [(1, 0)], 2)
    assert symplectic_dual(C) == C
    assert relative_min_weight(C, C).status == "empty"
    assert relative_min_weight(C, CodeBasis.zero(f, 2)).weight == 1


def test_params_distance_modes():
    # rational q=8 j=1, [[4, 1, 2]]: the exact sweep, and the budget sweep below and at d
    from agstab.curves import RationalBackend, build_codes

    cg, ch = build_codes(RationalBackend(8), 1)
    assert relative_min_weight(cg, ch) == MinWeightResult(status="exact", weight=2)
    assert relative_min_weight(cg, ch, budget=1, mode="budget") == MinWeightResult(status="at-least", floor=2)
    assert relative_min_weight(cg, ch, budget=2, mode="budget") == MinWeightResult(status="exact", weight=2)

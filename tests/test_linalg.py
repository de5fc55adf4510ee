"""Differential tests for linalg: both elimination arms, log/antilog over
GF(2^r) with r > 1 and packed rows over GF(2), against the plain-Python
reference elimination ``linalg._rref_scalar`` and the brute-force span
oracle, on random small matrices over GF(2^r) and random binary matrices
up to 130 columns wide."""

from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agstab import linalg
from agstab.curves import HermitianBackend, RationalBackend, evaluation_matrix
from agstab.gf import field
from agstab.symplectic import CodeBasis
from conftest import span_vectors

DEGREES = (1, 2, 4, 8, 9, 16)
ORACLE_SIZE = 4096  # largest space the brute-force oracles walk

FUZZ = settings(max_examples=150)


@st.composite
def matrices(draw, square=False):
    """(field, rows, width) with zero rows, repeated rows and sparse entries mixed in."""
    f = field(draw(st.sampled_from(DEGREES)))
    width = draw(st.integers(1, 5))
    nrows = width if square else draw(st.integers(0, 5))
    entry = st.one_of(st.just(0), st.just(1), st.integers(0, f.q - 1))
    rows = draw(st.lists(st.lists(entry, min_size=width, max_size=width),
                         min_size=nrows, max_size=nrows))
    shape = draw(st.sampled_from(("random", "zero-row", "repeat", "all-zero")))
    if rows and shape == "zero-row":
        rows[draw(st.integers(0, nrows - 1))] = [0] * width
    elif nrows >= 2 and shape == "repeat":
        rows[-1] = list(rows[0])
    elif shape == "all-zero":
        rows = [[0] * width for _ in rows]
    return f, rows, width


def reference_rref(f, rows, width):
    """``linalg._rref_scalar`` on plain int rows, as (R.tolist(), pivots)."""
    out, pivots = linalg._rref_scalar(f, np.array(rows, dtype=np.int64).reshape(len(rows), width).tolist(), width)
    return out, tuple(pivots)


def as_lists(result):
    """An rref result (R, pivots) in the form ``reference_rref`` gives."""
    R, pivots = result
    return R.tolist(), pivots


def apply(f, rows, x):
    """M x^T by scalar arithmetic."""
    out = []
    for row in rows:
        acc = 0
        for a, b in zip(row, x):
            acc ^= f.mul(a, b)
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# rref and rank
# ---------------------------------------------------------------------------

@FUZZ
@given(matrices())
def test_rref_matches_scalar_reference(case):
    f, rows, width = case
    R, pivots = linalg.rref(f, rows, width)
    assert (R.tolist(), pivots) == reference_rref(f, rows, width)
    assert R.shape == (len(pivots), width) and R.dtype == f.log_antilog[1].dtype
    if f.q ** len(rows) <= ORACLE_SIZE:
        assert span_vectors(f, R.tolist(), width) == span_vectors(f, rows, width)


@FUZZ
@given(matrices(), st.sampled_from((np.int64, np.uint16)))
def test_array_input_matches_list_input(case, dtype):
    # a 2-D array is taken as it is, with no truth-value test on it
    f, rows, width = case
    A = np.array(rows, dtype=dtype).reshape(len(rows), width)
    assert as_lists(linalg.rref(f, A, width)) == as_lists(linalg.rref(f, rows, width))
    assert CodeBasis.from_rows(f, A, width) == CodeBasis.from_rows(f, rows, width)
    R, pivots = linalg.rref(f, rows, width)
    assert list(linalg.row_in_span(f, R, pivots, A)) == list(linalg.row_in_span(f, R, pivots, rows))


def test_array_input_examples():
    f = field(2)
    A = np.array([[1, 2, 3], [0, 1, 1]])
    assert as_lists(linalg.rref(f, A, 3)) == as_lists(linalg.rref(f, A.tolist(), 3)) == ([[1, 0, 1], [0, 1, 1]], (0, 1))
    empty = np.zeros((0, 6), dtype=np.uint8)
    R, pivots = linalg.rref(f, empty, 6)
    assert R.shape == (0, 6) and pivots == ()
    assert CodeBasis.from_rows(f, empty, 6) == CodeBasis.zero(f, 6)
    assert linalg.row_in_span(f, (), (), empty).shape == (0,)


def test_rref_leaves_input_alone():
    f = field(9)
    rows = [[3, 5, 0], [7, 1, 511]]
    snapshot = [list(r) for r in rows]
    linalg.rref(f, rows, 3)
    assert rows == snapshot
    # an array in the field's dtype reaches the elimination uncopied by _as_array
    for f, rows in ((f, rows), (field(1), [[1, 1, 0], [0, 1, 1]])):
        A = np.array(rows, dtype=f.log_antilog[1].dtype)
        R, pivots = linalg.rref(f, A[:1], 3)
        linalg.rref(f, A, 3)
        linalg.row_in_span(f, R, pivots, A)
        assert A.tolist() == rows


@FUZZ
@given(matrices(), st.data())
def test_row_in_span_matches_the_span(case, data):
    f, rows, width = case
    R, pivots = linalg.rref(f, rows, width)
    probes = data.draw(st.lists(st.lists(st.integers(0, f.q - 1), min_size=width, max_size=width),
                                max_size=4))
    probes += [list(r) for r in rows]
    got = linalg.row_in_span(f, R, pivots, probes)
    assert got.shape == (len(probes),) and got[len(probes) - len(rows):].all()
    if f.q ** len(R) <= ORACLE_SIZE:
        span = span_vectors(f, R.tolist(), width)
        assert list(got) == [tuple(p) in span for p in probes]


# ---------------------------------------------------------------------------
# tall matrices and evaluation slices
# ---------------------------------------------------------------------------

@st.composite
def tall_matrices(draw):
    """(field, rows, width) with more rows than the field has nonzero elements."""
    f = field(draw(st.sampled_from((1, 2, 4))))
    width = draw(st.integers(1, 8))
    nrows = draw(st.integers(f.q, 24))
    entry = st.one_of(st.just(0), st.just(1), st.integers(0, f.q - 1))
    rows = draw(st.lists(st.lists(entry, min_size=width, max_size=width), min_size=nrows, max_size=nrows))
    return f, rows, width


@FUZZ
@given(tall_matrices())
def test_rref_and_span_past_q_minus_1_rows(case):
    # a pivot that hits more than q - 1 rows gathers from its q - 1 multiples
    f, rows, width = case
    R, pivots = linalg.rref(f, rows, width)
    assert (R.tolist(), pivots) == reference_rref(f, rows, width)
    assert linalg.row_in_span(f, R, pivots, rows).all()
    if len(R) and f.q ** len(R) <= ORACLE_SIZE:
        span = span_vectors(f, R.tolist(), width)
        probes = [[v ^ (c == pivots[-1]) for c, v in enumerate(r)] for r in rows]
        assert list(linalg.row_in_span(f, R, pivots, probes)) == [tuple(p) in span for p in probes]


def test_rref_hermitian_q8_slice():
    # GF(64), 100 rows: the early pivots hit more rows than the 63 multipliers
    backend = HermitianBackend(8)
    rows = evaluation_matrix(backend, 1, "g")[:100]
    width = len(rows[0])
    assert as_lists(linalg.rref(backend.field, rows, width)) == reference_rref(backend.field, rows, width)


def test_rref_q512_evaluation_slice():
    backend = RationalBackend(512)
    rows = evaluation_matrix(backend, 4, "g")[:40]
    width = len(rows[0])
    assert as_lists(linalg.rref(backend.field, rows, width)) == reference_rref(backend.field, rows, width)


# ---------------------------------------------------------------------------
# GF(2): the packed-row arm
# ---------------------------------------------------------------------------

GF2 = field(1)
# widths on both sides of the byte and word boundaries the packed rows cross
BOUNDARY_WIDTHS = (7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 129)
BINARY_SHAPES = ("random", "sparse", "zero-row", "repeat", "all-zero", "full-rank")


@st.composite
def binary_matrices(draw):
    """(rows, width) over GF(2): widths 0..130, up to 20 rows, of one of BINARY_SHAPES.

    The entries come from a numpy generator seeded by the draw, as drawing
    thousands of bits one by one would dominate the test.
    """
    width = draw(st.one_of(st.sampled_from(BOUNDARY_WIDTHS), st.integers(0, 130)))
    shape = draw(st.sampled_from(BINARY_SHAPES))
    nrows = draw(st.integers(0, min(20, width) if shape == "full-rank" else 20))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    M = (rng.random((nrows, width)) < (0.1 if shape == "sparse" else 0.5)).astype(np.uint8)
    if nrows and shape == "zero-row":
        M[rng.integers(nrows)] = 0
    elif nrows >= 2 and shape == "repeat":
        M[rng.integers(1, nrows)] = M[0]
    elif shape == "all-zero":
        M[:] = 0
    elif shape == "full-rank":
        # a 1 at a distinct lead column per row, nothing left of it, rows in any order
        for row, lead in zip(M, rng.permutation(width)[:nrows]):
            row[:lead] = 0
            row[lead] = 1
        M = rng.permutation(M)
    return M.tolist(), width


def binary_in_span(R, probes):
    """Span membership by rank: p lies in the span of R exactly when it adds no rank."""
    width = R.shape[1]
    rank = len(reference_rref(GF2, R.tolist(), width)[1])
    return [len(reference_rref(GF2, R.tolist() + [list(p)], width)[1]) == rank for p in probes]


@FUZZ
@given(binary_matrices())
def test_binary_rref_matches_scalar_reference(case):
    rows, width = case
    R, pivots = linalg.rref(GF2, rows, width)
    assert (R.tolist(), pivots) == reference_rref(GF2, rows, width)
    assert R.shape == (len(pivots), width) and R.dtype == np.uint8 and not R.flags.writeable
    if 2 ** len(rows) <= 256:
        assert span_vectors(GF2, R.tolist(), width) == span_vectors(GF2, rows, width)


@FUZZ
@given(binary_matrices(), st.data())
def test_binary_row_in_span_matches_the_span(case, data):
    rows, width = case
    R, pivots = linalg.rref(GF2, rows, width)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    # the rows themselves, random vectors, and sums of two basis rows (in the span) with and
    # without one bit flipped
    probes = [list(r) for r in rows] + rng.integers(0, 2, (3, width)).tolist()
    for a, b in zip(R, R[1:]):
        total = a ^ b
        probes.append(total.tolist())
        total[rng.integers(width)] ^= 1
        probes.append(total.tolist())
    got = linalg.row_in_span(GF2, R, pivots, probes)
    assert got.shape == (len(probes),) and got[:len(rows)].all()
    if 2 ** len(R) <= 64:
        span = span_vectors(GF2, R.tolist(), width)
        assert list(got) == [tuple(p) in span for p in probes]
    else:
        assert list(got) == binary_in_span(R, probes)


@pytest.mark.parametrize("width", BOUNDARY_WIDTHS)
def test_binary_rank_zero_and_full_rank(width):
    assert linalg.rref(GF2, [[0] * width] * 3, width)[1] == ()
    # the reversed identity: every row a pivot, the rows put back in pivot order
    rows = np.eye(width, dtype=np.uint8)[::-1]
    R, pivots = linalg.rref(GF2, rows, width)
    assert pivots == tuple(range(width)) and np.array_equal(R, np.eye(width))
    # ones on and above the diagonal reduce to the identity by back-substitution alone
    R, pivots = linalg.rref(GF2, np.triu(np.ones((width, width), dtype=np.uint8)), width)
    assert pivots == tuple(range(width)) and np.array_equal(R, np.eye(width))
    assert linalg.row_in_span(GF2, R, pivots, [[1] * width]).all()


def _hermitian_descent_eliminations(monkeypatch):
    """Every GF(2) matrix ``linalg`` reduces in the descent of hermitian q=4 j=5 and its verification."""
    from agstab import artifact

    art = artifact.construct_artifact("hermitian", 4, 5)
    seen = []
    real = linalg._rref_array

    def recording(f, M):
        if f.q == 2:
            seen.append(M.copy())
        return real(f, M)

    monkeypatch.setattr(linalg, "_rref_array", recording)
    down = artifact.descend_artifact(art)
    assert artifact.verify_artifact(down)["ok"]
    return down, seen


def test_binary_descent_matrices_match_scalar_reference(monkeypatch):
    # the n=120 descent: its gamma image (rank 140), the gamma image of the source's dual (rank 100),
    # and in verify, C(H), C(G) and the swapped kernel again
    down, seen = _hermitian_descent_eliminations(monkeypatch)
    assert down.n == 120 and [M.shape for M in seen if M.shape[0] > 8] == [
        (140, 240), (100, 240), (100, 240), (140, 240), (100, 240)]
    monkeypatch.undo()
    for M in seen:
        assert as_lists(linalg.rref(GF2, M, M.shape[1])) == reference_rref(GF2, M.tolist(), M.shape[1])


def test_binary_work_never_reaches_the_log_antilog_kernel(monkeypatch):
    # every output would stay right on the log/antilog loop, so count the calls by field
    calls = Counter()
    real = linalg._eliminate

    def counting(f, *args):
        calls[f.q] += 1
        return real(f, *args)

    monkeypatch.setattr(linalg, "_eliminate", counting)
    rows = [[1, 0, 1, 1, 0, 1, 1, 0, 1], [0, 1, 1, 0, 1, 1, 0, 1, 1], [1, 1, 0, 1, 1, 0, 1, 1, 0]]
    R, pivots = linalg.rref(GF2, rows, 9)
    assert linalg.row_in_span(GF2, R, pivots, rows).all()
    _hermitian_descent_eliminations(monkeypatch)
    assert calls[2] == 0 and calls[16] > 0  # the descent still reduces the GF(16) code itself
    calls.clear()
    linalg.rref(field(4), [[3, 1, 7], [5, 2, 0]], 3)
    assert calls == {16: 2}


# ---------------------------------------------------------------------------
# nullspace, solve, inverse
# ---------------------------------------------------------------------------

@FUZZ
@given(matrices())
def test_nullspace_is_the_canonical_kernel(case):
    f, rows, width = case
    null = linalg.nullspace(f, rows, width)
    ref_rank = len(reference_rref(f, rows, width)[0])
    assert null.shape == (width - ref_rank, width)
    assert null.tolist() == reference_rref(f, null, width)[0]
    assert all(not any(apply(f, rows, v)) for v in null.tolist())
    if rows and f.q ** width <= ORACLE_SIZE:
        kernel = {x for x in product(range(f.q), repeat=width) if not any(apply(f, rows, x))}
        assert span_vectors(f, null.tolist(), width) == kernel


@FUZZ
@given(matrices(), st.data())
def test_solve_matches_reference(case, data):
    f, rows, width = case
    rhs = data.draw(st.lists(st.integers(0, f.q - 1), min_size=len(rows), max_size=len(rows)))
    x, null = linalg.solve(f, rows, width, rhs)
    m_rank = len(reference_rref(f, rows, width)[0])
    aug = [list(r) + [s] for r, s in zip(rows, rhs)]
    consistent = len(reference_rref(f, aug, width + 1)[0]) == m_rank
    if not consistent:
        assert x is None and null.shape == (0, width)
        return
    assert apply(f, rows, x) == list(rhs)
    pivots = set(reference_rref(f, rows, width)[1])
    assert all(x[c] == 0 for c in range(width) if c not in pivots)
    assert null.tolist() == linalg.nullspace(f, rows, width).tolist()


def test_solve_inconsistent_returns_no_nullspace():
    f = field(4)
    x, null = linalg.solve(f, [[1, 2], [1, 2]], 2, [3, 4])
    assert x is None and null.shape == (0, 2)
    with pytest.raises(ValueError):
        linalg.solve(f, [[1, 2]], 2, [3, 4])


@FUZZ
@given(matrices(square=True))
def test_invert_matrix_matches_reference(case):
    f, rows, n = case
    if len(reference_rref(f, rows, n)[0]) < n:
        with pytest.raises(ValueError):
            linalg.invert_matrix(f, rows)
        return
    inv = linalg.invert_matrix(f, rows).tolist()
    identity = np.eye(n, dtype=int).tolist()  # symmetric: its columns are its rows
    assert [apply(f, rows, c) for c in zip(*inv)] == identity
    assert [apply(f, inv, c) for c in zip(*rows)] == identity


def test_returned_matrices_are_read_only():
    f = field(4)
    rows = [[1, 2, 3], [2, 4, 6]]
    matrices = {
        "rref": linalg.rref(f, rows, 3)[0],
        "nullspace": linalg.nullspace(f, rows, 3),
        "solve": linalg.solve(f, rows, 3, [1, 2])[1],
        "invert_matrix": linalg.invert_matrix(f, [[1, 2], [0, 3]]),
        "CodeBasis.rows": CodeBasis.from_rows(f, rows, 3).rows,
    }
    for name, M in matrices.items():
        assert M.ndim == 2 and M.dtype == np.uint8, name
        with pytest.raises(ValueError, match="read-only"):
            M[0, 0] = 7


# ---------------------------------------------------------------------------
# input contract (negative controls)
# ---------------------------------------------------------------------------

BAD_INPUTS = {
    "ragged": lambda q: [[1, 2, 3], [1, 2]],
    "negative": lambda q: [[1, 2, 3], [0, -1, 0]],
    "equal-to-q": lambda q: [[1, 2, 3], [q, 0, 0]],
    "above-q": lambda q: [[1, 2, 3], [0, 0, q + 5]],
}


@pytest.mark.parametrize("kind", sorted(BAD_INPUTS))
@pytest.mark.parametrize("degree", [4, 9])
def test_malformed_rows_rejected(degree, kind):
    f = field(degree)
    rows = BAD_INPUTS[kind](f.q)
    with pytest.raises(ValueError):
        linalg.rref(f, rows, 3)
    with pytest.raises(ValueError):
        linalg.nullspace(f, rows, 3)
    with pytest.raises(ValueError):
        linalg.solve(f, rows, 3, [0, 0])


NOT_IN_GF16 = "is not an element of GF(2^4): expected an integer in [0, 16)"


@pytest.mark.parametrize("rows, message", [
    ([[1, 2, 3], [1, 2]], "row 1 has length 2, expected 3"),
    ([[1, 2, 3, 4]], "row 0 has length 4, expected 3"),
    ([[1, 2, 3], [0, -1, 0]], f"row 1: -1 {NOT_IN_GF16}"),
    ([[1, 2, 3], [16, 0, 0]], f"row 1: 16 {NOT_IN_GF16}"),
    ([[0, 0, 0], [1, 2, 3], [0, 2 ** 70, 0]], f"row 2: 1180591620717411303424 {NOT_IN_GF16}"),
    ([[1, 2, 3], [0, -2 ** 70, 0]], f"row 1: -1180591620717411303424 {NOT_IN_GF16}"),
    ([[1, 2, 3], [0, 2 ** 63, 0]], f"row 1: 9223372036854775808 {NOT_IN_GF16}"),
    ([[-1, 0, 0], [0, 2 ** 63, 0]], f"row 0: -1 {NOT_IN_GF16}"),
    ([[1.5, 0, 0]], "the rows do not form a 1 x 3 integer matrix"),
])
def test_malformed_rows_name_the_row(rows, message):
    with pytest.raises(ValueError) as info:
        linalg.rref(field(4), rows, 3)
    assert str(info.value) == message


@pytest.mark.parametrize("rows, message", [
    ([[1, 0, 1], [0, 1, 1]], "not a 2 x 2 matrix: row 0 has length 3, expected 2"),
    ([[1, 0], [0]], "not a 2 x 2 matrix: row 1 has length 1, expected 2"),
])
def test_invert_matrix_names_the_square_shape(rows, message):
    with pytest.raises(ValueError) as info:
        linalg.invert_matrix(field(2), rows)
    assert str(info.value) == message


def test_row_in_span_blames_the_query_row():
    basis = CodeBasis.from_rows(field(2), [[1, 0, 0, 0]], 4)
    with pytest.raises(ValueError) as info:
        linalg.row_in_span(basis.field, basis.rows, basis.pivots, [[1, 0]])
    assert str(info.value) == "query row 0 has length 2, expected 4"
    with pytest.raises(ValueError, match="query row 1 has length 5, expected 4"):
        linalg.row_in_span(basis.field, basis.rows, basis.pivots, [[0, 0, 0, 1], [0] * 5])

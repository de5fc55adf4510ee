"""Differential tests for linalg: the log/antilog elimination kernel against
the plain-Python reference elimination ``linalg._rref_scalar`` and the
brute-force span oracle, on random small matrices over GF(2^r)."""

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
    assert linalg.rank(f, rows, width) == len(R)
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
        kernel = {x for x in product(f.elements(), repeat=width) if not any(apply(f, rows, x))}
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
        "CodeBasis.rows": CodeBasis.from_rows(f, rows).rows,
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
    basis = CodeBasis.from_rows(field(2), [[1, 0, 0, 0]])
    with pytest.raises(ValueError) as info:
        basis.contains_row([1, 0])
    assert str(info.value) == "query row 0 has length 2, expected 4"
    with pytest.raises(ValueError, match="query row 1 has length 5, expected 4"):
        linalg.row_in_span(basis.field, basis.rows, basis.pivots, [[0, 0, 0, 1], [0] * 5])

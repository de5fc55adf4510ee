"""Dense linear algebra over GF(2^r): reduced row echelon form, nullspace,
span membership and small solves.

A matrix is a 2-D numpy array of field indices in the field's dtype,
uint8 when q <= 256 and uint16 above, and every matrix returned here is
read-only.  Inputs may be any rectangular sequence of integer rows; they
are checked on entry.  Pivoting is leftmost-column, first-nonzero-row,
which makes every reduced form canonical for its row space.

There is one elimination kernel, ``_rref_array``.  It has two arms, and
the field picks the arm, with no flag:

* GF(2^r), r > 1: the elimination runs on one array and multiplies
  through the field's log/antilog arrays (``GF2m.log_antilog``): a row
  update is one gather ``antilog[log[column] + log[pivot row]]``, or,
  when a pivot hits more rows than the field has nonzero multipliers, a
  gather from the pivot row's q - 1 multiples, formed once.  Every such
  gather is ``ndarray.take``: indexing with ``[]`` by an integer array of
  about 10^5 entries, the size of one elimination step, runs numpy's
  general fancy-index path, which is 2-3x slower than ``take`` on the
  same flat table.
* GF(2): a row update is an XOR.  ``_rref_bits`` packs each row once
  into a Python int, column 0 the top bit, inserts the rows into an XOR
  basis keyed by leading bit (the leading bit is the pivot column, so no
  column is scanned), back-substitutes from the rightmost pivot and
  unpacks once.  The rref of a row space is unique, so the rows and
  pivots are those the log/antilog loop would give.

Every code is reduced by one call of ``rref``, the elimination alone;
``row_in_span`` is the reduction alone, one log/antilog update per pivot
over every field, GF(2) included.  ``_rref_scalar`` is the
plain-Python elimination kept as the reference the tests compare both
arms against.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .gf import GF2m, as_elements


def _as_array(field: GF2m, rows: Sequence[Sequence[int]], width: int) -> np.ndarray:
    """The rows as a field-element array; ValueError on ragged, out-of-range or non-integer input.

    Shape and range are checked on one array; only a failing input is
    scanned row by row, to name the offending row and value.  An array
    already in the field's dtype and shape is returned as it is, not copied.
    """
    dtype = field.log_antilog[1].dtype
    if not len(rows):
        return np.zeros((0, width), dtype=dtype)
    try:
        A = np.asarray(rows)
    except ValueError:  # ragged
        A = None
    # one reduction checks the range: the OR of the entries lies in [0, q = 2^r) exactly
    # when every entry does; object (huge ints), float and str arrays are scanned
    if A is None or A.shape != (len(rows), width) or (A.size and not (
            A.dtype.kind in "biu" and 0 <= np.bitwise_or.reduce(A, axis=None) < field.q)):
        for i, r in enumerate(rows):
            if len(r) != width:
                raise ValueError(f"row {i} has length {len(r)}, expected {width}")
            if width and (min(r) < 0 or max(r) >= field.q):
                bad = next(v for v in r if not 0 <= v < field.q)  # worded as in as_elements
                raise ValueError(f"row {i}: {bad} is not an element of {field}: "
                                 f"expected an integer in [0, {field.q})")
        raise ValueError(f"the rows do not form a {len(rows)} x {width} integer matrix")
    return A.astype(dtype, copy=False)


def _eliminate(field: GF2m, M: np.ndarray, hit: np.ndarray, c: int, row_log: np.ndarray) -> None:
    """M[h] -= M[h, c] * (pivot row) for each row h in ``hit``, in place.

    The pivot row is zero left of column c and ``row_log`` holds its logs
    from c on.  When more rows are hit than the field has nonzero
    multipliers, the q - 1 multiples of the pivot row are formed once and
    gathered by each row's factor; otherwise each row's product is formed
    on its own.
    """
    if not hit.size:
        return
    log, antilog = field.log_antilog
    period = field.q - 1
    factors = log.take(M[hit, c])
    if hit.size > period:
        M[hit, c:] ^= antilog.take(np.arange(period)[:, None] + row_log).take(factors, axis=0)
    else:
        M[hit, c:] ^= antilog.take(factors[:, None] + row_log)


def _rref_array(field: GF2m, M: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduce M; returns its nonzero rows and the pivot columns.

    Over GF(2) the rows go through ``_rref_bits`` and M is left alone;
    over every larger field M is reduced in place.
    """
    if field.q == 2:
        return _rref_bits(M)
    log, antilog = field.log_antilog
    period = field.q - 1
    nrows, width = M.shape
    pivots: list[int] = []
    r = 0
    for c in range(width):
        if r == nrows:
            break
        nz = np.flatnonzero(M[r:, c])
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            M[[r, p]] = M[[p, r]]
        # the pivot row is zero left of c, so only columns c.. change
        row_log = log.take(M[r, c:])
        if row_log[0]:  # lead != 1: scale the row by lead^-1 = g^(period - log lead)
            row_log = row_log + (period - row_log[0])
            M[r, c:] = antilog.take(row_log)
        col = M[:, c].copy()
        col[r] = 0
        _eliminate(field, M, np.flatnonzero(col), c, row_log)
        pivots.append(c)
        r += 1
    return M[:r], pivots


def _rref_bits(M: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The rref of a 0/1 matrix on its rows packed into Python ints, column 0 the top bit.

    Each row is reduced into an XOR basis keyed by leading bit, which is
    its pivot column; then, from the rightmost pivot leftwards, each basis
    row is cleared by the already reduced rows whose pivots it holds.
    """
    nrows, width = M.shape
    nbytes = -(-width // 8)
    if not nrows or not width:
        return M[:0], []
    data = np.packbits(M, axis=1).tobytes()
    basis: dict[int, int] = {}  # leading bit -> row
    for i in range(0, len(data), nbytes):
        v = int.from_bytes(data[i:i + nbytes], "big")
        while v:
            lead = v.bit_length() - 1
            if lead not in basis:
                basis[lead] = v
                break
            v ^= basis[lead]
    mask = 0  # the pivot bits of the rows reduced so far, each zero at every other pivot
    for lead in sorted(basis):
        v = basis[lead]
        hits = v & mask
        while hits:
            bit = hits.bit_length() - 1
            v ^= basis[bit]
            hits ^= 1 << bit
        basis[lead] = v
        mask |= 1 << lead
    leads = sorted(basis, reverse=True)
    packed = b"".join(basis[lead].to_bytes(nbytes, "big") for lead in leads)
    R = np.unpackbits(np.frombuffer(packed, dtype=np.uint8).reshape(len(leads), nbytes), axis=1, count=width)
    return R, [8 * nbytes - 1 - lead for lead in leads]


def _rref_scalar(field: GF2m, rows: list[list[int]], width: int) -> tuple[list[list[int]], list[int]]:
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(width):
        if r == nrows:
            break
        p = next((k for k in range(r, nrows) if rows[k][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        lead = rows[r][c]
        if lead != 1:
            inv = field.inv(lead)
            rows[r] = [field.mul(inv, v) for v in rows[r]]
        for k in range(nrows):
            f = rows[k][c]
            if k != r and f:
                rk, rr = rows[k], rows[r]
                rows[k] = [rk[i] ^ field.mul(f, rr[i]) for i in range(width)]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def rref(field: GF2m, rows: Sequence[Sequence[int]], width: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Canonical reduced row echelon form of the row space, as a read-only
    (rank, width) array, plus the pivot columns.

    Raises ValueError on ragged rows or on entries outside [0, q).
    """
    M = _as_array(field, rows, width)
    M = M.copy() if M is rows else M  # reduced in place below
    R, pivots = _rref_array(field, M)
    R.setflags(write=False)
    return R, tuple(pivots)


def nullspace(field: GF2m, rows: Sequence[Sequence[int]], width: int) -> np.ndarray:
    """Canonical basis of {x : M x^T = 0}, as rref rows."""
    R, pivots = rref(field, rows, width)
    return rref(field, _nullspace_rows(R, pivots, width), width)[0]


def _nullspace_rows(R: np.ndarray, pivots: Sequence[int], width: int) -> np.ndarray:
    """One kernel vector per free column, from rref rows whose pivots all lie below ``width``.

    Vector f is 1 at free column f and R[i, f] at pivot column i (-R[i, f]
    in characteristic 2), so the vectors are independent, but they are not
    reduced.
    """
    free = np.delete(np.arange(width), pivots)
    N = np.zeros((len(free), width), dtype=R.dtype)
    N[np.arange(len(free)), free] = 1
    N[:, list(pivots)] = R[:, free].T
    return N


def row_in_span(field: GF2m, basis: np.ndarray, pivots: Sequence[int], rows: Sequence[Sequence[int]]) -> np.ndarray:
    """For each of ``rows``, whether it reduces to zero against a canonical
    rref basis (an array as ``rref`` returns it).

    Returns a bool array with one entry per row.  ValueError, naming the
    query row, when a row is not as wide as the basis.
    """
    if not len(rows):
        return np.ones(0, dtype=bool)
    try:
        V = _as_array(field, rows, basis.shape[1])
    except ValueError as exc:
        raise ValueError(f"query {exc}") from None
    V = V.copy() if V is rows else V  # reduced in place below
    R_log = field.log_antilog[0].take(basis)
    for i, p in enumerate(pivots):  # basis row i is zero left of its pivot p
        _eliminate(field, V, np.flatnonzero(V[:, p]), p, R_log[i, p:])
    return ~V.any(axis=1)


def solve(
    field: GF2m,
    rows: Sequence[Sequence[int]],
    width: int,
    rhs: Sequence[int],
) -> tuple[tuple[int, ...] | None, np.ndarray]:
    """Solve M x^T = rhs.

    Returns (particular solution with free coordinates zero, canonical
    nullspace basis of M).  An inconsistent system returns None and an
    empty (0, width) array: no nullspace is computed for it.
    """
    if len(rhs) != len(rows):
        raise ValueError("right-hand side length does not match the row count")
    aug = np.column_stack([_as_array(field, rows, width), as_elements(field, rhs)])
    R, pivots = rref(field, aug, width + 1)
    if width in pivots:
        return None, R[:0, :width]
    x = np.zeros(width, dtype=R.dtype)
    x[list(pivots)] = R[:, width]
    # with no pivot in the rhs column, the first ``width`` columns of R are rref(M)
    return tuple(x.tolist()), rref(field, _nullspace_rows(R, pivots, width), width)[0]


def invert_matrix(field: GF2m, rows: Sequence[Sequence[int]]) -> np.ndarray:
    """Inverse of a square matrix over the field; ValueError when not square or singular."""
    n = len(rows)
    try:
        A = _as_array(field, rows, n)
    except ValueError as exc:
        raise ValueError(f"not a {n} x {n} matrix: {exc}") from None
    R, pivots = rref(field, np.hstack([A, np.eye(n, dtype=A.dtype)]), 2 * n)
    if pivots[:n] != tuple(range(n)):
        raise ValueError("matrix is singular over " + repr(field))
    return R[:, n:]

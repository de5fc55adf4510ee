"""Shared brute-force reference implementations for the test suite.

These are deliberately naive (itertools over whole spaces) so they stay
independent of the library's vectorized paths; keep them on tiny inputs.
"""

from __future__ import annotations

from itertools import product

import numpy as np
from hypothesis import settings

from agstab import linalg
from agstab.gf import GF2m, SubfieldEmbedding
from agstab.symplectic import CodeBasis

# one profile for every property test: reproducible runs, no example
# database and no per-example deadline; each test sets its own max_examples
settings.register_profile("agstab", deadline=None, derandomize=True, database=None)
settings.load_profile("agstab")


def clmul(a, b, modulus: int) -> np.ndarray:
    """a * b in GF(2)[x]/(modulus), elementwise over arrays: the carry-less product, then its
    remainder by long division; it shares no code with ``GF2m``'s interleaved reduction."""
    degree = modulus.bit_length() - 1
    a, b = np.broadcast_arrays(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
    p = np.zeros(a.shape, dtype=np.int64)
    for i in range(degree):
        p ^= np.where((b >> i) & 1, a << i, 0)
    for k in range(2 * degree - 2, degree - 1, -1):
        p ^= np.where((p >> k) & 1, modulus << (k - degree), 0)
    return p


def naive_powers(g: int, modulus: int, count: int) -> np.ndarray:
    """g^0 .. g^(count - 1) by ``clmul``, doubling the run of known powers at each step."""
    powers, step = np.array([1], dtype=np.int64), g  # step is g^len(powers)
    while len(powers) < count:
        powers = np.concatenate((powers, clmul(powers, step, modulus)))
        step = int(clmul(step, step, modulus))
    return powers[:count]


def span_vectors(field: GF2m, rows: list[tuple[int, ...]], width: int) -> set[tuple[int, ...]]:
    """Every linear combination of the rows, as a set of tuples."""
    out = set()
    for coeffs in product(range(field.q), repeat=len(rows)):
        v = [0] * width
        for c, row in zip(coeffs, rows):
            if c:
                for i in range(width):
                    v[i] ^= field.mul(c, row[i])
        out.add(tuple(v))
    return out


def naive_symplectic_form(field: GF2m, x, y) -> int:
    n = len(x) // 2
    acc = 0
    for i in range(n):
        acc ^= field.mul(x[i], y[n + i]) ^ field.mul(x[n + i], y[i])
    return acc


def naive_symplectic_dual(field: GF2m, rows, width) -> set[tuple[int, ...]]:
    """All ambient vectors orthogonal to every row (whole-space scan)."""
    out = set()
    for v in product(range(field.q), repeat=width):
        if all(naive_symplectic_form(field, v, r) == 0 for r in rows):
            out.add(v)
    return out


def two_reduction_symplectic_dual(C: CodeBasis) -> CodeBasis:
    """The symplectic dual by its definition, {x : swap(C) x^T = 0}, the halves of C's rows exchanged:
    reduce the swapped rows, then reduce their kernel vectors."""
    R, pivots = linalg.rref(C.field, np.roll(C.rows, C.width // 2, axis=1), C.width)
    return CodeBasis.from_rows(C.field, linalg._nullspace_rows(R, pivots, C.width), C.width)


def naive_symplectic_weight(x) -> int:
    n = len(x) // 2
    return sum(1 for i in range(n) if x[i] or x[n + i])


def naive_relative_min_weight(field: GF2m, c_rows, d_rows, width) -> int | None:
    """Min symplectic weight over span(C) minus span(D); None when empty."""
    big = span_vectors(field, list(c_rows), width)
    small = span_vectors(field, list(d_rows), width)
    diff = big - small
    if not diff:
        return None
    return min(naive_symplectic_weight(v) for v in diff)


def scalar_r1(m: int, delta: float) -> float:
    return 1.0 - 2.0 / (2**m - 1) - 4.0 * m * delta


def scalar_alt(m: int, delta: float) -> float:
    return 1.0 - (10.0 / 3.0) * m * delta - 2.0 / (2**m - 1)


def scalar_envelope(delta: float, of_m, window, m_cap: int = 30) -> tuple[float, int]:
    """(raw rate, m) of an envelope by scanning m = 2..m_cap for the first window
    holding delta, else the first best line; of_m is ``scalar_r1`` or ``scalar_alt``."""
    for m in range(2, m_cap + 1):
        lo, hi = window(m)
        if lo <= delta <= hi:
            return of_m(m, delta), m
    best = max(range(2, m_cap + 1), key=lambda m: of_m(m, delta))
    return of_m(best, delta), best


def naive_monomial_matrix(field: GF2m, exponents, places) -> list[list[int]]:
    """Each monomial at each place, one scalar pow/mul/inv per factor, as
    lists of rows (the form ``ndarray.tolist`` gives)."""
    rows = []
    for exps in exponents:
        row = []
        for place in np.asarray(places).tolist():
            value = 1
            for e, c in zip(exps, place):
                factor = field.pow(c, e) if e >= 0 else field.inv(field.pow(c, -e))
                value = field.mul(value, factor)
            row.append(value)
        rows.append(row)
    return rows


def naive_places(backend) -> list[tuple[int, ...]]:
    """The point order P_1..P_n, sigma P_1..sigma P_n by scalar arithmetic.

    The places off the divisors' support are every a in GF(q) on the
    rational curve, and every (a, b) with a != 0 and b^q + b = a^(q+1) by
    ``field.pow`` on the hermitian one; sigma adds 1 to x, or the embedded
    gamma to z.  The primaries are the places smaller than their image,
    sorted, and the partners follow in the same order.
    """
    f = backend.field
    if backend.kind == "rational":
        paired = [(a,) for a in range(f.q)]
        shift = (1,)
    else:
        q = backend.q
        norms = [f.pow(a, q + 1) for a in range(f.q)]
        traces = [f.pow(b, q) ^ b for b in range(f.q)]
        paired = [(a, b) for a in range(1, f.q) for b in range(f.q) if traces[b] == norms[a]]
        shift = (0, SubfieldEmbedding(GF2m(f.degree // 2), f).embed(backend.gamma))

    def sigma(place):
        return tuple(c ^ s for c, s in zip(place, shift))

    primaries = sorted(p for p in paired if p < sigma(p))
    return primaries + [sigma(p) for p in primaries]


def naive_trace(view: SubfieldEmbedding, y: int) -> int:
    """y + y^q + .. + y^(q^(m-1)) by scalar powers, projected by scanning the subfield."""
    acc = 0
    for i in range(view.m):
        acc ^= view.ext.pow(y, view.sub.q ** i)
    return next(a for a in range(view.sub.q) if view.embed(a) == acc)


def naive_descend_vector(view: SubfieldEmbedding, basis, vec) -> tuple[int, ...]:
    """gamma(vec), each coordinate found by scanning the q^m coordinate tuples.

    alpha(c) = sum embed(c_i) a_i on the left half; beta(c) = alpha(M c)
    with M[i][j] = Tr(a_i a_j) on the right half.
    """
    sub, ext, m = view.sub, view.ext, view.m
    gram = [[naive_trace(view, ext.mul(a, b)) for b in basis] for a in basis]

    def alpha(c):
        acc = 0
        for ci, a in zip(c, basis):
            acc ^= ext.mul(view.embed(ci), a)
        return acc

    def beta(c):
        mixed = []
        for row in gram:
            acc = 0
            for mij, cj in zip(row, c):
                acc ^= sub.mul(mij, cj)
            mixed.append(acc)
        return alpha(mixed)

    tuples = list(product(range(sub.q), repeat=m))
    n = len(vec) // 2
    left = [next(c for c in tuples if alpha(c) == y) for y in vec[:n]]
    right = [next(c for c in tuples if beta(c) == y) for y in vec[n:]]
    return tuple(x for c in left + right for x in c)

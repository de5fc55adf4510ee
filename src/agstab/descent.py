"""Descent of symplectic codes to a subfield.

A code C inside GF(q^m)^{2n} that contains its symplectic dual is mapped
to a code gamma(C) inside GF(q)^{2mn} with the same property and at least
the same relative minimum weight.  The map expands the left half of every
vector through the coordinate map of a chosen GF(q)-basis {a_1 .. a_m} of
GF(q^m) and the right half through the companion map built from the Gram
matrix M[i][j] = Tr(a_i a_j) of that basis:

    alpha(x) = x_1 a_1 + ... + x_m a_m
    beta(x)  = (a_1 .. a_m) M x

gamma applies alpha^-1 blockwise to coordinates 1..n and beta^-1 to
coordinates n+1..2n, keeping the (left | right) pairing layout, so the
descended vector is again symplectic with n' = m n.

Both inverse maps, the only ones descent needs, are tables built once
per basis: alpha is evaluated on all q^m coordinate tuples in one
log/antilog gather, and scattering each tuple to its image gives the
(q^m, m) table of alpha^-1 (the elements form a basis exactly when that
image is a permutation); beta^-1 is M^-1 applied to it.  Descending a
code is then one gather through the two tables and one reduction.

The identity that drives distance and orthogonality preservation is a
twisted trace compatibility: for the bases handled here there is a fixed
multiplier mu in GF(q^m) with

    <gamma(u), gamma(v)> over GF(q)  =  Tr(mu * <u, v>) over GF(q^m),

so gamma(C^perp) lies in gamma(C)^perp, and has its dimension
m (2n - dim C): the two are equal (Ketkar et al., IEEE-IT 2006, Section V),
and gamma(C) contains its dual when C does.  The multiplier depends on the
basis (omega for the basis {1, omega} of GF(4) over GF(2), not 1); it is
found at construction time, by one test of every element of GF(q^m)
against the trace table, and exposed as ``twist``.  A basis without one is
refused.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .gf import GF2m, embedding
from .linalg import invert_matrix
from .symplectic import CodeBasis, contains, symplectic_dual


class DescentBasis:
    """A GF(q)-basis of GF(q^m) with its trace Gram matrix (a tuple of
    rows), the read-only array of its inverse and the tables of the two
    inverse coordinate maps.

    Row y of the read-only (q^m, m) tables of alpha^-1 and beta^-1 holds
    the coordinates of y; ``_gamma`` descends whole arrays through them.
    The default basis is the powers {1, g, .., g^(m-1)} of the extension
    field's canonical generator.
    """

    def __init__(self, sub: GF2m, ext: GF2m, basis: Sequence[int] | None = None) -> None:
        self.view = embedding(sub, ext)
        self.sub = sub
        self.ext = ext
        self.m = self.view.m
        if basis is None:
            basis = [ext.pow(ext.generator, i) for i in range(self.m)]
        self.basis = tuple(basis)
        self.gram = self.view.gram_matrix(self.basis)  # raises on a dependent set
        self.gram_inv = invert_matrix(sub, self.gram)  # raises when degenerate
        alpha = self.view.combinations(self.basis)  # a permutation of GF(q^m)
        self._alpha_inv = np.empty((ext.q, self.m), dtype=sub.log_antilog[1].dtype)
        self._alpha_inv[alpha] = self.view.tuples(self.m)
        self._beta_inv = _mix(sub, self.gram_inv, self._alpha_inv)
        for table in (self._alpha_inv, self._beta_inv):
            table.setflags(write=False)
        self.twist = self._solve_twist()

    # -- the trace-compatibility multiplier --------------------------------

    def _solve_twist(self) -> int | None:
        """mu with Tr(mu * a_i * a_j) = (M^-1)[i][j] for all i, j, if any.

        {a_0 a_j} is a basis and the trace form is nondegenerate, so
        mu -> (Tr(mu a_0 a_j))_j is a bijection onto GF(q)^m: row 0 of the
        target picks out exactly one candidate, tested against every
        element at once, and the candidate is then checked on all of M^-1.
        """
        log, antilog = self.ext.log_antilog
        trace = self.view.trace_table
        b = log[np.array(self.basis)]
        products = log[antilog[b[:, None] + b[None, :]]]
        target = self.gram_inv
        (mu,) = np.flatnonzero((trace[antilog[log[:, None] + products[0]]] == target[0]).all(axis=1))
        return int(mu) if (trace[antilog[log[mu] + products]] == target).all() else None


@lru_cache(maxsize=None)
def _shared_basis(sub: GF2m, ext: GF2m, basis: tuple[int, ...]) -> DescentBasis:
    return DescentBasis(sub, ext, basis)


def shared_basis(sub: GF2m, ext: GF2m, basis: Sequence[int] | None = None) -> DescentBasis:
    """One DescentBasis per (sub, ext) and basis, as ``gf.embedding`` is one per (sub, ext): the
    default basis (the powers of the generator) is named by its elements, so a descent and the
    regeneration of its file share it.  A basis that is not one raises, and is not kept."""
    if basis is None:
        basis = [ext.pow(ext.generator, i) for i in range(embedding(sub, ext).m)]
    return _shared_basis(sub, ext, tuple(basis))


def _mix(sub: GF2m, matrix: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Every row x of X (subfield coordinates) mapped to matrix x, one column of matrix at a time."""
    log, antilog = sub.log_antilog
    A = log[matrix]
    out = np.zeros(X.shape, dtype=antilog.dtype)
    for j in range(A.shape[1]):
        out ^= antilog[log[X[:, j]][:, None] + A[:, j]]
    return out


def self_dual_basis(sub: GF2m, ext: GF2m) -> tuple[int, ...]:
    """Lexicographically least trace-orthonormal basis of ext over sub.

    A basis with Gram matrix equal to the identity always exists in
    characteristic 2 (the twisted trace form is never alternating), and it
    makes the descent maps alpha and beta coincide, so the descended code
    provably inherits self-orthogonality (twist 1).  Found by depth-first
    search over element indices.
    """
    view = embedding(sub, ext)
    m, trace = view.m, view.trace_table.tolist()

    def extend(chosen: list[int]) -> list[int] | None:
        if len(chosen) == m:
            return chosen
        start = chosen[-1] + 1 if chosen else 1
        for cand in range(start, ext.q):
            if trace[ext.mul(cand, cand)] != 1:
                continue
            if any(trace[ext.mul(cand, c)] for c in chosen):
                continue
            got = extend(chosen + [cand])
            if got is not None:
                return got
        return None

    found = extend([])
    if found is None:
        raise AssertionError(f"no self-dual basis of {ext} over {sub} (unreachable in char 2)")
    return tuple(found)


def _gamma(basis: DescentBasis, V: np.ndarray) -> np.ndarray:
    """gamma of every row of V: alpha^-1 on the left half, beta^-1 on the right."""
    n = V.shape[1] // 2
    left = basis._alpha_inv[V[:, :n]].reshape(len(V), basis.m * n)  # no -1: V may have no rows
    right = basis._beta_inv[V[:, n:]].reshape(len(V), basis.m * n)
    return np.concatenate([left, right], axis=1)


def _descend(C: CodeBasis, basis: DescentBasis) -> CodeBasis:
    """gamma(C): every row scaled by every basis element, the (m rank x 2mn) image reduced once."""
    log, antilog = basis.ext.log_antilog
    scaled = antilog[log[C.rows][:, None, :] + log[np.array(basis.basis)][None, :, None]]
    return CodeBasis.from_rows(basis.sub, _gamma(basis, scaled.reshape(-1, C.width)), basis.m * C.width)


def descend_code(C: CodeBasis, basis: DescentBasis) -> CodeBasis:
    """gamma(C) as a canonical subfield code basis.

    ValueError unless the basis has a twist and C, over its extension
    field, contains its symplectic dual; gamma(C) then contains its own,
    the descent of C's (module docstring), and only its rank is checked.
    """
    if C.field != basis.ext:
        raise ValueError(f"code is over {C.field}, basis descends from {basis.ext}")
    if basis.twist is None:
        raise ValueError(f"basis {list(basis.basis)} has no twist, so its descent need not keep the dual")
    if C.rank and not contains(C, symplectic_dual(C)):
        raise ValueError("input code does not contain its symplectic dual")
    down = _descend(C, basis)
    if down.rank != basis.m * C.rank:
        raise ValueError("descent lost rank; the coordinate maps are inconsistent")
    return down

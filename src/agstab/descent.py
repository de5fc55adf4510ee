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

Both inverse maps are tables built once per basis: alpha is evaluated on
all q^m coordinate tuples in one log/antilog gather, and scattering each
tuple to its image gives the (q^m, m) table of alpha^-1 (the elements
form a basis exactly when that image is a permutation); beta^-1 is M^-1
applied to it.  Descending a code is then one gather through the two tables and
one reduction.

The identity that drives distance and orthogonality preservation is a
twisted trace compatibility: for the bases handled here there is a fixed
multiplier mu in GF(q^m) with

    <gamma(u), gamma(v)> over GF(q)  =  Tr(mu * <u, v>) over GF(q^m),

so symplectic orthogonality survives descent.  The multiplier depends on
the basis (it is omega for the basis {1, omega} of GF(4) over GF(2), not
1); it is found at construction time, by one test of every element of
GF(q^m) against the trace table, and exposed as ``twist``.  For
a basis where no such multiplier exists the descent is still computed,
and the self-orthogonality postcondition is then verified explicitly and
raised on failure instead of being assumed.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .gf import GF2m, SubfieldEmbedding, as_elements
from .linalg import invert_matrix
from .symplectic import CodeBasis, contains, symplectic_dual


class DescentBasis:
    """A GF(q)-basis of GF(q^m) with its trace Gram matrix (a tuple of
    rows), the read-only array of its inverse and the tables of the two
    coordinate maps.

    Row y of the read-only (q^m, m) tables of alpha^-1 and beta^-1 holds
    the coordinates of y; the tables of alpha and beta hold the image of
    the tuple c at entry sum c_i q^i.  The four maps are lookups into
    them.  The default basis is the powers {1, g, .., g^(m-1)} of the
    extension field's canonical generator.
    """

    def __init__(self, sub: GF2m, ext: GF2m, basis: Sequence[int] | None = None) -> None:
        self.view = SubfieldEmbedding(sub, ext)
        self.sub = sub
        self.ext = ext
        self.m = self.view.m
        if basis is None:
            basis = [ext.pow(ext.generator, i) for i in range(self.m)]
        self.basis = tuple(basis)
        self.gram = self.view.gram_matrix(self.basis)  # raises on a dependent set
        self.gram_inv = invert_matrix(sub, self.gram)  # raises when degenerate
        self._place = sub.q ** np.arange(self.m)
        self._alpha = self.view.combinations(self.basis)  # a permutation of GF(q^m)
        self._alpha_inv = np.empty((ext.q, self.m), dtype=sub.log_antilog[1].dtype)
        self._alpha_inv[self._alpha] = self.view.tuples(self.m)
        self._beta_inv = _mix(sub, self.gram_inv, self._alpha_inv)
        self._beta = np.empty_like(self._alpha)
        self._beta[self._beta_inv @ self._place] = np.arange(ext.q)
        for table in (self._alpha, self._alpha_inv, self._beta, self._beta_inv):
            table.setflags(write=False)
        self.twist = self._solve_twist()

    # -- the two coordinate maps, as lookups -------------------------------

    def alpha(self, coords: Sequence[int]) -> int:
        """alpha(x) = sum embed(x_i) * basis_i, a GF(q^m) element index."""
        return int(self._alpha[self._entry(coords)])

    def alpha_inv(self, y: int) -> tuple[int, ...]:
        """Coordinates of y in the basis, as subfield element indices."""
        return tuple(self._alpha_inv[as_elements(self.ext, y)].tolist())

    def beta(self, coords: Sequence[int]) -> int:
        """beta(x) = alpha(M x), the Gram-twisted companion of alpha."""
        return int(self._beta[self._entry(coords)])

    def beta_inv(self, y: int) -> tuple[int, ...]:
        return tuple(self._beta_inv[as_elements(self.ext, y)].tolist())

    def _entry(self, coords: Sequence[int]) -> int:
        """sum c_i q^i, the table entry of the tuple c; ValueError on a bad count or value."""
        c = as_elements(self.sub, coords)
        if c.shape != (self.m,):
            raise ValueError(f"expected {self.m} coordinates, got {len(coords)}")
        return int(c @ self._place)

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
    view = SubfieldEmbedding(sub, ext)
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
    left = basis._alpha_inv[V[:, :n]].reshape(len(V), -1)
    right = basis._beta_inv[V[:, n:]].reshape(len(V), -1)
    return np.concatenate([left, right], axis=1)


def descend_vector(basis: DescentBasis, vec: Sequence[int]) -> tuple[int, ...]:
    """gamma of one vector: alpha^-1 on the left half, beta^-1 on the right."""
    if len(vec) % 2:
        raise ValueError("symplectic vectors have even length")
    return tuple(_gamma(basis, as_elements(basis.ext, vec).reshape(1, -1))[0].tolist())


def descend_code(C: CodeBasis, basis: DescentBasis) -> CodeBasis:
    """gamma(C) as a canonical subfield code basis.

    Every row is scaled by every basis element and the (m rank x 2mn)
    image is reduced once.  Requires C to contain its symplectic dual; the
    descended code is checked to contain its own dual and to have
    dimension m * dim(C) over the subfield, and a ValueError is raised
    when either fails.
    """
    if C.field != basis.ext:
        raise ValueError(f"code is over {C.field}, basis descends from {basis.ext}")
    if C.rank == 0:
        return CodeBasis.zero(basis.sub, basis.m * C.width)
    if not contains(C, symplectic_dual(C)):
        raise ValueError("input code does not contain its symplectic dual")
    log, antilog = basis.ext.log_antilog
    scaled = antilog[log[C.rows][:, None, :] + log[np.array(basis.basis)][None, :, None]]
    down = CodeBasis.from_rows(basis.sub, _gamma(basis, scaled.reshape(-1, C.width)), basis.m * C.width)
    if down.rank != basis.m * C.rank:
        raise ValueError("descent lost rank; the coordinate maps are inconsistent")
    if not contains(down, symplectic_dual(down)):
        raise ValueError(
            "descended code does not contain its symplectic dual; "
            "the chosen basis breaks the orthogonality-preserving identity"
        )
    return down

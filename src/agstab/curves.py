"""Evaluation-code backends on two function fields of characteristic 2.

Two concrete curves are supported:

* ``rational``: the rational function field GF(q)(x), genus 0, with the
  order-2 shift automorphism sigma(x) = x + 1.  The q finite places split
  into n = q/2 sigma-orbit pairs {a, a+1}.
* ``hermitian``: the Hermitian function field GF(q^2)(x, z) with
  z^q + z = x^(q+1), genus g = q(q-1)/2.  sigma(z) = z + gamma for a fixed
  gamma in GF(q)* acts with order 2; the 2n = q(q^2 - 1) affine places
  with x != 0 (the simple zeros of x^(q^2-1) - 1) split into n orbit
  pairs.  The remaining q affine places all have x = 0 and, together with
  the unique pole P_inf of x, carry the code divisors.

For a shift j >= 0 both backends use the divisor pair

    G = G0 + j * P_inf,   H = G0 - j * P_inf,

where G0 has degree n + g - 1 (rational: G0 = (q/2 - 1) P_inf; hermitian:
G0 = (q^2/2 - 1) ((x)_0 + P_inf), with (x)_0 the q places above x = 0).
These closed forms come from halving the divisor (dlog y) + (zeros of y),
worked out once by hand; the code verifies their consequences (the dual
identity below, the dimensions and degrees) rather than re-deriving them.

Evaluating a monomial basis of L(G) at the point order

    P_1, ..., P_n, sigma P_1, ..., sigma P_n

gives a length-2n code C(G), and likewise C(H) from L(H).  The two are
symplectic duals of each other, C(G) contains C(H), and the larger space
yields stabilizer parameters n, k = j (for j up to the supported cap) and
minimum relative weight at least n - floor(deg G / 2).

A note on the divisor inequality that makes C(G) self-orthogonal: it is
read here as G0 + j*P_inf >= G0 - j*P_inf, which holds exactly when
j >= 0.

Riemann-Roch bases are monomial: the hermitian L(c * P_inf) has basis
{x^i z^l : i*q + l*(q+1) <= c, 0 <= l <= q-1} because x and z have pole
orders q and q+1 at the totally ramified P_inf, and L(G) = x^(-s) *
L((n + g - 1 + j) P_inf) for the shift s = q^2/2 - 1.  A basis is held
as its table of exponents, one per place coordinate: (i,) for x^i on the
rational curve, (i - s, l) for x^(i-s) z^l on the hermitian one.  Places
are rows of a (count, d) array of the same coordinates, sigma maps such an
array with one XOR, and ``CurveBackend.places`` is the point order as one
read-only (2n, d) array.  Which orbit member is primary is a free choice;
representatives are the lexicographically smaller coordinate rows, and the
stabilizer parameters do not depend on the choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gf import GF2m, SubfieldEmbedding, field
from .linalg import _nullspace_rows, row_in_span
from .symplectic import CodeBasis

_BLOCK = 1 << 16  # monomial_matrix entries indexed at once


@dataclass(frozen=True)
class ClassicalParams:
    """Length-2n classical view of the G-code: used by the binary-descent
    pipeline that consumes these codes as Euclidean dual-containing
    ingredients."""

    length: int
    dim: int
    d_hamming_lower: int
    euclidean_dual_contained: bool


def _validate_power_of_two(q: int, minimum: int) -> int:
    r = q.bit_length() - 1
    if q < minimum or (1 << r) != q:
        raise ValueError(f"q must be a power of 2 and >= {minimum}, got {q}")
    return r


class CurveBackend:
    """The paired places, the range of j and the Riemann-Roch bases.

    A curve supplies its constant field, genus and n, its affine places,
    the shift of sigma, and the monomial exponents of a one-point space
    L(c * P_inf).
    """

    kind: str

    def __init__(self, q: int, constants: GF2m, gamma: int, genus: int, n: int) -> None:
        self.q = q
        self.field = constants
        self.gamma = gamma
        self.genus = genus
        self.n = n
        self.places = self._build_points()

    # -- places ----------------------------------------------------------

    def _paired_places(self) -> np.ndarray:
        """The affine places off the support of G, which sigma pairs up."""
        return self.enumerate_places()

    def _build_points(self) -> np.ndarray:
        paired = self._paired_places()  # enumerated in lexicographic order, as the last check needs
        # a place's coordinates read as base-q digits order places lexicographically
        key = self.field.q ** np.arange(paired.shape[1])[::-1]
        image = self.sigma(paired)
        primary = paired @ key < image @ key
        primaries, partners = paired[primary], image[primary]
        # kind="table": one lookup table of the keys, and no np.unique (which imports np.ma)
        if np.isin(partners @ key, primaries @ key, kind="table").any():
            raise AssertionError("a sigma partner coincides with a primary place")
        points = np.concatenate([primaries, partners])
        if not (np.array_equal(np.sort(points @ key), paired @ key)
                and np.array_equal(self.sigma(partners), primaries)):
            raise AssertionError("sigma is not an involution pairing the place list")
        points.setflags(write=False)
        return points

    def sigma(self, places: np.ndarray) -> np.ndarray:
        """The order-2 automorphism on an array of places: x -> x + 1 on the
        rational curve, z -> z + gamma on the hermitian one."""
        return places ^ self._shift

    # -- Riemann-Roch bases ----------------------------------------------

    @property
    def max_j(self) -> int:
        # cap where the code dimension equals n + j exactly
        return self.n - self.genus

    def _check_j(self, j: int) -> None:
        if not 0 <= j <= self.max_j:
            raise ValueError(f"j must be in [0, {self.max_j}] for {self!r}, got {j}")

    def deg_g(self, j: int) -> int:
        return self.n + self.genus - 1 + j

    def distance_bound(self, j: int) -> int:
        """n - floor(deg G / 2), the relative minimum-weight guarantee."""
        return self.n - self.deg_g(j) // 2

    def rr_basis(self, j: int, which: str = "g") -> list[tuple[int, ...]]:
        """Exponent table of the monomial basis of L(G) (or L(H) for which="h"),
        in pole order at P_inf."""
        self._check_j(j)
        return self._monomials(self.deg_g(0) + (j if which == "g" else -j))


class RationalBackend(CurveBackend):
    """Genus-0 backend over GF(q), q = 2^r with r >= 2."""

    kind = "rational"

    def __init__(self, q: int) -> None:
        r = _validate_power_of_two(q, 4)
        # gamma: the additive shift of sigma(x) = x + 1
        self._shift = np.array([1])
        super().__init__(q, field(r), gamma=1, genus=0, n=q // 2)

    def __repr__(self) -> str:
        return f"RationalBackend(q={self.q})"

    def enumerate_places(self) -> np.ndarray:
        """All q degree-one finite places, one per field element, as a (q, 1) array."""
        return np.arange(self.q)[:, None]

    def _monomials(self, pole_cap: int) -> list[tuple[int, ...]]:
        """{x^i : i <= pole_cap}."""
        return [(i,) for i in range(pole_cap + 1)]


class HermitianBackend(CurveBackend):
    """Hermitian backend z^q + z = x^(q+1) over GF(q^2), q = 2^m."""

    kind = "hermitian"

    def __init__(self, q: int, gamma: int = 1) -> None:
        m = _validate_power_of_two(q, 2)
        if m > 4:
            raise ValueError(f"hermitian q must be at most 16, got {q} "
                             f"(n = {(q * q - 1) * q // 2} place pairs)")
        constants = field(2 * m)  # GF(q^2)
        if not 1 <= gamma < q:
            raise ValueError(f"gamma must be a nonzero GF({q}) element index, got {gamma}")
        self._shift = np.array([0, SubfieldEmbedding(field(m), constants).embed(gamma)])
        self.x_shift = q * q // 2 - 1
        super().__init__(q, constants, gamma, genus=q * (q - 1) // 2, n=(q * q - 1) * q // 2)

    def __repr__(self) -> str:
        return f"HermitianBackend(q={self.q}, gamma={self.gamma})"

    def enumerate_places(self) -> np.ndarray:
        """The q^3 affine points (a, b) with b^q + b = a^(q+1), as a (q^3, 2)
        array in lexicographic order."""
        elements = np.arange(self.field.q)
        norm, frobenius = monomial_matrix(self.field, [(self.q + 1,), (self.q,)], elements[:, None])
        return np.argwhere(norm[:, None] == frobenius ^ elements)

    def _paired_places(self) -> np.ndarray:
        """The 2n simple zeros of x^(q^2-1) - 1: affine places with x != 0."""
        places = self.enumerate_places()
        return places[places[:, 0] != 0]

    def _monomials(self, pole_cap: int) -> list[tuple[int, ...]]:
        """x^(-x_shift) * {x^i z^l : i q + l (q+1) <= pole_cap, l < q}."""
        q = self.q
        monos = sorted(
            (i * q + l * (q + 1), i, l)
            for l in range(q)
            for i in range((pole_cap - l * (q + 1)) // q + 1)
        )
        return [(i - self.x_shift, l) for _, i, l in monos]


def make_backend(kind: str, q: int, gamma: int = 1) -> CurveBackend:
    if kind == "rational":
        if gamma != 1:
            raise ValueError("the rational backend has a fixed shift constant of 1")
        return RationalBackend(q)
    if kind == "hermitian":
        return HermitianBackend(q, gamma)
    raise ValueError(f"unknown backend kind {kind!r}")


# ---------------------------------------------------------------------------
# Code construction
# ---------------------------------------------------------------------------

def monomial_matrix(f: GF2m, exponents: Sequence[tuple[int, ...]], places: np.ndarray) -> np.ndarray:
    """Row r holds the monomial with exponents[r] at each place, one factor per coordinate.

    ``places`` is a (count, d) array of coordinates, one row per place.
    The matrix is the gather antilog[sum_k e_k * log c_k mod (q-1)],
    returned as it is: a read-only (len(exponents), count) array in the
    field's dtype.  A zero coordinate gives 0 under a positive power
    and 1 under the zeroth; under a negative power it is a pole, and
    ValueError is raised.  The index is formed in uint32, in blocks of
    rows of about _BLOCK entries, so the peak stays near the result's size.
    """
    log, antilog = f.log_antilog
    period = f.q - 1
    coords = np.asarray(places).T
    E = np.array(exponents, dtype=np.int64).reshape(len(exponents), len(coords))
    at_zero = coords == 0
    if ((E < 0).T & at_zero.any(axis=1)[:, None]).any():
        raise ValueError("evaluation at a pole: a zero coordinate under a negative power")
    # both factors are below q - 1 <= 2^16 - 1, so their product fits uint32
    # (log 0 is a sentinel: its term is overwritten below, or multiplied by e = 0)
    E_mod = (E % period).astype(np.uint32)
    c_log = (log[coords] % period).astype(np.uint32)
    M = np.empty((len(E), len(places)), dtype=antilog.dtype)
    step = max(1, _BLOCK // max(1, len(places)))
    for r in range(0, len(E), step):
        block = slice(r, r + step)
        index = np.zeros(M[block].shape, dtype=np.uint32)
        for e, positive, c, zero in zip(E_mod[block].T, E[block].T > 0, c_log, at_zero):
            term = np.multiply.outer(e, c)
            term %= period
            index += term
            # at a zero coordinate the term is 0 under e = 0, and e > 0 gives 0: antilog
            # is 0 from 3(q-1) on, and a later coordinate adds less than q-1
            index[np.ix_(positive, zero)] = 3 * period
        M[block] = antilog.take(index)
    M.setflags(write=False)
    return M


def evaluation_matrix(backend: CurveBackend, j: int, which: str = "g") -> np.ndarray:
    """Evaluations of the L(G) (or L(H)) basis at the point order, one row per
    basis function, as ``monomial_matrix`` returns them."""
    return monomial_matrix(backend.field, backend.rr_basis(j, which), backend.places)


def build_codes(
    backend: CurveBackend,
    j: int,
    g_rows: Sequence[Sequence[int]] | None = None,
    h_rows: Sequence[Sequence[int]] | None = None,
) -> tuple[CodeBasis, CodeBasis]:
    """Canonical bases of C(G) and C(H); dims are n + j and n - j.

    ``g_rows`` and ``h_rows`` are the evaluations of L(G) and L(H), when the
    caller already holds them; each one left out is evaluated here.
    """
    width = 2 * backend.n
    if g_rows is None:
        g_rows = evaluation_matrix(backend, j, "g")
    if h_rows is None:
        h_rows = evaluation_matrix(backend, j, "h")
    c_g = CodeBasis.from_rows(backend.field, g_rows, width)
    c_h = CodeBasis.from_rows(backend.field, h_rows, width)
    if c_g.rank != backend.n + j or c_h.rank != backend.n - j:
        raise AssertionError(
            f"unexpected code dimensions {c_g.rank}/{c_h.rank} at j={j} on {backend!r}"
        )
    return c_g, c_h


def classical_params(backend: CurveBackend, j: int, c_g: CodeBasis | None = None) -> ClassicalParams:
    """Parameters of C(G) as a classical length-2n code over the code field.

    ``c_g`` is the canonical basis of C(G), when the caller already holds
    it; otherwise L(G) is evaluated and reduced here.  The dimension comes
    from the rank, the Hamming-distance bound is length/2 - g + 1 - j, and
    containment of the Euclidean dual is checked by reducing a basis of
    the dual, one kernel vector per free column, against C(G).
    """
    f = backend.field
    width = 2 * backend.n
    if c_g is None:
        c_g = CodeBasis.from_rows(f, evaluation_matrix(backend, j, "g"), width)
    dual_rows = _nullspace_rows(c_g.rows, c_g.pivots, width)
    contained = bool(row_in_span(f, c_g.rows, c_g.pivots, dual_rows).all())
    return ClassicalParams(
        length=width,
        dim=c_g.rank,
        d_hamming_lower=backend.n - backend.genus + 1 - j,
        euclidean_dual_contained=contained,
    )

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
worked out once by hand; the code checks their consequences (the dual
identity below, the dimensions and degrees) rather than re-deriving them.

Evaluating a monomial basis of L(G) at the point order

    P_1, ..., P_n, sigma P_1, ..., sigma P_n

gives a length-2n code C(G), and likewise C(H) from L(H).  The two are
symplectic duals of each other, C(G) contains C(H), and the larger space
yields stabilizer parameters n, k = j (for j up to the supported cap) and
minimum relative weight at least n - floor(deg G / 2).

The spaces are nested, L(H) <= L(G), and so are their bases: in pole
order the monomials of L(H) are the first n - j monomials of L(G) (pole
orders at P_inf are distinct, and L(H) keeps those up to deg H).  So the
L(H) evaluation matrix is the first n - j rows of the L(G) one.

The claims about the fresh codes are theorems, proved in two ways.
``certify`` reads them off the exponent tables and the places, with no
matrix reduced: the ranks by the degree argument (Stichtenoth, Thm 2.2.2
and Cor. 2.2.3), containment from the prefix of the tables, the Euclidean
dual from the Lucas expansion of h o sigma and the duality from the
moment-table Gram ``CurveBackend.gram``.  It returns nothing, and raises
AssertionError when a proof fails; ``construct``, ``verify`` and
``descend`` run it, and take the fresh rows, the evaluation of L(G) whose
first n - j rows are C(H), from ``evaluation_matrix`` (``verify`` and
``descend`` through ``artifact.fresh``).  ``build_codes`` and
``classical_params`` decide the same by elimination, each code reduced
once: they are ``certify``'s oracles in the tests.

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
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .gf import GF2m, as_elements, embedding, field
from .linalg import _nullspace_rows, row_in_span
from .symplectic import CodeBasis

_BLOCK = 1 << 16  # monomial_matrix entries indexed at once
# the most place pairs a backend accepts: rational q <= 8192 and hermitian q <= 16 (n = 2040);
# rational q = 65536 would hold a 4 GiB evaluation matrix
MAX_PLACE_PAIRS = 4096


@dataclass(frozen=True)
class ClassicalParams:
    """Length-2n classical view of the G-code, as ``classical_params`` derives it by elimination."""

    length: int
    dim: int
    d_hamming_lower: int
    euclidean_dual_contained: bool


def _submasks(m: int) -> list[int]:
    """Every t with t & ~m == 0, m first: by Lucas, binomial(m, t) is odd exactly for these."""
    out, t = [m], m
    while t:
        t = (t - 1) & m
        out.append(t)
    return out


def _validate_power_of_two(q: int, minimum: int) -> int:
    r = q.bit_length() - 1
    if q < minimum or (1 << r) != q:
        raise ValueError(f"q must be a power of 2 and >= {minimum}, got {q}")
    return r


class CurveBackend:
    """The paired places, the range of j and the Riemann-Roch bases.

    A curve supplies its constant field, genus and n, its affine places,
    the shift of sigma, the monomial exponents of a one-point space
    L(c * P_inf) with their pole orders, and ``gram``: the symplectic form
    <f, h> on the evaluations of two exponent tables, a (len(left),
    len(right)) array in the field's dtype.  The form pairs place i with
    place n + i, which sigma swaps, so <f, h> = sum_P f(P) h(sigma P): the
    product C(left) . swap(C(right))^T, from power sums of the places.
    """

    kind: str

    def __init__(self, q: int, degree: int, gamma: int, genus: int, n: int) -> None:
        # checked before the field is built: every later array grows with n
        if n > MAX_PLACE_PAIRS:
            raise ValueError(f"{self.kind} q={q} has n = {n} place pairs, "
                             f"more than the {MAX_PLACE_PAIRS} a code may have")
        self.q = q
        self.field = field(degree)  # the constant field GF(2^degree)
        self.gamma = gamma
        self.genus = genus
        self.n = n

    # -- places ----------------------------------------------------------

    def _paired_places(self) -> np.ndarray:
        """The affine places off the support of G, which sigma pairs up."""
        return self.enumerate_places()

    @cached_property
    def places(self) -> np.ndarray:
        """The point order P_1..P_n, sigma(P_1)..sigma(P_n) as one read-only
        (2n, d) array, built and checked on first use: a backend that only
        answers deg G or the range of j never enumerates it."""
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

    def deg_g(self, j: int) -> int:
        return self.n + self.genus - 1 + j

    def distance_bound(self, j: int) -> int:
        """n - floor(deg G / 2), the relative minimum-weight guarantee."""
        return self.n - self.deg_g(j) // 2

    def hamming_bound(self, j: int) -> int:
        """n - g + 1 - j, the Hamming-distance guarantee of C(G) as a length-2n classical code."""
        return self.n - self.genus + 1 - j

    def rr_basis(self, j: int, which: str = "g") -> list[tuple[int, ...]]:
        """Exponent table of the monomial basis of L(G) (or L(H) for which="h"),
        in pole order at P_inf."""
        if not 0 <= j <= self.max_j:
            raise ValueError(f"j must be in [0, {self.max_j}] for {self!r}, got {j}")
        return self._monomials(self.deg_g(0) + (j if which == "g" else -j))


class RationalBackend(CurveBackend):
    """Genus-0 backend over GF(q), q = 2^r with r >= 2."""

    kind = "rational"

    def __init__(self, q: int) -> None:
        r = _validate_power_of_two(q, 4)
        super().__init__(q, r, gamma=1, genus=0, n=q // 2)
        # gamma: the additive shift of sigma(x) = x + 1
        self._shift = np.array([1])

    def __repr__(self) -> str:
        return f"RationalBackend(q={self.q})"

    def enumerate_places(self) -> np.ndarray:
        """All q degree-one finite places, one per field element, as a (q, 1) array."""
        return np.arange(self.q)[:, None]

    def _monomials(self, pole_cap: int) -> list[tuple[int, ...]]:
        """{x^i : i <= pole_cap}."""
        return [(i,) for i in range(pole_cap + 1)]

    def _pole_orders(self, E: np.ndarray) -> np.ndarray:
        """The pole order i of x^i at P_inf, for each row (i,) of E; -1 where i < 0."""
        return np.where(E[:, 0] >= 0, E[:, 0], -1)

    def gram(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Entry (a, c) is sum_{t subset c} S[a + t] for x^a in ``left`` and x^c in ``right``.

        h(sigma P) = (P + 1)^c = sum_{t subset c} P^t (Lucas), and over the
        places, all of GF(q), the power sum S[e] = sum_P P^e is 1 when e > 0
        and (q - 1) | e, and 0 otherwise.  So the entry is the parity of the
        positive multiples e of q - 1 with 0 <= e - a and e - a a bit subset
        of c: integer arithmetic only.
        """
        period = self.q - 1
        a, c = left[:, :1], right[:, 0]
        out = np.zeros((len(left), len(right)), dtype=bool)
        for e in range(period, int(a.max(initial=0)) + int(c.max(initial=0)) + 1, period):
            t = e - a
            out ^= (t >= 0) & (t & ~c == 0)
        return out.astype(self.field.log_antilog[1].dtype)


class HermitianBackend(CurveBackend):
    """Hermitian backend z^q + z = x^(q+1) over GF(q^2), q = 2^m."""

    kind = "hermitian"

    def __init__(self, q: int, gamma: int = 1) -> None:
        m = _validate_power_of_two(q, 2)
        super().__init__(q, 2 * m, gamma, genus=q * (q - 1) // 2, n=(q * q - 1) * q // 2)  # over GF(q^2)
        if not 1 <= gamma < q:
            raise ValueError(f"gamma must be a nonzero GF({q}) element index, got {gamma}")
        self._shift = np.array([0, embedding(field(m), self.field).embed(gamma)])
        self.x_shift = q * q // 2 - 1

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

    def _pole_orders(self, E: np.ndarray) -> np.ndarray:
        """The pole order i q + l (q+1) at P_inf of x^i z^l, for each row (i - x_shift, l)
        of E; -1 where x^i z^l is not a polynomial (i < 0 or l < 0)."""
        i, l = E[:, 0] + self.x_shift, E[:, 1]
        return np.where((i >= 0) & (l >= 0), i * self.q + l * (self.q + 1), -1)

    def _moments(self) -> np.ndarray:
        """S[alpha, beta] = sum_P x^alpha z^beta over the 2n places, for alpha < Q - 1 and
        beta <= 2q - 2, where Q = q^2: a (Q - 1, 2q - 1) array in the field's dtype.

        x is nonzero at every place, so x^alpha depends on alpha mod Q - 1
        alone.  The places are grouped by log x: T[k, beta] sums z^beta over
        those with x = g^k, and S[alpha, beta] = sum_k g^(alpha k) T[k, beta].
        """
        log, antilog = self.field.log_antilog
        period = self.field.q - 1
        x, z = self.places.T
        powers = monomial_matrix(self.field, [(b,) for b in range(2 * self.q - 1)], z[:, None])
        T = np.zeros((period, len(powers)), dtype=antilog.dtype)
        np.bitwise_xor.at(T, log.take(x), powers.T)
        k = np.arange(period)
        logs = np.multiply.outer(k, k) % period  # log of g^(alpha k)
        return np.bitwise_xor.reduce(antilog.take(logs[:, :, None] + log.take(T)[None]), axis=1)

    def gram(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Entry (f, h) is sum_{t subset m} gamma^(m - t) S[a + c mod (Q - 1), l + t] for
        f = x^a z^l in ``left`` and h = x^c z^m in ``right``, with S the power sums
        (``_moments``) and Q = q^2.

        sigma fixes x and sends z to z + gamma, so by Lucas h o sigma is
        x^c sum_{t subset m} gamma^(m - t) z^t.  The sum over t depends on
        (a + c mod (Q - 1), l, m) alone: it is tabled once as K, twice over
        in its first index so that a mod (Q - 1) plus c mod (Q - 1) needs no
        further reduction, and the Gram is one gather from K.  The z
        exponents l and m lie in [0, q).
        """
        q = self.q
        log, antilog = self.field.log_antilog
        period = self.field.q - 1
        S_log = log.take(self._moments())
        gamma_log = int(log[self._shift[1]])
        K = np.zeros((period, q, q), dtype=antilog.dtype)
        for m in range(q):
            for t in _submasks(m):
                K[:, :, m] ^= antilog.take(S_log[:, t:t + q] + gamma_log * (m - t) % period)
        rows = (left[:, 0] % period * q + left[:, 1]) * q
        cols = right[:, 0] % period * (q * q) + right[:, 1]
        return np.concatenate([K, K]).reshape(-1).take(np.add.outer(rows, cols))


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


@dataclass(frozen=True, eq=False)
class PowerBasis(CodeBasis):
    """The rows x^i, i < rank, at distinct ``points``, one per column, in rref: the checks of an extended
    Reed-Solomon code, decoded by power sums.  It equals and hashes as the ``CodeBasis`` of its rows."""

    points: tuple[int, ...]


def power_basis(f: GF2m, points: Sequence[int], rank: int) -> PowerBasis:
    """The canonical basis of the rows x^i, i < rank, at ``points``, with no elimination
    (``_power_basis``), built once per (f, points, rank): decode-sim decodes against it.
    ValueError when two points are equal: the closed form would not be the rref of the rows."""
    return _power_basis(f, tuple(as_elements(f, points).tolist()), rank)


@lru_cache(maxsize=8)
def _power_basis(f: GF2m, points: tuple[int, ...], rank: int) -> PowerBasis:
    """``power_basis``, the points as a tuple, the key of the memo.

    Any rank columns of V = (P_c^i) are an invertible Vandermonde matrix, so the
    pivots are the first rank columns and the basis is V_P^-1 V (Roth-Seroussi
    1985): entry (k, c) is the Lagrange polynomial of P_k at P_c, w_k u(P_c) /
    (P_c + P_k), with u(x) = prod_{m < rank} (x + P_m) and 1 / w_k = prod_{m != k}
    (P_k + P_m).  The column sums of the logs of P_c + P_m are log u(P_c), and
    -log w_k on the pivots (log 0 is 3(q - 1), 0 mod q - 1): R is one gather.
    """
    if len(set(points)) < len(points):
        raise ValueError("the points are not distinct")
    log, antilog = f.log_antilog
    P = as_elements(f, points)
    L = log.take(P[:rank, None] ^ P)
    s = (L.sum(axis=0, dtype=np.int64) % (f.q - 1)).astype(L.dtype)
    np.subtract(s, L, out=L)  # in place: at rational q = 8192, L is 134 MB
    L -= s[:rank, None]
    L %= f.q - 1
    R = antilog.take(L)
    R[:, :rank] = np.eye(rank, dtype=R.dtype)
    R.setflags(write=False)
    return PowerBasis(f, len(P), R, tuple(range(rank)), points)


def evaluation_matrix(backend: CurveBackend, j: int, which: str = "g") -> np.ndarray:
    """Evaluations of the L(G) (or L(H)) basis at the point order, one row per
    basis function, as ``monomial_matrix`` returns them."""
    return monomial_matrix(backend.field, backend.rr_basis(j, which), backend.places)


def certify(backend: CurveBackend, j: int) -> None:
    """Prove every claim about the pair C(G) >= C(H) at j, the evaluations of ``rr_basis``, from
    its exponent tables and the places, with no matrix reduced and none evaluated; return once
    each proof holds.  Each proof is integer or table arithmetic, and AssertionError is raised
    when one fails:

    * Ranks, by the degree argument: the pole orders at P_inf of each
      table are distinct, so its monomials are independent; each is at
      most deg G <= 2n - 1, and a nonzero function of L(G) vanishes at
      no more than deg G of the 2n paired places, so evaluation is
      injective and each rank is its table's row count, n + j and n - j.
    * Containment: the L(H) table is a prefix of the L(G) one, so the
      rows of C(H) are the first rows of C(G).
    * The Euclidean dual of C(G) is swap(C(G)^perp) = swap(C(H)), the
      evaluations of h o sigma; it lies in C(H) <= C(G) because the L(H)
      table is closed under the Lucas expansion of h o sigma (each
      exponent of the coordinate sigma shifts replaced by its bit
      subsets), once the duality below holds.
    * Duality: the Gram C(G) Omega C(H)^T (``CurveBackend.gram``) is zero
      and the ranks sum to 2n, so C(H) = C(G)^perp.
    """
    n, deg_g = backend.n, backend.deg_g(j)
    G, H = (np.array(backend.rr_basis(j, which), dtype=np.int64).reshape(-1, backend.places.shape[1])
            for which in "gh")
    at = f"at j={j} on {backend!r}"
    for table, cap in ((G, deg_g), (H, deg_g - 2 * j)):
        poles = backend._pole_orders(table)
        if len(poles) and not (poles[0] >= 0 and (np.diff(poles) > 0).all() and poles[-1] <= cap < 2 * n):
            raise AssertionError(f"the degree argument fails for a table of {len(table)} monomials {at}")
    if (len(G), len(H)) != (n + j, n - j):
        raise AssertionError(f"unexpected code dimensions {len(G)}/{len(H)} {at}")
    if not np.array_equal(G[:len(H)], H):
        raise AssertionError(f"the L(H) table is not a prefix of the L(G) one {at}")
    # closed under clearing any one set bit of the exponent sigma shifts, and so under every bit subset
    k = int(np.flatnonzero(backend._shift)[0])
    table = set(map(tuple, H.tolist()))
    if not all(e[:k] + (e[k] ^ 1 << b,) + e[k + 1:] in table
               for e in table for b in range(e[k].bit_length()) if e[k] >> b & 1):
        raise AssertionError(f"the L(H) table is not closed under the Lucas expansion of h o sigma {at}")
    if backend.gram(G, H).any():
        raise AssertionError(f"the Gram of C(G) and C(H) is not zero {at}")


def build_codes(backend: CurveBackend, j: int) -> tuple[CodeBasis, CodeBasis]:
    """Canonical bases of C(G) and C(H), by elimination; dims are n + j and n - j.

    L(H) and L(G) are each evaluated and reduced once, C(H) first.  The
    ranks are asserted here by computing them; ``certify`` derives them
    from the exponent tables instead, and this function is its oracle in
    the tests.
    """
    width = 2 * backend.n
    c_h, c_g = (CodeBasis.from_rows(backend.field, evaluation_matrix(backend, j, which), width)
                for which in "hg")
    if c_g.rank != backend.n + j or c_h.rank != backend.n - j:
        raise AssertionError(
            f"unexpected code dimensions {c_g.rank}/{c_h.rank} at j={j} on {backend!r}"
        )
    return c_g, c_h


def classical_params(backend: CurveBackend, j: int, c_g: CodeBasis | None = None) -> ClassicalParams:
    """Parameters of C(G) as a classical length-2n code over the code field, by elimination.

    ``c_g`` is the canonical basis of C(G), when the caller already holds
    it; otherwise L(G) is evaluated and reduced here.  The dimension comes
    from the rank, the Hamming-distance bound is length/2 - g + 1 - j, and
    containment of the Euclidean dual is checked by reducing a basis of
    the dual, one kernel vector per free column, against C(G).
    ``certify`` proves the same of the fresh code from the exponent tables,
    and ``verify`` reports its dimension n + j, ``CurveBackend.hamming_bound``
    and the containment so; this is its oracle in the tests.
    """
    f = backend.field
    width = 2 * backend.n
    if c_g is None:
        c_g = CodeBasis.from_rows(f, evaluation_matrix(backend, j, "g"), width)
    dual_rows = _nullspace_rows(c_g.rows, c_g.pivots, width)
    return ClassicalParams(length=width, dim=c_g.rank, d_hamming_lower=backend.hamming_bound(j),
                           euclidean_dual_contained=bool(row_in_span(f, c_g.rows, c_g.pivots, dual_rows).all()))

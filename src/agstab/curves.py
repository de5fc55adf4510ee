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

For a shift j >= 0 both backends produce the divisor pair

    G = G0 + j * P_inf,   H = G0 - j * P_inf,

where G0 has degree n + g - 1 (rational: G0 = (q/2 - 1) P_inf; hermitian:
G0 = (q^2/2 - 1) ((x)_0 + P_inf), with (x)_0 the q places above x = 0).
These closed forms come from halving the divisor (dlog y) + (zeros of y),
worked out once by hand; the code verifies their consequences (the dual
identity below, degrees, support conditions) rather than re-deriving them.

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
L((n + g - 1 + j) P_inf) for the shift s = q^2/2 - 1.  Which orbit member
is primary is a free choice; representatives are the lexicographically
smaller coordinate tuples, and the stabilizer parameters do not depend on
the choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .gf import SubfieldEmbedding, field
from .linalg import _nullspace_of_rref, rref, row_in_span
from .symplectic import CodeBasis


@dataclass(frozen=True, order=True)
class Place:
    """A rational place: affine coordinates, or the common pole at infinity.

    Affine coordinates are field-element indices, (a,) on the rational
    backend and (a, b) on the hermitian one.  Ordering is lexicographic on
    coordinates with infinity sorting last.
    """

    at_infinity: bool
    coords: tuple[int, ...] = ()

    @classmethod
    def affine(cls, *coords: int) -> "Place":
        return cls(False, tuple(coords))

    @classmethod
    def infinity(cls) -> "Place":
        return cls(True)

    def __repr__(self) -> str:
        return "Pinf" if self.at_infinity else f"P{self.coords}"


INFINITY = Place.infinity()


class Divisor:
    """Formal integer combination of places with finite support."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: dict[Place, int] | None = None) -> None:
        self._coeffs = {p: c for p, c in (coeffs or {}).items() if c != 0}

    def coeff(self, place: Place) -> int:
        return self._coeffs.get(place, 0)

    @property
    def support(self) -> tuple[Place, ...]:
        return tuple(sorted(self._coeffs))

    @property
    def degree(self) -> int:
        return sum(self._coeffs.values())

    def items(self) -> list[tuple[Place, int]]:
        return sorted(self._coeffs.items())

    def __add__(self, other: "Divisor") -> "Divisor":
        out = dict(self._coeffs)
        for p, c in other._coeffs.items():
            out[p] = out.get(p, 0) + c
        return Divisor(out)

    def __sub__(self, other: "Divisor") -> "Divisor":
        out = dict(self._coeffs)
        for p, c in other._coeffs.items():
            out[p] = out.get(p, 0) - c
        return Divisor(out)

    def __rmul__(self, scalar: int) -> "Divisor":
        return Divisor({p: scalar * c for p, c in self._coeffs.items()})

    def __ge__(self, other: "Divisor") -> bool:
        places = set(self._coeffs) | set(other._coeffs)
        return all(self.coeff(p) >= other.coeff(p) for p in places)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Divisor) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(tuple(self.items()))

    def __repr__(self) -> str:
        if not self._coeffs:
            return "Divisor(0)"
        return "Divisor(" + " + ".join(f"{c}*{p}" for p, c in self.items()) + ")"


@dataclass(frozen=True)
class RRFunction:
    """A function x^(-x_shift) * sum c * x^i * z^l, as (i, l, c) monomials.

    Rational-backend functions always have l = 0 and x_shift = 0.
    """

    x_shift: int
    monomials: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class PairedEvaluationSet:
    """Orbit representatives P_1..P_n and their sigma partners, in order."""

    primaries: tuple[Place, ...]
    partners: tuple[Place, ...]
    gamma: int

    @property
    def n(self) -> int:
        return len(self.primaries)

    @property
    def point_order(self) -> tuple[Place, ...]:
        return self.primaries + self.partners


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


class RationalBackend:
    """Genus-0 backend over GF(q), q = 2^r with r >= 2."""

    kind = "rational"
    genus = 0

    def __init__(self, q: int) -> None:
        r = _validate_power_of_two(q, 4)
        self.q = q
        self.field = field(r)
        self.n = q // 2
        self.gamma = 1  # the additive shift of sigma(x) = x + 1
        self._points = self._build_points()

    def __repr__(self) -> str:
        return f"RationalBackend(q={self.q})"

    # -- places ----------------------------------------------------------

    def enumerate_places(self) -> tuple[list[Place], Place]:
        """All q degree-one finite places (one per field element) and P_inf."""
        return [Place.affine(a) for a in range(self.q)], INFINITY

    def sigma(self, place: Place) -> Place:
        """x -> x + 1; fixes P_inf, an involution on the finite places."""
        if place.at_infinity:
            return place
        return Place.affine(place.coords[0] ^ 1)

    def _build_points(self) -> PairedEvaluationSet:
        finite, _ = self.enumerate_places()
        primaries = tuple(p for p in finite if p.coords[0] % 2 == 0)
        partners = tuple(self.sigma(p) for p in primaries)
        _check_pairing(self, primaries, partners)
        return PairedEvaluationSet(primaries, partners, self.gamma)

    def evaluation_points(self) -> PairedEvaluationSet:
        return self._points

    # -- divisors and Riemann-Roch bases ----------------------------------

    @property
    def max_j(self) -> int:
        return self.n

    def _check_j(self, j: int) -> None:
        if not 0 <= j <= self.max_j:
            raise ValueError(f"j must be in [0, {self.max_j}] for {self!r}, got {j}")

    def deg_g(self, j: int) -> int:
        return self.n + self.genus - 1 + j

    def distance_bound(self, j: int) -> int:
        """n - floor(deg G / 2), the relative minimum-weight guarantee."""
        return self.n - self.deg_g(j) // 2

    def divisor_pair(self, j: int) -> tuple[Divisor, Divisor]:
        self._check_j(j)
        g0 = self.n - 1
        return (
            Divisor({INFINITY: g0 + j}),
            Divisor({INFINITY: g0 - j}),
        )

    def _one_point_basis(self, pole_cap: int) -> list[RRFunction]:
        return [RRFunction(0, ((i, 0, 1),)) for i in range(pole_cap + 1)]

    def rr_basis(self, j: int, which: str = "g") -> list[RRFunction]:
        """Monomial basis {x^i} of L(G) (or L(H) for which="h")."""
        self._check_j(j)
        shift = j if which == "g" else -j
        return self._one_point_basis(self.n - 1 + shift)

    def evaluate(self, fn: RRFunction, place: Place) -> int:
        if place.at_infinity:
            raise ValueError("cannot evaluate at the pole at infinity")
        f = self.field
        a = place.coords[0]
        acc = 0
        for i, l, c in fn.monomials:
            if l:
                raise ValueError("rational functions have no z part")
            acc ^= f.mul(c, f.pow(a, i))
        return acc


class HermitianBackend:
    """Hermitian backend z^q + z = x^(q+1) over GF(q^2), q = 2^m."""

    kind = "hermitian"

    def __init__(self, q: int, gamma: int = 1) -> None:
        m = _validate_power_of_two(q, 2)
        if 2 * m > 8:
            raise ValueError(f"constant field GF({q * q}) exceeds the table-backed sizes")
        self.q = q
        self.subfield = field(m)
        self.field = field(2 * m)  # constant field GF(q^2)
        self.embedding = SubfieldEmbedding(self.subfield, self.field)
        if not 1 <= gamma < q:
            raise ValueError(f"gamma must be a nonzero GF({q}) element index, got {gamma}")
        self.gamma = gamma
        self._gamma_big = self.embedding.embed(gamma)
        self.genus = q * (q - 1) // 2
        self.n = (q * q - 1) * q // 2
        self.x_shift = q * q // 2 - 1
        self._points = self._build_points()

    def __repr__(self) -> str:
        return f"HermitianBackend(q={self.q}, gamma={self.gamma})"

    # -- places ----------------------------------------------------------

    def enumerate_places(self) -> tuple[list[Place], Place]:
        """The q^3 affine points (a, b) with b^q + b = a^(q+1), plus P_inf."""
        f = self.field
        out = []
        for a in range(f.q):
            norm = f.pow(a, self.q + 1)
            for b in range(f.q):
                if f.pow(b, self.q) ^ b == norm:
                    out.append(Place.affine(a, b))
        return out, INFINITY

    def zeros_of_unit_circle(self) -> list[Place]:
        """The 2n simple zeros of x^(q^2-1) - 1: affine places with x != 0."""
        affine, _ = self.enumerate_places()
        return [p for p in affine if p.coords[0] != 0]

    def x_zero_places(self) -> list[Place]:
        """The q places above x = 0 (kernel of the trace map b -> b^q + b)."""
        affine, _ = self.enumerate_places()
        return [p for p in affine if p.coords[0] == 0]

    def sigma(self, place: Place) -> Place:
        """z -> z + gamma; fixes P_inf, order 2 on affine points."""
        if place.at_infinity:
            return place
        a, b = place.coords
        return Place.affine(a, b ^ self._gamma_big)

    def _build_points(self) -> PairedEvaluationSet:
        zeros = self.zeros_of_unit_circle()
        primaries = tuple(sorted(p for p in zeros if p < self.sigma(p)))
        partners = tuple(self.sigma(p) for p in primaries)
        _check_pairing(self, primaries, partners)
        return PairedEvaluationSet(primaries, partners, self.gamma)

    def evaluation_points(self) -> PairedEvaluationSet:
        return self._points

    # -- divisors and Riemann-Roch bases ----------------------------------

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
        return self.n - self.deg_g(j) // 2

    def divisor_pair(self, j: int) -> tuple[Divisor, Divisor]:
        self._check_j(j)
        s = self.x_shift
        base = {p: s for p in self.x_zero_places()}
        g = dict(base)
        g[INFINITY] = s + j
        h = dict(base)
        h[INFINITY] = s - j
        return Divisor(g), Divisor(h)

    def _one_point_basis(self, pole_cap: int) -> list[RRFunction]:
        """Basis x^(-x_shift) * {x^i z^l : i q + l (q+1) <= pole_cap, l < q},
        ordered by pole order at P_inf."""
        q = self.q
        monos = []
        for l in range(q):
            room = pole_cap - l * (q + 1)
            if room < 0:
                continue
            for i in range(room // q + 1):
                monos.append((i * q + l * (q + 1), i, l))
        monos.sort()
        return [RRFunction(self.x_shift, ((i, l, 1),)) for _, i, l in monos]

    def rr_basis(self, j: int, which: str = "g") -> list[RRFunction]:
        """Monomial basis of L(G0 + j P_inf) (or L(G0 - j P_inf))."""
        self._check_j(j)
        shift = j if which == "g" else -j
        return self._one_point_basis(self.deg_g(0) + shift)

    def evaluate(self, fn: RRFunction, place: Place) -> int:
        if place.at_infinity:
            raise ValueError("cannot evaluate at the pole at infinity")
        f = self.field
        a, b = place.coords
        if fn.x_shift and a == 0:
            raise ValueError("evaluation at a pole: x = 0 with a negative x power")
        acc = 0
        for i, l, c in fn.monomials:
            acc ^= f.mul(c, f.mul(f.pow(a, i), f.pow(b, l)))
        if fn.x_shift:
            acc = f.mul(acc, f.inv(f.pow(a, fn.x_shift)))
        return acc


Backend = RationalBackend | HermitianBackend


def _check_pairing(backend: Backend, primaries: Sequence[Place], partners: Sequence[Place]) -> None:
    prim = set(primaries)
    part = set(partners)
    if prim & part:
        raise AssertionError("a sigma partner coincides with a primary place")
    for p, s in zip(primaries, partners):
        if backend.sigma(p) != s or backend.sigma(s) != p:
            raise AssertionError("sigma is not an involution pairing the place list")


def make_backend(kind: str, q: int, gamma: int = 1) -> Backend:
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

def evaluation_matrix(backend: Backend, j: int, which: str = "g") -> list[tuple[int, ...]]:
    """Rows of evaluations of the L(G) (or L(H)) basis at the point order."""
    points = backend.evaluation_points().point_order
    return [
        tuple(backend.evaluate(fn, p) for p in points)
        for fn in backend.rr_basis(j, which)
    ]


def _evaluation_rows(backend: Backend, j: int, which: str) -> list[tuple[int, ...]]:
    """``evaluation_matrix(backend, j, which)``, evaluated once per backend.

    Construction and verification each read the same matrix several times
    (the stored rows, ``build_codes``, ``classical_params``); the rows are
    kept on the backend, which lives for one command.
    """
    memo = backend.__dict__.setdefault("_evaluation_rows", {})
    key = (j, which)
    if key not in memo:
        memo[key] = evaluation_matrix(backend, j, which)
    return memo[key]


def build_codes(backend: Backend, j: int) -> tuple[CodeBasis, CodeBasis]:
    """Canonical bases of C(G) and C(H); dims are n + j and n - j."""
    width = 2 * backend.n
    c_g = CodeBasis.from_rows(backend.field, _evaluation_rows(backend, j, "g"), width)
    c_h = CodeBasis.from_rows(backend.field, _evaluation_rows(backend, j, "h"), width)
    if c_g.rank != backend.n + j or c_h.rank != backend.n - j:
        raise AssertionError(
            f"unexpected code dimensions {c_g.rank}/{c_h.rank} at j={j} on {backend!r}"
        )
    return c_g, c_h


def classical_params(backend: Backend, j: int) -> ClassicalParams:
    """Parameters of C(G) as a classical length-2n code over the code field.

    The dimension comes from the rank, the Hamming-distance bound is
    length/2 - g + 1 - j, and containment of the Euclidean dual is checked
    by explicitly computing the dual and reducing it against C(G).
    """
    f = backend.field
    width = 2 * backend.n
    rows = _evaluation_rows(backend, j, "g")
    reduced, pivots = rref(f, rows, width)
    dual_rows, _ = _nullspace_of_rref(f, reduced, pivots, width)
    contained = bool(row_in_span(f, reduced, pivots, dual_rows).all())
    return ClassicalParams(
        length=width,
        dim=len(reduced),
        d_hamming_lower=backend.n - backend.genus + 1 - j,
        euclidean_dual_contained=contained,
    )

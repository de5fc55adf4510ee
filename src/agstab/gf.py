"""Arithmetic for the binary fields GF(2^r), 1 <= r <= 16.

Field elements are bare integers in [0, 2^r); bit i holds the coefficient
of x^i in the polynomial-basis representation, so 0 and 1 are the additive
and multiplicative identities of every field and addition is plain XOR.
Multiplication, inversion and division run on log/antilog tables built
once per field from a fixed primitive element.

One modulus polynomial is fixed per degree so that element indices mean
the same thing in every run and in every file written by different runs:

    r =  1 : x + 1
    r =  2 : x^2 + x + 1
    r =  3 : x^3 + x + 1
    r =  4 : x^4 + x + 1
    r =  5 : x^5 + x^2 + 1
    r =  6 : x^6 + x + 1
    r =  7 : x^7 + x^3 + 1
    r =  8 : x^8 + x^4 + x^3 + x^2 + 1
    r =  9 : x^9 + x^4 + 1
    r = 10 : x^10 + x^3 + 1
    r = 11 : x^11 + x^2 + 1
    r = 12 : x^12 + x^6 + x^4 + x + 1
    r = 13 : x^13 + x^4 + x^3 + x + 1
    r = 14 : x^14 + x^10 + x^6 + x + 1
    r = 15 : x^15 + x + 1
    r = 16 : x^16 + x^12 + x^3 + x + 1

The constructor re-verifies irreducibility of the modulus by exhaustive
trial division, so a custom modulus cannot silently corrupt a field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

# Default irreducible polynomials over GF(2), keyed by extension degree.
# All of them have x (= index 2) as a primitive element.
_DEFAULT_MODULUS: dict[int, int] = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
    15: 0b1000000000000011,
    16: 0b10001000000001011,
}

MAX_DEGREE = 16


def _poly_mod_gf2(a: int, b: int) -> int:
    """Remainder of a divided by b, both polynomials over GF(2) as bit masks."""
    db = b.bit_length() - 1
    while a.bit_length() - 1 >= db and a:
        a ^= b << (a.bit_length() - 1 - db)
    return a


def is_irreducible_gf2(poly: int, degree: int) -> bool:
    """Exhaustive trial-division irreducibility test for a GF(2) polynomial.

    Checks every candidate divisor of degree 1 .. degree//2, which is
    feasible for degree <= 16.
    """
    if poly.bit_length() - 1 != degree or degree < 1:
        return False
    if degree == 1:
        return poly in (0b10, 0b11)
    if not poly & 1:  # divisible by x
        return False
    for d in range(1, degree // 2 + 1):
        for div in range(1 << d, 1 << (d + 1)):
            if _poly_mod_gf2(poly, div) == 0:
                return False
    return True


def _factor(n: int) -> list[int]:
    """Prime factors of n (each once), by trial division."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


class GF2m:
    """The finite field GF(2^r) with a fixed modulus polynomial.

    Parameters
    ----------
    degree : int
        Extension degree r, 1 <= r <= 16.
    modulus : int, optional
        Irreducible polynomial over GF(2) as a bit mask (bit i = coefficient
        of x^i).  Defaults to the documented per-degree polynomial.
    """

    def __init__(self, degree: int, modulus: int | None = None) -> None:
        if not 1 <= degree <= MAX_DEGREE:
            raise ValueError(f"degree must be in [1, {MAX_DEGREE}], got {degree}")
        if modulus is None:
            modulus = _DEFAULT_MODULUS[degree]
        if not is_irreducible_gf2(modulus, degree):
            raise ValueError(
                f"modulus {modulus:#b} is not irreducible of degree {degree} over GF(2)"
            )
        self.degree = degree
        self.modulus = modulus
        self.q = 1 << degree
        self.characteristic = 2

        self._exp: list[int] = [0] * (2 * self.q)
        self._log: list[int] = [0] * self.q
        self.generator = self._find_generator()
        val = 1
        for i in range(self.q - 1):
            self._exp[i] = val
            self._log[val] = i
            val = self._mul_raw(val, self.generator)
        for i in range(self.q - 1, 2 * self.q):
            self._exp[i] = self._exp[i - (self.q - 1)]

        self._log_antilog = None
        self._mul_table = None

    # -- construction helpers -------------------------------------------

    def _mul_raw(self, a: int, b: int) -> int:
        """Carry-less multiply mod the modulus, independent of the tables."""
        p = 0
        while b:
            if b & 1:
                p ^= a
            a <<= 1
            if a >> self.degree:
                a ^= self.modulus
            b >>= 1
        return p

    def _pow_raw(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._mul_raw(r, a)
            a = self._mul_raw(a, a)
            e >>= 1
        return r

    def _find_generator(self) -> int:
        """Smallest element index that generates the multiplicative group."""
        order = self.q - 1
        if order == 1:
            return 1
        primes = _factor(order)
        for cand in range(2, self.q):
            if all(self._pow_raw(cand, order // p) != 1 for p in primes):
                return cand
        raise AssertionError("no generator found (unreachable for a field)")

    # -- arithmetic ------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        """Sum of two elements (XOR of coefficient vectors)."""
        return a ^ b

    sub = add  # characteristic 2

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ValueError("division by zero in " + repr(self))
        return self._exp[(self.q - 1) - self._log[a]]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ValueError("division by zero in " + repr(self))
            return 0
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def elements(self) -> range:
        return range(self.q)

    def nonzero_elements(self) -> range:
        return range(1, self.q)

    def element(self, index: int) -> "FieldElement":
        return FieldElement(self, index)

    def min_poly(self, a: int) -> int:
        """Minimal polynomial of element a over GF(2), as a bit mask."""
        conjugates = []
        c = a
        while c not in conjugates:
            conjugates.append(c)
            c = self.mul(c, c)
        coeffs = [1]  # constant polynomial 1, little-endian field coefficients
        for c in conjugates:
            nxt = [0] * (len(coeffs) + 1)
            for i, co in enumerate(coeffs):
                nxt[i + 1] ^= co
                nxt[i] ^= self.mul(co, c)
            coeffs = nxt
        mask = 0
        for i, co in enumerate(coeffs):
            if co not in (0, 1):
                raise AssertionError("minimal polynomial has a coefficient outside GF(2)")
            mask |= co << i
        return mask

    # -- bulk tables -----------------------------------------------------

    @property
    def log_antilog(self):
        """numpy (log, antilog) arrays for vectorized multiplication.

        ``log[a]`` is the discrete log of a nonzero element (int32) and
        ``log[0]`` is a sentinel ``Z = 3(q-1)``.  ``antilog[i]`` is
        ``g^(i mod (q-1))`` for ``i < Z`` and 0 from ``Z`` to its end at
        ``2Z + q - 2``, in the element dtype (uint8 for q <= 256, uint16
        above).  So ``antilog[log[a] + log[b] + s]`` is ``a * b * g^s`` for
        every a, b and every shift ``0 <= s < q - 1``, with no zero masks.
        Built lazily, once per field; read-only.
        """
        if self._log_antilog is None:
            import numpy as np

            period = self.q - 1
            zero = 3 * period
            log = np.array(self._log, dtype=np.int32)
            log[0] = zero
            antilog = np.zeros(2 * zero + period, dtype=np.uint8 if self.q <= 256 else np.uint16)
            antilog[:zero] = np.tile(np.array(self._exp[:period], dtype=antilog.dtype), 3)
            log.setflags(write=False)
            antilog.setflags(write=False)
            self._log_antilog = (log, antilog)
        return self._log_antilog

    @property
    def mul_table(self):
        """q x q numpy multiplication table (uint8), for fields with q <= 256.

        One gather from ``log_antilog``, built lazily; shared read-only by
        the vectorized enumeration routines.
        """
        if self._mul_table is None:
            if self.q > 256:
                raise ValueError(
                    f"multiplication table only materialized for q <= 256, got q={self.q}"
                )
            log, antilog = self.log_antilog
            t = antilog[log[:, None] + log[None, :]]
            t.setflags(write=False)
            self._mul_table = t
        return self._mul_table

    # -- identity --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GF2m)
            and self.degree == other.degree
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.degree, self.modulus))

    def __repr__(self) -> str:
        return f"GF(2^{self.degree})"


@lru_cache(maxsize=None)
def field(degree: int) -> GF2m:
    """Shared GF(2^degree) instance with the default modulus."""
    return GF2m(degree)


@dataclass(frozen=True)
class FieldElement:
    """A field element bound to its field, for mix-up-safe arithmetic.

    The bulk code paths work on bare integer indices; this wrapper is the
    boundary representation that refuses to combine elements of different
    fields.
    """

    field: GF2m
    index: int

    def __post_init__(self) -> None:
        if not 0 <= self.index < self.field.q:
            raise ValueError(f"index {self.index} out of range for {self.field}")

    def _check(self, other: "FieldElement") -> None:
        if not isinstance(other, FieldElement):
            raise TypeError(f"cannot combine FieldElement with {type(other).__name__}")
        if self.field != other.field:
            raise ValueError(f"field mismatch: {self.field} vs {other.field}")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.field, self.index ^ other.index)

    __sub__ = __add__

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.field, self.field.mul(self.index, other.index))

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.field, self.field.div(self.index, other.index))

    def __pow__(self, e: int) -> "FieldElement":
        return FieldElement(self.field, self.field.pow(self.index, e))

    def __neg__(self) -> "FieldElement":
        return self

    def __bool__(self) -> bool:
        return self.index != 0

    def __repr__(self) -> str:
        return f"{self.field}[{self.index}]"


# ---------------------------------------------------------------------------
# GF(2) bit-matrix helpers (used by the subfield machinery and the descent
# coordinate maps; n <= 16 bits throughout).
# ---------------------------------------------------------------------------

def invert_bit_matrix(columns: Sequence[int], n: int) -> list[int]:
    """Invert an n x n GF(2) matrix given by column masks; returns row masks.

    Row mask k of the result has bit j set when (A^-1)[k][j] = 1, so applying
    the inverse to a vector y is ``parity(row[k] & y)`` per output bit.
    Raises ValueError when the matrix is singular.
    """
    rows = [0] * n
    for j, col in enumerate(columns):
        for i in range(n):
            if (col >> i) & 1:
                rows[i] |= 1 << j
    aug = [rows[i] | (1 << (n + i)) for i in range(n)]
    r = 0
    for c in range(n):
        piv = next((k for k in range(r, n) if (aug[k] >> c) & 1), None)
        if piv is None:
            raise ValueError("singular GF(2) matrix")
        aug[r], aug[piv] = aug[piv], aug[r]
        for k in range(n):
            if k != r and (aug[k] >> c) & 1:
                aug[k] ^= aug[r]
        r += 1
    return [a >> n for a in aug]


def solve_bit_system(equations: Iterable[tuple[int, int]], nbits: int) -> int | None:
    """One solution x of a GF(2) system, or None when inconsistent.

    ``equations`` yields (mask, rhs) pairs meaning parity(mask & x) = rhs.
    Free bits of the returned solution are zero.
    """
    rows: list[tuple[int, int, int]] = []  # (mask, rhs, pivot bit)
    for mask, rhs in equations:
        for pm, pr, pb in rows:
            if (mask >> pb) & 1:
                mask ^= pm
                rhs ^= pr
        if mask == 0:
            if rhs:
                return None
            continue
        pb = mask.bit_length() - 1
        rows = [
            (pm ^ mask, pr ^ rhs, opb) if (pm >> pb) & 1 else (pm, pr, opb)
            for pm, pr, opb in rows
        ]
        rows.append((mask, rhs, pb))
    x = 0
    for _, pr, pb in rows:
        if pr:
            x ^= 1 << pb
    return x


class SubfieldEmbedding:
    """The subfield GF(q) inside GF(q^m), with trace and Gram-matrix support.

    The embedding maps the subfield's canonical generator g to the smallest
    root of g's minimal polynomial among the order-(q-1) elements of the
    extension, which makes it a deterministic ring homomorphism.  Tables are
    immutable after construction and safe to share between threads.
    """

    def __init__(self, sub: GF2m, ext: GF2m) -> None:
        if ext.degree % sub.degree != 0:
            raise ValueError(
                f"{ext} is not an extension of {sub}: {ext.q} is not a power of {sub.q}"
            )
        self.sub = sub
        self.ext = ext
        self.m = ext.degree // sub.degree
        self._embed = self._build_embedding()
        self._project = {y: a for a, y in enumerate(self._embed)}

    def _build_embedding(self) -> list[int]:
        sub, ext = self.sub, self.ext
        if self.m == 1:
            if sub.modulus != ext.modulus:
                raise ValueError("same-size fields with different moduli cannot embed")
            return list(range(sub.q))
        mp = sub.min_poly(sub.generator)
        step = (ext.q - 1) // (sub.q - 1)
        base = ext.pow(ext.generator, step)
        roots = []
        z = 1
        for _ in range(sub.q - 1):
            # evaluate the GF(2)-coefficient minimal polynomial at z
            acc = 0
            for i in range(mp.bit_length() - 1, -1, -1):
                acc = ext.mul(acc, z) ^ ((mp >> i) & 1)
            if acc == 0:
                roots.append(z)
            z = ext.mul(z, base)
        if not roots:
            raise AssertionError("no root of the subfield minimal polynomial found")
        image = min(roots)
        emb = [0] * sub.q
        cur = 1
        for i in range(sub.q - 1):
            emb[sub._exp[i]] = cur
            cur = ext.mul(cur, image)
        return emb

    def embed(self, a: int) -> int:
        """Image in GF(q^m) of the subfield element with index a."""
        return self._embed[a]

    def project(self, y: int) -> int:
        """Inverse of embed; raises ValueError when y is outside the subfield."""
        try:
            return self._project[y]
        except KeyError:
            raise ValueError(f"{y} is not in the embedded {self.sub} inside {self.ext}")

    def trace(self, y: int) -> int:
        """Trace down to the subfield: sum of y^(q^i) for i = 0 .. m-1.

        The result is fixed by the q-power map, hence lies in the embedded
        subfield; it is returned as a subfield index.
        """
        acc = 0
        c = y
        for _ in range(self.m):
            acc ^= c
            c = self.ext.pow(c, self.sub.q)
        return self.project(acc)

    def coordinate_columns(self, basis: Sequence[int]) -> list[int]:
        """GF(2) column masks of (c_1..c_m) -> sum embed(c_i) * basis[i].

        One column per (basis element, subfield bit) pair, ordered with the
        subfield bits varying fastest.  Used to invert coordinate maps.
        """
        cols = []
        for alpha in basis:
            for bit in range(self.sub.degree):
                cols.append(self.ext.mul(self._embed[1 << bit], alpha))
        return cols

    def is_basis(self, basis: Sequence[int]) -> bool:
        """True when the elements are GF(q)-linearly independent of full size."""
        if len(basis) != self.m:
            return False
        try:
            invert_bit_matrix(self.coordinate_columns(basis), self.ext.degree)
        except ValueError:
            return False
        return True

    def gram_matrix(self, basis: Sequence[int]) -> tuple[tuple[int, ...], ...]:
        """Matrix of pairwise traces Tr(basis[i] * basis[j]), over the subfield.

        Requires a GF(q)-linearly independent basis; the result is symmetric
        and its invertibility (nondegeneracy of the trace form) is asserted
        by the callers that need it rather than assumed.
        """
        if not self.is_basis(basis):
            raise ValueError(
                f"need {self.m} GF({self.sub.q})-linearly independent elements, got {list(basis)}"
            )
        m = self.m
        M = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                t = self.trace(self.ext.mul(basis[i], basis[j]))
                M[i][j] = t
                M[j][i] = t
        return tuple(tuple(row) for row in M)

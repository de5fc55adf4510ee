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

``SubfieldEmbedding`` places GF(q) inside GF(q^m) and holds the embedding,
its inverse and the trace as lookup tables over every element; it also
evaluates every GF(q)-combination of a set of elements at once, which is
how basis tests and the descent's coordinate tables are built.  Lookups
reject values outside [0, q) (``as_elements``).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

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

        One gather from ``log_antilog``, built lazily and read-only.  Only
        the exhaustive decoding oracle (``decoder.exhaustive_coset_leaders``,
        which ``brute_oracle`` calls without a weight cap) uses it.  It
        stays until ROADMAP item 3, because the benchmark's tracer names it.
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


def as_elements(field: GF2m, values) -> np.ndarray:
    """A scalar or array of element indices as an integer array.

    ValueError, naming the first offending value and the field, when any
    value is not an integer in [0, q); a table lookup would otherwise wrap
    a negative index or fail with IndexError.  Only a failing input is
    scanned, as the Python values it holds: numpy stores a mix of small
    integers and 2^63 (or a float) as floats, which would misname the value.
    """
    a = np.asarray(values)
    if a.size and (a.dtype.kind not in "iu" or a.min() < 0 or a.max() >= field.q):
        bad = [v for v in np.asarray(values, dtype=object).flat if isinstance(v, bool)
               or not (isinstance(v, (int, np.integer)) and 0 <= v < field.q)]
        if bad:
            raise ValueError(f"{bad[0]} is not an element of {field}: expected an integer in [0, {field.q})")
    # an object array of valid Python integers passes the scan and converts here
    return a.astype(np.intp, copy=False)


class SubfieldEmbedding:
    """The subfield GF(q) inside GF(q^m), with trace and Gram-matrix support.

    The embedding maps the subfield's canonical generator g to the smallest
    root of g's minimal polynomial among the order-(q-1) elements of the
    extension, which makes it a deterministic ring homomorphism.  The
    embedding and the trace (``trace_table``, Tr(y) as a subfield index at
    entry y) are numpy tables over every element, built once; they are
    read-only and safe to share between threads.
    """

    def __init__(self, sub: GF2m, ext: GF2m) -> None:
        if ext.degree % sub.degree != 0:
            raise ValueError(
                f"{ext} is not an extension of {sub}: {ext.q} is not a power of {sub.q}"
            )
        self.sub = sub
        self.ext = ext
        self.m = ext.degree // sub.degree
        self._embed = np.array(self._build_embedding())
        project = np.full(ext.q, -1)  # the inverse of the embedding, -1 off the subfield
        project[self._embed] = np.arange(sub.q)
        # Tr(y) = y + y^q + .. + y^(q^(m-1)); q-th powers by repeated squaring
        # (antilog[2 log 0] is 0, so 0 needs no mask)
        log, antilog = ext.log_antilog
        power = np.arange(ext.q)
        total = np.zeros(ext.q, dtype=np.intp)
        for _ in range(self.m):
            total ^= power
            for _ in range(sub.degree):
                power = antilog[2 * log[power]]
        self.trace_table = project[total]
        if self.trace_table.min() < 0:
            raise AssertionError("a trace fell outside the embedded subfield")
        for table in (self._embed, self.trace_table):
            table.setflags(write=False)

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
        return int(self._embed[as_elements(self.sub, a)])

    def combinations(self, basis: Sequence[int]) -> np.ndarray:
        """sum embed(c_i) * basis[i] for every c in GF(q)^len(basis).

        Entry sum c_i q^i holds the image of c, so the table is a
        permutation of GF(q^m) exactly when ``basis`` has m elements and is
        a GF(q)-basis.
        """
        b = as_elements(self.ext, basis)
        log, antilog = self.ext.log_antilog
        return np.bitwise_xor.reduce(antilog[log[self._embed[self.tuples(len(b))]] + log[b]], axis=1)

    def tuples(self, k: int) -> np.ndarray:
        """Every c in GF(q)^k as a (q^k, k) array, row sum c_i q^i holding c."""
        return (np.arange(self.sub.q ** k)[:, None] >> (self.sub.degree * np.arange(k))) & (self.sub.q - 1)

    def is_basis(self, basis: Sequence[int]) -> bool:
        """True when the elements are GF(q)-linearly independent of full size."""
        if len(basis) != self.m:
            return False
        hit = np.zeros(self.ext.q, dtype=bool)
        hit[self.combinations(basis)] = True
        return bool(hit.all())

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
        log, antilog = self.ext.log_antilog
        b = log[as_elements(self.ext, basis)]
        return tuple(map(tuple, self.trace_table[antilog[b[:, None] + b[None, :]]].tolist()))

"""Subspaces of F_q^{2n} under the standard symplectic form.

The form pairs coordinate i with coordinate n+i:

    <x, y> = sum_i x_i y_{n+i} - sum_i x_{n+i} y_i

(the subtraction is addition here, everything is characteristic 2), so
<x, y> = x . swap(y), where swap exchanges the halves (``np.roll`` by n); the
weight of a vector counts the pairs (x_i, x_{n+i}) that are not both zero.
A basis is always kept in canonical reduced row echelon form so that any
two equal subspaces compare bit for bit.

The distance searches are the hot paths.  Every one sweeps the weights
w = 1, 2, .. on one meet-in-the-middle kernel (Stern 1988),
``_SyndromeSearch``: the exact distances (symplectic and Hamming) stop at
the first weight with a codeword, the weight-budget sweep at its budget.
The kernel also decodes on Hamming weight.  The checks may be any
independent rows that span the dual of the code searched, for hits and
weights do not depend on the basis: the sweeps ``sweep_min_weight`` and
``sweep_min_hamming_weight`` take them as given and read the rank off
them, and ``relative_min_weight`` and ``min_hamming_weight`` read them off
a canonical basis.  The vectors of weight exactly w with syndrome t split
after s_{w//2} of their support s_1 < ... < s_w; the left parts are held
sorted by a 64-bit GF(2)-linear fingerprint of their syndromes, the right
parts stream past them in chunks, looked up in sorted order past a small
left half, and every match is checked exactly.  Syndromes come from the
log/antilog arrays, so every GF(2^r), r <= 16, works.
ENUMERATION_CAP is the one refusal policy, read when each refusal runs: a
weight whose halves exceed it and the exhaustive decoding oracle with
q^(2n) over it raise ValueError.  An exact distance needs q^dim within it
(``_exhaustive``): past it the symplectic sweep needs a budget, and the
Hamming sweep gives None.  The two sweeps decide this themselves, and
give each refusal that rests on q, n and the rank before any kernel.

The [[n, k, d]] of a stabilizer code C(G) >= C(H) = C(G)^perp is read
off in ``artifact.verify_artifact``: n from the width, k from the ranks,
and d from ``sweep_min_weight`` on the fresh rows, where the C(H) rows
check C(G) and the C(G) rows check C(H).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, islice
from math import comb
from typing import Iterator, Sequence

import numpy as np

from . import linalg
from .gf import GF2m, as_elements

ENUMERATION_CAP = 1 << 24


@dataclass(frozen=True, eq=False)
class CodeBasis:
    """Canonical (rref) basis of a subspace of F_q^width.

    rows is a read-only (rank, width) array of field indices in the
    field's dtype.  Instances are immutable and hashable, and equality is
    bit-exact equality of the field, width, pivots and canonical rows.
    """

    field: GF2m
    width: int
    rows: np.ndarray
    pivots: tuple[int, ...]

    @classmethod
    def from_rows(cls, field: GF2m, rows: Sequence[Sequence[int]], width: int) -> "CodeBasis":
        reduced, pivots = linalg.rref(field, rows, width)
        return cls(field, width, reduced, pivots)

    @classmethod
    def zero(cls, field: GF2m, width: int) -> "CodeBasis":
        rows = np.zeros((0, width), dtype=field.log_antilog[1].dtype)
        rows.setflags(write=False)
        return cls(field, width, rows, ())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CodeBasis) and (self.field, self.width, self.pivots) == (
            other.field, other.width, other.pivots) and np.array_equal(self.rows, other.rows)

    def __hash__(self) -> int:  # no copy of the rows: equal pivots collide, and __eq__ tells them apart
        return hash((self.field, self.width, self.pivots))

    @property
    def rank(self) -> int:
        return len(self.rows)

    @cached_property
    def _symplectic_dual(self) -> "CodeBasis":
        # memo for symplectic_dual: relative_min_weight and descent.descend_code ask for the same dual
        if self.width % 2:
            raise ValueError("symplectic dual needs an even ambient length")
        # <x, c> = c . swap(x), so the dual is the swapped Euclidean kernel of the
        # rows; they are already reduced, so the kernel needs no elimination, and the
        # swapped kernel is the one reduction
        kernel = linalg._nullspace_rows(self.rows, self.pivots, self.width)
        return CodeBasis.from_rows(self.field, np.roll(kernel, self.width // 2, axis=1), self.width)


def syndrome_of(field: GF2m, v: Sequence[int], dual_rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """s_i = <v, b_i> for each dual-basis row b_i: the one-row case of ``_syndromes``.

    ValueError on odd or unequal lengths and on entries outside [0, q), in
    v or anywhere in the rows.
    """
    if len(v) % 2:
        raise ValueError(f"symplectic vectors have even length, got {len(v)}")
    try:
        B = linalg._as_array(field, dual_rows, len(v))
    except ValueError as exc:
        raise ValueError(f"dual {exc}") from None
    return tuple(_syndromes(field, as_elements(field, v)[None], B)[0].tolist())


def _syndromes(field: GF2m, vectors: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Row t is (<vectors[t], b_i>)_i for the rows b_i: <v, b> = v . swap(b), in one
    log/antilog gather over the nonzero entries of the block and the columns they meet."""
    log, antilog = field.log_antilog
    t, c = np.nonzero(vectors)
    partner = log.take(rows[:, (c + rows.shape[1] // 2) % rows.shape[1]].T)
    out = np.zeros((len(vectors), len(rows)), dtype=antilog.dtype)
    np.bitwise_xor.at(out, t, antilog.take(log.take(vectors[t, c])[:, None] + partner))
    return out


def symplectic_weight(x: Sequence[int]) -> int:
    """Number of index pairs (i, n+i) with (x_i, x_{n+i}) != (0, 0)."""
    if len(x) % 2:
        raise ValueError(f"symplectic vectors have even length, got {len(x)}")
    n = len(x) // 2
    return sum(1 for i in range(n) if x[i] or x[n + i])


def symplectic_dual(basis: CodeBasis) -> CodeBasis:
    """Basis of {x : <x, c> = 0 for all c in the row space}, computed once per basis.

    Since <x, c> = c . swap(x), the dual is the swap of the
    Euclidean kernel of the basis rows.  The rows are in rref, so the kernel
    is read off them with no elimination, and reducing the swapped kernel
    is the dual's one reduction.
    """
    return basis._symplectic_dual


def contains(outer: CodeBasis, inner: CodeBasis) -> bool:
    """True when every row of ``inner`` reduces to zero against ``outer``."""
    if outer.field != inner.field or outer.width != inner.width:
        raise ValueError("bases live in different ambient spaces")
    return bool(linalg.row_in_span(outer.field, outer.rows, outer.pivots, inner.rows).all())


# ---------------------------------------------------------------------------
# Relative minimum symplectic weight
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MinWeightResult:
    """Outcome of a minimum-weight search over C \\ D.

    status is "exact" (weight holds the minimum), "at-least" (no vector of
    weight <= budget exists; floor = budget + 1 is a lower bound), or
    "empty" (C equals D, the search set is empty).
    """

    status: str
    weight: int | None = None
    floor: int | None = None


def _supports(n: int, k: int, step: int) -> Iterator[np.ndarray]:
    """The k-subsets of range(n) in lexicographic order, as sorted rows of <= step arrays."""
    it = combinations(range(n), k)
    while block := list(islice(it, step)):
        yield np.array(block, dtype=np.int64).reshape(len(block), k)


class _SyndromeSearch:
    """Vectors of weight exactly w with syndrome t = (y . checks[r])_r.

    The g m coordinates form m positions: position p holds coordinates p,
    m + p, .., (g - 1) m + p, and the weight counts the nonzero positions.
    g = 1 is the Hamming weight; g = 2 against the swap of symplectic
    rows is the symplectic weight.  A vector of weight w is held as its
    support (w sorted positions) and its position values v in 1 .. q^g - 1,
    whose base-q digits, most significant first, are the coordinates.
    """

    CHUNK = 1 << 16  # right-half rows streamed, and matches expanded, at once
    HELD_BYTES = 1 << 24  # the halves a kernel keeps for its next joins, at 16 bytes a row
    SORTED_LOOKUP = 256  # left keys past which a chunk's argsort costs less than its unsorted lookup

    def __init__(self, field: GF2m, checks: Sequence[Sequence[int]], positions: int, group: int):
        log, _ = field.log_antilog
        H = np.asarray(checks, dtype=np.int64).reshape(len(checks), group * positions)
        self.field, self.n, self.group, self.base = field, positions, group, field.q ** group - 1
        # _log[k][p]: the logs of column k m + p, which digit k of position p multiplies
        self._log = log[np.ascontiguousarray(H.T)].reshape(group, positions, len(H))
        mix = random.Random(0)  # a fixed random GF(2)-linear map from syndrome bits to 64 bits
        self._mix = np.array([mix.getrandbits(64) for _ in range(len(H) * field.degree)], dtype=np.uint64)
        self._held: dict[tuple[str, int], object] = {}  # ("left" | "right", k) -> the half kept
        self._held_bytes = 0

    @cached_property
    def _bit_keys(self) -> np.ndarray:
        """Fingerprints of the single-bit position values 1, 2, 4, .. at each position (m, g r);
        a syndrome is GF(2)-linear in the bits of v, so these give every v.  Built on the first join."""
        nbits = self.group * self.field.degree
        position = np.repeat(np.arange(self.n), nbits)[:, None]
        unit = np.tile(1 << np.arange(nbits), self.n)[:, None]
        return self._fingerprints(self.syndromes(position, unit)).reshape(self.n, nbits)

    def _digits(self, values: np.ndarray) -> list[np.ndarray]:
        """The g base-q digits of position values, most significant first."""
        r, last = self.field.degree, self.group - 1
        return [(values >> (r * (last - k))) & (self.field.q - 1) for k in range(self.group)]

    def syndromes(self, support: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Exact syndromes (h, checks) of the vectors given by (h, w) supports and values."""
        log, antilog = self.field.log_antilog
        out = np.zeros((len(support), self._log.shape[2]), dtype=antilog.dtype)
        for p in range(support.shape[1]):
            for digit, column_log in zip(self._digits(values[:, p]), self._log):
                out ^= antilog[log[digit][:, None] + column_log[support[:, p]]]
        return out

    def dense(self, support: np.ndarray, values: np.ndarray) -> np.ndarray:
        """The same vectors as (h, g m) arrays."""
        out = np.zeros((len(support), self.group * self.n), dtype=np.int64)
        row = np.arange(len(support))[:, None]
        for k, digit in enumerate(self._digits(values)):
            out[row, k * self.n + support] = digit
        return out

    def _fingerprints(self, syndromes: np.ndarray) -> np.ndarray:
        """XOR of mix[c r + t] over the set bits t of every syndrome entry c, one bit plane at a time."""
        mix = self._mix.reshape(-1, self.field.degree)
        keys = np.zeros(len(syndromes), dtype=np.uint64)
        for t in range(self.field.degree):
            plane = ((syndromes >> t) & 1).astype(bool)
            keys ^= np.bitwise_xor.reduce(np.where(plane, mix[:, t], np.uint64(0)), axis=1)
        return keys

    def _half(self, support: np.ndarray) -> np.ndarray:
        """Fingerprints of the s * base^k vectors on s supports of size k, support-major;
        row d of a support has position values 1 + the base-``base`` digits of d, most significant first."""
        keys = np.zeros((len(support), 1), dtype=np.uint64)
        for p in range(support.shape[1]):
            value = np.zeros((len(support), self.base + 1), dtype=np.uint64)  # position value v -> fingerprint
            for b, column in enumerate(self._bit_keys[support[:, p]].T):
                value[:, 1 << b: 2 << b] = value[:, : 1 << b] ^ column[:, None]
            keys = (keys[:, :, None] ^ value[:, None, 1:]).reshape(len(support), -1)
        return keys.reshape(-1)

    def _values(self, digits: np.ndarray, k: int) -> np.ndarray:
        """Position values (h, k) of the rows with these within-support indices."""
        out = np.empty((len(digits), k), dtype=np.int64)
        for p in reversed(range(k)):
            digits, out[:, p] = np.divmod(digits, self.base)
        return out + 1

    def _hold(self, side: str, k: int, build):
        """The size-k half of ``side``, from ``build``: kept for the next joins while the kept
        halves fit HELD_BYTES, else built afresh each time (a right half then streams past)."""
        key, size = (side, k), 16 * comb(self.n, k) * self.base ** k
        if key not in self._held and self._held_bytes + size <= self.HELD_BYTES:
            self._held_bytes += size
            self._held[key] = build() if side == "left" else list(build())  # a right half is chunks
        return self._held.get(key) or build()

    def _left(self, k: int, shift: np.uint64) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(supports, sorted join keys, order) of the left half: all vectors of weight k."""
        support = np.concatenate(list(_supports(self.n, k, self.CHUNK)))
        end = support[:, -1] + 1 if k else np.zeros(1, dtype=np.int64)
        keys = self._half(support) >> shift << shift | np.repeat(end, self.base ** k).astype(np.uint64)
        order = np.argsort(keys)
        return support, keys[order], order

    def _right(self, k: int, shift: np.uint64) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """(supports, fingerprints with the low bits cleared) of the right half, in chunks."""
        for support in _supports(self.n, k, max(1, self.CHUNK // self.base ** k)):
            yield support, self._half(support) >> shift << shift

    def solutions(self, w: int, target: Sequence[int]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Blocks (support, values) of every vector of weight exactly w with syndrome ``target``.

        Raises ValueError, before any work, when either half has more than ENUMERATION_CAP rows.
        """
        n, base = self.n, self.base
        k_left, k_right = w // 2, w - w // 2
        if refused := _weight_refusal(w, n, base):
            raise ValueError(refused)
        if w > n:
            return
        target = np.asarray(target, dtype=np.int64)
        per_left, per_right = base ** k_left, base ** k_right
        # A join key is a fingerprint with its low bits replaced by 1 + the last
        # left position: the left rows that match a right row and end before
        # its first position are one run of the sorted keys.
        shift = np.uint64((n + 1).bit_length())
        left_support, left, order = self._hold("left", k_left, lambda: self._left(k_left, shift))
        want = self._fingerprints(target[None, :])[0] >> shift << shift
        for right_support, right in self._hold("right", k_right, lambda: self._right(k_right, shift)):
            keys = right ^ want
            # looked up in sorted order, which walks the left keys once, when the sort pays for itself
            sort = np.argsort(keys) if len(left) > self.SORTED_LOOKUP else slice(None)
            first = np.empty(len(keys), dtype=np.intp)
            first[sort] = np.searchsorted(left, keys[sort])
            start = np.repeat(right_support[:, 0] + 1, per_right).astype(np.uint64)
            # the right rows whose run of left matches may be nonempty (it is when the first
            # left key >= keys lies below keys | start), and the length of each run
            rows = np.flatnonzero(left.take(first, mode="clip") < (keys | start))
            count = np.searchsorted(left, keys[rows] | start[rows]) - first[rows]
            ends = np.cumsum(count)
            for lo in range(0, int(ends[-1]) if len(ends) else 0, self.CHUNK):
                pair = np.arange(lo, min(lo + self.CHUNK, int(ends[-1])))
                at = np.searchsorted(ends, pair, "right")
                ri = rows[at]
                li = order[first[ri] + pair - (ends[at] - count[at])]
                support = np.hstack([left_support[li // per_left], right_support[ri // per_right]])
                values = np.hstack([self._values(li % per_left, k_left), self._values(ri % per_right, k_right)])
                exact = (self.syndromes(support, values) == target).all(axis=1)
                if exact.any():
                    yield support[exact], values[exact]


def _weight_refusal(w: int, n: int, base: int) -> str | None:
    """Why the kernel refuses weight w over n positions of ``base`` nonzero values each: the
    first half with more than ENUMERATION_CAP rows; None when both halves fit."""
    for side, k in (("left", w // 2), ("right", w - w // 2)):
        if comb(n, k) * base ** k > ENUMERATION_CAP:
            return (f"weight {w}: the {side} half has C({n},{k}) * {base}^{k} = "
                    f"{comb(n, k) * base ** k} rows, over the cap {ENUMERATION_CAP}")
    return None


def _exhaustive(q: int, rank: int) -> bool:
    """The one test of both exact distances: the code, of q^rank vectors, is within ENUMERATION_CAP."""
    return q ** rank <= ENUMERATION_CAP


def _symplectic_search(field: GF2m, rows: np.ndarray, width: int) -> _SyndromeSearch:
    """The kernel on symplectic weight, checking <x, b> = x . swap(b) for the ``rows`` b."""
    return _SyndromeSearch(field, np.roll(rows, width // 2, axis=1), width // 2, 2)


def _first_weight(field: GF2m, c_checks: np.ndarray, d_checks: np.ndarray, width: int, budget: int) -> int | None:
    """The least symplectic weight 1..budget of a vector in C \\ D; None when all are heavier.

    The vectors of C are those with zero syndrome against its checks; a hit
    lies in D exactly when every check of D vanishes on it too.
    """
    in_c, in_d = (_symplectic_search(field, rows, width) for rows in (c_checks, d_checks))
    zero = (0,) * len(c_checks)
    for w in range(1, budget + 1):
        for support, values in in_c.solutions(w, zero):
            if in_d.syndromes(support, values).any():
                return w
    return None


def _enumerate_min_weight(field: GF2m, c_checks: np.ndarray, d_checks: np.ndarray, width: int) -> int:
    """Exact min symplectic weight over the nonempty C \\ D.

    The sweep of every weight 1, 2, .. stops at the first with a hit, so no
    lighter vector was missed; every vector has weight <= width / 2.
    """
    w = _first_weight(field, c_checks, d_checks, width, width // 2)
    if w is None:
        raise AssertionError("C \\ D is nonempty but the sweep found no vector")
    return w


def _budget_min_weight(field: GF2m, c_checks: np.ndarray, d_checks: np.ndarray, width: int,
                       budget: int) -> MinWeightResult:
    """Sweep the symplectic weights 1..budget for a vector in C \\ D; no weight builds no kernel."""
    w = _first_weight(field, c_checks, d_checks, width, budget) if budget >= 1 else None
    if w is None:
        return MinWeightResult(status="at-least", floor=budget + 1)
    return MinWeightResult(status="exact", weight=w)


def sweep_min_weight(field: GF2m, c_checks: np.ndarray, d_checks: np.ndarray, width: int,
                     budget: int | None = None, mode: str = "auto") -> MinWeightResult:
    """Minimum symplectic weight over C \\ D, D <= C in F_q^width, on independent rows that span
    C^perp (``c_checks``) and D^perp (``d_checks``); C has rank width - len(c_checks).

    It is "empty" when C and D have as many checks.  Mode "auto" sweeps
    every weight up to the exact minimum when C is ``_exhaustive``, and
    otherwise, as mode "budget" does, the weights up to the budget.  An
    unknown mode or mode "budget" with no budget raises ValueError, and so
    does, before any kernel is built, no budget past the cap or a weight 1
    whose halves exceed ENUMERATION_CAP rows, as a later such weight does
    when the sweep reaches it.
    """
    if mode not in ("auto", "budget"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "budget" and budget is None:
        raise ValueError('mode "budget" needs a budget')
    if len(c_checks) == len(d_checks):
        return MinWeightResult(status="empty")
    rank = width - len(c_checks)
    exact = mode == "auto" and _exhaustive(field.q, rank)
    if not exact and budget is None:
        try:
            dim = str(field.q ** rank)
        except ValueError:  # more digits than an int converts to (sys.get_int_max_str_digits)
            dim = f"{field.q}^{rank}"
        raise ValueError(f"q^dim = {dim} exceeds the enumeration cap; a weight budget is required")
    if (exact or budget >= 1) and (refused := _weight_refusal(1, width // 2, field.q ** 2 - 1)):
        raise ValueError(refused)
    if exact:
        return MinWeightResult(status="exact", weight=_enumerate_min_weight(field, c_checks, d_checks, width))
    return _budget_min_weight(field, c_checks, d_checks, width, budget)


def relative_min_weight(C: CodeBasis, D: CodeBasis, budget: int | None = None, mode: str = "auto") -> MinWeightResult:
    """Minimum symplectic weight over C \\ D: ``sweep_min_weight`` on the rows of the two duals.

    D must lie in C (ValueError).  The two modes cross-check each other.
    """
    if not contains(C, D):
        raise ValueError("D must be a subspace of C")
    # the checks of C are the rows of its dual, and those of D = C^perp the rows of C
    dual_c = symplectic_dual(C)
    dual_d = C if dual_c == D else symplectic_dual(D)
    return sweep_min_weight(C.field, dual_c.rows, dual_d.rows, C.width, budget, mode)


def min_hamming_weight(C: CodeBasis) -> int | None:
    """Exact minimum Hamming weight over the nonzero codewords of C, or None past the cap: the
    sweep on the Euclidean kernel rows read off the rref, unreduced.  ValueError for the zero code."""
    if C.rank == 0:
        raise ValueError("the zero code has no nonzero codeword")
    return sweep_min_hamming_weight(C.field, linalg._nullspace_rows(C.rows, C.pivots, C.width), C.width)


def sweep_min_hamming_weight(field: GF2m, checks: np.ndarray, width: int) -> int | None:
    """Minimum Hamming weight over the nonzero x in F_q^width with x . b = 0 for the rows b of
    ``checks``, independent, which span the Euclidean dual of the code; None, not enumerated, when
    the code is not ``_exhaustive``, the test of ``sweep_min_weight``'s exact sweep.

    The kernel with g = 1 sweeps the weights 1, 2, .. and stops at the
    first with a hit; the Singleton bound puts one at weight <= len(checks)
    + 1.  ValueError when a weight's halves exceed ENUMERATION_CAP rows.
    """
    if not _exhaustive(field.q, width - len(checks)):
        return None
    search = _SyndromeSearch(field, checks, width, 1)
    zero = (0,) * len(checks)
    for w in range(1, len(checks) + 2):
        if next(search.solutions(w, zero), None) is not None:
            return w
    raise AssertionError("no codeword within the Singleton bound")

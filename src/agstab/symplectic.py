"""Subspaces of F_q^{2n} under the standard symplectic form.

The form pairs coordinate i with coordinate n+i:

    <x, y> = sum_i x_i y_{n+i} - sum_i x_{n+i} y_i

(the subtraction is addition here, everything is characteristic 2), and the
weight of a vector counts the pairs (x_i, x_{n+i}) that are not both zero.
A basis is always kept in canonical reduced row echelon form so that any
two equal subspaces compare bit for bit.

The distance searches are the hot paths.  Every one sweeps the weights
w = 1, 2, .. on one meet-in-the-middle kernel (Stern 1988),
``_SyndromeSearch``: the exact distances (symplectic, for q^dim <=
ENUMERATION_CAP, and Hamming) stop at the first weight with a codeword,
the weight-budget sweep at its budget.  The kernel also decodes on Hamming
weight.  The vectors of weight exactly w with syndrome t split after
s_{w//2} of their support s_1 < ... < s_w; the left parts are held sorted
by a 64-bit GF(2)-linear fingerprint of their syndromes, the right parts
stream past them in chunks, and every match is checked exactly.  A weight
whose halves exceed the cap is refused with ValueError.  Syndromes come
from the log/antilog arrays, so every GF(2^r), r <= 16, works.
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
    def from_rows(cls, field: GF2m, rows: Sequence[Sequence[int]], width: int | None = None) -> "CodeBasis":
        if width is None:
            if not len(rows):
                raise ValueError("width is required for an empty row list")
            width = len(rows[0])
        reduced, pivots = linalg.rref(field, rows, width)
        return cls(field, width, reduced, pivots)

    @classmethod
    def zero(cls, field: GF2m, width: int) -> "CodeBasis":
        return cls.from_rows(field, (), width)

    def _key(self) -> tuple:
        return self.field, self.width, self.pivots, self.rows.tobytes()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CodeBasis) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def rank(self) -> int:
        return len(self.rows)

    def contains_row(self, row: Sequence[int]) -> bool:
        return bool(linalg.row_in_span(self.field, self.rows, self.pivots, [row])[0])

    @cached_property
    def _symplectic_dual(self) -> "CodeBasis":
        # memo for symplectic_dual: verify, the budget sweep and descent ask for the same dual
        if self.width % 2:
            raise ValueError("symplectic dual needs an even ambient length")
        # <x, h> is the standard product of x with swap_halves(h)
        R, pivots = linalg.rref(self.field, np.roll(self.rows, self.width // 2, axis=1), self.width)
        null, null_pivots = linalg._nullspace_of_rref(self.field, R, pivots, self.width)
        return CodeBasis(self.field, self.width, null, null_pivots)


def row_reduce(field: GF2m, rows: Sequence[Sequence[int]], width: int | None = None) -> tuple[CodeBasis, int]:
    """Canonical rref basis of the span of ``rows`` and its rank."""
    basis = CodeBasis.from_rows(field, rows, width)
    return basis, basis.rank


def symplectic_form(field: GF2m, x: Sequence[int], y: Sequence[int]) -> int:
    """<x, y> = sum x_i y_{n+i} - sum x_{n+i} y_i (signs collapse, char 2)."""
    return syndrome_of(field, x, [y])[0]


def syndrome_of(field: GF2m, v: Sequence[int], dual_rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """s_i = <v, b_i> for each dual-basis row b_i.

    <v, b> = v . swap_halves(b), in one log/antilog pass over the nonzero
    coordinates of v and the columns of the rows they meet.  ValueError on
    odd or unequal lengths and on entries outside [0, q), in v or anywhere
    in the rows.
    """
    if len(v) % 2:
        raise ValueError(f"symplectic vectors have even length, got {len(v)}")
    try:
        B = linalg._as_array(field, dual_rows, len(v))
    except ValueError as exc:
        raise ValueError(f"dual {exc}") from None
    y = as_elements(field, v)
    on = np.flatnonzero(y)
    log, antilog = field.log_antilog
    partner = log[B[:, (on + len(v) // 2) % len(v)]]
    return tuple(np.bitwise_xor.reduce(antilog[log[y[on]] + partner], axis=1).tolist())


def symplectic_weight(x: Sequence[int]) -> int:
    """Number of index pairs (i, n+i) with (x_i, x_{n+i}) != (0, 0)."""
    if len(x) % 2:
        raise ValueError(f"symplectic vectors have even length, got {len(x)}")
    n = len(x) // 2
    return sum(1 for i in range(n) if x[i] or x[n + i])


def swap_halves(x: Sequence[int]) -> tuple[int, ...]:
    """(x_1..x_n | x_{n+1}..x_{2n}) -> (x_{n+1}..x_{2n} | x_1..x_n)."""
    n = len(x) // 2
    return tuple(x[n:]) + tuple(x[:n])


def symplectic_dual(basis: CodeBasis) -> CodeBasis:
    """Basis of {x : <x, c> = 0 for all c in the row space}, reduced once per basis."""
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
    g = 1 is the Hamming weight; g = 2 against the swap_halves of symplectic
    rows is the symplectic weight.  A vector of weight w is held as its
    support (w sorted positions) and its position values v in 1 .. q^g - 1,
    whose base-q digits, most significant first, are the coordinates.
    """

    CHUNK = 1 << 16  # right-half rows streamed, and matches expanded, at once

    def __init__(self, field: GF2m, checks: Sequence[Sequence[int]], positions: int, group: int):
        log, _ = field.log_antilog
        H = np.asarray(checks, dtype=np.int64).reshape(len(checks), group * positions)
        self.field, self.n, self.group, self.base = field, positions, group, field.q ** group - 1
        # _log[k][p]: the logs of column k m + p, which digit k of position p multiplies
        self._log = log[np.ascontiguousarray(H.T)].reshape(group, positions, len(H))
        mix = random.Random(0)  # a fixed random GF(2)-linear map from syndrome bits to 64 bits
        self._mix = np.array([mix.getrandbits(64) for _ in range(len(H) * field.degree)], dtype=np.uint64)
        # fingerprints of the single-bit position values 1, 2, 4, .. at each position (m, g r);
        # a syndrome is GF(2)-linear in the bits of v, so these give every v
        nbits = group * field.degree
        position = np.repeat(np.arange(positions), nbits)[:, None]
        unit = np.tile(1 << np.arange(nbits), positions)[:, None]
        self._bit_keys = self._fingerprints(self.syndromes(position, unit)).reshape(positions, nbits)

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

    def solutions(self, w: int, target: Sequence[int], cap: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Blocks (support, values) of every vector of weight exactly w with syndrome ``target``.

        Raises ValueError, before any work, when either half has more than ``cap`` rows.
        """
        n, base = self.n, self.base
        k_left, k_right = w // 2, w - w // 2
        for side, k in (("left", k_left), ("right", k_right)):
            if comb(n, k) * base ** k > cap:
                raise ValueError(f"weight {w}: the {side} half has C({n},{k}) * {base}^{k} = "
                                 f"{comb(n, k) * base ** k} rows, over the cap {cap}")
        if w > n:
            return
        target = np.asarray(target, dtype=np.int64)
        per_left, per_right = base ** k_left, base ** k_right
        # A join key is a fingerprint with its low bits replaced by 1 + the last
        # left position: the left rows that match a right row and end before
        # its first position are one run of the sorted keys.
        shift = np.uint64((n + 1).bit_length())
        left_support = np.concatenate(list(_supports(n, k_left, self.CHUNK)))
        left_end = left_support[:, -1] + 1 if k_left else np.zeros(1, dtype=np.int64)
        left = self._half(left_support) >> shift << shift | np.repeat(left_end, per_left).astype(np.uint64)
        order = np.argsort(left)
        left = left[order]
        want = self._fingerprints(target[None, :])[0]
        for right_support in _supports(n, k_right, max(1, self.CHUNK // per_right)):
            keys = (self._half(right_support) ^ want) >> shift << shift
            first = np.searchsorted(left, keys)
            start = np.repeat(right_support[:, 0] + 1, per_right).astype(np.uint64)
            count = np.searchsorted(left, keys | start) - first
            ends = np.cumsum(count)
            for lo in range(0, int(ends[-1]), self.CHUNK):
                pair = np.arange(lo, min(lo + self.CHUNK, int(ends[-1])))
                ri = np.searchsorted(ends, pair, "right")
                li = order[first[ri] + pair - (ends[ri] - count[ri])]
                support = np.hstack([left_support[li // per_left], right_support[ri // per_right]])
                values = np.hstack([self._values(li % per_left, k_left), self._values(ri % per_right, k_right)])
                exact = (self.syndromes(support, values) == target).all(axis=1)
                if exact.any():
                    yield support[exact], values[exact]


def _symplectic_search(basis: CodeBasis) -> _SyndromeSearch:
    """The kernel on symplectic weight, checking <x, b> = x . swap_halves(b) for the rows b of ``basis``."""
    return _SyndromeSearch(basis.field, np.roll(basis.rows, basis.width // 2, axis=1), basis.width // 2, 2)


def _first_weight(C: CodeBasis, D: CodeBasis, budget: int, cap: int) -> int | None:
    """The least symplectic weight 1..budget of a vector in C \\ D; None when all are heavier.

    The vectors of C are those with zero syndrome against the checks of C
    (the rows of its symplectic dual); a hit lies in D exactly when every
    check of D vanishes on it too.  The checks of D = C^perp are the rows of C.
    """
    dual_c = symplectic_dual(C)
    in_c = _symplectic_search(dual_c)
    in_d = _symplectic_search(C if dual_c == D else symplectic_dual(D))
    zero = (0,) * (C.width - C.rank)
    for w in range(1, budget + 1):
        for support, values in in_c.solutions(w, zero, cap):
            if in_d.syndromes(support, values).any():
                return w
    return None


def _enumerate_min_weight(C: CodeBasis, D: CodeBasis, cap: int) -> int:
    """Exact min symplectic weight over the nonempty C \\ D.

    The sweep of every weight 1, 2, .. stops at the first with a hit, so no
    lighter vector was missed; every vector has weight <= n.
    """
    w = _first_weight(C, D, C.width // 2, cap)
    if w is None:
        raise AssertionError("C \\ D is nonempty but the sweep found no vector")
    return w


def _budget_min_weight(C: CodeBasis, D: CodeBasis, budget: int, cap: int = ENUMERATION_CAP) -> MinWeightResult:
    """Sweep the symplectic weights 1..budget for a vector in C \\ D."""
    w = _first_weight(C, D, budget, cap)
    if w is None:
        return MinWeightResult(status="at-least", floor=budget + 1)
    return MinWeightResult(status="exact", weight=w)


def relative_min_weight(
    C: CodeBasis,
    D: CodeBasis,
    budget: int | None = None,
    mode: str = "auto",
    cap: int = ENUMERATION_CAP,
) -> MinWeightResult:
    """Minimum symplectic weight over C \\ D.

    mode "auto" sweeps every weight up to the exact minimum whenever
    q^dim(C) <= cap and otherwise requires a budget; "exact" (refused past
    q^dim(C) > cap) and "budget" force one strategy (the latter is how the
    two are cross-checked against each other).  Either sweep raises
    ValueError when a weight's halves exceed ``cap`` rows.
    """
    if not contains(C, D):
        raise ValueError("D must be a subspace of C")
    if C.rank == D.rank:
        return MinWeightResult(status="empty")
    enumerable = C.field.q ** C.rank <= cap
    if mode == "exact" or (mode == "auto" and enumerable):
        if not enumerable:
            raise ValueError(f"q^dim = {C.field.q ** C.rank} exceeds the enumeration cap {cap}")
        return MinWeightResult(status="exact", weight=_enumerate_min_weight(C, D, cap))
    if mode not in ("auto", "budget"):
        raise ValueError(f"unknown mode {mode!r}")
    if budget is None:
        raise ValueError(
            f"q^dim = {C.field.q ** C.rank} exceeds the enumeration cap; a weight budget is required"
        )
    return _budget_min_weight(C, D, budget, cap)


def min_hamming_weight(C: CodeBasis, cap: int = ENUMERATION_CAP) -> int:
    """Exact minimum Hamming weight over the nonzero codewords of C.

    The kernel with g = 1 sweeps the Hamming weights 1, 2, .. for a vector
    with zero syndrome against the Euclidean dual of C and stops at the
    first with a hit; the Singleton bound puts one at weight <= width -
    rank + 1.  ValueError when a weight's halves exceed ``cap`` rows.
    """
    if C.rank == 0:
        raise ValueError("the zero code has no nonzero codeword")
    if C.rank == C.width:
        return 1  # no checks: every unit vector is a codeword
    checks, _ = linalg._nullspace_of_rref(C.field, C.rows, C.pivots, C.width)
    search = _SyndromeSearch(C.field, checks, C.width, 1)
    zero = (0,) * len(checks)
    for w in range(1, C.width - C.rank + 2):
        if next(search.solutions(w, zero, cap), None) is not None:
            return w
    raise AssertionError("no codeword within the Singleton bound")


# ---------------------------------------------------------------------------
# Stabilizer parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilizerParams:
    """[[n, k, d]] data extracted from a self-orthogonal-containing space.

    d_exact is set when a search established the exact minimum over the
    difference C \\ C^perp; d_lower carries the best known lower bound.
    For k = 0 the difference set is empty and d is undefined; the minimum
    nonzero weight of C itself is reported separately as
    zero_k_min_weight, which is a reporting convention, not a distance.
    """

    n: int
    k: int
    d_lower: int | None = None
    d_exact: int | None = None
    empty_difference: bool = False
    zero_k_min_weight: int | None = None

    @property
    def d(self) -> int | None:
        return self.d_exact if self.d_exact is not None else self.d_lower

    @property
    def t(self) -> int | None:
        """Correctable errors, floor((d - 1) / 2)."""
        d = self.d
        return None if d is None else (d - 1) // 2


def stabilizer_params(
    C: CodeBasis,
    distance: str = "exact",
    budget: int | None = None,
    d_lower: int | None = None,
    cap: int = ENUMERATION_CAP,
) -> StabilizerParams:
    """Extract [[n, k, d]] from C, which must satisfy C >= C^perp.

    distance selects how d is established: "none" records only the supplied
    lower bound, "exact" sweeps up to the minimum, "budget" sweeps weights <= budget and
    upgrades the bound when the sweep comes back empty.
    """
    if C.width % 2:
        raise ValueError("ambient length must be even")
    dual = symplectic_dual(C)
    if not contains(C, dual):
        raise ValueError("not symplectically self-orthogonal-containing: C does not contain its dual")
    n = C.width // 2
    k = C.rank - n
    if k == 0:
        info = None
        if distance != "none":
            res = relative_min_weight(C, CodeBasis.zero(C.field, C.width), budget=budget,
                                      mode="auto" if distance == "exact" else "budget", cap=cap)
            info = res.weight
        return StabilizerParams(n=n, k=k, d_lower=d_lower, empty_difference=True,
                                zero_k_min_weight=info)
    d_exact = None
    if distance == "exact":
        res = relative_min_weight(C, dual, budget=budget, cap=cap)
        if res.status == "exact":
            d_exact = res.weight
        elif res.status == "at-least":
            d_lower = max(d_lower or 0, res.floor) or None
    elif distance == "budget":
        if budget is None:
            raise ValueError("budget distance mode needs a budget")
        res = relative_min_weight(C, dual, budget=budget, mode="budget", cap=cap)
        if res.status == "exact":
            d_exact = res.weight
        else:
            d_lower = max(d_lower or 0, res.floor) or None
    elif distance != "none":
        raise ValueError(f"unknown distance mode {distance!r}")
    if d_exact is not None and d_lower is not None and d_exact < d_lower:
        raise ValueError(
            f"exact distance {d_exact} violates the claimed lower bound {d_lower}"
        )
    return StabilizerParams(n=n, k=k, d_lower=d_lower, d_exact=d_exact)

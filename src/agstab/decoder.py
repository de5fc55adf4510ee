"""Minimum-weight syndrome decoding for the symplectic codes built here.

Given a basis b_1 .. b_{n-k} of C^perp and measured values
s_i = <e, b_i>, the decoder looks for a vector of minimum symplectic
weight with that syndrome.  The search runs through a change of variable:
with e' = (-e_{n+1} .. -e_{2n}, e_1 .. e_n) the symplectic products of e
turn into standard inner products of e',

    <e, b> = e' . b,

so the problem becomes minimum Hamming-weight decoding against the same
basis, and w_H(e') <= 2 w(e).  Whenever the true error satisfies

    2 w(e) + 1 <= n - floor(deg G / 2)

the Hamming problem has a unique answer of weight at most twice that, the
solver is run with exactly that budget, and the recovered vector is
certified ("unique-guaranteed").  The status certifies the decoded vector,
not the planted one: it is the only vector inside that region with the
measured syndrome.  An error planted outside the region can decode to a
lighter vector inside it, certified and not the error; otherwise a
heavier answer comes back as a best-effort minimum ("found-min") or as an
explicit "budget-exhausted".

Two solvers answer the Hamming problem, and the checks pick one.

* The power sums (Berlekamp 1968, Massey 1969), when the checks are a
  ``curves.PowerBasis``, the rows x^i, i < rank, at distinct points P_c:
  C(H) on the rational curve, at every element of GF(q), checks an
  extended Reed-Solomon code, MDS of distance rank + 1.  The syndrome maps
  to the power sums p_i = sum_c y_c P_c^i, Berlekamp-Massey finds the
  shortest recurrence Lambda of p_0 .. p_{rank-1}, its roots among the
  inverse points locate the errors and Forney gives their values.  The
  column of the point 0 enters p_0 alone; an error there shows as
  deg Lambda = L - 1, and its value is what p_0 leaves over.  With
  2 budget <= rank (every rational code, with equality in about a quarter
  of them) a vector of weight <= budget is the only one: the kernel's.
* ``hamming_min_solve`` for all other checks (the Hermitian codes, a
  plain ``CodeBasis`` and 2 budget > rank): the meet-in-the-middle kernel
  of ``symplectic`` weight by weight, returning the lexicographically
  least vector of the first weight that has any; a weight whose halves
  exceed ENUMERATION_CAP rows, C(2n, k) * (q - 1)^k, is refused with
  ValueError (the cap is the one constant of ``symplectic``).  It is also
  the power sums' oracle in the tests.

Both recover the unique minimum inside the guarantee region and break
ties outside it lexicographically (the power sums have no ties: they
answer only where the minimum is unique).  ``DecodeResult.decoder`` names
the solver that answered.  ``decode_syndromes`` decodes a block of
syndromes, and ``symplectic_decode`` is its one-row case: the power sums,
roots, error values and the final syndrome check of a block are one
gather each, and the kernel, memoised on the check basis, keeps its
halves from one syndrome to the next.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from . import symplectic
from .curves import PowerBasis, monomial_matrix
from .gf import GF2m, as_elements
from .linalg import _as_array
from .symplectic import CodeBasis, _SyndromeSearch, _symplectic_search, _syndromes, syndrome_of


@dataclass(frozen=True)
class SyndromeProblem:
    """A dual-code basis plus one measured syndrome; a ``curves.PowerBasis`` is decoded by power sums."""

    dual_basis: CodeBasis
    syndrome: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.syndrome) != self.dual_basis.rank:
            raise ValueError(
                f"syndrome length {len(self.syndrome)} != dual rank {self.dual_basis.rank}"
            )

    @property
    def field(self) -> GF2m:
        return self.dual_basis.field

    @property
    def n(self) -> int:
        return self.dual_basis.width // 2

    @property
    def k(self) -> int:
        return self.n - self.dual_basis.rank


@dataclass(frozen=True)
class DecodeResult:
    """error is None exactly when status is "budget-exhausted"."""

    error: tuple[int, ...] | None
    weight: int | None
    status: str  # "unique-guaranteed" | "found-min" | "budget-exhausted"
    decoder: str = "search"  # "power-sums" | "search" | "none" (no checks, nothing to solve)


def _least_solution(search: _SyndromeSearch, target: Sequence[int], budget: int) -> tuple[tuple[int, ...], int] | None:
    """(lexicographically least vector, its weight) at the least weight 0 .. budget
    with syndrome ``target``; None when there is none that light."""
    if not any(target):
        return (0,) * (search.group * search.n), 0
    for w in range(1, budget + 1):
        hits = [search.dense(*block) for block in search.solutions(w, target)]
        if hits:
            vecs = np.concatenate(hits)
            return tuple(vecs[np.lexsort(vecs.T[::-1])[0]].tolist()), w
    return None


@lru_cache(maxsize=8)
def _hamming_search(basis: CodeBasis) -> _SyndromeSearch:
    """The Hamming-weight kernel on the rows of ``basis``.

    Memoised on the basis: decode-sim decodes every trial of a code against
    it, and the kernel keeps its halves (at most HELD_BYTES) from one trial
    to the next.
    """
    return _SyndromeSearch(basis.field, basis.rows, basis.width, 1)


def hamming_min_solve(
    field: GF2m,
    syndrome: Sequence[int],
    rows: Sequence[Sequence[int]],
    budget: int,
) -> tuple[int, ...] | None:
    """Minimum Hamming-weight y with y . rows[i] = syndrome[i] for all i.

    The kernel lists the vectors of each Hamming weight 1 .. budget with
    that syndrome; the lexicographically least one of the first weight that
    has any is returned, None when all weigh more than ``budget``.
    ValueError on ragged rows, entries outside [0, q), and a weight whose
    halves exceed ENUMERATION_CAP rows.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if not len(rows):
        raise ValueError("need at least one check row")
    if len(syndrome) != len(rows):
        raise ValueError(f"syndrome length {len(syndrome)} != {len(rows)} check rows")
    checks = _as_array(field, rows, len(rows[0]))
    search = _SyndromeSearch(field, checks, checks.shape[1], 1)
    found = _least_solution(search, _as_array(field, [syndrome], len(rows))[0], budget)
    return None if found is None else found[0]


class _PowerSums(NamedTuple):
    """What the power sums need of one power basis."""

    to_sums: np.ndarray  # logs of V[:, pivots], the map from a syndrome to its power sums
    logs: np.ndarray     # the log of each nonzero point
    columns: np.ndarray  # the column of each nonzero point
    zero: int | None     # the column of the point 0, None when no column has it


@lru_cache(maxsize=8)
def _power_sums(basis: PowerBasis) -> _PowerSums:
    """The power-sum data of ``basis``, the rref R of the rows V, x^i at its points, i < rank.

    ``curves.power_basis`` makes R with its points distinct, one per column,
    so R = T V with T invertible, and as R[:, pivots] = I, V[:, pivots] = T^-1
    maps the syndrome R y to the power sums V y.  Memoised on the basis: an
    equal one at other points (an affine image) checks the same code.
    """
    f, P = basis.field, as_elements(basis.field, basis.points)
    M = monomial_matrix(f, [(i,) for i in range(basis.rank)], P[:basis.rank, None])
    log = f.log_antilog[0]
    nonzero = np.flatnonzero(P)
    zero = np.flatnonzero(P == 0)
    return _PowerSums(log.take(M), log.take(P[nonzero]), nonzero, int(zero[0]) if zero.size else None)


def _poly_at(field: GF2m, coeffs: np.ndarray, x_logs: np.ndarray) -> np.ndarray:
    """sum_k coeffs[..., k] x^k at each nonzero x, given by its log, in one gather;
    the coefficient rows broadcast against x_logs."""
    log, antilog = field.log_antilog
    powers = np.multiply.outer(x_logs, np.arange(coeffs.shape[-1])) % (field.q - 1)
    return np.bitwise_xor.reduce(antilog.take(log.take(coeffs) + powers), axis=-1)


def _berlekamp_massey(field: GF2m, seq: Sequence[int], budget: int) -> tuple[list[int], int] | None:
    """(Lambda, L): the shortest recurrence seq[i] = sum_{k=1..L} Lambda[k] seq[i-k], L <= i,
    with Lambda[0] = 1 and no trailing zero; None as soon as L exceeds ``budget``."""
    lam, prev = [1], [1]  # the connection polynomial, and the one before the last length change
    L, shift, last = 0, 1, 1
    for i, s in enumerate(seq):
        d = s
        for k in range(1, min(L, len(lam) - 1) + 1):
            d ^= field.mul(lam[k], seq[i - k])
        if not d:
            shift += 1
            continue
        coef = field.div(d, last)
        new = lam + [0] * (len(prev) + shift - len(lam))
        for k, v in enumerate(prev):
            new[k + shift] ^= field.mul(coef, v)
        if 2 * L <= i:
            prev, last, L, shift = lam, d, i + 1 - L, 1
            if L > budget:
                return None
        else:
            shift += 1
        lam = new
    while len(lam) > 1 and not lam[-1]:
        lam.pop()
    return lam, L


def _error_values(field: GF2m, lam: np.ndarray, omega: np.ndarray, x_logs: np.ndarray) -> np.ndarray:
    """Forney: the value X Omega(X^-1) / Lambda'(X^-1) at each error locator X, given by its log,
    with the coefficients of Lambda and Omega in the locator's row of ``lam`` and ``omega``.

    The factor X is there because the power sums start at p_0.
    """
    log, antilog = field.log_antilog
    period = field.q - 1
    inverse = (period - x_logs) % period
    derivative = np.where(np.arange(lam.shape[-1]) % 2, lam, 0)[:, 1:]  # characteristic 2
    num, den = (log.take(_poly_at(field, poly, inverse)) for poly in (omega, derivative))
    return antilog.take((x_logs + num - den) % period)


def _power_sum_block(basis: PowerBasis, S: np.ndarray, budget: int) -> tuple[np.ndarray, np.ndarray]:
    """(Y, found): row t of Y is the y of Hamming weight <= ``budget`` with the syndrome S[t],
    where found[t], unique for 2 budget <= rank; Berlekamp-Massey per row and one gather for the
    power sums, the roots and the error values of the whole block."""
    f = basis.field
    data = _power_sums(basis)
    log, antilog = f.log_antilog
    sums = np.bitwise_xor.reduce(antilog.take(data.to_sums + log.take(S)[:, None, :]), axis=2)
    found = np.zeros(len(S), dtype=bool)
    lam = np.zeros((len(S), budget + 1), dtype=antilog.dtype)
    omega, degree, at_zero = np.zeros_like(lam), np.zeros(len(S), dtype=np.int64), np.zeros(len(S), dtype=bool)
    for t, p in enumerate(sums.tolist()):
        got = _berlekamp_massey(f, p, budget)
        if got is None:
            continue
        coeffs, L = got
        deg = len(coeffs) - 1
        # an error at the point 0 adds to p_0 alone: one more step of recurrence, no root
        at_zero[t] = deg == L - 1
        if deg not in (L, L - 1) or (at_zero[t] and data.zero is None):
            continue
        found[t], degree[t], lam[t, :deg + 1] = True, deg, coeffs
        for i in range(L):
            for k in range(min(i, deg) + 1):
                omega[t, i] ^= f.mul(coeffs[k], p[i - k])
    K = int(degree.max(initial=0)) + 1  # the longest Lambda of the block
    roots = _poly_at(f, lam[:, None, :K], (f.q - 1 - data.logs) % (f.q - 1)) == 0
    found &= roots.sum(axis=1) == degree
    t, c = np.nonzero(roots & found[:, None])
    Y = np.zeros((len(S), basis.width), dtype=antilog.dtype)
    Y[t, data.columns[c]] = _error_values(f, lam[t, :K], omega[t, :K], data.logs[c])
    zero = found & at_zero
    if zero.any():
        Y[zero, data.zero] = sums[zero, 0] ^ np.bitwise_xor.reduce(Y[zero], axis=1)
    return Y, found


def guarantee_cap(n: int, deg_g: int) -> int:
    """Largest t with 2t + 1 <= n - floor(deg G / 2); -1 when none."""
    bound = n - deg_g // 2
    return (bound - 1) // 2


def decode_syndromes(basis: CodeBasis, syndromes: Sequence[Sequence[int]], deg_g: int) -> list[DecodeResult]:
    """Decode a block of syndromes against the checks ``basis`` through the swap reduction.

    The Hamming budget is 2 * t_cap, covering every error inside the guarantee
    region; each certificate reflects whether the recovered vector itself sits
    inside it.  The power sums answer when ``basis`` is a ``curves.PowerBasis``
    and 2 budget <= rank, else the kernel; with no checks (C^perp = 0), zero.
    """
    f, n = basis.field, basis.width // 2
    S = as_elements(f, syndromes).reshape(len(syndromes), basis.rank)
    budget = max(0, 2 * guarantee_cap(n, deg_g))
    Y, found = np.zeros((len(S), basis.width), dtype=f.log_antilog[1].dtype), np.ones(len(S), dtype=bool)
    if not basis.rank:
        decoder = "none"
    elif isinstance(basis, PowerBasis) and 2 * budget <= basis.rank:
        (Y, found), decoder = _power_sum_block(basis, S, budget), "power-sums"
    else:
        search, decoder = _hamming_search(basis), "search"
        for t, s in enumerate(S):
            got = _least_solution(search, s, budget)
            found[t] = got is not None
            Y[t] = got[0] if got else 0
    E = np.roll(Y, n, axis=1)  # the swap of the halves, its own inverse in characteristic 2
    if not np.array_equal(_syndromes(f, E[found], basis.rows), S[found]):
        raise AssertionError("swap reduction produced a wrong syndrome")
    weights = ((E[:, :n] != 0) | (E[:, n:] != 0)).sum(axis=1).tolist()
    bound = n - deg_g // 2
    return [DecodeResult(error=tuple(e), weight=w, decoder=decoder,
                         status="unique-guaranteed" if 2 * w + 1 <= bound else "found-min")
            if ok else DecodeResult(error=None, weight=None, status="budget-exhausted", decoder=decoder)
            for e, w, ok in zip(E.tolist(), weights, found.tolist())]


def symplectic_decode(problem: SyndromeProblem, deg_g: int) -> DecodeResult:
    """Decode one syndrome: the one-row case of ``decode_syndromes``."""
    return decode_syndromes(problem.dual_basis, [problem.syndrome], deg_g)[0]


# ---------------------------------------------------------------------------
# Exhaustive reference decoding
# ---------------------------------------------------------------------------

def _hold_tile(pattern: np.ndarray, hold: int, tiles: int) -> np.ndarray:
    """Each pattern value repeated ``hold`` times, the whole thing ``tiles`` times."""
    return np.tile(np.repeat(pattern, hold), tiles)


def _all_syndromes(field: GF2m, dual: CodeBasis) -> np.ndarray:
    """Syndrome matrix of every ambient vector, enumerated in index order.

    Vectors are enumerated with big-endian digits, so index order is
    lexicographic on the entry tuples.  Each coordinate contributes a
    q-periodic pattern, built by repeat/tile instead of per-index division.
    """
    q = field.q
    width = dual.width
    total = q ** width
    if total > symplectic.ENUMERATION_CAP:
        raise ValueError(f"q^(2n) = {total} exceeds the enumeration cap {symplectic.ENUMERATION_CAP}")
    mul = field.mul_table
    checks = np.roll(dual.rows, width // 2, axis=1)
    syn = np.zeros((total, dual.rank), dtype=np.uint8)
    for r, c in zip(*np.nonzero(checks)):
        syn[:, r] ^= _hold_tile(mul[:, checks[r, c]], q ** (width - 1 - c), q ** c)
    return syn


def _vector_of_index(q: int, width: int, index: int) -> tuple[int, ...]:
    return tuple(index // q ** (width - 1 - c) % q for c in range(width))


def _weights_by_index(q: int, width: int) -> np.ndarray:
    n = width // 2
    total = q ** width
    w = np.zeros(total, dtype=np.int16)
    nonzero = np.arange(q) != 0
    for i in range(n):
        left = _hold_tile(nonzero, q ** (width - 1 - i), q ** i)
        right = _hold_tile(nonzero, q ** (width - 1 - (n + i)), q ** (n + i))
        w += left | right
    return w


def brute_oracle(problem: SyndromeProblem, weight_cap: int | None = None) -> DecodeResult:
    """Exact coset minimizer by exhaustive enumeration.

    Without ``weight_cap`` the syndrome's exhaustive coset leader is
    returned (requires q^(2n) <= ENUMERATION_CAP); with it, the kernel lists
    the coset weight by weight up to ``weight_cap`` (ValueError past
    ENUMERATION_CAP rows per half), and "budget-exhausted" is returned when
    the coset has no vector that light.  Ties are broken lexicographically
    on the entry tuple.
    """
    if weight_cap is None:
        vec, w = exhaustive_coset_leaders(problem.field, problem.dual_basis)[tuple(problem.syndrome)]
        return DecodeResult(error=vec, weight=w, status="found-min")
    dual = problem.dual_basis
    found = _least_solution(_symplectic_search(dual.field, dual.rows, dual.width), problem.syndrome, weight_cap)
    if found is None:
        return DecodeResult(error=None, weight=None, status="budget-exhausted")
    return DecodeResult(error=found[0], weight=found[1], status="found-min")


def exhaustive_coset_leaders(field: GF2m, dual: CodeBasis) -> dict[tuple[int, ...], tuple[tuple[int, ...], int]]:
    """Map from every syndrome to its (lexicographic-first) minimum-weight coset
    vector; ValueError when q^(2n) exceeds ENUMERATION_CAP."""
    syn = _all_syndromes(field, dual)
    weights = _weights_by_index(field.q, dual.width)
    r = dual.rank
    powers = field.q ** np.arange(r - 1, -1, -1, dtype=np.int64)
    keys = syn.astype(np.int64) @ powers if r else np.zeros(len(weights), dtype=np.int64)
    # stable weight sort keeps lexicographic (= index) order inside each weight
    order = np.argsort(weights, kind="stable")
    _, first = np.unique(keys[order], return_index=True)
    out: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {}
    for pos in first:
        idx = int(order[pos])
        key = tuple(int(v) for v in syn[idx])
        out[key] = (_vector_of_index(field.q, dual.width, idx), int(weights[idx]))
    return out

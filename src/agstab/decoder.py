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
certified ("unique-guaranteed").  Heavier errors come back either as a
best-effort minimum ("found-min") or as an explicit "budget-exhausted",
never as a silently wrong certificate.

Two solvers answer the Hamming problem, and the problem's data picks one.

* ``power_sum_solve`` (Berlekamp 1968, Massey 1969), when the problem
  states ``points``: the x-coordinate P_c of each column, so that the rows
  x^i at the points, i < rank, span the checks.  That is C(H) on the
  rational curve, evaluated at every element of GF(q): the checked code is
  an extended Reed-Solomon code, MDS of distance rank + 1.  The syndrome
  maps to the power sums p_i = sum_c y_c P_c^i, Berlekamp-Massey finds the
  shortest recurrence Lambda of p_0 .. p_{rank-1}, its roots among the
  inverse points locate the errors and Forney gives their values.  The
  column of the point 0 enters p_0 alone; an error there shows as
  deg Lambda = L - 1, and its value is what p_0 leaves over.  The points
  are checked once per (basis, points): distinct, one per column, and the
  rows x^i spanning the checks, or ValueError.  With 2 budget <= rank
  (which holds for every rational code, with equality in about a quarter
  of them) a vector of weight <= budget is the only one, so the answer is
  the kernel's.
* ``hamming_min_solve``, for every other problem (the Hermitian codes, a
  problem without points, and one with 2 budget > rank): the
  meet-in-the-middle kernel of ``symplectic`` weight by weight, returning
  the lexicographically least vector of the first weight that has any; a
  weight whose halves exceed ENUMERATION_CAP rows, C(2n, k) * (q - 1)^k,
  is refused with ValueError (the cap is the one constant of
  ``symplectic``).  It is also the power-sum solver's oracle in the tests.

Both recover the unique minimum inside the guarantee region and break
ties outside it lexicographically (the power-sum solver has no ties: it
answers only where the minimum is unique).  ``DecodeResult.decoder``
names the solver that answered.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from . import symplectic
from .curves import monomial_matrix
from .gf import GF2m, as_elements
from .linalg import _as_array, rref
from .symplectic import (
    CodeBasis,
    _SyndromeSearch,
    _symplectic_search,
    swap_halves,
    symplectic_weight,
    syndrome_of,
)


@dataclass(frozen=True)
class SyndromeProblem:
    """A dual-code basis plus one measured syndrome."""

    dual_basis: CodeBasis
    syndrome: tuple[int, ...]
    # the x-coordinate of each column, stating that the rows x^i, i < rank, span the
    # dual basis (checked before the power-sum solver uses them); None for checks of any other form
    points: tuple[int, ...] | None = None

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
def _hamming_search(field: GF2m, shape: tuple[int, int], rows: bytes) -> _SyndromeSearch:
    """The Hamming-weight kernel on the check rows whose element array has this shape and these bytes.

    Memoised: decode-sim decodes every trial of a code against the same rows.
    """
    checks = np.frombuffer(rows, dtype=field.log_antilog[1].dtype).reshape(shape)
    return _SyndromeSearch(field, checks, shape[1], 1)


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
    width = len(rows[0])
    checks = _as_array(field, rows, width)
    search = _hamming_search(field, checks.shape, checks.tobytes())
    found = _least_solution(search, _as_array(field, [syndrome], len(rows))[0], budget)
    return None if found is None else found[0]


class _PowerSums(NamedTuple):
    """What ``power_sum_solve`` needs of one (basis, points) pair."""

    to_sums: np.ndarray  # logs of V[:, pivots], the map from a syndrome to its power sums
    logs: np.ndarray     # the log of each nonzero point
    columns: np.ndarray  # the column of each nonzero point
    zero: int | None     # the column of the point 0, None when no column has it


@lru_cache(maxsize=8)
def _power_sums(basis: CodeBasis, points: tuple[int, ...]) -> _PowerSums:
    """The power-sum data of ``basis`` at ``points``, once the points are proved to fit it.

    V is the rows x^i, i < rank, at the points.  ValueError unless the
    points are distinct field elements, one per column, and the rref of V
    is the basis R, which holds exactly when V reduces to zero against R
    and rank V = rank R (one elimination of V costs half as much as that
    reduction and the rank of V[:, pivots]).  Then R = T V with T
    invertible, and as R[:, pivots] = I, V[:, pivots] = T^-1 maps the
    syndrome R y to the power sums V y.  Memoised: decode-sim decodes
    every trial of a code against the same basis and points.
    """
    f = basis.field
    P = as_elements(f, points)
    if P.shape != (basis.width,):
        raise ValueError(f"{P.size} points for {basis.width} columns")
    if basis.width and np.bincount(P, minlength=f.q).max() > 1:
        raise ValueError("the points are not distinct")
    V = monomial_matrix(f, [(i,) for i in range(basis.rank)], P[:, None])
    reduced, pivots = rref(f, V, basis.width)
    if pivots != basis.pivots or not np.array_equal(reduced, basis.rows):
        raise ValueError("the rows x^i, i < rank, at the points do not span the checks")
    M = V[:, list(pivots)]
    log = f.log_antilog[0]
    nonzero = np.flatnonzero(P)
    zero = np.flatnonzero(P == 0)
    return _PowerSums(log.take(M), log.take(P[nonzero]), nonzero, int(zero[0]) if zero.size else None)


def _poly_at(field: GF2m, coeffs: Sequence[int], x_logs: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] x^k at each nonzero x, given by its log: one gather."""
    log, antilog = field.log_antilog
    powers = np.multiply.outer(np.arange(len(coeffs)), x_logs) % (field.q - 1)
    return np.bitwise_xor.reduce(antilog.take(log.take(coeffs)[:, None] + powers), axis=0)


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


def _error_values(field: GF2m, lam: Sequence[int], omega: Sequence[int], x_logs: np.ndarray) -> np.ndarray:
    """Forney: the value X Omega(X^-1) / Lambda'(X^-1) at each error locator X, given by its log.

    The factor X is there because the power sums start at p_0.
    """
    log, antilog = field.log_antilog
    period = field.q - 1
    inverse = (period - x_logs) % period
    derivative = [c if k % 2 else 0 for k, c in enumerate(lam)][1:]  # characteristic 2
    num, den = (log.take(_poly_at(field, poly, inverse)) for poly in (omega, derivative))
    return antilog.take((x_logs + num - den) % period)


def power_sum_solve(
    basis: CodeBasis,
    points: Sequence[int],
    syndrome: Sequence[int],
    budget: int,
) -> tuple[int, ...] | None:
    """The y of Hamming weight at most ``budget`` with y . basis.rows[i] = syndrome[i]
    for all i, None when there is none, for checks that the rows x^i at ``points`` span.

    With 2 budget <= rank such a y is unique, and it is what
    ``hamming_min_solve`` returns.  ValueError when 2 budget > rank, on a
    syndrome of the wrong length or with entries outside [0, q), and when
    the points do not fit the basis (``_power_sums``).
    """
    if not 0 <= 2 * budget <= basis.rank:
        raise ValueError(f"budget {budget} is outside [0, rank / 2] for rank {basis.rank}")
    if len(syndrome) != basis.rank:
        raise ValueError(f"syndrome length {len(syndrome)} != {basis.rank} check rows")
    f = basis.field
    data = _power_sums(basis, tuple(points))
    log, antilog = f.log_antilog
    sums = np.bitwise_xor.reduce(antilog.take(data.to_sums + log.take(as_elements(f, syndrome))), axis=1)
    p = sums.tolist()
    found = _berlekamp_massey(f, p, budget)
    if found is None:
        return None
    lam, L = found
    deg = len(lam) - 1
    # an error at the point 0 adds to p_0 alone: one more step of recurrence, no root
    at_zero = deg == L - 1
    if deg not in (L, L - 1) or (at_zero and data.zero is None):
        return None
    roots = np.flatnonzero(_poly_at(f, lam, (f.q - 1 - data.logs) % (f.q - 1)) == 0)
    if len(roots) != deg:
        return None
    omega = [0] * L
    for i in range(L):
        for k in range(min(i, deg) + 1):
            omega[i] ^= f.mul(lam[k], p[i - k])
    values = _error_values(f, lam, omega, data.logs[roots])
    y = np.zeros(basis.width, dtype=values.dtype)
    y[data.columns[roots]] = values
    if at_zero:
        y[data.zero] = p[0] ^ int(np.bitwise_xor.reduce(values, initial=0))
    return tuple(y.tolist())


def guarantee_cap(n: int, deg_g: int) -> int:
    """Largest t with 2t + 1 <= n - floor(deg G / 2); -1 when none."""
    bound = n - deg_g // 2
    return (bound - 1) // 2


def symplectic_decode(problem: SyndromeProblem, deg_g: int) -> DecodeResult:
    """Decode one syndrome through the swap reduction.

    The Hamming budget is 2 * t_cap, covering every error inside the
    guarantee region; the certificate on the result reflects whether the
    recovered vector itself sits inside that region.  With no checks
    (C^perp = 0) the least vector of the empty syndrome is the zero vector.
    """
    field = problem.field
    n = problem.n
    bound = n - deg_g // 2
    budget = max(0, 2 * guarantee_cap(n, deg_g))
    basis = problem.dual_basis
    if not basis.rank:
        y, decoder = (0,) * basis.width, "none"
    elif problem.points is not None and 2 * budget <= basis.rank:
        y, decoder = power_sum_solve(basis, problem.points, problem.syndrome, budget), "power-sums"
    else:
        y, decoder = hamming_min_solve(field, problem.syndrome, basis.rows, budget), "search"
    if y is None:
        return DecodeResult(error=None, weight=None, status="budget-exhausted", decoder=decoder)
    e = swap_halves(y)  # its own inverse in characteristic 2
    got = syndrome_of(field, e, problem.dual_basis.rows)
    if got != tuple(problem.syndrome):
        raise AssertionError("swap reduction produced a wrong syndrome")
    w = symplectic_weight(e)
    status = "unique-guaranteed" if 2 * w + 1 <= bound else "found-min"
    return DecodeResult(error=e, weight=w, status=status, decoder=decoder)


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
    found = _least_solution(_symplectic_search(problem.dual_basis), problem.syndrome, weight_cap)
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

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

The Hamming solver runs the meet-in-the-middle kernel of ``symplectic``
weight by weight and returns the lexicographically least vector of the
first weight that has any; a weight whose halves exceed ORACLE_CAP rows,
C(2n, k) * (q - 1)^k, is refused with ValueError.  It is a stand-in with
the same outside behaviour as a dedicated algebraic-geometry decoder:
unique minimum-weight recovery inside the guarantee region, and
deterministic lexicographic tie-breaking outside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .gf import GF2m
from .linalg import _as_array
from .symplectic import (
    CodeBasis,
    _SyndromeSearch,
    _symplectic_search,
    swap_halves,
    symplectic_weight,
    syndrome_of,
)

ORACLE_CAP = 1 << 24


@dataclass(frozen=True)
class SyndromeProblem:
    """A dual-code basis plus one measured syndrome."""

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


def _least_solution(
    search: _SyndromeSearch, target: Sequence[int], budget: int, cap: int
) -> tuple[tuple[int, ...], int] | None:
    """(lexicographically least vector, its weight) at the least weight 0 .. budget
    with syndrome ``target``; None when there is none that light."""
    if not any(target):
        return (0,) * (search.group * search.n), 0
    for w in range(1, budget + 1):
        hits = [search.dense(*block) for block in search.solutions(w, target, cap)]
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
    halves exceed ORACLE_CAP rows.
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
    found = _least_solution(search, _as_array(field, [syndrome], len(rows))[0], budget, ORACLE_CAP)
    return None if found is None else found[0]


def guarantee_cap(n: int, deg_g: int) -> int:
    """Largest t with 2t + 1 <= n - floor(deg G / 2); -1 when none."""
    bound = n - deg_g // 2
    return (bound - 1) // 2


def symplectic_decode(problem: SyndromeProblem, deg_g: int) -> DecodeResult:
    """Decode one syndrome through the swap reduction.

    The Hamming budget is 2 * t_cap, covering every error inside the
    guarantee region; the certificate on the result reflects whether the
    recovered vector itself sits inside that region.
    """
    field = problem.field
    n = problem.n
    bound = n - deg_g // 2
    budget = max(0, 2 * guarantee_cap(n, deg_g))
    y = hamming_min_solve(field, problem.syndrome, problem.dual_basis.rows, budget)
    if y is None:
        return DecodeResult(error=None, weight=None, status="budget-exhausted")
    e = swap_halves(y)  # its own inverse in characteristic 2
    got = syndrome_of(field, e, problem.dual_basis.rows)
    if got != tuple(problem.syndrome):
        raise AssertionError("swap reduction produced a wrong syndrome")
    w = symplectic_weight(e)
    status = "unique-guaranteed" if 2 * w + 1 <= bound else "found-min"
    return DecodeResult(error=e, weight=w, status=status)


# ---------------------------------------------------------------------------
# Exhaustive reference decoding
# ---------------------------------------------------------------------------

def _hold_tile(pattern: np.ndarray, hold: int, tiles: int) -> np.ndarray:
    """Each pattern value repeated ``hold`` times, the whole thing ``tiles`` times."""
    return np.tile(np.repeat(pattern, hold), tiles)


def _all_syndromes(field: GF2m, dual: CodeBasis, cap: int) -> np.ndarray:
    """Syndrome matrix of every ambient vector, enumerated in index order.

    Vectors are enumerated with big-endian digits, so index order is
    lexicographic on the entry tuples.  Each coordinate contributes a
    q-periodic pattern, built by repeat/tile instead of per-index division.
    """
    q = field.q
    width = dual.width
    total = q ** width
    if total > cap:
        raise ValueError(f"q^(2n) = {total} exceeds the oracle cap {cap}")
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


def brute_oracle(
    problem: SyndromeProblem,
    cap: int = ORACLE_CAP,
    weight_cap: int | None = None,
) -> DecodeResult:
    """Exact coset minimizer by exhaustive enumeration.

    Without ``weight_cap`` the syndrome's exhaustive coset leader is
    returned (requires q^(2n) <= cap); with it, the meet-in-the-middle
    kernel lists the coset weight by weight up to ``weight_cap`` (ValueError
    past ``cap`` rows per half), and "budget-exhausted" is returned when the
    coset has no vector that light.  Ties are broken lexicographically on
    the entry tuple.
    """
    if weight_cap is None:
        vec, w = exhaustive_coset_leaders(problem.field, problem.dual_basis, cap)[tuple(problem.syndrome)]
        return DecodeResult(error=vec, weight=w, status="found-min")
    found = _least_solution(_symplectic_search(problem.dual_basis), problem.syndrome, weight_cap, cap)
    if found is None:
        return DecodeResult(error=None, weight=None, status="budget-exhausted")
    return DecodeResult(error=found[0], weight=found[1], status="found-min")


def exhaustive_coset_leaders(
    field: GF2m, dual: CodeBasis, cap: int = ORACLE_CAP
) -> dict[tuple[int, ...], tuple[tuple[int, ...], int]]:
    """Map from every syndrome to its (lexicographic-first) minimum-weight coset vector."""
    syn = _all_syndromes(field, dual, cap)
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

"""Shared brute-force reference implementations for the test suite.

These are deliberately naive (itertools over whole spaces) so they stay
independent of the library's vectorized paths; keep them on tiny inputs.
"""

from __future__ import annotations

from itertools import product

from agstab.gf import GF2m


def span_vectors(field: GF2m, rows: list[tuple[int, ...]], width: int) -> set[tuple[int, ...]]:
    """Every linear combination of the rows, as a set of tuples."""
    out = set()
    for coeffs in product(field.elements(), repeat=len(rows)):
        v = [0] * width
        for c, row in zip(coeffs, rows):
            if c:
                for i in range(width):
                    v[i] ^= field.mul(c, row[i])
        out.add(tuple(v))
    return out


def naive_symplectic_form(field: GF2m, x, y) -> int:
    n = len(x) // 2
    acc = 0
    for i in range(n):
        acc ^= field.mul(x[i], y[n + i]) ^ field.mul(x[n + i], y[i])
    return acc


def naive_symplectic_dual(field: GF2m, rows, width) -> set[tuple[int, ...]]:
    """All ambient vectors orthogonal to every row (whole-space scan)."""
    out = set()
    for v in product(field.elements(), repeat=width):
        if all(naive_symplectic_form(field, v, r) == 0 for r in rows):
            out.add(v)
    return out


def naive_symplectic_weight(x) -> int:
    n = len(x) // 2
    return sum(1 for i in range(n) if x[i] or x[n + i])


def naive_relative_min_weight(field: GF2m, c_rows, d_rows, width) -> int | None:
    """Min symplectic weight over span(C) minus span(D); None when empty."""
    big = span_vectors(field, list(c_rows), width)
    small = span_vectors(field, list(d_rows), width)
    diff = big - small
    if not diff:
        return None
    return min(naive_symplectic_weight(v) for v in diff)


def naive_monomial_matrix(field: GF2m, exponents, places) -> list[tuple[int, ...]]:
    """Each monomial at each place, one scalar pow/mul/inv per factor."""
    rows = []
    for exps in exponents:
        row = []
        for place in places:
            value = 1
            for e, c in zip(exps, place.coords):
                factor = field.pow(c, e) if e >= 0 else field.inv(field.pow(c, -e))
                value = field.mul(value, factor)
            row.append(value)
        rows.append(tuple(row))
    return rows

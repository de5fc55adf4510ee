"""Code artifacts: the JSON files the command line reads and writes.

An artifact records everything needed to rebuild and re-verify a code:
the backend descriptor, the field (with its modulus, so element indices
are unambiguous), the ordered evaluation places, the raw generator
matrices of C(G) and C(H), and the derived parameters.  All numbers are
exact integers.  Artifacts produced by subfield descent have no places;
they carry the canonical generator matrix of the descended code plus a
"descended_from" provenance block instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from . import __version__
from .curves import build_codes, classical_params, evaluation_matrix, make_backend
from .descent import DescentBasis, descend_code, self_dual_basis
from .gf import GF2m
from .symplectic import (
    ENUMERATION_CAP,
    CodeBasis,
    contains,
    min_hamming_weight,
    relative_min_weight,
    symplectic_dual,
)

SCHEMA_VERSION = 1


@dataclass
class CodeArtifact:
    backend_kind: str | None  # None for descended artifacts
    q: int | None
    gamma: int | None
    j: int | None
    field: GF2m
    places: list[list[int]] | None
    c_g_rows: list[list[int]]
    c_h_rows: list[list[int]]
    n: int
    k: int
    deg_g: int | None
    d_lower: int | None
    d_exact: int | None
    descended_from: dict[str, Any] | None = None

    @property
    def width(self) -> int:
        return 2 * self.n


def _field_block(f: GF2m) -> dict[str, int]:
    return {
        "characteristic": 2,
        "degree": f.degree,
        "modulus": f.modulus,
        "size": f.q,
    }


def _field_from_block(block: dict[str, int]) -> GF2m:
    return GF2m(block["degree"], block["modulus"])


def _layout(value: Any, pad: str, out: list[str], decimals: list[str]) -> None:
    """Append to ``out`` the text of ``json.dumps(value, indent=2, sort_keys=True)``,
    laid out at indent ``pad``.

    Keys (strings here) and scalars go through ``json.dumps``.  A list of
    field-element-sized ints is one join over ``decimals``, the table of
    str(i) at index i, grown here as needed.  The pieces are joined once,
    at the end, so no nesting level copies the text below it.
    """
    inner = pad + "  "
    if isinstance(value, dict):
        items = [(f"{json.dumps(k)}: ", v) for k, v in sorted(value.items())]
        opening, closing = "{", "}"
    elif isinstance(value, (list, tuple)):
        if set(map(type, value)) == {int} and min(value) >= 0 and (top := max(value)) < 1 << 16:
            if top >= len(decimals):
                decimals.extend(map(str, range(len(decimals), top + 1)))
            sep = ",\n" + inner
            out.append(f"[\n{inner}{sep.join(map(decimals.__getitem__, value))}\n{pad}]")
            return
        items = [("", v) for v in value]
        opening, closing = "[", "]"
    else:
        out.append(json.dumps(value))
        return
    if not items:
        out.append(opening + closing)
        return
    sep = opening + "\n" + inner
    for key, v in items:
        out.append(sep + key)
        _layout(v, inner, out, decimals)
        sep = ",\n" + inner
    out.append(f"\n{pad}{closing}")


def _document(art: CodeArtifact) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "agstab", "version": __version__},
        "backend": None
        if art.backend_kind is None
        else {"kind": art.backend_kind, "q": art.q, "gamma": art.gamma, "j": art.j},
        "field": _field_block(art.field),
        "places": art.places,
        "matrices": {"c_g": art.c_g_rows, "c_h": art.c_h_rows},
        "params": {
            "n": art.n,
            "k": art.k,
            "deg_g": art.deg_g,
            "d_lower": art.d_lower,
            "d_exact": art.d_exact,
        },
        "provenance": {"descended_from": art.descended_from},
    }


def to_json(art: CodeArtifact) -> str:
    """The artifact file: indent 2, sorted keys and a final newline, stable byte for byte."""
    out: list[str] = []
    _layout(_document(art), "", out, [])
    out.append("\n")
    return "".join(out)


_KINDS = {int: "an integer", float: "a number", str: "a string", list: "a list", dict: "an object"}


def _json_kind(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "a boolean"
    return _KINDS.get(type(value), type(value).__name__)


def _entry(block: dict, path: str, key: str, kind: type, nullable: bool = False) -> Any:
    """block[key], checked to be of ``kind`` (a bool is not an int) or, if nullable, null."""
    where = f"{path}.{key}" if path else key
    if key not in block:
        raise ValueError(f"artifact: missing key {where!r}")
    value = block[key]
    if (value is None and nullable) or (isinstance(value, kind) and not isinstance(value, bool)):
        return value
    expected = _KINDS[kind] + (" or null" if nullable else "")
    raise ValueError(f"artifact: {where} must be {expected}, got {_json_kind(value)}")


def _element_rows(rows: list, path: str, q: int, width: int | None) -> list[list[int]]:
    """Lists of field-element indices in [0, q), each of length ``width`` when it is given."""
    for i, row in enumerate(rows):
        where = f"{path}[{i}]"
        if not isinstance(row, list):
            raise ValueError(f"artifact: {where} must be a list, got {_json_kind(row)}")
        if width is not None and len(row) != width:
            raise ValueError(f"artifact: {where} has length {len(row)}, expected 2n = {width}")
        if set(map(type, row)) - {int}:
            bad = next(v for v in row if type(v) is not int)
            raise ValueError(f"artifact: {where} holds {_json_kind(bad)}, expected field-element integers")
        values = set(row)  # no bools here, so no True merges into a 1
        if values and (min(values) < 0 or max(values) >= q):
            bad = next(v for v in row if not 0 <= v < q)
            raise ValueError(f"artifact: {where} holds {bad}, outside [0, {q})")
    return rows


def from_json(text: str) -> CodeArtifact:
    """Parse a schema-v1 artifact.

    The structure is checked here: every key present, every value of its
    type, the matrices rectangular with rows of length 2n and entries in
    [0, q).  ValueError names the first offending key.  What the values
    claim (k, d, the rows themselves) is left to ``verify_artifact``.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"artifact: the document must be an object, got {_json_kind(doc)}")
    version = doc.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {version!r}")
    backend = _entry(doc, "", "backend", dict, nullable=True)
    if backend is not None:
        _entry(backend, "backend", "kind", str)
        for key in ("q", "gamma", "j"):
            _entry(backend, "backend", key, int)
    block = _entry(doc, "", "field", dict)
    for key in ("characteristic", "degree", "modulus", "size"):
        _entry(block, "field", key, int)
    f = _field_from_block(block)
    if (block["characteristic"], block["size"]) != (2, f.q):
        raise ValueError(f"artifact: field.characteristic and field.size must be 2 and {f.q} "
                         f"for degree {f.degree}, got {block['characteristic']} and {block['size']}")
    params = _entry(doc, "", "params", dict)
    n = _entry(params, "params", "n", int)
    if n < 1:
        raise ValueError(f"artifact: params.n must be positive, got {n}")
    k = _entry(params, "params", "k", int)
    deg_g, d_lower, d_exact = (_entry(params, "params", key, int, nullable=True)
                               for key in ("deg_g", "d_lower", "d_exact"))
    places = _entry(doc, "", "places", list, nullable=True)
    if places is not None:
        _element_rows(places, "places", f.q, None)
    matrices = _entry(doc, "", "matrices", dict)
    rows = {key: _element_rows(_entry(matrices, "matrices", key, list), f"matrices.{key}", f.q, 2 * n)
            for key in ("c_g", "c_h")}
    provenance = _entry(doc, "", "provenance", dict)
    return CodeArtifact(
        backend_kind=None if backend is None else backend["kind"],
        q=None if backend is None else backend["q"],
        gamma=None if backend is None else backend["gamma"],
        j=None if backend is None else backend["j"],
        field=f,
        places=places,
        c_g_rows=rows["c_g"],
        c_h_rows=rows["c_h"],
        n=n,
        k=k,
        deg_g=deg_g,
        d_lower=d_lower,
        d_exact=d_exact,
        descended_from=_entry(provenance, "provenance", "descended_from", dict, nullable=True),
    )


def save(art: CodeArtifact, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(to_json(art))


def load(path: str) -> CodeArtifact:
    with open(path) as fh:
        return from_json(fh.read())


# ---------------------------------------------------------------------------
# Construction and descent
# ---------------------------------------------------------------------------

def construct_artifact(kind: str, q: int, j: int, gamma: int = 1) -> CodeArtifact:
    backend = make_backend(kind, q, gamma)
    g_rows, h_rows = (evaluation_matrix(backend, j, which) for which in "gh")
    c_g, _ = build_codes(backend, j, g_rows, h_rows)
    return CodeArtifact(
        backend_kind=kind,
        q=q,
        gamma=gamma,
        j=j,
        field=backend.field,
        places=backend.places.tolist(),
        c_g_rows=g_rows.tolist(),
        c_h_rows=h_rows.tolist(),
        n=backend.n,
        k=c_g.rank - backend.n,
        deg_g=backend.deg_g(j),
        d_lower=backend.distance_bound(j),
        d_exact=None,
    )


def descend_artifact(art: CodeArtifact, base_degree: int = 1) -> CodeArtifact:
    """Descend the artifact's G-code to GF(2^base_degree).

    The default basis (powers of the generator) is used when it satisfies
    the orthogonality-preserving trace identity; otherwise a self-dual
    basis is substituted, and either way the basis used is recorded in the
    provenance block.
    """
    sub = GF2m(base_degree)
    basis = DescentBasis(sub, art.field)
    if basis.twist is None:
        basis = DescentBasis(sub, art.field, self_dual_basis(sub, art.field))
    down = descend_code(CodeBasis.from_rows(art.field, art.c_g_rows, art.width), basis)
    dual = symplectic_dual(down)
    n = down.width // 2
    d_claim = art.d_exact if art.d_exact is not None else art.d_lower
    return CodeArtifact(
        backend_kind=None,
        q=None,
        gamma=None,
        j=None,
        field=sub,
        places=None,
        c_g_rows=down.rows.tolist(),
        c_h_rows=dual.rows.tolist(),
        n=n,
        k=down.rank - n,
        deg_g=None,
        d_lower=d_claim,
        d_exact=None,
        descended_from={
            "backend": {"kind": art.backend_kind, "q": art.q, "gamma": art.gamma, "j": art.j},
            "field": _field_block(art.field),
            "basis": list(basis.basis),
            "gram": [list(r) for r in basis.gram],
            "params": {"n": art.n, "k": art.k, "d_lower": art.d_lower, "d_exact": art.d_exact},
        },
    )


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

def _check(name: str, ok: bool, detail: str) -> dict[str, str]:
    return {"name": name, "status": "pass" if ok else "fail", "detail": detail}


def _skip(name: str, detail: str) -> dict[str, str]:
    return {"name": name, "status": "skipped", "detail": detail}


def verify_artifact(
    art: CodeArtifact,
    exact_distance: bool = False,
    budget: int | None = None,
) -> dict[str, Any]:
    """Re-derive and check every claim an artifact makes.

    Returns a machine-readable report; overall "ok" is true when no check
    failed (skipped checks do not fail the report).
    """
    checks: list[dict[str, str]] = []
    c_g, c_h = (CodeBasis.from_rows(art.field, rows, art.width) for rows in (art.c_g_rows, art.c_h_rows))

    if art.backend_kind is not None:
        backend = make_backend(art.backend_kind, art.q, art.gamma)
        same_places = art.places == backend.places.tolist()
        g_rows, h_rows = (evaluation_matrix(backend, art.j, which) for which in "gh")
        same_g = art.c_g_rows == g_rows.tolist()
        same_rows = same_g and art.c_h_rows == h_rows.tolist()
        checks.append(
            _check(
                "matrices-recompute",
                same_places and same_rows,
                "stored places and generator rows match a fresh evaluation",
            )
        )
    else:
        backend = None
        checks.append(_skip("matrices-recompute", "descended artifact carries no places"))

    dual_g = symplectic_dual(c_g)
    checks.append(
        _check(
            "dual-equality",
            dual_g == c_h,
            "canonical rref of the symplectic dual of C(G) equals that of C(H)",
        )
    )
    checks.append(_check("containment", contains(c_g, c_h), "C(G) contains C(H)"))
    k_ok = c_g.rank - art.n == art.k and c_h.rank == art.n - art.k
    if backend is not None:
        k_ok = k_ok and art.k == art.j
    checks.append(_check("k-formula", k_ok, f"rank {c_g.rank} = n + k with k = {art.k}"))

    d_exact_found: int | None = None
    if backend is not None:
        bound = backend.distance_bound(art.j)
        bound_ok = art.d_lower == bound
        bound_detail = f"recorded lower bound {art.d_lower} matches the recomputed {bound}"
    else:
        bound = art.d_lower
        bound_ok = True
        bound_detail = f"inherited lower bound {art.d_lower} (descent does not decrease it)"
    if exact_distance or budget is not None:
        try:
            res = relative_min_weight(
                c_g, c_h, budget=budget, mode="auto" if exact_distance else "budget"
            )
        except ValueError as exc:
            checks.append(_check("distance-bound", False, f"search failed: {exc}"))
            res = None
        if res is not None:
            if res.status == "exact":
                d_exact_found = res.weight
                ok = bound is None or res.weight >= bound
                checks.append(
                    _check(
                        "distance-bound",
                        bound_ok and ok,
                        f"exact relative weight {res.weight} >= bound {bound}",
                    )
                )
            elif res.status == "at-least":
                # an exhausted sweep establishes d >= budget + 1, which can
                # support but never refute the recorded bound
                checks.append(
                    _check(
                        "distance-bound",
                        bound_ok,
                        f"no vector of weight <= {budget} in C(G) \\ C(H); "
                        f"recorded bound {art.d_lower} stands",
                    )
                )
            else:
                checks.append(_check("distance-bound", bound_ok, "difference set is empty (k = 0)"))
    else:
        checks.append(_check("distance-bound", bound_ok, bound_detail))

    if backend is not None:
        # when the stored C(G) rows are the fresh ones, c_g is already their reduction
        fresh_g = c_g if same_g else CodeBasis.from_rows(art.field, g_rows, art.width)
        cp = classical_params(backend, art.j, fresh_g)
        checks.append(
            _check(
                "euclidean-dual-containment",
                cp.euclidean_dual_contained,
                "the Euclidean dual of C(G) lies inside C(G)",
            )
        )
        dim_ok = cp.dim == art.n + art.j
        if exact_distance and art.field.q ** cp.dim <= ENUMERATION_CAP:
            try:
                w = min_hamming_weight(c_g)
            except ValueError as exc:
                checks.append(_check("hamming-bound", False, f"search failed: {exc}"))
            else:
                checks.append(
                    _check(
                        "hamming-bound",
                        dim_ok and w >= cp.d_hamming_lower,
                        f"classical dim {cp.dim} = n + j and min Hamming weight {w} >= {cp.d_hamming_lower}",
                    )
                )
        else:
            checks.append(
                _check(
                    "hamming-bound",
                    dim_ok,
                    f"classical dim {cp.dim} = n + j; bound {cp.d_hamming_lower} not enumerated",
                )
            )
    else:
        checks.append(_skip("euclidean-dual-containment", "descended artifact"))
        checks.append(_skip("hamming-bound", "descended artifact"))

    ok = all(c["status"] != "fail" for c in checks)
    report: dict[str, Any] = {"ok": ok, "checks": checks}
    if d_exact_found is not None:
        report["d_exact"] = d_exact_found
    return report

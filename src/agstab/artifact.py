"""Code artifacts: the JSON files the command line reads and writes.

An artifact records everything needed to rebuild and re-verify a code:
the backend descriptor, the field (with its modulus, so element indices
are unambiguous), the ordered evaluation places, the raw generator
matrices of C(G) and C(H), and the derived parameters.  All numbers are
exact integers.  Artifacts produced by subfield descent have no places;
they carry the canonical generator matrix of the descended code plus a
"descended_from" provenance block instead.

The two matrices are numpy arrays from file to file: ``CodeArtifact``
holds them as writable (rows, 2n) arrays in the field's dtype, and every
reduction of them works on a copy.  ``to_json`` lays each one out by a
table gather of its entries' lines.  ``from_json`` has two paths: a text
in ``to_json``'s exact layout has its matrix blocks parsed with numpy,
which is proven exact by laying the result out again and comparing the
bytes; any other text, a hand-edited file say, goes through json.loads,
and so does every text shorter than _EXACT_MIN, where json.loads is the
faster of the two.  Both give the same artifact, or the same error message.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from typing import Any

import numpy as np

from . import __version__, symplectic
from .curves import certify, evaluation_matrix, make_backend, nested_codes
from .descent import DescentBasis, descend_code, self_dual_basis
from .gf import GF2m
from .symplectic import (
    CodeBasis,
    contains,
    min_hamming_weight,
    relative_min_weight,
    symplectic_dual,
)

SCHEMA_VERSION = 1
_BLOCK = 1 << 18  # bytes of matrix text written or read at once


@dataclass(eq=False)  # no field-wise ==: an array comparison has no single truth value
class CodeArtifact:
    backend_kind: str | None  # None for descended artifacts
    q: int | None
    gamma: int | None
    j: int | None
    field: GF2m
    places: list[list[int]] | None
    c_g_rows: np.ndarray  # (rows, 2n) in the field's dtype, writable
    c_h_rows: np.ndarray
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


def _layout(value: Any, pad: str, out: Any, decimals: list[str]) -> None:
    """Append to ``out`` the text of ``json.dumps(value, indent=2, sort_keys=True)``,
    laid out at indent ``pad``, with every numpy array laid out as its ``tolist()``.

    Keys (strings here) and scalars go through ``json.dumps``.  A list of
    field-element-sized ints is one join over ``decimals``, the table of
    str(i) at index i, grown here as needed; a matrix of them is a table
    gather (``_layout_matrix``).  The pieces are joined once, at the end, so
    no nesting level copies the text below it.  ``out`` needs only an
    ``append`` method.
    """
    inner = pad + "  "
    if isinstance(value, np.ndarray):
        if value.ndim == 2 and value.size and value.dtype.kind in "iu" and value.min() >= 0 and value.max() < 1 << 16:
            _layout_matrix(value, pad, out)
        else:
            _layout(value.tolist(), pad, out, decimals)
        return
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


def _layout_matrix(M: np.ndarray, pad: str, out: Any) -> None:
    """Append the text of a non-empty 2-D array of integers in [0, 2^16) at indent
    ``pad``, as ``_layout`` writes ``M.tolist()``, by one table gather per block of rows.

    The byte table holds, for each value v < size, v on its own line
    followed by the ",\n" of an entry inside a row (line v) or by nothing
    (line size + v, a row's last entry), and then the close of a row and
    the open of the next.  Each row is its entries' lines and those two;
    every line is gathered padded to the table's width and a mask of its
    true length drops the padding.  The very last row opens no other row.
    """
    inner, indent = pad + "  ", pad + "    "
    size = int(M.max()) + 1
    reopen = f",\n{inner}[\n"
    lines = [f"{indent}{v}{tail}".encode() for tail in (",\n", "") for v in range(size)]
    lines += [f"\n{inner}]".encode(), reopen.encode()]
    width = max(map(len, lines))
    table = np.frombuffer(b"".join(line.ljust(width) for line in lines), np.uint8).reshape(len(lines), width)
    keep = np.arange(width) < np.array(list(map(len, lines)))[:, None]
    out.append(f"[\n{inner}[\n")
    cols = M.shape[1]
    step = max(1, _BLOCK // ((cols + 2) * width))
    for r in range(0, len(M), step):
        block = M[r:r + step]
        codes = np.empty((len(block), cols + 2), dtype=np.intp)
        codes[:, :cols] = block
        codes[:, cols - 1] += size
        codes[:, cols:] = 2 * size, 2 * size + 1
        codes = codes.ravel()
        text = table.take(codes, axis=0)[keep.take(codes, axis=0)]
        if r + step >= len(M):
            text = text[:-len(reopen)]
        out.append(text.tobytes().decode("ascii"))
    out.append(f"\n{pad}]")


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


def _matrix(matrices: dict, key: str, f: GF2m, width: int) -> np.ndarray:
    """matrices[key] as a writable (rows, width) array in the field's dtype.

    An array (``_exact_document`` parsed it: rectangular, non-negative
    integers) needs only its width and range checked; a list is checked
    row by row (``_element_rows``).  Both name the first offending row in
    the same words.
    """
    path = f"matrices.{key}"
    rows = matrices.get(key)
    if isinstance(rows, np.ndarray):
        if rows.shape[1] != width:
            raise ValueError(f"artifact: {path}[0] has length {rows.shape[1]}, expected 2n = {width}")
        if rows.max() >= f.q:
            i = int(np.argmax(rows.ravel() >= f.q))
            raise ValueError(f"artifact: {path}[{i // width}] holds {rows.flat[i]}, outside [0, {f.q})")
    else:
        rows = _element_rows(_entry(matrices, "matrices", key, list), path, f.q, width)
    return np.array(rows, dtype=f.log_antilog[1].dtype).reshape(len(rows), width)


_MATRICES = '\n  "matrices": {\n    "c_g": '  # the text before the C(G) block in to_json's layout
# the exact-layout reader has a fixed cost of about 0.3 ms: json.loads reads a shorter text faster
_EXACT_MIN = 1 << 15
_DIGIT = np.zeros(256, dtype=np.uint32)
_DIGIT[48:58] = np.arange(10)  # the value of each ASCII digit, 0 for every other byte


class _Compare:
    """An ``out`` for ``_layout`` that matches each piece against ``text`` instead of keeping it."""

    def __init__(self, text: str) -> None:
        self.text, self.pos, self.same = text, 0, True

    def append(self, piece: str) -> None:
        self.same = self.same and self.text.startswith(piece, self.pos)
        self.pos += len(piece)


def _parse_matrix(text: str, start: int, end: int) -> np.ndarray | None:
    """The rows of the non-empty matrix block text[start:end], read as to_json lays it out, or None.

    The block is read in pieces of at most _BLOCK bytes, each ending in a
    newline.  A line's last byte, before a comma if there is one, tells it
    apart: a digit ends an entry and "]" closes a row.  An entry's value is
    read from its digits leftwards, one column of all entries at a time,
    until every entry has met the spaces of its indent.  Only this shape is
    read here; that the lines hold nothing else is proven by laying the
    result out again (``_exact_document``).
    """
    values, rows = [], 0
    while start < end:
        stop = text.rfind("\n", start, start + _BLOCK) + 1 if end - start > _BLOCK else end
        if stop <= start:
            return None
        buf = np.frombuffer(text[start:stop].encode("ascii"), np.uint8)
        start = stop
        ends = np.flatnonzero(buf == 10)  # every line but the block's last, "    ]", ends in one
        last = ends - 1 - (buf.take(ends - 1) == 44)
        tail = buf.take(last)
        rows += np.count_nonzero(tail == 93)
        last = last[(tail >= 48) & (tail <= 57)]
        value = np.zeros(len(last), dtype=np.uint32)
        for k in range(10):
            digits = buf.take(last - k)
            if digits.max(initial=0) <= 32:
                break
            value += _DIGIT.take(digits) * 10 ** k
        else:  # ten digits: no field element, and past what uint32 holds
            return None
        values.append(value)
    count = sum(map(len, values))
    if not rows or count % rows:
        return None
    return np.concatenate(values).reshape(rows, count // rows)


def _exact_document(text: str) -> dict | None:
    """The document of ``text``, its matrices parsed as arrays, when ``text`` is
    exactly what ``to_json`` writes for that document; None otherwise.

    Each matrix block is found by the lines around it and parsed with
    numpy (``_parse_matrix``); the rest of the text, each block replaced by
    [], goes through json.loads.  The document is then laid out again and
    compared with ``text`` piece by piece.  Only an exact match returns it,
    and then it is the document json.loads gives for the whole text; any
    other text is left to json.loads.
    """
    # C(G) ends before the key of C(H) and C(H) before the close of "matrices":
    # the first '"' and "}" past each block, bytes that no matrix line holds
    g_start = text.find(_MATRICES) + len(_MATRICES)
    g_end = text.find('"', g_start) - len(',\n    ')
    h_start = g_end + len(',\n    "c_h": ')
    h_end = text.find("}", h_start) - len("\n  ")
    if g_start < len(_MATRICES) or g_end < g_start or h_end < h_start:
        return None
    spans = {"c_g": (g_start, g_end), "c_h": (h_start, h_end)}
    try:
        doc = json.loads(text[:g_start] + "[]" + text[g_end:h_start] + "[]" + text[h_end:])
        if not isinstance(doc, dict) or not isinstance(doc.get("matrices"), dict):
            return None
        for key, (start, end) in spans.items():
            if end - start > 2:
                doc["matrices"][key] = rows = _parse_matrix(text, start, end)
                if rows is None:
                    return None
        compare = _Compare(text)
        _layout(doc, "", compare, [])
    except (ValueError, RecursionError):  # not JSON, not ASCII, or nested past json.loads
        return None
    compare.append("\n")
    return doc if compare.same and compare.pos == len(text) else None


def from_json(text: str) -> CodeArtifact:
    """Parse a schema-v1 artifact.

    A text of at least _EXACT_MIN characters in ``to_json``'s exact layout
    has its matrices read with numpy (``_exact_document``); any other text,
    a short file or a hand-edited one say, goes through json.loads, with
    the same result and the same messages.  The
    structure is checked here: every key present, every value of its
    type, the matrices rectangular with rows of length 2n and entries in
    [0, q).  ValueError names the first offending key.  What the values
    claim (k, d, the rows themselves) is left to ``verify_artifact``.
    """
    doc = _exact_document(text) if len(text) >= _EXACT_MIN else None
    if doc is None:
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
    rows = {key: _matrix(matrices, key, f, 2 * n) for key in ("c_g", "c_h")}
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
    """The artifact of C(G) >= C(H) at j on a curve backend.

    The ranks are certified from the exponent tables (``curves.certify``),
    with no matrix reduced: each is its table's row count, which the
    evaluations must keep.  AssertionError when they are not n + j and n - j.
    """
    backend = make_backend(kind, q, gamma)
    g_rows, h_rows = (evaluation_matrix(backend, j, which) for which in "gh")
    cert = certify(backend, j)
    if (len(g_rows), len(h_rows)) != (cert.rank_g, cert.rank_h):
        raise AssertionError(f"unexpected code dimensions {len(g_rows)}/{len(h_rows)} at j={j} on {backend!r}")
    return CodeArtifact(
        backend_kind=kind,
        q=q,
        gamma=gamma,
        j=j,
        field=backend.field,
        places=backend.places.tolist(),
        c_g_rows=g_rows.copy(),  # writable copies of the read-only evaluations
        c_h_rows=h_rows.copy(),
        n=backend.n,
        k=cert.rank_g - backend.n,
        deg_g=backend.deg_g(j),
        d_lower=backend.distance_bound(j),
        d_exact=None,
    )


def descend_artifact(art: CodeArtifact, base_degree: int = 1) -> CodeArtifact:
    """Descend the artifact's G-code to GF(2^base_degree).

    The default basis (powers of the generator) is used when it satisfies
    the orthogonality-preserving trace identity; otherwise a self-dual
    basis is substituted, and either way the basis used is recorded in the
    provenance block.  A C(G) of rank below n cannot contain its symplectic
    dual, and is refused with ValueError before any dual is built.
    """
    sub = GF2m(base_degree)
    basis = DescentBasis(sub, art.field)
    if basis.twist is None:
        basis = DescentBasis(sub, art.field, self_dual_basis(sub, art.field))
    c_g = CodeBasis.from_rows(art.field, art.c_g_rows, art.width)
    if c_g.rank < art.n:  # dim C + dim C^perp = 2n, so C cannot hold a larger dual
        raise ValueError("input code does not contain its symplectic dual")
    down = descend_code(c_g, basis)
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
        c_g_rows=down.rows.copy(),
        c_h_rows=dual.rows.copy(),
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

    On a curve artifact whose stored rows are the fresh evaluation, the
    stored codes are the fresh ones, and ``dual-equality``,
    ``containment`` and ``k-formula`` are decided from the exponent
    tables (``curves.certify``) with no matrix reduced: the ranks rest on
    the degree argument, not on a computed rank.
    ``euclidean-dual-containment`` and the dimension of ``hamming-bound``
    read only the fresh code, so every curve artifact takes them from the
    certificate.  Elimination decides the rest, each basis reduced at most
    once and only when needed: the checks of an edited or a descended
    artifact, where C(H) is reduced first and C(G) as its extension by the
    stored G rows after the prefix they share (``curves.nested_codes``),
    and the searches of ``--exact-distance`` and ``--budget``.
    ``dual-equality`` builds no dual when rank C(G) + rank C(H) is not 2n.
    On a curve artifact ``distance-bound`` also requires the stored deg G
    to be the backend's, since ``decode-sim`` takes its guarantee region
    from it.
    """
    checks: list[dict[str, str]] = []
    reduced = cache(lambda: nested_codes(art.field, art.c_g_rows, art.c_h_rows, art.width))
    same_rows = False

    if art.backend_kind is not None:
        backend = make_backend(art.backend_kind, art.q, art.gamma)
        same_places = art.places == backend.places.tolist()
        g_rows, h_rows = (evaluation_matrix(backend, art.j, which) for which in "gh")
        same_rows = np.array_equal(art.c_g_rows, g_rows) and np.array_equal(art.c_h_rows, h_rows)
        checks.append(
            _check(
                "matrices-recompute",
                same_places and same_rows,
                "stored places and generator rows match a fresh evaluation",
            )
        )
        cert = certify(backend, art.j)
    else:
        backend = None
        checks.append(_skip("matrices-recompute", "descended artifact carries no places"))

    if same_rows:  # the stored codes are the fresh ones, whatever the stored places
        rank_g, rank_h, dual_ok, contained = cert.rank_g, cert.rank_h, cert.dual, cert.contained
    else:
        c_g, c_h = reduced()
        rank_g, rank_h = c_g.rank, c_h.rank
        # dim C(G) + dim C(G)^perp = 2n, so any other rank sum is decided without the dual
        dual_ok = rank_g + rank_h == art.width and symplectic_dual(c_g) == c_h
        contained = contains(c_g, c_h)
    checks.append(
        _check(
            "dual-equality",
            dual_ok,
            "canonical rref of the symplectic dual of C(G) equals that of C(H)",
        )
    )
    checks.append(_check("containment", contained, "C(G) contains C(H)"))
    k_ok = rank_g - art.n == art.k and rank_h == art.n - art.k
    if backend is not None:
        k_ok = k_ok and art.k == art.j
    checks.append(_check("k-formula", k_ok, f"rank {rank_g} = n + k with k = {art.k}"))

    d_exact_found: int | None = None
    deg_note = ""
    if backend is not None:
        bound = backend.distance_bound(art.j)
        deg_g = backend.deg_g(art.j)
        bound_ok = art.d_lower == bound and art.deg_g == deg_g
        bound_detail = f"recorded lower bound {art.d_lower} matches the recomputed {bound}"
        if art.deg_g != deg_g:  # decode-sim takes its guarantee region from the stored deg G
            deg_note = f"; recorded deg G {art.deg_g} differs from the recomputed {deg_g}"
    else:
        bound = art.d_lower
        bound_ok = True
        bound_detail = f"inherited lower bound {art.d_lower} (descent does not decrease it)"
    if exact_distance or budget is not None:
        try:
            res = relative_min_weight(
                *reduced(), budget=budget, mode="auto" if exact_distance else "budget"
            )
        except ValueError as exc:
            bound_ok, bound_detail = False, f"search failed: {exc}"
        else:
            if res.status == "exact":
                d_exact_found = res.weight
                bound_ok = bound_ok and (bound is None or res.weight >= bound)
                bound_detail = f"exact relative weight {res.weight} >= bound {bound}"
            elif res.status == "at-least":
                # an exhausted sweep establishes d >= budget + 1, which can
                # support but never refute the recorded bound
                bound_detail = (f"no vector of weight <= {budget} in C(G) \\ C(H); "
                                f"recorded bound {art.d_lower} stands")
            else:
                bound_detail = "difference set is empty (k = 0)"
    checks.append(_check("distance-bound", bound_ok, bound_detail + deg_note))

    if backend is not None:
        cp = cert.classical
        checks.append(
            _check(
                "euclidean-dual-containment",
                cp.euclidean_dual_contained,
                "the Euclidean dual of C(G) lies inside C(G)",
            )
        )
        dim_ok = cp.dim == art.n + art.j
        if exact_distance and art.field.q ** cp.dim <= symplectic.ENUMERATION_CAP:
            try:
                w = min_hamming_weight(reduced()[0])
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

"""Code artifacts: the JSON files the command line reads and writes.

An artifact records everything needed to rebuild and re-verify a code:
the backend descriptor, the field (with its modulus, so element indices
are unambiguous), the ordered evaluation places, the raw generator
matrices of C(G) and C(H), and the derived parameters.  All numbers are
exact integers.  Artifacts produced by subfield descent have no places;
they carry the canonical generator matrix of the descended code plus a
"descended_from" provenance block instead.

The file is ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``.  Its
three tables, C(G), C(H) and the places, are numpy arrays from file to
file (``CodeArtifact`` holds the matrices as writable (rows, 2n) arrays
in the field's dtype).  The writer, ``_pieces``, dumps the document with
each table slot emptied to [], the skeleton, and yields its segments
with each table's bytes at its slot, laid out by a table gather; a curve
artifact's C(H) is the first n - j rows of its C(G), so it is evaluated
as that prefix, and its rows are laid out once for both slots.  ``save``
writes the pieces as they are made, and ``to_json`` is their join.

Each code is fixed by its recipe: a curve artifact by its backend block
(kind, q, gamma, j), a descent by its source's backend block, its field
and the basis it records.  So an honest file is exactly the bytes
``_pieces`` writes for the artifact its recipe makes, and ``load`` proves
a file by writing it again (``_regenerated``): it reads the recipe at the
file's head, or a descent's provenance at its tail, makes that artifact
and compares the file with its pieces as they are made, up to the first
difference.  A match is that artifact, and the fresh code it was made
from goes with it to ``fresh``.  Any other file, and any file shorter
than _EXACT_MIN, is decoded as text mode decodes it and goes through
json.loads; ``from_json`` reads a text the same two ways.  Every reader
gives the same artifact, or the same error message.
"""

from __future__ import annotations

import io
import json
import os
import weakref
from dataclasses import dataclass
from itertools import chain
from typing import Any, BinaryIO, Iterator, NamedTuple

import numpy as np

from . import __version__, symplectic
from .curves import CurveBackend, certify, evaluation_matrix, make_backend
from .descent import DescentBasis, _descend, self_dual_basis, shared_basis
from .gf import GF2m, field
from .symplectic import CodeBasis, contains, relative_min_weight, symplectic_dual

SCHEMA_VERSION = 1
_BLOCK = 1 << 18  # bytes of table text written or read at once


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


def _table(value: Any) -> np.ndarray | None:
    """``value`` as an array that ``_layout_matrix`` lays out, or None: a non-empty 2-D
    array, or a rectangular list of ints (not bools), with entries in [0, 2^16)."""
    if (isinstance(value, list) and value and set(map(type, value)) == {list} and len(set(map(len, value))) == 1
            and set(map(type, chain.from_iterable(value))) == {int}):
        value = np.array(value)
    if (isinstance(value, np.ndarray) and value.ndim == 2 and value.size > 0 and value.dtype.kind in "iu"
            and value.min() >= 0 and value.max() < 1 << 16):
        return value
    return None


def _layout_matrix(M: np.ndarray, pad: str) -> Iterator[bytes]:
    """The text of ``M.tolist()`` as json.dumps lays it out at indent ``pad``, as ASCII bytes in
    pieces: one table gather per block of rows, for M as ``_table`` gives it.

    The byte table holds, for each value v < size, v on its own line
    followed by the ",\n" of an entry inside a row (line v) or by nothing
    (line size + v, a row's last entry), and then the close of a row and
    the open of the next.  Each row is its entries' lines and those two;
    every line is gathered padded to the table's width and a mask of its
    true length drops the padding.  The very last row opens no other row.
    """
    inner, indent = pad + "  ", pad + "    "
    reopen = f",\n{inner}[\n"
    size = int(M.max()) + 1
    lines = [f"{indent}{v},\n" for v in range(size)]
    closing = [f"\n{inner}]", reopen]
    width = len(lines[-1])  # the most digits, and longer than either closing line
    padded = [line.ljust(width) for line in lines]
    table = np.frombuffer("".join(padded + padded + [c.ljust(width) for c in closing]).encode(), np.uint8)
    table = table.reshape(-1, width)
    lengths = np.fromiter(map(len, lines), np.intp, size)
    keep = np.arange(width) < np.concatenate([lengths, lengths - 2, list(map(len, closing))])[:, None]
    yield f"[\n{inner}[\n".encode()
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
        yield text.tobytes()
    yield f"\n{pad}]".encode()


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


# the three table slots, in the file's order: the key, the text just before its block and the
# block's indent.  In a canonical skeleton C(G)'s is the first key of "matrices", and "places" is
# a top-level key; C(H)'s is the next "c_h" at that depth, which is "matrices"' when it has one.
_SLOTS = (("c_g", b'\n  "matrices": {\n    "c_g": ', "    "), ("c_h", b',\n    "c_h": ', "    "),
          ("places", b'\n  "places": ', "  "))


def _parent(doc: dict, key: str) -> dict:
    return doc if key == "places" else doc["matrices"]


def _pieces(art: CodeArtifact) -> Iterator[bytes]:
    """The artifact file, ``json.dumps(_document(art), indent=2, sort_keys=True) + "\\n"`` with
    the arrays as lists, as ASCII bytes in pieces, each made when it is asked for.

    The document is dumped with each table slot that holds a table
    (``_table``) emptied to [] (the skeleton), and each table's pieces
    (``_layout_matrix``) come at its slot, between the skeleton's.  A C(H)
    equal to the first r rows of C(G) is laid out once and its pieces kept:
    C(G) is then those pieces without their close, and the layout of the
    rows after r with its opening "[" made the "," that continues the table.
    """
    doc = _document(art)
    tables = {}
    for key, _, _ in _SLOTS:
        parent = _parent(doc, key)
        tables[key] = _table(parent[key])
        if tables[key] is not None:
            parent[key] = []
        elif isinstance(parent[key], np.ndarray):
            parent[key] = parent[key].tolist()
    skeleton = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("ascii")
    pieces = {key: _layout_matrix(tables[key], pad) for key, _, pad in _SLOTS if tables[key] is not None}
    g, h = tables["c_g"], tables["c_h"]
    if g is not None and h is not None and np.array_equal(h, g[:len(h)]):
        pieces["c_g"] = pieces["c_h"] = kept = list(pieces["c_h"])
        if len(g) > len(h):
            rest = _layout_matrix(g[len(h):], "    ")
            pieces["c_g"] = chain(kept[:-1], [b"," + next(rest)[1:]], rest)
    at = 0
    for key, before, _ in _SLOTS:
        if key in pieces:
            start = skeleton.index(before + b"[]", at) + len(before)
            yield skeleton[at:start]
            yield from pieces[key]
            at = start + len(b"[]")
    yield skeleton[at:]


def to_json(art: CodeArtifact) -> str:
    """The artifact file as one text: the join of ``_pieces(art)``, stable byte for byte."""
    return b"".join(_pieces(art)).decode("ascii")


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
    """matrices[key], checked row by row (``_element_rows``), as a writable (rows, width) array
    in the field's dtype."""
    rows = _element_rows(_entry(matrices, "matrices", key, list), f"matrices.{key}", f.q, width)
    return np.array(rows, dtype=f.log_antilog[1].dtype).reshape(len(rows), width)


def _backend(block: dict, path: str) -> tuple[str, int, int, int]:
    """The kind, q, gamma and j of a backend block, each checked to be of its type."""
    return _entry(block, path, "kind", str), *(_entry(block, path, key, int) for key in ("q", "gamma", "j"))


def from_json(text: str) -> CodeArtifact:
    """Parse a schema-v1 artifact from its text, as ``load`` parses its file: a text of at least
    _EXACT_MIN characters that is what ``to_json`` writes for its recipe is that artifact, and any
    other text goes through json.loads, with the same result and the same messages."""
    code = None
    if len(text) >= _EXACT_MIN and text.isascii():
        art, code = _regenerated(io.BytesIO(text.encode("ascii")))
        if art is not None:
            return art
    return _keeping(code, _from_document(json.loads(text)))


def _from_document(doc: Any) -> CodeArtifact:
    """The artifact of a parsed document, its structure checked: every key
    present, every value of its type, the matrices rectangular with rows of
    length 2n and entries in [0, q).  ValueError names the first offending
    key.  What the values claim (k, d, the rows themselves) is left to
    ``verify_artifact``.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"artifact: the document must be an object, got {_json_kind(doc)}")
    version = doc.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {version!r}")
    backend = _entry(doc, "", "backend", dict, nullable=True)
    recipe = (None,) * 4 if backend is None else _backend(backend, "backend")  # kind, q, gamma, j
    block = _entry(doc, "", "field", dict)
    for key in ("characteristic", "degree", "modulus", "size"):
        _entry(block, "field", key, int)
    f = field(block["degree"], block["modulus"])
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
    return CodeArtifact(*recipe, f, places, rows["c_g"], rows["c_h"], n, k, deg_g, d_lower, d_exact,
                        _entry(provenance, "provenance", "descended_from", dict, nullable=True))


def save(art: CodeArtifact, path: str) -> None:
    """Write the artifact file (``to_json``'s text) piece by piece, as ``_pieces`` makes them:
    the whole text is never held, only C(H)'s pieces when its rows are C(G)'s first."""
    with open(path, "wb") as fh:
        fh.writelines(_pieces(art))


def load(path: str) -> CodeArtifact:
    """Read an artifact file, as ``from_json`` reads its text.

    A file of at least _EXACT_MIN bytes that is what ``save`` writes for
    its recipe is that artifact (``_regenerated``), with its fresh code
    kept for ``fresh``.  Any other file is decoded as text mode decodes
    it, "\\r\\n" and "\\r" read as "\\n", and goes through json.loads, so
    each file gives the artifact or the message it gives when read as
    text; one larger than the host's memory is refused unread.
    """
    code = None
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size >= _EXACT_MIN:
            art, code = _regenerated(fh)
            if art is not None:
                return art
            fh.seek(0)
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if size > memory:
            raise ValueError(f"artifact: {path} is {size} bytes, more than the {memory} bytes of memory "
                             "on this host, and not the file its recipe writes: it cannot be read")
        raw = fh.read()
    text = io.TextIOWrapper(io.BytesIO(raw)).read()
    del raw  # json.loads holds only the text, as when the file was read as text
    return _keeping(code, _from_document(json.loads(text)))


# regeneration costs one evaluation, which fresh then reuses, and one layout; json.loads and a later
# evaluation cost less below about 8 KB.  load plus fresh, best of 40 on an Intel Xeon core: rational q=16
# j=1 (3.9 KB) 0.34 ms against 0.26 ms by json.loads, q=32 j=1 (13.3 KB) 0.40 against 0.47 ms, q=64 j=2
# (50 KB) 0.50 against 1.08 ms, q=256 j=4 (812 KB) 2.6 against 14.6 ms.  A recipe lies within this of an end
_EXACT_MIN = 1 << 14


def _regenerated(fh: BinaryIO) -> tuple[CodeArtifact | None, tuple | None]:
    """The artifact that the recipe of the file ``fh`` makes, if the file is exactly its pieces,
    else None; and the fresh code of the recipe, if one could be read.  The recipe is the backend
    and field blocks within _EXACT_MIN bytes of the head, and for a descent (a null backend) its
    provenance within _EXACT_MIN bytes of the tail; the comparison stops at the first difference."""
    try:
        head = fh.read(_EXACT_MIN)
        doc = json.loads(head[:head.index(b',\n  "matrices": ')] + b"\n}")  # an object, as it ends in "}"
        if doc.get("backend", 0) is None:  # a descent: its provenance is at the tail
            fh.seek(max(0, fh.seek(0, io.SEEK_END) - _EXACT_MIN))
            tail = fh.read()
            doc.update(json.loads(b"{" + tail[tail.rindex(b'\n  "provenance": '):]))
        recipe = _recipe(doc)
        code = recipe, *_code(recipe)
    except (ValueError, RecursionError):  # no recipe, or one that names no code
        return None, None
    _, backend, g_rows, h_rows, basis = code
    art = _artifact(backend, recipe[3], g_rows, h_rows, basis)
    fh.seek(0)
    if all(fh.read(len(piece)) == piece for piece in _pieces(art)) and not fh.read(1):
        return _keeping(code, art), code
    return None, code


def _keeping(code: tuple | None, art: CodeArtifact) -> CodeArtifact:
    """``art``, with ``code`` kept as the fresh code of its recipe: ``fresh`` takes it when the
    artifact's recipe is still the one it was made for."""
    if code is not None:
        _FRESH[art] = code
    return art


# ---------------------------------------------------------------------------
# The fresh code, construction and descent
# ---------------------------------------------------------------------------

class Fresh(NamedTuple):
    """An artifact's fresh code and the rest of its fresh artifact, as its recipe makes them, and
    the first stored part that is not theirs ("field", "gram", "c_h", "c_g", "places", "params",
    "provenance"), or None, and why.  For a descent the backend and j are its source's, and the
    rows are the source's evaluation descended with its basis."""

    backend: CurveBackend
    j: int
    g_rows: np.ndarray  # C(G): the evaluation of L(G), read-only, or its descent, canonical
    h_rows: np.ndarray  # C(H): the evaluation's first n - j rows, or their descent, canonical
    stale: str | None
    reason: str | None
    parts: dict[str, Any]  # every field of the fresh artifact but its tables (``_parts``)


_FRESH: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()  # artifact -> (recipe, *_code(recipe))


def _recipe(doc: dict) -> tuple:
    """The recipe of a document: the kind, q, gamma and j of its backend block, or for a descent of
    its source's, then for a descent the degree of its field and its basis, else None and None.
    ValueError, in ``_from_document``'s words, for a block that is missing or not of its type."""
    backend, path, descent = _entry(doc, "", "backend", dict, nullable=True), "backend", (None, None)
    if backend is None:
        path = "provenance.descended_from"
        source = _entry(_entry(doc, "", "provenance", dict), "provenance", "descended_from", dict)
        basis = _entry(source, path, "basis", list)
        if set(map(type, basis)) - {int}:
            bad = next(v for v in basis if type(v) is not int)
            raise ValueError(f"artifact: {path}.basis holds {_json_kind(bad)}, expected field-element integers")
        backend, path = _entry(source, path, "backend", dict), path + ".backend"
        descent = _entry(_entry(doc, "", "field", dict), "field", "degree", int), tuple(basis)
    return *_backend(backend, path), *descent


def _code(recipe: tuple) -> tuple:
    """The fresh code of a recipe, from one evaluation of L(G): its backend, C(G), C(H) and, for a
    descent, its basis (else None).  ValueError when the recipe names no code: an unknown kind, q
    or gamma, j out of range, or a descent basis that is no basis or has no twist."""
    kind, q, gamma, j, degree, basis = recipe
    backend = make_backend(kind, q, gamma)
    g_rows = evaluation_matrix(backend, j, "g")
    if degree is None:
        return backend, g_rows, g_rows[:backend.n - j], None
    basis = shared_basis(field(degree), backend.field, basis)
    if basis.twist is None:
        raise ValueError(f"artifact: provenance.descended_from.basis {list(basis.basis)} has no twist, "
                         "so its descent need not keep the dual")
    return backend, *_descend_pair(g_rows, g_rows[:backend.n - j], basis), basis


def _descend_pair(g_rows: np.ndarray, h_rows: np.ndarray, basis: DescentBasis) -> tuple[np.ndarray, np.ndarray]:
    """The canonical rows of the descents of C(G) and C(H), each reduced over the extension field
    first, whose gamma image then reduces fast.  C(H) is C(G)'s symplectic dual (``curves.certify``),
    so by the twist its descent is the dual of C(G)'s descent, and no dual is built."""
    c_g, c_h = (CodeBasis.from_rows(basis.ext, rows, g_rows.shape[1]) for rows in (g_rows, h_rows))
    return _descend(c_g, basis).rows, _descend(c_h, basis).rows


def fresh(art: CodeArtifact) -> Fresh:
    """The fresh code of an artifact's recipe, the rest of its fresh artifact (``_parts``), and
    whether the stored parts are theirs.

    The code is the backend's evaluation of L(G), or for a descent the
    source's evaluation descended with the recorded basis, whose twist must
    exist.  The stored parts are compared in order, records as the writer
    writes them (1 is not true or 1.0): the field, a descent's source field
    and Gram matrix, C(H), C(G), the places, a descent's source params and
    the whole provenance.  Indices over another modulus are other elements,
    so the fields come first; a stale part past C(G) leaves the rows fresh.
    The code is made once per artifact and recipe (``load`` hands over its
    own), and the stored parts are compared on every call, so an artifact
    edited after it was read is still caught.  ValueError when the recipe
    names no code.  Nothing is proved here: ``curves.certify`` proves it.
    """
    recipe = _recipe(_document(art))
    code = _FRESH.get(art)
    if code is None or code[0] != recipe:
        code = _FRESH[art] = recipe, *_code(recipe)
    _, backend, g_rows, h_rows, basis = code
    kind, q, _, j = recipe[:4]
    parts = _parts(backend, j, basis)
    at, what, ours = f"the {kind} backend at", "" if basis is None else "descended ", parts["descended_from"]
    modulus = (f"{at} q = {q} has modulus {backend.field.modulus}" if basis is None
               else f"a descent to GF(2^{basis.sub.degree}) is over modulus {basis.sub.modulus}")

    def records(*named: tuple[str, str]) -> list[tuple[str, bool, str]]:  # a descent's records of its source
        return [] if basis is None else [
            (key, json.dumps(art.descended_from.get(key), sort_keys=True) == json.dumps(ours[key], sort_keys=True),
             f"provenance.descended_from.{key} is not {record}") for key, record in named]

    compared = [
        ("field", art.field == parts["field"], f"field.modulus is {art.field.modulus}, but {modulus}"),
        *records(("field", f"the field of {at} q = {q}"), ("gram", "the Gram matrix of its basis")),
        ("c_h", np.array_equal(art.c_h_rows, h_rows), f"matrices.c_h is not the {what}C(H) of {at} j = {j}"),
        ("c_g", np.array_equal(art.c_g_rows, g_rows), f"matrices.c_g is not the {what}C(G) of {at} j = {j}"),
        ("places", art.places == parts["places"],
         f"places is not the place order of {at} q = {q}" if basis is None else "places is not null on a descent"),
        *records(("params", f"the params of {at} j = {j}")),
        ("provenance", json.dumps(art.descended_from, sort_keys=True) == json.dumps(ours, sort_keys=True),
         "provenance.descended_from is not " + ("null on a curve artifact" if basis is None
                                                else "the record its recipe writes")),
    ]
    stale, reason = next(((part, "artifact: " + why) for part, same, why in compared if not same), (None, None))
    return Fresh(backend, j, g_rows, h_rows, stale, reason, parts)


def _parts(backend: CurveBackend, j: int, basis: DescentBasis | None) -> dict[str, Any]:
    """Every field but the tables of the artifact of C(G) >= C(H) at j on ``backend``, or of its descent
    with ``basis``, as ``CodeArtifact`` keywords: what the recipe fixes, and no claim it does not prove."""
    d_lower = backend.distance_bound(j)
    if basis is None:
        return dict(backend_kind=backend.kind, q=backend.q, gamma=backend.gamma, j=j, field=backend.field,
                    places=backend.places.tolist(), n=backend.n, k=j, deg_g=backend.deg_g(j), d_lower=d_lower,
                    d_exact=None, descended_from=None)
    return dict(backend_kind=None, q=None, gamma=None, j=None, field=basis.sub, places=None, n=basis.m * backend.n,
                k=basis.m * j, deg_g=None, d_lower=d_lower, d_exact=None,
                descended_from={"backend": {"kind": backend.kind, "q": backend.q, "gamma": backend.gamma, "j": j},
                                "field": _field_block(backend.field), "basis": list(basis.basis),
                                "gram": [list(r) for r in basis.gram],
                                "params": {"n": backend.n, "k": j, "d_lower": d_lower, "d_exact": None}})


def _artifact(backend: CurveBackend, j: int, g_rows: np.ndarray, h_rows: np.ndarray,
              basis: DescentBasis | None) -> CodeArtifact:
    """The artifact of the code at j on ``backend``, or of its descent with ``basis``, from its fresh
    C(G) and C(H) rows: ``_parts``, and a writable copy of each matrix."""
    return CodeArtifact(c_g_rows=g_rows.copy(), c_h_rows=h_rows.copy(), **_parts(backend, j, basis))


def construct_artifact(kind: str, q: int, j: int, gamma: int = 1) -> CodeArtifact:
    """The artifact of C(G) >= C(H) at j on a curve backend, once ``curves.certify`` has proved
    the ranks, the duality and containment with no matrix reduced: the evaluation of L(G), and
    C(H) its first n - j rows."""
    backend = make_backend(kind, q, gamma)
    certify(backend, j)
    g_rows = evaluation_matrix(backend, j, "g")
    return _artifact(backend, j, g_rows, g_rows[:backend.n - j], None)


def descend_artifact(art: CodeArtifact, base_degree: int = 1) -> CodeArtifact:
    """Descend the artifact's G-code to GF(2^base_degree).

    The default basis (powers of the generator) is used when it has a
    twist, else a self-dual basis, and the provenance records it.  The
    source must be its recipe's fresh artifact (``fresh``), whose C(H)
    ``curves.certify`` proves to be C(G)'s symplectic dual, inside C(G):
    the descents of the two, C(H)'s the dual of C(G)'s by the twist, need
    no dual built and no containment checked, and the rest of the descent
    comes from the recipe (``_parts``), no claim of the source's.
    ValueError before any reduction for a descended artifact (its source
    would be lost), for a backend block that names no curve code, in
    ``verify``'s words, and for a stale part, in ``fresh``'s.
    """
    if art.backend_kind is None:
        raise ValueError("cannot descend a descended artifact, whose source backend would be lost; "
                         "descend its source")
    source = fresh(art)
    if source.stale:
        raise ValueError(source.reason)
    certify(source.backend, art.j)
    sub = field(base_degree)
    basis = shared_basis(sub, art.field)
    if basis.twist is None:
        basis = shared_basis(sub, art.field, self_dual_basis(sub, art.field))
    return _artifact(source.backend, art.j, *_descend_pair(source.g_rows, source.h_rows, basis), basis)


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

    The fresh artifact and whether the stored parts are it come from
    ``fresh``, and ``curves.certify`` proves, from the exponent tables of
    the backend (a descent's source's) with no matrix reduced, the ranks
    n + j and n - j, C(H) = C(G)^perp, C(H) <= C(G) and the containment of
    the Euclidean dual; a failed proof is an AssertionError, not a failed
    check.  When the stored field and rows are the fresh ones, the stored
    codes are the proved ones (for a descent their descents, which keep
    all three by the twist identity), so ``dual-equality``, ``containment``
    and ``k-formula`` need no reduction, and the searches run on the rows:
    the C(H) rows check C(G) and the C(G) rows check C(H).  A search that
    ``symplectic.search_refusal`` refuses on the proved ranks alone fails
    ``distance-bound`` before it starts.  An edited artifact is reduced by
    elimination, each basis once, C(H) first, and ``dual-equality`` builds
    no dual when rank C(G) + rank C(H) is not 2n.  ``matrices-recompute``
    is ``fresh`` alone: any stale part fails it, with ``fresh``'s reason on
    a descent, and an honest descent skips it, as it has no places.
    ``euclidean-dual-containment`` and ``hamming-bound`` read only a curve
    artifact's fresh code: they take the proof, and the Hamming search runs
    on swap(fresh C(H)), the Euclidean dual of C(G).  ``distance-bound``
    requires the stored lower bound and deg G to be the fresh artifact's
    (null for a descent), since ``decode-sim`` takes its guarantee region
    from deg G, and it fails a stored ``d_exact`` this run did not derive.
    """
    checks: list[dict[str, str]] = []
    source = fresh(art)
    backend, g_rows, h_rows, parts = source.backend, source.g_rows, source.h_rows, source.parts
    certify(backend, source.j)
    descended = art.backend_kind is None
    if descended and source.stale is None:
        checks.append(_skip("matrices-recompute", "descended artifact carries no places"))
    else:
        checks.append(_check("matrices-recompute", source.stale is None, source.reason if descended
                             else "stored places and generator rows match a fresh evaluation"))

    same_rows = source.stale in (None, "places", "params", "provenance")  # records past C(G): fresh codes
    if same_rows:
        rank_g, rank_h, dual_ok, contained = len(g_rows), len(h_rows), True, True
    else:
        c_h = CodeBasis.from_rows(art.field, art.c_h_rows, art.width)  # C(H) first
        c_g = CodeBasis.from_rows(art.field, art.c_g_rows, art.width)
        rank_g, rank_h = c_g.rank, c_h.rank
        # dim C(G) + dim C(G)^perp = 2n, so any other rank sum is decided without the dual
        dual_ok = rank_g + rank_h == art.width and symplectic_dual(c_g) == c_h
        contained = contains(c_g, c_h)
    checks.append(_check("dual-equality", dual_ok,
                         "canonical rref of the symplectic dual of C(G) equals that of C(H)"))
    checks.append(_check("containment", contained, "C(G) contains C(H)"))
    k_ok = rank_g - art.n == art.k and rank_h == art.n - art.k and (descended or art.k == art.j)
    checks.append(_check("k-formula", k_ok, f"rank {rank_g} = n + k with k = {art.k}"))

    d_exact_found: int | None = None
    note = ""
    bound, deg_g = parts["d_lower"], parts["deg_g"]
    bound_ok = art.d_lower == bound and art.deg_g == deg_g
    if descended:
        bound_detail = f"inherited lower bound {art.d_lower} (descent does not decrease it)"
        if art.d_lower != bound:
            note = f"; recorded lower bound {art.d_lower} differs from the source's recomputed {bound}"
    else:
        bound_detail = f"recorded lower bound {art.d_lower} matches the recomputed {bound}"
    if art.deg_g != deg_g:  # decode-sim takes its guarantee region from the stored deg G
        note += f"; recorded deg G {art.deg_g} differs from the recomputed {deg_g}"
    if exact_distance or budget is not None:
        mode = "auto" if exact_distance else "budget"
        try:
            if not same_rows:
                res = relative_min_weight(c_g, c_h, budget=budget, mode=mode)
            elif rank_g == rank_h:
                res = symplectic.MinWeightResult(status="empty")
            elif refused := symplectic.search_refusal(art.field.q, art.n, rank_g, budget, mode):
                raise ValueError(refused)
            else:  # C(H) = C(G)^perp: the checks of C(G) are the C(H) rows, and vice versa
                res = symplectic.sweep_min_weight(art.field, h_rows, g_rows, art.width, rank_g, budget, mode)
        except ValueError as exc:
            bound_ok, bound_detail = False, f"search failed: {exc}"
        else:
            if res.status == "exact":
                d_exact_found = res.weight
                bound_ok = bound_ok and res.weight >= bound
                bound_detail = f"exact relative weight {res.weight} >= bound {bound}"
            elif res.status == "at-least":
                # an exhausted sweep establishes d >= budget + 1, which can
                # support but never refute the recorded bound
                bound_detail = (f"no vector of weight <= {budget} in C(G) \\ C(H); "
                                f"recorded bound {art.d_lower} stands")
            else:
                bound_detail = "difference set is empty (k = 0)"
    if art.d_exact is not None and art.d_exact != d_exact_found:  # no command writes one
        bound_ok = False
        note += f"; recorded d_exact {art.d_exact} " + ("is not derived by this run" if d_exact_found is None
                                                         else f"differs from the derived {d_exact_found}")
    checks.append(_check("distance-bound", bound_ok, bound_detail + note))

    if not descended:
        # certify proved it, and the fresh code is all these two checks read
        checks.append(_check("euclidean-dual-containment", True, "the Euclidean dual of C(G) lies inside C(G)"))
        dim, d_hamming = len(g_rows), backend.hamming_bound(art.j)
        dim_ok = dim == art.n + art.j
        if exact_distance and backend.field.q ** dim <= symplectic.ENUMERATION_CAP:
            try:  # the Euclidean dual of the fresh C(G) is swap(C(H))
                w = symplectic.sweep_min_hamming_weight(backend.field, np.roll(h_rows, backend.n, axis=1),
                                                        2 * backend.n, dim)
            except ValueError as exc:
                checks.append(_check("hamming-bound", False, f"search failed: {exc}"))
            else:
                checks.append(_check("hamming-bound", dim_ok and w >= d_hamming,
                                     f"classical dim {dim} = n + j and min Hamming weight {w} >= {d_hamming}"))
        else:
            checks.append(_check("hamming-bound", dim_ok,
                                 f"classical dim {dim} = n + j; bound {d_hamming} not enumerated"))
    else:
        checks.append(_skip("euclidean-dual-containment", "descended artifact"))
        checks.append(_skip("hamming-bound", "descended artifact"))

    ok = all(c["status"] != "fail" for c in checks)
    report: dict[str, Any] = {"ok": ok, "checks": checks}
    if d_exact_found is not None:
        report["d_exact"] = d_exact_found
    return report

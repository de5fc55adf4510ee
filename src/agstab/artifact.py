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
and read as that prefix, and its rows are laid out once for both slots.
``save`` writes the pieces as they are made, and ``to_json`` is their
join.  ``load`` reads the file as bytes: the exact-layout reader cuts
them by the same slots, parses each table in place with numpy, decodes
only the skeleton, and keeps the result only when the skeleton is what
json.dumps writes for it and each table lays out to exactly its block.
Any other file, and any file shorter than _EXACT_MIN, is decoded as text
mode decodes it and goes through json.loads; ``from_json`` reads a text
the same two ways.  Every reader gives the same artifact, or the same
error message.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from itertools import chain
from typing import Any, Iterator, NamedTuple

import numpy as np

from . import __version__, symplectic
from .curves import CurveBackend, certify, evaluation_matrix, make_backend
from .descent import DescentBasis, _descend, self_dual_basis
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


# the exact-layout reader has a fixed cost of about 0.5 ms, so json.loads reads a short text faster;
# the two cross near 13.6 KB, below this threshold.  Parsed and checked (``_from_document``) on an
# Intel Xeon core: rational q=16 j=1 (4.0 KB) in 0.54 ms against 0.22 ms by json.loads, q=32 j=1
# and j=4 (13.6 KB) in 0.58 and 0.59 ms against 0.60 and 0.50 ms, q=64 j=2 (51 KB) 0.57 against 1.36 ms
_EXACT_MIN = 1 << 14
_DIGIT = np.zeros(256, dtype=np.uint32)
_DIGIT[48:58] = np.arange(10)  # the value of each ASCII digit, 0 for every other byte


def _same_spans(raw: bytes, a: int, b: int, length: int) -> bool:
    """Whether raw[a:a + length] == raw[b:b + length]: one comparison in place, with no
    copy, that stops at the first difference (a descent's two blocks often differ early)."""
    return raw.startswith(memoryview(raw)[a:a + length], b)


def _parse_matrix(raw: bytes, start: int, end: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The rows of the non-empty matrix block raw[start:end], read as ``_pieces`` lays it out,
    as a uint16 array, and the position in ``raw`` where each row's "]" ends; or None.

    The block is read in place, in pieces of at most _BLOCK bytes, each
    ending in a newline.  A line's last byte, before a comma if there is
    one, tells it apart: a digit ends an entry and "]" closes a row.  An
    entry's value is read from its digits leftwards, one column of all
    entries at a time, until every entry has met the spaces of its indent;
    a value of 2^16 or more is no table's.  Only this shape is read here;
    that the lines hold nothing else is proven by laying the result out
    again (``_exact_document``).
    """
    values, ends = [], []
    while start < end:
        stop = raw.rfind(b"\n", start, start + _BLOCK) + 1 if end - start > _BLOCK else end
        if stop <= start:
            return None
        buf = np.frombuffer(raw, np.uint8, stop - start, start)
        newlines = np.flatnonzero(buf == 10)  # every line but the block's last, "    ]", ends in one
        last = newlines - 1 - (buf.take(newlines - 1) == 44)
        tail = buf.take(last)
        ends.append(last[tail == 93] + (start + 1))
        start = stop
        last = last[(tail >= 48) & (tail <= 57)]
        value = np.zeros(len(last), dtype=np.uint32)
        for k in range(6):
            digits = buf.take(last - k)
            if digits.max(initial=0) <= 32:
                break
            value += _DIGIT.take(digits) * 10 ** k
        else:  # six digits: no table's
            return None
        if value.max(initial=0) >= 1 << 16:
            return None
        values.append(value.astype(np.uint16))
    count, rows = sum(map(len, values)), sum(map(len, ends))
    if not rows or count % rows:
        return None
    return np.concatenate(values).reshape(rows, count // rows), np.concatenate(ends)


def _prefix_rows(raw: bytes, g_start: int, g_ends: np.ndarray, h_start: int, h_end: int) -> int:
    """r when the block raw[h_start:h_end], less its closing "\\n    ]", is the block at
    ``g_start`` up to where its row r ends (``g_ends``, as ``_parse_matrix`` gives them); else 0."""
    end = g_start + h_end - h_start - len("\n    ]")
    r = int(np.searchsorted(g_ends, end))
    return r + 1 if r < len(g_ends) and g_ends[r] == end and _same_spans(raw, g_start, h_start, end - g_start) else 0


def _exact_document(raw: bytes) -> dict | None:
    """The document of the file ``raw``, its tables parsed as arrays, when ``raw`` is exactly
    what ``_pieces`` writes for that document; None otherwise.

    Each slot that holds a non-empty list is cut out of the bytes, and what
    is left, each cut replaced by [], is the skeleton, the only part decoded
    (as ASCII).  Two things prove the parse: the skeleton is what json.dumps
    writes for its own json.loads, with [] at each cut slot's key, and each
    table, parsed with numpy in place (``_parse_matrix``), lays out to
    exactly its block.  A C(H) block that is C(G)'s bytes cut after row r
    and closed is C(G)'s first r rows.  The document is then the one
    json.loads gives for the whole file, but for the arrays; any other file
    is left to json.loads.
    """
    cuts, at = [], 0  # (key, indent, start, end) of each table block
    for key, before, pad in _SLOTS:
        at = raw.find(before, at) + len(before)
        if at < len(before):
            return None
        if raw.startswith(b"[\n", at):  # a table: its block closes at its indent before the next key
            close = f"\n{pad}]".encode()
            start, stop = at, raw.find(b'"', at)
            at = raw.rfind(close, start, stop) + len(close)
            if stop < 0 or at < start:
                return None
            cuts.append((key, pad, start, at))
    skeleton, at = [], 0
    for _, _, start, end in cuts:
        skeleton += raw[at:start], b"[]"
        at = end
    try:
        skeleton = (b"".join(skeleton) + raw[at:]).decode("ascii")
        doc = json.loads(skeleton)
        if json.dumps(doc, indent=2, sort_keys=True) + "\n" != skeleton:
            return None
        g = None  # C(G)'s rows, where each row ends, and where its block starts
        for key, pad, start, end in cuts:
            if _parent(doc, key).get(key) != []:
                return None
            r = key == "c_h" and g is not None and _prefix_rows(raw, g[2], g[1], start, end)
            if r:  # the block ends in "\n    ]" as every cut does
                table = g[0][:r]
            else:
                parsed = _parse_matrix(raw, start, end)
                if parsed is None or not parsed[0].size:
                    return None
                table, at = parsed[0], start
                for piece in _layout_matrix(table, pad):
                    if not raw.startswith(piece, at):
                        return None
                    at += len(piece)
                if at != end:
                    return None
                if key == "c_g":
                    g = *parsed, start
            _parent(doc, key)[key] = table
    except (ValueError, RecursionError):  # not ASCII, not JSON, or nested past json.loads
        return None
    return doc


def from_json(text: str) -> CodeArtifact:
    """Parse a schema-v1 artifact from its text, as ``load`` parses its file.

    A text of at least _EXACT_MIN characters in ``to_json``'s exact layout
    has its matrices read with numpy (``_exact_document``); any other text,
    a short file or a hand-edited one say, goes through json.loads, with
    the same result and the same messages.
    """
    doc = _exact_document(text.encode("ascii")) if len(text) >= _EXACT_MIN and text.isascii() else None
    return _from_document(json.loads(text) if doc is None else doc)


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
    if backend is not None:
        _entry(backend, "backend", "kind", str)
        for key in ("q", "gamma", "j"):
            _entry(backend, "backend", key, int)
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
    table = doc.get("places")
    if isinstance(table, np.ndarray):  # from _exact_document: rectangular non-negative integers
        doc["places"] = table.tolist()
    places = _entry(doc, "", "places", list, nullable=True)
    if places is not None and not (isinstance(table, np.ndarray) and table.max(initial=0) < f.q):
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
    """Write the artifact file (``to_json``'s text) piece by piece, as ``_pieces`` makes them:
    the whole text is never held, only C(H)'s pieces when its rows are C(G)'s first."""
    with open(path, "wb") as fh:
        fh.writelines(_pieces(art))


def load(path: str) -> CodeArtifact:
    """Read an artifact file, as ``from_json`` reads its text.

    The file is read as bytes, which the exact-layout reader parses in
    place (``_exact_document``).  Any other file is decoded as text mode
    decodes it, "\\r\\n" and "\\r" read as "\\n", and goes through
    json.loads, so each file gives the artifact or the message it gives
    when read as text.
    """
    return _from_document(_file_document(path))


def _file_document(path: str) -> Any:
    with open(path, "rb") as fh:
        raw = fh.read()
    doc = _exact_document(raw) if len(raw) >= _EXACT_MIN else None
    if doc is None:
        text = io.TextIOWrapper(io.BytesIO(raw)).read()
        del raw  # json.loads holds only the text, as when the file was read as text
        doc = json.loads(text)
    return doc  # its tables are no views of the bytes, which go when this returns


# ---------------------------------------------------------------------------
# The fresh code, construction and descent
# ---------------------------------------------------------------------------

class Fresh(NamedTuple):
    """A curve artifact's backend and the fresh code at its j, from one evaluation of L(G), and
    the first stored part ("field", "c_h", "c_g") that is not that code, or None, and why."""

    backend: CurveBackend
    g_rows: np.ndarray  # C(G), read-only, as ``curves.evaluation_matrix`` returns it
    h_rows: np.ndarray  # its first n - j rows, C(H)
    stale: str | None
    reason: str | None


def fresh(art: CodeArtifact, prove: bool = True) -> Fresh | None:
    """The fresh code of a curve artifact's backend block, and whether the stored field and
    rows are that code; None for a descended artifact.  ValueError when the block names no
    code (an unknown kind, q or gamma, or j out of range).  With ``prove`` the rows are
    ``curves.certify``'s, returned once it has proved C(H) = C(G)^perp and C(H) <= C(G) for
    the callers that rely on that; without it, the evaluation alone, for one that only
    compares (``decode-sim``).  Indices over another modulus are other elements, so the
    stored field is checked first."""
    if art.backend_kind is None:
        return None
    backend = make_backend(art.backend_kind, art.q, art.gamma)
    g_rows = certify(backend, art.j) if prove else evaluation_matrix(backend, art.j)
    h_rows, at = g_rows[:backend.n - art.j], f"the {art.backend_kind} backend at"
    if art.field != backend.field:
        stale = "field", (f"field.modulus is {art.field.modulus}, but {at} q = {art.q} "
                          f"has modulus {backend.field.modulus}")
    elif not np.array_equal(art.c_h_rows, h_rows):
        stale = "c_h", f"matrices.c_h is not the C(H) of {at} j = {art.j}"
    elif not np.array_equal(art.c_g_rows, g_rows):
        stale = "c_g", f"matrices.c_g is not the C(G) of {at} j = {art.j}"
    else:
        return Fresh(backend, g_rows, h_rows, None, None)
    return Fresh(backend, g_rows, h_rows, stale[0], "artifact: " + stale[1])


def construct_artifact(kind: str, q: int, j: int, gamma: int = 1) -> CodeArtifact:
    """The artifact of C(G) >= C(H) at j on a curve backend: the rows ``curves.certify``
    returns once it has proved the ranks, the duality and containment, with no matrix
    reduced, and C(H) their first n - j."""
    backend = make_backend(kind, q, gamma)
    g_rows = certify(backend, j)
    return CodeArtifact(
        backend_kind=kind, q=q, gamma=gamma, j=j, field=backend.field, places=backend.places.tolist(),
        c_g_rows=g_rows.copy(), c_h_rows=g_rows[:backend.n - j].copy(),  # writable copies of the evaluation
        n=backend.n, k=j, deg_g=backend.deg_g(j), d_lower=backend.distance_bound(j), d_exact=None,
    )


def descend_artifact(art: CodeArtifact, base_degree: int = 1) -> CodeArtifact:
    """Descend the artifact's G-code to GF(2^base_degree).

    The default basis (powers of the generator) is used when it has a
    twist, else a self-dual basis, and the provenance records it.  The
    source must be the fresh code (``fresh``), whose C(H) ``curves.certify``
    has proved to be C(G)'s symplectic dual, inside C(G): the descents of the
    two, C(H)'s the dual of C(G)'s by the twist, need no dual built and no
    containment checked.  ValueError before any reduction for a descended
    artifact (its source would be lost), for a backend block that names no
    curve code, in ``verify``'s words, and for a stored field or rows that
    are not the fresh code, in ``decode-sim``'s.
    """
    source = fresh(art)
    if source is None:
        raise ValueError("cannot descend a descended artifact, whose source backend would be lost; "
                         "descend its source")
    if source.stale:
        raise ValueError(source.reason)
    sub = field(base_degree)
    basis = DescentBasis(sub, art.field)
    if basis.twist is None:
        basis = DescentBasis(sub, art.field, self_dual_basis(sub, art.field))
    c_g, c_h = (CodeBasis.from_rows(art.field, rows, art.width) for rows in (source.g_rows, source.h_rows))
    down, dual = _descend(c_g, basis), _descend(c_h, basis)
    n = down.width // 2
    return CodeArtifact(
        backend_kind=None, q=None, gamma=None, j=None, field=sub, places=None,
        c_g_rows=down.rows.copy(), c_h_rows=dual.rows.copy(), n=n, k=down.rank - n, deg_g=None,
        d_lower=art.d_lower,  # a stored d_exact is a claim, not a bound: only verify derives one
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

    On a curve artifact the fresh code and whether the stored field and
    rows are it come from ``fresh``, whose rows ``curves.certify`` returns
    once it has proved, from the exponent tables and with no matrix
    reduced, the ranks n + j and n - j, C(H) = C(G)^perp, C(H) <= C(G) and
    the containment of the Euclidean dual; a failed proof is an
    AssertionError, not a failed check.  When the field and the stored
    rows are the fresh ones, the stored codes are the proved ones, so
    ``dual-equality``, ``containment`` and ``k-formula`` need no reduction,
    and the searches run on the rows: the C(H) rows check C(G) and the C(G)
    rows check C(H).  A search that ``symplectic.search_refusal`` refuses
    on the proved ranks alone fails ``distance-bound`` before it starts.
    An edited or a descended artifact is reduced by elimination, each basis
    once, C(H) first, for its checks and its searches.
    ``euclidean-dual-containment`` and ``hamming-bound`` read only the
    fresh code, so they take the proof, and the Hamming search runs on
    swap(fresh C(H)), the Euclidean dual of C(G), over the backend's field.
    ``dual-equality`` builds no dual when rank C(G) + rank C(H) is not 2n.
    On a curve artifact ``distance-bound`` also requires the stored deg G
    to be the backend's, since ``decode-sim`` takes its guarantee region
    from it; on any artifact it fails a stored ``d_exact`` that this run
    did not derive.
    """
    checks: list[dict[str, str]] = []
    source = fresh(art)
    same_rows = source is not None and source.stale is None
    if source is None:
        checks.append(_skip("matrices-recompute", "descended artifact carries no places"))
    else:
        backend, g_rows, h_rows = source.backend, source.g_rows, source.h_rows
        checks.append(_check("matrices-recompute", same_rows and art.places == backend.places.tolist(),
                             "stored places and generator rows match a fresh evaluation"))

    if same_rows:  # the stored codes are the fresh ones, whatever the stored places
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
    k_ok = rank_g - art.n == art.k and rank_h == art.n - art.k and (source is None or art.k == art.j)
    checks.append(_check("k-formula", k_ok, f"rank {rank_g} = n + k with k = {art.k}"))

    d_exact_found: int | None = None
    note = ""
    if source is not None:
        bound = backend.distance_bound(art.j)
        deg_g = backend.deg_g(art.j)
        bound_ok = art.d_lower == bound and art.deg_g == deg_g
        bound_detail = f"recorded lower bound {art.d_lower} matches the recomputed {bound}"
        if art.deg_g != deg_g:  # decode-sim takes its guarantee region from the stored deg G
            note = f"; recorded deg G {art.deg_g} differs from the recomputed {deg_g}"
    else:
        bound, bound_ok = art.d_lower, True
        bound_detail = f"inherited lower bound {art.d_lower} (descent does not decrease it)"
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
                bound_ok = bound_ok and (bound is None or res.weight >= bound)
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

    if source is not None:
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

"""Regeneration against json.loads.

An honest artifact file is exactly the bytes the writer writes for the
artifact its recipe makes, so ``load`` and ``from_json`` read a file of at
least ``_EXACT_MIN`` bytes by writing it again (``_regenerated``): the
recipe, at the file's head or at a descent's tail, makes the artifact, and
the file must be its pieces byte for byte.  Any other file, and any shorter
one, goes through json.loads.  Every text here, written by ``to_json`` or
mutated from one, must give both paths the same artifact or the same
ValueError message, whatever its length.
"""

import contextlib
import inspect
import io
import json
import re
import textwrap
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agstab import artifact as artifact_mod

CODES = [("rational", q, 1) for q in (4, 8, 16, 32, 64, 128, 256, 512)] + [
    ("hermitian", 2, 1), ("hermitian", 4, 5),
    ("rational", 8, 4),                    # j = max_j: C(H) = []
    ("descended", "hermitian", 2, 1),      # binary descents
    ("descended", "rational", 8, 1),
]


@lru_cache(maxsize=None)
def _text(code: tuple) -> str:
    if code[0] == "descended":
        return artifact_mod.to_json(artifact_mod.descend_artifact(artifact_mod.construct_artifact(*code[1:])))
    if code[0] == "cut":  # the first rows of each matrix: a file of any size between two codes'
        art = artifact_mod.construct_artifact(*code[1:-1])
        art.c_g_rows, art.c_h_rows = art.c_g_rows[:code[-1]], art.c_h_rows[:code[-1] - 1]
        return artifact_mod.to_json(art)
    return artifact_mod.to_json(artifact_mod.construct_artifact(*code))


@lru_cache(maxsize=None)
def _entries(code: tuple) -> list[tuple[int, int]]:
    """The (start, end) of the digits of every line that holds a bare integer at a matrix entry's indent."""
    return [m.span(1) for m in re.finditer(r"\n {8}(\d+)", _text(code))]


def _json_path(text: str):
    return artifact_mod._from_document(json.loads(text))


def _regenerates(text: str) -> bool:
    """Whether ``text``, of any length, is what the writer writes for its recipe."""
    return artifact_mod._regenerated(io.BytesIO(text.encode()))[0] is not None


def _outcome(text: str, fast: bool | None):
    """from_json's artifact, its arrays as (dtype, shape, bytes), or its ValueError message:
    with regeneration tried first on every text (fast), on none (not fast), or on the texts
    of at least _EXACT_MIN characters, as from_json chooses (None)."""
    if fast:
        return _result(lambda: artifact_mod._regenerated(io.BytesIO(text.encode()))[0] or _json_path(text))
    return _result(lambda: _json_path(text) if fast is False else artifact_mod.from_json(text))


def _result(read):
    """``read()``'s artifact, its arrays as (dtype, shape, bytes), or its ValueError message."""
    try:
        art = read()
    except ValueError as exc:
        return "error", str(exc)
    return "artifact", {key: (value.dtype.str, value.shape, value.tobytes()) if isinstance(value, np.ndarray)
                        else value for key, value in vars(art).items()}


def _replace(value):
    def mutate(text, code, draw):
        start, end = draw(st.sampled_from(_entries(code)))
        return text[:start] + value(text) + text[end:]
    return mutate


def _leading_zero(text, code, draw):
    start, _ = draw(st.sampled_from(_entries(code)))
    return text[:start] + "0" + text[start:]


def _row_one_short(text, code, draw):
    start, end = draw(st.sampled_from(_entries(code)))
    line = text.rfind("\n", 0, start)
    return text[:line] + text[text.index("\n", end):]


def _extra_row(text, code, draw):
    start, _ = draw(st.sampled_from(_entries(code)))
    row_open = text.rfind("\n      [", 0, start)
    row_close = text.index("\n      ]", start) + len("\n      ]")
    return text[:row_open] + text[row_open:row_close] + "," + text[row_open:]


def _indent(text, code, draw):
    start, _ = draw(st.sampled_from(_entries(code)))
    return text[:start] + " " + text[start:]


def _swapped_keys(text, code, draw):
    doc = json.loads(text)
    doc["matrices"] = dict(reversed(doc["matrices"].items()))
    return json.dumps(dict(reversed(doc.items())), indent=2) + "\n"


def _truncated(text, code, draw):
    return text[:draw(st.integers(0, len(text) - 1))]


def _unknown_key(text, code, draw):
    """A key the writer does not write, at the top level or in one of its blocks; one in the
    informational "tool" block is read."""
    doc = json.loads(text)
    blocks = [doc] + [value for key, value in sorted(doc.items()) if isinstance(value, dict)]
    draw(st.sampled_from(blocks))["note"] = "an extra key"
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


MUTATIONS = {
    "none": lambda text, code, draw: text,
    "leading-zero": _leading_zero,
    "minus-zero": _replace(lambda text: "-0"),
    "float": _replace(lambda text: "1.0"),
    "true": _replace(lambda text: "true"),
    "non-ascii": _replace(lambda text: "\u00e9"),
    "equal-to-q": _replace(lambda text: re.search(r'"size": (\d+)', text)[1]),
    "row-one-short": _row_one_short,
    "extra-row": _extra_row,
    "indent": _indent,
    "crlf": lambda text, code, draw: text.replace("\n", "\r\n"),
    "swapped-keys": _swapped_keys,
    "truncated": _truncated,
    "unknown-key": _unknown_key,
}


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_both_readers_agree(data):
    code = data.draw(st.sampled_from(CODES))
    name = data.draw(st.sampled_from(sorted(MUTATIONS)))
    text = MUTATIONS[name](_text(code), code, data.draw)
    assert _outcome(text, fast=True) == _outcome(text, fast=False)


@pytest.mark.parametrize("code", [("rational", 512, 4, 1), ("hermitian", 4, 5, 3), ("hermitian", 4, 1, 1, 1),
                                  ("hermitian", 4, 5, 1, 2)], ids=str)
def test_an_honest_file_sends_no_table_to_json_loads(monkeypatch, tmp_path, code):
    """json.loads reads the recipe alone, and verify leaves the rows as it found them."""
    text = _written(code)
    assert len(text) >= artifact_mod._EXACT_MIN
    path = tmp_path / "a.json"
    path.write_text(text)
    loaded = []
    real = json.loads

    def recording(s, *args, **kwargs):
        loaded.append(s)
        return real(s, *args, **kwargs)

    monkeypatch.setattr(artifact_mod.json, "loads", recording)
    art = artifact_mod.load(str(path))
    monkeypatch.undo()
    # the backend and field blocks at the head, and a descent's provenance at the tail
    assert len(loaded) == 1 + (len(code) > 4)
    assert all(len(s) < artifact_mod._EXACT_MIN and b'"c_g"' not in s and b'"places": [' not in s for s in loaded)
    assert artifact_mod.to_json(art) == text
    rows = art.c_g_rows.copy(), art.c_h_rows.copy()
    assert artifact_mod.verify_artifact(art)["ok"]
    assert all(np.array_equal(a, b) for a, b in zip((art.c_g_rows, art.c_h_rows), rows))
    assert all(a.flags.writeable for a in (art.c_g_rows, art.c_h_rows))


@pytest.mark.parametrize("code", [("rational", 32, 1), ("cut", "rational", 64, 1, 12), ("hermitian", 4, 5)], ids=str)
@pytest.mark.parametrize("edit", ["none", "equal-to-q", "truncated"])
def test_short_texts_skip_regeneration(code, edit):
    """A text shorter than _EXACT_MIN goes straight to json.loads, a longer one to regeneration
    first; either way from_json gives what both paths give, artifact or message."""
    text = _text(code)
    # 13.6, 19.6 and 44 KB: the constant lies between the first two
    assert len(_text(("rational", 32, 1))) < artifact_mod._EXACT_MIN <= len(_text(("cut", "rational", 64, 1, 12)))
    if edit == "equal-to-q":
        start, end = _entries(code)[7]
        text = text[:start] + re.search(r'"size": (\d+)', text)[1] + text[end:]
    elif edit == "truncated":
        text = text[:-9]
    calls = []
    real = artifact_mod._regenerated
    with mock.patch.object(artifact_mod, "_regenerated", lambda fh: calls.append(fh) or real(fh)):
        outcome = _outcome(text, None)
    assert bool(calls) == (len(text) >= artifact_mod._EXACT_MIN)
    assert outcome == _outcome(text, fast=True) == _outcome(text, fast=False)
    assert (outcome[0] == "artifact") == (edit == "none")


# every curve artifact's C(H) is the first n - j rows of its C(G), and its places one table;
# a descent's C(H) is no prefix of its C(G), and it has no places
NESTED = [("rational", q, j, 1) for q in (4, 8, 16, 32, 64) for j in sorted({0, 1, q // 4, q // 2})] + [
    ("hermitian", 2, j, 1) for j in (0, 1, 2)] + [
    ("hermitian", 4, j, gamma) for gamma in (1, 3) for j in (0, 1, 5, 12, 24)]


@lru_cache(maxsize=None)
def _nested_artifacts():
    arts = [artifact_mod.construct_artifact(*code) for code in NESTED]
    return arts + [artifact_mod.descend_artifact(art) for art in arts]


def _list_document(art) -> str:
    return json.dumps(artifact_mod._document(art), indent=2, sort_keys=True, default=np.ndarray.tolist) + "\n"


def _check_layouts(arts):
    for art in arts:
        assert artifact_mod.to_json(art) == _list_document(art)


# every file tier-1 writes: the curve codes the tests build, rational q = 4 .. 512 and hermitian q = 2
# and 4 (gamma 1 and 3) from j = 0 to max_j, and their descents to GF(2) and, from GF(16), to GF(4)
WRITTEN = NESTED + [("rational", q, j, 1) for q in (128, 256, 512) for j in (1, 4)]
DESCENDED = [code + (1,) for code in NESTED] + [code + (2,) for code in NESTED if code[:2] in
                                                  (("rational", 16), ("hermitian", 4))]


@lru_cache(maxsize=None)
def _written(code: tuple) -> str:
    art = artifact_mod.construct_artifact(*code[:4])
    return artifact_mod.to_json(art if len(code) == 4 else artifact_mod.descend_artifact(art, code[4]))


@pytest.mark.parametrize("code", WRITTEN + DESCENDED, ids=str)
def test_regeneration_is_json_loads_on_every_written_file(code):
    text = _written(code)
    assert _regenerates(text)
    assert _outcome(text, fast=True) == _outcome(text, fast=False)


def test_nested_codes_are_laid_out_exactly():
    _check_layouts(_nested_artifacts())


def test_mutation_reusing_a_prefix_unchecked_fails_the_layouts(monkeypatch):
    # a writer that took any shorter matrix of the same width for a prefix of the one before
    arts = _nested_artifacts()
    monkeypatch.setattr(np, "array_equal", lambda a, b: True)
    with pytest.raises(AssertionError):
        _check_layouts(arts)


@pytest.mark.parametrize("kind, q", [("rational", 16), ("hermitian", 4)])
def test_the_writer_lays_each_row_of_c_g_out_once(monkeypatch, kind, q):
    # C(H)'s rows are C(G)'s first ones, laid out once for both slots: the matrix rows that go
    # through _layout_matrix are C(G)'s, at j = 0 (C(H) = C(G)), 1 and max_j (C(H) empty)
    from agstab.curves import make_backend

    rows = []
    real = artifact_mod._layout_matrix

    def recording(M, pad):  # counted when the layout starts, not when it is asked for
        rows.append((len(M), pad))
        yield from real(M, pad)

    monkeypatch.setattr(artifact_mod, "_layout_matrix", recording)
    for j in (0, 1, make_backend(kind, q).max_j):
        art = artifact_mod.construct_artifact(kind, q, j)
        rows.clear()
        assert artifact_mod.to_json(art) == _list_document(art)
        assert sum(count for count, pad in rows if pad == "    ") == len(art.c_g_rows)
    # the control: a descended C(H) is no prefix of its C(G), and is laid out on its own
    down = artifact_mod.descend_artifact(artifact_mod.construct_artifact(kind, q, 1))
    rows.clear()
    assert artifact_mod.to_json(down) == _list_document(down)
    assert rows == [(len(down.c_g_rows), "    "), (len(down.c_h_rows), "    ")]


def test_loads_and_descents_share_one_field(tmp_path):
    from agstab.gf import field

    path = str(tmp_path / "h41.json")
    artifact_mod.save(artifact_mod.construct_artifact("hermitian", 4, 1), path)
    first, second = artifact_mod.load(path), artifact_mod.load(path)
    assert first.field is second.field is field(4) is field(4, 0b10011)
    assert artifact_mod.descend_artifact(first).field is field(1)
    # a modulus a file names is still validated, and a failure is not kept
    doc = json.loads((tmp_path / "h41.json").read_text())
    doc["field"]["modulus"] = 0b10101  # (x^2 + x + 1)^2
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^modulus 0b10101 is not irreducible of degree 4 over GF\(2\)$"):
            artifact_mod.from_json(json.dumps(doc))


def _spans(text):
    """The (start, end) of the C(G), C(H) and places blocks of a to_json text."""
    return {key: (start + len(prefix), text.index(suffix, start + len(prefix)))
            for key, prefix, suffix in (("c_g", '"c_g": ', ',\n    "c_h"'), ("c_h", '"c_h": ', "\n  },"),
                                        ("places", '"places": ', ',\n  "provenance"'))
            for start in [text.index(prefix)]}


def _with_block(text, key, value):
    """``text`` with the block of ``key`` replaced by ``value``, laid out at that block's indent."""
    start, end = _spans(text)[key]
    return text[:start] + json.dumps(value, indent=2).replace("\n", "\n  " if key == "places" else "\n    ") + text[end:]


def _c_h_entry(doc, q, row):
    rows = doc["matrices"]["c_h"]
    rows[row][1] = (rows[row][1] + 1) % q if rows[row][1] + 1 < q else rows[row][1] - 1
    return rows


C_H_EDITS = {
    "one-entry": lambda doc, q: _c_h_entry(doc, q, 0),
    "last-row": lambda doc, q: _c_h_entry(doc, q, -1),
    "one-row-too-many": lambda doc, q: doc["matrices"]["c_h"] + doc["matrices"]["c_h"][-1:],
    # the text of C(G) up to part of a row: no row boundary of C(G) there
    "inside-a-row": lambda doc, q: doc["matrices"]["c_h"] + [doc["matrices"]["c_g"][len(doc["matrices"]["c_h"])][:3]],
}
PLACES_EDITS = {
    "ragged": lambda places, q: places[:1] + [places[1] + [0]] + places[2:],
    "out-of-range": lambda places, q: places[:2] + [[q] * len(places[2])] + places[3:],
    "null": lambda places, q: None,
    "empty-rows": lambda places, q: [[] for _ in places],
}


@pytest.mark.parametrize("code", [("rational", 64, 3, 1), ("hermitian", 4, 5, 3)], ids=str)
@pytest.mark.parametrize("edit", sorted(C_H_EDITS) + sorted(PLACES_EDITS))
def test_edits_to_a_table_take_json_loads(code, edit):
    art = artifact_mod.construct_artifact(*code)
    text = artifact_mod.to_json(art)
    doc, q = json.loads(text), art.field.q
    if edit in C_H_EDITS:
        text = _with_block(text, "c_h", C_H_EDITS[edit](doc, q))
    else:
        text = _with_block(text, "places", PLACES_EDITS[edit](doc["places"], q))
    assert text != artifact_mod.to_json(art) and not _regenerates(text)
    outcome = _outcome(text, None)
    assert outcome == _outcome(text, fast=False)
    # from_json checks the structure only: the ragged places are left to verify
    assert (outcome[0] == "artifact") == (edit not in ("inside-a-row", "out-of-range"))


def _flip(text: str, at: int) -> str:
    """``text`` with the digit at ``at`` changed by one: no other length, and no value past q."""
    return text[:at] + chr(ord(text[at]) ^ 1) + text[at + 1:]


def _last_digit(text: str, before: str, last: bool = False) -> int:
    """The position of the last digit of the first (or last) entry of the block after ``before``."""
    start = text.index(before) + len(before)
    block = text[start:text.index("\n  " + ("]" if before.startswith('"places') else "  ]"), start)]
    spans = [m.end(1) - 1 for m in re.finditer(r"\n {6,8}(\d+)", block)]
    return start + spans[-1 if last else 0]


# one byte changed in each table, in the skeleton and in params, and bytes only a file could hold a
# line end of two bytes, or a byte past the end: each file takes json.loads and gets its result
BYTE_EDITS = {
    "c_g-first-entry": lambda text: _flip(text, _last_digit(text, '"c_g": ')),
    "c_g-last-entry": lambda text: _flip(text, _last_digit(text, '"c_g": ', last=True)),
    "c_h-entry": lambda text: _flip(text, _last_digit(text, '"c_h": ')),
    "places-entry": lambda text: _flip(text, _last_digit(text, '"places": ')),
    "skeleton": lambda text: text.replace('"name": "agstab"', '"name": "agstaB"'),
    "params": lambda text: _flip(text, re.search(r'"d_lower": (\d+)', text).end(1) - 1),
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "trailing-bytes": lambda text: text + "\n",
}
BYTE_CODES = [("rational", 64, 3, 1), ("hermitian", 4, 5, 3), ("hermitian", 4, 1, 1, 1)]


@pytest.mark.parametrize("code, edit", [(code, edit) for code in BYTE_CODES for edit in sorted(BYTE_EDITS)
                                        if len(code) == 4 or edit != "places-entry"], ids=str)  # no descent's
def test_one_changed_byte_takes_json_loads(tmp_path, code, edit):
    honest = _written(code)
    text = BYTE_EDITS[edit](honest)
    assert text != honest and len(text) >= artifact_mod._EXACT_MIN
    assert not _regenerates(text)
    outcome = _outcome(text, None)
    assert outcome == _outcome(text, fast=False)
    # a table entry edited off the fresh code is still an artifact: verify, not the reader, fails it
    assert outcome[0] == "artifact"
    path = tmp_path / "a.json"
    path.write_bytes(text.encode())
    assert _file_outcome(path) == outcome


@pytest.mark.parametrize("mutant, edit", [
    (("fh.read(len(piece)) == piece", "len(fh.read(len(piece))) == len(piece)"), "c_g-last-entry"),
    ((" and not fh.read(1)", ""), "trailing-bytes"),
], ids=["lengths-alone", "no-end-check"])
def test_mutation_comparing_less_fails_the_byte_edits(monkeypatch, tmp_path, mutant, edit):
    # a regeneration that compared the lengths of the pieces alone, or did not check where the file ends
    source = textwrap.dedent(inspect.getsource(artifact_mod._regenerated))
    assert source.count(mutant[0]) == 1
    namespace = {}
    exec(compile(source.replace(*mutant), "<mutant>", "exec"), vars(artifact_mod), namespace)
    monkeypatch.setattr(artifact_mod, "_regenerated", namespace["_regenerated"])
    with pytest.raises(AssertionError):
        test_one_changed_byte_takes_json_loads(tmp_path, BYTE_CODES[0], edit)


# texts that are to_json's output but outside the tables: each skeleton reads with json.loads, but
# is not what json.dumps writes for it, so the exact-layout reader leaves the text to json.loads
def _after_matrices(text, insert):
    at = text.index('\n  },\n  "params"') + len("\n  }")
    return text[:at] + insert + text[at:]


SKELETON_EDITS = {
    "space-before-colon": lambda text: text.replace('\n    "n": ', '\n    "n" : '),
    "field-keys-out-of-order": lambda text: re.sub(r'("characteristic": 2,)\n    ("degree": \d+,)', r"\2\n    \1",
                                                   text),
    "escaped-name": lambda text: text.replace('"name": "agstab"', '"name": "\\u0061gstab"'),
    # json.loads keeps the last of two keys: here matrices with no rows
    "duplicated-key": lambda text: _after_matrices(text, ',\n  "matrices": {\n    "c_g": [],\n    "c_h": []\n  }'),
    "crlf-in-the-skeleton": lambda text: text.replace('\n  "params"', '\r\n  "params"'),
}
SKELETON_CODES = [("rational", 64, 3, 1), ("hermitian", 4, 5, 3)]


@lru_cache(maxsize=None)
def _curve_text(code: tuple) -> str:
    return artifact_mod.to_json(artifact_mod.construct_artifact(*code))


@pytest.mark.parametrize("code", SKELETON_CODES, ids=str)
@pytest.mark.parametrize("edit", sorted(SKELETON_EDITS))
def test_edits_outside_the_tables_take_json_loads(code, edit):
    text = SKELETON_EDITS[edit](_curve_text(code))
    assert text != _curve_text(code)
    assert json.loads(text)  # still JSON
    assert not _regenerates(text)
    assert _outcome(text, None) == _outcome(text, fast=False)


def test_a_table_at_another_key_takes_json_loads():
    # C(H) moved from "matrices" to a later "c_h" key at the same depth: the recipe is the file's,
    # but "matrices" holds no C(H)
    doc = json.loads(_curve_text(SKELETON_CODES[0]))
    doc["params"].update(a=0, c_h=doc["matrices"].pop("c_h"))
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert not _regenerates(text)
    assert _outcome(text, None) == _outcome(text, fast=False) == ("error", "artifact: missing key 'matrices.c_h'")


@pytest.mark.parametrize("junk", ["", "x"])
@pytest.mark.parametrize("key", ["c_g", "places"])
def test_a_close_past_a_table_takes_json_loads(key, junk):
    # text and a second close line after a table's block, before the next key: not JSON
    text = _curve_text(SKELETON_CODES[0])
    end = _spans(text)[key][1]
    close = "\n    ]" if key == "c_g" else "\n  ]"
    text = text[:end] + junk + close + text[end:]
    assert not _regenerates(text)
    outcome = _outcome(text, None)
    assert outcome == _outcome(text, fast=False) and outcome[0] == "error"


# ---------------------------------------------------------------------------
# files: load reads the bytes, and gives what the file read as text gives
# ---------------------------------------------------------------------------

def _file_outcome(path):
    """load's artifact or ValueError message, as ``_outcome`` gives them."""
    with mock.patch.object(artifact_mod, "from_json", lambda text: pytest.fail("load parses no text")):
        return _result(lambda: artifact_mod.load(str(path)))


def _text_outcome(path):
    """What from_json gives for the file read in text mode: decoded as UTF-8 (a file that is not
    gives the decoder's message), with "\\r\\n" and "\\r" read as "\\n"."""
    return _result(lambda: artifact_mod.from_json(path.read_text()))


def _same_from_the_cli(path, outcome):
    """verify on the file exits 2 with the one error line of ``outcome``'s message, or exits 0 or 1
    as the checks of its artifact pass or fail."""
    from agstab.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(path)])
    if outcome[0] == "error":
        assert (code, out.getvalue(), err.getvalue()) == (2, "", f"error: {outcome[1]}\n")
    else:
        assert err.getvalue() == "" and code == (0 if json.loads(out.getvalue())["ok"] else 1)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_load_reads_each_text_as_from_json_does(tmp_path_factory, data):
    code = data.draw(st.sampled_from(CODES))
    name = data.draw(st.sampled_from(sorted(MUTATIONS)))
    text = MUTATIONS[name](_text(code), code, data.draw)
    path = tmp_path_factory.mktemp("mutation") / "a.json"
    path.write_bytes(text.encode())
    outcome = _file_outcome(path)
    assert outcome == _outcome(text, None) == _text_outcome(path)
    _same_from_the_cli(path, outcome)


def _cut_inside_c_g(raw):
    return raw[:raw.index(b'"c_g": ') + 400]


# bytes only a file holds: each is read as text mode reads it, which the exact-layout reader leaves to
# json.loads (the prefix of the message, or None for an artifact)
FILE_BYTES = {
    "crlf": (lambda raw: raw.replace(b"\n", b"\r\n"), None),
    "lone-cr": (lambda raw: raw.replace(b"\n", b"\r", 1), None),
    "lone-cr-in-a-block": (lambda raw: raw.replace(b",\n        ", b",\r        ", 3), None),
    "bom": (lambda raw: b"\xef\xbb\xbf" + raw, "Unexpected UTF-8 BOM"),
    "invalid-utf-8": (lambda raw: re.sub(rb"\n {8}\d", b"\n        \xff", raw, count=1),
                      "'utf-8' codec can't decode byte 0xff in position "),
    "cut-inside-a-block": (_cut_inside_c_g, "Expecting "),
    # json.loads counts lines and characters after the translation
    "crlf-cut-inside-a-block": (lambda raw: _cut_inside_c_g(raw.replace(b"\n", b"\r\n")), "Expecting "),
    "lone-cr-cut-inside-a-block": (lambda raw: _cut_inside_c_g(raw.replace(b"\n", b"\r", 1)), "Expecting "),
}


@pytest.mark.parametrize("code", [("rational", 64, 1), ("hermitian", 4, 5), ("descended", "hermitian", 4, 1)],
                         ids=str)
@pytest.mark.parametrize("case", sorted(FILE_BYTES))
def test_load_reads_file_bytes_as_text_mode_does(tmp_path, code, case):
    edit, message = FILE_BYTES[case]
    raw = _text(code).encode()
    path = tmp_path / "a.json"
    path.write_bytes(edit(raw))
    assert path.read_bytes() != raw and len(raw) >= artifact_mod._EXACT_MIN
    outcome = _file_outcome(path)
    assert outcome == _text_outcome(path)
    if message is None:
        path.write_bytes(raw)
        assert outcome == _file_outcome(path) and outcome[0] == "artifact"
    else:
        assert outcome[0] == "error" and outcome[1].startswith(message)
    path.write_bytes(edit(raw))
    _same_from_the_cli(path, outcome)

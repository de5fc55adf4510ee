"""The two artifact readers against each other.

``from_json`` reads a text in ``to_json``'s exact layout with numpy and any
other text, or any text shorter than ``_EXACT_MIN``, through json.loads.
Every text here, written by ``to_json`` or mutated from one, must give both
readers the same artifact or the same ValueError message, whatever its
length.
"""

import contextlib
import io
import json
import re
from functools import lru_cache
from types import SimpleNamespace
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


def _outcome(text: str, fast: bool | None):
    """from_json's artifact, its arrays as (dtype, shape, bytes), or its ValueError message:
    with the exact-layout reader tried first on every text (fast), on none (not fast), or
    on the texts of at least _EXACT_MIN characters, as from_json chooses (None)."""
    patch = (mock.patch.object(artifact_mod, "_EXACT_MIN", 0) if fast
             else mock.patch.object(artifact_mod, "_exact_document", lambda text: None) if fast is False
             else contextlib.nullcontext())
    with patch:
        return _result(lambda: artifact_mod.from_json(text))


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
}


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_both_readers_agree(data):
    code = data.draw(st.sampled_from(CODES))
    name = data.draw(st.sampled_from(sorted(MUTATIONS)))
    text = MUTATIONS[name](_text(code), code, data.draw)
    assert _outcome(text, fast=True) == _outcome(text, fast=False)


@pytest.mark.parametrize("code", [("rational", 512, 4), ("hermitian", 4, 5), ("descended", "hermitian", 4, 1),
                                  ("rational", 8, 4)], ids=str)
def test_files_to_json_writes_skip_json_loads_for_the_matrices(monkeypatch, code):
    """No matrix block of a to_json text reaches json.loads, and verify leaves the rows as it found them."""
    text = _text(code)
    lengths = []
    real = json.loads

    def recording(s, *args, **kwargs):
        lengths.append(len(s))
        return real(s, *args, **kwargs)

    monkeypatch.setattr(artifact_mod.json, "loads", recording)
    monkeypatch.setattr(artifact_mod, "_EXACT_MIN", 0)  # rational q=8 j=4 is shorter
    art = artifact_mod.from_json(text)
    monkeypatch.undo()
    # the C(G) block is at least as long as its rows laid out at no indent
    block = len(json.dumps(art.c_g_rows.tolist(), indent=2))
    assert lengths and max(lengths) <= len(text) - block
    assert artifact_mod.to_json(art) == text
    rows = art.c_g_rows.copy(), art.c_h_rows.copy()
    assert artifact_mod.verify_artifact(art)["ok"]
    assert all(np.array_equal(a, b) for a, b in zip((art.c_g_rows, art.c_h_rows), rows))
    assert all(a.flags.writeable for a in (art.c_g_rows, art.c_h_rows))


@pytest.mark.parametrize("code", [("rational", 32, 1), ("cut", "rational", 64, 1, 12), ("hermitian", 4, 5)], ids=str)
@pytest.mark.parametrize("edit", ["none", "equal-to-q", "truncated"])
def test_short_texts_skip_the_exact_layout_reader(code, edit):
    """A text shorter than _EXACT_MIN goes straight to json.loads, a longer one to the exact-layout
    reader first; either way from_json gives what both readers give, artifact or message."""
    text = _text(code)
    # 13.6, 19.6 and 44 KB: the constant lies between the first two, below where the readers cross over
    assert len(_text(("rational", 32, 1))) < artifact_mod._EXACT_MIN <= len(_text(("cut", "rational", 64, 1, 12)))
    if edit == "equal-to-q":
        start, end = _entries(code)[7]
        text = text[:start] + re.search(r'"size": (\d+)', text)[1] + text[end:]
    elif edit == "truncated":
        text = text[:-9]
    calls = []
    real = artifact_mod._exact_document
    with mock.patch.object(artifact_mod, "_exact_document", lambda t: calls.append(t) or real(t)):
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


def test_nested_codes_are_laid_out_and_read_exactly():
    arts = _nested_artifacts()
    _check_layouts(arts)
    for art in arts:
        text = _list_document(art)
        doc = artifact_mod._exact_document(text.encode())
        assert doc is not None
        if art.places is not None:
            doc["places"] = doc["places"].tolist()
        doc["matrices"] = {key: rows.tolist() if isinstance(rows, np.ndarray) else rows
                           for key, rows in doc["matrices"].items()}
        assert doc == json.loads(text)


def test_mutation_reusing_a_prefix_unchecked_fails_the_layouts(monkeypatch):
    # a writer that took any shorter matrix of the same width for a prefix of the one before
    arts = _nested_artifacts()
    monkeypatch.setattr(np, "array_equal", lambda a, b: True)
    with pytest.raises(AssertionError):
        _check_layouts(arts)


def _spans(text):
    """The (start, end) of the C(G), C(H) and places blocks of a to_json text."""
    return {key: (start + len(prefix), text.index(suffix, start + len(prefix)))
            for key, prefix, suffix in (("c_g", '"c_g": ', ',\n    "c_h"'), ("c_h", '"c_h": ', "\n  },"),
                                        ("places", '"places": ', ',\n  "provenance"'))
            for start in [text.index(prefix)]}


def _parsed_blocks(monkeypatch, text):
    """The blocks from_json's exact-layout reader hands to _parse_matrix, by name."""
    calls = []
    real = artifact_mod._parse_matrix
    monkeypatch.setattr(artifact_mod, "_parse_matrix", lambda t, *span: calls.append(span) or real(t, *span))
    monkeypatch.setattr(artifact_mod, "_EXACT_MIN", 0)
    with contextlib.suppress(ValueError):
        artifact_mod.from_json(text)
    monkeypatch.undo()
    names = {span: key for key, span in _spans(text).items()}
    return sorted(names[span] for span in calls)


@pytest.mark.parametrize("code", [("rational", 64, 3, 1), ("hermitian", 4, 5, 3), ("rational", 8, 4, 1)], ids=str)
def test_an_honest_file_parses_places_and_c_g_only(monkeypatch, code):
    text = artifact_mod.to_json(artifact_mod.construct_artifact(*code))
    assert _parsed_blocks(monkeypatch, text) == ["c_g", "places"]


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
def test_edits_off_the_prefix_take_the_full_parse(monkeypatch, code, edit):
    art = artifact_mod.construct_artifact(*code)
    text = artifact_mod.to_json(art)
    doc, q = json.loads(text), art.field.q
    if edit in C_H_EDITS:
        text = _with_block(text, "c_h", C_H_EDITS[edit](doc, q))
    else:
        text = _with_block(text, "places", PLACES_EDITS[edit](doc["places"], q))
    assert text != artifact_mod.to_json(art)
    outcome = _outcome(text, fast=True)
    assert outcome == _outcome(text, fast=False)
    # from_json checks the structure only: the ragged places are left to verify
    assert (outcome[0] == "artifact") == (edit not in ("inside-a-row", "out-of-range"))
    # C(H) parsed in full (the ragged one ends the exact-layout reader there); null places are not parsed
    parsed = ["c_g", "c_h"] if edit == "inside-a-row" else ["c_g", "c_h", "places"] if edit in C_H_EDITS \
        else ["c_g"] if edit == "null" else ["c_g", "places"]
    assert _parsed_blocks(monkeypatch, text) == parsed


def test_mutation_taking_a_prefix_unchecked_fails_the_edits(monkeypatch):
    # a reader that took a C(H) block for C(G)'s prefix on its length alone
    monkeypatch.setattr(artifact_mod, "_same_spans", lambda *args: True)
    with pytest.raises(AssertionError):
        test_edits_off_the_prefix_take_the_full_parse(monkeypatch, ("rational", 64, 3, 1), "one-entry")


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
    assert artifact_mod._exact_document(text.encode()) is None
    assert _outcome(text, fast=True) == _outcome(text, fast=False)


def test_mutation_skipping_the_skeleton_comparison_fails(monkeypatch):
    # a reader that took every skeleton json.loads reads for what json.dumps writes of it
    for code in SKELETON_CODES:
        _curve_text(code)  # written before json is patched
    loaded = []

    def loads(s, *args, **kwargs):
        loaded.append(s)
        return json.loads(s, *args, **kwargs)

    monkeypatch.setattr(artifact_mod, "json", SimpleNamespace(loads=loads, dumps=lambda *args, **kwargs: loaded[-1][:-1]))
    for code in SKELETON_CODES:
        for edit in SKELETON_EDITS:
            with pytest.raises(AssertionError):
                test_edits_outside_the_tables_take_json_loads(code, edit)


def test_a_table_at_another_key_takes_json_loads():
    # C(H) moved from "matrices" to a later "c_h" key at the same depth: the skeleton is what
    # json.dumps writes, but "matrices" holds no C(H) for the block to fill
    doc = json.loads(_curve_text(SKELETON_CODES[0]))
    doc["params"].update(a=0, c_h=doc["matrices"].pop("c_h"))
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert artifact_mod._exact_document(text.encode()) is None
    assert _outcome(text, fast=True) == _outcome(text, fast=False) == ("error", "artifact: missing key 'matrices.c_h'")


@pytest.mark.parametrize("junk", ["", "x"])
@pytest.mark.parametrize("key", ["c_g", "places"])
def test_a_close_past_a_table_takes_json_loads(key, junk):
    # text and a second close line after a table's block, before the next key: not JSON.  The block
    # cut up to the last close has one row too many for _parse_matrix, or, after an "x" that closes no
    # row and holds no entry, the rows of the table, whose layout then ends before the cut does
    text = _curve_text(SKELETON_CODES[0])
    end = _spans(text)[key][1]
    close = "\n    ]" if key == "c_g" else "\n  ]"
    text = text[:end] + junk + close + text[end:]
    assert artifact_mod._exact_document(text.encode()) is None
    outcome = _outcome(text, fast=True)
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

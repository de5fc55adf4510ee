"""The two artifact readers against each other.

``from_json`` reads a text in ``to_json``'s exact layout with numpy and any
other text through json.loads.  Every text here, written by ``to_json`` or
mutated from one, must give both readers the same artifact or the same
ValueError message.
"""

import json
import re
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
    return artifact_mod.to_json(artifact_mod.construct_artifact(*code))


@lru_cache(maxsize=None)
def _entries(code: tuple) -> list[tuple[int, int]]:
    """The (start, end) of the digits of every line that holds a bare integer at a matrix entry's indent."""
    return [m.span(1) for m in re.finditer(r"\n {8}(\d+)", _text(code))]


def _outcome(text: str, fast: bool):
    """from_json's artifact, its arrays as (dtype, shape, bytes), or its ValueError message."""
    try:
        if fast:
            art = artifact_mod.from_json(text)
        else:
            with mock.patch.object(artifact_mod, "_exact_document", lambda text: None):
                art = artifact_mod.from_json(text)
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

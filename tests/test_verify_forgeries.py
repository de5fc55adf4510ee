"""The forgery table: artifacts edited so that exactly one claim is false,
each with the check of ``agstab verify`` that must catch it.

Every row edits the artifact file of hermitian q=2 j=1, rational q=8 j=1
or rational q=16 j=1, or of the binary descent of one of the first two,
and asserts three things: the named check fails, every other check keeps
the status it has on the unedited file, and ``agstab verify`` exits 1.

No row targets ``euclidean-dual-containment`` or ``hamming-bound``: both
are computed from a fresh evaluation of the backend, not from the stored
matrices, so no edit to the artifact fails either of them alone.

The two ``xfail(strict=True)`` rows are false claims that ``verify`` passes
today, because it does not re-derive a descended artifact from its source
(ROADMAP item 1).  They flip to passing when that item lands.
"""

import json
from functools import lru_cache

import numpy as np
import pytest

from agstab import artifact as artifact_mod
from agstab.cli import main
from agstab.gf import field
from agstab.symplectic import CodeBasis, contains, symplectic_dual

SOURCES = {"hermitian-q2-j1": ("hermitian", 2, 1), "rational-q8-j1": ("rational", 8, 1),
           "rational-q16-j1": ("rational", 16, 1)}
DESCENT_SOURCES = ("hermitian-q2-j1", "rational-q8-j1")
ITEM_1 = "ROADMAP item 1: verify does not re-derive a descended artifact from its source"


@lru_cache(maxsize=None)
def _text(source: str, descended: bool) -> str:
    art = artifact_mod.construct_artifact(*SOURCES[source])
    return artifact_mod.to_json(artifact_mod.descend_artifact(art) if descended else art)


@lru_cache(maxsize=None)
def _statuses(source: str, descended: bool, flags: tuple[str, ...]) -> dict[str, str]:
    report = artifact_mod.verify_artifact(artifact_mod.from_json(_text(source, descended)),
                                          exact_distance="--exact-distance" in flags)
    assert report["ok"]
    return {c["name"]: c["status"] for c in report["checks"]}


def _binary_code(doc: dict, key: str) -> CodeBasis:
    return CodeBasis.from_rows(field(1), doc["matrices"][key], 2 * doc["params"]["n"])


def _rank(rows: np.ndarray) -> int:
    return CodeBasis.from_rows(field(1), rows, rows.shape[1]).rank


# each edit takes the parsed document and a seeded generator; the descended
# codes are binary, so a GF(2) combination of rows is an integer product mod 2

def _permute_places(doc, rng):
    doc["places"] = doc["places"][::-1]


def _k_plus_one(doc, rng):
    doc["params"]["k"] += 1


def _d_lower_plus(step):
    def edit(doc, rng):
        doc["params"]["d_lower"] += step
    return edit


def _deg_g_one(doc, rng):
    """deg G = 1, which decode-sim would take its guarantee region from."""
    doc["params"]["deg_g"] = 1


def _other_c_h(doc, rng):
    """C(H) replaced by another rank-(n - k) subspace of C(G)."""
    c_g, c_h = _binary_code(doc, "c_g"), _binary_code(doc, "c_h")
    while True:
        rows = rng.integers(0, 2, (c_h.rank, c_g.rank)) @ c_g.rows.astype(np.int64) % 2
        other = CodeBasis.from_rows(c_g.field, rows, c_g.width)
        if other.rank == c_h.rank and other != c_h:
            doc["matrices"]["c_h"] = other.rows.tolist()
            return


def _random_c_g(doc, rng):
    """C(G) replaced by a random rank-(n + k) code that does not contain its dual, C(H) by its dual."""
    c_g = _binary_code(doc, "c_g")
    while True:
        forged = CodeBasis.from_rows(c_g.field, rng.integers(0, 2, (c_g.rank, c_g.width)), c_g.width)
        dual = symplectic_dual(forged)
        if forged.rank == c_g.rank and not contains(forged, dual):
            doc["matrices"]["c_g"], doc["matrices"]["c_h"] = forged.rows.tolist(), dual.rows.tolist()
            return


def _unit_stabilizer(doc, rng):
    """C(H) = <(e_i | 0) : i < n - k> and C(G) its symplectic dual: a consistent code, not the descent."""
    n, k = doc["params"]["n"], doc["params"]["k"]
    c_h = CodeBasis.from_rows(field(1), np.eye(n - k, 2 * n, dtype=np.int64), 2 * n)
    doc["matrices"]["c_g"] = symplectic_dual(c_h).rows.tolist()
    doc["matrices"]["c_h"] = c_h.rows.tolist()


CURVE_ROWS = [
    ("places-permuted", _permute_places, (), "matrices-recompute"),
    ("k-plus-one", _k_plus_one, (), "k-formula"),
    ("d-lower-plus-one", _d_lower_plus(1), (), "distance-bound"),
    ("deg-g-one", _deg_g_one, (), "distance-bound"),
]
DESCENT_ROWS = [
    ("k-plus-one", _k_plus_one, (), "k-formula"),
    ("c_h-another-subspace", _other_c_h, (), "dual-equality"),
    ("c_g-random", _random_c_g, (), "containment"),
    ("d-lower-plus-five-exact", _d_lower_plus(5), ("--exact-distance",), "distance-bound"),
]
FALSE_PASSES = [
    ("unit-stabilizer", _unit_stabilizer, (), "matrices-recompute"),
    ("d-lower-plus-five", _d_lower_plus(5), (), "distance-bound"),
]
TABLE = [
    pytest.param(source, descended, edit, flags, check, id=f"{'descended-' * descended}{source}-{name}", marks=marks)
    for source in SOURCES
    for descended, rows, marks in ((False, CURVE_ROWS, ()), (True, DESCENT_ROWS, ()),
                                   (True, FALSE_PASSES, pytest.mark.xfail(strict=True, reason=ITEM_1)))
    if source in DESCENT_SOURCES or not descended
    for name, edit, flags, check in rows
]


@pytest.mark.parametrize("source, descended, edit, flags, check", TABLE)
def test_verify_catches_each_forgery(tmp_path, capsys, source, descended, edit, flags, check):
    doc = json.loads(_text(source, descended))
    edit(doc, np.random.default_rng(5))
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(doc))
    code = main(["verify", str(path), *flags])
    got = {c["name"]: c["status"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert got == {**_statuses(source, descended, flags), check: "fail"}
    assert code == 1

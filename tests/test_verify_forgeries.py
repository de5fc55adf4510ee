"""The forgery table: artifacts edited so that exactly one record is false,
each with the key path of the record that ``agstab verify`` must name.

Every row edits the artifact file of hermitian q=2 j=1, rational q=8 j=1
or rational q=16 j=1, or of the binary descent of one of the first two.
``artifact.fresh`` is the one reader of the stored records: it compares
the stored document with the one the recipe's fresh artifact writes, key
by key in the writer's order.  So every row has one expectation:
``matrices-recompute`` fails with ``fresh``'s reason, which names the
row's key path, every other check is skipped with one detail that names
it, no search runs, and ``agstab verify`` exits 1.

A descent is re-derived from its recipe, the source backend and basis that
its provenance records, so an edit of its tables, backend or basis is
named at the first table, where the fresh descent first differs.  Every
record the writer writes is some row's stale record, or is excluded with
its reason, and three mutants of the walk each fail the rows they must.

No row targets ``euclidean-dual-containment`` or ``hamming-bound``: both
read only the fresh code, which ``curves.certify`` proves, so on a file with
no stale record nothing the file holds can fail them.
"""

import inspect
import json
import textwrap
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


@lru_cache(maxsize=None)
def _text(source: str, descended: bool) -> str:
    art = artifact_mod.construct_artifact(*SOURCES[source])
    return artifact_mod.to_json(artifact_mod.descend_artifact(art) if descended else art)


def _binary_code(doc: dict, key: str) -> CodeBasis:
    return CodeBasis.from_rows(field(1), doc["matrices"][key], 2 * doc["params"]["n"])


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


def _d_exact(value):
    def edit(doc, rng):
        doc["params"]["d_exact"] = value(doc["params"])
    return edit


def _deg_g(value):
    """deg G = ``value``, which decode-sim would take its guarantee region from (a descent's is null)."""
    def edit(doc, rng):
        doc["params"]["deg_g"] = value
    return edit


def _places_on_a_descent(doc, rng):
    doc["places"] = [[0], [1]]


def _curve_provenance(doc, rng):
    """A curve artifact that claims to descend from its own backend."""
    doc["provenance"]["descended_from"] = {"backend": doc["backend"]}


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


def _c_g_reversed(doc, rng):
    """C(G)'s rows in reverse order: the same code, but not the fresh descent's rows."""
    doc["matrices"]["c_g"] = doc["matrices"]["c_g"][::-1]


def _provenance(edit):
    def edit_provenance(doc, rng):
        edit(doc["provenance"]["descended_from"])
    return edit_provenance


def _source_j_plus_one(source):
    """j = 2 at both sources, whose lower bound stays what it is at j = 1."""
    source["backend"]["j"] += 1


def _basis_reversed(source):
    """A basis with a twist (any order of one has it), its Gram matrix left as recorded."""
    source["basis"].reverse()


def _basis_and_gram_reversed(source):
    """The same, its Gram matrix reversed too: a consistent recipe, whose descent the rows are not."""
    source["basis"].reverse()
    source["gram"] = [row[::-1] for row in source["gram"][::-1]]


def _gram_entry(source):
    source["gram"][0][0] ^= 1


def _source_modulus(source):
    """GF(4) has one irreducible modulus, x^2 + x + 1; GF(8) two, 11 and 13."""
    source["field"]["modulus"] = {7: 5, 11: 13}[source["field"]["modulus"]]


def _gram_as_booleans(source):
    """The same Gram matrix with true and false for 1 and 0, which Python compares equal."""
    source["gram"] = [[bool(v) for v in row] for row in source["gram"]]


def _source_d_lower_plus_one(source):
    source["params"]["d_lower"] += 1


def _source_k(source):
    source["params"]["k"] = 99


def _extra_key(source):
    source["note"] = "an extra key"


def _field_degree(doc, rng):
    """The field one degree larger, with a modulus of that degree: its size and characteristic agree."""
    block = doc["field"]
    block["degree"] += 1
    block["size"] *= 2
    block["modulus"] = {3: 11, 4: 19, 5: 37}[block["degree"]]


def _field_modulus(doc, rng):
    """GF(2) read over x (2), not x + 1 (3); GF(8) over 13, not 11; GF(16) over 25, not 19."""
    doc["field"]["modulus"] = {3: 2, 11: 13, 19: 25}[doc["field"]["modulus"]]


def _c_h_reversed(doc, rng):
    doc["matrices"]["c_h"] = doc["matrices"]["c_h"][::-1]


def _source_field(key, value):
    def edit(source):
        source["field"][key] = value(source["field"][key])
    return edit


def _source_n(source):
    source["params"]["n"] += 1


def _source_d_exact(source):
    source["params"]["d_exact"] = source["params"]["d_lower"]


# (name, edit, flags, the key path of the stale record, which fresh's reason names)
CURVE_ROWS = [
    ("field-degree", _field_degree, (), "field.degree"),
    ("c_g-rows-reversed", _c_g_reversed, (), "matrices.c_g"),
    ("c_h-rows-reversed", _c_h_reversed, (), "matrices.c_h"),
    ("places-permuted", _permute_places, (), "places"),
    ("k-plus-one", _k_plus_one, (), "params.k"),
    ("d-lower-plus-one", _d_lower_plus(1), (), "params.d_lower"),
    ("deg-g-one", _deg_g(1), (), "params.deg_g"),
    ("provenance-not-null", _curve_provenance, (), "provenance.descended_from"),
    # a stored d_exact (no command writes one): 7 on rational q=16 j=1
    ("d-exact-d-lower-plus-three", _d_exact(lambda params: params["d_lower"] + 3), (), "params.d_exact"),
]
SOURCE = "provenance.descended_from"
DESCENT_ROWS = [
    ("field-modulus", _field_modulus, (), "field.modulus"),
    ("k-plus-one", _k_plus_one, (), "params.k"),
    ("c_h-another-subspace", _other_c_h, (), "matrices.c_h"),
    ("c_g-random", _random_c_g, (), "matrices.c_g"),
    ("unit-stabilizer", _unit_stabilizer, (), "matrices.c_g"),
    ("c_g-rows-reversed", _c_g_reversed, (), "matrices.c_g"),
    # the recipe at j = 2, whose descent the stored rows are not
    ("source-j-plus-one", _provenance(_source_j_plus_one), (), "matrices.c_g"),
    # a basis is part of the recipe: the rows are not its descent
    ("basis-reversed", _provenance(_basis_reversed), (), "matrices.c_g"),
    ("basis-and-gram-reversed", _provenance(_basis_and_gram_reversed), (), "matrices.c_g"),
    ("gram-entry", _provenance(_gram_entry), (), f"{SOURCE}.gram"),
    ("source-field-modulus", _provenance(_source_modulus), (), f"{SOURCE}.field.modulus"),
    ("source-field-degree", _provenance(_source_field("degree", lambda v: v + 1)), (), f"{SOURCE}.field.degree"),
    ("source-field-size", _provenance(_source_field("size", lambda v: 2 * v)), (), f"{SOURCE}.field.size"),
    ("source-field-characteristic", _provenance(_source_field("characteristic", lambda v: 3)), (),
     f"{SOURCE}.field.characteristic"),
    ("gram-as-booleans", _provenance(_gram_as_booleans), (), f"{SOURCE}.gram"),
    ("source-d-lower-plus-one", _provenance(_source_d_lower_plus_one), (), f"{SOURCE}.params.d_lower"),
    ("source-k", _provenance(_source_k), (), f"{SOURCE}.params.k"),
    ("source-n", _provenance(_source_n), (), f"{SOURCE}.params.n"),
    ("source-d-exact", _provenance(_source_d_exact), (), f"{SOURCE}.params.d_exact"),
    ("provenance-extra-key", _provenance(_extra_key), (), f"{SOURCE}.note"),
    ("places", _places_on_a_descent, (), "places"),
    ("deg-g-five", _deg_g(5), (), "params.deg_g"),
    ("d-lower-plus-five", _d_lower_plus(5), (), "params.d_lower"),
    ("d-lower-plus-five-exact", _d_lower_plus(5), ("--exact-distance",), "params.d_lower"),
    ("d-exact-d-lower", _d_exact(lambda params: params["d_lower"]), (), "params.d_exact"),
    # one a search would derive otherwise: no weight exceeds n
    ("d-exact-past-n-exact", _d_exact(lambda params: params["n"] + 1), ("--exact-distance",), "params.d_exact"),
]
TABLE = [
    pytest.param(source, descended, edit, flags, stale, id=f"{'descended-' * descended}{source}-{name}")
    for source in SOURCES
    for descended, rows in ((False, CURVE_ROWS), (True, DESCENT_ROWS))
    if source in DESCENT_SOURCES or not descended
    for name, edit, flags, stale in rows
] + [  # GF(4), the field of hermitian q=2, has one modulus
    pytest.param(source, False, _field_modulus, (), "field.modulus", id=f"{source}-field-modulus")
    for source in ("rational-q8-j1", "rational-q16-j1")
]
CHECKS = ["matrices-recompute", "dual-equality", "containment", "k-formula", "distance-bound",
          "euclidean-dual-containment", "hamming-bound"]


def _forged(source: str, descended: bool, edit) -> str:
    doc = json.loads(_text(source, descended))
    edit(doc, np.random.default_rng(5))
    return json.dumps(doc)


def _verify(tmp_path, capsys, text: str, flags: tuple[str, ...]) -> tuple[int, dict]:
    """``agstab verify``'s exit code and report on a file that holds ``text``."""
    path = tmp_path / "forged.json"
    path.write_text(text)
    code = main(["verify", str(path), *flags])
    return code, json.loads(capsys.readouterr().out)


def _check_row(tmp_path, capsys, source, descended, edit, flags, stale):
    text = _forged(source, descended, edit)
    code, report = _verify(tmp_path, capsys, text, flags)
    verdict = artifact_mod.fresh(artifact_mod.from_json(text))
    assert (code, verdict.stale) == (1, stale), report["checks"][0]
    assert verdict.reason.startswith(f"artifact: {stale} ")
    assert report == {"ok": False, "checks": [
        {"name": CHECKS[0], "status": "fail", "detail": verdict.reason},
        *({"name": name, "status": "skipped", "detail": f"the stored {stale} is not the recipe's: "
                                                        "nothing else is checked"} for name in CHECKS[1:])]}


@pytest.mark.parametrize("source, descended, edit, flags, stale", TABLE)
def test_verify_catches_each_forgery(tmp_path, capsys, source, descended, edit, flags, stale):
    _check_row(tmp_path, capsys, source, descended, edit, flags, stale)


def _record_paths(doc: dict, path: str = ""):
    """The key path of every record a document holds: each value that is no object, tables included."""
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _record_paths(value, f"{path}{key}.")
        else:
            yield path + key


RECIPE = "the recipe: an edit names another code, and the file is named where its artifact first differs"
# the records no row edits, and why; a key excludes every path under it
UNFORGED = {
    "schema_version": "the reader refuses any other version before fresh runs",
    "tool": "informational: the artifact does not carry it, so fresh compares the writer's tool with itself",
    "field.characteristic": "the reader checks it against field.degree",
    "field.size": "the reader checks it against field.degree",
    "params.n": "the reader checks the rows' length against it, and the tables, which come first, then differ",
}
CURVE_UNFORGED = {**UNFORGED, "backend": RECIPE}
DESCENT_UNFORGED = {**UNFORGED, "backend": RECIPE + " (a block makes it a curve artifact)",
                    "field.degree": RECIPE + " (the degree of the field it descends to)",
                    f"{SOURCE}.backend": RECIPE, f"{SOURCE}.basis": RECIPE}


@pytest.mark.parametrize("descended", [False, True], ids=["curve", "descent"])
def test_every_record_the_writer_writes_has_a_forgery(descended):
    # every record path _document writes, down to the keys of params, field and the provenance, is
    # the stale record of some row on that kind of artifact, or is excluded with its reason: a record
    # added to the writer fails here until a row forges it
    art = artifact_mod.from_json(_text("rational-q8-j1", descended))
    excluded = DESCENT_UNFORGED if descended else CURVE_UNFORGED
    paths = {path for path in _record_paths(artifact_mod._document(art))
             if not any(path == key or path.startswith(key + ".") for key in excluded)}
    named = {row.values[4] for row in TABLE if row.values[1] == descended}
    assert paths - named == set()
    assert {"params.deg_g", "matrices.c_h", "params.k"} <= paths  # the control: the walk reaches them
    assert named - paths == ({f"{SOURCE}.note"} if descended else set())  # a key the writer never writes


PINNED = {row.id: row for row in TABLE}


TABLE_CONDITION = "(stored == ours.tolist() if isinstance(stored, list) else np.array_equal(stored, ours))"


@pytest.mark.parametrize("mutant, rows", [
    # records compared as Python compares them, where true is 1
    (("else _dump(value)", "else value"), ["descended-rational-q8-j1-gram-as-booleans"]),
    # a walk that stops below the top-level blocks, and compares the provenance record whole
    (("isinstance(ours, dict):", "isinstance(ours, dict) and len(path) < 2:"),
     ["descended-rational-q8-j1-gram-entry", "descended-hermitian-q2-j1-source-k",
      "descended-rational-q8-j1-source-field-modulus"]),
    # tables compared by their shape alone
    ((TABLE_CONDITION, "np.shape(stored) == np.shape(ours)"),
     ["descended-rational-q8-j1-c_g-rows-reversed", "descended-hermitian-q2-j1-c_h-another-subspace",
      "rational-q16-j1-c_h-rows-reversed", "rational-q8-j1-places-permuted"]),
], ids=["records-by-==", "one-level", "tables-by-shape"])
def test_mutants_of_the_walk_fail_their_rows(monkeypatch, tmp_path, capsys, mutant, rows):
    source = textwrap.dedent(inspect.getsource(artifact_mod._differences))
    assert source.count(mutant[0]) == 1
    namespace = {}
    exec(compile(source.replace(*mutant), "<mutant>", "exec"), vars(artifact_mod), namespace)
    rows = [PINNED[row] for row in rows]
    monkeypatch.setattr(artifact_mod, "_differences", namespace["_differences"])
    for row in rows:
        with pytest.raises(AssertionError):
            _check_row(tmp_path, capsys, *row.values)
    monkeypatch.undo()
    for row in rows:  # the control: each row holds on the walk itself
        _check_row(tmp_path, capsys, *row.values)


def _reduced(monkeypatch, run) -> bool:
    """Whether ``run()`` reduces a matrix: every elimination goes through ``linalg.rref``."""
    from agstab import linalg

    class Reduced(Exception):
        pass

    def refuse(*args):
        raise Reduced

    monkeypatch.setattr(linalg, "rref", refuse)
    try:
        run()
    except Reduced:
        return True
    finally:
        monkeypatch.undo()
    return False


@pytest.mark.parametrize("source, descended, edit, flags, stale", TABLE)
def test_verify_reduces_no_stored_row_of_a_stale_table(monkeypatch, source, descended, edit, flags, stale):
    art = artifact_mod.from_json(_forged(source, descended, edit))
    artifact_mod.fresh(art)  # the recipe's descent, made once per artifact, as load makes it for a whole file
    for options in ({}, {"exact_distance": True}, {"budget": 2}):
        assert not _reduced(monkeypatch, lambda: artifact_mod.verify_artifact(art, **options))
    # control: the elimination of the stored rows that verify once made is seen
    assert _reduced(monkeypatch, lambda: CodeBasis.from_rows(art.field, art.c_h_rows, art.width))


@pytest.mark.parametrize("code", [("hermitian", 4, 5), ("rational", 16, 1)], ids=str)
def test_verify_fails_a_forged_field_modulus(tmp_path, capsys, code):
    # the rows read over x^4+x^3+1 (25), not x^4+x+1 (19): over that field C(H) is not the
    # symplectic dual of the stored C(G), so more checks than matrices-recompute may fail
    doc = json.loads(artifact_mod.to_json(artifact_mod.construct_artifact(*code)))
    assert doc["field"]["modulus"] == 19
    doc["field"]["modulus"] = 25
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
    got = {c["name"]: c["status"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert got["matrices-recompute"] == "fail"


# ---------------------------------------------------------------------------
# the decode certificate
# ---------------------------------------------------------------------------
# "unique-guaranteed" claims that the decoded vector is the one of least symplectic
# weight with its syndrome, and that it lies in the guarantee region.  Each row hands
# the decoder syndromes that no planted error in the region need explain, on both
# solvers (the power sums on C(H)'s power basis, the search on a plain copy), and checks every
# certificate against the weight-capped oracle: a certificate exactly when the oracle
# finds a vector in the region, and then the oracle's vector.

DECODE_CODES = {"rational-q16-j0": (16, 0), "rational-q16-j1": (16, 1)}  # t_cap 2 (2 budget = rank) and 1


def _planted_syndrome(backend, c_h, weight, lcg):
    from agstab.cli import sample_symplectic_error
    from agstab.decoder import syndrome_of

    return syndrome_of(c_h.field, sample_symplectic_error(lcg, backend.n, backend.q, weight), c_h.rows)


def _tampered_syndrome(backend, c_h, t_cap, lcg, rng):
    """The syndrome of an error in the region, one entry changed."""
    s = list(_planted_syndrome(backend, c_h, t_cap, lcg))
    s[int(rng.integers(len(s)))] ^= int(rng.integers(1, backend.q))
    return tuple(s)


def _one_outside(backend, c_h, t_cap, lcg, rng):
    """The syndrome of an error one weight past the region."""
    return _planted_syndrome(backend, c_h, t_cap + 1, lcg)


@pytest.mark.parametrize("solver", ["power-sums", "search"])
@pytest.mark.parametrize("edit", [_tampered_syndrome, _one_outside], ids=["tampered-syndrome", "one-outside"])
@pytest.mark.parametrize("source", DECODE_CODES)
def test_decode_never_certifies_falsely(source, edit, solver):
    from agstab.cli import Lcg64
    from agstab.curves import RationalBackend, power_basis
    from agstab.decoder import SyndromeProblem, brute_oracle, guarantee_cap, symplectic_decode
    from agstab.symplectic import CodeBasis

    q, j = DECODE_CODES[source]
    backend = RationalBackend(q)
    c_h = power_basis(backend.field, backend.places[:, 0], backend.n - j)
    if solver == "search":
        c_h = CodeBasis(c_h.field, c_h.width, c_h.rows, c_h.pivots)
    deg_g = backend.deg_g(j)
    t_cap = guarantee_cap(backend.n, deg_g)
    rng, lcg = np.random.default_rng(11), Lcg64(11)
    certified = 0
    for _ in range(40):
        problem = SyndromeProblem(c_h, edit(backend, c_h, t_cap, lcg, rng))
        res = symplectic_decode(problem, deg_g)
        assert res.decoder == solver
        oracle = brute_oracle(problem, weight_cap=t_cap)
        assert (res.status == "unique-guaranteed") == (oracle.status != "budget-exhausted")
        if res.status == "unique-guaranteed":
            certified += 1
            assert (res.error, res.weight) == (oracle.error, oracle.weight)
    assert certified < 40  # the edits do leave the region

"""The forgery table: artifacts edited so that exactly one claim is false,
each with the check of ``agstab verify`` that must catch it.

Every row edits the artifact file of hermitian q=2 j=1, rational q=8 j=1
or rational q=16 j=1, or of the binary descent of one of the first two,
and asserts three things: the named checks fail, every other check keeps
the status it has on the unedited file, and ``agstab verify`` exits 1.

No row targets ``euclidean-dual-containment`` or ``hamming-bound``: both
read only the fresh code, which ``curves.certify`` proves, under
``--exact-distance`` too, not the stored matrices, so no edit to the
artifact fails either of them alone.

A descent is re-derived from its recipe, the source backend and basis that
its provenance records: a row that edits its matrices, field, basis or Gram
matrix fails ``matrices-recompute`` as well as the check it names, and a
lower bound other than the source's fails ``distance-bound``.  Every record
the recipe fixes is compared with the fresh artifact too: a descent's source
params, a key its provenance should not hold and places (null on a descent)
fail ``matrices-recompute``, as a curve artifact's non-null provenance does.
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


CURVE_ROWS = [
    ("places-permuted", _permute_places, (), "matrices-recompute"),
    ("k-plus-one", _k_plus_one, (), "k-formula"),
    ("d-lower-plus-one", _d_lower_plus(1), (), "distance-bound"),
    ("deg-g-one", _deg_g(1), (), "distance-bound"),
    ("provenance-not-null", _curve_provenance, (), "matrices-recompute"),
    # a stored d_exact that this run does not derive (no command writes one): 7 on rational q=16 j=1
    ("d-exact-d-lower-plus-three", _d_exact(lambda params: params["d_lower"] + 3), (), "distance-bound"),
]
RECOMPUTE = "matrices-recompute"
DESCENT_ROWS = [
    ("k-plus-one", _k_plus_one, (), "k-formula"),
    ("c_h-another-subspace", _other_c_h, (), (RECOMPUTE, "dual-equality")),
    ("c_g-random", _random_c_g, (), (RECOMPUTE, "containment")),
    ("unit-stabilizer", _unit_stabilizer, (), RECOMPUTE),
    ("c_g-rows-reversed", _c_g_reversed, (), RECOMPUTE),
    ("source-j-plus-one", _provenance(_source_j_plus_one), (), RECOMPUTE),
    ("basis-reversed", _provenance(_basis_reversed), (), RECOMPUTE),
    ("basis-and-gram-reversed", _provenance(_basis_and_gram_reversed), (), RECOMPUTE),
    ("gram-entry", _provenance(_gram_entry), (), RECOMPUTE),
    ("source-field-modulus", _provenance(_source_modulus), (), RECOMPUTE),
    ("gram-as-booleans", _provenance(_gram_as_booleans), (), RECOMPUTE),
    ("source-d-lower-plus-one", _provenance(_source_d_lower_plus_one), (), RECOMPUTE),
    ("source-k", _provenance(_source_k), (), RECOMPUTE),
    ("provenance-extra-key", _provenance(_extra_key), (), RECOMPUTE),
    ("places", _places_on_a_descent, (), RECOMPUTE),
    ("deg-g-five", _deg_g(5), (), "distance-bound"),
    ("d-lower-plus-five", _d_lower_plus(5), (), "distance-bound"),
    ("d-lower-plus-five-exact", _d_lower_plus(5), ("--exact-distance",), "distance-bound"),
    ("d-exact-d-lower", _d_exact(lambda params: params["d_lower"]), (), "distance-bound"),
    # one the search derives otherwise: no weight exceeds n
    ("d-exact-past-n-exact", _d_exact(lambda params: params["n"] + 1), ("--exact-distance",), "distance-bound"),
]
TABLE = [
    pytest.param(source, descended, edit, flags, check, id=f"{'descended-' * descended}{source}-{name}")
    for source in SOURCES
    for descended, rows in ((False, CURVE_ROWS), (True, DESCENT_ROWS))
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
    assert got == {**_statuses(source, descended, flags), **dict.fromkeys((check,) if isinstance(check, str) else check,
                                                                             "fail")}
    assert code == 1


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
# solvers (the power sums with the points, the search without them), and checks every
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
    from agstab.curves import RationalBackend, build_codes
    from agstab.decoder import SyndromeProblem, brute_oracle, guarantee_cap, symplectic_decode

    q, j = DECODE_CODES[source]
    backend = RationalBackend(q)
    c_h = build_codes(backend, j)[1]
    points = tuple(backend.places[:, 0].tolist()) if solver == "power-sums" else None
    deg_g = backend.deg_g(j)
    t_cap = guarantee_cap(backend.n, deg_g)
    rng, lcg = np.random.default_rng(11), Lcg64(11)
    certified = 0
    for _ in range(40):
        problem = SyndromeProblem(c_h, edit(backend, c_h, t_cap, lcg, rng), points)
        res = symplectic_decode(problem, deg_g)
        assert res.decoder == solver
        oracle = brute_oracle(problem, weight_cap=t_cap)
        assert (res.status == "unique-guaranteed") == (oracle.status != "budget-exhausted")
        if res.status == "unique-guaranteed":
            certified += 1
            assert (res.error, res.weight) == (oracle.error, oracle.weight)
    assert certified < 40  # the edits do leave the region


def _swap_two_points(points):
    """Two columns' points exchanged.  (Not every permutation is a forgery: an affine
    map x -> a x + b keeps the span of x^i, i < rank, and so states the same checks.)"""
    p = list(points)
    p[1], p[2] = p[2], p[1]
    return tuple(p)


def _repeat_a_point(points):
    return (points[1],) + tuple(points[1:])


@pytest.mark.parametrize("edit, message", [
    (_swap_two_points, "the rows x^i, i < rank, at the points do not span the checks"),
    (_repeat_a_point, "the points are not distinct"),
    (lambda points: points[:-1], "15 points for 16 columns"),
], ids=["points-permuted", "points-duplicated", "points-cut"])
@pytest.mark.parametrize("j", [0, 1])
def test_decode_refuses_forged_points(edit, message, j):
    from agstab.curves import RationalBackend, build_codes
    from agstab.decoder import SyndromeProblem, symplectic_decode

    backend = RationalBackend(16)
    c_h = build_codes(backend, j)[1]
    problem = SyndromeProblem(c_h, (0,) * c_h.rank, edit(tuple(backend.places[:, 0].tolist())))
    with pytest.raises(ValueError, match=message.replace("^", r"\^")):
        symplectic_decode(problem, backend.deg_g(j))

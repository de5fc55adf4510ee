import functools
import inspect
import textwrap
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agstab import artifact
from agstab.curves import HermitianBackend, RationalBackend, build_codes
from agstab.descent import DescentBasis, _descend, _gamma, descend_code, self_dual_basis
from agstab.gf import SubfieldEmbedding, field
from agstab.linalg import invert_matrix
from agstab.symplectic import (
    CodeBasis,
    contains,
    relative_min_weight,
    symplectic_dual,
    syndrome_of,
)
from conftest import naive_descend_vector, naive_symplectic_form, naive_trace

EXTENSIONS = ((1, 2), (1, 3), (1, 4), (2, 4))  # GF(4), GF(8), GF(16) over GF(2); GF(16) over GF(4)


@pytest.fixture(scope="module")
def gf4_basis():
    return DescentBasis(field(1), field(2))  # default basis {1, w}


def gamma(basis, vectors):
    """gamma of each vector, as lists: the one gather ``descend_code`` runs."""
    return _gamma(basis, np.array(vectors, dtype=np.int64).reshape(len(vectors), -1)).tolist()


# ---------------------------------------------------------------------------
# the coordinate maps
# ---------------------------------------------------------------------------

def test_alpha_examples(gf4_basis):
    # gamma(y | 0) = (alpha^-1(y) | 0, 0)
    assert gf4_basis.basis == (1, 2)
    assert gamma(gf4_basis, [(1, 0), (2, 0), (3, 0)]) == [
        [1, 0, 0, 0],                       # alpha(1, 0) = 1
        [0, 1, 0, 0],                       # alpha(0, 1) = w
        [1, 1, 0, 0],                       # alpha(1, 1) = 1 + w = w^2
    ]


def test_beta_examples(gf4_basis):
    # gamma(0 | y) = (0, 0 | beta^-1(y))
    assert gf4_basis.gram == ((0, 1), (1, 1))
    assert gamma(gf4_basis, [(0, 2), (0, 3), (0, 0)]) == [
        [0, 0, 1, 0],                       # beta(1, 0) = w
        [0, 0, 0, 1],                       # beta(0, 1) = 1 + w = w^2
        [0, 0, 0, 0],                       # beta(0, 0) = 0
    ]


def test_maps_are_inverse_bijections():
    # gamma(y | y) = (alpha^-1(y) | beta^-1(y)) for every y, as the tuple scan finds
    # them, and no two y share their coordinates
    for sd, ed in ((1, 2), (1, 3), (2, 4)):
        db = DescentBasis(field(sd), field(ed))
        m = db.m
        images = gamma(db, [(y, y) for y in range(db.ext.q)])
        assert images == [list(naive_descend_vector(db.view, db.basis, (y, y))) for y in range(db.ext.q)]
        assert len({tuple(c[:m]) for c in images}) == len({tuple(c[m:]) for c in images}) == db.ext.q


def test_gram_inverse_is_inverse(gf4_basis):
    from agstab.linalg import invert_matrix

    assert gf4_basis.gram_inv.tolist() == invert_matrix(field(1), gf4_basis.gram).tolist() == [[1, 1], [1, 0]]


def test_twist_multiplier_identity():
    # <gamma(u), gamma(v)> = Tr(mu * <u, v>) with the basis-specific mu
    rng = np.random.default_rng(13)
    for sd, ed, basis in ((1, 2, None), (1, 3, None), (2, 4, [1, 8])):
        db = DescentBasis(field(sd), field(ed), basis)
        assert db.twist is not None
        ext = db.ext
        n = 3
        for _ in range(50):
            u = tuple(int(v) for v in rng.integers(0, ext.q, 2 * n))
            v = tuple(int(v) for v in rng.integers(0, ext.q, 2 * n))
            gu, gv = gamma(db, [u, v])
            lhs = syndrome_of(db.sub, gu, [gv])
            rhs = int(db.view.trace_table[ext.mul(db.twist, syndrome_of(ext, u, [v])[0])])
            assert lhs == (rhs,)


def test_default_gf16_power_basis_has_no_twist():
    # the Gram-twisted map breaks orthogonality for these bases; recorded
    # so the artifact layer knows to fall back to a self-dual basis
    assert DescentBasis(field(1), field(4)).twist is None
    assert DescentBasis(field(2), field(4)).twist is None


def test_self_dual_basis_properties():
    for sd, ed in ((1, 2), (1, 3), (1, 4), (2, 4), (2, 8), (4, 8)):
        basis = self_dual_basis(field(sd), field(ed))
        db = DescentBasis(field(sd), field(ed), basis)
        m = db.m
        assert db.gram == tuple(tuple(1 if i == j else 0 for j in range(m)) for i in range(m))
        assert db.twist == 1


# ---------------------------------------------------------------------------
# descending codes
# ---------------------------------------------------------------------------

def test_descend_hermitian_q2_j1(gf4_basis):
    cg, ch = build_codes(HermitianBackend(2), 1)
    down = descend_code(cg, gf4_basis)
    assert down.width == 12 and down.rank == 8          # [[6, 2]] binary
    assert contains(down, symplectic_dual(down))
    d_quaternary = relative_min_weight(cg, ch).weight
    d_binary = relative_min_weight(down, symplectic_dual(down)).weight
    assert (d_quaternary, d_binary) == (1, 2)           # frozen by enumeration
    assert d_binary >= d_quaternary


def test_descend_zero_code(gf4_basis):
    zero = CodeBasis.zero(field(2), 4)
    down = descend_code(zero, gf4_basis)
    assert down.rank == 0 and down.width == 8


def test_descend_rejects_non_self_orthogonal(gf4_basis):
    f4 = field(2)
    C = CodeBasis.from_rows(f4, [(1, 0, 0, 0)], 4)      # dual has dimension 3
    with pytest.raises(ValueError, match="does not contain"):
        descend_code(C, gf4_basis)


def test_descend_refuses_a_basis_without_a_twist(monkeypatch):
    # the default basis of GF(16) over GF(2) has no twist: refused before any reduction
    from agstab import linalg

    cg, _ = build_codes(RationalBackend(16), 1)
    C = CodeBasis(cg.field, cg.width, cg.rows, cg.pivots)  # no dual memoised yet
    basis = DescentBasis(field(1), field(4))
    calls = []
    for name in ("rref", "_nullspace_rows", "row_in_span"):
        monkeypatch.setattr(linalg, name, lambda *args, name=name: calls.append(name))
    with pytest.raises(ValueError, match=r"^basis \[1, 2, 4, 8\] has no twist"):
        descend_code(C, basis)
    assert calls == []


def test_descend_rejects_field_mismatch(gf4_basis):
    C = CodeBasis.from_rows(field(3), [(1, 0)], 2)
    with pytest.raises(ValueError, match="over"):
        descend_code(C, gf4_basis)


def test_dimension_multiplicative_across_backends(gf4_basis):
    for j in (0, 1, 2):
        cg, _ = build_codes(HermitianBackend(2), j)
        down = descend_code(cg, gf4_basis)
        assert down.rank == 2 * cg.rank
        assert contains(down, symplectic_dual(down))


def test_descended_dual_is_descent_of_dual(gf4_basis):
    # gamma(C^perp) = gamma(C)^perp when the twist identity holds
    cg, ch = build_codes(HermitianBackend(2), 1)
    down = descend_code(cg, gf4_basis)
    down_dual = symplectic_dual(down)
    ext = field(2)
    spanning = gamma(gf4_basis, [[ext.mul(mult, v) for v in row]
                                 for row in ch.rows.tolist() for mult in gf4_basis.basis])
    image = CodeBasis.from_rows(field(1), spanning, 12)
    assert image == down_dual


def test_distance_monotone_on_gf16_codes():
    # larger-field check through a self-dual basis
    rb = RationalBackend(16)
    cg, ch = build_codes(rb, 1)
    db = DescentBasis(field(2), field(4), self_dual_basis(field(2), field(4)))
    down = descend_code(cg, db)
    assert down.width == 32 and down.rank == 18
    assert contains(down, symplectic_dual(down))


# the descents tier-1 makes: the curve codes the artifact tests build, at GF(2) (the default
# basis where it has a twist, the self-dual fallback where not, no C(H) at j = max_j) and GF(4)
DESCENTS = [("rational", q, j, 1, 1) for q in (4, 8, 16, 32, 64) for j in sorted({0, 1, 2, q // 4, q // 2})] + [
    ("hermitian", 2, j, 1, 1) for j in (0, 1, 2)] + [
    ("hermitian", 4, j, gamma, 1) for gamma in (1, 3) for j in (0, 1, 5, 12, 24)] + [
    ("rational", 16, 1, 1, 2), ("rational", 16, 3, 1, 2), ("hermitian", 4, 5, 1, 2)]


def _eliminated_dual(down):
    """The old descended C(H): the symplectic dual of a fresh basis of the descended C(G)."""
    return symplectic_dual(CodeBasis.from_rows(down.field, down.c_g_rows, down.width)).rows


def test_the_descended_c_h_is_the_eliminated_dual():
    kinds = set()
    for kind, q, j, gamma_, base in DESCENTS:
        down = artifact.descend_artifact(artifact.construct_artifact(kind, q, j, gamma_), base)
        assert np.array_equal(down.c_h_rows, _eliminated_dual(down)), (kind, q, j, gamma_, base)
        m = len(down.descended_from["gram"])
        identity = down.descended_from["gram"] == np.eye(m, dtype=int).tolist()
        kinds.add(("self-dual" if identity else "twisted", base, len(down.c_h_rows) == 0))
    # the default twisted bases and the self-dual fallback (the only basis at GF(16) over GF(4)),
    # with and without a dual
    assert {kind[:2] for kind in kinds} == {("twisted", 1), ("self-dual", 1), ("self-dual", 2)}
    assert {kind[2] for kind in kinds} == {True, False}


def test_mutation_beta_as_alpha_fails_the_differential_and_verify(monkeypatch):
    # beta^-1 replaced by alpha^-1 on the default basis of GF(8), whose Gram matrix is no identity,
    # its twist kept: the written C(H) is wrong
    from agstab import descent

    real, used = descent.DescentBasis, []

    def beta_as_alpha(*args):
        basis = real(*args)
        basis._beta_inv = basis._alpha_inv
        used.append(basis)
        return basis

    descent._shared_basis.cache_clear()
    monkeypatch.setattr(descent, "DescentBasis", beta_as_alpha)
    try:
        down = artifact.descend_artifact(artifact.construct_artifact("rational", 8, 1))
    finally:
        monkeypatch.undo()
        descent._shared_basis.cache_clear()  # the mutant basis is not kept for later descents
    assert [(b.gram, b.twist) for b in used] == [(((1, 0, 0), (0, 0, 1), (0, 1, 0)), 1)]
    assert not np.array_equal(down.c_h_rows, _eliminated_dual(down))
    # verify descends the source again, with the real maps, and finds the stored C(G) not that
    # descent: the stored rows are no code the recipe proves, and are not checked
    checks = {c["name"]: c for c in artifact.verify_artifact(down)["checks"]}
    assert checks["matrices-recompute"] == {
        "name": "matrices-recompute", "status": "fail",
        "detail": "artifact: matrices.c_g is not what the descent to GF(2) of the rational backend at q = 8, "
                  "j = 1 writes"}
    assert checks["dual-equality"]["status"] == "skipped"


def _old_descent(art, down):
    """The descent as it was made from the stored source: ``descend_code`` of its canonical C(G),
    which checks that C(G) holds its symplectic dual, and the descent of that dual, in the basis
    that ``down`` records."""
    basis = DescentBasis(down.field, art.field, down.descended_from["basis"])
    c_g = CodeBasis.from_rows(art.field, art.c_g_rows, art.width)
    return descend_code(c_g, basis).rows, _descend(symplectic_dual(c_g), basis).rows


def _off_the_old_descent(descend):
    """The DESCENTS whose rows, as ``descend`` makes them, are not the old descent's row for row."""
    off = []
    for kind, q, j, gamma_, base in DESCENTS:
        art = artifact.construct_artifact(kind, q, j, gamma_)
        down = descend(art, base)
        g, h = _old_descent(art, down)
        if not (np.array_equal(down.c_g_rows, g) and np.array_equal(down.c_h_rows, h)):
            off.append((kind, q, j, gamma_, base))
    return off


def test_the_descent_of_the_proved_pair_is_the_old_descent():
    # the fresh C(G) and its proved dual C(H), descended with no dual built, give the rows
    # that the stored C(G), its eliminated dual and descend_code's checks gave
    assert _off_the_old_descent(artifact.descend_artifact) == []


def test_descending_c_g_as_the_dual_fails_the_differential(monkeypatch):
    source = textwrap.dedent(inspect.getsource(artifact._descend_pair))
    assert source.count("_descend(c_h, basis)") == 1
    namespace = {}
    exec(compile(source.replace("_descend(c_h, basis)", "_descend(c_g, basis)"), "<mutant>", "exec"),
         vars(artifact), namespace)
    monkeypatch.setattr(artifact, "_descend_pair", namespace["_descend_pair"])
    # C(H) is C(G) at j = 0 alone, so the mutant is caught at every other j
    assert _off_the_old_descent(artifact.descend_artifact) == [d for d in DESCENTS if d[2]]


def test_maps_accept_numpy_integers(gf4_basis):
    # descend_code gathers code rows in the field's dtype (uint8 here, uint16 above q = 256)
    for dtype in (np.uint8, np.uint16, np.int64):
        V = np.array([[3, 0, 0, 2]], dtype=dtype)
        assert _gamma(gf4_basis, V).tolist() == [[1, 1, 0, 0, 0, 0, 1, 0]]


# ---------------------------------------------------------------------------
# differential: the two tables against a per-entry scan of the q^m tuples
# ---------------------------------------------------------------------------

def span_size(view, elements):
    """Size of the GF(q)-span of the elements, by enumerating every combination."""
    span = set()
    for coeffs in product(range(view.sub.q), repeat=len(elements)):
        acc = 0
        for c, a in zip(coeffs, elements):
            acc ^= view.ext.mul(view.embed(c), a)
        span.add(acc)
    return len(span)


def brute_twist(view, basis):
    """The mu with Tr(mu a_i a_j) = (M^-1)[i][j] for all i, j by scanning GF(q^m); None if none."""
    ext = view.ext
    target = invert_matrix(view.sub, [[naive_trace(view, ext.mul(a, b)) for b in basis] for a in basis])
    hits = [mu for mu in range(ext.q)
            if all(naive_trace(view, ext.mul(mu, ext.mul(a, b))) == target[i][j]
                   for i, a in enumerate(basis) for j, b in enumerate(basis))]
    assert len(hits) <= 1
    return hits[0] if hits else None


def random_sets(view, count, seed):
    """``count`` random m-tuples of GF(q^m) elements that span it, and the dependent ones met on the way."""
    rng = np.random.default_rng(seed)
    bases, dependent = [], []
    while len(bases) < count:
        cand = tuple(int(v) for v in rng.integers(0, view.ext.q, view.m))
        (bases if span_size(view, cand) == view.ext.q else dependent).append(cand)
    return bases, dependent


def check_against_oracles(view, sets):
    for cand in sets:
        is_basis = span_size(view, cand) == view.ext.q
        assert view.is_basis(cand) == is_basis, cand
        if is_basis:
            assert DescentBasis(view.sub, view.ext, cand).twist == brute_twist(view, cand), cand


@pytest.mark.parametrize("sd,ed", [(1, 2), (1, 3)])
def test_twist_and_is_basis_on_every_ordered_set(sd, ed):
    view = SubfieldEmbedding(field(sd), field(ed))
    sets = list(product(range(view.ext.q), repeat=view.m))
    check_against_oracles(view, sets)
    assert sum(view.is_basis(c) for c in sets) == {2: 6, 3: 168}[ed]  # ordered bases of GF(4), GF(8)


@pytest.mark.parametrize("sd", [1, 2])
def test_twist_and_is_basis_on_random_gf16_sets(sd):
    view = SubfieldEmbedding(field(sd), field(4))
    bases, dependent = random_sets(view, 20, seed=sd)
    check_against_oracles(view, bases + dependent)
    assert any(DescentBasis(view.sub, view.ext, b).twist is None for b in bases)
    assert any(DescentBasis(view.sub, view.ext, b).twist is not None for b in bases)


def test_each_embedding_is_built_once_and_shared(monkeypatch):
    from agstab import curves, descent, gf

    built = []
    real = SubfieldEmbedding.__init__
    monkeypatch.setattr(SubfieldEmbedding, "__init__",
                        lambda self, sub, ext: built.append((sub.q, ext.q)) or real(self, sub, ext))
    monkeypatch.setattr(gf, "embedding", functools.lru_cache(maxsize=None)(SubfieldEmbedding))
    monkeypatch.setattr(descent, "embedding", gf.embedding)
    monkeypatch.setattr(curves, "embedding", gf.embedding)
    sub, ext = field(1), field(4)
    assert gf.embedding(sub, ext) is gf.embedding(sub, ext)
    # the descent basis, the self-dual basis search and the hermitian backend take the shared one
    assert DescentBasis(sub, ext).view is gf.embedding(sub, ext)
    DescentBasis(sub, ext, self_dual_basis(sub, ext))
    HermitianBackend(4, gamma=3)
    HermitianBackend(4, gamma=2)
    assert built == [(2, 16), (4, 16)]
    # a failed construction is not kept
    for _ in range(2):
        with pytest.raises(ValueError, match="is not an extension of"):
            gf.embedding(field(2), field(3))
    assert built[2:] == [(4, 8), (4, 8)]


def test_is_basis_rejects_wrong_sizes():
    view = SubfieldEmbedding(field(1), field(3))
    assert not view.is_basis((1, 2))
    assert not view.is_basis((1, 2, 4, 3))


@st.composite
def descent_bases(draw):
    """A DescentBasis over one of EXTENSIONS: the default, the self-dual or a random valid basis."""
    sd, ed = draw(st.sampled_from(EXTENSIONS))
    sub, ext = field(sd), field(ed)
    view = SubfieldEmbedding(sub, ext)
    kind = draw(st.sampled_from(("default", "self-dual", "random")))
    if kind == "default":
        return DescentBasis(sub, ext)
    if kind == "self-dual":
        return DescentBasis(sub, ext, self_dual_basis(sub, ext))
    element = st.integers(1, ext.q - 1)
    basis = draw(st.lists(element, min_size=view.m, max_size=view.m)
                 .filter(lambda b: span_size(view, b) == ext.q))
    return DescentBasis(sub, ext, basis)


@settings(max_examples=120)
@given(descent_bases(), st.data())
def test_descend_vector_matches_the_tuple_scan(db, data):
    n = data.draw(st.integers(1, 3))
    vecs = data.draw(st.lists(st.lists(st.integers(0, db.ext.q - 1), min_size=2 * n, max_size=2 * n),
                              min_size=1, max_size=3))
    assert gamma(db, vecs) == [list(naive_descend_vector(db.view, db.basis, v)) for v in vecs]


@settings(max_examples=60)
@given(descent_bases(), st.data())
def test_descend_code_matches_the_tuple_scan(db, data):
    # C = D^perp for a random self-orthogonal D, so C contains its dual
    ext = db.ext
    n = data.draw(st.integers(1, 2))
    width = 2 * n
    isotropic = []
    for v in data.draw(st.lists(st.lists(st.integers(0, ext.q - 1), min_size=width, max_size=width),
                                max_size=n + 1)):
        if all(naive_symplectic_form(ext, v, u) == 0 for u in isotropic):
            isotropic.append(v)
    C = symplectic_dual(CodeBasis.from_rows(ext, isotropic, width))
    if db.twist is None:  # refused before any reduction, whether or not this C would survive
        with pytest.raises(ValueError, match="has no twist"):
            descend_code(C, db)
        return
    spanning = [naive_descend_vector(db.view, db.basis, [ext.mul(a, v) for v in row])
                for row in C.rows.tolist() for a in db.basis]
    expected = CodeBasis.from_rows(db.sub, spanning, db.m * width)
    # the twist identity: the scan's image keeps its rank and contains its dual
    assert expected.rank == db.m * C.rank and contains(expected, symplectic_dual(expected))
    assert descend_code(C, db) == expected

import inspect
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agstab import curves
from agstab.curves import (
    HermitianBackend,
    RationalBackend,
    build_codes,
    certify,
    classical_params,
    evaluation_matrix,
    make_backend,
    monomial_matrix,
    power_basis,
)
from agstab.gf import field
from agstab.symplectic import (
    CodeBasis,
    contains,
    min_hamming_weight,
    relative_min_weight,
    symplectic_dual,
    symplectic_weight,
)
from conftest import naive_monomial_matrix, naive_places, span_vectors

BACKENDS = [RationalBackend(8), RationalBackend(16), HermitianBackend(2), HermitianBackend(4)]


# ---------------------------------------------------------------------------
# places and the involution
# ---------------------------------------------------------------------------

def test_rational_places():
    rb = RationalBackend(8)
    assert rb.enumerate_places().tolist() == [[a] for a in range(8)]
    assert rb.n == 4
    assert sorted(rb.places[:, 0].tolist()) == list(range(8))  # the sigma-orbits partition GF(8)
    assert rb.sigma(np.array([[0], [5]])).tolist() == [[1], [4]]


def test_hermitian_q2_points():
    hb = HermitianBackend(2)
    affine = hb.enumerate_places().tolist()
    assert len(affine) == 8  # q^3
    f = hb.field
    for a, b in affine:  # curve equation holds exactly
        assert f.pow(b, 2) ^ b == f.pow(a, 3)
    assert [p for p in affine if p[0] == 0] == [[0, 0], [0, 1]]
    zeros = hb.places.tolist()  # the zeros of x^(q^2-1) - 1
    assert len(zeros) == 6
    assert {tuple(p) for p in zeros} == {(a, b) for a in (1, 2, 3) for b in (2, 3)}


def test_hermitian_q2_sigma_and_pairs():
    hb = HermitianBackend(2)
    # sigma with gamma = 1: (1, w) -> (1, w^2)
    assert hb.sigma(np.array([1, 2])).tolist() == [1, 3]
    assert hb.n == 3
    assert hb.places.tolist() == [[1, 2], [2, 2], [3, 2], [1, 3], [2, 3], [3, 3]]


def test_hermitian_q4_counts():
    hb = HermitianBackend(4)
    assert hb.enumerate_places().shape == (64, 2)
    assert hb.n == 30       # (q^2 - 1) q / 2 at q = 4
    assert hb.genus == 6
    assert hb.places.shape == (60, 2)


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: f"{b.kind}-q{b.q}")
def test_sigma_involution_and_disjoint_orbits(backend):
    primaries, partners = backend.places[:backend.n], backend.places[backend.n:]
    assert np.array_equal(backend.sigma(primaries), partners)
    assert np.array_equal(backend.sigma(partners), primaries)
    assert not {tuple(p) for p in primaries.tolist()} & {tuple(p) for p in partners.tolist()}
    with pytest.raises(ValueError, match="read-only"):
        backend.places[0, 0] = 0


PLACE_BACKENDS = ([HermitianBackend(q) for q in (2, 4, 8, 16)]
                  + [HermitianBackend(4, gamma=3), HermitianBackend(16, gamma=11)]
                  + [RationalBackend(q) for q in (4, 8, 16, 32, 64, 128, 256, 512)])


@pytest.mark.parametrize("backend", PLACE_BACKENDS, ids=repr)
def test_places_match_the_scalar_enumeration(backend):
    assert backend.places.tolist() == [list(p) for p in naive_places(backend)]


@pytest.mark.parametrize("cls, sigma", [
    (RationalBackend, lambda self, places: places),                           # no shift
    (HermitianBackend, lambda self, places: places),                          # no gamma
    (HermitianBackend, lambda self, places: places ^ np.array([1, 0])),       # moves x off the curve
])
def test_a_wrong_sigma_trips_the_involution_check(monkeypatch, cls, sigma):
    monkeypatch.setattr(cls, "sigma", sigma)
    with pytest.raises(AssertionError, match="sigma is not an involution pairing the place list"):
        cls(4).places    # the places are built, and checked, on first use


# ---------------------------------------------------------------------------
# the divisors G and H, through their degrees and Riemann-Roch spaces
# ---------------------------------------------------------------------------

def test_hermitian_q2_divisor_example():
    hb = HermitianBackend(2)
    assert hb.deg_g(0) == 3 == hb.n + hb.genus - 1
    assert hb.rr_basis(0, "g") == hb.rr_basis(0, "h")  # G = H at j = 0


def test_rational_divisor_example():
    rb = RationalBackend(8)
    assert rb.deg_g(0) == 3 == rb.n - 1


def test_hermitian_q4_divisor_degrees():
    hb = HermitianBackend(4)
    assert hb.deg_g(0) == 35
    assert hb.deg_g(5) == 40
    # deg H = 30: both spaces are non-special, so their sizes differ by deg G - deg H
    assert len(hb.rr_basis(5, "g")) - len(hb.rr_basis(5, "h")) == 10


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: f"{b.kind}-q{b.q}")
def test_divisor_invariants(backend):
    assert backend.deg_g(0) == backend.n + backend.genus - 1
    for j in (0, 1, backend.max_j):
        assert backend.deg_g(j) == backend.deg_g(0) + j
        g_basis, h_basis = backend.rr_basis(j, "g"), backend.rr_basis(j, "h")
        assert len(g_basis) - len(h_basis) == 2 * j
        assert g_basis[:len(h_basis)] == h_basis  # L(H) in L(G), in pole order
    for j in (-1, backend.max_j + 1):
        with pytest.raises(ValueError):
            backend.rr_basis(j, "g")
        with pytest.raises(ValueError):
            backend.rr_basis(j, "h")


# ---------------------------------------------------------------------------
# Riemann-Roch bases and evaluation
# ---------------------------------------------------------------------------

def test_hermitian_q2_basis_shapes():
    hb = HermitianBackend(2)
    assert hb.rr_basis(0) == [(-1, 0), (0, 0), (-1, 1)]  # 1/x, 1, z/x
    assert hb.rr_basis(1) == [(-1, 0), (0, 0), (-1, 1), (1, 0)]


def test_rational_q8_basis():
    rb = RationalBackend(8)
    assert rb.rr_basis(1) == [(0,), (1,), (2,), (3,), (4,)]


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: f"{b.kind}-q{b.q}")
def test_basis_size_is_riemann_roch(backend):
    for j in range(backend.max_j + 1):
        deg = backend.deg_g(j)
        if deg >= 2 * backend.genus - 1:
            assert len(backend.rr_basis(j, "g")) == deg + 1 - backend.genus


def test_evaluation_examples():
    hb = HermitianBackend(2)
    inv_x, one, z_over_x = hb.rr_basis(0)
    for evaluator in (monomial_matrix, naive_monomial_matrix):
        assert np.asarray(evaluator(hb.field, [z_over_x], [(1, 2)])).tolist() == [[2]]  # w / 1
        assert np.asarray(evaluator(hb.field, [one], [(3, 2)])).tolist() == [[1]]
        assert np.asarray(evaluator(hb.field, [inv_x], [(2, 2)])).tolist() == [[3]]     # 1 / w = w^2
        with pytest.raises(ValueError):
            evaluator(hb.field, [inv_x], [(0, 0)])                   # pole of 1/x


EVALUATION_BACKENDS = [RationalBackend(4), RationalBackend(8), RationalBackend(16),
                       HermitianBackend(2), HermitianBackend(4)]


@pytest.mark.parametrize("backend", EVALUATION_BACKENDS, ids=lambda b: f"{b.kind}-q{b.q}")
def test_evaluation_matrix_matches_naive(backend):
    points = backend.places
    for j in range(backend.max_j + 1):
        for which in ("g", "h"):
            basis = backend.rr_basis(j, which)
            M = evaluation_matrix(backend, j, which)
            assert M.dtype == backend.field.log_antilog[1].dtype
            assert M.tolist() == naive_monomial_matrix(backend.field, basis, points)
    if backend.kind == "rational":
        assert evaluation_matrix(backend, backend.max_j, "h").shape == (0, 2 * backend.n)  # L(H) = L(-P_inf) = 0
    else:
        # negative control: the basis has poles at the places above x = 0
        places = backend.enumerate_places()
        with pytest.raises(ValueError):
            monomial_matrix(backend.field, backend.rr_basis(0), places)
        with pytest.raises(ValueError):
            naive_monomial_matrix(backend.field, backend.rr_basis(0), places)


def test_monomial_matrix_zero_coordinates_and_large_fields():
    # zero coordinates (both at (0, 0)) under zeroth and positive powers
    hb = HermitianBackend(4)
    exps = [(i, l) for i in range(3) for l in range(3)]
    places = hb.enumerate_places()
    assert monomial_matrix(hb.field, exps, places).tolist() == naive_monomial_matrix(hb.field, exps, places)
    # GF(2^16): products of exponent and log exceed 32 bits before the reduction
    f = field(16)
    exps = [(65534, -65534), (-1, 40000), (0, 0), (65535 * 3 + 7, -65535 * 2 - 1)]
    places = [(a, b) for a in (1, 2, 40000, 65535) for b in (1, 3, 65534)]
    assert monomial_matrix(f, exps, places).tolist() == naive_monomial_matrix(f, exps, places)


def test_monomial_matrix_in_row_blocks(monkeypatch):
    # blocks of one row, of a few rows, and a last block shorter than the rest
    from agstab import curves

    hb = HermitianBackend(4)
    places = hb.places
    for block in (1, 100, 7 * len(places) + 5):
        monkeypatch.setattr(curves, "_BLOCK", block)
        for j in (0, 3, hb.max_j):
            basis = hb.rr_basis(j, "g")
            assert monomial_matrix(hb.field, basis, places).tolist() == naive_monomial_matrix(hb.field, basis, places)


def test_monomial_matrix_peak_memory():
    # the index is formed in uint32 row blocks: the traced peak of hermitian q=8 j=1
    # (253 x 504) was 21 bytes per entry with int64 whole-matrix terms
    import tracemalloc

    hb = HermitianBackend(8)
    basis, places = hb.rr_basis(1, "g"), hb.places
    monomial_matrix(hb.field, basis[:1], places)    # the field's tables, built once
    tracemalloc.start()
    try:
        M = monomial_matrix(hb.field, basis, places)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert M.shape == (253, 504)
    assert peak / M.size < 10


def test_evaluation_matrix_is_read_only():
    M = evaluation_matrix(RationalBackend(8), 1, "g")
    with pytest.raises(ValueError, match="read-only"):
        M[0, 0] = 0


# ---------------------------------------------------------------------------
# codes
# ---------------------------------------------------------------------------

def test_hermitian_q2_j0_known_rows():
    hb = HermitianBackend(2)
    rows = evaluation_matrix(hb, 0, "g").tolist()
    assert [1, 1, 1, 1, 1, 1] in rows                   # f = 1
    assert [1, 3, 2, 1, 3, 2] in rows                   # f = 1/x
    cg, ch = build_codes(hb, 0)
    assert cg == ch                                     # G = H at j = 0


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: f"{b.kind}-q{b.q}")
def test_dual_identity_and_dimensions(backend):
    for j in range(backend.max_j + 1):
        cg, ch = build_codes(backend, j)
        assert cg.rank == backend.n + j
        assert ch.rank == backend.n - j
        assert symplectic_dual(cg) == ch
        assert contains(cg, ch)


@pytest.mark.parametrize("backend", BACKENDS + [RationalBackend(512), HermitianBackend(8)],
                         ids=lambda b: f"{b.kind}-q{b.q}")
def test_l_h_rows_are_the_first_rows_of_l_g(backend):
    # the invariant construct and verify rest on, which certify proves: C(H) <= C(G) by prefix
    n = backend.n
    for j in sorted({0, 1, backend.max_j // 2, backend.max_j}):
        g, h = (evaluation_matrix(backend, j, which) for which in "gh")
        assert g.shape == (n + j, 2 * n) and h.shape == (n - j, 2 * n)
        assert np.array_equal(h, g[:n - j])


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: f"{b.kind}-q{b.q}")
def test_build_codes_without_a_shared_prefix(backend):
    # each code is the rref of its own evaluation, whatever prefix the two share
    j = min(1, backend.max_j)
    g, h = (evaluation_matrix(backend, j, which) for which in "gh")
    assert build_codes(backend, j) == tuple(CodeBasis.from_rows(backend.field, rows, 2 * backend.n)
                                            for rows in (g, h))


def test_rational_q8_j1_dims():
    cg, ch = build_codes(RationalBackend(8), 1)
    assert cg.rank == 5 and ch.rank == 3


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: f"{b.kind}-q{b.q}")
def test_shift_symmetry_of_codes(backend):
    for j in (0, 1, backend.max_j):
        cg, _ = build_codes(backend, j)
        assert contains(cg, CodeBasis.from_rows(cg.field, np.roll(cg.rows, cg.width // 2, axis=1), cg.width))


def test_distance_bound_exhaustive_small():
    # every nonzero codeword weighs at least n - floor(deg G / 2)
    for backend, js in ((HermitianBackend(2), (0, 1, 2)), (RationalBackend(8), (0, 1))):
        for j in js:
            cg, _ = build_codes(backend, j)
            bound = backend.distance_bound(j)
            words = span_vectors(backend.field, cg.rows.tolist(), cg.width)
            for w in words:
                if any(w):
                    assert symplectic_weight(w) >= bound


def test_known_exact_distances():
    # frozen from exhaustive enumeration
    cases = [
        (HermitianBackend(2), 1, 1),
        (HermitianBackend(2), 2, 1),
        (RationalBackend(8), 1, 2),
        (RationalBackend(8), 2, 2),
    ]
    for backend, j, expected in cases:
        cg, ch = build_codes(backend, j)
        res = relative_min_weight(cg, ch)
        assert res.weight == expected
        assert expected >= backend.distance_bound(j)


def test_representative_choice_is_immaterial():
    # exchanging P_i with sigma P_i leaves duality and parameters intact
    hb = HermitianBackend(2)
    order = hb.places.copy()
    n = hb.n
    for flip in range(n):
        order[[flip, n + flip]] = order[[n + flip, flip]]
        g_rows = monomial_matrix(hb.field, hb.rr_basis(1, "g"), order)
        h_rows = monomial_matrix(hb.field, hb.rr_basis(1, "h"), order)
        cg = CodeBasis.from_rows(hb.field, g_rows, 2 * n)
        ch = CodeBasis.from_rows(hb.field, h_rows, 2 * n)
        assert symplectic_dual(cg) == ch
        assert cg.rank - n == 1


def test_gamma_variants_hermitian_q4():
    for gamma in (1, 2, 3):
        hb = HermitianBackend(4, gamma=gamma)
        for j in (0, 3):
            cg, ch = build_codes(hb, j)
            assert symplectic_dual(cg) == ch


def test_backend_validation():
    with pytest.raises(ValueError):
        RationalBackend(6)
    with pytest.raises(ValueError):
        RationalBackend(2)      # needs q >= 4
    with pytest.raises(ValueError):
        HermitianBackend(3)
    with pytest.raises(ValueError):
        HermitianBackend(2, gamma=0)
    with pytest.raises(ValueError):
        HermitianBackend(2, gamma=2)   # gamma lives in GF(q)* = GF(2)*
    with pytest.raises(ValueError):
        make_backend("rational", 8, gamma=3)
    with pytest.raises(ValueError):
        make_backend("elliptic", 8)
    # the bound on n: rational q = 8192 (n = 4096) is the largest rational code, hermitian q = 16 the
    # largest hermitian one (n = 2040; q = 32 has n = 16368)
    assert RationalBackend(8192).n == curves.MAX_PLACE_PAIRS == 4096 and HermitianBackend(16).n == 2040
    with pytest.raises(ValueError, match="^rational q=16384 has n = 8192 place pairs"):
        RationalBackend(16384)
    with pytest.raises(ValueError, match="^hermitian q=32 has n = 16368 place pairs"):
        HermitianBackend(32)


# ---------------------------------------------------------------------------
# classical view
# ---------------------------------------------------------------------------

def test_classical_hermitian_q2():
    hb = HermitianBackend(2)
    cp = classical_params(hb, 0)
    assert cp.length == 6 and cp.dim == 3
    assert cp.d_hamming_lower == 3      # length/2 - g + 1 - j
    assert cp.euclidean_dual_contained
    cg, _ = build_codes(hb, 0)
    assert min_hamming_weight(cg) >= cp.d_hamming_lower


def test_classical_hermitian_q4():
    hb = HermitianBackend(4)
    for j, dim, bound in ((0, 30, 25), (5, 35, 20)):
        cp = classical_params(hb, j)
        assert cp.length == 60
        assert cp.dim == dim == cp.length // 2 + j
        assert cp.d_hamming_lower == bound
        assert cp.euclidean_dual_contained


def test_classical_rational():
    cp = classical_params(RationalBackend(8), 1)
    assert cp.dim == 5 and cp.d_hamming_lower == 4
    assert cp.euclidean_dual_contained


@pytest.mark.parametrize("backend", [RationalBackend(8), HermitianBackend(2), HermitianBackend(4)], ids=repr)
def test_classical_params_takes_the_reduced_basis(backend):
    for j in range(backend.max_j + 1):
        cg, _ = build_codes(backend, j)
        assert classical_params(backend, j, cg) == classical_params(backend, j)
    # a basis whose Euclidean dual {x : x_0 = 0} it does not contain
    width = 2 * backend.n
    cp = classical_params(backend, 0, CodeBasis.from_rows(backend.field, [[1] + [0] * (width - 1)], width))
    assert cp.dim == 1 and not cp.euclidean_dual_contained


# ---------------------------------------------------------------------------
# the certificate: the moment-table Gram and the degree argument
# ---------------------------------------------------------------------------

def _table(backend, j, which):
    return np.array(backend.rr_basis(j, which), dtype=np.int64).reshape(-1, backend.places.shape[1])


def _direct_gram(backend, left, right):
    """C(left) . swap(C(right))^T over the field, from the evaluations at the point order."""
    log, antilog = backend.field.log_antilog
    A, B = (monomial_matrix(backend.field, table, backend.places) for table in (left, right))
    B = np.roll(B, backend.n, axis=1)
    out = np.zeros((len(A), len(B)), dtype=antilog.dtype)
    for a, b in zip(A.T, B.T):
        out ^= antilog.take(log.take(a)[:, None] + log.take(b)[None, :])
    return out


def _gram_pairs(backend, j, seed):
    """(moment Gram, direct product) for G against H, G against G, and two random tables
    whose x exponents span several periods of the field (the z exponents of a hermitian
    table stay in [0, q))."""
    G, H = _table(backend, j, "g"), _table(backend, j, "h")
    rng = np.random.default_rng(seed)
    period = backend.field.q - 1
    if backend.kind == "rational":
        wide = [rng.integers(0, 3 * period, (5, 1)) for _ in range(2)]
    else:
        wide = [np.column_stack([rng.integers(-3 * period, 3 * period, 5), rng.integers(0, backend.q, 5)])
                for _ in range(2)]
    return [(backend.gram(left, right), _direct_gram(backend, left, right))
            for left, right in ((G, H), (G, G), tuple(wide))]


@settings(max_examples=30)
@given(st.data())
def test_moment_gram_matches_the_direct_product(data):
    kind = data.draw(st.sampled_from(["rational", "hermitian"]))
    q = data.draw(st.sampled_from([4, 8, 16, 32, 64] if kind == "rational" else [2, 4]))
    backend = make_backend(kind, q, data.draw(st.integers(1, q - 1)) if kind == "hermitian" else 1)
    j = data.draw(st.integers(0, backend.max_j))
    (g_h, g_h_direct), (g_g, g_g_direct), (wide, wide_direct) = _gram_pairs(backend, j, data.draw(st.integers(0, 99)))
    assert np.array_equal(g_h, g_h_direct) and not g_h.any()       # C(H) is orthogonal to C(G)
    assert np.array_equal(g_g, g_g_direct) and g_g.any() == (j > 0)  # the control: C(G) is not
    assert np.array_equal(wide, wide_direct)


def _mutant(cls, name, *edits):
    """``cls.name`` recompiled from its source with each (old, new) edit applied."""
    source = textwrap.dedent(inspect.getsource(getattr(cls, name)))
    for old, new in edits:
        assert old in source, old
        source = source.replace(old, new)
    namespace = {}
    exec(compile(source, f"<mutant of {cls.__name__}.{name}>", "exec"), vars(curves), namespace)
    return namespace[name]


MUTANTS = {
    "hermitian-drop-a-lucas-term": (HermitianBackend, ("for t in _submasks(m):", "for t in _submasks(m)[1:]:")),
    "hermitian-drop-the-gamma-power": (HermitianBackend, (" + gamma_log * (m - t) % period)", ")")),
    "hermitian-no-reduction-mod-q2-1": (HermitianBackend, ("left[:, 0] % period", "left[:, 0]"),
                                        ("right[:, 0] % period", "right[:, 0]")),
    "rational-every-t-below-c": (RationalBackend, ("(t & ~c == 0)", "(t <= c)")),
    "none-hermitian": (HermitianBackend,),  # the controls: recompiled unchanged, nothing to catch
    "none-rational": (RationalBackend,),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_the_gram_differential_catches_each_mutant(monkeypatch, mutant):
    cls, *edits = MUTANTS[mutant]
    monkeypatch.setattr(cls, "gram", _mutant(cls, "gram", *edits))
    caught = False
    for backend in (RationalBackend(8), HermitianBackend(2), HermitianBackend(4, gamma=3)):
        for j in (1, backend.max_j):
            try:
                pairs = _gram_pairs(backend, j, seed=j)
            except IndexError:  # a gather past the end of its table
                caught = True
                continue
            caught = caught or not all(np.array_equal(got, want) for got, want in pairs)
    assert caught == bool(edits)


ORACLE_BACKENDS = ([RationalBackend(q) for q in (4, 8, 16, 32, 64)]
                   + [HermitianBackend(2), HermitianBackend(4), HermitianBackend(4, gamma=3)])


@pytest.mark.parametrize("backend", ORACLE_BACKENDS, ids=repr)
def test_certificate_matches_the_elimination_oracle(backend):
    n, width = backend.n, 2 * backend.n
    for j in range(backend.max_j + 1):
        assert certify(backend, j) is None  # it proves, and returns once each proof holds
        rows = evaluation_matrix(backend, j, "g")
        c_g, c_h = build_codes(backend, j)
        # the fresh evaluation is of full rank, and its prefix is C(H)
        assert rows.shape == (n + j, width) and not rows.flags.writeable
        assert CodeBasis.from_rows(backend.field, rows, width) == c_g and c_g.rank == n + j
        assert CodeBasis.from_rows(backend.field, rows[:n - j], width) == c_h and c_h.rank == n - j
        # what certify proved holds by elimination, as verify reports it for every curve artifact
        assert symplectic_dual(c_g) == c_h and contains(c_g, c_h)
        assert classical_params(backend, j) == curves.ClassicalParams(
            length=width, dim=n + j, d_hamming_lower=backend.hamming_bound(j), euclidean_dual_contained=True)


def test_certificate_refuses_a_failed_degree_argument(monkeypatch):
    backend = RationalBackend(8)
    real = backend._monomials
    # a repeated pole order: the monomials are not independent
    monkeypatch.setattr(backend, "_monomials", lambda cap: real(cap) + real(cap)[-1:])
    with pytest.raises(AssertionError, match="the degree argument fails"):
        certify(backend, 1)
    # j = n + 1 gives deg G = 2n: a function of L(G) may vanish at every paired place
    monkeypatch.setattr(backend, "_monomials", real)
    monkeypatch.setattr(RationalBackend, "max_j", property(lambda self: self.n + 1))
    with pytest.raises(AssertionError, match="the degree argument fails"):
        certify(backend, backend.n + 1)


# ---------------------------------------------------------------------------
# canonical bases of the power rows in closed form
# ---------------------------------------------------------------------------

def _rational_power_bases(qs):
    """(field, points, rank, the rref of C(H)) of rational q at every j: C(H) is the rows x^i,
    i < n - j, at the places."""
    for q in qs:
        backend = RationalBackend(q)
        for j in range(backend.max_j + 1):
            V = evaluation_matrix(backend, j, "h")
            yield backend.field, backend.places[:, 0], len(V), CodeBasis.from_rows(backend.field, V, q)


def _power_basis_faults(f, points, V, build):
    """The ranks r at which ``build(f, points, r)`` fails to be shown rref(V[:r]), V the rows
    x^i at the distinct points, by induction on r.

    B_r must be the identity on its first r columns (so it has rank r and
    those pivots), B_{r-1} must be B_r[:r-1] + B_{r-1}[:, r-1] (x) B_r[r-1],
    and V[r-1] must reduce to zero against B_r: on those pivots that is
    V[r-1] = V[r-1, :r] B_r, all in field products.  The identity puts every
    row of B_{r-1}, and so (inductively) V[:r-1], in the span of B_r, and
    the reduction puts V[r-1] there: B_r spans V[:r], which has rank r, and
    the rref of a space is unique.
    """
    log, antilog = f.log_antilog
    prev, faults = build(f, points, 0), []
    if prev.rows.shape != (0, len(points)) or prev.pivots:
        faults.append(0)
    for r in range(1, len(V) + 1):
        got = build(f, points, r)
        rows = got.rows
        ok = rows.shape == (r, len(points)) and got.pivots == tuple(range(r)) and np.array_equal(rows[:, :r], np.eye(r))
        if ok:
            step = antilog[log[prev.rows[:, r - 1]][:, None] + log[rows[r - 1]]]  # the outer field product
            span = np.bitwise_xor.reduce(antilog[log[V[r - 1, :r]][:, None] + log[rows]], axis=0)
            ok = np.array_equal(prev.rows, rows[:r - 1] ^ step) and np.array_equal(V[r - 1], span)
        if not ok:
            faults.append(r)
        prev = got
    return faults


def test_power_basis_is_the_rref_of_every_rational_c_h():
    for f, points, rank, want in _rational_power_bases([4, 8, 16, 32, 64, 128, 256]):
        got = power_basis(f, points, rank)
        assert got == want and got.pivots == tuple(range(rank)) and not got.rows.flags.writeable
    # q = 512: rref at four j, and at every rank by induction
    backend = RationalBackend(512)
    f, points, V = backend.field, backend.places[:, 0], evaluation_matrix(backend, 0, "h")
    for j in (0, 1, backend.max_j // 2, backend.max_j):
        assert power_basis(f, points, backend.n - j) == CodeBasis.from_rows(f, V[:backend.n - j], 512)
    assert len(set(points.tolist())) == len(points) == 512
    assert _power_basis_faults(f, points, V, power_basis) == []


@pytest.mark.parametrize("row", ["inner", "last", "none"])
def test_the_power_basis_induction_catches_one_changed_entry(row):
    # one entry of B_20 changed, off the identity: B_20 fails against B_19, and B_21 against it
    backend = RationalBackend(64)
    f, points, V = backend.field, backend.places[:, 0], evaluation_matrix(backend, 0, "h")

    def build(f, points, rank):
        basis = power_basis(f, points, rank)
        if rank != 20 or row == "none":
            return basis
        rows = basis.rows.copy()
        rows[3 if row == "inner" else 19, 40] ^= 1
        return CodeBasis(f, basis.width, rows, basis.pivots)

    assert _power_basis_faults(f, points, V, build) == ([] if row == "none" else [20, 21])


@pytest.mark.parametrize("degree", [1, 2, 3, 5, 8, 10])
def test_power_basis_at_random_distinct_points(degree):
    f = field(degree)
    rng = np.random.default_rng(degree)
    for _ in range(12):
        points = rng.choice(f.q, int(rng.integers(1, min(f.q, 200) + 1)), replace=False)
        rank = int(rng.integers(0, len(points) + 1))
        V = monomial_matrix(f, [(i,) for i in range(rank)], points[:, None])
        assert power_basis(f, points, rank) == CodeBasis.from_rows(f, V, len(points))


@pytest.mark.parametrize("case", ["gf8", "rational-q16-j0", "rational-q16-j1"])
def test_power_basis_refuses_repeated_points(case):
    # the closed form puts the pivots on the first rank columns, which at repeated points need not
    # be the rref's: over GF(8) at (1, 1, 2, 3) the rows 1, x have their pivots at columns 0 and 2
    if case == "gf8":
        f, points, rank = field(3), [1, 1, 2, 3], 2
        V = monomial_matrix(f, [(0,), (1,)], np.array(points)[:, None])
        assert CodeBasis.from_rows(f, V, 4).pivots == (0, 2)
    else:  # the places of rational q=16 with the first one's point repeated
        backend = RationalBackend(16)
        f, points, rank = backend.field, backend.places[:, 0].tolist(), backend.n - int(case[-1])
        points[0] = points[1]
    with pytest.raises(ValueError, match="^the points are not distinct$"):
        power_basis(f, points, rank)


CLOSED_FORM_MUTANTS = {
    # w_0 off by a factor g: row 0 is scaled off the pivots
    "wrong-w0": ("L -= s[:rank, None]", "L -= s[:rank, None] + (np.arange(rank)[:, None] == 0)"),
    # the same row space, with its pivots (the interpolation points) in the sigma-partner half
    "partner-pivots": ("P[:rank, None]", "P[len(P) // 2:][:rank, None]"),
}


@pytest.mark.parametrize("mutant", [*sorted(CLOSED_FORM_MUTANTS), "none"])
def test_the_closed_form_differential_catches_each_mutant(mutant):
    edits = []
    if mutant == "partner-pivots":
        edits = [CLOSED_FORM_MUTANTS[mutant], ("s[:rank, None]", "s[len(P) // 2:][:rank, None]"),
                 ("R[:, :rank]", "R[:, len(P) // 2:][:, :rank]"),
                 ("tuple(range(rank))", "tuple(range(len(P) // 2, len(P) // 2 + rank))")]
    elif mutant != "none":
        edits = [CLOSED_FORM_MUTANTS[mutant]]
    build = _mutant(curves, "_power_basis", *edits)
    cases = list(_rational_power_bases([4, 8, 16, 32]))
    caught = [rank for f, points, rank, want in cases if build(f, tuple(points.tolist()), rank) != want]
    # every nonzero rank is caught (the mutants leave the zero basis alone); the control catches none
    assert caught == ([] if mutant == "none" else [rank for _, _, rank, _ in cases if rank])

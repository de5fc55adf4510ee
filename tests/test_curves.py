import numpy as np
import pytest

from agstab.curves import (
    HermitianBackend,
    RationalBackend,
    build_codes,
    classical_params,
    evaluation_matrix,
    make_backend,
    monomial_matrix,
)
from agstab.gf import field
from agstab.symplectic import (
    CodeBasis,
    contains,
    min_hamming_weight,
    relative_min_weight,
    swap_halves,
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
    # the invariant build_codes and verify rest on: C(G) is C(H) extended by the last 2j rows
    n = backend.n
    for j in sorted({0, 1, backend.max_j // 2, backend.max_j}):
        g, h = (evaluation_matrix(backend, j, which) for which in "gh")
        assert g.shape == (n + j, 2 * n) and h.shape == (n - j, 2 * n)
        assert np.array_equal(h, g[:n - j])


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: f"{b.kind}-q{b.q}")
def test_build_codes_without_a_shared_prefix(backend):
    # rows that do not start with the L(H) rows reduce from the zero basis, to the same codes
    j = min(1, backend.max_j)
    g, h = (evaluation_matrix(backend, j, which) for which in "gh")
    assert build_codes(backend, j, g[::-1], h) == build_codes(backend, j)
    assert build_codes(backend, j)[0] == CodeBasis.from_rows(backend.field, g, 2 * backend.n)


def test_rational_q8_j1_dims():
    cg, ch = build_codes(RationalBackend(8), 1)
    assert cg.rank == 5 and ch.rank == 3


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: f"{b.kind}-q{b.q}")
def test_shift_symmetry_of_codes(backend):
    for j in (0, 1, backend.max_j):
        cg, _ = build_codes(backend, j)
        assert contains(cg, CodeBasis.from_rows(cg.field, [swap_halves(row) for row in cg.rows], cg.width))


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

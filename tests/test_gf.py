import numpy as np
import pytest

from agstab.gf import (
    GF2m,
    SubfieldEmbedding,
    as_elements,
    field,
    is_irreducible_gf2,
)
from conftest import naive_trace


# ---------------------------------------------------------------------------
# moduli and construction
# ---------------------------------------------------------------------------

def test_documented_moduli():
    # the published table: indices must be reproducible across runs
    assert field(2).modulus == 0b111            # x^2+x+1
    assert field(3).modulus == 0b1011           # x^3+x+1
    assert field(4).modulus == 0b10011          # x^4+x+1
    assert field(6).modulus == 0b1000011        # x^6+x+1
    assert field(8).modulus == 0b100011101      # x^8+x^4+x^3+x^2+1


def test_reducible_modulus_rejected():
    # x^4 + x^2 + 1 = (x^2 + x + 1)^2
    with pytest.raises(ValueError):
        GF2m(4, modulus=0b10101)
    with pytest.raises(ValueError):
        GF2m(0)
    with pytest.raises(ValueError):
        GF2m(17)


def test_irreducibility_checker():
    assert is_irreducible_gf2(0b111, 2)
    assert not is_irreducible_gf2(0b110, 2)     # x^2 + x = x(x+1)
    assert not is_irreducible_gf2(0b111, 3)     # wrong degree


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def test_gf4_examples():
    f = field(2)
    omega, omega2 = 2, 3
    assert omega ^ omega2 == 1                  # w + w^2 = 1 (w^2 = w + 1)
    assert f.mul(omega, omega2) == 1            # w^3 = 1
    assert omega ^ 1 == omega2


def test_inverses_exhaustive():
    for r in (2, 3, 4, 6, 8):
        f = field(r)
        for a in range(1, f.q):
            assert f.mul(a, f.inv(a)) == 1
        with pytest.raises(ValueError):
            f.inv(0)
        with pytest.raises(ValueError):
            f.div(1, 0)


def test_multiplicative_group_order():
    for r in (2, 3, 4, 6, 8, 12, 16):
        f = field(r)
        rng = np.random.default_rng(11)
        sample = range(1, f.q) if f.q <= 256 else rng.integers(1, f.q, 200)
        for a in sample:
            assert f.pow(int(a), f.q - 1) == 1


def test_frobenius_additivity():
    rng = np.random.default_rng(5)
    for r in (2, 3, 4, 8, 16):
        f = field(r)
        for _ in range(100):
            a, b = map(int, rng.integers(0, f.q, 2))
            assert f.mul(a ^ b, a ^ b) == f.mul(a, a) ^ f.mul(b, b)


def test_distributivity_small():
    f = field(2)
    for a in range(f.q):
        for b in range(f.q):
            for c in range(f.q):
                assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)


def test_field_identity():
    assert field(3) == GF2m(3)
    assert field(3) != field(4)
    assert GF2m(3) != GF2m(3, modulus=0b1101)   # x^3 + x^2 + 1, also irreducible


def test_mul_table_matches_scalar():
    f = field(3)
    t = f.mul_table
    for a in range(f.q):
        for b in range(f.q):
            assert int(t[a, b]) == f.mul(a, b)
    with pytest.raises(ValueError):
        field(16).mul_table


@pytest.mark.parametrize("degree", [1, 2, 4, 8, 9, 16])
def test_log_antilog_matches_scalar(degree):
    f = GF2m(degree)
    assert f._log_antilog is None  # built on first use, not with the field
    log, antilog = f.log_antilog
    assert antilog.dtype == (np.uint8 if f.q <= 256 else np.uint16)
    rng = np.random.default_rng(degree)
    a = rng.integers(0, f.q, 400)
    b = rng.integers(0, f.q, 400)
    a[:10] = 0
    b[5:15] = 0
    shift = rng.integers(0, f.q - 1, 400)
    got = antilog[log[a] + log[b] + shift]
    for x, y, s, v in zip(a.tolist(), b.tolist(), shift.tolist(), got.tolist()):
        assert v == f.mul(f.mul(x, y), f.pow(f.generator, s))


# ---------------------------------------------------------------------------
# subfield embedding, trace, Gram matrices
# ---------------------------------------------------------------------------

EXTENSIONS = [(1, 2), (1, 3), (1, 4), (2, 4), (1, 8), (2, 8), (4, 8)]


def test_trace_gf4_examples():
    emb = SubfieldEmbedding(field(1), field(2))
    assert emb.trace_table[0] == 0
    assert emb.trace_table[2] == 1    # Tr(w) = w + w^2 = 1
    assert emb.trace_table[1] == 0    # 1 + 1


@pytest.mark.parametrize("sd,ed", EXTENSIONS)
def test_trace_table_is_the_sum_of_conjugates(sd, ed):
    emb = SubfieldEmbedding(field(sd), field(ed))
    assert emb.trace_table.tolist() == [naive_trace(emb, y) for y in range(emb.ext.q)]
    assert not emb.trace_table.flags.writeable


@pytest.mark.parametrize("bad", [-1, 4, 2 ** 70])
def test_embed_rejects_values_outside_the_field(bad):
    emb = SubfieldEmbedding(field(1), field(2))
    with pytest.raises(ValueError, match=rf"^{bad} is not an element of GF\(2\^1\)"):
        emb.embed(bad)


def test_as_elements_takes_object_arrays():
    f = field(2)
    got = as_elements(f, np.array([1, 2], dtype=object))
    assert got.tolist() == [1, 2] and got.dtype == np.intp
    for bad, name in ((7, "7"), (True, "True"), (2 ** 70, str(2 ** 70)), (None, "None")):
        with pytest.raises(ValueError, match=rf"^{name} is not an element of GF\(2\^2\)"):
            as_elements(f, np.array([1, bad], dtype=object))


def test_incompatible_extension_rejected():
    with pytest.raises(ValueError):
        SubfieldEmbedding(field(2), field(3))   # GF(8) is not a power of GF(4)


@pytest.mark.parametrize("sd,ed", EXTENSIONS)
def test_embedding_is_ring_homomorphism(sd, ed):
    sub, ext = field(sd), field(ed)
    emb = SubfieldEmbedding(sub, ext)
    for a in range(sub.q):
        for b in range(sub.q):
            assert emb.embed(a ^ b) == emb.embed(a) ^ emb.embed(b)
            assert emb.embed(sub.mul(a, b)) == ext.mul(emb.embed(a), emb.embed(b))
    assert emb.embed(0) == 0 and emb.embed(1) == 1
    assert len({emb.embed(a) for a in range(sub.q)}) == sub.q  # injective


@pytest.mark.parametrize("sd,ed", EXTENSIONS)
def test_trace_linear_and_surjective(sd, ed):
    sub, ext = field(sd), field(ed)
    emb = SubfieldEmbedding(sub, ext)
    trace = emb.trace_table
    assert set(trace.tolist()) == set(range(sub.q))
    rng = np.random.default_rng(3)
    for _ in range(60):
        y1, y2 = map(int, rng.integers(0, ext.q, 2))
        c = int(rng.integers(0, sub.q))
        assert trace[y1 ^ y2] == trace[y1] ^ trace[y2]
        assert trace[ext.mul(emb.embed(c), y1)] == sub.mul(c, int(trace[y1]))


def test_gram_matrix_examples():
    emb = SubfieldEmbedding(field(1), field(2))
    assert emb.gram_matrix([1, 2]) == ((0, 1), (1, 1))
    assert emb.gram_matrix([1, 3]) == ((0, 1), (1, 1))


def test_gram_matrix_symmetric_and_invertible():
    from agstab.linalg import invert_matrix

    rng = np.random.default_rng(9)
    for sd, ed in EXTENSIONS:
        sub, ext = field(sd), field(ed)
        emb = SubfieldEmbedding(sub, ext)
        m = emb.m
        tried = 0
        while tried < 5:
            cand = [int(v) for v in rng.integers(0, ext.q, m)]
            if not emb.is_basis(cand):
                continue
            tried += 1
            M = emb.gram_matrix(cand)
            assert M == tuple(tuple(row) for row in zip(*M))  # symmetric
            invert_matrix(sub, M)  # nondegenerate; raises on failure


def test_gram_matrix_rejects_dependent_set():
    emb = SubfieldEmbedding(field(1), field(2))
    with pytest.raises(ValueError):
        emb.gram_matrix([1, 1])
    with pytest.raises(ValueError):
        emb.gram_matrix([1])

import inspect
import types
from functools import reduce
from operator import xor

import numpy as np
import pytest

from agstab import gf
from agstab.gf import (
    GF2m,
    SubfieldEmbedding,
    as_elements,
    field,
    is_irreducible_gf2,
)
from conftest import clmul, naive_powers, naive_trace


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


# x^4+x^3+x^2+x+1, x^6+x^3+1 and x^8+x^4+x^3+x+1 (the AES modulus): irreducible, and x is not primitive
X_NOT_PRIMITIVE = [(4, 0b11111), (6, 0b1001001), (8, 0b100011011)]


def _check_walk(f):
    """``generator`` is the least element of order q - 1, by brute force, and the tables are its walk."""
    def order(c):
        return 1 + int(np.flatnonzero(naive_powers(c, f.modulus, f.q)[1:] == 1)[0])

    assert order(f.generator) == f.q - 1
    assert all(order(c) < f.q - 1 for c in range(1, f.generator))
    walk = naive_powers(f.generator, f.modulus, f.q - 1).tolist()
    assert f._exp[:2 * (f.q - 1)] == walk * 2
    assert [f._log[v] for v in walk] == list(range(f.q - 1))


@pytest.mark.parametrize("degree,modulus", [(r, None) for r in range(1, 17)] + X_NOT_PRIMITIVE)
def test_generator_is_the_least_element_of_order_q_minus_1(degree, modulus):
    f = GF2m(degree, modulus)
    _check_walk(f)
    assert f.generator == (1 if degree == 1 else 2 if modulus is None else 3)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("degree,modulus", [(r, None) for r in (1, 2, 3, 4, 5, 8, 13, 16)] + X_NOT_PRIMITIVE)
def test_mul_matches_the_carry_less_reference(degree, modulus):
    # every pair up to q = 64, else 10^4 random pairs
    f = GF2m(degree, modulus)
    if f.q <= 64:
        a, b = (x.ravel() for x in np.meshgrid(np.arange(f.q), np.arange(f.q)))
    else:
        a, b = np.random.default_rng(degree).integers(0, f.q, (2, 10_000))
    assert [f.mul(x, y) for x, y in zip(a.tolist(), b.tolist())] == clmul(a, b, f.modulus).tolist()


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


def _check_least_root(emb):
    """``_embed`` sends x to the least root in the extension of the subfield's modulus, and each
    element to the sum of root^i over its set bits; the roots found by ``clmul`` at every element."""
    sub, ext = emb.sub, emb.ext
    powers = [np.ones(ext.q, dtype=np.int64)]  # z^i at every z, 0^0 = 1
    for _ in range(sub.degree):
        powers.append(clmul(powers[-1], np.arange(ext.q), ext.modulus))
    value = np.bitwise_xor.reduce([powers[i] for i in range(sub.degree + 1) if sub.modulus >> i & 1])
    root = int(np.flatnonzero(value == 0)[0])
    assert emb._embed[2 if sub.degree > 1 else 1] == root  # x, which is 1 in GF(2)
    images = [reduce(xor, (int(powers[i][root]) for i in range(sub.degree) if a >> i & 1), 0)
              for a in range(sub.q)]
    assert emb._embed.tolist() == images


AES = GF2m(8, 0b100011011)


@pytest.mark.parametrize("sub,ext", [(field(sd), field(ed)) for sd, ed in EXTENSIONS]
                         + [(field(1), field(16)), (field(4), field(16))]
                         + [(field(sd), AES) for sd in (1, 2, 4)] + [(GF2m(4, 0b11111), field(8))],
                         ids=lambda f: f"{f}:{f.modulus:#x}")
def test_embedding_sends_x_to_the_least_root_of_the_modulus(sub, ext):
    _check_least_root(SubfieldEmbedding(sub, ext))


def test_the_subfield_whose_modulus_is_x_embeds():
    # GF(2) over the modulus x, where x is 0: the least root is 0, and 1 still goes to 1
    assert SubfieldEmbedding(GF2m(1, 0b10), field(3))._embed.tolist() == [0, 1]


def _mutant(old, new):
    """``gf`` with one piece of its source replaced, as a module of its own."""
    source = inspect.getsource(gf)
    assert source.count(old) == 1
    module = types.ModuleType("gf_mutant")
    exec(compile(source.replace(old, new), gf.__file__, "exec"), module.__dict__)
    return module


def test_a_walk_from_3_or_the_largest_root_fails_the_checks():
    # negative controls: each mutant builds a field, or an embedding, that the checks reject
    walk_from_3 = _mutant("for g in range(1, self.q):", "for g in [1, *range(3, self.q)]:")
    with pytest.raises(AssertionError):
        _check_walk(walk_from_3.GF2m(2))
    largest_root = _mutant("root = roots.min() if", "root = roots.max() if")
    for sd, ed in [(2, 4), (4, 16)]:  # over GF(2) every root gives the same embedding
        with pytest.raises(AssertionError):
            _check_least_root(largest_root.SubfieldEmbedding(field(sd), field(ed)))


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

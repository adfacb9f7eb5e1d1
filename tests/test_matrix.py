import random

import numpy as np
import pytest

from nilpairs.fields import GF, GF2, GF3, QQ, parse_field
from nilpairs.matrix import (
    ExactMatrix,
    NotNilpotent,
    jordan_matrix,
    jordanize_nilpotent,
)
from nilpairs.partitions import Partition, enumerate_partitions

FIELDS = [GF2, GF3, GF(5), QQ]


def random_matrix(field, n, m, rnd):
    return ExactMatrix(field, [[rnd.randint(-6, 6) for _ in range(m)] for _ in range(n)], ncols=m)


def random_invertible(field, n, rnd):
    while True:
        p = random_matrix(field, n, n, rnd)
        if p.rank() == n:
            return p


def jordanize_checked(m):
    """jordanize_nilpotent(m), asserting P^-1 * m * P == jordan_matrix(shape) exactly."""
    p, shape = jordanize_nilpotent(m)
    assert p.inverse().mul(m).mul(p) == jordan_matrix(shape, m.field)
    return p, shape


def test_multiply_examples():
    j2 = jordan_matrix(Partition([2]), GF2)
    assert j2.mul(j2).is_zero()
    rnd = random.Random(1)
    m = random_matrix(QQ, 4, 4, rnd)
    assert ExactMatrix.identity(QQ, 4).mul(m) == m
    assert m.mul(ExactMatrix.identity(QQ, 4)) == m


def test_multiply_mismatches():
    a = ExactMatrix.zeros(GF2, 2, 3)
    b = ExactMatrix.zeros(GF2, 2, 3)
    with pytest.raises(ValueError):
        a.mul(b)
    with pytest.raises(ValueError):
        a.mul(ExactMatrix.zeros(GF3, 3, 2))


def test_rank_examples():
    assert ExactMatrix.zeros(GF2, 3, 3).rank() == 0
    assert jordan_matrix(Partition([4]), QQ).rank() == 3
    m = ExactMatrix(QQ, [[1, 2], [2, 4]])
    assert m.rank() == 1


@pytest.mark.parametrize("field", FIELDS)
def test_rank_nullity_and_transpose(field):
    rnd = random.Random(42)
    for _ in range(1000):
        n, m = rnd.randint(0, 6), rnd.randint(0, 6)
        a = random_matrix(field, n, m, rnd)
        r = a.rank()
        assert r == a.transpose().rank()
        assert r + len(a.kernel_basis()) == m
        for v in a.kernel_basis():
            assert all(x == field.zero() for x in a.matvec(v))


@pytest.mark.parametrize("field", FIELDS)
def test_inverse(field):
    rnd = random.Random(7)
    for n in range(0, 6):
        p = random_invertible(field, n, rnd)
        assert p.mul(p.inverse()) == ExactMatrix.identity(field, n)
    with pytest.raises(ValueError):
        ExactMatrix.zeros(field, 2, 2).inverse()


def test_jordan_matrix_patterns():
    m = jordan_matrix(Partition([2, 1]), QQ)
    assert m.rows == ((0, 1, 0), (0, 0, 0), (0, 0, 0))
    m3 = jordan_matrix(Partition([3]), QQ)
    assert m3.entry(0, 1) == 1 and m3.entry(1, 2) == 1 and m3.rank() == 2


def test_jordan_roundtrip_all_small_shapes():
    for n in range(0, 9):
        for p in enumerate_partitions(n):
            for field in (GF2, QQ):
                assert jordan_matrix(p, field).nilpotent_shape() == p


def test_nilpotent_shape_zero_and_errors():
    assert ExactMatrix.zeros(GF3, 4, 4).nilpotent_shape() == Partition([1, 1, 1, 1])
    with pytest.raises(NotNilpotent):
        ExactMatrix.identity(GF3, 3).nilpotent_shape()


@pytest.mark.parametrize("field", FIELDS)
def test_shape_invariant_under_conjugation(field):
    rnd = random.Random(9)
    for n in range(1, 8):
        for shape in enumerate_partitions(n):
            p = random_invertible(field, n, rnd)
            m = p.mul(jordan_matrix(shape, field)).mul(p.inverse())
            assert m.nilpotent_shape() == shape
            seq = m.rank_sequence()
            # rank of powers against the shape: rk(m^i) = sum max(shape_j - i, 0)
            for i, r in enumerate(seq):
                assert r == sum(max(x - i, 0) for x in shape)


def test_jordanize_identity_on_jordan_form():
    for n in range(0, 7):
        for shape in enumerate_partitions(n):
            p, s = jordanize_checked(jordan_matrix(shape, GF3))
            assert s == shape
            assert p == ExactMatrix.identity(GF3, n)


def test_jordanize_reversal_example():
    m = jordan_matrix(Partition([4]), QQ).transpose()
    p, shape = jordanize_checked(m)
    assert shape == Partition([4])
    n = 4
    rev = ExactMatrix(QQ, [[1 if i + j == n - 1 else 0 for j in range(n)] for i in range(n)])
    assert p == rev


@pytest.mark.parametrize("field", [GF2, GF3, QQ])
def test_jordanize_random_nilpotent(field):
    # 0 x 0 runs the general construction: no chains, an empty basis
    assert jordanize_checked(ExactMatrix.zeros(field, 0, 0)) == (ExactMatrix.identity(field, 0), Partition())
    rnd = random.Random(13)
    for n in range(1, 7):
        for _ in range(25):
            # random conjugate of a random Jordan matrix is nilpotent
            shape = rnd.choice(enumerate_partitions(n))
            q = random_invertible(field, n, rnd)
            m = q.mul(jordan_matrix(shape, field)).mul(q.inverse())
            p, s = jordanize_checked(m)
            assert s == shape
            assert p.inverse().mul(m).mul(p) == jordan_matrix(s, field)


@pytest.mark.parametrize("field", FIELDS + [GF(2**61 - 1)])
def test_is_nilpotent_by_squaring(field):
    # repeated squaring agrees with A^n == 0, from the empty matrix up, and
    # rank_sequence raises NotNilpotent on exactly the matrices it rejects
    # (GF(2^61 - 1) runs the rank chain on Python ints, past int64)
    def checked(m):
        nilpotent = m.is_nilpotent()
        if nilpotent:
            seq = m.rank_sequence()
            assert seq[0] == m.nrows and seq[-1] == 0 and len(seq) <= m.nrows + 1
        else:
            with pytest.raises(NotNilpotent):
                m.rank_sequence()
        return nilpotent

    assert checked(ExactMatrix.zeros(field, 0, 0))
    assert ExactMatrix.zeros(field, 0, 0).rank_sequence() == [0]
    assert checked(ExactMatrix.zeros(field, 1, 1))
    assert not checked(ExactMatrix.identity(field, 1))
    assert not ExactMatrix.zeros(field, 2, 3).is_nilpotent()
    with pytest.raises(ValueError, match="non-square"):
        ExactMatrix.zeros(field, 2, 3).rank_sequence()
    rnd = random.Random(21)
    for n in range(2, 8):
        for shape in enumerate_partitions(n):
            q = random_invertible(field, n, rnd)
            j = jordan_matrix(shape, field)
            assert checked(q.mul(j).mul(q.inverse()))
            # J_shape with its last diagonal entry set to 1 has the eigenvalue 1
            rows = j.tolists()
            rows[-1][-1] = 1
            assert not checked(q.mul(ExactMatrix(field, rows)).mul(q.inverse()))
        m = random_matrix(field, n, n, rnd)
        assert checked(m) == m.power(n).is_zero()


def test_power_early_exit():
    j = jordan_matrix(Partition([3, 1]), GF2)
    assert j.power(0) == ExactMatrix.identity(GF2, 4)
    assert j.power(3).is_zero() and j.power(9).is_zero()


@pytest.mark.parametrize("field", FIELDS)
def test_json_roundtrip(field):
    rnd = random.Random(11)
    for _ in range(25):
        n, m = rnd.randint(0, 5), rnd.randint(0, 5)
        a = random_matrix(field, n, m, rnd)
        doc = a.to_json_dict()
        assert doc["field"] == field.name
        b = ExactMatrix.from_json_dict(doc)
        assert (b.rows, b.nrows) == (a.rows, a.nrows)


def test_json_rational_fractions():
    from fractions import Fraction

    a = ExactMatrix(QQ, [[Fraction(1, 3), 2], [Fraction(-5, 7), 0]])
    doc = a.to_json_dict()
    assert doc["rows"][0][0] == "1/3" and doc["rows"][0][1] == 2
    assert ExactMatrix.from_json_dict(doc) == a
    assert parse_field("gf:2") == parse_field("gf2")


def test_fixture_rank_is_ten():
    from conftest import reduced_fixture

    assert reduced_fixture().rank() == 10


def test_field_validation():
    import pytest as _pytest

    from nilpairs.fields import FieldSpec

    with _pytest.raises(ValueError):
        FieldSpec("gf", 4)
    with _pytest.raises(ValueError):
        FieldSpec("gf", 1)
    with _pytest.raises(ValueError):
        FieldSpec("weird")
    assert GF(13).inv(5) * 5 % 13 == 1


def test_primality_is_exact_and_fast():
    import time

    from nilpairs.fields import FieldSpec, _is_prime

    def trial_division(p):
        return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))

    assert all(_is_prime(p) == trial_division(p) for p in range(10**5))
    for carmichael in (561, 3215031751):
        with pytest.raises(ValueError):
            FieldSpec("gf", carmichael)
    start = time.perf_counter()
    assert FieldSpec("gf", 2**61 - 1).order == 2**61 - 1
    assert time.perf_counter() - start < 1.0


def test_rng_python_and_numpy_streams_agree():
    from nilpairs import rng

    for seed in (0, 1, 987654321):
        py = rng.values_mod(seed, 17, 200, 5)
        np_vals = rng.values_mod_np(seed, np.arange(17, 217), 5)
        assert py == list(np_vals)


@pytest.mark.parametrize("p", [1000003, 2**31 - 1])
def test_large_prime_fields(p):
    """Exact elimination at primes far beyond a p-entry table, incl. the 1x1 zero matrix."""
    from nilpairs.jordan import shape_of_reduced
    from nilpairs.reduction import reduce
    from nilpairs.structure import sample_nilpotent_candidate

    f = GF(p)
    zero = ExactMatrix.zeros(f, 1, 1)
    assert zero.rank_sequence() == [1, 0]
    assert zero.kernel_basis() == [[1]]
    assert jordanize_checked(zero) == (ExactMatrix.identity(f, 1), Partition([1]))
    assert ExactMatrix(f, [[p - 1]]).inverse() == ExactMatrix(f, [[p - 1]])
    assert ExactMatrix(f, [[2]]).inverse().rows == (((p + 1) // 2,),)

    rnd = random.Random(p)
    for shape in enumerate_partitions(5):
        while True:
            q = ExactMatrix(f, [[rnd.randrange(p) for _ in range(5)] for _ in range(5)])
            if q.rank() == 5:
                break
        qinv = q.inverse()
        assert q.mul(qinv) == ExactMatrix.identity(f, 5)
        m = q.mul(jordan_matrix(shape, f)).mul(qinv)
        assert m.rank_sequence() == [sum(max(x - i, 0) for x in shape) for i in range(shape[0] + 1)]
        basis = m.kernel_basis()
        assert len(basis) == len(shape)
        for v in basis:
            assert all(x == 0 for x in m.matvec(v))
        p_mat, s = jordanize_checked(m)
        assert s == shape

    mu = Partition([2, 1])  # one 1-part: m = 1
    a = sample_nilpotent_candidate(mu, f, seed=3)
    pair = reduce(a, mu)
    assert shape_of_reduced(pair) == a.nilpotent_shape()

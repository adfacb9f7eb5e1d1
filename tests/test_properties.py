"""Hypothesis properties of the exact elimination cores, the products and `reduce` over QQ.

The cores are checked over GF(2) (bit-packed rows), GF(3), GF(2^31 - 1) and
QQ (Python scalars).  Matrices are drawn as products of an r x k and a k x c
factor, so every rank from zero to full occurs.  `mul` and `matvec` are
compared with a triple loop (Fraction over QQ, big ints mod p over
GF(2^31 - 1)), and the row shift that stands for J_lambda^e in
`chain_profile` with the product it replaces.  The reduction properties
use integer inputs whose ones block is a unimodular conjugate of J_lambda,
which puts the rational path under the same invariants as the GF(p) corpus,
and seeded nilpotent candidates over random primes below 2^31, where the
batched formula of `verify` must give `shape_of_reduced`'s shape.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilpairs import census
from nilpairs.characterize import enumerate_shapes
from nilpairs.fields import GF, GF2, GF3, QQ, _is_prime
from nilpairs.jordan import _jordan_shift, chain_profile, rank_formula, shape_of_reduced
from nilpairs.matrix import ExactMatrix, _np_safe, jordan_matrix
from nilpairs.partitions import enumerate_partitions, from_core
from nilpairs.reduction import is_reduced, reduce
from nilpairs.structure import free_coordinates, matches_annihilating_pattern, sample_nilpotent_candidate

FIELDS = [GF2, GF3, GF(2**31 - 1), QQ]


def entries(field):
    if field.is_finite:
        return st.integers(0, field.order - 1)
    return st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def matrices(draw, field, square=False):
    r = draw(st.integers(0, 6))
    c = r if square else draw(st.integers(0, 6))
    k = draw(st.integers(0, max(r, c, 1)))
    e = entries(field)
    left = ExactMatrix(field, draw(st.lists(st.lists(e, min_size=k, max_size=k), min_size=r, max_size=r)), ncols=k)
    right = ExactMatrix(field, draw(st.lists(st.lists(e, min_size=c, max_size=c), min_size=k, max_size=k)), ncols=c)
    return left.mul(right)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@given(data=st.data())
def test_rank_equals_transpose_rank(field, data):
    a = data.draw(matrices(field))
    assert a.rank() == a.transpose().rank()


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@given(data=st.data())
def test_rank_nullity_and_kernel_vectors(field, data):
    a = data.draw(matrices(field))
    basis = a.kernel_basis()
    assert a.rank() + len(basis) == a.ncols
    for v in basis:
        assert all(x == field.zero() for x in a.matvec(v))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@given(data=st.data())
def test_prefix_ranks_from_one_echelon(field, data):
    a = data.draw(matrices(field))
    expected = [a.submatrix(0, a.nrows, 0, i).rank() for i in range(a.ncols + 1)]
    assert a.column_prefix_ranks() == expected


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@given(data=st.data())
def test_inverse_round_trips(field, data):
    a = data.draw(matrices(field, square=True))
    n = a.nrows
    if a.rank() < n:
        with pytest.raises(ValueError):
            a.inverse()
        return
    inv = a.inverse()
    assert a.mul(inv) == ExactMatrix.identity(field, n)
    assert inv.mul(a) == ExactMatrix.identity(field, n)


# -- products against independent references ------------------------------------


def naive_product(a_rows, b_rows, ncols, add_mul):
    """Triple loop: entry (i, j) folds add_mul(acc, a[i][t], b[t][j]) over t."""
    out = []
    for ra in a_rows:
        row = []
        for j in range(ncols):
            acc = 0
            for t, x in enumerate(ra):
                acc = add_mul(acc, x, b_rows[t][j])
            row.append(acc)
        out.append(row)
    return out


@st.composite
def product_operands(draw, entry):
    """(A, B, v) with A r x k, B k x c, v of length k; r, k, c in 0..5, some rows of A zero."""
    r, k, c = (draw(st.integers(0, 5)) for _ in range(3))
    a = [draw(st.lists(entry, min_size=k, max_size=k)) for _ in range(r)]
    for i in draw(st.sets(st.integers(0, max(r - 1, 0)), max_size=r)):
        a[i] = [0] * k
    b = [draw(st.lists(entry, min_size=c, max_size=c)) for _ in range(k)]
    v = draw(st.lists(entry, min_size=k, max_size=k))
    return (r, k, c), a, b, v


WIDE_RATIONALS = st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6))


@given(product_operands(WIDE_RATIONALS))
def test_rational_products_match_a_fraction_triple_loop(case):
    (r, k, c), a, b, v = case
    am, bm = ExactMatrix(QQ, a, ncols=k), ExactMatrix(QQ, b, ncols=c)

    def add_mul(acc, x, y):
        return acc + Fraction(x) * Fraction(y)

    prod = am.mul(bm)
    assert (prod.nrows, prod.ncols) == (r, c)
    assert prod == ExactMatrix(QQ, naive_product(a, b, c, add_mul), ncols=c)
    assert am.matvec([Fraction(x) for x in v]) == [row[0] for row in naive_product(a, [[x] for x in v], 1, add_mul)]


@given(product_operands(st.integers(0, 2**31 - 2)))
def test_large_prime_products_match_a_big_int_reference(case):
    p = 2**31 - 1
    (r, k, c), a, b, v = case
    am, bm = ExactMatrix(GF(p), a, ncols=k), ExactMatrix(GF(p), b, ncols=c)

    def add_mul(acc, x, y):
        return (acc + x * y) % p

    assert am.mul(bm) == ExactMatrix(GF(p), naive_product(a, b, c, add_mul), ncols=c)
    assert am.matvec(v) == [row[0] for row in naive_product(a, [[x] for x in v], 1, add_mul)]


@pytest.mark.parametrize(
    "lam", [lam for m in range(1, 7) for lam in enumerate_partitions(m)], ids=lambda lam: ",".join(map(str, lam))
)
@given(data=st.data())
def test_jordan_shift_matches_the_jordan_power_product(lam, data):
    field = data.draw(st.sampled_from([GF3, QQ]))
    e = entries(field)
    m = lam.n
    r, c = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    a12 = ExactMatrix(field, data.draw(st.lists(st.lists(e, min_size=m, max_size=m), min_size=r, max_size=r)), ncols=m)
    a21 = ExactMatrix(field, data.draw(st.lists(st.lists(e, min_size=c, max_size=c), min_size=m, max_size=m)), ncols=c)
    j = jordan_matrix(lam, field)
    j_pow = ExactMatrix.identity(field, m)
    for s in range(2, lam[0] + 3):
        assert a12.mul(_jordan_shift(a21, lam, s - 2)) == a12.mul(j_pow).mul(a21)
        j_pow = j_pow.mul(j)


# -- reduce over QQ ----------------------------------------------------------------


@st.composite
def unimodular(draw, m):
    """Integer matrix with an integer inverse: seeded elementary moves and a swap."""
    rows = [[int(i == j) for j in range(m)] for i in range(m)]
    for _ in range(draw(st.integers(0, 2 * m))):
        p, q = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        if p != q:
            xi = draw(st.sampled_from((-2, -1, 1, 2)))
            rows[p] = [x + xi * y for x, y in zip(rows[p], rows[q])]
    if m > 1 and draw(st.booleans()):
        rows[0], rows[-1] = rows[-1], rows[0]
    return ExactMatrix(QQ, rows)


@st.composite
def qq_reduce_inputs(draw):
    """(mu, lambda, A): A annihilates J_mu, its ones block is U J_lambda U^-1."""
    core = draw(st.sampled_from([c for n in range(7) for c in enumerate_partitions(n) if not c or c[-1] >= 2]))
    lam = draw(st.sampled_from([lam for m in range(1, 6) for lam in enumerate_partitions(m)]))
    m = lam.n
    mu = from_core(core, m)
    u = draw(unimodular(m))
    a22 = u.mul(jordan_matrix(lam, QQ)).mul(u.inverse())
    n = mu.n
    base = n - m
    rows = [[Fraction(0)] * n for _ in range(n)]
    small = st.fractions(min_value=-3, max_value=3, max_denominator=2)
    for r, c in free_coordinates(mu).positions:
        if r < base or c < base:
            rows[r][c] = draw(st.one_of(st.just(Fraction(0)), small))
    for i in range(m):
        rows[base + i][base:] = a22.rows[i]
    return mu, lam, ExactMatrix(QQ, rows)


@given(qq_reduce_inputs())
def test_reduce_invariants_over_qq(case):
    mu, lam, a = case
    assert matches_annihilating_pattern(a, mu)
    pair = reduce(a, mu)
    assert pair.lam == lam
    assert is_reduced(pair.matrix, mu, lam)
    t = pair.transform
    assert t.mul(a).mul(t.inverse()) == pair.matrix
    assert pair.matrix.rank_sequence() == a.rank_sequence()
    profile = chain_profile(pair)
    shape = shape_of_reduced(pair, profile)
    assert shape == a.nilpotent_shape()
    assert shape in enumerate_shapes(mu)
    for s in range(1, (lam[0] if lam else 0) + 1):
        assert rank_formula(pair, s, profile) == pair.matrix.power(s + 1).rank()


# -- reduce over random primes -------------------------------------------------------


@st.composite
def primes_below_2_31(draw):
    """The largest prime at or below a drawn integer in [2, 2^31), small or past the int64 bound of n <= 6."""
    p = draw(st.one_of(st.integers(2, 2**16), st.integers(2**30, 2**31 - 1)))
    while not _is_prime(p):
        p -= 1
    return p


@given(
    mu=st.sampled_from([mu for n in range(7) for mu in enumerate_partitions(n)]),
    p=primes_below_2_31(),
    seed=st.integers(0, 2**32),
)
def test_reduce_invariants_over_random_primes(mu, p, seed):
    # verify's n x n stacks are int64 while products stay exact, else Python
    # ints; the batched predicate and formula take the reduced M as such a stack
    field = GF(p)
    a = sample_nilpotent_candidate(mu, field, seed)
    pair = reduce(a, mu)
    m = pair.matrix
    assert is_reduced(m, mu, pair.lam)
    t = pair.transform
    assert t.mul(a).mul(t.inverse()) == m
    shape = shape_of_reduced(pair)
    assert shape == a.nilpotent_shape()
    stack = np.array(m.tolists(), dtype=np.int64 if _np_safe(field, mu.n) else object).reshape(1, mu.n, mu.n)
    assert census._reduced_mask(mu, pair.lam, stack, p).tolist() == [True]
    assert census._reduced_shapes(mu, pair.lam, stack, np.array([m.rank()]), p) == [shape]

"""Hypothesis properties of the exact elimination cores and of `reduce` over QQ.

The cores are checked over GF(2) (bit-packed rows), GF(3), GF(2^31 - 1) and
QQ (Python scalars).  Matrices are drawn as products of an r x k and a k x c
factor, so every rank from zero to full occurs.  The reduction properties
use integer inputs whose ones block is a unimodular conjugate of J_lambda,
which puts the rational path under the same invariants as the GF(p) corpus.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilpairs.characterize import enumerate_shapes
from nilpairs.fields import GF, GF2, GF3, QQ
from nilpairs.jordan import chain_profile, rank_formula, shape_of_reduced
from nilpairs.matrix import ExactMatrix, jordan_matrix
from nilpairs.partitions import Partition, from_core
from nilpairs.reduction import is_reduced, reduce
from nilpairs.structure import free_coordinates, matches_annihilating_pattern

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


# -- reduce over QQ ----------------------------------------------------------------


@st.composite
def partitions_of(draw, n):
    parts = []
    while n:
        part = draw(st.integers(1, min(n, parts[-1] if parts else n)))
        parts.append(part)
        n -= part
    return Partition(parts)


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
    core = draw(partitions_of(draw(st.integers(0, 6))).filter(lambda p: not p or p[-1] >= 2))
    m = draw(st.integers(1, 5))
    mu = from_core(core, m)
    lam = draw(partitions_of(m))
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

import random
from fractions import Fraction

import pytest

from nilpairs.fields import GF2, GF3, GF, QQ
from nilpairs.matrix import ExactMatrix, NotNilpotent, jordan_matrix
from nilpairs.partitions import Partition, enumerate_partitions, parse_partition, split_core
from nilpairs.structure import (
    BudgetExceeded,
    candidate_count,
    corner_rank_sequence,
    free_coordinates,
    is_annihilating_form,
    matches_annihilating_pattern,
    sample_nilpotent_candidate,
)
from nilpairs.oracles import (
    candidate_at,
    enumerate_candidates,
    is_commuting_form,
    matches_commuting_pattern,
    sample_candidate,
)


def test_commuting_form_examples():
    mu = Partition([3, 2])
    j = jordan_matrix(mu, GF3)
    assert is_commuting_form(j, mu)
    j2, eye = j.mul(j), ExactMatrix.identity(GF3, 5)
    poly = ExactMatrix(GF3, [[x + y + z for x, y, z in zip(*rs)] for rs in zip(j.rows, j2.rows, eye.rows)])
    assert is_commuting_form(poly, mu)
    bad = ExactMatrix.zeros(GF3, 3, 3).tolists()
    bad[1][0] = 1
    assert not is_commuting_form(ExactMatrix(GF3, bad), Partition([2, 1]))
    # the pattern twin agrees with the products on every matrix with n <= 3
    for n in range(1, 4):
        for code in range(2 ** (n * n)):
            a = ExactMatrix(GF2, [[(code >> (n * i + j)) & 1 for j in range(n)] for i in range(n)])
            for mu in enumerate_partitions(n):
                assert matches_commuting_pattern(a, mu) == is_commuting_form(a, mu), (code, mu)


def test_annihilating_form_examples():
    mu = Partition([3])
    assert is_annihilating_form(ExactMatrix.zeros(GF2, 3, 3), mu)
    assert not is_annihilating_form(jordan_matrix(mu, GF2), mu)  # J^2 != 0
    # the fixture pattern with arbitrary values in the free slots stays annihilating
    mu8 = parse_partition("3,3,2,1^8")
    for seed in range(10):
        assert is_annihilating_form(sample_candidate(mu8, GF3, seed), mu8)


def test_pattern_and_product_predicates_agree():
    for n in range(1, 7):
        for mu in enumerate_partitions(n):
            for seed in range(200):
                a = sample_candidate(mu, GF3, seed)
                assert is_annihilating_form(a, mu)
                assert matches_annihilating_pattern(a, mu)
                if seed < 20:
                    assert is_commuting_form(a, mu)
                    assert matches_commuting_pattern(a, mu)
                if seed >= 20:
                    continue
                # corrupt one off-pattern entry and both predicates must flip
                allowed = set(free_coordinates(mu).positions)
                spot = next(
                    ((i, j) for i in range(n) for j in range(n) if (i, j) not in allowed),
                    None,
                )
                if spot is not None:
                    rows = a.tolists()
                    rows[spot[0]][spot[1]] = 1
                    b = ExactMatrix(GF3, rows)
                    assert not is_annihilating_form(b, mu)
                    assert not matches_annihilating_pattern(b, mu)


def test_annihilating_implies_commuting():
    for n in range(1, 7):
        for mu in enumerate_partitions(n):
            for seed in range(10):
                a = sample_candidate(mu, GF2, seed)
                assert is_annihilating_form(a, mu)
                assert is_commuting_form(a, mu)


def test_free_coordinate_counts():
    assert len(free_coordinates(Partition([2, 1, 1]))) == 9
    assert len(free_coordinates(Partition([1, 1, 1]))) == 9
    assert len(free_coordinates(Partition([3, 2]))) == 4
    for n in range(1, 13):
        for mu in enumerate_partitions(n):
            s = split_core(mu)
            assert len(free_coordinates(mu)) == (len(s.core) + s.ones) ** 2


def test_corner_positions_are_annihilating():
    # E_rc annihilates J_mu exactly at the free coordinates, which are listed
    # strictly increasing (the odometer and the sampled streams rely on it)
    for n in range(8):
        for mu in enumerate_partitions(n):
            positions = free_coordinates(mu).positions
            assert all(p < q for p, q in zip(positions, positions[1:])), tuple(mu)
            free = set(positions)
            for r in range(n):
                for c in range(n):
                    rows = [[0] * n for _ in range(n)]
                    rows[r][c] = 1
                    unit = ExactMatrix(GF2, rows)
                    assert is_annihilating_form(unit, mu) == ((r, c) in free), (tuple(mu), r, c)
                    assert matches_annihilating_pattern(unit, mu) == ((r, c) in free), (tuple(mu), r, c)


def test_enumerate_counts_and_uniqueness():
    assert candidate_count(Partition([2, 1]), GF2) == 16
    seen = set(enumerate_candidates(Partition([2, 1]), GF2))
    assert len(seen) == 16
    assert candidate_count(Partition([1, 1]), GF2) == 16
    mats = list(enumerate_candidates(Partition([2, 2, 1]), GF3))
    assert len(mats) == 3**9 and len(set(mats)) == 3**9
    for m in mats[:50]:
        assert is_annihilating_form(m, Partition([2, 2, 1]))
    big = set(enumerate_candidates(Partition([2, 1, 1, 1]), GF2))
    assert len(big) == 2**16


def test_enumerate_matches_candidate_at():
    mu = Partition([2, 1])
    for idx, m in enumerate(enumerate_candidates(mu, GF3)):
        assert m == candidate_at(mu, GF3, idx)
        if idx > 200:
            break


def test_no_ones_mu_shapes_via_enumeration():
    # mu with no 1-parts: shapes are exactly (2^i, 1^(n-2i)) for i = 0..k
    mu = Partition([3, 2])
    observed = set()
    for cand in enumerate_candidates(mu, GF2):
        if cand.is_nilpotent():
            observed.add(cand.nilpotent_shape())
    assert observed == {
        Partition([1, 1, 1, 1, 1]),
        Partition([2, 1, 1, 1]),
        Partition([2, 2, 1]),
    }


def test_budget_guard():
    with pytest.raises(BudgetExceeded) as err:
        list(enumerate_candidates(Partition([1] * 5), GF2, budget=1000))
    assert err.value.required == 2**25


def test_sample_determinism():
    mu = Partition([2, 1, 1])
    for seed in (0, 1, 99):
        a = sample_candidate(mu, GF3, seed)
        b = sample_candidate(mu, GF3, seed)
        assert a == b
        assert sample_candidate(mu, GF3, seed, index=4) == sample_candidate(mu, GF3, seed, index=4)
    assert sample_candidate(mu, GF3, 0) != sample_candidate(mu, GF3, 1)


def test_sample_nilpotent_candidates():
    for n in range(1, 9):
        for mu in enumerate_partitions(n):
            for seed in range(5):
                a = sample_nilpotent_candidate(mu, GF(5), seed)
                assert is_annihilating_form(a, mu)
                assert a.is_nilpotent()
                assert sample_nilpotent_candidate(mu, GF(5), seed) == a


def test_nilpotency_iff_a22_nilpotent():
    # structural fact used by the sampler: an S-form matrix is nilpotent
    # exactly when its ones-times-ones block is
    for mu_text in ("2,1,1", "3,2,1,1", "2,2,1,1,1"):
        mu = parse_partition(mu_text)
        m = split_core(mu).ones
        n = mu.n
        for seed in range(60):
            a = sample_candidate(mu, GF2, seed)
            a22 = a.submatrix(n - m, n, n - m, n)
            assert a.is_nilpotent() == a22.is_nilpotent()


def test_sampled_shapes_lie_in_predicted_set():
    # 10^4 seeded GF(3) samples for mu = (2,1,1): nilpotent shapes stay inside
    # the predicted set (cross-module property)
    from nilpairs.census import sampled_shape_census
    from nilpairs.characterize import enumerate_shapes

    mu = Partition([2, 1, 1])
    counts, nilp = sampled_shape_census(mu, GF3, 10000, seed=123)
    assert nilp > 0
    assert set(counts) <= set(enumerate_shapes(mu))


def rational_nilpotent_candidate(mu, seed):
    """A nilpotent matrix of mu's pattern over QQ with non-integral entries.

    The outer free coordinates are fractions; A22 starts strictly upper
    triangular with fractional entries and is conjugated by elementary
    moves E = I + xi*e[p,q] with fractional xi.
    """
    rnd = random.Random(seed)
    n = mu.n
    m = split_core(mu).ones
    base = n - m

    def frac():
        return Fraction(rnd.randint(-5, 5), rnd.randint(1, 4)) if rnd.random() < 0.7 else Fraction(0)

    rows = [[Fraction(0)] * n for _ in range(n)]
    for r, c in free_coordinates(mu).positions:
        if r < base or c < base:
            rows[r][c] = frac()
    a22 = [[frac() if j > i else Fraction(0) for j in range(m)] for i in range(m)]
    for _ in range(2 * m if m > 1 else 0):
        p, q = rnd.sample(range(m), 2)
        xi = Fraction(rnd.choice((-3, -1, 1, 2)), rnd.randint(1, 3))
        a22[p] = [x + xi * y for x, y in zip(a22[p], a22[q])]
        for row in a22:
            row[q] -= xi * row[p]
    for i in range(m):
        rows[base + i][base:] = a22[i]
    return ExactMatrix(QQ, rows)


CORNER_FIELDS = [GF2, GF3, GF(32003), GF(2**31 - 1), QQ]  # GF(2^31 - 1): the Python-int products


@pytest.mark.parametrize("field", CORNER_FIELDS, ids=lambda f: f.name)
def test_corner_rank_sequence_matches_rank_sequence(field):
    # the K x K corner products against the n x n powers, on every mu with n <= 8
    fractional = 0
    for n in range(9):
        for mu in enumerate_partitions(n):
            for seed in range(3):
                if field.is_finite:
                    a = sample_nilpotent_candidate(mu, field, seed)
                else:
                    a = rational_nilpotent_candidate(mu, seed)
                    fractional += any(x.denominator != 1 for r in a.rows for x in r)
                assert corner_rank_sequence(field, mu, a.rows) == a.rank_sequence(), (mu, seed)
    assert field.is_finite or fractional > 100


@pytest.mark.parametrize("field", CORNER_FIELDS, ids=lambda f: f.name)
def test_corner_rank_sequence_refuses_a_non_nilpotent_matrix(field):
    checked = 0
    for mu_text in ("1", "2,1", "2,1,1", "3,2,1,1", "1^4"):
        mu = parse_partition(mu_text)
        for seed in range(20):
            if field.is_finite:
                a = sample_candidate(mu, field, seed)
            else:
                rows = rational_nilpotent_candidate(mu, seed).tolists()
                base = mu.n - split_core(mu).ones
                rows[base][base] += 1  # A22 now has trace 1
                a = ExactMatrix(QQ, rows)
            if a.is_nilpotent():
                assert corner_rank_sequence(field, mu, a.rows) == a.rank_sequence()
                continue
            checked += 1
            with pytest.raises(NotNilpotent):
                corner_rank_sequence(field, mu, a.rows)
    assert checked >= 20

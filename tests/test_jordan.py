import pytest

from conftest import reduced_fixture
from nilpairs.fields import GF2, GF3, QQ
from nilpairs.jordan import InternalInconsistency, chain_profile, rank_formula, shape_of_reduced
from nilpairs.matrix import ExactMatrix, jordan_matrix
from nilpairs.oracles import assemble_power, power_blocks
from nilpairs.partitions import Partition, enumerate_partitions, ord_parts, parse_partition
from nilpairs.reduction import ReducedPair, reduce
from nilpairs.structure import sample_nilpotent_candidate


@pytest.fixture
def fixture_pair(fixture_matrix, fixture_mu):
    return reduce(fixture_matrix, fixture_mu)


def test_golden_chain_profile(fixture_pair):
    prof = chain_profile(fixture_pair)
    assert prof.f == {2: 1, 3: 0, 4: 1}
    assert prof.g == {2: 0, 3: 2, 4: 0}
    assert prof.e1 == (0, 1, 2, 2, 3)
    assert prof.e2 == (0, 1, 1, 2, 3)


def test_golden_shape(fixture_pair):
    assert shape_of_reduced(fixture_pair) == parse_partition("5,3,3,3,1,1")


def test_golden_rank_formula(fixture_pair):
    # s = 1: lam-tail 1 + e1 2 + e2 2 + f(2) 1 = 6 = rk(A^2)
    assert rank_formula(fixture_pair, 1) == 6
    a = fixture_pair.matrix
    for s in range(1, 8):
        assert rank_formula(fixture_pair, s) == a.power(s + 1).rank()
    assert rank_formula(fixture_pair, 10) == 0  # beyond lam_1 + 1 everything vanishes


def test_golden_power_blocks(fixture_pair):
    a = fixture_pair.matrix
    tl, _, _, _ = power_blocks(fixture_pair, 1)
    # A12*A21 has a single nonzero at (row 7, col 8) in 1-based coordinates
    nz = [(i + 1, j + 1) for i in range(8) for j in range(8) if tl.entry(i, j) != 0]
    assert nz == [(7, 8)]
    for s in range(1, 8):
        assert assemble_power(fixture_pair, s) == a.power(s + 1)
    # large s: all blocks vanish
    blocks = power_blocks(fixture_pair, 12)
    assert all(b.is_zero() for b in blocks)


def test_zero_coupling_shape():
    mu = parse_partition("3,2,1,1,1")
    n = mu.n
    rows = [[0] * n for _ in range(n)]
    rows[5][6] = 1  # A22 = J_(2,1)
    r = reduce(ExactMatrix(GF3, rows), mu)
    prof = chain_profile(r)
    assert all(v == 0 for v in prof.e1) and all(v == 0 for v in prof.e2)
    assert all(v == 0 for v in prof.f.values())
    assert shape_of_reduced(r) == ord_parts(list(r.lam) + [1] * (n - 3))


@pytest.mark.parametrize("field", [GF2, GF3])
def test_shape_of_reduced_matches_oracle(field):
    for n in range(1, 9):
        for mu in enumerate_partitions(n):
            for seed in range(10):
                a = sample_nilpotent_candidate(mu, field, seed)
                r = reduce(a, mu)
                prof = chain_profile(r)
                shape = shape_of_reduced(r, prof)
                assert shape == a.nilpotent_shape()
                # rank formula and block assembly against direct powers
                for s in range(1, (r.lam[0] + 2) if r.lam else 2):
                    assert rank_formula(r, s, prof) == r.matrix.power(s + 1).rank()
                    assert assemble_power(r, s) == r.matrix.power(s + 1)
                # every chain length is 1, 2, or within 2 above a lambda part
                allowed = {1, 2}
                for part in r.lam:
                    allowed.update({part, part + 1, part + 2})
                assert set(shape) <= allowed
                assert all(v >= 0 for v in prof.g.values())


def test_internal_inconsistency_raises():
    # hand-build an invalid "reduced" pair: duplicate hooks that overcount f
    mu = parse_partition("2,1")
    lam = Partition([1])
    rows = [[0] * 3 for _ in range(3)]
    rows[0][2] = 1  # X hook
    rows[2][1] = 1  # Y hook
    matrix = ExactMatrix(QQ, rows)
    pair = ReducedPair(
        mu_core=Partition([2]),
        ones=1,
        lam=lam,
        matrix=matrix,
        transform=ExactMatrix.identity(QQ, 3),
    )
    # this pair is genuinely reduced, so the counts are consistent
    assert shape_of_reduced(pair) == Partition([3])
    # corrupt the lambda data to force impossible counts
    bad = ReducedPair(
        mu_core=Partition([2]),
        ones=1,
        lam=Partition([1]),
        matrix=ExactMatrix(
            QQ, [[0, 0, 1], [0, 0, 0], [0, 0, 0]]
        ),  # rank 1 but no Y hook: c would go negative? craft below instead
        transform=ExactMatrix.identity(QQ, 3),
    )
    assert shape_of_reduced(bad) == Partition([2, 1])
    with pytest.raises(InternalInconsistency):
        shape_of_reduced(
            ReducedPair(
                mu_core=Partition([2]),
                ones=1,
                lam=Partition([1]),
                matrix=ExactMatrix.zeros(QQ, 3, 3),
                transform=ExactMatrix.identity(QQ, 3),
            ),
            profile=chain_profile(pair),  # counts from the hooked pair, zero matrix
        )


def test_power_blocks_validates_s():
    pair = reduce(reduced_fixture(), parse_partition("3,3,2,1^8"))
    with pytest.raises(ValueError):
        power_blocks(pair, 0)
    with pytest.raises(ValueError):
        rank_formula(pair, 0)


def test_shape_of_reduced_exhaustive_small_spaces():
    """Every nilpotent GF(2) candidate with a space of at most 2^14:
    the closed-form shape equals the rank-sequence oracle."""
    from nilpairs.oracles import enumerate_candidates
    from nilpairs.structure import candidate_count

    for n in range(1, 6):
        for mu in enumerate_partitions(n):
            if candidate_count(mu, GF2) > 2**14:
                continue
            for cand in enumerate_candidates(mu, GF2):
                if not cand.is_nilpotent():
                    continue
                r = reduce(cand, mu)  # full internal validation on every candidate
                assert shape_of_reduced(r) == cand.nilpotent_shape(), tuple(mu)


def test_exhaustive_reduce_with_mixed_lambda_blocks():
    """mu = (2,1,1,1) and (3,1,1,1): every nilpotent GF(2) candidate (8192 each,
    spaces of 2^16).  These are the smallest spaces whose lambda can be (2,1),
    exercising the cross-run column moves and their repair pass."""
    from nilpairs.oracles import enumerate_candidates

    for mu_text in ("2,1,1,1", "3,1,1,1"):
        mu = parse_partition(mu_text)
        lam_seen = set()
        count = 0
        for cand in enumerate_candidates(mu, GF2):
            if not cand.is_nilpotent():
                continue
            r = reduce(cand, mu)
            lam_seen.add(r.lam)
            assert shape_of_reduced(r) == cand.nilpotent_shape()
            count += 1
        assert count == 8192
        assert Partition([2, 1]) in lam_seen and Partition([3]) in lam_seen

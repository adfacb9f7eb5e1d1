import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import LAM_FIXTURE, MU_FIXTURE, preduction_fixture, reduced_fixture
from nilpairs.fields import GF, GF2, GF3, QQ
from nilpairs.matrix import ExactMatrix, jordan_matrix
from nilpairs.oracles import elementary_conjugation, sample_candidate
from nilpairs.partitions import Partition, enumerate_partitions, format_partition, offsets, parse_partition
from nilpairs.reduction import (
    PreconditionViolated,
    ReducedPair,
    ReductionError,
    _conj_add,
    _conj_scale,
    _verify,
    is_reduced,
    reduce,
)
from nilpairs.structure import (
    free_coordinates,
    matches_annihilating_pattern,
    sample_nilpotent_candidate,
)


def triple_product(a, i, ri, j, rj, xi, mu):
    n = a.nrows
    f = a.field
    off = offsets(mu)
    rows = ExactMatrix.identity(f, n).tolists()
    rows[off[i - 1] + ri - 1][off[j - 1] + rj - 1] = f.canon(xi)
    e = ExactMatrix(f, rows)
    return e.mul(a).mul(e.inverse())


def test_elementary_conjugation_matches_triple_product():
    rnd = random.Random(17)
    for field in (GF3, GF(7), QQ):
        for _ in range(350):
            n = rnd.randint(2, 4)
            mu = rnd.choice(enumerate_partitions(n))
            a = ExactMatrix(field, [[rnd.randint(-4, 4) for _ in range(n)] for _ in range(n)])
            while True:
                i = rnd.randint(1, len(mu))
                ri = rnd.randint(1, mu[i - 1])
                j = rnd.randint(1, len(mu))
                rj = rnd.randint(1, mu[j - 1])
                if (i, ri) != (j, rj):
                    break
            xi = rnd.randint(-3, 3)
            got = elementary_conjugation(a, i, ri, j, rj, xi, mu)
            assert got == triple_product(a, i, ri, j, rj, xi, mu)


@pytest.mark.parametrize("field", [GF2, GF3, GF(2**31 - 1), QQ], ids=lambda f: f.name)
def test_conj_moves_match_the_products_by_e(field):
    # the add and scale moves skip zeros; compare A, T and T^-1 with E A E^-1,
    # E T and T^-1 E^-1 taken by mul, on mostly-zero rows, for E = I + xi*e[p,q]
    # and for E = I with alpha at (p, p)
    rnd = random.Random(23)

    def entry():
        if rnd.random() < 0.6:
            return 0
        return rnd.randrange(field.order) if field.is_finite else Fraction(rnd.randint(-9, 9), rnd.randint(1, 5))

    for _ in range(150):
        n = rnd.randint(2, 6)
        mats = [ExactMatrix(field, [[entry() for _ in range(n)] for _ in range(n)]) for _ in range(3)]
        p, q = rnd.sample(range(n), 2)
        xi = field.canon(entry() or 1)
        for (i, j), x, x_inv, move in (
            ((p, q), xi, field.neg(xi), lambda a, t, ti: _conj_add(field, a, t, ti, p, q, xi)),
            ((p, p), xi, field.inv(xi), lambda a, t, ti: _conj_scale(field, a, t, ti, p, xi)),
        ):
            e, e_inv = ExactMatrix.identity(field, n).tolists(), ExactMatrix.identity(field, n).tolists()
            e[i][j], e_inv[i][j] = x, x_inv
            e, e_inv = ExactMatrix(field, e), ExactMatrix(field, e_inv)
            am, tm, tim = mats
            a, t, ti = (m.tolists() for m in mats)
            move(a, t, ti)
            assert [ExactMatrix(field, m) for m in (a, t, ti)] == [e.mul(am).mul(e_inv), e.mul(tm), tim.mul(e_inv)]


def test_elementary_conjugation_identity_and_inverse():
    rnd = random.Random(3)
    mu = Partition([2, 1])
    a = ExactMatrix(QQ, [[rnd.randint(-3, 3) for _ in range(3)] for _ in range(3)])
    assert elementary_conjugation(a, 1, 1, 2, 1, 0, mu) == a
    b = elementary_conjugation(a, 1, 2, 2, 1, 5, mu)
    assert elementary_conjugation(b, 1, 2, 2, 1, -5, mu) == a
    with pytest.raises(ValueError):
        elementary_conjugation(a, 1, 1, 1, 1, 1, mu)
    with pytest.raises(ValueError):
        elementary_conjugation(a, 1, 3, 2, 1, 1, mu)


def test_step1_conjugation_keeps_a21_a22(fixture_mu):
    # a step-1 style move zeroes an A12 entry without touching A21 or A22
    a = preduction_fixture()
    mu = fixture_mu
    n = a.nrows
    val = a.entry(0, 9)
    assert val != 0
    # E with target row (block 1, row 1), source row = lambda-block-1 row 1 (block 4, pos 1)
    got = elementary_conjugation(a, 1, 1, 4, 1, -val, mu)
    assert got.entry(0, 9) == 0
    assert got.submatrix(8, n, 0, 8) == a.submatrix(8, n, 0, 8)  # A21 unchanged
    assert got.submatrix(8, n, 8, n) == a.submatrix(8, n, 8, n)  # A22 unchanged


def test_reduce_fixed_point(fixture_matrix, fixture_mu, fixture_lam):
    r = reduce(fixture_matrix, fixture_mu)
    assert r.matrix == fixture_matrix
    assert r.transform == ExactMatrix.identity(fixture_matrix.field, 16)
    assert r.lam == fixture_lam
    assert r.mu_core == Partition([3, 3, 2]) and r.ones == 8


def test_reduce_zero_matrix():
    n = 5
    mu = Partition([1] * n)
    r = reduce(ExactMatrix.zeros(GF2, n, n), mu)
    assert r.matrix.is_zero()
    assert r.lam == Partition([1] * n)


def test_reduce_golden_preduction_instance(fixture_mu, fixture_lam):
    a = preduction_fixture()
    mu = fixture_mu
    r = reduce(a, mu)
    assert r.lam == fixture_lam
    assert is_reduced(r.matrix, mu, r.lam)
    # rank of the X corner block is 3, so exactly three entries, all equal 1
    ones_entries = [
        (i, j) for i in range(8) for j in range(8, 16) if r.matrix.entry(i, j) != 0
    ]
    assert len(ones_entries) == 3
    assert all(r.matrix.entry(i, j) == 1 for i, j in ones_entries)
    # pivot columns sit first within each run: columns 8 (lam 3), 11 (first lam-2), 15 (lam 1)
    assert sorted(c for _, c in ones_entries) == [8, 11, 15]
    # pivots occupy the first rank-many core blocks, rows 1, 4, 7 (0-based 0, 3, 6)
    assert sorted(i for i, _ in ones_entries) == [0, 3, 6]
    # A21 corner matrix in column echelon form is part of is_reduced; shape preserved:
    assert r.matrix.rank_sequence() == a.rank_sequence()
    assert r.transform.mul(a).mul(r.transform.inverse()) == r.matrix


def test_reduce_preconditions():
    mu = Partition([2, 1])
    bad = ExactMatrix.identity(GF2, 3)
    with pytest.raises(PreconditionViolated):
        reduce(bad, mu)
    # annihilating but not nilpotent: nonzero A22 with a fixed vector
    rows = [[0] * 3 for _ in range(3)]
    rows[2][2] = 1
    with pytest.raises(PreconditionViolated):
        reduce(ExactMatrix(GF2, rows), mu)
    with pytest.raises(PreconditionViolated):
        reduce(ExactMatrix.zeros(GF2, 2, 2), mu)


@pytest.mark.parametrize("field", [GF2, GF(5), GF(2**61 - 1), QQ])
def test_verify_checks_each_member_of_a_stack(field):
    # the similarity products of a stack: a member's M or T^-1 taken from
    # another member fails, as row lists and, over GF(p), as integer stacks
    mu = parse_partition("2,2,1,1")
    rnd = random.Random(5)
    originals = []
    for _ in range(8):
        rows = [[0] * 6 for _ in range(6)]
        for r, c in free_coordinates(mu).positions:
            rows[r][c] = rnd.randint(-2, 2)
        b = rnd.randint(0, 1)
        rows[4][4] = rows[5][5] = rows[4 + b][5 - b] = 0  # A22 strictly triangular
        originals.append(ExactMatrix(field, rows))
    pairs = [reduce(a, mu, validate=False) for a in originals]
    tinvs = [p.transform.inverse() for p in pairs]

    def reduced(order):
        return (
            [pairs[i].matrix.rows for i in order],
            [pairs[i].transform.rows for i in order],
            [tinvs[i].rows for i in order],
        )

    same = list(range(8)) + [0]  # member 8 repeats member 0
    rows = [originals[i].rows for i in same]
    _verify(field, rows, *reduced(same))
    other = next(i for i, p in enumerate(pairs) if p.transform != pairs[0].transform)
    with pytest.raises(ReductionError, match="conjugation"):
        _verify(field, rows, *reduced([other] + same[1:]))
    with pytest.raises(ReductionError, match="inverse transform"):
        ms, ts, tis = reduced(same)
        tis[0] = tinvs[other].rows
        _verify(field, rows, ms, ts, tis)
    if field.is_finite:
        # the integer stacks census passes are checked the same way
        dtype = object if field.order > 2**31 else np.int64
        stack = np.array(rows, dtype=dtype)
        ms, ts, tis = (np.array(x, dtype=dtype) for x in reduced(same))
        _verify(field, stack, ms, ts, tis)
        with pytest.raises(ReductionError, match="conjugation"):
            _verify(field, stack[[other] + same[1:]], ms, ts, tis)
        with pytest.raises(ReductionError, match="inverse transform"):
            _verify(field, stack, ms, ts, tis[[other] + same[1:]])


def test_reduce_checks_its_output(monkeypatch):
    # stages 1-5 planted to do nothing leave A12 and A21 uncleared: not in
    # reduced form; planted to write another reduced matrix, of other ranks:
    # the rank sequence check; validate=False returns either unchecked
    import nilpairs.reduction as reduction

    a, mu = preduction_fixture(), MU_FIXTURE
    assert not is_reduced(a, mu, LAM_FIXTURE)
    rows = [[0] * 16 for _ in range(16)]
    for r, c in [(8, 9), (9, 10), (11, 12), (13, 14)]:  # J_lambda alone
        rows[r][c] = 1
    other = ExactMatrix(a.field, rows)
    assert is_reduced(other, mu, LAM_FIXTURE) and other.rank_sequence() != a.rank_sequence()

    def rewrite(f, core, lam, work, tw, ti, _stage_hook=None):
        work[:] = [list(r) for r in other.rows]

    for plant, message in ((lambda *args, **kw: None, "not in reduced form"), (rewrite, "rank sequence")):
        monkeypatch.setattr(reduction, "reduce_rows", plant)
        with pytest.raises(ReductionError, match=message):
            reduce(a, mu)
        reduce(a, mu, validate=False)


def test_reduce_reports_a_non_nilpotent_output_as_its_own_fault(monkeypatch, tmp_path, capsys):
    # stages 1-5 planted to leave a 1 on A22's diagonal, and the reduced-form
    # predicate planted to pass it: the rank-sequence check finds the output
    # not nilpotent, a fault of the reduction (ReductionError, exit 3), not
    # of the input (NotNilpotent is a ValueError, which would exit 2)
    import json

    import nilpairs.reduction as reduction
    from nilpairs.cli import main

    a, mu = preduction_fixture(), MU_FIXTURE
    real = reduction.reduce_rows

    def planted(f, core, lam, work, tw, ti, _stage_hook=None):
        real(f, core, lam, work, tw, ti, _stage_hook)
        work[-1][-1] = f.one()

    monkeypatch.setattr(reduction, "reduce_rows", planted)
    monkeypatch.setattr(reduction, "is_reduced", lambda *args: True)
    with pytest.raises(ReductionError, match="rank sequence changed during reduction"):
        reduce(a, mu)
    path = tmp_path / "a.json"
    path.write_text(json.dumps(a.to_json_dict()))
    assert main(["reduce", "--mu", format_partition(mu), "--input", str(path)]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"error": "rank sequence changed during reduction", "kind": "internal-inconsistency"}


@pytest.mark.parametrize("field", [GF2, GF3])
def test_reduce_random_invariants(field):
    count = 0
    for n in range(1, 9):
        for mu in enumerate_partitions(n):
            for seed in range(12):
                a = sample_nilpotent_candidate(mu, field, seed)
                r = reduce(a, mu)  # internal validation re-checks everything
                assert is_reduced(r.matrix, mu, r.lam)
                assert matches_annihilating_pattern(r.matrix, mu)
                count += 1
    assert count > 500


def test_reduce_stagewise_annihilating_invariant():
    mu = parse_partition("3,3,2,1^5")
    names = []

    def hook(name, mat):
        names.append(name)
        assert matches_annihilating_pattern(mat, mu), name

    for seed in range(25):
        names.clear()
        a = sample_nilpotent_candidate(mu, GF3, seed)
        reduce(a, mu, _stage_hook=hook)
        assert names == [
            "jordanize-a22",
            "clear-a12",
            "clear-a21",
            "eliminate-x",
            "reorder-runs",
            "echelon-y",
        ]


def test_is_reduced_fixture_and_negatives(fixture_matrix, fixture_mu, fixture_lam):
    assert is_reduced(fixture_matrix, fixture_mu, fixture_lam)
    # an extra 1 at a non-corner A12 position violates P2
    rows = fixture_matrix.tolists()
    rows[0][9] = 1
    assert not is_reduced(ExactMatrix(QQ, rows), fixture_mu, fixture_lam)
    # a corner entry not equal to 1 violates P2
    rows = fixture_matrix.tolists()
    rows[0][8] = 2
    assert not is_reduced(ExactMatrix(QQ, rows), fixture_mu, fixture_lam)
    # an extra corner hook makes the count exceed the rank
    rows = fixture_matrix.tolists()
    rows[3][8] = 1
    assert not is_reduced(ExactMatrix(QQ, rows), fixture_mu, fixture_lam)
    # breaking the echelon order of Y
    rows = fixture_matrix.tolists()
    rows[10][2], rows[10][5] = 0, 1
    rows[14][5], rows[14][2] = 0, 1
    assert not is_reduced(ExactMatrix(QQ, rows), fixture_mu, fixture_lam)
    # A22 must equal J_lambda
    rows = fixture_matrix.tolists()
    rows[8][9] = 0
    assert not is_reduced(ExactMatrix(QQ, rows), fixture_mu, fixture_lam)


def test_corner_matrices_of_the_worked_example(fixture_matrix, fixture_mu, fixture_lam):
    # core blocks (3,3,2) start at rows 0, 3, 6; lambda blocks (3,2,2,1) start
    # at columns 8, 11, 13, 15 and end at rows 10, 12, 14, 15
    r = reduce(fixture_matrix, fixture_mu)
    assert r.matrix == fixture_matrix and r.lam == fixture_lam
    x = [[0] * 4 for _ in range(3)]
    for t, j in [(0, 0), (1, 1), (2, 3)]:
        x[t][j] = 1
    y = [[0] * 3 for _ in range(4)]
    for j, t in [(0, 0), (2, 1), (3, 2)]:
        y[j][t] = 1
    assert r.x_corner() == ExactMatrix(QQ, x)
    assert r.y_corner() == ExactMatrix(QQ, y)


def test_is_reduced_zero_with_all_ones_lambda():
    mu = Partition([2, 1, 1])
    z = ExactMatrix.zeros(GF2, 4, 4)
    assert is_reduced(z, mu, Partition([1, 1]))
    assert not is_reduced(z, mu, Partition([2]))


def test_reduced_pair_json_roundtrip(fixture_matrix, fixture_mu):
    r = reduce(fixture_matrix, fixture_mu)
    doc = r.to_json_dict()
    back = ReducedPair.from_json_dict(doc)
    assert back.matrix == r.matrix
    assert back.transform == r.transform
    assert back.lam == r.lam and back.mu == r.mu


def test_reduce_block_diagonal_lambda_only():
    # zero couplings: reduced matrix is J_lambda in the ones corner
    mu = parse_partition("2,2,1,1,1")
    n = mu.n
    rows = [[0] * n for _ in range(n)]
    rows[4][5] = 1  # A22 nilpotent of shape (2,1)
    a = ExactMatrix(GF3, rows)
    r = reduce(a, mu)
    assert r.lam == Partition([2, 1])
    assert r.a22() == jordan_matrix(Partition([2, 1]), GF3)
    assert r.a12().is_zero() and r.a21().is_zero()


def test_is_reduced_rejects_split_pivot_run():
    # run of three equal lambda parts with pattern (pivot, zero, pivot) must fail
    mu = parse_partition("2,2,1,1,1")
    lam = Partition([1, 1, 1])
    n = 7
    rows = [[0] * n for _ in range(n)]
    rows[0][4] = 1  # X hook, run col 1
    rows[2][6] = 1  # X hook, run col 3; col 2 zero
    a = ExactMatrix(QQ, rows)
    assert not is_reduced(a, mu, lam)
    # pivots in the first two run columns pass
    rows = [[0] * n for _ in range(n)]
    rows[0][4] = 1
    rows[2][5] = 1
    assert is_reduced(ExactMatrix(QQ, rows), mu, lam)


@pytest.mark.parametrize("x, ok", [((1, 0, 0), True), ((0, 0, 0), True), ((0, 1, 0), False), ((0, 0, 1), False)])
def test_is_reduced_wants_the_run_pivot_first(x, ok):
    # mu = 2,1,1,1 and lambda = 1,1,1: X is one run of three equal parts,
    # and reduce puts its pivot column first
    mu = parse_partition("2,1,1,1")
    rows = [[0] * 5 for _ in range(5)]
    rows[0][2:] = x
    assert is_reduced(ExactMatrix(GF2, rows), mu, Partition([1, 1, 1])) is ok


def test_reduce_random_invariants_gf5():
    from nilpairs.fields import GF

    for n in range(1, 8):
        for mu in enumerate_partitions(n):
            for seed in range(4):
                a = sample_nilpotent_candidate(mu, GF(5), seed)
                r = reduce(a, mu)
                assert is_reduced(r.matrix, mu, r.lam)

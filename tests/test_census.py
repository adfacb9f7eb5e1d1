import numpy as np
import pytest

from nilpairs import census
from nilpairs.census import (
    _gf2_ranks,
    _gfp_ranks,
    exhaustive_shape_census,
    sampled_shape_census,
    verify_shapes,
)
from nilpairs.characterize import enumerate_shapes
from nilpairs.fields import GF2, GF3, GF
from nilpairs.jordan import InternalInconsistency
from nilpairs.matrix import ExactMatrix
from nilpairs.oracles import candidate_at, reference_shape_census, sample_candidate
from nilpairs.partitions import Partition, enumerate_partitions, parse_partition, split_core
from nilpairs.structure import BudgetExceeded, candidate_count, free_coordinates


def test_vectorized_census_matches_reference():
    for n in range(1, 5):
        for mu in enumerate_partitions(n):
            for field in (GF2, GF3, GF(5)):
                if candidate_count(mu, field) > 2**14:
                    continue
                assert exhaustive_shape_census(mu, field) == reference_shape_census(mu, field), (
                    tuple(mu),
                    field.name,
                )


def test_census_counts_nilpotent_total():
    # over GF(q), mu = (1^n) counts all nilpotent n x n matrices: q^(n^2 - n)
    assert sum(exhaustive_shape_census(Partition([1] * 3), GF2).values()) == 2**6
    assert sum(exhaustive_shape_census(Partition([1] * 3), GF3).values()) == 3**6
    assert sum(exhaustive_shape_census(Partition([1] * 4), GF2).values()) == 2**12


# full count dicts of the exhaustive census, taken from a run that built all
# p^(F - m) nilpotent candidates one by one, so they check the orbit weights
# independently of the formula
GOLDEN_CENSUS = {
    ("1^5", 2): {
        "5": 624960,
        "4,1": 312480,
        "3,2": 78120,
        "3,1,1": 26040,
        "2,2,1": 6510,
        "2,1,1,1": 465,
        "1,1,1,1,1": 1,
    },
    ("2,1,1,1", 3): {
        "5": 606528,
        "4,1": 707616,
        "3,2": 179712,
        "3,1,1": 85644,
        "2,2,1": 13728,
        "2,1,1,1": 1094,
        "1,1,1,1,1": 1,
    },
    ("3,2,1,1", 2): {
        "4,2,1": 3456,
        "4,1,1,1": 3456,
        "3,3,1": 576,
        "3,2,1,1": 5616,
        "3,1,1,1,1": 1584,
        "2,2,2,1": 504,
        "2,2,1,1,1": 1062,
        "2,1,1,1,1,1": 129,
        "1,1,1,1,1,1,1": 1,
    },
    ("3,1,1,1", 2): {
        "5,1": 1344,
        "4,1,1": 3360,
        "3,2,1": 1512,
        "3,1,1,1": 1400,
        "2,2,1,1": 462,
        "2,1,1,1,1": 113,
        "1,1,1,1,1,1": 1,
    },
}


@pytest.mark.parametrize("case", sorted(GOLDEN_CENSUS), ids=lambda c: f"{c[0]}-gf{c[1]}")
def test_census_golden_counts(case):
    text, p = case
    mu = parse_partition(text)
    expected = {parse_partition(s): c for s, c in GOLDEN_CENSUS[case].items()}
    assert sum(expected.values()) == p ** (len(free_coordinates(mu)) - split_core(mu).ones)
    assert exhaustive_shape_census(mu, GF(p), budget=2**26) == expected


def test_census_budget():
    with pytest.raises(BudgetExceeded):
        exhaustive_shape_census(Partition([1] * 5), GF2, budget=1000)


def _stream_census(mu, field, samples, seed):
    """Per-matrix twin of sampled_shape_census on the same sample stream."""
    ref: dict = {}
    for i in range(samples):
        c = sample_candidate(mu, field, seed, index=i)
        if c.is_nilpotent():
            s = c.nilpotent_shape()
            ref[s] = ref.get(s, 0) + 1
    return ref, sum(ref.values())


def test_sampled_census_matches_stream():
    mu = parse_partition("2,2,1")
    assert sampled_shape_census(mu, GF3, 400, seed=5) == _stream_census(mu, GF3, 400, 5)


def test_sampled_census_matches_stream_gf2_bit_rows():
    mu = parse_partition("3,2,1,1")  # 0 < m < n: A22 is a 2 x 2 block of a 7 x 7 bit-row matrix
    counts, nilp = sampled_shape_census(mu, GF2, 600, seed=5)
    assert (counts, nilp) == _stream_census(mu, GF2, 600, 5)
    assert 0 < nilp < 600


def test_sampled_census_past_int64_bound_matches_stream():
    # 4 x 4 products over GF(2^31 - 1) pass 2^62, so the batches hold Python
    # ints; (2,2) has m = 0, so every draw is nilpotent
    mu, field = Partition([2, 2]), GF(2**31 - 1)
    for samples in (1, 50):
        counts, nilp = sampled_shape_census(mu, field, samples, seed=0)
        assert (counts, nilp) == _stream_census(mu, field, samples, 0)
        assert nilp == samples


def test_census_and_verify_past_int64_bound_on_large_entries(monkeypatch):
    # every draw is one nilpotent 2,1^4 candidate with entries p - 1 and 3
    # (A22 = u v^T, v.u = 0); its products pass 2^63, which int64 would wrap
    from nilpairs import rng

    field, mu = GF(2**31 - 1), parse_partition("2,1,1,1,1")
    positions = free_coordinates(mu).positions
    rows = [[0] * 6 for _ in range(6)]
    for r, c in positions:
        rows[r][c] = 3 if r == 5 and c >= 2 else field.order - 1
    shape = ExactMatrix(field, rows).nilpotent_shape()
    vals = [rows[r][c] for r, c in positions]
    monkeypatch.setattr(rng, "values_mod_np", lambda seed, start, count, p: np.array(vals * (count // len(vals))))
    assert sampled_shape_census(mu, field, 3, seed=0) == ({shape: 3}, 3)
    rep = verify_shapes(mu, field, mode="sample", samples=3)
    assert rep.ok and rep.observed == (shape,)


CHUNKED_CASES = ("2,2", "3,3", "2,1,1", "3,1,1", "2,2,1", "1,1,1")


def _record_chunks(monkeypatch):
    """Cap batches at 7 candidates and record the sizes of the stacks that
    `_nilpotent_mask` (A22 chunks) and `_rank_rows` (candidate batches) see."""
    monkeypatch.setattr(census, "_BATCH", 7)
    monkeypatch.setattr(census, "_INT64_CELLS", 100)
    sizes = {"a22": [], "batch": []}
    mask, rank_rows = census._nilpotent_mask, census._rank_rows

    def record_mask(mats, n, p, bits):
        sizes["a22"].append(mats.shape[0])
        return mask(mats, n, p, bits)

    def record_rank_rows(mats, n, p, bits):
        sizes["batch"].append(mats.shape[0])
        return rank_rows(mats, n, p, bits)

    monkeypatch.setattr(census, "_nilpotent_mask", record_mask)
    monkeypatch.setattr(census, "_rank_rows", record_rank_rows)
    return sizes


@pytest.mark.parametrize("field", [GF2, GF3, GF(5)], ids=lambda f: f.name)
def test_chunked_a22_census_matches_reference(monkeypatch, field):
    # caps small enough that each J_lambda's crossing with the outer
    # coordinates comes in several batches; the census walks no A22 block
    sizes = _record_chunks(monkeypatch)
    for text in CHUNKED_CASES:
        mu = parse_partition(text)
        if candidate_count(mu, field) > 20000:
            continue
        sizes["a22"].clear()
        sizes["batch"].clear()
        got = exhaustive_shape_census(mu, field)
        assert got == reference_shape_census(mu, field), (text, field.name)
        cap = 7 if field.order == 2 else census._int64_batch(mu.n, 7)
        m = split_core(mu).ones
        built = len(enumerate_partitions(m)) * field.order ** (len(free_coordinates(mu)) - m * m)
        assert max(sizes["batch"]) <= cap and not sizes["a22"], text
        assert sum(sizes["batch"]) == built and len(sizes["batch"]) > 1, text


@pytest.mark.parametrize("field", [GF2, GF3, GF(5)], ids=lambda f: f.name)
def test_chunked_a22_verify_walks_every_block(monkeypatch, field):
    # verify walks the A22 blocks in several chunks and crosses the nilpotent
    # ones with the outer coordinates in several batches
    sizes = _record_chunks(monkeypatch)
    for text in CHUNKED_CASES:
        mu = parse_partition(text)
        if candidate_count(mu, field) > 20000:
            continue
        sizes["a22"].clear()
        sizes["batch"].clear()
        assert verify_shapes(mu, field).verdict == "equal", (text, field.name)
        cap = 7 if field.order == 2 else census._int64_batch(mu.n, 7)
        m = split_core(mu).ones
        nilpotent = field.order ** (len(free_coordinates(mu)) - m)
        assert max(sizes["a22"] + sizes["batch"]) <= cap, text
        assert len(sizes["a22"]) == -(-field.order ** (m * m) // cap), text
        assert sum(sizes["batch"]) == nilpotent and len(sizes["batch"]) > 1, text


def test_verify_exhaustive_examples():
    rep = verify_shapes(parse_partition("3,2"), GF2, mode="exhaustive")
    assert rep.verdict == "equal"
    assert set(rep.observed) == {
        Partition([2, 2, 1]),
        Partition([2, 1, 1, 1]),
        Partition([1, 1, 1, 1, 1]),
    }
    rep = verify_shapes(parse_partition("2,1,1"), GF2, mode="exhaustive")
    assert rep.verdict == "equal"
    assert set(rep.observed) == set(enumerate_partitions(4))
    rep = verify_shapes(parse_partition("1,1"), GF2, mode="exhaustive")
    assert rep.verdict == "equal"
    assert set(rep.observed) == {Partition([1, 1]), Partition([2])}


def test_verify_sampled_subset():
    rep = verify_shapes(parse_partition("2,2,1"), GF3, mode="sample", samples=300, seed=1)
    assert rep.verdict in ("subset", "equal")
    assert set(rep.observed) <= set(rep.predicted)
    doc = rep.to_json_dict()
    assert doc["mode"] == "sample" and doc["samples"] == 300 and doc["seed"] == 1


def test_verify_report_json():
    rep = verify_shapes(parse_partition("2,1"), GF2, mode="exhaustive")
    doc = rep.to_json_dict()
    assert doc["verdict"] == "equal"
    assert doc["mu"] == "2,1"
    assert doc["predicted"] == doc["observed"]


def test_census_prediction_equality_other_fields():
    # field independence: the predicted shape set is realized over GF(3) and
    # GF(5) too on every space small enough to enumerate
    for n in range(1, 6):
        for mu in enumerate_partitions(n):
            for field in (GF3, GF(5)):
                if candidate_count(mu, field) > 20000:
                    continue
                observed = set(exhaustive_shape_census(mu, field))
                assert observed == set(enumerate_shapes(mu)), (tuple(mu), field.name)


@pytest.mark.parametrize("n", [6, 7])
def test_census_prediction_equality_gf2_all_mu(n):
    # exhaustive GF(2) completeness for every mu of n; the transversal builds
    # p(m) 2^(F - m^2) matrices to cover up to 2^49 candidates (1^7)
    for mu in enumerate_partitions(n):
        observed = set(exhaustive_shape_census(mu, GF2, budget=2**49))
        assert observed == set(enumerate_shapes(mu)), tuple(mu)


def test_verify_mismatch_encoding(monkeypatch):
    import nilpairs.characterize as characterize

    real = characterize.enumerate_shapes

    def missing_one(mu):
        return real(mu)[1:]  # drop the first predicted shape

    monkeypatch.setattr(characterize, "enumerate_shapes", missing_one)
    rep = verify_shapes(parse_partition("2,1"), GF2, mode="exhaustive")
    assert rep.verdict == "mismatch"
    assert rep.details.get("unexpected")

    def extra_one(mu):
        return real(mu) + (Partition([mu.n]),)

    monkeypatch.setattr(characterize, "enumerate_shapes", extra_one)
    rep = verify_shapes(parse_partition("2,2"), GF2, mode="exhaustive")
    assert rep.verdict == "mismatch"
    assert rep.details.get("missing")


def test_verify_disagreements_carry_odometer_indices(monkeypatch):
    # a formula that always answers (n) disagrees with every other nilpotent
    # candidate; the report names them by their odometer index
    import nilpairs.jordan as jordan

    mu = parse_partition("2,1,1")
    monkeypatch.setattr(jordan, "shape_of_reduced", lambda pair: Partition([mu.n]))
    rep = verify_shapes(mu, GF2, mode="exhaustive")
    expected = []
    for i in range(candidate_count(mu, GF2)):
        c = candidate_at(mu, GF2, i)
        if c.is_nilpotent() and c.nilpotent_shape() != Partition([mu.n]):
            expected.append(i)
    assert rep.verdict == "mismatch"
    assert [d["index"] for d in rep.details["shape_disagreements"]] == expected[:20]


def test_verify_sample_disagreements_carry_sample_indices(monkeypatch):
    # the sampled twin: the report names the disagreeing draws by sample index
    import nilpairs.jordan as jordan

    mu = parse_partition("2,2,1")
    monkeypatch.setattr(jordan, "shape_of_reduced", lambda pair: Partition([mu.n]))
    rep = verify_shapes(mu, GF3, mode="sample", samples=300, seed=4)
    expected = []
    for i in range(300):
        c = sample_candidate(mu, GF3, 4, index=i)
        if c.is_nilpotent() and c.nilpotent_shape() != Partition([mu.n]):
            expected.append(i)
    assert rep.verdict == "mismatch" and len(expected) > 20
    assert [d["index"] for d in rep.details["shape_disagreements"]] == expected[:20]


@pytest.mark.parametrize("mode", ["exhaustive", "sample"])
def test_verify_reduces_every_nilpotent_candidate(monkeypatch, mode):
    # every nilpotent candidate is dual-checked: one run of stages 1-5 on
    # its rows each, in several batches and check slices, over bit rows,
    # int64 and Python ints
    import nilpairs.reduction as reduction

    monkeypatch.setattr(census, "_BATCH", 64)
    monkeypatch.setattr(census, "_INT64_CELLS", 64 * 9)
    monkeypatch.setattr(census, "_OBJECT_CELLS", 16 * 9)
    monkeypatch.setattr(census, "_DUAL_CHECK", 5)
    calls = []
    real = reduction.reduce_rows

    def counting(f, core, lam, work, *args, **kwargs):
        calls.append(work)
        return real(f, core, lam, work, *args, **kwargs)

    monkeypatch.setattr(reduction, "reduce_rows", counting)
    for text, field in (("2,1,1", GF2), ("2,1", GF(5)), ("2,2,1", GF3), ("2,2", GF(2**31 - 1))):
        mu = parse_partition(text)
        calls.clear()
        if mode == "exhaustive":
            if candidate_count(mu, field) > 2**12:
                continue
            expected = field.order ** (len(free_coordinates(mu)) - split_core(mu).ones)
            rep = verify_shapes(mu, field)
        else:
            expected = sampled_shape_census(mu, field, 200, seed=6)[1]
            rep = verify_shapes(mu, field, mode="sample", samples=200, seed=6)
        assert rep.ok and len(calls) == expected > 0, (text, field.name)


@pytest.mark.parametrize(
    "text, field, mode",
    [
        ("2,1,1", GF2, "exhaustive"),
        ("2,2", GF2, "exhaustive"),
        ("2,1", GF(5), "exhaustive"),
        ("2,2,1", GF3, "exhaustive"),
        ("2,2", GF(2**31 - 1), "sample"),
    ],
    ids=lambda v: getattr(v, "name", v),
)
def test_batched_reduction_matches_per_matrix(monkeypatch, text, field, mode):
    # verify's batched stage 0 and list-level stages 1-5 give every nilpotent
    # candidate the (lambda, M, T, T^-1) of the per-matrix reduce_stages, over
    # bit rows, int64 and Python ints, m = 0 included; check slices are
    # tiny, so the candidates of one A22 block span several slices and some
    # slices hold two blocks; the int64 and Python-int batches are tiny too,
    # and one bit-row batch holds all four blocks of 2,1,1/GF(2)
    import nilpairs.reduction as reduction

    monkeypatch.setattr(census, "_BATCH", 128)
    monkeypatch.setattr(census, "_INT64_CELLS", 16 * 25)
    monkeypatch.setattr(census, "_OBJECT_CELLS", 16 * 25)
    monkeypatch.setattr(census, "_DUAL_CHECK", 3)
    seen, blocks = [], []
    real = reduction._verify

    def capture(mu, f, originals, reduced, rank_rows):
        seen.extend(zip(originals.tolist(), reduced))
        blocks.append({str(a[n - m :, n - m :].tolist()) for a in originals})
        return real(mu, f, originals, reduced, rank_rows)

    monkeypatch.setattr(reduction, "_verify", capture)
    mu = parse_partition(text)
    n, m = mu.n, split_core(mu).ones
    assert verify_shapes(mu, field, mode=mode, samples=60, seed=2).ok
    if mode == "exhaustive":
        expected = field.order ** (len(free_coordinates(mu)) - m)
        assert len({str(rows) for rows, _ in seen}) == expected
        assert m == 0 or any(b & c for b, c in zip(blocks, blocks[1:])), "no A22 block spans two slices"
        assert m < 2 or any(len(b) > 1 for b in blocks), "no slice holds two A22 blocks"
    else:
        expected = sampled_shape_census(mu, field, 60, seed=2)[1]
    assert len(seen) == expected > 0
    for rows, (lam, mat, t, ti) in seen:
        a = ExactMatrix(field, rows)
        pair, tinv = reduction.reduce_stages(a, mu, reduction.jordanize_ones(a.submatrix(n - m, n, n - m, n)))
        assert (lam, mat) == (pair.lam, pair.matrix.rows), rows
        assert (t, ti) == (pair.transform.tolists(), tinv.tolists()), rows


def _one_stage0_for_all(monkeypatch):
    """Hand every candidate the stage 0 of the first A22 block seen (a wrong P)."""
    import nilpairs.reduction as reduction

    real, first = reduction.jordanize_ones, []

    def stale(a22):
        if not first:
            first.append(real(a22))
        return first[0]

    monkeypatch.setattr(reduction, "jordanize_ones", stale)


def _one_a22_key(monkeypatch):
    """Key every candidate's stage 0 by the same (wrong) key."""
    monkeypatch.setattr(census, "_a22_key", lambda rows, base: ())


@pytest.mark.parametrize("plant", [_one_stage0_for_all, _one_a22_key])
def test_verify_planted_stage0_fault_is_internal(monkeypatch, capsys, plant):
    # a candidate reduced with another block's P fails the batched
    # conjugation check: ReductionError, and exit 3 from the CLI
    import json

    from nilpairs.cli import main
    from nilpairs.reduction import ReductionError

    plant(monkeypatch)
    for mode in ("exhaustive", "sample"):
        with pytest.raises(ReductionError):
            verify_shapes(parse_partition("2,1,1"), GF2, mode=mode, samples=200)
    assert main(["verify", "--mu", "2,1,1", "--field", "gf2"]) == 3
    assert json.loads(capsys.readouterr().out)["kind"] == "internal-inconsistency"


def test_verify_exhaustive_2111_gf2():
    # 8,192 nilpotent candidates over 64 A22 blocks, every one dual-checked
    mu = parse_partition("2,1,1,1")
    rep = verify_shapes(mu, GF2)
    assert rep.verdict == "equal"
    assert set(rep.observed) == set(exhaustive_shape_census(mu, GF2))


def _gl_order(m: int, q: int) -> int:
    out = 1
    for i in range(m):
        out *= q**m - q**i
    return out


def _nilpotent_class_size(shape: Partition, q: int) -> int:
    """|GL_n(q)| / |centralizer of J_shape| (Macdonald's formula)."""
    conj = [sum(1 for x in shape if x >= i) for i in range(1, (shape[0] if shape else 0) + 1)]
    mults = [sum(1 for x in shape if x == v) for v in set(shape)]
    centralizer = q ** (sum(c * c for c in conj) - sum(m * m for m in mults))
    for m in mults:
        centralizer *= _gl_order(m, q)
    return _gl_order(shape.n, q) // centralizer


def test_vectorized_census_class_sizes():
    # 1^n enumerates every n x n matrix, so each shape count is a class size
    for n, field in ((3, GF2), (4, GF2), (3, GF3)):
        mu = Partition([1] * n)
        expected = {s: _nilpotent_class_size(s, field.order) for s in enumerate_partitions(n)}
        assert exhaustive_shape_census(mu, field) == expected


def test_census_orbit_sizes_sum_to_nilpotent_count():
    # the orbit weights of the census, summed over lambda |- m, count the
    # nilpotent m x m matrices over GF(q): q^(m^2 - m) (Fine-Herstein)
    for q in (2, 3, 5, 7):
        for m in range(7):
            total = sum(census._orbit_size(lam, q) for lam in enumerate_partitions(m))
            assert total == q ** (m * m - m), (m, q)


def test_vectorized_census_counts_match_reference():
    mu = parse_partition("2,1")
    assert candidate_count(mu, GF(11)) == 14641
    assert exhaustive_shape_census(mu, GF(11)) == reference_shape_census(mu, GF(11))
    # an annihilating-form matrix is nilpotent iff its ones block is:
    # p^(F - m) of them (Fine-Herstein on the m x m block)
    mu = parse_partition("2,1,1,1")
    counts = exhaustive_shape_census(mu, GF2)
    assert sum(counts.values()) == 2 ** (len(free_coordinates(mu)) - 3)
    assert set(counts) == set(enumerate_shapes(mu))


def test_census_gf2_wider_than_a_bit_row(monkeypatch):
    # n > 32 does not fit a uint32 bit row; (33) has candidates {0, E_(0,32)}
    assert exhaustive_shape_census(Partition([33]), GF2) == {
        Partition([1] * 33): 1,
        Partition([2] + [1] * 31): 1,
    }
    monkeypatch.setattr(census, "_INT64_CELLS", 100 * 33 * 33)  # 512 candidates in 6 batches
    for text in ("17,17", "30,1,1", "11,11,11", "62,1"):  # 30,1,1: n = 32, the widest bit row
        mu = parse_partition(text)
        assert exhaustive_shape_census(mu, GF2) == reference_shape_census(mu, GF2), text
    mu = parse_partition("11,11,11")
    assert sampled_shape_census(mu, GF2, 40, seed=3) == _stream_census(mu, GF2, 40, 3)


def test_census_rank_rows_past_63_columns():
    # rank rows holding 64 or more do not fit an int64 bit mask; the samples of
    # 2^66 have ranks 64, 65 and 66, which such a mask would merge
    mu = Partition([2] * 66)
    counts, nilp = sampled_shape_census(mu, GF2, 20, seed=1)
    assert (counts, nilp) == _stream_census(mu, GF2, 20, 1)
    assert len(counts) == 3


def _rank_test_stack(rnd: np.random.Generator, n: int, p: int) -> np.ndarray:
    """Random members plus zero, nilpotent, full-rank and low-rank ones."""
    mats = rnd.integers(0, p, size=(24, n, n), dtype=np.int64)
    mats[0] = 0
    mats[1] = np.triu(mats[1], 1)  # strictly upper triangular: nilpotent
    mats[2] = np.triu(mats[2], 1) + np.eye(n, dtype=np.int64)  # unit triangular: full rank
    mats[3] = (mats[3][:, :1] * mats[4][:1, :]) % p  # rank <= 1
    mats[4] = mats[5] * (rnd.integers(0, 4, size=(n, n)) == 0)  # sparse
    return mats


def test_batched_rank_routines_match_exact_rank():
    rnd = np.random.default_rng(2024)
    for p in (2, 3, 11, 32003, 2**31 - 1):
        for n in range(0, 12):
            mats = _rank_test_stack(rnd, n, p)
            expected = [ExactMatrix(GF(p), m.tolist(), ncols=n).rank() for m in mats]
            assert _gfp_ranks(mats, p).tolist() == expected, (p, n)
            if p == 2:
                shifts = np.arange(n, dtype=np.uint32)
                bits = (mats.astype(np.uint32) << shifts).sum(axis=2, dtype=np.uint32)
                assert _gf2_ranks(bits, n).tolist() == expected, n


def test_rank_rows_raise_on_a_stack_that_is_not_nilpotent():
    # the powers of I_2 never reach zero: the capped loop raises instead of spinning
    eye = np.eye(2, dtype=np.int64)[None]
    with pytest.raises(InternalInconsistency):
        census._rank_rows(eye, 2, 3, False)
    with pytest.raises(InternalInconsistency):
        census._rank_rows(eye.astype(object), 2, 3, False)
    bits = np.array([[0b01, 0b10]], dtype=np.uint32)
    with pytest.raises(InternalInconsistency):
        census._rank_rows(bits, 2, 2, True)
    nilpotent = np.array([[[0, 1], [0, 0]]], dtype=np.int64)
    assert census._rank_rows(np.concatenate([nilpotent, nilpotent]), 2, 3, False).tolist() == [[2, 1, 0]] * 2

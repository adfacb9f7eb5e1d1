import hashlib
import itertools

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
from nilpairs.partitions import (
    Partition,
    conjugate,
    enumerate_partitions,
    format_partition,
    parse_partition,
    split_core,
)
from nilpairs.structure import BudgetExceeded, candidate_count, free_coordinates, pattern_layout


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
    # the budget bounds the matrices the census builds: 1^5/GF(2) builds one
    # J_lambda per partition of 5, 7 matrices, for its 2^20 nilpotent candidates
    mu = Partition([1] * 5)
    with pytest.raises(BudgetExceeded):
        exhaustive_shape_census(mu, GF2, budget=6)
    counts = exhaustive_shape_census(mu, GF2, budget=7)
    assert sum(counts.values()) == 2**20 and set(counts) == set(enumerate_shapes(mu))


def test_sampled_census_budget(monkeypatch):
    # the budget bounds the draws, and a refused or negative count draws nothing
    from nilpairs import rng

    mu = parse_partition("2,2,1")
    assert sampled_shape_census(mu, GF3, 100, seed=0, budget=100) == _stream_census(mu, GF3, 100, 0)
    monkeypatch.setattr(rng, "values_mod_np", None)
    with pytest.raises(BudgetExceeded) as info:
        sampled_shape_census(mu, GF3, 101, seed=0, budget=100)
    assert (info.value.required, info.value.budget) == (101, 100)
    with pytest.raises(BudgetExceeded):
        sampled_shape_census(mu, GF3, 10**12, seed=0)
    with pytest.raises(ValueError, match="non-negative"):
        sampled_shape_census(mu, GF3, -1, seed=0)


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
    mu = parse_partition("3,2,1,1")  # 0 < m < n: A22 is the 2 x 2 block of a 4 x 4 bit-row corner
    counts, nilp = sampled_shape_census(mu, GF2, 600, seed=5)
    assert (counts, nilp) == _stream_census(mu, GF2, 600, 5)
    assert 0 < nilp < 600


def test_sampled_census_past_int64_bound_matches_stream():
    # 2 x 2 corner products over GF(2^31 - 1) pass 2^62, so the batches hold Python
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
    monkeypatch.setattr(rng, "values_mod_np", lambda seed, idx, p: np.array(vals)[idx % len(vals)])
    assert sampled_shape_census(mu, field, 3, seed=0) == ({shape: 3}, 3)
    rep = verify_shapes(mu, field, mode="sample", samples=3)
    assert rep.ok and rep.observed == (shape,)


CHUNKED_CASES = ("2,2", "3,3", "2,1,1", "3,1,1", "2,2,1", "1,1,1")


def _record_chunks(monkeypatch):
    """Cap batches at 7 candidates and record the sizes of the stacks that
    `_nilpotent_mask` (A22 chunks), `_rank_rows` (candidate batches) and
    `_cross_outer` (groups and members of each batch) see."""
    monkeypatch.setattr(census, "_BATCH", 7)
    monkeypatch.setattr(census, "_INT64_CELLS", 100)
    sizes = {"a22": [], "batch": [], "groups": [], "members": []}
    mask, rank_rows, cross = census._nilpotent_mask, census._rank_rows, census._cross_outer

    def record_mask(mats, n, p, bits):
        sizes["a22"].append(mats.shape[0])
        return mask(mats, n, p, bits)

    def record_rank_rows(mats, mu, p, bits):
        sizes["batch"].append(mats.shape[0])
        return rank_rows(mats, mu, p, bits)

    def record_cross(mu, field, blocks):
        for groups, members in cross(mu, field, blocks):
            sizes["groups"].append(groups.shape[0])
            sizes["members"].append(members.shape[0])
            yield groups, members

    monkeypatch.setattr(census, "_nilpotent_mask", record_mask)
    monkeypatch.setattr(census, "_rank_rows", record_rank_rows)
    monkeypatch.setattr(census, "_cross_outer", record_cross)
    return sizes


def _corner_cap(mu, field):
    """Members per batch of mu's K x K corners under the caps `_record_chunks` sets."""
    size = census._a22_split(mu)[1]
    return census._batch_size(size, 7, census._dtype(size, field))


def _table_size(mu, p, cap):
    """Members per group: p^t, t <= k^2 the most X11 digits whose p^t patterns fit a batch of cap."""
    k = census._a22_split(mu)[0]
    return max(p**t for t in range(k * k + 1) if p**t <= cap)


@pytest.mark.parametrize("field", [GF2, GF3, GF(5)], ids=lambda f: f.name)
def test_chunked_a22_census_matches_reference(monkeypatch, field):
    # caps small enough that the crossing of all J_lambda with the outer
    # coordinates, one stack, comes in several full batches; the census
    # walks no A22 block, runs the power chain on the groups only, holds at
    # most the cap in members per batch and builds each member once
    sizes = _record_chunks(monkeypatch)
    for text in CHUNKED_CASES:
        mu = parse_partition(text)
        if candidate_count(mu, field) > 20000:
            continue
        for recorded in sizes.values():
            recorded.clear()
        got = exhaustive_shape_census(mu, field)
        assert got == reference_shape_census(mu, field), (text, field.name)
        cap, m = _corner_cap(mu, field), split_core(mu).ones
        spread = _table_size(mu, field.order, cap)
        built = len(enumerate_partitions(m)) * field.order ** (len(free_coordinates(mu)) - m * m)
        assert max(sizes["members"]) <= cap and not sizes["a22"], text
        assert sum(sizes["members"]) == built and sum(sizes["groups"]) == built // spread, text
        assert sizes["members"] == [g * spread for g in sizes["groups"]], text
        assert sizes["batch"] == sizes["groups"], text
        assert len(sizes["groups"]) == -(-(built // spread) // (cap // spread)), text


@pytest.mark.parametrize("field", [GF2, GF3, GF(5)], ids=lambda f: f.name)
def test_census_weights_each_member_by_its_lambda(monkeypatch, field):
    # every J_lambda crosses the outer coordinates in one stack: under
    # 7-member batches a batch boundary falls inside one lambda's crossing,
    # one batch holds members of two lambdas (two A22 blocks), and each
    # member still counts its own lambda's orbit size.  1^m (k = 0) is
    # checked against the class sizes, the rest against the per-matrix census
    monkeypatch.setattr(census, "_BATCH", 7)
    monkeypatch.setattr(census, "_INT64_CELLS", 100)
    batches, cross = [], census._cross_outer

    def record(mu, field, blocks):
        for groups, members in cross(mu, field, blocks):
            batches.append(set(_a22_list(members, census._a22_split(mu)[0])))
            yield groups, members

    monkeypatch.setattr(census, "_cross_outer", record)
    mixed, spanning = set(), set()
    for text in ("1,1,1", "1,1,1,1", "2,1", "2,1,1", "2,2,1"):
        mu = parse_partition(text)
        k = census._a22_split(mu)[0]
        if k and candidate_count(mu, field) > 20000:
            continue
        batches.clear()
        got = exhaustive_shape_census(mu, field)
        if k:
            assert got == reference_shape_census(mu, field), (text, field.name)
        else:
            assert got == {s: _nilpotent_class_size(s, field.order) for s in enumerate_partitions(mu.n)}, text
        if any(len(b) > 1 for b in batches):
            mixed.add(text)
        if any(a & b for a, b in zip(batches, batches[1:])):
            spanning.add(text)
    assert {"1,1,1", "1,1,1,1"} <= mixed and "2,1" in spanning
    if field.order < 5:  # 2,1,1 has two lambdas and 2^4 or 3^4 groups of p members each
        assert "2,1,1" in mixed & spanning


def _member_census(mu, field):
    """The exhaustive census without the groups: every member's own `_rank_rows`
    chain, weighted by the orbit size of the lambda its A22 block has."""
    k, size, _ = census._a22_split(mu)
    p, lams = field.order, enumerate_partitions(size - k)
    blocks = [census._jordan_stack(lam) for lam in lams]
    weight = {b[0].tobytes(): census._orbit_size(lam, p) for lam, b in zip(lams, blocks)}
    counts: dict = {}
    for _, members in census._cross_outer(mu, field, [np.concatenate(blocks)]):
        rows = census._rank_rows(members, mu, p, members.dtype == np.uint32)
        for seq, a22 in zip(rows.tolist(), _a22_list(members, k)):
            # rk A^(s-1) - rk A^s Jordan blocks have size >= s
            shape = conjugate(Partition([a - b for a, b in zip(seq, seq[1:]) if a > b]))
            counts[shape] = counts.get(shape, 0) + weight[a22]
    return counts


def _a22_list(members, k):
    """Each member's A22 block, as int64 bytes."""
    if members.dtype == np.uint32:
        members = members[:, :, None] >> np.arange(members.shape[1], dtype=np.uint32) & np.uint32(1)
    return [a22.tobytes() for a22 in members[:, k:, k:].astype(np.int64)]


@pytest.mark.parametrize("field", [GF2, GF3, GF(5)], ids=lambda f: f.name)
def test_grouped_census_matches_an_ungrouped_count(monkeypatch, field):
    # every mu with n <= 5, at the default batch and, where it builds at most
    # 7,000 members, under 7-member batches: the per-matrix census where it
    # has at most 20,000 candidates, the class sizes for 1^m (k = 0), else
    # every member's own power chain.  Over GF(3), 2,2 and 2,2,1 (k = 2) have
    # 81 X11 patterns, more than 7 members, so X11 digits spill into the groups
    p, spilled = field.order, set()
    for n in range(1, 6):
        for mu in enumerate_partitions(n):
            k, size, outer = census._a22_split(mu)
            if candidate_count(mu, field) <= 20000:
                expected = reference_shape_census(mu, field)
            elif not k:
                expected = {s: _nilpotent_class_size(s, p) for s in enumerate_partitions(n)}
            else:
                expected = _member_census(mu, field)
            assert exhaustive_shape_census(mu, field) == expected, (format_partition(mu), field.name)
            if len(enumerate_partitions(size - k)) * p ** len(outer) > 7000:
                continue
            with monkeypatch.context() as patch:
                patch.setattr(census, "_BATCH", 7)
                assert exhaustive_shape_census(mu, field) == expected, (format_partition(mu), field.name, 7)
                if _table_size(mu, p, 7) < p ** (k * k):
                    spilled.add(format_partition(mu))
    if p == 3:
        assert {"2,2", "2,2,1"} <= spilled


def test_member_census_is_the_golden_census():
    # the ungrouped count above is itself exact: on the golden cases past the
    # per-matrix census it gives the counts of a per-candidate run
    for text, p in (("2,1,1,1", 3), ("3,2,1,1", 2)):
        expected = {parse_partition(s): c for s, c in GOLDEN_CENSUS[(text, p)].items()}
        assert _member_census(parse_partition(text), GF(p)) == expected, text


def test_census_ranks_powers_on_the_groups_only(monkeypatch):
    # 3,2,1,1/GF(2): k = m = 2, so the power chain sees p(2) 2^(2 k m) = 512
    # group corners (X11 = 0) and B is ranked once on each of the 2 * 2^12 =
    # 8,192 members; the chain's own ranks never see more than the groups
    chain, ranked = [], []
    rank_rows, gf2_ranks = census._rank_rows, census._gf2_ranks

    def record_chain(mats, mu, p, bits):
        chain.append(mats.shape[0])
        return rank_rows(mats, mu, p, bits)

    def record_ranks(rows, n):
        ranked.append(rows.shape[0])
        return gf2_ranks(rows, n)

    monkeypatch.setattr(census, "_rank_rows", record_chain)
    monkeypatch.setattr(census, "_gf2_ranks", record_ranks)
    got = exhaustive_shape_census(parse_partition("3,2,1,1"), GF2)
    assert got == {parse_partition(s): c for s, c in GOLDEN_CENSUS[("3,2,1,1", 2)].items()}
    assert chain == [512]
    assert ranked.count(8192) == 1 and max(r for r in ranked if r != 8192) == 512


@pytest.mark.parametrize(
    "text, field, batch",
    [("2,1,1", GF2, census._BATCH), ("2,2,1", GF3, 7), ("2,2,1", GF3, 100), ("3,2", GF(5), 7), ("1,1,1", GF3, 7)],
    ids=lambda v: getattr(v, "name", str(v)),
)
def test_cross_outer_members_are_their_groups_plus_x11(monkeypatch, text, field, batch):
    # verify's stream yields every nilpotent candidate once, as members; a
    # member differs from its group only in X11, where the group is zero
    monkeypatch.setattr(census, "_BATCH", batch)
    mu, p = parse_partition(text), field.order
    k, size, _ = census._a22_split(mu)
    seen = []
    for groups, members in census._cross_outer(mu, field, census._nilpotent_a22_walk(mu, field)):
        if members.dtype == np.uint32:
            bit = np.arange(size, dtype=np.uint32)
            groups, members = (x[:, :, None] >> bit & np.uint32(1) for x in (groups, members))
        spread = members.shape[0] // groups.shape[0]
        assert members.shape[0] == spread * groups.shape[0] <= census._batch_size(size, batch, members.dtype.type)
        diff = members.reshape(groups.shape[0], spread, size, size).astype(np.int64) - groups[:, None]
        assert not diff[:, :, k:].any() and not diff[:, :, :, k:].any()
        assert spread == 1 or not groups[:, k - 1, k - 1].any()  # the table's last cell
        seen += [census._odometer_index(c, p) for c in members.tolist()]
    nilpotent = p ** (len(free_coordinates(mu)) - split_core(mu).ones)
    assert len(seen) == len(set(seen)) == nilpotent


def test_census_of_ones_ranks_every_lambda_in_one_batch(monkeypatch):
    # 1^20 has no outer coordinates, so its 627 J_lambda are all the matrices
    # the census builds; they take one batch and one `_rank_rows` call
    calls, real = [], census._rank_rows

    def counting(mats, mu, p, bits):
        calls.append(mats.shape[0])
        return real(mats, mu, p, bits)

    monkeypatch.setattr(census, "_rank_rows", counting)
    counts = exhaustive_shape_census(Partition([1] * 20), GF2)
    assert calls == [627]
    assert sum(counts.values()) == 2**380
    assert len(counts) == 627 and set(counts) == set(enumerate_partitions(20))


_LAZY_DRAW_CASES = [
    ("2,2", GF2),
    ("1,1,1", GF2),
    ("3,2,1,1", GF2),
    ("2,2", GF3),
    ("1,1,1", GF3),
    ("2,2,1", GF(5)),
    ("2,2", GF(2**31 - 1)),
]


@pytest.mark.parametrize(
    "text, field", [pytest.param(*case, id=f"{case[0]}-{case[1].name}") for case in _LAZY_DRAW_CASES]
)
def test_sampled_stream_draws_the_corner_only_for_nilpotent_a22(monkeypatch, text, field):
    # 7 samples per batch; m = 0 (2,2) keeps every draw, m = K (1,1,1) has
    # A22 as the whole corner; bit rows, int64 and Python-int batches.  The
    # stream asks for m^2 positions per sample and the whole corner again
    # only per kept sample, and yields exactly the nilpotent draws of
    # sample_candidate, in order, which the census and verify then read
    from nilpairs import rng

    monkeypatch.setattr(census, "_BATCH", 4 * 7)
    asked, real = [], rng.values_mod_np

    def counting(seed, idx, p):
        asked.append(idx.size)
        return real(seed, idx, p)

    monkeypatch.setattr(rng, "values_mod_np", counting)
    mu, samples = parse_partition(text), 60
    k, size, _ = census._a22_split(mu)
    lay = pattern_layout(mu)
    draws = [sample_candidate(mu, field, 3, index=i) for i in range(samples)]
    nilpotent = [i for i, c in enumerate(draws) if c.is_nilpotent()]
    got, dtypes = [], set()
    for mats, drawn in census._sampled_stream(mu, field, samples, seed=3):
        dtypes.add(mats.dtype)
        if mats.dtype == np.uint32:
            mats = mats[:, :, None] >> np.arange(size, dtype=np.uint32) & np.uint32(1)
        got += [(i, c.tolist()) for i, c in zip(drawn.tolist(), mats)]
    corners = [[[draws[i].rows[r][c] for c in lay.free_cols] for r in lay.free_rows] for i in nilpotent]
    assert got == list(zip(nilpotent, corners))
    assert len(dtypes) == 1 and len(asked) == 2 * -(-samples // 7)
    assert sum(asked) == (size - k) ** 2 * samples + size * size * len(nilpotent)
    if k == size:
        assert len(nilpotent) == samples
    counts, kept = sampled_shape_census(mu, field, samples, seed=3)
    assert (counts, kept) == _stream_census(mu, field, samples, 3)
    rep = verify_shapes(mu, field, mode="sample", samples=samples, seed=3)
    assert rep.ok and set(rep.observed) == set(counts)


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
        cap = _corner_cap(mu, field)
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
    mu = parse_partition("2,1,1")
    monkeypatch.setattr(census, "_reduced_shapes", lambda mu, lam, ms, rank_a, p: [Partition([mu.n])] * len(ms))
    rep = verify_shapes(mu, GF2, mode="exhaustive")
    expected = []
    for i in range(candidate_count(mu, GF2)):
        c = candidate_at(mu, GF2, i)
        if c.is_nilpotent() and c.nilpotent_shape() != Partition([mu.n]):
            expected.append(i)
    assert rep.verdict == "mismatch"
    assert [d["index"] for d in rep.details["shape_disagreements"]] == expected[:20]


def test_verify_json_of_every_small_mu_is_the_recorded_one(capsys):
    # verify reads the members of the grouped stream in a new order; its
    # reports (exit code and stdout) for every mu with n <= 6 over GF(2) and
    # GF(3), the budget's refusals among them, are byte-identical to the
    # ones recorded on the stream that ran the outer coordinates row-major
    from nilpairs.cli import main

    digest = hashlib.sha256()
    for name in ("gf2", "gf:3"):
        for n in range(1, 7):
            for mu in enumerate_partitions(n):
                code = main(["verify", "--mu", format_partition(mu), "--field", name])
                digest.update(f"{name} {format_partition(mu)} {code} {capsys.readouterr().out}\n".encode())
    assert digest.hexdigest() == "ccfc33a7619713270f44abc10270a1770f4b8458a80e81a24cc4b827e39077df"


def test_odometer_index_folds_the_corner_row_major():
    # the disagreement sets above are closed under transposing the corner, so
    # they cannot tell a row-major fold from a column-major one; this can
    mu = parse_partition("2,1")
    lay = pattern_layout(mu)
    for i in range(candidate_count(mu, GF3)):
        rows = candidate_at(mu, GF3, i).rows
        assert census._odometer_index([[rows[r][c] for c in lay.free_cols] for r in lay.free_rows], 3) == i


def test_verify_sample_disagreements_carry_sample_indices(monkeypatch):
    # the sampled twin: the report names the disagreeing draws by sample index
    mu = parse_partition("2,2,1")
    monkeypatch.setattr(census, "_reduced_shapes", lambda mu, lam, ms, rank_a, p: [Partition([mu.n])] * len(ms))
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
    # every nilpotent candidate is dual-checked: it is a member of exactly one
    # stack of the batched stages 1-5, in several batches and check slices,
    # over bit rows, int64 and Python ints
    monkeypatch.setattr(census, "_BATCH", 64)
    monkeypatch.setattr(census, "_INT64_CELLS", 64 * 9)
    monkeypatch.setattr(census, "_OBJECT_CELLS", 16 * 9)
    monkeypatch.setattr(census, "_DUAL_CHECK", 5)
    members = []
    real = census._reduce_stack

    def counting(field, core, lam, w, t, ti):
        members.append(w.shape[0])
        return real(field, core, lam, w, t, ti)

    monkeypatch.setattr(census, "_reduce_stack", counting)
    for text, field in (("2,1,1", GF2), ("2,1", GF(5)), ("2,2,1", GF3), ("2,2", GF(2**31 - 1))):
        mu = parse_partition(text)
        members.clear()
        if mode == "exhaustive":
            if candidate_count(mu, field) > 2**12:
                continue
            expected = field.order ** (len(free_coordinates(mu)) - split_core(mu).ones)
            rep = verify_shapes(mu, field)
        else:
            expected = sampled_shape_census(mu, field, 200, seed=6)[1]
            rep = verify_shapes(mu, field, mode="sample", samples=200, seed=6)
        assert rep.ok and sum(members) == expected > 0, (text, field.name)


_EQUIVALENCE_CASES = [  # mu, field, mode, sampled draws, check slice size
    ("2,1,1", GF2, "exhaustive", 0, 3),
    ("2,2", GF2, "exhaustive", 0, 3),
    ("2,1", GF(5), "exhaustive", 0, 3),
    ("2,2,1", GF3, "exhaustive", 0, 3),
    ("3,1,1", GF3, "exhaustive", 0, 500),
    ("2,2", GF(2**31 - 1), "sample", 60, 3),
    ("2,2,1", GF(5), "sample", 1500, 100),
    ("2,2,1,1", GF2, "sample", 800, 100),
    ("3,2,1,1", GF2, "sample", 800, 100),
    ("2,1,1,1", GF2, "exhaustive", 0, 500),
    ("2", GF(10007), "sample", 400, 100),
]


@pytest.mark.parametrize(
    "text, field, mode, samples, check",
    [pytest.param(*case, id=f"{case[0]}-{case[1].name}-{case[2]}") for case in _EQUIVALENCE_CASES],
)
def test_batched_reduction_matches_per_matrix(monkeypatch, text, field, mode, samples, check):
    # verify's batched stage 0 and stages 1-5 give every nilpotent candidate
    # the (lambda, M, T, T^-1) of the per-matrix reduce, over bit rows,
    # int64 and Python ints, m = 0 included.  With check = 3 the slices are
    # tiny, so the candidates of one A22 block span several slices and some
    # slices hold two blocks; the batches are tiny too, so each bit-row batch
    # of 2,1,1/GF(2) holds parts of two of its four blocks.  The larger
    # slices mix members that take different moves in one stack: stage 3's
    # swaps, scales and dependent columns (with the junk clear of 2,1,1,1),
    # stage 4's runs of two and three equal parts (only a run of three can
    # take a 3-cycle: lambda = 1,1,1 and X = (0, 0, 1) in 2,1,1,1), stage 5's
    # swaps and scales (2,2,1/GF(5)) and m = 0 (2/GF(10007))
    import nilpairs.reduction as reduction

    monkeypatch.setattr(census, "_BATCH", 128)
    monkeypatch.setattr(census, "_INT64_CELLS", 16 * 25 if check == 3 else 2**20)
    monkeypatch.setattr(census, "_OBJECT_CELLS", 16 * 25)
    monkeypatch.setattr(census, "_DUAL_CHECK", check)
    seen, blocks = [], []
    real = census._reduce_slice

    def capture(mu, f, originals, stage0):
        reduced = real(mu, f, originals, stage0)
        lam_id, lams, ms, ts, tis = reduced
        lam_of = [lams[i] for i in lam_id.tolist()]
        seen.extend(zip(originals.tolist(), lam_of, ms.tolist(), ts.tolist(), tis.tolist()))
        blocks.append({str(a[n - m :, n - m :].tolist()) for a in originals})
        return reduced

    monkeypatch.setattr(census, "_reduce_slice", capture)
    mu = parse_partition(text)
    n, m = mu.n, split_core(mu).ones
    assert verify_shapes(mu, field, mode=mode, samples=samples, seed=2).ok
    if mode == "exhaustive":
        expected = field.order ** (len(free_coordinates(mu)) - m)
        assert len({str(rows) for rows, *_ in seen}) == expected
        if check == 3:
            assert m == 0 or any(b & c for b, c in zip(blocks, blocks[1:])), "no A22 block spans two slices"
            assert m < 2 or any(len(b) > 1 for b in blocks), "no slice holds two A22 blocks"
    else:
        # the dual check reduces the very candidates drawn, in draw order
        draws = (sample_candidate(mu, field, 2, index=i) for i in range(samples))
        nilpotent = [c.tolists() for c in draws if c.is_nilpotent()]
        assert [rows for rows, *_ in seen] == nilpotent
        expected = sampled_shape_census(mu, field, samples, seed=2)[1]
    assert len(seen) == expected > 0
    for rows, lam, mat, t, ti in seen:
        a = ExactMatrix(field, rows)
        pair = reduction.reduce(a, mu)
        assert (lam, tuple(map(tuple, mat))) == (pair.lam, pair.matrix.rows), rows
        assert (t, ti) == (pair.transform.tolists(), pair.transform.inverse().tolists()), rows


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
    """Put every candidate of a slice in one A22 group (the first candidate's); other keys stay distinct.

    Only the A22 keys of `_reduce_slice` are m^2 wide (m = 2 for 2,1,1);
    verify's (lambda, M) keys are 1 + n^2 wide.
    """
    real = census._unique_rows

    def one_group(rows):
        if rows.shape[1] != 4:
            return real(rows)
        return np.zeros(1, dtype=np.intp), np.zeros(len(rows), dtype=np.intp)

    monkeypatch.setattr(census, "_unique_rows", one_group)


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


def _capture_reduction_keys(patch):
    """Record (stage-0 cache, members' (lambda, M) keys) for each `_reduce_slice` call; one cache per stream batch."""
    slices, real = [], census._reduce_slice

    def capture(mu, f, originals, stage0):
        lam_id, lams, ms, ts, tis = reduced = real(mu, f, originals, stage0)
        slices.append((stage0, [(lams[d], str(x)) for d, x in zip(lam_id.tolist(), ms.tolist())]))
        return reduced

    patch.setattr(census, "_reduce_slice", capture)
    return slices


def test_verify_checks_each_distinct_reduction_once_per_batch(monkeypatch):
    # M's rank sequence runs once per distinct (lambda, M) of a stream batch,
    # not once per slice, and each of those keys goes through the batched
    # reduced-form predicate exactly once: with slices of 5, the same pairs
    # recur across the slices of 2,1,1/GF(2).  The per-matrix predicate and
    # formula are not called, and no ReducedPair is built
    import nilpairs.jordan as jordan
    import nilpairs.reduction as reduction

    monkeypatch.setattr(census, "_DUAL_CHECK", 5)
    calls = {"is_reduced": 0, "shape_of_reduced": 0, "ReducedPair": 0, "rank_sequence": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(reduction, "is_reduced", counting("is_reduced", reduction.is_reduced))
    monkeypatch.setattr(jordan, "shape_of_reduced", counting("shape_of_reduced", jordan.shape_of_reduced))
    monkeypatch.setattr(reduction.ReducedPair, "__init__", counting("ReducedPair", reduction.ReducedPair.__init__))
    monkeypatch.setattr(ExactMatrix, "rank_sequence", counting("rank_sequence", ExactMatrix.rank_sequence))
    slices = _capture_reduction_keys(monkeypatch)
    real_mask = census._reduced_mask

    def recording_mask(mu, lam, ms, p):
        slices.append((None, [(lam, str(x)) for x in ms.tolist()]))  # the keys checked, after their slice
        return real_mask(mu, lam, ms, p)

    monkeypatch.setattr(census, "_reduced_mask", recording_mask)
    assert verify_shapes(parse_partition("2,1,1"), GF2).verdict == "equal"
    batches: dict = {}  # stream batch (its stage-0 cache) -> (the distinct (lambda, M) of each slice, keys checked)
    for stage0, keys in slices:
        if stage0 is not None:
            batch = batches.setdefault(id(stage0), ([], []))
            batch[0].append(set(keys))
        else:
            batch[1].extend(keys)
    per_batch = sum(len(set().union(*sets)) for sets, _ in batches.values())
    per_slice = sum(len(keys) for sets, _ in batches.values() for keys in sets)
    assert calls == {"is_reduced": 0, "shape_of_reduced": 0, "ReducedPair": 0, "rank_sequence": per_batch}
    for sets, checked in batches.values():
        assert sorted(checked) == sorted(set().union(*sets))  # each key once
    assert 0 < per_batch < per_slice


def _member_sharing_its_reduction(monkeypatch, mu, field):
    """Index of the first candidate whose (lambda, M) an earlier candidate of its slice has."""
    with monkeypatch.context() as patch:
        slices = _capture_reduction_keys(patch)
        verify_shapes(mu, field)
    ((_, keys),) = slices  # one slice
    return next(i for i, key in enumerate(keys) if key in keys[:i])


def test_verify_checks_every_members_rank_row(monkeypatch, capsys):
    # a rank row replaced on a member that is not the first of its
    # (lambda, M) fails the one array comparison: ReductionError, exit 3
    import json

    from nilpairs.cli import main
    from nilpairs.reduction import ReductionError

    mu = parse_partition("2,1,1")
    i = _member_sharing_its_reduction(monkeypatch, mu, GF2)
    real = census._rank_rows

    def planted(mats, mu, p, bits):
        rows = real(mats, mu, p, bits)
        rows[i] = next(r for r in rows if (r != rows[i]).any())
        return rows

    monkeypatch.setattr(census, "_rank_rows", planted)
    with pytest.raises(ReductionError, match="rank sequence"):
        verify_shapes(mu, GF2)
    assert main(["verify", "--mu", "2,1,1", "--field", "gf2"]) == 3
    assert json.loads(capsys.readouterr().out)["kind"] == "internal-inconsistency"


@pytest.mark.parametrize("field", [GF2, GF(5)], ids=lambda f: f.name)
def test_census_and_verify_of_the_empty_partition(field):
    # K = 0: batches of 0 x 0 corners, one candidate (the 0 x 0 matrix)
    mu = Partition(())
    assert exhaustive_shape_census(mu, field) == reference_shape_census(mu, field) == {mu: 1}
    assert sampled_shape_census(mu, field, 5, seed=1) == ({mu: 5}, 5)
    for mode in ("exhaustive", "sample"):
        rep = verify_shapes(mu, field, mode=mode, samples=5)
        assert rep.verdict == "equal" and rep.observed == (mu,), mode


def _reached_reductions(mu, field) -> dict:
    """lambda -> the distinct reduced M (an integer stack) that verify's reduction reaches over all of mu's candidates.

    Stage 0 conjugates a candidate with an A22 of shape lambda to one with
    A22 = J_lambda and every outer assignment to another, so reducing J_lambda
    crossed with every outer assignment (the census's orbit representatives)
    reaches the same M, also where exhaustive verify is past its budget.
    """
    p, n = field.order, mu.n
    k, size, outer = census._a22_split(mu)
    lay = pattern_layout(mu)
    count = p ** len(outer)
    out = {}
    for lam in enumerate_partitions(size - k):
        corners = np.zeros((size * size, count), dtype=np.int64)
        corners[outer] = census._digits(np.arange(count, dtype=np.int64), len(outer), p)
        corners = corners.T.reshape(count, size, size)
        corners[:, k:, k:] = census._jordan_stack(lam)
        originals = np.zeros((count, n, n), dtype=np.int64)
        originals[:, np.array(lay.free_rows)[:, None], np.array(lay.free_cols)] = corners
        _, lams, ms, _, _ = census._reduce_slice(mu, field, originals, {})
        assert lams == [lam]
        out[lam] = ms[census._unique_rows(ms.reshape(count, -1))[0]]
    return out


def _assert_batched_formula_matches(mu, field, lam, ms):
    """The batched predicate, e1, e2, f, g and shape of a stack of reduced M against the per-matrix twins."""
    from nilpairs.jordan import chain_profile, shape_of_reduced
    from nilpairs.reduction import ReducedPair, is_reduced

    split, p = split_core(mu), field.order
    e1, e2, f, g = census._chain_profiles(mu, lam, ms, p)
    mats = [ExactMatrix(field, x) for x in ms.tolist()]
    shapes = census._reduced_shapes(mu, lam, ms, np.array([a.rank() for a in mats]), p)
    assert census._reduced_mask(mu, lam, ms, p).tolist() == [is_reduced(a, mu, lam) for a in mats] == [True] * len(mats)
    for i, a in enumerate(mats):
        pair = ReducedPair(split.core, split.ones, lam, a, ExactMatrix.identity(field, mu.n))
        prof = chain_profile(pair)
        steps = range(2, (lam[0] if lam else 0) + 2)
        assert (e1[i].tolist(), e2[i].tolist()) == (list(prof.e1), list(prof.e2)), a.rows
        assert (f[i].tolist(), g[i].tolist()) == ([prof.f[s] for s in steps], [prof.g[s] for s in steps]), a.rows
        assert shapes[i] == shape_of_reduced(pair, prof), a.rows


@pytest.mark.parametrize("text, field", [("2,1,1", GF2), ("2,2,1", GF3), ("3,2,1,1", GF2), ("2,1,1,1", GF3)])
def test_batched_formula_matches_chain_profile_on_every_reached_key(text, field):
    # e1, e2, f, g and the shape of every (lambda, M) the reduction reaches,
    # taken on one stack per lambda, equal chain_profile and shape_of_reduced
    mu = parse_partition(text)
    reached = _reached_reductions(mu, field)
    assert sum(len(ms) for ms in reached.values()) > 20
    for lam, ms in reached.items():
        _assert_batched_formula_matches(mu, field, lam, ms)


def test_batched_formula_matches_chain_profile_on_python_int_stacks():
    # over GF(2^31 - 1) the n x n stacks hold Python ints; the reductions of
    # seeded nilpotent candidates, one object stack per lambda
    from nilpairs.reduction import reduce
    from nilpairs.structure import sample_nilpotent_candidate

    field = GF(2**31 - 1)
    for text in ("2,1,1", "2,2,1", "3,2,1,1", "2,1,1,1", "3,3,2,1,1"):
        mu = parse_partition(text)
        by_lam: dict = {}
        for seed in range(12):
            pair = reduce(sample_nilpotent_candidate(mu, field, seed), mu)
            by_lam.setdefault(pair.lam, []).append(pair.matrix.tolists())
        for lam, rows in by_lam.items():
            _assert_batched_formula_matches(mu, field, lam, np.array(rows, dtype=object).reshape(len(rows), mu.n, mu.n))


@pytest.mark.parametrize("text, field", [("2,1,1", GF2), ("2,2,1", GF3), ("3,2,1,1", GF2), ("2,1,1,1", GF3)])
def test_batched_predicate_matches_is_reduced_on_perturbed_keys(text, field):
    # every single-entry perturbation of every reached M (each position set to
    # 0, 1 and p - 1) is accepted or refused by the batched predicate exactly
    # as by is_reduced, so rejections are pinned both ways
    from nilpairs.reduction import is_reduced

    mu, p = parse_partition(text), field.order
    for lam, ms in _reached_reductions(mu, field).items():
        perturbed = set()
        for x in ms.tolist():
            for r, c in itertools.product(range(mu.n), repeat=2):
                for v in {0, 1, p - 1} - {x[r][c]}:
                    y = [list(row) for row in x]
                    y[r][c] = v
                    perturbed.add(tuple(map(tuple, y)))
        stack = np.array(sorted(perturbed), dtype=np.int64)
        expected = [is_reduced(ExactMatrix(field, y), mu, lam) for y in stack.tolist()]
        assert census._reduced_mask(mu, lam, stack, p).tolist() == expected, (text, lam)
        assert 0 < sum(expected) < len(expected), (text, lam)


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
    # n > 32 columns, but the K x K corners (K <= 3) are bit rows; (33) has
    # candidates {0, E_(0,32)}
    assert exhaustive_shape_census(Partition([33]), GF2) == {
        Partition([1] * 33): 1,
        Partition([2] + [1] * 31): 1,
    }
    monkeypatch.setattr(census, "_INT64_CELLS", 100 * 3 * 3)  # the 512 candidates of 11,11,11 in 6 batches
    for text in ("17,17", "30,1,1", "11,11,11", "62,1"):
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
    mats[3] = (mats[3][:, :1].astype(object) * mats[4][:1, :]) % p  # rank <= 1, exact past 2^31
    mats[4] = mats[5] * (rnd.integers(0, 4, size=(n, n)) == 0)  # sparse
    if n >= 3:
        # rank 2: (p-1) e_0 over the rows c w, w alternating p - 1 and 1, so the
        # pivot p - 1 scales them to (p-1)^2-sized entries that a dtype too
        # narrow for (p-1)^2 would wrap at every other column
        w = np.where(np.arange(n) % 2, p - 1, 1)
        w[0] = 0
        mats[5] = np.outer(np.arange(n), w).astype(object) % p
        mats[5, 0, 0] = p - 1
    return mats


# every dtype boundary of _gfp_ranks: int8 holds (p-1)^2 to p = 11, int16 to
# 181, int32 to 46337; 2^61 - 1 runs on Python ints, as the callers pass it
RANK_PRIMES = (2, 3, 11, 13, 181, 191, 32003, 46337, 46349, 2**31 - 1, 2**61 - 1)


def _exact_stack(mats: np.ndarray, p: int) -> np.ndarray:
    """mats, as Python ints once (p-1)^2 passes int64: the callers pass such a prime's stacks so."""
    return mats if (p - 1) ** 2 < 2**63 else mats.astype(object)


def test_batched_rank_routines_match_exact_rank():
    rnd = np.random.default_rng(2024)
    for p in RANK_PRIMES:
        for n in range(0, 12):
            mats = _rank_test_stack(rnd, n, p)
            expected = [ExactMatrix(GF(p), m.tolist(), ncols=n).rank() for m in mats]
            running = [ExactMatrix(GF(p), m.tolist(), ncols=n).column_prefix_ranks() for m in mats]
            assert _gfp_ranks(_exact_stack(mats, p), p).tolist() == running, (p, n)
            assert _gfp_ranks(_exact_stack(mats, p), p)[:, -1].tolist() == expected, (p, n)
            if p == 2:
                shifts = np.arange(n, dtype=np.uint32)
                bits = (mats.astype(np.uint32) << shifts).sum(axis=2, dtype=np.uint32)
                assert _gf2_ranks(bits, n).tolist() == expected, n
        # wide and tall: _reduced_mask and _chain_profiles rank k x l and l x k corner matrices
        for rows, cols in ((1, 4), (2, 5), (3, 7), (4, 1), (5, 2), (7, 3), (0, 3), (3, 0)):
            mats = rnd.integers(0, p, size=(16, rows, cols), dtype=np.int64)
            mats[0] = 0
            mats[1] = p - 1
            mats[2] = (mats[2][:, :1].astype(object) * mats[3][:1, :]) % p  # rank <= 1
            running = [ExactMatrix(GF(p), m.tolist(), ncols=cols).column_prefix_ranks() for m in mats]
            assert _gfp_ranks(_exact_stack(mats, p), p).tolist() == running, (p, rows, cols)


def _bit_matrix(rows: np.ndarray, width: int) -> ExactMatrix:
    return ExactMatrix(GF2, [[(r >> c) & 1 for c in range(width)] for r in rows.tolist()], ncols=width)


def test_gf2_bit_row_kernels_match_exact_matrix():
    # widths up to a full uint32 row: at 32, an all-ones row and bit 31 make
    # ~r + 1 wrap, and a zero row's lowest bit is 0
    rnd = np.random.default_rng(2026)
    for width in range(0, 33):
        full = (1 << width) - 1
        stacks = rnd.integers(0, full + 1, size=(2, 8, width), dtype=np.uint64).astype(np.uint32)
        for a in stacks:
            a[0] = 0
            a[1] = full
            a[2, : width // 2] = 0  # rank <= width - width // 2
            if width:
                a[3] = 1 << np.arange(width, dtype=np.uint32)  # the identity
                a[4] |= np.uint32(1 << (width - 1))  # the top bit set in every row
                a[5] = a[5, 0]  # rank <= 1
                a[6, 1:] = full
        a, b = stacks
        assert _gf2_ranks(a, width).tolist() == [_bit_matrix(m, width).rank() for m in a], width
        assert _gf2_ranks(b, width).tolist() == [_bit_matrix(m, width).rank() for m in b], width
        product = census._gf2_matmul(a, b, width)
        for i in range(a.shape[0]):
            expected = _bit_matrix(a[i], width).mul(_bit_matrix(b[i], width))
            assert _bit_matrix(product[i], width) == expected, (width, i)


def test_rank_rows_raise_on_a_stack_that_is_not_nilpotent():
    # the powers of I_2 never reach zero: the capped loop raises instead of
    # spinning; under mu = 1^2 the corner is the whole 2 x 2 matrix
    ones = Partition([1, 1])
    eye = np.eye(2, dtype=np.int64)[None]
    with pytest.raises(InternalInconsistency):
        census._rank_rows(eye, ones, 3, False)
    with pytest.raises(InternalInconsistency):
        census._rank_rows(eye.astype(object), ones, 3, False)
    bits = np.array([[0b01, 0b10]], dtype=np.uint32)
    with pytest.raises(InternalInconsistency):
        census._rank_rows(bits, ones, 2, True)
    nilpotent = np.array([[[0, 1], [0, 0]]], dtype=np.int64)
    assert census._rank_rows(np.concatenate([nilpotent, nilpotent]), ones, 3, False).tolist() == [[2, 1, 0]] * 2
    # with a core block: 2,1 with A22 = [1] is idempotent, so its powers never
    # vanish either; its 2 x 2 corner holds A22 at [1, 1]
    mu = Partition([2, 1])
    a22 = np.zeros((1, 2, 2), dtype=np.int64)
    a22[0, 1, 1] = 1
    bits = np.array([[0, 0b10]], dtype=np.uint32)
    for mats, p, is_bits in ((a22, 3, False), (a22.astype(object), 3, False), (bits, 2, True)):
        with pytest.raises(InternalInconsistency):
            census._rank_rows(mats, mu, p, is_bits)


def _sampled_batches(mu, field, samples=600):
    return (mats for mats, _ in census._sampled_stream(mu, field, samples, seed=11))


def _nilpotent_batches(mu, field):
    """Batches of nilpotent candidates for mu: every one when there are few, else
    the first batches of the J_lambda crossings; then the nilpotent seeded draws."""
    count = candidate_count(mu, field)
    if count <= 2**12:
        stream = census._cross_outer(mu, field, census._nilpotent_a22_walk(mu, field))
    else:
        blocks = [census._jordan_stack(lam) for lam in enumerate_partitions(split_core(mu).ones)]
        stream = itertools.islice(census._cross_outer(mu, field, blocks), 4)
    yield from (members for _, members in stream)
    yield from _sampled_batches(mu, field)


def _assert_corner_rank_rows(mu, field, batches, members=24):
    """`_rank_rows` on a batch of K x K corners equals the full n x n rank
    sequences (ExactMatrix.rank_sequence, zero-padded) of sampled members of
    every batch, each corner placed at the free coordinates."""
    n, p = mu.n, field.order
    positions = free_coordinates(mu).positions
    rnd = np.random.default_rng(n)
    seen = 0
    for mats in batches:
        bits = mats.dtype == np.uint32
        rows = census._rank_rows(mats, mu, p, bits)
        if bits:
            mats = mats[:, :, None] >> np.arange(mats.shape[1], dtype=np.uint32) & np.uint32(1)
        for i in rnd.choice(mats.shape[0], min(members, mats.shape[0]), replace=False):
            full = [[0] * n for _ in range(n)]
            for (r, c), v in zip(positions, mats[i].reshape(-1).tolist()):
                full[r][c] = v
            seq = ExactMatrix(field, full).rank_sequence()
            assert rows[i].tolist() == seq + [0] * (rows.shape[1] - len(seq)), (format_partition(mu), field.name)
            seen += 1
    assert seen, (format_partition(mu), field.name)


@pytest.mark.parametrize("field", [GF2, GF3], ids=lambda f: f.name)
def test_corner_rank_rows_match_full_rank_sequences(monkeypatch, field):
    # every mu with n <= 7: bit rows over GF(2), int64 over GF(3); 1^n has
    # k = 0, 3,3 and 2,2,2 have m = 0, 2,1 and 3,2,1 have m = 1
    monkeypatch.setattr(census, "_BATCH", 1 << 10)
    for n in range(1, 8):
        for mu in enumerate_partitions(n):
            _assert_corner_rank_rows(mu, field, _nilpotent_batches(mu, field))


def test_corner_rank_rows_past_a_bit_row_and_the_int64_bound(monkeypatch):
    # GF(2) picks bit rows by K, not n: 17,17 (n = 34, K = 2) and 30,1,1
    # (n = 32, K = 3) run on bit rows, 2^33 (n = 66, K = 33) on int64 mod 2
    for text in ("17,17", "30,1,1"):
        mu = parse_partition(text)
        _assert_corner_rank_rows(mu, GF2, _nilpotent_batches(mu, GF2))
    mu = parse_partition("17,17")
    assert {(mats.dtype, mats.shape[1:]) for mats in _nilpotent_batches(mu, GF2)} == {(np.dtype(np.uint32), (2,))}
    mu = Partition([2] * 33)
    assert {(mats.dtype, mats.shape[1:]) for mats in _sampled_batches(mu, GF2, 30)} == {(np.dtype(np.int64), (33, 33))}
    _assert_corner_rank_rows(mu, GF2, _sampled_batches(mu, GF2, 30))
    assert sampled_shape_census(mu, GF2, 30, seed=4) == _stream_census(mu, GF2, 30, 4)
    # GF(2^31 - 1), whose batches hold Python ints: a uniform A22 is almost
    # never nilpotent, so the draws keep only A22's entries above its diagonal
    from nilpairs import rng

    field, stream = GF(2**31 - 1), rng.values_mod_np
    for text in ("1,1,1,1", "3,3", "2,2,2", "2,1", "2,2,1", "3,2,1,1", "2,1,1,1"):
        mu = parse_partition(text)
        positions = free_coordinates(mu).positions
        base = mu.n - split_core(mu).ones
        lower = [f for f, (r, c) in enumerate(positions) if r >= base and c >= base and r >= c]

        def values(seed, idx, p, nf=len(positions), lower=lower):
            # the stream's value at each position, 0 where the corner cell idx % F is in lower
            return np.where(np.isin(idx % nf, lower), 0, stream(seed, idx, p))

        monkeypatch.setattr(rng, "values_mod_np", values)
        _assert_corner_rank_rows(mu, field, _sampled_batches(mu, field, samples=40))

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines and timings.  The reduction corpus shared by criteria 5 and 6 is built
once (session scope): 1000 seeded nilpotent candidates per mu (500 over GF(2)
plus 500 over GF(3)) for every mu |- n <= 10.
"""

import time

import pytest

from conftest import reduced_fixture
from nilpairs.census import exhaustive_shape_census, sampled_shape_census
from nilpairs.characterize import (
    ConstructionMismatch,
    compatible,
    component_pairs,
    enumerate_shapes,
    enumerate_vnab,
    witness,
)
from nilpairs.fields import GF2, GF3
from nilpairs.jordan import chain_profile, rank_formula, shape_of_reduced
from nilpairs.oracles import assemble_power
from nilpairs.partitions import (
    Partition,
    conjugate,
    enumerate_partitions,
    parse_partition,
    split_core,
)
from nilpairs.reduction import is_reduced, reduce
from nilpairs.structure import sample_nilpotent_candidate

SEEDS_PER_FIELD = 500  # 1000 candidates per mu, split over GF(2) and GF(3)


def report(num: int, ok: bool, message: str, elapsed: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {verdict} {message} ({elapsed:.2f}s)")


def shape_from_rank_sequence(seq: list[int]) -> Partition:
    weyr = [seq[i] - seq[i + 1] for i in range(len(seq) - 1)]
    return conjugate(Partition([w for w in weyr if w]))


def test_criterion_1_golden_example():
    t0 = time.time()
    mu = parse_partition("3,3,2,1^8")
    r = reduce(reduced_fixture(), mu)
    prof = chain_profile(r)
    ok = (
        prof.f == {2: 1, 3: 0, 4: 1}
        and prof.g == {2: 0, 3: 2, 4: 0}
        and shape_of_reduced(r, prof) == parse_partition("5,3,3,3,1,1")
    )
    elapsed = time.time() - t0
    report(1, ok and elapsed < 1.0, "golden fixture chain profile and shape, exact", elapsed)
    assert ok
    assert elapsed < 1.0


def test_criterion_2_degenerate_shape_sets():
    t0 = time.time()
    ok = True
    for n in range(1, 13):
        if enumerate_shapes(Partition([1] * n)) != tuple(enumerate_partitions(n)):
            ok = False
        for mu in enumerate_partitions(n):
            split = split_core(mu)
            if split.ones == 0 and split.core:
                k = len(split.core)
                expected = {Partition([2] * i + [1] * (n - 2 * i)) for i in range(k + 1)}
                if set(enumerate_shapes(mu)) != expected:
                    ok = False
    elapsed = time.time() - t0
    report(2, ok and elapsed < 1.0, "degenerate-case shape sets for n <= 12, exact", elapsed)
    assert ok
    assert elapsed < 1.0


def test_criterion_3_brute_force_completeness():
    t0 = time.time()
    bad = []
    for n in range(2, 6):
        for mu in enumerate_partitions(n):
            observed = set(exhaustive_shape_census(mu, GF2, budget=2**26))
            if observed != set(enumerate_shapes(mu)):
                bad.append(("exhaustive", tuple(mu)))
    exhaustive_elapsed = time.time() - t0
    t1 = time.time()
    for n in (6, 7):
        for mu in enumerate_partitions(n):
            counts, _ = sampled_shape_census(mu, GF3, 100000, seed=nu_seed(mu))
            if not set(counts) <= set(enumerate_shapes(mu)):
                bad.append(("sampled", tuple(mu)))
    sampled_elapsed = time.time() - t1
    ok = not bad and exhaustive_elapsed < 60.0 and sampled_elapsed < 300.0
    report(
        3,
        ok,
        f"GF(2) exhaustive n<=5 equal ({exhaustive_elapsed:.1f}s); "
        f"GF(3) 1e5 samples n=6,7 subset ({sampled_elapsed:.1f}s); violations={bad}",
        exhaustive_elapsed + sampled_elapsed,
    )
    assert not bad
    assert exhaustive_elapsed < 60.0
    assert sampled_elapsed < 300.0


def nu_seed(mu: Partition) -> int:
    return sum((i + 1) * p for i, p in enumerate(mu))


def test_criterion_4_witness_soundness():
    # all 423 compatible pairs with n <= 8, validated over three fields
    from nilpairs.fields import QQ

    t0 = time.time()
    mismatches = 0
    validations = 0
    pairs = 0
    for n in range(1, 9):
        for mu in enumerate_partitions(n):
            for nu in enumerate_shapes(mu):
                pairs += 1
                for field in (GF2, GF3, QQ):
                    validations += 1
                    try:
                        witness(mu, nu, field)  # validates all invariants internally
                    except ConstructionMismatch:
                        mismatches += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and elapsed < 120.0
    report(
        4,
        ok,
        f"{pairs} compatible pairs, {validations} witness validations, {mismatches} mismatches",
        elapsed,
    )
    assert mismatches == 0
    assert elapsed < 120.0


@pytest.fixture(scope="module")
def reduction_corpus_results():
    """One pass over the criterion-5 corpus, collecting violations for 5 and 6."""
    stats = {
        "candidates": 0,
        "not_reduced": 0,
        "bad_conjugation": 0,
        "bad_rank_sequence": 0,
        "bad_shape": 0,
        "bad_rank_formula": 0,
        "bad_power_blocks": 0,
        "bad_lengths": 0,
        "neg_g": 0,
        "time5": 0.0,
        "time6": 0.0,
    }
    for n in range(1, 11):
        for mu in enumerate_partitions(n):
            for field in (GF2, GF3):
                t0 = time.time()
                inputs = []
                reduced = []
                for seed in range(SEEDS_PER_FIELD):
                    a = sample_nilpotent_candidate(mu, field, seed)
                    r = reduce(a, mu, validate=False)
                    if not is_reduced(r.matrix, mu, r.lam):
                        stats["not_reduced"] += 1
                    tinv = r.transform.inverse()
                    if r.transform.mul(a).mul(tinv) != r.matrix:
                        stats["bad_conjugation"] += 1
                    inputs.append(a)
                    reduced.append(r)
                    stats["candidates"] += 1
                seq_in = [a.rank_sequence() for a in inputs]
                seq_out = [r.matrix.rank_sequence() for r in reduced]
                for si, so in zip(seq_in, seq_out):
                    if si != so:
                        stats["bad_rank_sequence"] += 1
                stats["time5"] += time.time() - t0

                t1 = time.time()
                for a, r, seq in zip(inputs, reduced, seq_out):
                    prof = chain_profile(r)
                    if shape_of_reduced(r, prof) != shape_from_rank_sequence(seq):
                        stats["bad_shape"] += 1
                    q = len(seq) - 1
                    power = r.matrix  # A^s, carried across s
                    for s in range(1, q + 2):
                        expected = seq[s + 1] if s + 1 <= q else 0
                        if rank_formula(r, s, prof) != expected:
                            stats["bad_rank_formula"] += 1
                        if s <= q:
                            power = power.mul(r.matrix)
                            if assemble_power(r, s) != power:
                                stats["bad_power_blocks"] += 1
                    allowed = {1, 2}
                    for part in r.lam:
                        allowed.update({part, part + 1, part + 2})
                    if not set(shape_of_reduced(r, prof)) <= allowed:
                        stats["bad_lengths"] += 1
                    if any(v < 0 for v in prof.g.values()):
                        stats["neg_g"] += 1
                stats["time6"] += time.time() - t1
    return stats


def test_criterion_5_reduction_correctness(reduction_corpus_results):
    s = reduction_corpus_results
    violations = s["not_reduced"] + s["bad_conjugation"] + s["bad_rank_sequence"]
    ok = violations == 0 and s["time5"] < 300.0
    report(
        5,
        ok,
        f"{s['candidates']} reductions: not_reduced={s['not_reduced']} "
        f"bad_conjugation={s['bad_conjugation']} bad_rank_seq={s['bad_rank_sequence']}",
        s["time5"],
    )
    assert violations == 0
    assert s["time5"] < 300.0


def test_criterion_6_formula_identities(reduction_corpus_results):
    s = reduction_corpus_results
    violations = (
        s["bad_shape"]
        + s["bad_rank_formula"]
        + s["bad_power_blocks"]
        + s["bad_lengths"]
        + s["neg_g"]
    )
    ok = violations == 0
    report(
        6,
        ok,
        f"shape/rank-formula/power-block identities on the corpus: "
        f"bad_shape={s['bad_shape']} bad_formula={s['bad_rank_formula']} "
        f"bad_blocks={s['bad_power_blocks']} bad_lengths={s['bad_lengths']} neg_g={s['neg_g']}",
        s["time6"],
    )
    assert violations == 0


def test_criterion_7_symmetry():
    t0 = time.time()
    violations = 0
    for n in range(1, 10):
        parts = enumerate_partitions(n)
        for mu in parts:
            for nu in parts:
                if (compatible(mu, nu) is None) != (compatible(nu, mu) is None):
                    violations += 1
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < 120.0
    report(7, ok, f"compatibility symmetric over all pairs with n <= 9, violations={violations}", elapsed)
    assert violations == 0
    assert elapsed < 120.0


def test_criterion_8_corollary_consistency():
    t0 = time.time()
    # component_pairs dual-checks the printed inequality against rank conditions
    for n in range(2, 9):
        for j in range(1, n):
            component_pairs(n, j)  # raises DualCheckMismatch on disagreement
    witness_cache = {}
    violations = 0
    checked = 0
    for n in range(2, 8):
        for a in range(2, n + 1):
            for b in range(2, n + 1):
                for mu, nu in enumerate_vnab(n, a, b):
                    key = (mu, nu)
                    if key not in witness_cache:
                        # pair is (sh A, sh B); witness takes the B-shape first
                        witness_cache[key] = witness(nu, mu, GF2)
                    w = witness_cache[key]
                    checked += 1
                    if not w.a.power(a).is_zero() or not w.b.power(b).is_zero():
                        violations += 1
    elapsed = time.time() - t0
    ok = violations == 0
    report(
        8,
        ok,
        f"components dual-check n<=8 ok; {checked} vnab membership power checks, "
        f"violations={violations}",
        elapsed,
    )
    assert violations == 0

import hashlib
import json
import random

import pytest

from nilpairs import characterize
from nilpairs.census import exhaustive_shape_census
from nilpairs.characterize import (
    Certificate,
    ConstructionMismatch,
    Incompatible,
    compatible,
    component_pairs,
    enumerate_shapes,
    enumerate_vnab,
    witness,
)
from nilpairs.cli import main
from nilpairs.fields import GF2, GF3, QQ
from nilpairs.matrix import ExactMatrix, NotNilpotent
from nilpairs.partitions import (
    Partition,
    canonical_sorted,
    enumerate_partitions,
    format_partition,
    parse_partition,
    split_core,
)
from nilpairs.structure import candidate_count


def test_compatible_examples():
    cert = compatible(parse_partition("1,1,1,1"), parse_partition("4"))
    assert cert == Certificate(lam=Partition([4]), eps=(0,), c=0, d=0)
    assert compatible(parse_partition("2,2"), parse_partition("3,1")) is None
    cert = compatible(parse_partition("3,3,2,1^8"), parse_partition("5,3,3,3,1,1"))
    assert cert.lam == Partition([3, 2, 2, 1])
    assert cert.eps == (2, 1, 1, 2)
    assert (cert.c, cert.d) == (0, 2)
    assert sum(cert.eps) <= 2 * 3
    cert = compatible(parse_partition("2,1,1"), parse_partition("4"))
    assert cert == Certificate(lam=Partition([2]), eps=(2,), c=0, d=0)


def test_compatible_validates_input():
    with pytest.raises(ValueError):
        compatible(Partition([2]), Partition([3]))


def test_certificate_invariants_on_all_small_pairs():
    for n in range(1, 8):
        parts = enumerate_partitions(n)
        for mu in parts:
            k = len(split_core(mu).core)
            for nu in parts:
                cert = compatible(mu, nu)
                if cert is None:
                    continue
                assert 0 <= 2 * cert.c <= 2 * k - sum(cert.eps)
                assert 2 * cert.c + cert.d + sum(cert.lam) + sum(cert.eps) == n
                assert cert.target_shape() == nu


def test_enumerate_shapes_examples():
    assert [tuple(s) for s in enumerate_shapes(parse_partition("3,2"))] == [
        (2, 2, 1),
        (2, 1, 1, 1),
        (1, 1, 1, 1, 1),
    ]
    assert enumerate_shapes(Partition([1, 1, 1])) == tuple(enumerate_partitions(3))
    assert {tuple(s) for s in enumerate_shapes(parse_partition("2,1,1"))} == {
        (1, 1, 1, 1),
        (2, 1, 1),
        (2, 2),
        (3, 1),
        (4,),
    }


def test_degenerate_fast_paths_match_general():
    # the degenerate domains, B = 0 (k = 0) or no 1-parts in mu (m = 0), on the general path
    from nilpairs.characterize import _certificates

    for n in range(2, 9):
        for mu in enumerate_partitions(n):
            split = split_core(mu)
            if split.core and split.ones:
                continue  # not a degenerate domain
            shapes = set(enumerate_shapes(mu))
            general = {nu for nu in enumerate_partitions(n) if compatible(mu, nu) is not None}
            assert shapes == general
            if split.ones == 0:
                k = len(split.core)
                expected = {
                    Partition([2] * i + [1] * (n - 2 * i)) for i in range(k + 1)
                }
                assert shapes == expected
            else:
                assert shapes == set(enumerate_partitions(n))
            # compatible returns one of the backward search's certificates
            for nu in shapes:
                cert = compatible(mu, nu)
                found = list(_certificates(mu, nu))
                if found:
                    assert cert in found
    # the closed-form certificates of the degenerate domains: (nu, 0..., 0, 0)
    # for B = 0, and ((), (), c, d) for nu = (2^c, 1^d) with c <= k when m = 0
    for n in range(1, 10):
        for mu in enumerate_partitions(n):
            split = split_core(mu)
            k = len(split.core)
            if k and split.ones:
                continue
            for nu in enumerate_partitions(n):
                if k == 0:
                    expected = Certificate(lam=nu, eps=(0,) * len(nu), c=0, d=0)
                else:
                    c = sum(1 for p in nu if p == 2)
                    closed = nu[0] <= 2 and c <= k
                    expected = Certificate(lam=Partition(), eps=(), c=c, d=n - 2 * c) if closed else None
                assert compatible(mu, nu) == expected, (tuple(mu), tuple(nu))


def test_compatible_matches_enumerate_shapes():
    # every pair up to n = 12, the size of the decide sweep
    for n in range(1, 13):
        parts = enumerate_partitions(n)
        for mu in parts:
            shapes = set(enumerate_shapes(mu))
            for nu in parts:
                assert (compatible(mu, nu) is not None) == (nu in shapes)
    # seeded mu with both core and ones at n = 20..30, nu drawn inside and outside the set
    rnd = random.Random(20)
    inside = outside = 0
    for n in range(20, 31):
        parts = enumerate_partitions(n)
        mixed = [mu for mu in parts if split_core(mu).core and split_core(mu).ones]
        for mu in rnd.sample(mixed, 3):
            shapes = enumerate_shapes(mu)
            shape_set = set(shapes)
            for nu in rnd.sample(shapes, min(6, len(shapes))) + rnd.sample(parts, 6):
                attainable = nu in shape_set
                inside += attainable
                outside += not attainable
                assert (compatible(mu, nu) is not None) == attainable, (tuple(mu), tuple(nu))
    assert inside >= 100 and outside >= 100


def test_symmetry_small():
    for n in range(1, 8):
        parts = enumerate_partitions(n)
        for mu in parts:
            for nu in parts:
                assert (compatible(mu, nu) is None) == (compatible(nu, mu) is None)


def test_completeness_against_brute_force():
    # every mu |- n <= 5 whose GF(2) candidate space fits: census set == prediction
    for n in range(1, 6):
        for mu in enumerate_partitions(n):
            if candidate_count(mu, GF2) > 2**16:
                continue
            observed = set(exhaustive_shape_census(mu, GF2))
            assert observed == set(enumerate_shapes(mu)), tuple(mu)


def test_witness_examples():
    w = witness(parse_partition("2,1,1"), parse_partition("4"))
    entries = {(i + 1, j + 1) for i in range(4) for j in range(4) if w.a.entry(i, j) != 0}
    assert entries == {(1, 3), (4, 2), (3, 4)}
    w = witness(Partition([6]), Partition([2, 1, 1, 1, 1]))
    entries = {(i + 1, j + 1) for i in range(6) for j in range(6) if w.a.entry(i, j) != 0}
    assert entries == {(1, 6)}
    w = witness(Partition([2, 2]), Partition([2, 2]))
    entries = {(i + 1, j + 1) for i in range(4) for j in range(4) if w.a.entry(i, j) != 0}
    assert entries == {(3, 4), (1, 2)}


def test_witness_incompatible():
    with pytest.raises(Incompatible):
        witness(Partition([2, 2]), Partition([3, 1]))


@pytest.mark.parametrize("field", [GF2, GF3, QQ])
def test_witness_soundness_small(field):
    for n in range(1, 7):
        for mu in enumerate_partitions(n):
            for nu in enumerate_shapes(mu):
                w = witness(mu, nu, field)
                assert w.a.mul(w.b).is_zero() and w.b.mul(w.a).is_zero()
                assert w.a.nilpotent_shape() == nu
                assert w.b.nilpotent_shape() == mu


def test_witness_nilpotency_failure_is_construction_mismatch(monkeypatch, capsys):
    def not_nilpotent(self):
        raise NotNilpotent("matrix is not nilpotent")

    monkeypatch.setattr(ExactMatrix, "nilpotent_shape", not_nilpotent)
    with pytest.raises(ConstructionMismatch, match="not nilpotent"):
        witness(Partition([2, 1, 1]), Partition([4]))
    assert main(["witness", "--mu", "2,1,1", "--nu", "4"]) == 3
    assert json.loads(capsys.readouterr().out)["kind"] == "internal-inconsistency"


def test_witness_partial_permutation_structure():
    # at most one nonzero per row and per column, all ones: field independent
    for mu_t, nu_t in [("3,3,2,1^8", "5,3,3,3,1,1"), ("2,2,1,1", "3,3"), ("4,2,1,1,1", "3,2,2,2")]:
        mu, nu = parse_partition(mu_t), parse_partition(nu_t)
        if compatible(mu, nu) is None:
            continue
        w = witness(mu, nu)
        n = mu.n
        for i in range(n):
            assert sum(1 for j in range(n) if w.a.entry(i, j) != 0) <= 1
        for j in range(n):
            assert sum(1 for i in range(n) if w.a.entry(i, j) != 0) <= 1


def test_vnab_examples():
    pairs = enumerate_vnab(4, 2, 2)
    mu211 = parse_partition("2,1,1")
    nus = {nu for mu, nu in pairs if mu == mu211}
    assert nus == {Partition([1, 1, 1, 1]), Partition([2, 1, 1]), Partition([2, 2])}
    # inactive bounds: all compatible pairs of P(4)^2
    pairs_all = enumerate_vnab(4, 4, 4)
    expected = {
        (mu, nu)
        for mu in enumerate_partitions(4)
        for nu in enumerate_shapes(mu)
    }
    assert set(pairs_all) == expected
    with pytest.raises(ValueError):
        enumerate_vnab(4, 1, 2)


def test_vnab_projection_covers_all_partitions():
    for n in range(2, 8):
        firsts = {mu for mu, _ in enumerate_vnab(n, n, n)}
        assert firsts == set(enumerate_partitions(n))


def test_component_pairs_examples_and_dual_check():
    for n in range(2, 8):
        for j in range(1, n):
            pairs = component_pairs(n, j)
            for mu, nu in pairs:
                assert compatible(mu, nu) is not None
                assert n - len(nu) <= j <= len(mu)
    # j = n-1 contains ((1^n), (n))
    n = 5
    pairs = component_pairs(n, n - 1)
    assert (Partition([1] * n), Partition([n])) in pairs
    with pytest.raises(ValueError):
        component_pairs(4, 0)
    with pytest.raises(ValueError):
        component_pairs(4, 4)


def test_components_cover_all_compatible_pairs():
    # every compatible pair lies in at least one component
    for n in range(2, 7):
        allpairs = {
            (mu, nu) for mu in enumerate_partitions(n) for nu in enumerate_shapes(mu)
        }
        union = set()
        for j in range(1, n):
            union |= set(component_pairs(n, j))
        assert union == allpairs


def test_shape_sets_golden_digest():
    # every mu with n <= 14 and its shape set as `enumerate --format csv` prints
    # it, so a change in content or in canonical order changes the digest
    text = "\n\n".join(
        format_partition(mu) + "\n" + "\n".join(format_partition(s) for s in enumerate_shapes(mu))
        for n in range(1, 15)
        for mu in enumerate_partitions(n)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == "acb281023ac9e9002dc2c975d2b119e662f8bd4dcf7f18a3db817f0fd0c02cf0"


@pytest.mark.parametrize(
    "n, a, b, count, digest",
    [
        (12, 3, 3, 266, "7ea58e3fd86cb3d68539d2326f4661034501a4a7491e2c28647a94c0144f83f5"),
        (14, 2, 4, 309, "d4938004b0252f97733e8ca7534a5116b8bd14dfdbde8f4b2cc16219d107972e"),
        (16, 4, 3, 1191, "f8c37559287cfbaea730e8794d1ac47b6ee90271962bcce98fd81ada44a47648"),
    ],
)
def test_vnab_golden_digest(n, a, b, count, digest):
    pairs = enumerate_vnab(n, a, b)
    text = "\n".join(format_partition(mu) + "|" + format_partition(nu) for mu, nu in pairs)
    assert len(pairs) == count
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_shape_sets_are_canonically_ordered():
    for n in range(1, 9):
        for mu in enumerate_partitions(n):
            shapes = enumerate_shapes(mu)
            assert list(shapes) == canonical_sorted(shapes)


def test_certificate_search_guard(monkeypatch):
    with pytest.raises(ValueError):
        compatible(Partition([41]), Partition([41]))
    # the pair-set enumerations take the same guard, before enumerating anything
    assert enumerate_shapes(Partition([1] * 40))[-1] == Partition([1] * 40)

    def enumerated(n):
        raise AssertionError(f"partitions of {n} enumerated before the guard")

    monkeypatch.setattr(characterize, "enumerate_partitions", enumerated)
    with pytest.raises(ValueError):
        enumerate_shapes(Partition([1] * 41))
    with pytest.raises(ValueError):
        enumerate_vnab(41, 2, 2)
    with pytest.raises(ValueError):
        component_pairs(41, 3)


def test_witness_reduce_shape_roundtrip_small():
    from nilpairs.jordan import shape_of_reduced
    from nilpairs.reduction import reduce

    for n in range(1, 7):
        for mu in enumerate_partitions(n):
            for nu in enumerate_shapes(mu):
                for field in (GF2, QQ):
                    w = witness(mu, nu, field)
                    r = reduce(w.a, mu)
                    assert shape_of_reduced(r) == nu, (tuple(mu), tuple(nu), field.name)

import pytest

from nilpairs.partitions import (
    MAX_PARSE_N,
    Partition,
    canonical_sorted,
    conjugate,
    enumerate_partitions,
    equal_runs,
    format_partition,
    from_core,
    offsets,
    ord_parts,
    parse_partition,
    split_core,
)


def pentagonal_count(n: int) -> int:
    """Independent partition-count oracle via Euler's pentagonal recurrence."""
    table = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = 1 if k % 2 == 1 else -1
            if g1 <= m:
                total += sign * table[m - g1]
            if g2 <= m:
                total += sign * table[m - g2]
            k += 1
        table[m] = total
    return table[n]


def test_validation():
    with pytest.raises(ValueError):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition([2, 0])
    assert Partition([]).n == 0
    assert Partition([3, 1]).n == 4
    # a Partition is taken as it is, not validated again; a plain tuple is
    p = Partition([3, 1])
    assert Partition(p) is p
    with pytest.raises(ValueError):
        Partition((1, 3))


def test_conjugate_examples():
    assert conjugate(Partition([3, 2, 2, 1])) == Partition([4, 3, 1])
    assert conjugate(Partition([7])) == Partition([1] * 7)
    assert conjugate(Partition()) == Partition()


def test_conjugate_involution_exhaustive():
    for n in range(0, 31):
        for p in enumerate_partitions(n):
            q = conjugate(p)
            assert q.n == n
            assert conjugate(q) == p


def test_ord_parts():
    assert ord_parts([3, 5, 3, 3, 1, 1]) == Partition([5, 3, 3, 3, 1, 1])
    assert ord_parts([0, 0]) == Partition()
    assert ord_parts([2, 2]) == Partition([2, 2])


def test_enumerate_order_and_counts():
    assert [tuple(p) for p in enumerate_partitions(4)] == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]
    assert enumerate_partitions(0) == [Partition()]
    assert len(enumerate_partitions(7)) == 15
    for n in range(0, 31):
        assert len(enumerate_partitions(n)) == pentagonal_count(n)


def test_enumeration_unique_and_sorted():
    for n in range(0, 15):
        parts = enumerate_partitions(n)
        assert len(set(parts)) == len(parts)
        assert parts == canonical_sorted(parts)


def test_split_core():
    s = split_core(parse_partition("3,3,2,1^8"))
    assert s.core == Partition([3, 3, 2]) and s.ones == 8
    assert split_core(Partition([1, 1, 1])) == split_core(parse_partition("1^3"))
    assert split_core(Partition([1, 1, 1])).core == Partition()
    assert split_core(Partition([4, 2])).ones == 0
    for n in range(0, 21):
        for p in enumerate_partitions(n):
            s = split_core(p)
            assert from_core(s.core, s.ones) == p


def test_parse_and_format():
    assert parse_partition("3,3,2,1^8") == Partition([3, 3, 2] + [1] * 8)
    assert parse_partition("") == Partition()
    assert parse_partition("5") == Partition([5])
    assert format_partition(Partition([5, 3, 3])) == "5,3,3"
    assert format_partition(Partition()) == ""
    with pytest.raises(ValueError):
        parse_partition("1,2")
    with pytest.raises(ValueError):
        parse_partition("2,,1")
    for n in range(0, 12):
        for p in enumerate_partitions(n):
            assert parse_partition(format_partition(p)) == p


def test_parse_limits_checked_before_expanding():
    assert parse_partition(f"2,1^{MAX_PARSE_N - 2}").n == MAX_PARSE_N
    # each of these would take minutes and gigabytes to expand
    for text in (f"1^{MAX_PARSE_N + 1}", "1^99999999999", "5,-2^99999999999", "0^99999999999"):
        with pytest.raises(ValueError):
            parse_partition(text)
    for value in (1, None, ["2", "1"]):
        with pytest.raises(ValueError):
            parse_partition(value)


def test_offsets_and_equal_runs():
    assert offsets(Partition()) == (0,)
    assert offsets(parse_partition("3,3,2,1^2")) == (0, 3, 6, 8, 9, 10)
    assert equal_runs(Partition()) == []
    assert equal_runs(parse_partition("3,3,2,1^3")) == [(0, 2), (2, 3), (3, 6)]
    for n in range(0, 9):
        for p in enumerate_partitions(n):
            runs = equal_runs(p)
            assert [p[j] for j0, j1 in runs for j in range(j0, j1)] == list(p)
            assert all(len(set(p[j0:j1])) == 1 for j0, j1 in runs)
            assert all(p[a1 - 1] != p[b0] for (_, a1), (b0, _) in zip(runs, runs[1:]))

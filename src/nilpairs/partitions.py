"""Integer partitions: construction, conjugation, enumeration, core/ones split,
block offsets and runs of equal parts.

Partitions are the shapes of nilpotent matrices throughout this package.
The canonical enumeration and sort order is reverse lexicographic, i.e.
(4) > (3,1) > (2,2) > (2,1,1) > (1,1,1,1), which coincides with descending
tuple comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

__all__ = [
    "Partition",
    "CoreSplit",
    "conjugate",
    "ord_parts",
    "enumerate_partitions",
    "offsets",
    "equal_runs",
    "split_core",
    "from_core",
    "parse_partition",
    "format_partition",
    "canonical_sorted",
]


class Partition(tuple):
    """Weakly decreasing tuple of positive integers.  Immutable, hashable.

    The empty partition (of 0) is a first-class value.
    """

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        if type(parts) is cls:  # already validated, and immutable
            return parts
        t = tuple(int(x) for x in parts)
        for i, v in enumerate(t):
            if v < 1:
                raise ValueError(f"partition parts must be positive, got {v}")
            if i and t[i - 1] < v:
                raise ValueError(f"partition parts must be weakly decreasing: {t}")
        return super().__new__(cls, t)

    @property
    def n(self) -> int:
        """Total being partitioned (sum of parts)."""
        return sum(self)

    def __repr__(self) -> str:
        return f"Partition({tuple(self)!r})"


@dataclass(frozen=True)
class CoreSplit:
    """A partition written as (core, 1^ones) with every core part >= 2."""

    core: Partition
    ones: int


def conjugate(p: Partition) -> Partition:
    """Conjugate (transposed) partition: result[i-1] = #{j : p[j] >= i}."""
    if not p:
        return Partition()
    cols = [0] * p[0]
    for part in p:
        for i in range(part):
            cols[i] += 1
    return Partition(cols)


def ord_parts(seq: Iterable[int]) -> Partition:
    """Sort a sequence of nonnegative integers weakly decreasing, dropping zeros."""
    kept = sorted((int(x) for x in seq if int(x) != 0), reverse=True)
    if any(x < 0 for x in kept):
        raise ValueError("ord_parts expects nonnegative integers")
    return Partition(kept)


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n in reverse lexicographic order, (n) first, (1^n) last."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out: list[Partition] = []

    def rec(remaining: int, cap: int, prefix: list[int]) -> None:
        if remaining == 0:
            out.append(Partition(prefix))
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            rec(remaining - part, part, prefix)
            prefix.pop()

    rec(n, n, [])
    return out


def offsets(p: Partition) -> tuple[int, ...]:
    """Block offsets of the parts: (0, p1, p1+p2, ..., n), one more than len(p)."""
    out = [0]
    for part in p:
        out.append(out[-1] + part)
    return tuple(out)


def equal_runs(p: Partition) -> list[tuple[int, int]]:
    """Maximal runs of equal parts as half-open index ranges [j0, j1), in order."""
    runs = []
    j0 = 0
    while j0 < len(p):
        j1 = j0 + 1
        while j1 < len(p) and p[j1] == p[j0]:
            j1 += 1
        runs.append((j0, j1))
        j0 = j1
    return runs


@lru_cache(maxsize=1024)
def split_core(p: Partition) -> CoreSplit:
    """Split p into the core of parts >= 2 and the count of trailing 1-parts."""
    ones = 0
    for part in reversed(p):
        if part == 1:
            ones += 1
        else:
            break
    return CoreSplit(core=Partition(p[: len(p) - ones]), ones=ones)


def from_core(core: Partition, ones: int) -> Partition:
    """Inverse of split_core."""
    if ones < 0:
        raise ValueError("ones must be nonnegative")
    if core and core[-1] < 2:
        raise ValueError("core parts must all be >= 2")
    return Partition(tuple(core) + (1,) * ones)


MAX_PARSE_N = 10_000  # largest total a partition string may expand to


def parse_partition(text: str) -> Partition:
    """Parse the CLI text form, e.g. "3,3,2,1^8" (exponent shorthand expanded).

    The empty string parses to the empty partition.  Raises ValueError for a
    non-string, and for a total above MAX_PARSE_N, checked before expanding.
    """
    if not isinstance(text, str):
        raise ValueError(f"partition must be a string, got {text!r}")
    text = text.strip()
    if text in ("", "()"):
        return Partition()
    runs: list[tuple[int, int]] = []  # (part, multiplicity)
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError(f"empty component in partition string {text!r}")
        if "^" in chunk:
            base_s, exp_s = chunk.split("^", 1)
            base, exp = int(base_s), int(exp_s)
            if exp < 0:
                raise ValueError(f"negative exponent in {chunk!r}")
            runs.append((base, exp))
        else:
            runs.append((int(chunk), 1))
    for part, _ in runs:
        if part < 1:
            raise ValueError(f"partition parts must be positive, got {part}")
    n = sum(part * mult for part, mult in runs)
    if n > MAX_PARSE_N:
        raise ValueError(f"partition of {n} exceeds the limit n <= {MAX_PARSE_N}")
    return Partition(part for part, mult in runs for _ in range(mult))


def format_partition(p: Partition) -> str:
    """Canonical text form: comma-separated parts, no exponents; "" for empty."""
    return ",".join(str(x) for x in p)


def canonical_sorted(shapes: Iterable[Partition]) -> list[Partition]:
    """Sort shapes in the canonical (reverse lexicographic) order."""
    return sorted(shapes, reverse=True)

"""Which Jordan shapes pair up in a mutually annihilating nilpotent pair.

Fixing sh(B) = mu = (core, 1^m), the attainable shapes for A are exactly
ord(lambda_1+eps_1, ..., lambda_l+eps_l, 2^c, 1^d) over lambda a partition
of m, eps_i in {0,1,2}, 0 <= 2c <= 2k - sum(eps), with everything summing
to n.  Read part by part this is a small knapsack: each part v of nu is a
lambda part v - e at cost e (v - e >= 1), a part of 2^c at cost 2, or a
part of 1^d at cost 0, and nu is attainable exactly when some choice strips
to m at total cost <= 2k.  `enumerate_shapes` generates the shape set that
way, placing parts largest first and carrying a frontier (stripped sum ->
least cost).  `compatible` decides membership by an independent search over
certificates and returns the key-minimal one; the tests and the `decide`
bench check the two against each other.  `witness` constructs an explicit
0/1 matrix pair realizing a compatible target, validated end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .fields import GF2, FieldSpec
from .matrix import ExactMatrix, NotNilpotent, jordan_matrix
from .partitions import (
    Partition,
    enumerate_partitions,
    equal_runs,
    ord_parts,
    split_core,
)
from .structure import corner_layout, is_annihilating_form

__all__ = [
    "Certificate",
    "WitnessPair",
    "Incompatible",
    "ConstructionMismatch",
    "DualCheckMismatch",
    "compatible",
    "enumerate_shapes",
    "witness",
    "enumerate_vnab",
    "component_pairs",
]

MAX_N = 40  # guard on n for the certificate search and every pair-set enumeration


def _require_small(n: int) -> None:
    if n > MAX_N:
        raise ValueError(f"shape search guarded at n <= {MAX_N}, got n={n}")


class Incompatible(ValueError):
    """The requested shape pair is not attainable."""


class ConstructionMismatch(AssertionError):
    """A constructed witness failed validation (construction bug, never returned)."""


class DualCheckMismatch(AssertionError):
    """Two independent implementations of the same pair set disagree."""


@dataclass(frozen=True)
class Certificate:
    """Decomposition nu = ord(lam_i + eps_i, 2^c, 1^d) witnessing compatibility."""

    lam: Partition
    eps: tuple[int, ...]
    c: int
    d: int

    @property
    def sum_eps(self) -> int:
        return sum(self.eps)

    def target_shape(self) -> Partition:
        return ord_parts([p + e for p, e in zip(self.lam, self.eps)] + [2] * self.c + [1] * self.d)

    def check(self, mu: Partition, nu: Partition) -> None:
        split = split_core(mu)
        k, m = len(split.core), split.ones
        if self.lam.n != m:
            raise AssertionError("certificate lambda does not partition m")
        if len(self.eps) != len(self.lam) or any(e not in (0, 1, 2) for e in self.eps):
            raise AssertionError("bad epsilon vector")
        if not (0 <= 2 * self.c <= 2 * k - self.sum_eps):
            raise AssertionError("c out of range")
        if self.d < 0:
            raise AssertionError("negative d")
        if self.target_shape() != nu:
            raise AssertionError("certificate does not reassemble nu")


@dataclass(frozen=True)
class WitnessPair:
    """Explicit mutually annihilating nilpotent pair with prescribed shapes."""

    a: ExactMatrix
    b: ExactMatrix
    mu: Partition
    nu: Partition


# -- compatibility ---------------------------------------------------------------


def _eps_run_choices(value: int, count: int, budget: int) -> Iterator[tuple[int, ...]]:
    """Epsilon assignments for `count` equal parts of size `value`, non-increasing,
    each eps <= value-1 (so the stripped part stays positive), total <= budget."""
    cap2 = count if value >= 3 else 0
    for n2 in range(cap2 + 1):
        if 2 * n2 > budget:
            break
        cap1 = count - n2 if value >= 2 else 0
        for n1 in range(cap1 + 1):
            if 2 * n2 + n1 > budget:
                break
            yield (2,) * n2 + (1,) * n1 + (0,) * (count - n2 - n1)


def _certificates(mu: Partition, nu: Partition) -> Iterator[Certificate]:
    split = split_core(mu)
    k, m, n = len(split.core), split.ones, nu.n
    count2 = sum(1 for p in nu if p == 2)
    count1 = sum(1 for p in nu if p == 1)
    runs = [(nu[j0], j1 - j0) for j0, j1 in equal_runs(nu)]  # (value, count), descending

    for c in range(min(count2, k) + 1):
        # the epsilons sum to target = n - m - 2c - d, which must lie in [0, 2k - 2c],
        # and lambda, a partition of m, takes the other len(nu) - c - d parts
        for d in range(max(0, n - m - 2 * k, len(nu) - m - c), min(count1, n - m - 2 * c) + 1):
            target = n - m - 2 * c - d
            remaining = [(v, cnt - (c if v == 2 else d if v == 1 else 0)) for v, cnt in runs]
            remaining = [(v, cnt) for v, cnt in remaining if cnt > 0]

            def rec(idx: int, left: int, acc: list[tuple[int, int]]) -> Iterator[Certificate]:
                if idx == len(remaining):
                    if left == 0:
                        pairs = sorted(acc, key=lambda t: (-t[0], -t[1]))
                        lam = Partition([p for p, _ in pairs])
                        eps = tuple(e for _, e in pairs)
                        yield Certificate(lam=lam, eps=eps, c=c, d=d)
                    return
                v, cnt = remaining[idx]
                tail_cap = sum(min(2, vv - 1) * cc for vv, cc in remaining[idx + 1 :])
                for run_eps in _eps_run_choices(v, cnt, left):
                    used = sum(run_eps)
                    if left - used > tail_cap:
                        continue
                    yield from rec(idx + 1, left - used, acc + [(v - e, e) for e in run_eps])

            yield from rec(0, target, [])


@lru_cache(maxsize=65536)
def _compatible_cached(mu: Partition, nu: Partition) -> Certificate | None:
    best: Certificate | None = None
    best_key = None
    for cert in _certificates(mu, nu):
        key = (tuple(cert.lam), cert.sum_eps, -cert.c, cert.eps)
        if best_key is None or key < best_key:
            best, best_key = cert, key
    return best


def compatible(mu: Partition, nu: Partition) -> Certificate | None:
    """Certificate for nu being an attainable partner shape against mu, else None.

    Deterministic choice: the least key (lam, sum eps, -c, eps), i.e. lambda
    latest in the canonical partition order (lexicographically smallest), then
    minimal sum of epsilons, then maximal c, then the smallest eps vector.
    """
    mu, nu = Partition(mu), Partition(nu)
    if mu.n != nu.n:
        raise ValueError(f"|mu| = {mu.n} != |nu| = {nu.n}")
    _require_small(mu.n)
    cert = _compatible_cached(mu, nu)
    if cert is not None:
        cert.check(mu, nu)
    return cert


@lru_cache(maxsize=4096)
def _enumerate_shapes_cached(mu: Partition, cap: int) -> tuple[Partition, ...]:
    """Shapes attainable against mu with every part <= cap, in canonical order."""
    split = split_core(mu)
    budget, m = 2 * len(split.core), split.ones

    @lru_cache(maxsize=None)
    def rest(cap: int, left: int, front: tuple[tuple[int, int], ...]) -> list[tuple[int, ...]]:
        # descending completions with parts <= cap summing to left that strip to m
        if left == 0:
            return [()]
        out = []
        for v in range(min(cap, left), 0, -1):
            moves = [(v - e, e) for e in (0, 1, 2) if v - e >= 1]  # (stripped part, cost)
            if v == 2:
                moves.append((0, 2))
            if v == 1:
                moves.append((0, 0))
            lo = m - (left - v)  # the parts after v strip to at most left - v
            best: dict[int, int] = {}
            for s, cost in front:
                for strip, e in moves:
                    s2, c2 = s + strip, cost + e
                    if lo <= s2 <= m and c2 < best.get(s2, budget + 1):
                        best[s2] = c2
            if best:
                out += [(v,) + tail for tail in rest(v, left - v, tuple(sorted(best.items())))]
        return out

    shapes = tuple(Partition(nu) for nu in rest(cap, mu.n, ((0, 0),)))
    rest.cache_clear()  # the memo sits in a reference cycle through the closure; free it now
    return shapes


def enumerate_shapes(mu: Partition) -> tuple[Partition, ...]:
    """All shapes attainable against mu, in canonical order."""
    mu = Partition(mu)
    _require_small(mu.n)
    return _enumerate_shapes_cached(mu, mu.n)


# -- witness construction ----------------------------------------------------------


def witness(mu: Partition, nu: Partition, field: FieldSpec = GF2) -> WitnessPair:
    """Explicit pair (A, B) with B = J_mu, sh(A) = nu, AB = BA = 0.

    The entries of A are 0/1 with at most one nonzero per row and per column,
    so the construction is field-independent.  All invariants are re-verified
    before returning; a failure raises ConstructionMismatch.
    """
    mu, nu = Partition(mu), Partition(nu)
    cert = compatible(mu, nu)
    if cert is None:
        raise Incompatible(f"nu={tuple(nu)} is not attainable against mu={tuple(mu)}")
    lam, eps, c = cert.lam, cert.eps, cert.c
    l = len(lam)
    lay = corner_layout(split_core(mu).core, lam)
    k, n = lay.k, mu.n

    # suffix2[i] = #{j >= i : eps_j = 2}, 1-based; phi2(i) = suffix2[i + 1]
    suffix2 = [0] * (l + 2)
    for i in range(l, 0, -1):
        suffix2[i] = suffix2[i + 1] + (1 if eps[i - 1] == 2 else 0)

    t = [0] * (l + 1)
    s = [0] * (l + 1)
    for i in range(1, l + 1):
        e = eps[i - 1]
        if e == 2 or (e == 1 and t[i - 1] + 1 + suffix2[i + 1] <= k - c):
            t[i] = t[i - 1] + 1
        else:
            t[i] = t[i - 1]
        if e == 2 or (e == 1 and t[i] == t[i - 1]):
            s[i] = s[i - 1] + 1
        else:
            s[i] = s[i - 1]
    if t[l] > k - c or s[l] > k - c:
        raise ConstructionMismatch("hook placement exceeded available core blocks")

    rows = [[field.zero()] * n for _ in range(n)]
    one = field.one()
    for j, part in enumerate(lam):  # A22 = J_lambda
        for i in range(part - 1):
            rows[lay.lam_pos(j, i)][lay.lam_pos(j, i + 1)] = one
    for i in range(1, l + 1):
        if t[i] > t[i - 1]:
            rows[lay.lam_last(i - 1)][lay.core_last(t[i] - 1)] = one
        if s[i] > s[i - 1]:
            rows[lay.core_first(s[i] - 1)][lay.lam_pos(i - 1)] = one
    for i in range(1, c + 1):
        rows[lay.core_first(k - i)][lay.core_last(k - i)] = one

    a = ExactMatrix(field, rows, _canon=False)
    b = jordan_matrix(mu, field)

    if not is_annihilating_form(a, mu):
        raise ConstructionMismatch("witness pair does not mutually annihilate")
    try:
        shape = a.nilpotent_shape()
    except NotNilpotent:
        raise ConstructionMismatch("witness A is not nilpotent") from None
    if shape != nu:
        raise ConstructionMismatch(f"witness A has shape {tuple(shape)}, wanted {tuple(nu)}")
    if b.nilpotent_shape() != mu:
        raise ConstructionMismatch("witness B has the wrong shape")
    return WitnessPair(a=a, b=b, mu=mu, nu=nu)


# -- derived pair sets ----------------------------------------------------------------


def enumerate_vnab(n: int, a: int, b: int) -> tuple[tuple[Partition, Partition], ...]:
    """Pairs (sh A, sh B) of the variety with AB = BA = A^a = B^b = 0.

    First coordinate bounded by a, second by b; compatibility is symmetric,
    so the pair is attainable iff compatible(mu, nu) holds.
    """
    if n < 2 or a < 2 or b < 2:
        raise ValueError("n, a, b must all be at least 2")
    _require_small(n)
    pairs: list[tuple[Partition, Partition]] = []
    for mu in enumerate_partitions(n):
        if mu[0] > a:
            continue
        pairs += [(mu, nu) for nu in _enumerate_shapes_cached(mu, b)]
    pairs.sort(reverse=True)
    return tuple(pairs)


def component_pairs(n: int, j: int) -> tuple[tuple[Partition, Partition], ...]:
    """Shape pairs of the rank-bounded irreducible component C_j.

    Computed from the certificate inequality n-l-c-d <= j <= k+m and checked
    against the rank conditions rk(A) <= n-j, rk(B) <= j; a disagreement
    raises DualCheckMismatch.
    """
    if not 1 <= j <= n - 1:
        raise ValueError(f"j must be in [1, {n - 1}], got {j}")
    _require_small(n)
    printed: set[tuple[Partition, Partition]] = set()
    by_ranks: set[tuple[Partition, Partition]] = set()
    for mu in enumerate_partitions(n):
        shapes = enumerate_shapes(mu)
        for nu in shapes:
            cert = compatible(mu, nu)
            assert cert is not None
            l_cd = len(cert.lam) + cert.c + cert.d
            if n - l_cd <= j <= len(mu):
                printed.add((mu, nu))
            rank_a = n - len(mu)
            rank_b = n - len(nu)
            if rank_a <= n - j and rank_b <= j:
                by_ranks.add((mu, nu))
    if printed != by_ranks:
        raise DualCheckMismatch(
            f"component C_{j}: certificate inequality and rank conditions disagree: "
            f"{sorted(printed ^ by_ranks)}"
        )
    return tuple(sorted(printed, reverse=True))

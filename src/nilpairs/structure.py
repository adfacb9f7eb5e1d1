"""Block structure of matrices that annihilate a Jordan matrix.

For B = J_mu the matrices A with AB = BA = 0 vanish outside a single corner
per block.  This module exposes the product-based and the structural
(pattern) predicate, the list of free coordinates, the size of the candidate
space, and seeded nilpotent candidates.  Both censuses and `verify` read
their candidates in batches from one stream per mode in `census`; the
per-matrix definitions of those streams (`enumerate_candidates`,
`candidate_at`, `sample_candidate`) live in `nilpairs.oracles`.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import rng
from .fields import FieldSpec
from .matrix import ExactMatrix, jordan_matrix
from .partitions import Partition, offsets, split_core

__all__ = [
    "FreeCoordinates",
    "BudgetExceeded",
    "is_annihilating_form",
    "matches_annihilating_pattern",
    "free_coordinates",
    "candidate_count",
    "sample_nilpotent_candidate",
]

DEFAULT_BUDGET = 2**24


class BudgetExceeded(RuntimeError):
    """Enumeration would exceed the configured candidate budget."""

    def __init__(self, required: int, budget: int):
        super().__init__(f"enumeration needs {required} candidates, budget is {budget}")
        self.required = required
        self.budget = budget


@dataclass(frozen=True)
class FreeCoordinates:
    """Positions (0-based) that may be nonzero for A with A*J_mu = J_mu*A = 0."""

    mu: Partition
    positions: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.positions)


def free_coordinates(mu: Partition) -> FreeCoordinates:
    """Free positions, row-major: k^2 core corners, k*m in A12, m*k in A21, m^2 in A22."""
    split = split_core(mu)
    core, m = split.core, split.ones
    k = len(core)
    off = offsets(core)
    n = mu.n
    base = n - m  # ones block start
    pos: list[tuple[int, int]] = []
    for i in range(k):
        row = off[i]  # first row of core block i
        for j in range(k):
            pos.append((row, off[j + 1] - 1))  # last column of core block j
        for j in range(m):
            pos.append((row, base + j))
    for i in range(m):
        row = base + i
        for j in range(k):
            pos.append((row, off[j + 1] - 1))
        for j in range(m):
            pos.append((row, base + j))
    pos.sort()
    return FreeCoordinates(mu=mu, positions=tuple(pos))


# -- predicates ---------------------------------------------------------------


def is_annihilating_form(a: ExactMatrix, mu: Partition) -> bool:
    """True iff a * J_mu == 0 and J_mu * a == 0 (checked by exact products)."""
    _require_size(a, mu)
    j = jordan_matrix(mu, a.field)
    return a.mul(j).is_zero() and j.mul(a).is_zero()


def matches_annihilating_pattern(a: ExactMatrix, mu: Partition) -> bool:
    """Structural twin of is_annihilating_form: support inside the free coordinates."""
    _require_size(a, mu)
    allowed = set(free_coordinates(mu).positions)
    zero = a.field.zero()
    for i, row in enumerate(a.rows):
        for j, v in enumerate(row):
            if v != zero and (i, j) not in allowed:
                return False
    return True


def _require_size(a: ExactMatrix, mu: Partition) -> None:
    n = mu.n
    if a.nrows != n or a.ncols != n:
        raise ValueError(f"matrix is {a.nrows}x{a.ncols}, expected {n}x{n} for mu={tuple(mu)}")


# -- generation ---------------------------------------------------------------


def candidate_count(mu: Partition, field: FieldSpec) -> int:
    """Number of candidates |F|^((k+m)^2) of the exhaustive enumeration."""
    if not field.is_finite:
        raise ValueError("exhaustive enumeration needs a finite field")
    return field.order ** len(free_coordinates(mu))


def sample_nilpotent_candidate(mu: Partition, field: FieldSpec, seed: int) -> ExactMatrix:
    """Seeded annihilating-form candidate that is guaranteed nilpotent.

    An annihilating-form matrix is nilpotent exactly when its ones-block A22
    is, so A22 starts strictly upper triangular and is scrambled by seeded
    elementary conjugations and diagonal rescalings (similarity preserves
    nilpotency); the remaining free coordinates are drawn directly.
    """
    split = split_core(mu)
    m = split.ones
    q = field.order
    free = free_coordinates(mu)
    n = mu.n
    base = n - m
    rows = [[0] * n for _ in range(n)]
    outer = [(r, c) for (r, c) in free.positions if r < base or c < base]
    vals = rng.values_mod(seed, 0, len(outer), q)
    for (r, c), v in zip(outer, vals):
        rows[r][c] = v
    if m:
        cursor = len(outer)
        strict = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                strict[i][j] = rng.splitmix64(seed, cursor) % q
                cursor += 1
        # scramble by elementary conjugations E = I + xi*e[p,q]; stays nilpotent
        for step in range(3 * m):
            p = rng.splitmix64(seed, cursor) % m
            qq = rng.splitmix64(seed, cursor + 1) % m
            xi = rng.splitmix64(seed, cursor + 2) % q
            cursor += 3
            if p == qq or xi == 0:
                continue
            rq = strict[qq]
            strict[p] = [(x + xi * y) % q for x, y in zip(strict[p], rq)]
            for row in strict:
                row[qq] = (row[qq] - xi * row[p]) % q
        for i in range(m):
            alpha = 1 + rng.splitmix64(seed, cursor) % (q - 1) if q > 2 else 1
            cursor += 1
            if alpha != 1:
                inv = pow(alpha, q - 2, q)
                strict[i] = [(alpha * x) % q for x in strict[i]]
                for row in strict:
                    row[i] = (row[i] * inv) % q
        for i in range(m):
            for j in range(m):
                rows[base + i][base + j] = strict[i][j]
    return ExactMatrix(field, rows, _canon=False)

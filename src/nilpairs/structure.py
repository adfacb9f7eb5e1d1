"""Block structure of matrices that annihilate a Jordan matrix.

For B = J_mu the matrices A with AB = BA = 0 vanish outside a single corner
per block.  This module is the one home of that corner layout: `Layout`
(built and cached by `corner_layout`) places the core blocks, the lambda
blocks of the ones part and their corners, and the predicates, the free
coordinates, `reduction`, `jordan`, `characterize` and `census` all read it.
It also exposes the product-based and the structural (pattern) predicate,
the list of free coordinates, a pattern matrix's rank sequence from its
K x K corner (`corner_rank_sequence`), the size of the candidate space, and
seeded nilpotent candidates.  Both censuses and `verify` read their
candidates in batches from one stream per mode in `census`; the per-matrix
definitions of those streams (`enumerate_candidates`, `candidate_at`,
`sample_candidate`) live in `nilpairs.oracles`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from . import rng
from .fields import FieldSpec
from .matrix import ExactMatrix, _rank_chain, jordan_matrix
from .partitions import Partition, offsets, split_core

__all__ = [
    "FreeCoordinates",
    "BudgetExceeded",
    "Layout",
    "corner_layout",
    "pattern_layout",
    "corner_rank_sequence",
    "is_annihilating_form",
    "matches_annihilating_pattern",
    "free_coordinates",
    "candidate_count",
    "sample_nilpotent_candidate",
]

DEFAULT_BUDGET = 2**24


class BudgetExceeded(RuntimeError):
    """Enumeration would exceed the configured candidate budget."""

    def __init__(self, required: int, budget: int, message: str | None = None):
        super().__init__(message or f"enumeration needs {required} candidates, budget is {budget}")
        self.required = required
        self.budget = budget


@dataclass(frozen=True)
class FreeCoordinates:
    """Positions (0-based) that may be nonzero for A with A*J_mu = J_mu*A = 0."""

    mu: Partition
    positions: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class Layout:
    """Block positions of mu = (core, 1^m) with its ones part cut into the
    blocks of a partition lambda of m (0-based rows and columns).

    Core block t spans [co[t], co[t+1]); lambda block j spans [lo[j], lo[j+1]),
    from base = |core| on.  A with A*J_mu = J_mu*A = 0 is zero outside the free
    rows (the first row of each core block, every ones row) crossed with the
    free columns (the last column of each core block, every ones column).  The
    A12 corner of (t, j) is (core_first(t), lam_pos(j)), the A21 corner of
    (j, t) is (lam_last(j), core_last(t)), and J_lambda in A22 has its ones at
    (lam_pos(j, i), lam_pos(j, i + 1)).  lambda = 1^m gives the bare pattern.
    """

    co: tuple[int, ...]
    lo: tuple[int, ...]
    free_rows: tuple[int, ...]
    free_cols: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.co) - 1

    @property
    def base(self) -> int:
        return self.co[-1]

    def core_first(self, t: int) -> int:
        return self.co[t]

    def core_last(self, t: int) -> int:
        return self.co[t + 1] - 1

    def lam_pos(self, j: int, i: int = 0) -> int:
        return self.lo[j] + i

    def lam_last(self, j: int) -> int:
        return self.lo[j + 1] - 1

    def x_corner(self, rows) -> list[list]:
        """The k x l A12 corner entries of the n x n matrix with these rows."""
        return [[rows[r][c] for c in self.lo[:-1]] for r in self.co[:-1]]

    def y_corner(self, rows) -> list[list]:
        """The l x k A21 corner entries of the n x n matrix with these rows."""
        return [[rows[r - 1][c - 1] for c in self.co[1:]] for r in self.lo[1:]]


@lru_cache(maxsize=1024)
def corner_layout(core: Partition, lam: Partition) -> Layout:
    """The layout of (core, 1^m) with the ones part cut by lam, cached."""
    co = offsets(core)
    lo = tuple(co[-1] + x for x in offsets(lam))
    ones = tuple(range(lo[0], lo[-1]))
    return Layout(co, lo, co[:-1] + ones, tuple(c - 1 for c in co[1:]) + ones)


@lru_cache(maxsize=1024)
def pattern_layout(mu: Partition) -> Layout:
    """The layout of mu = (core, 1^m) with one block per ones row."""
    split = split_core(mu)
    return corner_layout(split.core, Partition((1,) * split.ones))


def corner_rank_sequence(field: FieldSpec, mu: Partition, rows) -> list[int]:
    """[rk(A^0), rk(A^1), ...] down to the first zero power, for the n x n rows of A in mu's pattern.

    A is zero outside the K x K corner B at the free rows and columns, so
    rk(A^s) = rk(B_s) with B_1 = B and B_(s+1) = B_s[:, k:] B[k:, :] (see
    `census._rank_rows`), the chain that `ExactMatrix.rank_sequence` runs at
    k = 0.  Raises NotNilpotent if B_n is nonzero.
    """
    lay = pattern_layout(mu)
    return _rank_chain(field, [[rows[r][c] for c in lay.free_cols] for r in lay.free_rows], lay.k, mu.n)


def free_coordinates(mu: Partition) -> FreeCoordinates:
    """Free positions, row-major: the free rows crossed with the free columns."""
    lay = pattern_layout(mu)
    return FreeCoordinates(mu=mu, positions=tuple(itertools.product(lay.free_rows, lay.free_cols)))


# -- predicates ---------------------------------------------------------------


def is_annihilating_form(a: ExactMatrix, mu: Partition) -> bool:
    """True iff a * J_mu == 0 and J_mu * a == 0 (checked by exact products)."""
    _require_size(a, mu)
    j = jordan_matrix(mu, a.field)
    return a.mul(j).is_zero() and j.mul(a).is_zero()


def matches_annihilating_pattern(a: ExactMatrix, mu: Partition) -> bool:
    """Structural twin of is_annihilating_form: support inside the free coordinates."""
    _require_size(a, mu)
    lay = pattern_layout(mu)
    rows, cols = set(lay.free_rows), [j for j in range(a.ncols) if j not in lay.free_cols]
    return not any(any(row[j] for j in cols) if i in rows else any(row) for i, row in enumerate(a.rows))


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
    n, q = mu.n, field.order
    base = pattern_layout(mu).base
    m = n - base
    free = free_coordinates(mu)
    rows = [[0] * n for _ in range(n)]
    outer = [(r, c) for (r, c) in free.positions if r < base or c < base]
    vals = rng.values_mod(seed, 0, len(outer), q)
    for (r, c), v in zip(outer, vals):
        rows[r][c] = v
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

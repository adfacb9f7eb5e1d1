"""Reference twins of the pipeline, kept as independent cross-checks.

Each function recomputes, by the slow and obvious route, something the
package computes structurally or in batches: the candidate streams of the
censuses one matrix at a time (`enumerate_candidates` and `candidate_at` in
odometer order, `sample_candidate` in splitmix64 stream order), the shape
census by testing every candidate on its own, the commuting form by exact
products and by its block Toeplitz pattern, the powers of a reduced matrix by
block products, and one elementary conjugation by the paired row/column move.
The test suite checks the pipeline against them.  Nothing in the package
calls this module and `nilpairs` does not re-export it.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from . import rng
from .fields import FieldSpec
from .matrix import ExactMatrix, jordan_matrix
from .partitions import Partition, offsets
from .reduction import ReducedPair, _conj_add
from .structure import DEFAULT_BUDGET, BudgetExceeded, _require_size, candidate_count, free_coordinates

__all__ = [
    "candidate_at",
    "enumerate_candidates",
    "sample_candidate",
    "reference_shape_census",
    "is_commuting_form",
    "matches_commuting_pattern",
    "power_blocks",
    "assemble_power",
    "elementary_conjugation",
]


def _place(n: int, field: FieldSpec, positions, values) -> ExactMatrix:
    """The n x n candidate with values[f] at positions[f] and zeros elsewhere."""
    rows = [[0] * n for _ in range(n)]
    for (r, c), v in zip(positions, values):
        rows[r][c] = v
    return ExactMatrix(field, rows, _canon=False)


def candidate_at(mu: Partition, field: FieldSpec, index: int) -> ExactMatrix:
    """Candidate at a given odometer position.

    Coordinates are row-major; the first coordinate is the most significant
    digit, so the last free coordinate cycles fastest.
    """
    free = free_coordinates(mu)
    q, nf = field.order, len(free)
    if not 0 <= index < q**nf:
        raise ValueError(f"candidate index {index} out of range [0, {q**nf})")
    return _place(mu.n, field, free.positions, [index // q ** (nf - 1 - f) % q for f in range(nf)])


def enumerate_candidates(
    mu: Partition, field: FieldSpec, budget: int = DEFAULT_BUDGET
) -> Iterator[ExactMatrix]:
    """Yield every annihilating-form candidate exactly once (odometer order).

    Raises BudgetExceeded up front when |F|^((k+m)^2) > budget.  Candidates
    are not filtered for nilpotency.
    """
    total = candidate_count(mu, field)
    if total > budget:
        raise BudgetExceeded(total, budget)
    positions = free_coordinates(mu).positions
    for digits in itertools.product(range(field.order), repeat=len(positions)):
        yield _place(mu.n, field, positions, digits)


def sample_candidate(mu: Partition, field: FieldSpec, seed: int, index: int = 0) -> ExactMatrix:
    """Deterministic pseudorandom assignment to the free coordinates.

    Sample `index` draws splitmix64 stream positions [index*F, (index+1)*F)
    of the stream keyed by `seed`, so a (seed, index) pair pins the matrix.
    Not necessarily nilpotent.
    """
    free = free_coordinates(mu)
    vals = rng.values_mod(seed, index * len(free), len(free), field.order)
    return _place(mu.n, field, free.positions, vals)


def reference_shape_census(
    mu: Partition, field: FieldSpec, budget: int = DEFAULT_BUDGET
) -> dict[Partition, int]:
    """Per-matrix census (slow); the twin of census.exhaustive_shape_census."""
    counts: dict[Partition, int] = {}
    for cand in enumerate_candidates(mu, field, budget):
        if cand.is_nilpotent():
            shape = cand.nilpotent_shape()
            counts[shape] = counts.get(shape, 0) + 1
    return counts


def is_commuting_form(a: ExactMatrix, mu: Partition) -> bool:
    """True iff a commutes with J_mu (checked by exact products)."""
    _require_size(a, mu)
    j = jordan_matrix(mu, a.field)
    return a.mul(j) == j.mul(a)


def matches_commuting_pattern(a: ExactMatrix, mu: Partition) -> bool:
    """Structural twin of is_commuting_form: every block upper-triangular Toeplitz.

    Block (i, j) of sizes r x c may be nonzero only on the diagonals
    q - p >= c - min(r, c), with constant values along each diagonal.
    """
    _require_size(a, mu)
    off = offsets(mu)
    t = len(mu)
    for bi in range(t):
        for bj in range(t):
            r, c = mu[bi], mu[bj]
            lo = c - min(r, c)
            for p in range(r):
                for q in range(c):
                    v = a.rows[off[bi] + p][off[bj] + q]
                    if q - p < lo:
                        if v != a.field.zero():
                            return False
                    elif p + 1 < r and q + 1 < c:
                        if v != a.rows[off[bi] + p + 1][off[bj] + q + 1]:
                            return False
    return True


def power_blocks(r: ReducedPair, s: int) -> tuple[ExactMatrix, ExactMatrix, ExactMatrix, ExactMatrix]:
    """The four blocks of A^(s+1) for a reduced matrix, s >= 1.

    Returns (A12*J^(s-1)*A21, A12*J^s, J^s*A21, J^(s+1)); assembling them
    reproduces matrix^(s+1) exactly.
    """
    if s < 1:
        raise ValueError("power_blocks needs s >= 1")
    a12, a21 = r.a12(), r.a21()
    j = jordan_matrix(r.lam, r.field)
    js1 = j.power(s - 1)
    js = js1.mul(j)
    return (a12.mul(js1).mul(a21), a12.mul(js), js.mul(a21), js.mul(j))


def assemble_power(r: ReducedPair, s: int) -> ExactMatrix:
    """A^(s+1) assembled from the 2x2 grid of power_blocks."""
    tl, tr, bl, br = power_blocks(r, s)
    rows = [x + y for x, y in zip(tl.rows, tr.rows)] + [x + y for x, y in zip(bl.rows, br.rows)]
    return ExactMatrix(r.field, rows, ncols=r.n, _canon=False)


def elementary_conjugation(
    a: ExactMatrix, i: int, ri: int, j: int, rj: int, xi, mu: Partition
) -> ExactMatrix:
    """E * a * E^-1 for E = I + xi*e at 1-based block position (i, ri; j, rj) of mu.

    Computed by the paired row/column move that `reduce` applies.
    """
    off = offsets(mu)
    for block, pos in ((i, ri), (j, rj)):
        if not (1 <= block <= len(mu) and 1 <= pos <= mu[block - 1]):
            raise ValueError(f"invalid block coordinate ({block},{pos})")
    work = a.tolists()
    t = ExactMatrix.identity(a.field, a.nrows).tolists()
    ti = [row[:] for row in t]
    _conj_add(a.field, work, t, ti, off[i - 1] + ri - 1, off[j - 1] + rj - 1, a.field.canon(xi))
    return ExactMatrix(a.field, work, _canon=False)

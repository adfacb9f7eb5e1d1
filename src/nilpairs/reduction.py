"""Similarity reduction of an annihilating-form matrix to its normal pattern.

Given A with A*J_mu = J_mu*A = 0 and A nilpotent, `reduce` conjugates A into
the reduced form:

  * A11 supported on core corners only,
  * A12 a 0/1 partial permutation on the (core block, lambda block) corner
    grid, pivot columns first within each run of equal lambda parts,
  * A21 corner-supported with its corner matrix in (reduced) column echelon
    form,
  * A22 equal to J_lambda,

while accumulating the exact similarity transform.  Every elementary move
keeps the matrix inside the annihilating pattern for (mu, 1^m); the stages
only ever touch statically-zero rows/columns on the silent side of each
conjugation; `reduce` re-verifies its result before returning (`is_reduced`,
the rank sequences of input and result, compared on their K x K corners by
`structure.corner_rank_sequence`, then the similarity products of `_verify`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import FieldSpec
from .matrix import ExactMatrix, NotNilpotent, _np_safe, jordan_matrix, jordanize_nilpotent
from .partitions import Partition, equal_runs, from_core, split_core
from .structure import Layout, corner_layout, corner_rank_sequence, matches_annihilating_pattern

__all__ = [
    "PreconditionViolated",
    "ReductionError",
    "ReducedPair",
    "OnesJordan",
    "jordanize_ones",
    "reduce",
    "reduce_rows",
    "is_reduced",
]


class PreconditionViolated(ValueError):
    """Input is not an annihilating-form nilpotent matrix."""


class ReductionError(AssertionError):
    """The pipeline produced a matrix failing its own postconditions (a bug)."""


# -- elementary conjugations on mutable row lists -----------------------------
#
# E = I + xi*e[p,q] acts by A -> E A E^-1, realized as the paired operation
# "row p += xi * row q" followed by "col q -= xi * col p" (on the updated
# matrix).  The transform accumulates the same row operation.


def _conj_add(field, a, t, ti, p: int, q: int, xi) -> None:
    """A <- E A E^-1, T <- E T, T^-1 <- T^-1 E^-1 for E = I + xi*e[p,q], on the nonzeros of row q and column p."""
    if p == q:
        raise ValueError("elementary conjugation needs distinct positions")
    if xi == field.zero():
        return
    mod = field.order if field.is_finite else 0
    for dst, src in ((a[p], a[q]), (t[p], t[q])):
        for j, y in enumerate(src):
            if y:
                dst[j] = (dst[j] + xi * y) % mod if mod else dst[j] + xi * y
    for rows in (a, ti):
        for row in rows:
            if row[p]:
                row[q] = (row[q] - xi * row[p]) % mod if mod else row[q] - xi * row[p]


def _conj_swap(a, t, ti, p: int, q: int) -> None:
    if p == q:
        return
    a[p], a[q] = a[q], a[p]
    for row in a:
        row[p], row[q] = row[q], row[p]
    t[p], t[q] = t[q], t[p]
    for row in ti:
        row[p], row[q] = row[q], row[p]


def _conj_scale(field, a, t, ti, p: int, alpha) -> None:
    if alpha == field.one():
        return
    mul, inv = field.mul, field.inv(alpha)
    a[p] = [mul(alpha, x) if x else x for x in a[p]]
    t[p] = [mul(alpha, x) if x else x for x in t[p]]
    for rows in (a, ti):
        for row in rows:
            if row[p]:
                row[p] = mul(inv, row[p])


# -- reduced pair --------------------------------------------------------------


@dataclass(frozen=True)
class ReducedPair:
    """A matrix in reduced form together with its block data and transform."""

    mu_core: Partition
    ones: int
    lam: Partition
    matrix: ExactMatrix
    transform: ExactMatrix

    @property
    def mu(self) -> Partition:
        return from_core(self.mu_core, self.ones)

    @property
    def n(self) -> int:
        return self.matrix.nrows

    @property
    def k(self) -> int:
        return len(self.mu_core)

    @property
    def field(self) -> FieldSpec:
        return self.matrix.field

    @property
    def layout(self) -> Layout:
        """Block positions; the ones block is split by lambda, not by mu's ones."""
        return corner_layout(self.mu_core, self.lam)

    def a12(self) -> ExactMatrix:
        return self.matrix.submatrix(0, self.layout.base, self.layout.base, self.n)

    def a21(self) -> ExactMatrix:
        return self.matrix.submatrix(self.layout.base, self.n, 0, self.layout.base)

    def a22(self) -> ExactMatrix:
        return self.matrix.submatrix(self.layout.base, self.n, self.layout.base, self.n)

    def x_corner(self) -> ExactMatrix:
        """k x l matrix of A12 corner entries (first core row, first lambda column)."""
        rows = self.layout.x_corner(self.matrix.rows)
        return ExactMatrix(self.field, rows, ncols=len(self.lam), _canon=False)

    def y_corner(self) -> ExactMatrix:
        """l x k matrix of A21 corner entries (last lambda row, last core column)."""
        rows = self.layout.y_corner(self.matrix.rows)
        return ExactMatrix(self.field, rows, ncols=self.k, _canon=False)

    def to_json_dict(self) -> dict:
        from .partitions import format_partition

        return {
            "mu": format_partition(self.mu),
            "lambda": format_partition(self.lam),
            "matrix": self.matrix.to_json_dict(),
            "transform": self.transform.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ReducedPair":
        from .partitions import parse_partition

        if not isinstance(doc, dict):
            raise ValueError(f"reduced-pair JSON must be an object, got {type(doc).__name__}")
        mu = parse_partition(doc["mu"])
        lam = parse_partition(doc["lambda"])
        matrix = ExactMatrix.from_json_dict(doc["matrix"])
        transform = ExactMatrix.from_json_dict(doc["transform"])
        if transform.field != matrix.field:
            raise ValueError(f"transform is over {transform.field.name}, the matrix over {matrix.field.name}")
        if (transform.nrows, transform.ncols) != (matrix.nrows, matrix.nrows):
            raise ValueError(
                f"transform is {transform.nrows}x{transform.ncols}, expected {matrix.nrows}x{matrix.nrows}"
            )
        split = split_core(mu)
        pair = cls(mu_core=split.core, ones=split.ones, lam=lam, matrix=matrix, transform=transform)
        if not is_reduced(matrix, mu, lam):
            raise ValueError("matrix is not in reduced form for the given mu, lambda")
        return pair


# -- the pipeline ---------------------------------------------------------------


@dataclass(frozen=True)
class OnesJordan:
    """Stage 0's data for a ones block A22: P^-1 * A22 * P == J_lambda."""

    p: ExactMatrix
    pinv: ExactMatrix
    lam: Partition


def jordanize_ones(a22: ExactMatrix) -> OnesJordan:
    """Stage 0 of `reduce`: a Jordan basis P of the ones block A22, P^-1 and lambda.

    A matrix of annihilating form is nilpotent exactly when its A22 is, so a
    non-nilpotent A22 raises PreconditionViolated.
    """
    try:
        p2, lam = jordanize_nilpotent(a22)
    except NotNilpotent:
        raise PreconditionViolated("matrix is not nilpotent") from None
    return OnesJordan(p=p2, pinv=p2.inverse(), lam=lam)


def reduce(a: ExactMatrix, mu: Partition, _stage_hook=None) -> ReducedPair:
    """Conjugate an annihilating-form nilpotent matrix into reduced form.

    Stages: (0) Jordanize A22, (1) clear A12 to corner columns, (2) clear A21
    to corner rows, (3) Gaussian elimination on the A12 corner matrix with
    cross-block column moves repaired back into the pattern, (4) swaps of
    equal lambda blocks so pivot columns come first in each run, (5) column
    echelon reduction of the A21 corner matrix.  The returned pair
    satisfies transform * a * transform^-1 == matrix exactly, and `reduce`
    re-checks it before returning (`is_reduced`, the corner rank sequences
    of a and the result, then `_verify`).
    """
    mu = Partition(mu)
    split = split_core(mu)
    n = mu.n
    if a.nrows != n or a.ncols != n:
        raise PreconditionViolated(f"matrix is {a.nrows}x{a.ncols}, mu sums to {n}")
    if not matches_annihilating_pattern(a, mu):
        raise PreconditionViolated("matrix does not annihilate J_mu")
    f = a.field
    base = n - split.ones
    ones = jordanize_ones(a.submatrix(base, n, base, n))

    # stage 0: conjugate by diag(I, P^-1); only the blocks A12*P, P^-1*A21
    # and P^-1*A22*P change, and the last is J_lambda by the contract of
    # jordanize_nilpotent (_verify re-checks the whole conjugation)
    p2, p2inv, lam = ones.p, ones.pinv, ones.lam
    a12 = a.submatrix(0, base, base, n).mul(p2)
    a21 = p2inv.mul(a.submatrix(base, n, 0, base))
    a22 = jordan_matrix(lam, f)
    work = [list(r[:base] + x) for r, x in zip(a.rows, a12.rows)]
    work += [list(y + z) for y, z in zip(a21.rows, a22.rows)]
    # T = diag(I, P^-1) and T^-1 = diag(I, P), stage 0's transform and its inverse
    zero, one = f.zero(), f.one()
    top = [[one if i == j else zero for j in range(n)] for i in range(base)]
    tw = top + [[zero] * base + list(r) for r in p2inv.rows]
    ti = [list(r) for r in top] + [[zero] * base + list(r) for r in p2.rows]
    reduce_rows(f, split.core, lam, work, tw, ti, _stage_hook)

    matrix = ExactMatrix(f, work, _canon=False)
    transform = ExactMatrix(f, tw, _canon=False)
    if not is_reduced(matrix, mu, lam):
        raise ReductionError("pipeline output is not in reduced form")
    try:  # a is nilpotent (stage 0 checked A22), so NotNilpotent here is the pipeline's fault
        same = corner_rank_sequence(f, mu, work) == corner_rank_sequence(f, mu, a.rows)
    except NotNilpotent:
        same = False
    if not same:
        raise ReductionError("rank sequence changed during reduction")
    _verify(f, [a.rows], [work], [tw], [ti])
    return ReducedPair(mu_core=split.core, ones=split.ones, lam=lam, matrix=matrix, transform=transform)


def reduce_rows(f: FieldSpec, core: Partition, lam: Partition, work, tw, ti, _stage_hook=None) -> None:
    """Stages 1-5 of `reduce` on row lists, in place.

    work is the matrix after stage 0 (A22 == J_lambda), tw and ti the rows
    of the transform and its inverse so far; every move updates all three.
    `census._reduce_stack` is its batched twin over stacks of matrices.
    """
    k, l = len(core), len(lam)
    zero, one = f.zero(), f.one()

    def _stage(name: str) -> None:
        if _stage_hook is not None:
            _stage_hook(name, ExactMatrix(f, [list(r) for r in work], _canon=False))

    _stage("jordanize-a22")

    lay = corner_layout(core, lam)
    core_first, core_last, lam_pos = lay.core_first, lay.core_last, lay.lam_pos

    # stage 1: zero A12 outside the first column of each lambda block
    for t in range(k):
        p = core_first(t)
        for j in range(l):
            for i in range(1, lam[j]):
                v = work[p][lam_pos(j, i)]
                if v != zero:
                    _conj_add(f, work, tw, ti, p, lam_pos(j, i - 1), f.neg(v))

    _stage("clear-a12")

    # stage 2: zero A21 outside the last row of each lambda block
    for t in range(k):
        qcol = core_last(t)
        for j in range(l):
            for i in range(lam[j] - 1):
                v = work[lam_pos(j, i)][qcol]
                if v != zero:
                    _conj_add(f, work, tw, ti, lam_pos(j, i + 1), qcol, v)

    _stage("clear-a21")

    # stage 3: Gaussian elimination on the A12 corner matrix X
    pivots: list[tuple[int, int]] = []  # (core row, lambda column)
    pivot_rows: set[int] = set()
    for j in range(l):
        support = [
            t for t in range(k) if t not in pivot_rows and work[core_first(t)][lam_pos(j)] != zero
        ]
        if not support:
            # dependent column: zero it against earlier pivot columns
            for pr, pc in pivots:
                v = work[core_first(pr)][lam_pos(j)]
                if v == zero:
                    continue
                # X column j -= v * X column pc via the block embedding move
                for i in range(lam[j]):
                    _conj_add(f, work, tw, ti, lam_pos(pc, i), lam_pos(j, i), v)
                if lam[pc] > lam[j]:
                    # the move parked v * Y[j] in a middle row of block pc; clear it
                    junk_row = lam_pos(pc, lam[j] - 1)
                    for t in range(k):
                        v2 = work[junk_row][core_last(t)]
                        if v2 != zero:
                            _conj_add(f, work, tw, ti, lam_pos(pc, lam[j]), core_last(t), v2)
            continue
        rho = len(pivots)
        t_star = support[0]
        if t_star != rho:
            _conj_swap(work, tw, ti, core_first(t_star), core_first(rho))
        v = work[core_first(rho)][lam_pos(j)]
        if v != one:
            _conj_scale(f, work, tw, ti, core_first(rho), f.inv(v))
        for r in range(k):
            if r != rho:
                w = work[core_first(r)][lam_pos(j)]
                if w != zero:
                    _conj_add(f, work, tw, ti, core_first(r), core_first(rho), f.neg(w))
        pivots.append((rho, j))
        pivot_rows.add(rho)

    _stage("eliminate-x")

    # stage 4: within each run of equal lambda parts, move pivot columns first
    pivot_cols = {pc for _, pc in pivots}
    for j0, j1 in equal_runs(lam):
        run = list(range(j0, j1))
        desired = [c for c in run if c in pivot_cols] + [c for c in run if c not in pivot_cols]
        slot_content = list(run)  # slot position -> original column living there
        for pos, want in enumerate(desired):
            cur = slot_content.index(want)
            if cur != pos:
                b1, b2 = run[pos], run[cur]
                for i in range(lam[j0]):
                    _conj_swap(work, tw, ti, lam_pos(b1, i), lam_pos(b2, i))
                slot_content[pos], slot_content[cur] = slot_content[cur], slot_content[pos]

    _stage("reorder-runs")

    # stage 5: column echelon reduction of the A21 corner matrix Y
    cur = 0
    for i in range(l):
        if cur == k:
            break
        row = lay.lam_last(i)
        cand = [c for c in range(cur, k) if work[row][core_last(c)] != zero]
        if not cand:
            continue
        if cand[0] != cur:
            _conj_swap(work, tw, ti, core_last(cand[0]), core_last(cur))
        v = work[row][core_last(cur)]
        if v != one:
            _conj_scale(f, work, tw, ti, core_last(cur), v)
        for c in range(k):
            if c != cur:
                w = work[row][core_last(c)]
                if w != zero:
                    _conj_add(f, work, tw, ti, core_last(cur), core_last(c), w)
        cur += 1

    _stage("echelon-y")


def _verify(f: FieldSpec, originals, ms, ts, tis) -> None:
    """T * T^-1 == I and T * a == M * T (so T * a * T^-1 == M) for every member of a stack of reductions.

    originals, ms, ts and tis hold a, M, T and T^-1 as lists of n x n row
    lists or, over GF(p), integer stacks (B, n, n); both products are taken
    for the whole stack at once.  The checks of one M at a time are the callers'.
    """
    a, da = _integer_stack(f, originals)
    m, dm = _integer_stack(f, ms)
    t, dt = _integer_stack(f, ts)
    ti, dti = _integer_stack(f, tis)
    eye = np.eye(t.shape[1], dtype=t.dtype)
    if not _equal_mod(f, np.matmul(t, ti), dt * dti * eye):
        raise ReductionError("accumulated inverse transform is wrong")
    if not _equal_mod(f, dm * np.matmul(t, a), da * np.matmul(m, t)):
        raise ReductionError("conjugation relation transform*a*transform^-1 failed")


def _integer_stack(f: FieldSpec, mats) -> tuple[np.ndarray, object]:
    """(W, d): a stack W (B, n, n) of integer matrices and scales d with mats[i] == W[i] / d[i].

    mats is a list of n x n row lists or, over GF(p), an integer stack, which
    is returned as it is.  Over GF(p) d is 1, and W is int64 while products
    of the size stay exact, else Python ints; over QQ each matrix is scaled
    by the lcm of its denominators, and d has shape (B, 1, 1).
    """
    if isinstance(mats, np.ndarray):
        return mats, 1
    shape = (len(mats), len(mats[0]), len(mats[0]))
    if f.is_finite:
        return np.array(mats, dtype=np.int64 if _np_safe(f, shape[2]) else object).reshape(shape), 1
    scales = [math.lcm(*(v.denominator for r in x for v in r)) for x in mats]
    ints = [[[v.numerator * (d // v.denominator) for v in r] for r in x] for x, d in zip(mats, scales)]
    return np.array(ints, dtype=object).reshape(shape), np.array(scales, dtype=object).reshape(-1, 1, 1)


def _equal_mod(f: FieldSpec, x: np.ndarray, y: np.ndarray) -> bool:
    """x == y entrywise, modulo p over GF(p)."""
    return bool(np.all((x - y) % f.order == 0 if f.is_finite else x == y))


# -- the reduced-form predicate ---------------------------------------------------


def is_reduced(a: ExactMatrix, mu: Partition, lam: Partition) -> bool:
    """Reduced-form predicate: corner supports, partial-permutation A12 with the
    prefix-rank run conditions, column-echelon A21 corner matrix, A22 == J_lambda."""
    mu = Partition(mu)
    lam = Partition(lam)
    n = mu.n
    if a.nrows != n or a.ncols != n:
        return False
    core = split_core(mu).core
    if lam.n != n - core.n or not matches_annihilating_pattern(a, mu):
        return False
    f = a.field
    zero, one = f.zero(), f.one()
    lay = corner_layout(core, lam)
    k, l, base = lay.k, len(lam), lay.base

    # A22 == J_lambda
    if tuple(r[base:] for r in a.rows[base:]) != jordan_matrix(lam, f).rows:
        return False

    # A12 supported on corner grid only, entries all 1, count == rank
    first_cols = {lay.lam_pos(j) for j in range(l)}
    nonzeros = 0
    for t in range(k):
        for c, v in enumerate(a.rows[lay.core_first(t)][base:], base):
            if v != zero:
                if c not in first_cols or v != one:
                    return False
                nonzeros += 1
    e1 = ExactMatrix(f, lay.x_corner(a.rows), ncols=l, _canon=False).column_prefix_ranks()
    if nonzeros != e1[l]:
        return False

    # prefix-rank conditions per run of equal lambda parts
    # (e1[j] is the rank of the first j columns): the run's first i columns
    # are pivots and the rest depend on earlier columns, for some i
    for j0, j1 in equal_runs(lam):
        if not any(e1[j0 + i] == e1[j0] + i and e1[j1] == e1[j0 + i] for i in range(j1 - j0 + 1)):
            return False

    # A21 supported on corner grid only, corner matrix in column echelon form
    last_rows = {lay.lam_last(j) for j in range(l)}
    last_cols = [lay.core_last(t) for t in range(k)]
    if any(a.rows[r][c] != zero for r in range(base, n) if r not in last_rows for c in last_cols):
        return False
    y_rows = lay.y_corner(a.rows)
    lead = [next((r for r in range(l) if y_rows[r][c] != zero), None) for c in range(k)]
    seen_zero = False
    prev = -1
    for c in range(k):
        if lead[c] is None:
            seen_zero = True
        else:
            if seen_zero:
                return False
            if lead[c] <= prev:
                return False
            prev = lead[c]
    return True

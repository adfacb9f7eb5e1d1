"""Brute-force shape censuses over finite fields, exhaustive or sampled, and `verify`.

A candidate (an annihilating-form matrix for mu) is nilpotent exactly when
its m x m ones block A22 is, and p^(m^2 - m) of the p^(m^2) blocks are
(Fine-Herstein).  Conjugating by diag(I, P), P in GL_m(p), keeps a candidate
in the pattern and its shape, and maps the candidates over one A22 onto
those over P A22 P^-1.  So the exhaustive census stacks one J_lambda per
orbit (lambda a partition of m), crosses the stack with every assignment of
the outer free coordinates and weights each member's shape by its orbit size
|GL_m(p)| / |C(J_lambda)|: p(m) p^(F - m^2) matrices, bounded by the budget,
stand for the p^(F - m) nilpotent candidates.  `verify_shapes` checks every
nilpotent candidate, so its exhaustive stream crosses the nilpotent A22
blocks, walked in chunks, the same way; a candidate's free entries are its
odometer digits, so it carries its own index.  The sampled stream draws each
sample's A22 first and its whole corner only when A22 is nilpotent.  A
candidate is zero outside the K x K corner at its free rows and columns
(K = k + m, the parts of mu), so every stream yields stacks of corners, A22
at [k:, k:]: uint32 bit rows over GF(2) while K <= 32, else int64 (GF(2)
mod 2 beyond), else, once K-wide products could pass 2^62, Python ints.
Shapes come from the ranks of the corner's powers (`_rank_rows`), converted
to shapes once per distinct rank row.  The kernels: `_gf2_matmul` XORs b's
row j into the rows holding bit j, `_gf2_ranks` eliminates row by row on
each row's lowest set bit; integer stacks multiply in the narrowest signed
dtype holding K (p-1)^2 and `_gfp_ranks` eliminates fraction-free in the
narrowest holding (p-1)^2, on the columns left (Python ints stay so).
`verify_shapes` also takes every candidate's shape through the reduction and
the closed-form formula and demands agreement: it places a slice of corners
at a time in n x n integer stacks, the only n x n candidates built, and
reduces them (`_reduce_slice`): stage 0 once per distinct A22 block, stages
1-5 once per lambda as masked batched moves (`_reduce_stack`, the twin of
`reduction.reduce_rows`).  Each (lambda, M) new to a batch is checked once:
the reduced-form predicate (`_reduced_mask`), the formula (`_reduced_shapes`)
and M's n x n rank sequence.  The per-matrix twins are in `nilpairs.oracles`.

Write the corner as B = [[X11, X12], [X21, A22]], X11 the k x k block at
the core blocks' first rows and last columns.  rk(A^s) = rk(B_s) with
B_1 = B and B_(s+1) = B_s[:, k:] B[k:, :], so B_2 = B[:, k:] B[k:, :] holds
no X11 entry, nor does any later B_s: rk(A^s), s >= 2, is one for all
p^(k^2) corners that differ only in X11, and only rk(A) = rk(B) depends on
it.  So the exhaustive streams (`_cross_outer`) run X11 as the odometer's
least significant digits and yield each batch in two parts: the groups,
one corner per (A22 block, X12, X21) with X11 = 0, and the members, each
group plus every pattern of a fixed table of X11 values (the X11 digits a
batch cannot hold are group digits, zero only on the table's cells).  The
census multiplies the powers of the groups only and ranks B once per
member; `verify` reads the members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Iterable, Iterator

import numpy as np

from .fields import FieldSpec
from .matrix import ExactMatrix, _np_safe, _shape_of_ranks
from .jordan import InternalInconsistency, _shape_from_counts
from .partitions import (
    Partition,
    canonical_sorted,
    conjugate,
    enumerate_partitions,
    equal_runs,
    format_partition,
    offsets,
    split_core,
)
from .structure import DEFAULT_BUDGET, BudgetExceeded, candidate_count, corner_layout, pattern_layout

__all__ = [
    "VerifyReport",
    "exhaustive_shape_census",
    "sampled_shape_census",
    "verify_shapes",
]

_BATCH = 1 << 18
_GF2_BITS = 32  # columns a uint32 bit row holds; wider GF(2) corners run on int64 mod 2
_INT64_CELLS = 1 << 24  # matrix entries per batch, so memory stays bounded
_OBJECT_CELLS = 1 << 18  # the same for batches of Python ints, one object per entry
_DISAGREEMENTS = 20  # shape disagreements a verify report lists, lowest index first
_DUAL_CHECK = 1 << 12  # reductions held for one batched postcondition check
_ODOMETER = 2**63 - 1  # entries an int64 odometer index can reach


def _batch_size(size: int, cap: int, dtype) -> int:
    """Members per batch of size x size stacks in dtype: at most cap, and a bounded number of entries."""
    cells = _OBJECT_CELLS if dtype is object else _INT64_CELLS
    return max(1, min(cap, cells // max(1, size * size)))  # size 0: the empty partition


def _unique_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse) of a 2-D array's rows: the first row with each distinct value, each row's value number.

    Integer rows go through np.unique as one opaque byte string each (much
    cheaper than np.unique over rows, which sorts field by field); object
    rows (Python ints) and empty rows are keyed as tuples, numbered in order
    of first appearance.
    """
    if x.dtype != object and x.shape[1]:
        x = np.ascontiguousarray(x)
        rows = x.view(np.dtype((np.void, x.dtype.itemsize * x.shape[1]))).reshape(-1)
        _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
        return first, inverse
    ids: dict = {}
    inverse = np.array([ids.setdefault(r, len(ids)) for r in map(tuple, x.tolist())], dtype=np.intp)
    return np.unique(inverse, return_index=True)[1], inverse


def _classes(rank_mat: np.ndarray, n: int) -> tuple[list[Partition], np.ndarray, np.ndarray]:
    """(shape of each distinct row, each row's class, class sizes) of rank rows.

    Rows are [rk(A^0), rk(A^1), ...], zero-padded.  A rank row falls strictly
    to 0, so the set of its values, as a bit mask, identifies it.
    """
    dtype = np.int64 if n < 63 else object
    codes = np.bitwise_or.reduce(np.left_shift(np.ones(1, dtype=dtype), rank_mat.astype(dtype)), axis=1)
    _, first, inverse, counts = np.unique(codes, return_index=True, return_inverse=True, return_counts=True)
    shapes = [_shape_of_ranks(seq) for seq in rank_mat[first].tolist()]
    return shapes, inverse, counts


# -- GF(2), bit-packed -----------------------------------------------------------


def _gf2_matmul(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Products of two stacks of n x n bit rows (B, n) uint32, bit c = column c.

    Step j XORs b's row j, times bit j, into every row of every member.
    """
    out = np.zeros_like(a)
    for j in range(n):
        out ^= ((a >> j) & 1) * b[:, j][:, None]
    return out


def _gf2_ranks(rows: np.ndarray, n: int) -> np.ndarray:
    """Rank of every matrix in a stack of n x n bit rows (B, n) uint32, bit c = column c.

    Forward elimination row by row on each row's lowest set bit, r & (~r + 1):
    row i is XORed into every later row holding it.  The rows nonzero at
    their turn have distinct lowest bits and span the rows, so their count
    is the rank.  The stack is held transposed, (n, B): steps read runs of members.
    """
    work = rows.T.copy()
    rank = np.zeros(work.shape[1], dtype=np.int64)
    for i in range(n):
        r = work[i]
        rank += r != 0
        later = work[i + 1 :]
        later ^= r * ((later & (r & (~r + 1))) != 0)
    return rank


# -- GF(p), batched matmul ---------------------------------------------------------


def _exact_dtype(p: int, terms: int = 1):
    """The narrowest signed dtype holding a sum of `terms` products of residues mod p, else int64 (exact per caller)."""
    for dt in (np.int8, np.int16, np.int32):
        if terms * (p - 1) ** 2 <= np.iinfo(dt).max:
            return dt
    return np.int64


def _gfp_ranks(mats: np.ndarray, p: int) -> np.ndarray:
    """Running ranks (B, n + 1) of a stack (B, m, n) over GF(p): column c is the rank of the first c columns.

    Fraction-free forward elimination (row_i <- piv*row_i - a_ic*row_r mod p),
    no inverse taken.  Both products lie in [0, (p-1)^2], so an integer stack
    runs in the narrowest signed dtype holding (p-1)^2 (int8 to p = 11, int16
    to 181, int32 to 46337, else int64; Python ints stay so).  The pivot row
    is eliminated with the others, to zero, so it is never picked again, and
    each step works on the columns left: an eliminated column is zero.
    """
    work = np.remainder(mats, p, order="F")  # the batch axis innermost: each step reads runs of members
    if work.dtype != object:
        work = work.astype(_exact_dtype(p), order="F", copy=False)
    ranks = np.zeros((work.shape[0], work.shape[2] + 1), dtype=np.int64)
    bidx = np.arange(work.shape[0])
    for c in range(work.shape[2]):
        col = work[:, :, 0]
        avail = col != 0
        has = avail.any(axis=1)
        ranks[:, c + 1] = ranks[:, c] + has
        if not has.any():
            work = work[:, :, 1:]
            continue
        prow = work[bidx, avail.argmax(axis=1)]
        piv = np.where(has, prow[:, 0], 1)
        work = piv[:, None, None] * work[:, :, 1:]
        work -= col[:, :, None] * prow[:, None, 1:]
        work %= p
    return ranks


# -- batches of candidates ----------------------------------------------------------
#
# Every stream builds integer stacks of K x K corners, from odometer indices
# (exhaustive) or drawn values (sampled), and packs them into the batch's
# representation (`_pack`); every later step is shared.


def _dtype(size: int, field: FieldSpec):
    """uint32 bit rows for GF(2) with size <= 32, else int64 while exact, else Python ints.

    The streams build and multiply K x K corners and their m x m A22 blocks
    (m <= K), so both the bit width and the int64 bound follow K, not n.
    """
    if field.order == 2 and size <= _GF2_BITS:
        return np.uint32
    return np.int64 if _np_safe(field, size) else object


def _a22_split(mu: Partition) -> tuple[int, int, list[int]]:
    """(k, K, outer): A22 is the corner's [k:, k:]; outer lists the other corner entries, row-major, flat."""
    lay = pattern_layout(mu)
    k, size = lay.k, len(lay.free_cols)
    return k, size, [f for f in range(size * size) if min(divmod(f, size)) < k]


def _digits(idx: np.ndarray, count: int, p: int) -> np.ndarray:
    """(count, B) odometer digits of each index, the first most significant."""
    dt = np.int32 if p**count <= 2**31 else np.int64  # int32 divides about twice as fast
    digits = np.zeros((count, idx.shape[0]), dtype=dt)
    rem = idx.astype(dt)
    for f in range(count - 1, -1, -1):
        quot = rem // p  # numpy divides by a scalar faster than it takes %
        digits[f] = rem - quot * p
        rem = quot
    return digits


def _pack(corners: np.ndarray, dtype) -> np.ndarray:
    """An integer stack (B, s, s) in dtype; for np.uint32, bit rows (B, s) with bit j for column j."""
    if dtype is np.uint32:
        return (corners @ (1 << np.arange(corners.shape[2], dtype=np.int64))).astype(np.uint32)
    return corners.astype(dtype, copy=False)


def _nilpotent_mask(mats: np.ndarray, n: int, p: int, bits: bool) -> np.ndarray:
    """Which members of a stack of n x n matrices over GF(p), entries in [0, p), are nilpotent: A^(2^j) = 0, 2^j >= n.

    Bit rows square with `_gf2_matmul`; an integer stack squares in the
    narrowest signed dtype holding a product's sums, n (p-1)^2.
    """
    if not bits and mats.dtype != object:
        mats = mats.astype(_exact_dtype(p, n))
    power, e = mats, 1
    while e < n:
        power = _gf2_matmul(power, power, n) if bits else np.matmul(power, power) % p
        e *= 2
    return ~power.any(axis=1 if bits else (1, 2))


def _rank_rows(corners: np.ndarray, mu: Partition, p: int, bits: bool) -> np.ndarray:
    """Rank rows (B, q) of the powers of nilpotent annihilating-form candidates for mu, zero-padded.

    A candidate is A = E B F^T, with E and F the unit columns at the K free rows
    and columns and B the K x K corner the batch holds.  F^T E = diag(0_k, I_m),
    since only a ones block has its first row at its last column, so
    A^s = E B_s F^T with B_1 = B and B_(s+1) = B_s[:, k:] B[k:, :], and
    rk(A^s) = rk(B_s) because E and F have independent columns (no B_s,
    s >= 2, holds an X11 entry: see the module docstring).  Only
    members whose last power is nonzero are multiplied again, an integer
    stack (entries in [0, p)) in the narrowest signed dtype holding K (p-1)^2.
    The streams pass masked nilpotent stacks, so a nonzero A^n is a bug and raises.
    """
    n, k, width = mu.n, pattern_layout(mu).k, corners.shape[1]
    ones = np.uint32((1 << width) - (1 << k))  # bit mask of the ones columns k..K-1
    b = corners.shape[0]
    if not bits and corners.dtype != object:
        corners = corners.astype(_exact_dtype(p, width))
    ranks = [np.full(b, n, dtype=np.int64)]
    alive, power = np.flatnonzero(ranks[0]), corners  # members whose last power is nonzero
    for _ in range(n):
        r = np.zeros(b, dtype=np.int64)
        r[alive] = _gf2_ranks(power, width) if bits else _gfp_ranks(power, p)[:, -1]
        ranks.append(r)
        keep = r[alive] > 0
        alive, power = alive[keep], power[keep]
        if not alive.size:
            break
        if bits:
            power = _gf2_matmul(power & ones, corners[alive], width)
        else:
            power = np.matmul(power[:, :, k:], corners[alive][:, k:, :]) % p
    if alive.size:
        raise InternalInconsistency(f"{alive.size} of {b} candidates have a nonzero power A^{n}; not nilpotent")
    return np.stack(ranks, axis=1)


# -- the candidate streams ------------------------------------------------------------


def _cross_outer(
    mu: Partition, field: FieldSpec, blocks: Iterable[np.ndarray]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Batches (groups, members) of corners: each A22 block in `blocks` crossed with every outer assignment.

    `blocks` yields integer stacks of nilpotent m x m blocks.  For each block
    in turn the outer free coordinates run as an odometer, the first most
    significant and X11's last (the layout is in the module docstring).  The
    table holds X11's last t cells, t the most whose p^t patterns fit a
    batch; member g p^t + i of a batch is its group g plus pattern i, and a
    batch holds whole groups, at most the batch size in members (with t = 0
    the members are the groups).  The odometer's indices are int64, so more
    than 2^63 - 1 outer assignments are refused whatever the budget, before
    any array is built; the callers check their budgets.
    """
    p = field.order
    k, size, outer = _a22_split(mu)
    dtype = _dtype(size, field)
    n_outer = p ** len(outer)
    if n_outer > _ODOMETER:
        why = f"more than the {_ODOMETER} an int64 odometer indexes, whatever the budget"
        raise BudgetExceeded(n_outer, _ODOMETER, f"enumeration needs {n_outer} outer assignments per A22 block, {why}")
    step = _batch_size(size, _BATCH, dtype)
    t = next(t for t in range(k * k, -1, -1) if p**t <= step)
    x11 = [r * size + c for r in range(k) for c in range(k)][k * k - t :]  # the table's cells
    cells = [f for f in outer if f not in x11]
    table = np.zeros((size * size, p**t), dtype=np.int64)
    table[x11] = _digits(np.arange(p**t, dtype=np.int64), t, p)
    table = _pack(table.T.reshape(p**t, size, size), dtype)
    n_groups, per = p ** len(cells), step // p**t
    for kept in blocks:
        total = kept.shape[0] * n_groups
        for start in range(0, total, per):
            j = np.arange(start, min(start + per, total), dtype=np.int64)
            corners = np.zeros((size * size, j.shape[0]), dtype=np.int64)
            corners[cells] = _digits(j % n_groups, len(cells), p)
            corners = corners.T.reshape(j.shape[0], size, size)
            corners[:, k:, k:] = kept[j // n_groups]
            groups = _pack(corners, dtype)
            yield groups, groups if t == 0 else (groups[:, None] + table).reshape(-1, *groups.shape[1:])


def _nilpotent_a22_walk(mu: Partition, field: FieldSpec) -> Iterator[np.ndarray]:
    """Chunks of the nilpotent A22 blocks, walked as an odometer over all p^(m^2).

    Crossed with the outer coordinates (`_cross_outer`), they give every
    nilpotent candidate, and a candidate's corner entries are its odometer
    digits, so it carries its own index (`_odometer_index`).
    """
    p = field.order
    k, size, _ = _a22_split(mu)
    m = size - k
    dtype = _dtype(size, field)
    n_a22 = p ** (m * m)
    step = _batch_size(size, _BATCH, dtype)
    for a0 in range(0, n_a22, step):
        idx = np.arange(a0, min(a0 + step, n_a22), dtype=np.int64)
        a22 = _digits(idx, m * m, p).T.reshape(idx.shape[0], m, m)
        yield a22[_nilpotent_mask(_pack(a22, dtype), m, p, dtype is np.uint32)]


def _jordan_stack(lam: Partition) -> np.ndarray:
    """A stack of one m x m block, J_lam: ones on the superdiagonal of each part of lam."""
    rows = [off + i for off, part in zip(offsets(lam), lam) for i in range(part - 1)]
    block = np.zeros((1, lam.n, lam.n), dtype=np.int64)
    block[0, rows, [r + 1 for r in rows]] = 1
    return block


def _gl_order(m: int, q: int) -> int:
    return math.prod(q**m - q**i for i in range(m))


def _orbit_size(lam: Partition, q: int) -> int:
    """Nilpotent m x m matrices over GF(q) of Jordan shape lam: |GL_m(q)| / |C(J_lam)|.

    |C(J_lam)| = q^(sum lam'_i^2 - sum k_v^2) * prod |GL_(k_v)(q)|, k_v the
    multiplicity of the part v (Macdonald, Symmetric Functions and Hall
    Polynomials, ch. II and IV).
    """
    mults = [lam.count(v) for v in set(lam)]
    centralizer = q ** (sum(c * c for c in conjugate(lam)) - sum(k * k for k in mults))
    return _gl_order(lam.n, q) // (centralizer * math.prod(_gl_order(k, q) for k in mults))


def _odometer_index(corner: list[list[int]], p: int) -> int:
    """Odometer index of an exhaustive candidate: its corner's entries, row-major, the first most significant."""
    return sum(v * p**e for e, v in enumerate(reversed([v for row in corner for v in row])))


def _sampled_stream(
    mu: Partition, field: FieldSpec, samples: int, seed: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Batches (corners, sample index) of the nilpotent draws among `samples`.

    Sample i owns splitmix64 stream positions [i*F, (i+1)*F) of `seed`, as
    oracles.sample_candidate(..., index=i) does: its corner, row-major.  A
    batch first draws the m^2 positions of each sample's A22 block, and the
    whole corner only for the samples whose A22 is nilpotent.
    """
    from . import rng

    p = field.order
    k, size, _ = _a22_split(mu)
    m = size - k
    a22_cells = np.arange(size * size).reshape(size, size)[k:, k:].reshape(-1)
    dtype = _dtype(size, field)
    step = _batch_size(size, _BATCH // 4, dtype)
    for start in range(0, samples, step):
        first = np.arange(start, min(start + step, samples), dtype=np.int64)[:, None] * (size * size)
        a22 = rng.values_mod_np(seed, first + a22_cells, p).reshape(first.shape[0], m, m)
        keep = np.flatnonzero(_nilpotent_mask(_pack(a22, dtype), m, p, dtype is np.uint32))
        corners = rng.values_mod_np(seed, first[keep] + np.arange(size * size), p)
        yield _pack(corners.reshape(keep.size, size, size), dtype), start + keep


def _check_draws(samples: int, budget: int) -> None:
    """Refuse a negative sample count (ValueError) and more draws than the budget (BudgetExceeded)."""
    if samples < 0:
        raise ValueError(f"sample count must be non-negative, got {samples}")
    if samples > budget:
        raise BudgetExceeded(samples, budget, f"sampling needs {samples} draws, budget is {budget}")


# -- public censuses ------------------------------------------------------------------


def exhaustive_shape_census(
    mu: Partition, field: FieldSpec, budget: int = DEFAULT_BUDGET
) -> dict[Partition, int]:
    """Shape -> count over all nilpotent annihilating-form candidates (vectorized).

    One J_lambda per GL_m orbit of A22, its shapes weighted by the orbit size.
    All J_lambda cross the outer coordinates as one block stack, so a batch
    can mix lambdas: group j has lambda number j // (groups per lambda), and
    its members its lambda.  A member's rank row is its group's with rk(B)
    its own (module docstring), so a batch counts its members per (group's
    rank row past B, rk B, lambda).  The budget bounds the members built,
    p(m) p^(F - m^2), not the p^F candidates they stand for.
    """
    mu = Partition(mu)
    if not field.is_finite:
        raise ValueError("exhaustive enumeration needs a finite field")
    p = field.order
    k, size, outer = _a22_split(mu)
    lams = enumerate_partitions(size - k)
    built = len(lams) * p ** len(outer)
    if built > budget:
        raise BudgetExceeded(built, budget, f"the census builds {built} matrices, budget is {budget}")
    counts: dict[Partition, int] = {}
    weights = [_orbit_size(lam, p) for lam in lams]
    done = 0  # groups so far
    for groups, members in _cross_outer(mu, field, [np.concatenate([_jordan_stack(lam) for lam in lams])]):
        spread = members.shape[0] // groups.shape[0]  # members per group
        lam_of = np.arange(done, done + groups.shape[0], dtype=np.int64) // (p ** len(outer) // spread)
        done += groups.shape[0]
        bits = groups.dtype == np.uint32
        rows = _rank_rows(groups, mu, p, bits)
        # a member's B may be nonzero where its group's is 0: a zero power for its row to fall to
        rows = np.concatenate([rows, np.zeros_like(rows[:, :1])], axis=1)
        if spread == 1:
            rank_b = rows[:, 1]
        else:
            rank_b = _gf2_ranks(members, size) if bits else _gfp_ranks(members, p)[:, -1]
        first, chain = _unique_rows(rows[:, 2:])  # the group's ranks past B (rk A^0 = n)
        pairs = np.bincount(
            np.repeat(chain * len(lams) + lam_of, spread) * (size + 1) + rank_b,
            minlength=len(first) * len(lams) * (size + 1),
        )
        hit = np.flatnonzero(pairs)
        (of, lam_id), rb = np.divmod(hit // (size + 1), len(lams)), hit % (size + 1)
        seqs = rows[first[of]]
        seqs[:, 1] = rb
        shapes, cls, _ = _classes(seqs, mu.n)
        for c, d, count in zip(cls.tolist(), lam_id.tolist(), pairs[hit].tolist()):
            counts[shapes[c]] = counts.get(shapes[c], 0) + weights[d] * count
    return counts


def sampled_shape_census(
    mu: Partition, field: FieldSpec, samples: int, seed: int, budget: int = DEFAULT_BUDGET
) -> tuple[dict[Partition, int], int]:
    """Shape -> count over nilpotent candidates among `samples` seeded draws.

    Returns the counts and the number of nilpotent samples.  The budget
    bounds the draws; past it, BudgetExceeded is raised before drawing.
    """
    mu = Partition(mu)
    _check_draws(samples, budget)
    counts: dict[Partition, int] = {}
    nilp_total = 0
    for mats, _ in _sampled_stream(mu, field, samples, seed):
        nilp_total += mats.shape[0]
        shapes, _, sizes = _classes(_rank_rows(mats, mu, field.order, mats.dtype == np.uint32), mu.n)
        for shape, size in zip(shapes, sizes.tolist()):
            counts[shape] = counts.get(shape, 0) + size
    return counts, nilp_total


# -- the verify engine ------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of checking predicted vs observed shape sets for one mu."""

    mu: Partition
    field: FieldSpec
    mode: str  # "exhaustive" | "sample"
    samples: int | None
    seed: int | None
    predicted: tuple[Partition, ...]
    observed: tuple[Partition, ...]
    verdict: str  # "equal" | "subset" | "mismatch"
    details: dict = dc_field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.verdict in ("equal", "subset")

    def to_json_dict(self) -> dict:
        doc = {
            "mu": format_partition(self.mu),
            "field": self.field.name,
            "mode": self.mode,
            "predicted": [format_partition(s) for s in self.predicted],
            "observed": [format_partition(s) for s in self.observed],
            "verdict": self.verdict,
        }
        if self.mode == "sample":
            doc["samples"] = self.samples
            doc["seed"] = self.seed
        if self.details:
            doc["details"] = self.details
        return doc


def _inverse_mod(v: np.ndarray, p: int) -> np.ndarray:
    """v^(p-2) mod p for every entry of an integer vector: the inverse of each nonzero entry."""
    out, base, e = np.ones_like(v), v % p, p - 2
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


def _corner_grid(core: Partition, lam: Partition) -> tuple[np.ndarray, ...]:
    """(first, last, heads, tails): the core blocks' first rows and last columns, the lambda blocks' first and last."""
    lay = corner_layout(core, lam)
    co, lo = np.array(lay.co, dtype=np.intp), np.array(lay.lo, dtype=np.intp)
    return co[:-1], co[1:] - 1, lo[:-1], lo[1:] - 1


def _reduce_stack(
    field: FieldSpec, core: Partition, lam: Partition, w: np.ndarray, t: np.ndarray, ti: np.ndarray
) -> None:
    """Stages 1-5 of `reduce` for a stack of matrices after stage 0 (A22 == J_lam), in place.

    w, t and ti are integer stacks (B, n, n) over GF(p): the matrices, the
    transforms so far and their inverses.  Each move of `reduction.reduce_rows`
    runs for every member at once with a per-member coefficient.  An add
    with coefficient 0, a scale by 1 and a swap of a position with itself
    are the identity, so every member takes exactly the moves `reduce_rows`
    takes on it, in the same order.  Stage 3 keeps each member's pivot count
    and the pivot row of each column, stage 4 is one permutation of the
    lambda blocks per member and stage 5 keeps each member's echelon column.
    """
    mod = field.order
    lay = corner_layout(core, lam)
    k, l = lay.k, len(lam)
    b, n = w.shape[0], w.shape[1]
    bidx = np.arange(b)
    first, last, lo, _ = _corner_grid(core, lam)  # core_first(t), core_last(t), lam_pos(j)
    identity = np.tile(np.arange(n, dtype=np.intp), (b, 1))

    def add(p, q, xi) -> None:
        """Conjugate by E = I + xi e[p, q]: rows p += xi rows q, then columns q -= xi columns p.

        p and q are positions or per-member position arrays; xi is per member.
        """
        if not xi.any():
            return
        xi = xi.reshape(b, 1).copy()
        w[bidx, p] = (w[bidx, p] + xi * w[bidx, q]) % mod
        w[bidx, :, q] = (w[bidx, :, q] - xi * w[bidx, :, p]) % mod
        t[bidx, p] = (t[bidx, p] + xi * t[bidx, q]) % mod
        ti[bidx, :, q] = (ti[bidx, :, q] - xi * ti[bidx, :, p]) % mod

    def swap(mask, p, q) -> None:
        """Conjugate the members in mask by the transposition of positions p and q (per member)."""
        mask = mask & (p != q)
        if not mask.any():
            return
        perm = identity.copy()
        sel = np.flatnonzero(mask)
        perm[sel, p[sel]], perm[sel, q[sel]] = q[sel], p[sel]
        permute(perm)

    def permute(perm) -> None:
        """Conjugate member i by the permutation matrix taking row r to row perm[i, r]'s place:
        w'[r, c] = w[perm[r], perm[c]], T' rows gathered, T^-1 columns gathered."""
        at, rows, cols = bidx[:, None, None], perm[:, :, None], perm[:, None, :]
        w[:] = w[at, rows, cols]
        t[:] = t[at, rows, np.arange(n)]
        ti[:] = ti[at, np.arange(n)[:, None], cols]

    def scale(mask, p, alpha, inv) -> None:
        """Conjugate the members in mask by diag(..., alpha, ...) at position p (per member)."""
        if not mask.any():
            return
        d, dinv = np.ones((b, n), dtype=w.dtype), np.ones((b, n), dtype=w.dtype)
        d[bidx, p] = np.where(mask, alpha, 1)
        dinv[bidx, p] = np.where(mask, inv, 1)
        w[:] = w * d[:, :, None] % mod * dinv[:, None, :] % mod
        t[:] = t * d[:, :, None] % mod
        ti[:] = ti * dinv[:, None, :] % mod

    # stage 1: zero A12 outside the first column of each lambda block
    for tt in range(k):
        p = lay.core_first(tt)
        for j in range(l):
            for i in range(1, lam[j]):
                add(p, lay.lam_pos(j, i - 1), -w[:, p, lay.lam_pos(j, i)] % mod)

    # stage 2: zero A21 outside the last row of each lambda block
    for tt in range(k):
        qcol = lay.core_last(tt)
        for j in range(l):
            for i in range(lam[j] - 1):
                add(lay.lam_pos(j, i + 1), qcol, w[:, lay.lam_pos(j, i), qcol])

    # stage 3: Gaussian elimination on the A12 corner matrix X; a member's
    # pivot rows are 0..npiv-1, and pivot_row[:, j] is column j's (or -1)
    npiv = np.zeros(b, dtype=np.intp)
    pivot_row = np.full((b, l), -1, dtype=np.intp)
    for j in range(l):
        col = lay.lam_pos(j)
        support = (w[:, first, col] != 0) & (np.arange(k) >= npiv[:, None])
        piv = support.any(axis=1)
        # dependent column: zero it against the earlier pivot columns, in order
        for pc in range(j):
            on = ~piv & (pivot_row[:, pc] >= 0)
            if not on.any():
                continue
            v = np.where(on, w[bidx, first[pivot_row[:, pc]], col], 0)
            for i in range(lam[j]):
                add(lay.lam_pos(pc, i), lay.lam_pos(j, i), v)
            if lam[pc] > lam[j]:
                # the move parked v * Y[j] in a middle row of block pc; clear it
                junk, below = lay.lam_pos(pc, lam[j] - 1), lay.lam_pos(pc, lam[j])
                for q in last:
                    add(below, q, np.where(v != 0, w[:, junk, q], 0))
        if not piv.any():
            continue
        rho = first[np.where(piv, npiv, 0)]
        swap(piv, first[support.argmax(axis=1)], rho)
        v = w[bidx, rho, col]
        scale(piv & (v != 1), rho, _inverse_mod(v, mod), v)
        for r in range(k):
            add(first[r], rho, np.where(piv & (rho != first[r]), -w[:, first[r], col] % mod, 0))
        pivot_row[:, j] = np.where(piv, npiv, -1)
        npiv += piv

    # stage 4: within each run of equal lambda parts, move pivot columns first
    perm = identity.copy()
    for j0, j1 in equal_runs(lam):
        if j1 - j0 > 1:
            order = lo[j0 + np.argsort(pivot_row[:, j0:j1] < 0, axis=1, kind="stable")]  # block in each slot
            for i in range(lam[j0]):
                perm[:, lo[j0:j1] + i] = order + i
    if (perm != identity).any():
        permute(perm)

    # stage 5: column echelon reduction of the A21 corner matrix Y; cur is
    # each member's next echelon column
    cur = np.zeros(b, dtype=np.intp)
    for i in range(l):
        row = lay.lam_last(i)
        cand = (w[:, row, last] != 0) & (np.arange(k) >= cur[:, None])
        active = cand.any(axis=1)
        if not active.any():
            continue
        at = last[np.where(active, cur, 0)]
        swap(active, last[cand.argmax(axis=1)], at)
        v = w[bidx, row, at]
        scale(active & (v != 1), at, v, _inverse_mod(v, mod))
        for c in range(k):
            add(at, last[c], np.where(active & (at != last[c]), w[:, row, last[c]], 0))
        cur += active


def _reduce_slice(mu: Partition, field: FieldSpec, originals: np.ndarray, stage0: dict) -> tuple:
    """(lam_id, lams, M, T, T^-1): `reduce`, unchecked, for each candidate of an integer stack (B, n, n).

    Member i has lambda lams[lam_id[i]] and the reduced matrix, transform and
    inverse transform M[i], T[i] and T^-1[i], integer stacks like originals.
    The candidates are grouped by their A22 block; stage 0 runs once per
    block (cached in `stage0`), its block products A12 P and P^-1 A21 as one
    batched product, and stages 1-5 once per lambda as batched moves on the
    members' stacks (`_reduce_stack`).
    """
    from . import reduction

    split = split_core(mu)
    m, p = split.ones, field.order
    base = mu.n - m
    first, group = _unique_rows(originals[:, base:, base:].reshape(originals.shape[0], -1))
    p2s, p2invs, lam_ids, lams = [], [], [], {}
    for i in first.tolist():
        a22 = originals[i, base:, base:].tolist()
        key = tuple(map(tuple, a22))
        ones = stage0.get(key)
        if ones is None:
            ones = stage0[key] = reduction.jordanize_ones(ExactMatrix(field, a22, ncols=m, _canon=False))
        p2s.append(ones.p.rows)
        p2invs.append(ones.pinv.rows)
        lam_ids.append(lams.setdefault(ones.lam, len(lams)))
    dtype = originals.dtype
    p2 = np.array(p2s, dtype=dtype).reshape(len(p2s), m, m)[group]
    p2inv = np.array(p2invs, dtype=dtype).reshape(len(p2s), m, m)[group]
    lam_id = np.array(lam_ids, dtype=np.intp)[group]
    w = originals.copy()
    w[:, :base, base:] = np.matmul(w[:, :base, base:], p2) % p
    w[:, base:, :base] = np.matmul(p2inv, w[:, base:, :base]) % p
    t, ti = np.zeros_like(w), np.zeros_like(w)
    t[:, range(base), range(base)] = ti[:, range(base), range(base)] = 1
    t[:, base:, base:], ti[:, base:, base:] = p2inv, p2
    for lam, d in lams.items():
        sel = np.flatnonzero(lam_id == d)
        ws, ts, tis = w[sel], t[sel], ti[sel]
        ws[:, base:, base:] = _jordan_stack(lam)
        _reduce_stack(field, split.core, lam, ws, ts, tis)
        w[sel], t[sel], ti[sel] = ws, ts, tis
    return lam_id, list(lams), w, t, ti


def _reduced_mask(mu: Partition, lam: Partition, ms: np.ndarray, p: int) -> np.ndarray:
    """`reduction.is_reduced` of each member of a stack (B, n, n) over GF(p), entries in [0, p), all of one lambda.

    Its tests as array tests: support on A11's free corners, the corner grids
    of A12 and A21, and A22 == J_lambda; the A12 corner matrix X 0/1, as many
    ones as its rank, its running rank rising before it stalls within each
    run of equal parts; each column of the A21 corner matrix Y leading below
    the one before (a zero column leads at l), zero columns last.
    """
    first, last, heads, tails = _corner_grid(split_core(mu).core, lam)
    n, base, l = mu.n, mu.n - lam.n, len(lam)
    support = np.zeros((n, n), dtype=bool)
    for rows, cols in ((first, last), (first, heads), (tails, last)):
        support[np.ix_(rows, cols)] = True
    support[base:, base:] = True
    x, y = ms[:, first][:, :, heads], ms[:, tails][:, :, last]
    e1 = _gfp_ranks(x, p)
    rise = np.diff(e1, axis=1)
    runs = np.array([a == b for a, b in zip(lam, lam[1:])], dtype=bool)  # lambda block j's part equals j + 1's
    lead = (np.cumsum(y != 0, axis=1) == 0).sum(axis=1)
    return (
        ~(ms[:, ~support] != 0).any(axis=1)
        & (ms[:, base:, base:] == _jordan_stack(lam)).all(axis=(1, 2))
        & (x <= 1).all(axis=(1, 2))
        & ((x != 0).sum(axis=(1, 2)) == e1[:, -1])
        & ((rise[:, 1:] <= rise[:, :-1]) | ~runs).all(axis=1)
        & ((lead[:, :-1] < lead[:, 1:]) | (lead[:, 1:] == l)).all(axis=1)
    )


def _chain_profiles(mu: Partition, lam: Partition, ms: np.ndarray, p: int) -> tuple[np.ndarray, ...]:
    """`jordan.chain_profile` of each member of a stack (B, n, n) of reduced matrices over GF(p), all of one lambda.

    (e1, e2, f, g): e1, e2 (B, l + 1) are the running ranks of X's columns and
    Y's rows, f, g (B, lambda_1) hold f(s), g(s) at s - 2.  A12 is zero off
    the core blocks' first rows, so f(s) is the rank of those rows times
    J^(s-2) A21 at the core blocks' last columns, each member's columns
    before e2[lambda^T_s] zeroed: one batched product per s.
    """
    first, last, heads, tails = _corner_grid(split_core(mu).core, lam)
    b, base, k, m = ms.shape[0], mu.n - lam.n, len(first), lam.n
    e1 = _gfp_ranks(ms[:, first][:, :, heads], p)
    e2 = _gfp_ranks(ms[:, tails][:, :, last].transpose(0, 2, 1), p)
    a12 = ms[:, first, base:]
    a21 = np.concatenate([ms[:, base:][:, :, last], np.zeros((b, 1, k), dtype=ms.dtype)], axis=1)  # row m is zero
    top = lam[0] if lam else 0
    f, g = np.zeros((b, top), dtype=np.int64), np.zeros((b, top), dtype=np.int64)
    for s in range(2, top + 2):
        # J^(s-2): row i of a lambda block takes row i + s - 2 of the same block, else zeros
        shift = [o + i + s - 2 if i + s - 2 < part else m for o, part in zip(offsets(lam), lam) for i in range(part)]
        here, prev = sum(x >= s for x in lam), sum(x >= s - 1 for x in lam)
        keep = np.arange(k) >= e2[:, here, None]
        f[:, s - 2] = _gfp_ranks(np.where(keep[:, None, :], np.matmul(a12, a21[:, shift]) % p, 0), p)[:, -1]
        g[:, s - 2] = e1[:, prev] - e1[:, here] + e2[:, prev] - e2[:, here] - 2 * f[:, s - 2]
    return e1, e2, f, g


def _reduced_shapes(mu: Partition, lam: Partition, ms: np.ndarray, rank_a: np.ndarray, p: int) -> list[Partition]:
    """`jordan.shape_of_reduced` of each member of a stack as `_chain_profiles` takes it, rank_a (B,) their ranks.

    Assembled once per distinct (f, g, rank) row, by `shape_of_reduced`'s own assembly.
    """
    _, _, f, g = _chain_profiles(mu, lam, ms, p)
    first, inverse = _unique_rows(np.concatenate([f, g, rank_a[:, None]], axis=1))
    shapes = [
        _shape_from_counts(lam, mu.n, dict(enumerate(fs, 2)), dict(enumerate(gs, 2)), ra)
        for fs, gs, ra in zip(f[first].tolist(), g[first].tolist(), rank_a[first].tolist())
    ]
    return [shapes[i] for i in inverse.tolist()]


def verify_shapes(
    mu: Partition,
    field: FieldSpec,
    mode: str = "exhaustive",
    budget: int = DEFAULT_BUDGET,
    samples: int = 10000,
    seed: int = 0,
) -> VerifyReport:
    """Compare predicted shapes against brute force, dual-checking each matrix.

    Every nilpotent candidate's shape is taken from its batch's rank rows and
    again through the reduction and the formula.  A slice's new (lambda, M)
    keys of one lambda go through `_reduced_mask` and `_reduced_shapes` as
    one stack, and M's n x n rank sequence, apart from the census's rank
    kernels, is taken per key.  Per slice, the members' rank rows are
    compared with their M's sequences at once, T T^-1 = I and T a = M T are
    taken as batched products (`reduction._verify`), and the formula is
    compared with the rank-row shape once per pair of classes.  A sample run
    whose draws held no nilpotent candidate reports `checked: 0`.  A
    disagreement (the lowest 20 indices are reported: the odometer index or
    the sample index), an observed shape outside the prediction or, in
    exhaustive mode, a predicted shape not observed yields a mismatch.  The
    budget bounds the p^F candidates in exhaustive mode and the draws in
    sample mode; past it, BudgetExceeded is raised before any is built.
    """
    from . import reduction
    from .characterize import enumerate_shapes

    mu = Partition(mu)
    if not field.is_finite:
        raise ValueError("verification needs a finite field")
    if samples < 0:
        raise ValueError(f"sample count must be non-negative, got {samples}")
    predicted = enumerate_shapes(mu)
    observed: set[Partition] = set()
    details: dict = {}

    n, p = mu.n, field.order
    if mode == "exhaustive":
        total = candidate_count(mu, field)
        if total > budget:
            raise BudgetExceeded(total, budget)
        walk = _cross_outer(mu, field, _nilpotent_a22_walk(mu, field))
        stream = ((members, None) for _, members in walk)
    elif mode == "sample":
        _check_draws(samples, budget)
        stream = _sampled_stream(mu, field, samples, seed)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    lay = pattern_layout(mu)
    free_rows, free_cols = np.array(lay.free_rows, dtype=np.intp)[:, None], np.array(lay.free_cols, dtype=np.intp)
    full = np.int64 if _np_safe(field, n) else object  # the dual check's n x n stacks, as `_integer_stack` picks
    width = _batch_size(n, _DUAL_CHECK, full)
    disagreements: list[dict] = []
    for mats, drawn in stream:
        bits = mats.dtype == np.uint32
        rank_rows = _rank_rows(mats, mu, p, bits)
        shapes, oracle, _ = _classes(rank_rows, n)
        observed.update(shapes)
        stage0: dict = {}  # A22 entries -> stage 0's data
        checked: dict = {}  # (lambda, M rows) -> (M's rank sequence, formula shape), M in reduced form
        for start in range(0, mats.shape[0], width):
            stop = min(start + width, mats.shape[0])
            corners = mats[start:stop]
            if bits:  # entry (r, c) is bit c of row r
                corners = corners[:, :, None] >> np.arange(len(lay.free_cols), dtype=np.uint32) & np.uint32(1)
            originals = np.zeros((stop - start, n, n), dtype=full)  # E B F^T
            originals[:, free_rows, free_cols] = corners
            lam_id, lams, ms, ts, tis = _reduce_slice(mu, field, originals, stage0)
            first, inverse = _unique_rows(np.concatenate([lam_id[:, None], ms.reshape(stop - start, -1)], axis=1))
            keys = [(lams[d], tuple(map(tuple, rows))) for d, rows in zip(lam_id[first].tolist(), ms[first].tolist())]
            fresh: dict = {}  # lambda -> numbers of the slice's keys not yet in the table
            for d, key in enumerate(keys):
                if key not in checked:
                    fresh.setdefault(key[0], []).append(d)
            for lam, ds in fresh.items():
                stack = ms[first[ds]]
                if not _reduced_mask(mu, lam, stack, p).all():
                    raise reduction.ReductionError("pipeline output is not in reduced form")
                sequences = [ExactMatrix(field, keys[d][1], _canon=False).rank_sequence() for d in ds]
                rank_a = np.array([seq[1] if n else 0 for seq in sequences], dtype=np.int64)
                checked.update(zip([keys[d] for d in ds], zip(sequences, _reduced_shapes(mu, lam, stack, rank_a, p))))
            ranks = rank_rows[start:stop]
            seqs = np.zeros((len(first), ranks.shape[1]), dtype=ranks.dtype)
            classes: dict = {}  # formula shape -> its class
            formula_class = []
            for d, key in enumerate(keys):
                seq, formula = checked[key]
                if len(seq) > ranks.shape[1]:
                    raise reduction.ReductionError("rank sequence changed during reduction")
                seqs[d, : len(seq)] = seq
                formula_class.append(classes.setdefault(formula, len(classes)))
            if not np.array_equal(seqs[inverse], ranks):  # every member's rank row against its M's
                raise reduction.ReductionError("rank sequence changed during reduction")
            reduction._verify(field, originals, ms, ts, tis)
            # formula against oracle once per (formula class, oracle class) pair
            codes = np.array(formula_class, dtype=np.intp)[inverse] * len(shapes) + oracle[start:stop]
            formula_of = list(classes)
            for code in set(codes.tolist()):
                formula, expected = formula_of[code // len(shapes)], shapes[code % len(shapes)]
                if formula == expected:
                    continue
                for k in np.flatnonzero(codes == code).tolist():
                    if drawn is None:
                        index = _odometer_index(corners[k].tolist(), p)
                    else:
                        index = int(drawn[start + k])
                    pair_doc = dict(oracle=format_partition(expected), formula=format_partition(formula))
                    disagreements.append(dict(index=index, **pair_doc))
        disagreements.sort(key=lambda d: d["index"])
        del disagreements[_DISAGREEMENTS:]

    pred_set = set(predicted)
    if disagreements:
        verdict = "mismatch"
        details["shape_disagreements"] = disagreements
    elif not observed <= pred_set:
        verdict = "mismatch"
        details["unexpected"] = [format_partition(s) for s in canonical_sorted(observed - pred_set)]
    elif mode == "exhaustive" and observed != pred_set:
        verdict = "mismatch"
        details["missing"] = [format_partition(s) for s in canonical_sorted(pred_set - observed)]
    elif observed == pred_set:
        verdict = "equal"
    else:
        verdict = "subset"
    if mode == "sample" and samples and not observed:
        details["checked"] = 0  # draws were made, but none was nilpotent, so none was dual-checked
    return VerifyReport(
        mu=mu,
        field=field,
        mode=mode,
        samples=samples if mode == "sample" else None,
        seed=seed if mode == "sample" else None,
        predicted=tuple(predicted),
        observed=tuple(canonical_sorted(observed)),
        verdict=verdict,
        details=details,
    )

"""Brute-force shape censuses over finite fields, exhaustive or sampled, and `verify`.

A candidate (an annihilating-form matrix for mu) is nilpotent exactly when
its m x m ones block A22 is, and p^(m^2 - m) of the p^(m^2) blocks are
(Fine-Herstein).  Conjugating by diag(I, P), P in GL_m(p), keeps a candidate
in the pattern and keeps its shape, and maps the candidates over one A22
onto those over P A22 P^-1.  So the exhaustive census fixes A22 to one
J_lambda per orbit (lambda a partition of m), crosses it with every
assignment of the outer free coordinates and weights the shapes by the orbit
size |GL_m(p)| / |C(J_lambda)|: p(m) p^(F - m^2) matrices stand for the
p^(F - m) nilpotent candidates of the p^F.  `verify_shapes` checks every
nilpotent candidate, so its exhaustive stream walks the A22 blocks in chunks
and crosses the nilpotent ones the same way; a candidate's free entries are
its odometer digits, so it carries its own index.  The sampled stream, read
by the sampled census and `verify_shapes`, keeps the draws whose A22 is
nilpotent, each with its sample index.  A batch holds uint32 bit rows over
GF(2) up to n = 32, else int64 matrices (GF(2) mod 2 beyond), else, once
n x n products could pass 2^62, Python ints.  Shapes come from the ranks of
successive powers, taken on the K x K corner at the free rows and columns
(K = k + m, the parts of mu): `_rank_rows` multiplies a corner's power by its
ones rows only and ranks it with `_gf2_ranks` or `_gfp_ranks`; the rank rows
are converted to shapes once per distinct row.  `verify_shapes` also takes
every candidate's shape through the reduction and `shape_of_reduced` and
demands agreement; within a batch it runs stage 0 of `reduce` once per
distinct A22 block, and within a slice of candidates stage 0's block
products once per A22 block as one batched product (`_reduce_slice`),
stages 1-5 for every candidate on row lists
(`reduction.reduce_rows`), the formula once per distinct reduced matrix,
and `reduce`'s postconditions once per slice, as batched products.  The
per-matrix twins of the streams and of the census are in `nilpairs.oracles`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Iterable, Iterator

import numpy as np

from .fields import FieldSpec
from .matrix import ExactMatrix, _np_safe
from .jordan import InternalInconsistency
from .partitions import (
    Partition,
    canonical_sorted,
    conjugate,
    enumerate_partitions,
    format_partition,
    offsets,
    split_core,
)
from .structure import DEFAULT_BUDGET, BudgetExceeded, candidate_count, free_coordinates, pattern_layout

__all__ = [
    "VerifyReport",
    "exhaustive_shape_census",
    "sampled_shape_census",
    "verify_shapes",
]

_BATCH = 1 << 18
_GF2_BITS = 32  # columns a uint32 bit row holds; wider GF(2) runs on int64 mod 2
_INT64_CELLS = 1 << 24  # matrix entries per int64 batch, so memory stays bounded
_OBJECT_CELLS = 1 << 18  # the same for batches of Python ints, one object per entry
_DISAGREEMENTS = 20  # shape disagreements a verify report lists, lowest index first
_DUAL_CHECK = 1 << 12  # reductions held for one batched postcondition check


def _int64_batch(n: int, cap: int, dtype=np.int64) -> int:
    """Matrices per batch of int64 (or, with dtype=object, Python-int) stacks."""
    cells = _INT64_CELLS if dtype is np.int64 else _OBJECT_CELLS
    return max(1, min(cap, cells // (n * n)))


def _step(n: int, dtype) -> int:
    """Candidates (and A22 blocks) per batch."""
    return _BATCH if dtype is np.uint32 else _int64_batch(n, _BATCH, dtype)


def _classes(rank_mat: np.ndarray, n: int) -> tuple[list[Partition], np.ndarray, np.ndarray]:
    """(shape of each distinct row, each row's class, class sizes) of rank rows.

    Rows are [rk(A^0), rk(A^1), ...], zero-padded.  A rank row falls strictly
    to 0, so the set of its values, as a bit mask, identifies it.
    """
    dtype = np.int64 if n < 63 else object
    codes = np.bitwise_or.reduce(np.left_shift(np.ones(1, dtype=dtype), rank_mat.astype(dtype)), axis=1)
    _, first, inverse, counts = np.unique(codes, return_index=True, return_inverse=True, return_counts=True)
    shapes = [
        conjugate(Partition([a - b for a, b in zip(seq, seq[1:]) if a > b])) for seq in rank_mat[first].tolist()
    ]
    return shapes, inverse, counts


# -- GF(2), bit-packed -----------------------------------------------------------


def _gf2_matmul(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros_like(a)
    for i in range(n):
        acc = out[:, i]
        col = a[:, i]
        for j in range(n):
            acc ^= (-((col >> np.uint32(j)) & np.uint32(1)).astype(np.int64)).astype(np.uint32) & b[:, j]
        out[:, i] = acc
    return out


def _gf2_ranks(rows: np.ndarray, n: int) -> np.ndarray:
    """Rank of every matrix in a stack of bit rows (B, n) uint32, bit c = column c.

    Forward elimination only: per column, the first row holding the bit
    becomes the pivot and is XORed into every row holding it, itself
    included, so a pivot row turns zero and is never picked again.
    """
    work = rows.copy()
    rank = np.zeros(work.shape[0], dtype=np.int64)
    bidx = np.arange(work.shape[0])
    for c in range(n):
        avail = ((work >> np.uint32(c)) & np.uint32(1)).astype(bool)
        has = avail.any(axis=1)
        pick = avail.argmax(axis=1)
        rank += has
        work ^= np.where(avail, work[bidx, pick][:, None], np.uint32(0))
    return rank


# -- GF(p), batched matmul ---------------------------------------------------------


def _gfp_ranks(mats: np.ndarray, p: int) -> np.ndarray:
    """Rank of every matrix in a stack (B, m, n) int64 over GF(p), p < 2^31.

    Fraction-free forward elimination (row_i <- piv*row_i - a_ic*row_r mod p),
    so no inverse is taken; every intermediate stays below p^2.  The pivot row
    is eliminated with the others, to zero, so it is never picked again; rows
    without an entry in the column are only scaled by the nonzero pivot.
    """
    work = mats % p
    rank = np.zeros(work.shape[0], dtype=np.int64)
    bidx = np.arange(work.shape[0])
    for c in range(work.shape[2]):
        col = work[:, :, c]
        avail = col != 0
        has = avail.any(axis=1)
        if not has.any():
            continue
        pick = avail.argmax(axis=1)
        rank += has
        factor = np.where(avail, col, 0)
        prow = work[bidx, pick]
        piv = np.where(has, prow[:, c], 1)
        work = (piv[:, None, None] * work - factor[:, :, None] * prow[:, None, :]) % p
    return rank


# -- batches of candidates ----------------------------------------------------------
#
# Stacks of candidates are built from odometer indices (exhaustive) or from
# drawn values (sampled); `dtype` selects the representation, uint32 bit rows,
# int64 matrices or Python-int matrices, and every later step is shared.


def _dtype(n: int, field: FieldSpec):
    """uint32 bit rows for GF(2) with n <= 32, else int64 while exact, else Python ints.

    Every product taken is of at most n x n matrices (A22 ones included), so
    the int64 bound is tied to n.
    """
    if field.order == 2 and n <= _GF2_BITS:
        return np.uint32
    return np.int64 if _np_safe(field, n) else object


def _a22_split(mu: Partition, positions) -> tuple[int, list[int], list[int], list[tuple[int, int]]]:
    """(m, free indices outside A22, free indices inside A22, their positions in A22)."""
    base = pattern_layout(mu).base
    m = mu.n - base
    inner = [f for f, (r, c) in enumerate(positions) if r >= base and c >= base]
    outer = [f for f, (r, c) in enumerate(positions) if r < base or c < base]
    return m, outer, inner, [(positions[f][0] - base, positions[f][1] - base) for f in inner]


def _stack(vals: np.ndarray, positions, n: int, dtype) -> np.ndarray:
    """B matrices of size n x n with the values vals[f] (shape (F, B)) at positions[f]."""
    b = vals.shape[1]
    if dtype is np.uint32:
        rows = np.zeros((b, n), dtype=np.uint32)
        for f, (r, c) in enumerate(positions):
            rows[:, r] |= vals[f].astype(np.uint32) << np.uint32(c)
        return rows
    mats = np.zeros((b, n, n), dtype=dtype)
    for f, (r, c) in enumerate(positions):
        mats[:, r, c] = vals[f]
    return mats


def _index_stack(idx: np.ndarray, positions, n: int, p: int, dtype) -> np.ndarray:
    """n x n matrices holding the odometer digits of each index at `positions`.

    The first position takes the most significant digit.
    """
    last = len(positions) - 1
    dt = np.int32 if p ** (last + 1) <= 2**31 else np.int64  # int32 divides about twice as fast
    digits = np.zeros((last + 1, idx.shape[0]), dtype=dt)
    rem = idx.astype(dt)
    for f in range(last, -1, -1):
        quot = rem // p  # numpy divides by a scalar faster than it takes %
        digits[f] = rem - quot * p
        rem = quot
    return _stack(digits, positions, n, dtype)


def _nilpotent_mask(mats: np.ndarray, n: int, p: int, bits: bool) -> np.ndarray:
    power, e = mats, 1
    while e < n:
        power = _gf2_matmul(power, power, n) if bits else np.matmul(power, power) % p
        e *= 2
    return ~power.any(axis=1 if bits else (1, 2))


def _rank_rows(mats: np.ndarray, mu: Partition, p: int, bits: bool) -> np.ndarray:
    """Rank rows (B, q) of the powers of nilpotent annihilating-form candidates for mu, zero-padded.

    A candidate is A = E B F^T, with E and F the unit columns at the K free rows
    and columns and B the K x K corner.  F^T E = diag(0_k, I_m), since only a
    ones block has its first row at its last column, so A^s = E B_s F^T with
    B_1 = B and B_(s+1) = B_s[:, k:] B[k:, :], and rk(A^s) = rk(B_s) because E
    and F have independent columns.  Only members whose last power is nonzero
    are multiplied again.  The streams pass masked nilpotent stacks, so a
    nonzero A^n is a bug and raises.
    """
    lay = pattern_layout(mu)
    n, k, width = mu.n, lay.k, len(lay.free_cols)
    ones = np.uint32((1 << width) - (1 << k))  # bit mask of the ones columns k..K-1
    rows = mats[:, list(lay.free_rows)]
    if bits:  # bit j of a corner row is bit free_cols[j]; the ones columns base.. are one run
        corner = rows >> np.uint32(lay.base - k) & ones
        for j in range(k):
            corner |= (rows >> np.uint32(lay.free_cols[j]) & np.uint32(1)) << np.uint32(j)
    else:
        corner = rows[:, :, list(lay.free_cols)]
    b = mats.shape[0]
    ranks = [np.full(b, n, dtype=np.int64)]
    alive, power = np.flatnonzero(ranks[0]), corner  # members whose last power is nonzero
    for _ in range(n):
        r = np.zeros(b, dtype=np.int64)
        r[alive] = _gf2_ranks(power, width) if bits else _gfp_ranks(power, p)
        ranks.append(r)
        keep = r[alive] > 0
        alive, power = alive[keep], power[keep]
        if not alive.size:
            break
        if bits:
            power = _gf2_matmul(power & ones, corner[alive], width)
        else:
            power = np.matmul(power[:, :, k:], corner[alive][:, k:, :]) % p
    if alive.size:
        raise InternalInconsistency(f"{alive.size} of {b} candidates have a nonzero power A^{n}; not nilpotent")
    return np.stack(ranks, axis=1)


def _add_shape_counts(
    counts: dict[Partition, int], mats: np.ndarray, mu: Partition, p: int, bits: bool, weight: int = 1
) -> None:
    """Add the shapes of a stack of nilpotent candidates for mu, each `weight` times, to `counts`."""
    shapes, _, sizes = _classes(_rank_rows(mats, mu, p, bits), mu.n)
    for shape, cnt in zip(shapes, sizes.tolist()):
        counts[shape] = counts.get(shape, 0) + weight * cnt


# -- the candidate streams ------------------------------------------------------------


def _cross_outer(
    mu: Partition, field: FieldSpec, budget: int, blocks: Iterable[np.ndarray]
) -> Iterator[np.ndarray]:
    """Batches of candidates: each A22 block in `blocks` crossed with every outer assignment.

    `blocks` yields stacks of nilpotent m x m blocks in the batches'
    representation.  For each block in turn the outer free coordinates run
    as an odometer, the first most significant.  The budget is checked on
    all p^F candidates, whatever `blocks` holds.
    """
    total = candidate_count(mu, field)
    if total > budget:
        raise BudgetExceeded(total, budget)
    free = free_coordinates(mu)
    n = mu.n
    p = field.order
    dtype = _dtype(n, field)
    m, outer, _, _ = _a22_split(mu, free.positions)
    base = n - m
    outer_positions = [free.positions[f] for f in outer]
    n_outer = p ** len(outer)
    step = _step(n, dtype)
    for kept in blocks:
        size = kept.shape[0] * n_outer
        for start in range(0, size, step):
            j = np.arange(start, min(start + step, size), dtype=np.int64)
            mats = _index_stack(j % n_outer, outer_positions, n, p, dtype)
            if dtype is np.uint32:
                mats[:, base:] |= kept[j // n_outer] << np.uint32(base)
            else:
                mats[:, base:, base:] = kept[j // n_outer]
            yield mats


def _nilpotent_a22_walk(mu: Partition, field: FieldSpec) -> Iterator[np.ndarray]:
    """Chunks of the nilpotent A22 blocks, walked as an odometer over all p^(m^2).

    Crossed with the outer coordinates (`_cross_outer`), they give every
    nilpotent candidate, and a candidate's entries at the free coordinates
    are its odometer digits, so it carries its own index (`_odometer_index`).
    """
    n, p = mu.n, field.order
    dtype = _dtype(n, field)
    m, _, inner, local = _a22_split(mu, free_coordinates(mu).positions)
    n_a22 = p ** len(inner)
    step = _step(n, dtype)
    for a0 in range(0, n_a22, step):
        a22 = _index_stack(np.arange(a0, min(a0 + step, n_a22), dtype=np.int64), local, m, p, dtype)
        yield a22[_nilpotent_mask(a22, m, p, dtype is np.uint32)]


def _jordan_stack(lam: Partition, dtype) -> np.ndarray:
    """A stack of one m x m block, J_lam: ones on the superdiagonal of each part of lam."""
    ones = [(off + i, off + i + 1) for off, part in zip(offsets(lam), lam) for i in range(part - 1)]
    return _stack(np.ones((len(ones), 1), dtype=np.int64), ones, lam.n, dtype)


def _gl_order(m: int, q: int) -> int:
    out = 1
    for i in range(m):
        out *= q**m - q**i
    return out


def _orbit_size(lam: Partition, q: int) -> int:
    """Nilpotent m x m matrices over GF(q) of Jordan shape lam: |GL_m(q)| / |C(J_lam)|.

    |C(J_lam)| = q^(sum lam'_i^2 - sum k_v^2) * prod |GL_(k_v)(q)|, k_v the
    multiplicity of the part v (Macdonald, Symmetric Functions and Hall
    Polynomials, ch. II and IV).
    """
    mults = [lam.count(v) for v in set(lam)]
    centralizer = q ** (sum(c * c for c in conjugate(lam)) - sum(k * k for k in mults))
    for k in mults:
        centralizer *= _gl_order(k, q)
    return _gl_order(lam.n, q) // centralizer


def _a22_key(rows: list[list[int]], base: int) -> tuple:
    """The rows of a candidate's A22 block: the key of its stage 0."""
    return tuple(tuple(r[base:]) for r in rows[base:])


def _odometer_index(rows: list[list[int]], positions, p: int) -> int:
    """Odometer index of an exhaustive candidate: its free entries, the first most significant."""
    index = 0
    for r, c in positions:
        index = index * p + rows[r][c]
    return index


def _sampled_stream(
    mu: Partition, field: FieldSpec, samples: int, seed: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Batches (candidates, sample index) of the nilpotent draws among `samples`.

    Sample i takes splitmix64 stream positions [i*F, (i+1)*F) of `seed`, as
    oracles.sample_candidate(..., index=i) does.
    """
    from . import rng

    free = free_coordinates(mu)
    n = mu.n
    p = field.order
    nf = len(free)
    dtype = _dtype(n, field)
    bits = dtype is np.uint32
    m, _, inner, local = _a22_split(mu, free.positions)
    step = _BATCH // 4 if bits else _int64_batch(n, _BATCH // 4, dtype)
    for start in range(0, samples, step):
        stop = min(start + step, samples)
        vals = rng.values_mod_np(seed, start * nf, (stop - start) * nf, p).reshape(stop - start, nf).T
        keep = _nilpotent_mask(_stack(vals[inner], local, m, dtype), m, p, bits)
        yield _stack(vals[:, keep], free.positions, n, dtype), start + np.flatnonzero(keep)


# -- public censuses ------------------------------------------------------------------


def exhaustive_shape_census(
    mu: Partition, field: FieldSpec, budget: int = DEFAULT_BUDGET
) -> dict[Partition, int]:
    """Shape -> count over all nilpotent annihilating-form candidates (vectorized).

    One J_lambda per GL_m orbit of A22, its shapes weighted by the orbit size.
    """
    mu = Partition(mu)
    n, p = mu.n, field.order
    dtype = _dtype(n, field)
    counts: dict[Partition, int] = {}
    for lam in enumerate_partitions(n - pattern_layout(mu).base):
        weight = _orbit_size(lam, p)
        for mats in _cross_outer(mu, field, budget, [_jordan_stack(lam, dtype)]):
            _add_shape_counts(counts, mats, mu, p, dtype is np.uint32, weight)
    return counts


def sampled_shape_census(
    mu: Partition, field: FieldSpec, samples: int, seed: int
) -> tuple[dict[Partition, int], int]:
    """Shape -> count over nilpotent candidates among `samples` seeded draws.

    Returns the counts and the number of nilpotent samples.
    """
    mu = Partition(mu)
    counts: dict[Partition, int] = {}
    nilp_total = 0
    for mats, _ in _sampled_stream(mu, field, samples, seed):
        nilp_total += mats.shape[0]
        _add_shape_counts(counts, mats, mu, field.order, mats.dtype == np.uint32)
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


def _reduce_slice(mu: Partition, field: FieldSpec, originals: np.ndarray, stage0: dict) -> list[tuple]:
    """(lambda, M, T, T^-1) of `reduce_stages` for each candidate of an integer stack (B, n, n).

    M comes as a tuple of row tuples, T and T^-1 as row lists.  The
    candidates are grouped by their A22 block; stage 0 runs once per block
    (cached in `stage0`), its block products A12 P and P^-1 A21 once per
    group as one batched product, and stages 1-5 per candidate on row lists.
    """
    from . import reduction

    split = split_core(mu)
    m, p = split.ones, field.order
    base = mu.n - m
    rows = originals.tolist()
    groups: dict = {}
    for i, r in enumerate(rows):
        groups.setdefault(_a22_key(r, base), []).append(i)
    out: list = [None] * len(rows)
    for key, members in groups.items():
        ones = stage0.get(key)
        if ones is None:
            a22 = ExactMatrix(field, [r[base:] for r in rows[members[0]][base:]], ncols=m, _canon=False)
            ones = stage0[key] = reduction.jordanize_ones(a22)
        p2 = np.array(ones.p.rows, dtype=originals.dtype).reshape(m, m)
        p2inv = np.array(ones.pinv.rows, dtype=originals.dtype).reshape(m, m)
        work = originals[members]
        work[:, :base, base:] = np.matmul(work[:, :base, base:], p2) % p
        work[:, base:, :base] = np.matmul(p2inv, work[:, base:, :base]) % p
        work[:, base:, base:] = _jordan_stack(ones.lam, originals.dtype)
        tw0, ti0 = reduction.stage0_transforms(field, base, ones)
        for i, w in zip(members, work.tolist()):
            tw, ti = [list(r) for r in tw0], [list(r) for r in ti0]
            reduction.reduce_rows(field, split.core, ones.lam, w, tw, ti)
            out[i] = (ones.lam, tuple(map(tuple, w)), tw, ti)
    return out


def verify_shapes(
    mu: Partition,
    field: FieldSpec,
    mode: str = "exhaustive",
    budget: int = DEFAULT_BUDGET,
    samples: int = 10000,
    seed: int = 0,
) -> VerifyReport:
    """Compare predicted shapes against brute force, dual-checking each matrix.

    Exhaustive mode walks every nilpotent A22 block and crosses it with the
    outer coordinates; sample mode reads the sampled census's stream.  Every
    nilpotent candidate's shape is taken from its batch's rank rows and
    again through the reduction and shape_of_reduced (stage 0 cached per A22
    block, its block products batched per A22 block within a slice, stages
    1-5 on row lists, the formula per reduced matrix, `reduce`'s
    postconditions checked for a slice of candidates at once); a sample
    run whose draws held no nilpotent candidate reports `checked: 0` in its
    details; any disagreement (the lowest
    20 indices are reported: in exhaustive mode the odometer index, read
    back from the candidate's free entries, in sample mode the sample
    index), or any observed shape outside the prediction, yields a mismatch
    verdict.
    Exhaustive mode additionally requires every predicted shape to be
    observed.
    """
    from . import jordan, reduction
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
        positions = free_coordinates(mu).positions
        walk = _cross_outer(mu, field, budget, _nilpotent_a22_walk(mu, field))
        stream = ((mats, None) for mats in walk)
    elif mode == "sample":
        stream = _sampled_stream(mu, field, samples, seed)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    split = split_core(mu)
    disagreements: list[dict] = []
    for mats, drawn in stream:
        bits = mats.dtype == np.uint32
        rank_rows = _rank_rows(mats, mu, p, bits)
        shapes, inverse, _ = _classes(rank_rows, n)
        observed.update(shapes)
        rank_rows, inverse = rank_rows.tolist(), inverse.tolist()
        stage0: dict = {}  # A22 rows -> stage 0's data
        formulas: dict = {}  # (lambda, reduced rows) -> formula shape
        for start in range(0, len(rank_rows), _DUAL_CHECK):
            originals = mats[start : start + _DUAL_CHECK]
            if bits:  # entry (r, c) is bit c of row r
                column = np.arange(n, dtype=np.uint32)
                originals = (originals[:, :, None] >> column & np.uint32(1)).astype(np.int64)
            reduced = _reduce_slice(mu, field, originals, stage0)
            for k, (lam, rows, transform, _) in enumerate(reduced, start):
                formula = formulas.get((lam, rows))
                if formula is None:
                    pair = reduction.ReducedPair(
                        mu_core=split.core,
                        ones=split.ones,
                        lam=lam,
                        matrix=ExactMatrix(field, rows, _canon=False),
                        transform=ExactMatrix(field, transform, _canon=False),
                    )
                    formula = formulas[lam, rows] = jordan.shape_of_reduced(pair)
                oracle = shapes[inverse[k]]
                if formula != oracle:
                    if drawn is None:
                        index = _odometer_index(originals[k - start].tolist(), positions, p)
                    else:
                        index = int(drawn[k])
                    pair_doc = dict(oracle=format_partition(oracle), formula=format_partition(formula))
                    disagreements.append(dict(index=index, **pair_doc))
            reduction._verify(mu, field, originals, reduced, rank_rows[start : start + len(reduced)])
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

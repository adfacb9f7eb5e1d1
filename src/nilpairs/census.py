"""Brute-force shape censuses over finite fields, exhaustive or sampled.

The exhaustive census tallies the Jordan shapes of every nilpotent
annihilating-form candidate for a given mu.  Such a candidate is nilpotent
exactly when its m x m ones block A22 is, and p^(m^2 - m) of the p^(m^2)
blocks are (Fine-Herstein), so the census walks the A22 space, keeps the
nilpotent blocks, and crosses them with every assignment of the outer free
coordinates: it builds only the p^(F - m) nilpotent candidates of the p^F.
The sampled census draws whole candidates and keeps those whose A22 is
nilpotent.  The engine works on whole batches of candidates: over GF(2)
with n <= 32 each row is a uint32 bitmask, otherwise each matrix is an int64
array (wider GF(2) matrices run there mod 2), and the shapes come from the
ranks of successive powers, taken by one rank-only batched elimination per
representation (`_gf2_ranks`, `_gfp_ranks`) and tallied once per distinct
rank sequence.  Its per-matrix cross-check twin is
`oracles.reference_shape_census`.
`verify_shapes` is the CLI engine: it additionally computes every shape
twice (rank-sequence oracle and reduction formulas) and demands agreement
matrix by matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import FieldSpec
from .matrix import ExactMatrix, _np_safe
from .partitions import Partition, canonical_sorted, conjugate, format_partition, split_core
from .structure import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    candidate_count,
    enumerate_candidates,
    free_coordinates,
    sample_candidate,
)

__all__ = [
    "VerifyReport",
    "exhaustive_shape_census",
    "sampled_shape_census",
    "verify_shapes",
]

_BATCH = 1 << 18
_GF2_BITS = 32  # columns a uint32 bit row holds; wider GF(2) runs on int64 mod 2
_INT64_CELLS = 1 << 24  # matrix entries per int64 batch, so memory stays bounded
_A22_CACHE = 1 << 16  # A22 nilpotency verdicts verify_shapes keeps


def _int64_batch(n: int, cap: int) -> int:
    return max(1, min(cap, _INT64_CELLS // (n * n)))


def _tally(rank_mat: np.ndarray, n: int) -> dict[Partition, int]:
    """Shape -> count from rank rows [rk(A^0), rk(A^1), ...], zero-padded.

    A rank row falls strictly to 0, so the set of its values, as a bit mask,
    identifies it; each distinct row is converted to its shape once.
    """
    dtype = np.int64 if n < 63 else object
    codes = np.bitwise_or.reduce(np.left_shift(np.ones(1, dtype=dtype), rank_mat.astype(dtype)), axis=1)
    _, first, counts = np.unique(codes, return_index=True, return_counts=True)
    out: dict[Partition, int] = {}
    for seq, cnt in zip(rank_mat[first].tolist(), counts.tolist()):
        out[conjugate(Partition([a - b for a, b in zip(seq, seq[1:]) if a > b]))] = cnt
    return out


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


def _gf2_nilpotent_mask(rows: np.ndarray, n: int) -> np.ndarray:
    power = rows
    e = 1
    while e < n:
        power = _gf2_matmul(power, power, n)
        e *= 2
    return ~power.any(axis=1)


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


def _gf2_rank_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """Rank rows (B, q) of the powers of nilpotent bit-row matrices, down to zero."""
    ranks = [np.full(rows.shape[0], n, dtype=np.int64)]
    power = rows
    for _ in range(n):
        ranks.append(_gf2_ranks(power, n))
        if not ranks[-1].any():
            break
        power = _gf2_matmul(power, rows, n)
    return np.stack(ranks, axis=1)


# -- GF(p), batched matmul ---------------------------------------------------------


def _gfp_nilpotent_mask(mats: np.ndarray, n: int, p: int) -> np.ndarray:
    power = mats
    e = 1
    while e < n:
        power = np.matmul(power, power) % p
        e *= 2
    return ~power.any(axis=(1, 2))


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


def _gfp_rank_rows(mats: np.ndarray, n: int, p: int) -> np.ndarray:
    """Rank rows (B, q) of the powers of nilpotent int64 matrices, zero-padded."""
    b = mats.shape[0]
    ranks = [np.full(b, n, dtype=np.int64)]
    power = mats.copy()
    alive = np.ones(b, dtype=bool)
    while alive.any():
        r = np.zeros(b, dtype=np.int64)
        r[alive] = _gfp_ranks(power[alive], p)
        ranks.append(r)
        alive = alive & (r > 0)
        if alive.any():
            power[alive] = np.matmul(power[alive], mats[alive]) % p
    return np.stack(ranks, axis=1)


# -- batches of candidates ----------------------------------------------------------
#
# Stacks of candidates are built from odometer indices (exhaustive) or from
# drawn values (sampled); `bits` selects the representation, uint32 bit rows
# or int64 matrices, and every later step is shared.


def _bit_rows(n: int, field: FieldSpec) -> bool:
    """True when n x n candidates go in uint32 bit rows; else checks int64 stays exact.

    Every product the census takes is of n x n matrices (A22 ones included,
    m <= n), so the int64 bound is tied to n.
    """
    if field.order == 2 and n <= _GF2_BITS:
        return True
    if not _np_safe(field, n):
        raise ValueError(f"census int64 products need n*(p-1)^2 < 2^62, got n={n}, p={field.order}")
    return False


def _a22_split(mu: Partition, positions) -> tuple[int, list[int], list[int], list[tuple[int, int]]]:
    """(m, free indices outside A22, free indices inside A22, their positions in A22)."""
    m = split_core(mu).ones
    base = mu.n - m
    inner = [f for f, (r, c) in enumerate(positions) if r >= base and c >= base]
    outer = [f for f, (r, c) in enumerate(positions) if r < base or c < base]
    return m, outer, inner, [(positions[f][0] - base, positions[f][1] - base) for f in inner]


def _stack(vals: np.ndarray, positions, n: int, bits: bool) -> np.ndarray:
    """B matrices of size n x n with the values vals[f] (shape (F, B)) at positions[f]."""
    b = vals.shape[1]
    if bits:
        rows = np.zeros((b, n), dtype=np.uint32)
        for f, (r, c) in enumerate(positions):
            rows[:, r] |= vals[f].astype(np.uint32) << np.uint32(c)
        return rows
    mats = np.zeros((b, n, n), dtype=np.int64)
    for f, (r, c) in enumerate(positions):
        mats[:, r, c] = vals[f]
    return mats


def _index_stack(idx: np.ndarray, positions, n: int, p: int, bits: bool) -> np.ndarray:
    """n x n matrices holding the odometer digits of each index at `positions`.

    The first position takes the most significant digit.
    """
    last = len(positions) - 1
    if bits:
        rows = np.zeros((idx.shape[0], n), dtype=np.uint32)
        for f, (r, c) in enumerate(positions):
            rows[:, r] |= ((idx >> (last - f)) & 1).astype(np.uint32) << np.uint32(c)
        return rows
    digits = np.zeros((last + 1, idx.shape[0]), dtype=np.int64)
    rem = idx.copy()
    for f in range(last, -1, -1):
        digits[f] = rem % p
        rem //= p
    return _stack(digits, positions, n, bits)


def _nilpotent_mask(mats: np.ndarray, n: int, p: int, bits: bool) -> np.ndarray:
    return _gf2_nilpotent_mask(mats, n) if bits else _gfp_nilpotent_mask(mats, n, p)


def _add_shape_counts(counts: dict[Partition, int], mats: np.ndarray, n: int, p: int, bits: bool) -> None:
    """Add the shapes of a stack of nilpotent n x n candidates to `counts`."""
    if mats.shape[0] == 0:
        return
    ranks = _gf2_rank_rows(mats, n) if bits else _gfp_rank_rows(mats, n, p)
    for shape, cnt in _tally(ranks, n).items():
        counts[shape] = counts.get(shape, 0) + cnt


# -- public censuses ------------------------------------------------------------------


def exhaustive_shape_census(
    mu: Partition, field: FieldSpec, budget: int = DEFAULT_BUDGET
) -> dict[Partition, int]:
    """Shape -> count over all nilpotent annihilating-form candidates (vectorized).

    The A22 blocks are walked in chunks; the nilpotent ones are crossed with
    every assignment of the outer free coordinates, so only the p^(F - m)
    nilpotent candidates of the p^F are built.
    """
    mu = Partition(mu)
    total = candidate_count(mu, field)
    if total > budget:
        raise BudgetExceeded(total, budget)
    free = free_coordinates(mu)
    n = mu.n
    p = field.order
    bits = _bit_rows(n, field)
    m, outer, inner, local = _a22_split(mu, free.positions)
    base = n - m
    outer_positions = [free.positions[f] for f in outer]
    n_a22 = p ** len(inner)
    n_outer = p ** len(outer)
    step = _BATCH if bits else _int64_batch(n, _BATCH)
    counts: dict[Partition, int] = {}
    for a0 in range(0, n_a22, step):
        a22 = _index_stack(np.arange(a0, min(a0 + step, n_a22), dtype=np.int64), local, m, p, bits)
        kept = a22[_nilpotent_mask(a22, m, p, bits)]
        size = kept.shape[0] * n_outer
        for start in range(0, size, step):
            j = np.arange(start, min(start + step, size), dtype=np.int64)
            mats = _index_stack(j % n_outer, outer_positions, n, p, bits)
            if bits:
                mats[:, base:] |= kept[j // n_outer] << np.uint32(base)
            else:
                mats[:, base:, base:] = kept[j // n_outer]
            _add_shape_counts(counts, mats, n, p, bits)
    return counts


def sampled_shape_census(
    mu: Partition, field: FieldSpec, samples: int, seed: int
) -> tuple[dict[Partition, int], int]:
    """Shape -> count over nilpotent candidates among `samples` seeded draws.

    Sample i uses splitmix64 stream positions [i*F, (i+1)*F) of `seed`, the
    same stream as structure.sample_candidate(..., index=i); a draw is kept
    when its A22 block is nilpotent.  Returns the counts and the number of
    nilpotent samples.
    """
    from . import rng

    mu = Partition(mu)
    free = free_coordinates(mu)
    n = mu.n
    p = field.order
    nf = len(free)
    bits = _bit_rows(n, field)
    m, _, inner, local = _a22_split(mu, free.positions)
    counts: dict[Partition, int] = {}
    nilp_total = 0
    step = _BATCH // 4 if bits else _int64_batch(n, _BATCH // 4)
    for start in range(0, samples, step):
        stop = min(start + step, samples)
        vals = rng.values_mod_np(seed, start * nf, (stop - start) * nf, p).reshape(stop - start, nf).T
        nilp = vals[:, _nilpotent_mask(_stack(vals[inner], local, m, bits), m, p, bits)]
        nilp_total += nilp.shape[1]
        _add_shape_counts(counts, _stack(nilp, free.positions, n, bits), n, p, bits)
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


def verify_shapes(
    mu: Partition,
    field: FieldSpec,
    mode: str = "exhaustive",
    budget: int = DEFAULT_BUDGET,
    samples: int = 10000,
    seed: int = 0,
) -> VerifyReport:
    """Compare predicted shapes against brute force, dual-checking each matrix.

    Every nilpotent candidate's shape is computed both from its rank sequence
    and through reduce -> shape_of_reduced; any disagreement, or any observed
    shape outside the prediction, yields a mismatch verdict.  Exhaustive mode
    additionally requires every predicted shape to be observed.
    """
    from .characterize import enumerate_shapes
    from .jordan import shape_of_reduced
    from .reduction import reduce as reduce_form

    mu = Partition(mu)
    if not field.is_finite:
        raise ValueError("verification needs a finite field")
    if samples < 0:
        raise ValueError(f"sample count must be non-negative, got {samples}")
    predicted = enumerate_shapes(mu)
    observed: set[Partition] = set()
    details: dict = {}

    if mode == "exhaustive":
        candidates = enumerate_candidates(mu, field, budget)
    elif mode == "sample":
        candidates = (sample_candidate(mu, field, seed, index=i) for i in range(samples))
    else:
        raise ValueError(f"unknown mode {mode!r}")

    # a candidate is nilpotent iff its A22 block is; blocks recur across the
    # outer coordinates, so each verdict is kept (up to _A22_CACHE blocks)
    m = split_core(mu).ones
    base = mu.n - m
    nilpotent_a22: dict[tuple, bool] = {}
    disagreements = []
    for i, cand in enumerate(candidates):
        a22 = tuple(r[base:] for r in cand.rows[base:])
        nilp = nilpotent_a22.get(a22)
        if nilp is None:
            nilp = ExactMatrix(field, a22, ncols=m, _canon=False).is_nilpotent()
            if len(nilpotent_a22) < _A22_CACHE:
                nilpotent_a22[a22] = nilp
        if not nilp:
            continue
        shape = cand.nilpotent_shape()
        formula_shape = shape_of_reduced(reduce_form(cand, mu))
        if formula_shape != shape:
            disagreements.append(
                {"index": i, "oracle": format_partition(shape), "formula": format_partition(formula_shape)}
            )
        observed.add(shape)

    pred_set = set(predicted)
    if disagreements:
        verdict = "mismatch"
        details["shape_disagreements"] = disagreements[:20]
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

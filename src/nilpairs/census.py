"""Brute-force shape censuses over finite fields, exhaustive or sampled.

The exhaustive census enumerates every annihilating-form candidate for a
given mu, filters the nilpotent ones, and tallies their Jordan shapes.  Two
routes are provided: a vectorized engine and a slow per-matrix reference
used to cross-check it.  The engine works on whole batches of candidates:
over GF(2) with n <= 32 each row is a uint32 bitmask, otherwise each matrix
is an int64 array (wider GF(2) matrices run there mod 2), and the shapes
come from the ranks of successive powers, taken by one rank-only batched
elimination per representation (`_gf2_ranks`, `_gfp_ranks`).
`verify_shapes` is the CLI engine: it additionally computes every shape
twice (rank-sequence oracle and reduction formulas) and demands agreement
matrix by matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import FieldSpec
from .matrix import ExactMatrix
from .partitions import Partition, canonical_sorted, conjugate, format_partition
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
    "reference_shape_census",
    "verify_shapes",
]

_BATCH = 1 << 18
_GF2_BITS = 32  # columns a uint32 bit row holds; wider GF(2) runs on int64 mod 2
_INT64_CELLS = 1 << 24  # matrix entries per int64 batch, so memory stays bounded


def _int64_batch(n: int, cap: int) -> int:
    return max(1, min(cap, _INT64_CELLS // (n * n)))


def _shape_from_kernel_dims(dims: list[int], n: int) -> Partition:
    """Jordan shape from kernel dimensions of A^1..A^q (q = first full kernel)."""
    weyr = []
    prev = 0
    for d in dims:
        weyr.append(d - prev)
        prev = d
        if d == n:
            break
    return conjugate(Partition([w for w in weyr if w]))


# -- GF(2), bit-packed -----------------------------------------------------------


def _gf2_rows_from_indices(idx: np.ndarray, positions, n: int, nfree: int) -> np.ndarray:
    rows = np.zeros((idx.shape[0], n), dtype=np.uint32)
    for f, (r, c) in enumerate(positions):
        bit = (idx >> np.uint64(nfree - 1 - f)) & np.uint64(1)
        rows[:, r] |= bit.astype(np.uint32) << np.uint32(c)
    return rows


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


def _gf2_shape_counts(rows: np.ndarray, n: int) -> dict[Partition, int]:
    b = rows.shape[0]
    dims = []
    power = rows
    for _ in range(n):
        dims.append(n - _gf2_ranks(power, n))
        if all(d == n for d in dims[-1]):
            break
        power = _gf2_matmul(power, rows, n)
    dim_mat = np.stack(dims, axis=1)  # (B, q)
    codes = np.zeros(b, dtype=np.int64)
    base = n + 1
    for j in range(dim_mat.shape[1]):
        codes = codes * base + dim_mat[:, j]
    out: dict[Partition, int] = {}
    uniq, counts = np.unique(codes, return_counts=True)
    width = dim_mat.shape[1]
    for code, cnt in zip(uniq.tolist(), counts.tolist()):
        digits = []
        c = code
        for _ in range(width):
            digits.append(c % base)
            c //= base
        digits.reverse()
        shape = _shape_from_kernel_dims(digits, n)
        out[shape] = out.get(shape, 0) + cnt
    return out


# -- GF(p), batched matmul ---------------------------------------------------------


def _gfp_mats_from_values(vals: np.ndarray, positions, n: int) -> np.ndarray:
    mats = np.zeros((vals.shape[0], n, n), dtype=np.int64)
    for f, (r, c) in enumerate(positions):
        mats[:, r, c] = vals[:, f]
    return mats


def _gfp_nilpotent_mask(mats: np.ndarray, n: int, p: int) -> np.ndarray:
    if n and n * (p - 1) ** 2 >= 2**62:  # pragma: no cover - tiny fields only
        raise ValueError(f"census nilpotency filter limited to small p, got p={p}")
    power = mats.astype(np.int64)
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


def _gfp_shape_counts(mats: np.ndarray, n: int, p: int) -> dict[Partition, int]:
    b = mats.shape[0]
    out: dict[Partition, int] = {}
    if b == 0:
        return out
    ranks = [np.full(b, n, dtype=np.int64)]
    power = mats.copy()
    alive = np.ones(b, dtype=bool)
    while alive.any():
        r = np.zeros(b, dtype=np.int64)
        r[alive] = _gfp_ranks(power[alive], p)
        ranks.append(np.where(alive, r, 0))
        alive = alive & (r > 0)
        if alive.any():
            power[alive] = np.matmul(power[alive], mats[alive]) % p
    rank_mat = np.stack(ranks, axis=1)
    for i in range(b):
        seq = rank_mat[i]
        weyr = []
        for j in range(1, len(seq)):
            w = int(seq[j - 1] - seq[j])
            if w <= 0:
                break
            weyr.append(w)
        shape = conjugate(Partition(weyr))
        out[shape] = out.get(shape, 0) + 1
    return out


# -- public censuses ------------------------------------------------------------------


def exhaustive_shape_census(
    mu: Partition, field: FieldSpec, budget: int = DEFAULT_BUDGET
) -> dict[Partition, int]:
    """Shape -> count over all nilpotent annihilating-form candidates (vectorized)."""
    mu = Partition(mu)
    total = candidate_count(mu, field)
    if total > budget:
        raise BudgetExceeded(total, budget)
    free = free_coordinates(mu)
    n = mu.n
    p = field.order
    counts: dict[Partition, int] = {}
    if n == 0:
        return {Partition(): 1}
    bits = p == 2 and n <= _GF2_BITS
    step = _BATCH if bits else _int64_batch(n, _BATCH)
    for start in range(0, total, step):
        stop = min(start + step, total)
        if bits:
            idx = np.arange(start, stop, dtype=np.uint64)
            rows = _gf2_rows_from_indices(idx, free.positions, n, len(free))
            mask = _gf2_nilpotent_mask(rows, n)
            sub = _gf2_shape_counts(rows[mask], n) if mask.any() else {}
        else:
            idx = np.arange(start, stop, dtype=np.int64)
            digits = np.zeros((idx.shape[0], len(free)), dtype=np.int64)
            rem = idx.copy()
            for f in range(len(free) - 1, -1, -1):
                digits[:, f] = rem % p
                rem //= p
            mats = _gfp_mats_from_values(digits, free.positions, n)
            mask = _gfp_nilpotent_mask(mats, n, p)
            sub = _gfp_shape_counts(mats[mask], n, p) if mask.any() else {}
        for shape, cnt in sub.items():
            counts[shape] = counts.get(shape, 0) + cnt
    return counts


def sampled_shape_census(
    mu: Partition, field: FieldSpec, samples: int, seed: int
) -> tuple[dict[Partition, int], int]:
    """Shape -> count over nilpotent candidates among `samples` seeded draws.

    Sample i uses splitmix64 stream positions [i*F, (i+1)*F) of `seed`, the
    same stream as structure.sample_candidate(..., index=i).  Returns the
    counts and the number of nilpotent samples.
    """
    from . import rng

    mu = Partition(mu)
    free = free_coordinates(mu)
    n = mu.n
    p = field.order
    nf = len(free)
    counts: dict[Partition, int] = {}
    nilp_total = 0
    bits = p == 2 and n <= _GF2_BITS
    step = _BATCH // 4 if bits else _int64_batch(n, _BATCH // 4)
    for start in range(0, samples, step):
        stop = min(start + step, samples)
        vals = rng.values_mod_np(seed, start * nf, (stop - start) * nf, p).reshape(stop - start, nf)
        if bits:
            rows = np.zeros((vals.shape[0], n), dtype=np.uint32)
            for f, (r, c) in enumerate(free.positions):
                rows[:, r] |= vals[:, f].astype(np.uint32) << np.uint32(c)
            mask = _gf2_nilpotent_mask(rows, n)
            sub = _gf2_shape_counts(rows[mask], n) if mask.any() else {}
        else:
            mats = _gfp_mats_from_values(vals, free.positions, n)
            mask = _gfp_nilpotent_mask(mats, n, p)
            sub = _gfp_shape_counts(mats[mask], n, p) if mask.any() else {}
        nilp_total += int(mask.sum())
        for shape, cnt in sub.items():
            counts[shape] = counts.get(shape, 0) + cnt
    return counts, nilp_total


def reference_shape_census(
    mu: Partition, field: FieldSpec, budget: int = DEFAULT_BUDGET
) -> dict[Partition, int]:
    """Per-matrix oracle census (slow); the cross-check twin of the vectorized one."""
    counts: dict[Partition, int] = {}
    for cand in enumerate_candidates(mu, field, budget):
        if cand.is_nilpotent():
            shape = cand.nilpotent_shape()
            counts[shape] = counts.get(shape, 0) + 1
    return counts


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
    predicted = enumerate_shapes(mu)
    observed: set[Partition] = set()
    details: dict = {}

    if mode == "exhaustive":
        candidates = enumerate_candidates(mu, field, budget)
    elif mode == "sample":
        candidates = (sample_candidate(mu, field, seed, index=i) for i in range(samples))
    else:
        raise ValueError(f"unknown mode {mode!r}")

    disagreements = []
    for i, cand in enumerate(candidates):
        if not cand.is_nilpotent():
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

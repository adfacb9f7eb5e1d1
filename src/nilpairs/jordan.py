"""Closed-form Jordan shape of a reduced matrix via chain-count ranks.

For a reduced pair with core block count k and ones shape lambda, the shape
is recovered from prefix ranks of the A12 corner columns (e1), of the A21
corner rows (e2), and the pairing ranks f(s) of the designated columns of
A12 * J^(s-2) * A21.  Each lambda part of size s contributes f(s+1) chains of
length s+2, g(s+1) of length s+1, and the rest of length s; the extra
2-chains are recovered by rank accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matrix import ExactMatrix
from .partitions import Partition, equal_runs, offsets, ord_parts
from .reduction import ReducedPair

__all__ = ["InternalInconsistency", "ChainProfile", "chain_profile", "rank_formula", "shape_of_reduced"]


class InternalInconsistency(AssertionError):
    """The chain counts are impossible; the input was not a valid reduced pair."""


@dataclass(frozen=True)
class ChainProfile:
    """Prefix ranks e1/e2 (index 0..l) and the pairing counts f, g (keys 2..lam_1+1)."""

    e1: tuple[int, ...]
    e2: tuple[int, ...]
    f: dict[int, int]
    g: dict[int, int]

    def to_json_dict(self) -> dict:
        return {
            "e1": list(self.e1),
            "e2": list(self.e2),
            "f": {str(s): v for s, v in sorted(self.f.items())},
            "g": {str(s): v for s, v in sorted(self.g.items())},
        }


def _lam_transpose_at(lam: Partition, s: int) -> int:
    """Number of lambda parts >= s (zero beyond lam_1)."""
    if s < 1:
        raise ValueError("transpose index must be >= 1")
    return sum(1 for p in lam if p >= s)


def _jordan_shift(a: ExactMatrix, lam: Partition, e: int) -> ExactMatrix:
    """J_lambda^e * a without a product: within each lambda block of rows, row
    i takes row i + e when that row is in the same block, and zeros otherwise."""
    zeros = (a.field.zero(),) * a.ncols
    rows = []
    for off, part in zip(offsets(lam), lam):
        rows += a.rows[off + e : off + part] + (zeros,) * min(e, part)
    return ExactMatrix(a.field, rows, ncols=a.ncols, _canon=False)


def chain_profile(r: ReducedPair) -> ChainProfile:
    """Prefix ranks of X columns / Y rows and the pairing counts f, g."""
    lam = r.lam
    k = r.k
    e1 = tuple(r.x_corner().column_prefix_ranks())
    e2 = tuple(r.y_corner().transpose().column_prefix_ranks())

    a12, a21 = r.a12(), r.a21()
    lay = r.layout
    f_map: dict[int, int] = {}
    g_map: dict[int, int] = {}
    top = lam[0] if lam else 0
    for s in range(2, top + 2):
        start = e2[_lam_transpose_at(lam, s)]
        cols = [lay.core_last(t) for t in range(start, k)]
        y = ExactMatrix(r.field, [[row[c] for c in cols] for row in a21.rows], ncols=len(cols), _canon=False)
        f_map[s] = a12.mul(_jordan_shift(y, lam, s - 2)).rank()
        lt_prev = _lam_transpose_at(lam, s - 1)
        lt_here = _lam_transpose_at(lam, s)
        g_map[s] = e1[lt_prev] - e1[lt_here] + e2[lt_prev] - e2[lt_here] - 2 * f_map[s]
    return ChainProfile(e1=e1, e2=e2, f=f_map, g=g_map)


def rank_formula(r: ReducedPair, s: int, profile: ChainProfile | None = None) -> int:
    """Closed form for rk(A^(s+1)), s >= 1: rk(J^(s+1)) + e1 + e2 at lambda^T_(s+1), plus f(s+1)."""
    if s < 1:
        raise ValueError("rank_formula needs s >= 1")
    prof = profile if profile is not None else chain_profile(r)
    lam = r.lam
    tail = sum(max(p - (s + 1), 0) for p in lam)
    idx = _lam_transpose_at(lam, s + 1)
    return tail + prof.e1[idx] + prof.e2[idx] + prof.f.get(s + 1, 0)


def shape_of_reduced(r: ReducedPair, profile: ChainProfile | None = None) -> Partition:
    """Jordan shape of the reduced matrix from its chain profile.

    Raises InternalInconsistency when the counts are impossible, which
    signals a reduction bug rather than bad user input.
    """
    prof = profile if profile is not None else chain_profile(r)
    return _shape_from_counts(r.lam, r.n, prof.f, prof.g, r.matrix.rank())


def _shape_from_counts(lam: Partition, n: int, f: dict[int, int], g: dict[int, int], rank_a: int) -> Partition:
    """`shape_of_reduced`'s assembly from the counts f, g and rk(A); `census` runs it per distinct count row."""
    lengths: list[int] = []
    for j0, j1 in equal_runs(lam):
        part, mult = lam[j0], j1 - j0
        nf = f.get(part + 1, 0)
        ng = g.get(part + 1, 0)
        rem = mult - nf - ng
        if ng < 0 or rem < 0:
            raise InternalInconsistency(
                f"impossible chain counts for part {part}: mult={mult} f={nf} g={ng}"
            )
        lengths.extend([part + 2] * nf + [part + 1] * ng + [part] * rem)
    used_rank = sum(length - 1 for length in lengths)
    c = rank_a - used_rank
    if c < 0:
        raise InternalInconsistency(f"negative 2-chain count: rank {rank_a}, chains use {used_rank}")
    d = n - 2 * c - sum(lengths)
    if d < 0:
        raise InternalInconsistency(f"negative 1-chain count: n={n}, c={c}, lengths={lengths}")
    return ord_parts(lengths + [2] * c + [1] * d)

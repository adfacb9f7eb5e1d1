"""Dense exact matrices over GF(p) and the rationals.

Provides multiplication, powers, rank (deterministic pivoting: leftmost
column, topmost nonzero row), kernels, inverses, the Jordan shape of a
nilpotent matrix via its rank sequence, and exact nilpotent Jordanization
with an explicit change of basis.

Elimination has one exact routine per representation: GF(2) rows are
bit-packed into Python ints, GF(p) rows are ints mod p, and QQ elimination is
fraction-free on integers (primitive integer rows, Fractions only for the
reduced rows that `kernel_basis` and `inverse` read).

Products (`mul`, and through it `power`; `matvec`) have one pure-Python
path on integers: a rational row of A and column of B are scaled to integer
vectors by the lcm of their denominators, their dot product is taken on
Python ints, and one Fraction is built per output entry; GF(p) entries are
integers already and the dots are reduced mod p.  numpy serves `mul` over
GF(p), as an int64 product when the entries are small enough for exact
accumulation.  `power` and `jordanize_nilpotent` multiply by one fixed factor
again and again, so they prepare it (integer columns or rows, or an int64
array) once per call (`_right_factor`, `_vector_map`).

Rank sequences have one kernel, `_rank_chain`: the ranks of B_1 = B and
B_(s+1) = B_s[:, k:] B[k:, :].  At k = 0 these are the powers of B
(`rank_sequence`); at a pattern's k they are the corner products of
`structure.corner_rank_sequence`.  It multiplies bit rows over GF(2), int64
or Python ints mod p, and over QQ the matrix scaled once to integers.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import numpy as np

from .fields import Element, FieldSpec, QQ
from .partitions import Partition, conjugate, offsets

__all__ = [
    "ExactMatrix",
    "NotNilpotent",
    "jordan_matrix",
    "jordanize_nilpotent",
]


class NotNilpotent(ValueError):
    """Raised when an operation requires a nilpotent matrix."""


def _np_safe(field: FieldSpec, n: int) -> bool:
    """True if GF(p) products of inner size n accumulate exactly in int64."""
    return n * (field.order - 1) ** 2 < 2**62


class ExactMatrix:
    """Immutable dense matrix over an exact field."""

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field: FieldSpec, rows, *, ncols: int | None = None, _canon: bool = True):
        if _canon:
            rows = tuple(tuple(field.canon(x) for x in r) for r in rows)
        else:
            rows = tuple(tuple(r) for r in rows)
        if rows:
            ncols = len(rows[0])
        elif ncols is None:
            ncols = 0
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("ExactMatrix is immutable")

    # -- construction ----------------------------------------------------

    @classmethod
    def zeros(cls, field: FieldSpec, nrows: int, ncols: int) -> "ExactMatrix":
        z = field.zero()
        return cls(field, [[z] * ncols for _ in range(nrows)], ncols=ncols, _canon=False)

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "ExactMatrix":
        z, o = field.zero(), field.one()
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)], _canon=False)

    # -- basics -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactMatrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.ncols == other.ncols
        )

    def __hash__(self) -> int:
        return hash((self.field, self.ncols, self.rows))

    def __repr__(self) -> str:
        return f"ExactMatrix({self.field.name}, {self.nrows}x{self.ncols})"

    def entry(self, i: int, j: int) -> Element:
        return self.rows[i][j]

    def tolists(self) -> list[list[Element]]:
        return [list(r) for r in self.rows]

    def is_zero(self) -> bool:
        z = self.field.zero()
        return all(x == z for r in self.rows for x in r)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            self.field,
            [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
            ncols=self.nrows,
            _canon=False,
        )

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "ExactMatrix":
        return ExactMatrix(
            self.field, [r[c0:c1] for r in self.rows[r0:r1]], ncols=max(c1 - c0, 0), _canon=False
        )

    # -- arithmetic ---------------------------------------------------------

    def _require_same_field(self, other: "ExactMatrix") -> None:
        if self.field != other.field:
            raise ValueError(f"field mismatch: {self.field.name} vs {other.field.name}")

    def mul(self, other: "ExactMatrix") -> "ExactMatrix":
        """Exact product; raises on dimension or field mismatch."""
        self._require_same_field(other)
        if self.ncols != other.nrows:
            raise ValueError(
                f"dimension mismatch in mul: {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        if self.nrows == 0 or other.ncols == 0 or self.ncols == 0:
            return ExactMatrix.zeros(self.field, self.nrows, other.ncols)
        return other._right_factor()(self)

    def _right_factor(self) -> Callable[[ExactMatrix], ExactMatrix]:
        """x -> x * self for nonempty x with self.nrows columns; self's columns are
        scaled to integers once, for every product the function takes."""
        f = self.field
        if f.is_finite and _np_safe(f, self.nrows):
            b = np.array(self.rows, dtype=np.int64)

            def times(x: ExactMatrix) -> ExactMatrix:
                c = (np.array(x.rows, dtype=np.int64) @ b) % f.order
                return ExactMatrix(f, c.tolist(), _canon=False)

            return times
        ib, db = _integer_vectors(zip(*self.rows), f)

        def times(x: ExactMatrix) -> ExactMatrix:
            ia, da = _integer_vectors(x.rows, f)
            dots = [[sum(map(operator.mul, ra, cb)) for cb in ib] for ra in ia]
            return ExactMatrix(f, [_from_integers(r, f, di, db) for r, di in zip(dots, da)], _canon=False)

        return times

    def power(self, e: int) -> "ExactMatrix":
        """Iterated multiplication with early exit once a power hits zero."""
        if not self.is_square():
            raise ValueError("power of a non-square matrix")
        if e < 0:
            raise ValueError("negative power")
        acc = ExactMatrix.identity(self.field, self.nrows)
        times = self._right_factor()
        for _ in range(e):
            if acc.is_zero():
                return acc
            acc = times(acc)
        return acc

    def matvec(self, v: list[Element]) -> list[Element]:
        return self._vector_map()(v)

    def _vector_map(self) -> Callable[[list[Element]], list[Element]]:
        """v -> self * v; self's rows are scaled to integers once, for every vector."""
        f = self.field
        ia, da = _integer_vectors(self.rows, f)

        def apply(v: list[Element]) -> list[Element]:
            (iv,), (dv,) = _integer_vectors([v], f)
            return _from_integers([sum(map(operator.mul, ra, iv)) for ra in ia], f, dv, da)

        return apply

    # -- elimination -------------------------------------------------------

    def _echelon(self, reduced: bool = False) -> tuple[list[int], list[list[Element]]]:
        """Pivot columns (leftmost column / topmost row pivoting) and, with
        reduced=True, the nonzero rows of the reduced row echelon form."""
        if self.field.p == 2:
            pivots, bits = _echelon_gf2(_pack_gf2(self.rows), reduced)
            return pivots, _unpack_gf2(bits, self.ncols)
        return _echelon_field(self.rows, self.field, reduced)

    def rank(self) -> int:
        """Rank by exact Gaussian elimination."""
        return len(self._echelon()[0])

    def column_prefix_ranks(self) -> list[int]:
        """[rk(A[:, :i]) for i = 0..ncols] from one echelon: the pivots before column i."""
        pivots = set(self._echelon()[0])
        out = [0]
        for c in range(self.ncols):
            out.append(out[-1] + (c in pivots))
        return out

    def kernel_basis(self) -> list[list[Element]]:
        """Deterministic basis of the right kernel (free columns set to one)."""
        f = self.field
        pivots, rows = self._echelon(reduced=True)
        pivot_set = set(pivots)
        basis = []
        one, zero = f.one(), f.zero()
        for free in range(self.ncols):
            if free in pivot_set:
                continue
            v = [zero] * self.ncols
            v[free] = one
            for r, pc in enumerate(pivots):
                v[pc] = f.neg(rows[r][free])
            basis.append(v)
        return basis

    def inverse(self) -> "ExactMatrix":
        if not self.is_square():
            raise ValueError("inverse of a non-square matrix")
        f = self.field
        n = self.nrows
        aug = ExactMatrix(
            f,
            [list(r) + [f.one() if i == j else f.zero() for j in range(n)] for i, r in enumerate(self.rows)],
            _canon=False,
        )
        # [A | I] has the pivots 0..n-1 exactly when A is invertible; its
        # reduced form is then [I | A^-1]
        pivots, rows = aug._echelon(reduced=True)
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return ExactMatrix(f, [r[n:] for r in rows], _canon=False)

    def rank_sequence(self) -> list[int]:
        """Ranks [rk(A^0), rk(A^1), ...] down to the first zero power.

        Raises NotNilpotent if A^n is still nonzero.
        """
        if not self.is_square():
            raise ValueError("rank sequence of a non-square matrix")
        return _rank_chain(self.field, self.rows, 0, self.nrows)

    def is_nilpotent(self) -> bool:
        """A^(2^k) == 0 for the least 2^k >= n, by repeated squaring."""
        if not self.is_square():
            return False
        power, e = self, 1
        while e < self.nrows and not power.is_zero():
            power, e = power.mul(power), 2 * e
        return power.is_zero()

    def nilpotent_shape(self) -> Partition:
        """Jordan shape of a nilpotent matrix via its Weyr (rank difference) sequence."""
        return _shape_of_ranks(self.rank_sequence())

    # -- JSON ---------------------------------------------------------------

    def to_json_dict(self) -> dict:
        f = self.field
        to_json = int if f.is_finite else f.entry_to_json
        return {"field": f.name, "rows": [list(map(to_json, r)) for r in self.rows]}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ExactMatrix":
        """Decode {"field": name, "rows": [[entry, ...], ...]}; raises ValueError on any other shape."""
        from .fields import parse_field

        if not isinstance(doc, dict):
            raise ValueError(f"matrix JSON must be an object, got {type(doc).__name__}")
        rows = doc.get("rows")
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise ValueError("matrix JSON needs 'rows' as a list of row lists")
        field = parse_field(doc.get("field"))
        if field.is_finite and all(type(v) is int for r in rows for v in r):  # no bools
            p = field.order
            return cls(field, [[v % p for v in r] for r in rows], _canon=False)
        return cls(field, [[field.entry_from_json(v) for v in r] for r in rows], _canon=False)


# -- products on Python ints (see the module docstring) ----------------------


def _integer_vectors(vectors, f: FieldSpec) -> tuple[list[list[int]], list[int]]:
    """(w, d) with v == w / d entrywise for each vector v; over GF(p), (v, 1)."""
    vectors = list(vectors)
    if f.is_finite:
        return vectors, [1] * len(vectors)
    ints, scales = [], []
    for v in vectors:
        d = math.lcm(*(x.denominator for x in v))
        ints.append([x.numerator * (d // x.denominator) for x in v])
        scales.append(d)
    return ints, scales


def _from_integers(dots: list[int], f: FieldSpec, d: int, scales: list[int]) -> list[Element]:
    """Field elements dots[j] / (d * scales[j])."""
    if f.is_finite:
        p = f.order
        return [x % p for x in dots]
    return [Fraction(x, d * e) if x and d * e != 1 else Fraction(x) for x, e in zip(dots, scales)]


# -- elimination kernels ----------------------------------------------------
#
# One echelon routine per representation: GF(2) rows bit-packed into one int
# each (LSB = column 0), GF(p) and QQ rows on Python ints.  Both feed the
# rows in order into a table keyed by the leading column of each reduced row,
# so the keys are the pivot columns of leftmost-column pivoting (column c is
# a pivot iff it is not in the span of the columns before it) and the rank is
# the table's size.  Only callers that need the reduced row echelon form pay
# for the back-substitution.


def _pack_gf2(rows) -> list[int]:
    return [sum(1 << j for j, v in enumerate(row) if v) for row in rows]


def _unpack_gf2(bits: list[int], ncols: int) -> list[list[int]]:
    return [[(b >> j) & 1 for j in range(ncols)] for b in bits]


def _echelon_gf2(bits: list[int], reduced: bool = False) -> tuple[list[int], list[int]]:
    """Pivot columns of bit rows and, with reduced=True, the RREF rows (one per pivot)."""
    table: dict[int, int] = {}
    for b in bits:
        while b:
            c = (b & -b).bit_length() - 1
            other = table.get(c)
            if other is None:
                table[c] = b
                break
            b ^= other
    pivots = sorted(table)
    if not reduced:
        return pivots, []
    for i in range(len(pivots) - 2, -1, -1):
        row = table[pivots[i]]
        for d in pivots[i + 1 :]:
            if (row >> d) & 1:
                row ^= table[d]
        table[pivots[i]] = row
    return pivots, [table[c] for c in pivots]


def _echelon_field(rows, f: FieldSpec, reduced: bool = False) -> tuple[list[int], list[list[Element]]]:
    """Pivot columns of rows over GF(p) or QQ and, with reduced=True, the RREF rows.

    Over GF(p) table rows are scaled to a leading one: one field inverse per
    pivot.  Over QQ rows (Fractions or ints) are scaled to primitive integer
    vectors, and w[c] v - v[c] w, divided by the gcd of its entries, clears
    column c of v against table row w; Fractions are built for the RREF rows only.
    """
    p = f.order if f.is_finite else None
    if p is None:
        rows = map(_primitive, _integer_vectors(rows, f)[0])

        def eliminate(v, w, c):  # w[c] v - v[c] w, made primitive
            a, b = w[c], v[c]
            return _primitive([a * x - b * y for x, y in zip(v, w)])

    else:

        def eliminate(v, w, c):  # v - v[c] w, w with a leading one at c
            a = v[c]
            return [(x - a * y) % p if y else x for x, y in zip(v, w)]

    table: dict[int, list[Element]] = {}
    for v in rows:
        c = _lead(v, 0)
        while c is not None:
            other = table.get(c)
            if other is None:
                if p is not None:
                    inv = f.inv(v[c])
                    v = [x * inv % p for x in v]
                table[c] = v
                break
            v = eliminate(v, other, c)
            c = _lead(v, c + 1)
    pivots = sorted(table)
    if not reduced:
        return pivots, []
    for i in range(len(pivots) - 2, -1, -1):
        row = table[pivots[i]]
        for d in pivots[i + 1 :]:
            if row[d]:
                row = eliminate(row, table[d], d)
        table[pivots[i]] = row
    if p is None:
        return pivots, [[Fraction(x, table[c][c]) for x in table[c]] for c in pivots]
    return pivots, [table[c] for c in pivots]


def _primitive(v: list[int]) -> list[int]:
    """v divided by the gcd of its entries (v itself if that is 0 or 1)."""
    g = math.gcd(*v)
    return [x // g for x in v] if g > 1 else v


def _lead(v, start: int) -> int | None:
    """Index of the first nonzero entry of v at or after start."""
    for i in range(start, len(v)):
        if v[i]:
            return i
    return None


def _mul_gf2(a_bits: list[int], b_bits: list[int]) -> list[int]:
    out = []
    for ab in a_bits:
        acc = 0
        while ab:
            low = ab & -ab
            acc ^= b_bits[low.bit_length() - 1]
            ab ^= low
        out.append(acc)
    return out


def _rank_chain(f: FieldSpec, b, k: int, n: int) -> list[int]:
    """[n, rk(B_1), rk(B_2), ...] down to the first zero rank, for the square rows b.

    B_1 = B and B_(s+1) = B_s[:, k:] B[k:, :]; with k = 0 these are the powers
    of B.  GF(2) rows are bit-packed and masked to the columns from k on,
    GF(p) products are int64 while exact, else Python ints; a rational B =
    W/d is scaled to integers once (B_s and W_s have one rank).  Raises
    NotNilpotent if B_n is nonzero.
    """
    p = f.p
    if p == 2:
        b, ones = _pack_gf2(b), -1 << k

        def times(x):
            return _mul_gf2([r & ones for r in x], b)

    elif p is not None and _np_safe(f, len(b)):
        tail = np.array(b[k:], dtype=np.int64).reshape(len(b) - k, len(b))

        def times(x):
            return (np.array(x, dtype=np.int64)[:, k:] @ tail % p).tolist()

    else:
        if p is None:
            d = math.lcm(*(x.denominator for r in b for x in r))
            b = [[x.numerator * (d // x.denominator) for x in r] for r in b]
        cols = list(zip(*b[k:]))

        def times(x):
            dots = [[sum(map(operator.mul, r[k:], c)) for c in cols] for r in x]
            return [[v % p for v in r] for r in dots] if p else dots

    seq, power = [n], b
    while seq[-1]:
        if len(seq) > n:
            raise NotNilpotent("matrix is not nilpotent")
        if len(seq) > 1:
            power = times(power)
        seq.append(len((_echelon_gf2(power) if p == 2 else _echelon_field(power, f))[0]))
    return seq


def _shape_of_ranks(seq) -> Partition:
    """Jordan shape from a rank row [rk(A^0), rk(A^1), ...], zero-padded or not:
    the conjugate of its positive first differences (the Weyr sequence)."""
    return conjugate(Partition([a - b for a, b in zip(seq, seq[1:]) if a > b]))


# -- Jordan machinery ---------------------------------------------------------


@lru_cache(maxsize=1024)
def jordan_matrix(shape: Partition, field: FieldSpec = QQ) -> ExactMatrix:
    """Block-diagonal upper-triangular nilpotent Jordan matrix with the given block sizes."""
    n = shape.n
    m = [[field.zero()] * n for _ in range(n)]
    one = field.one()
    for off, part in zip(offsets(shape), shape):
        for i in range(part - 1):
            m[off + i][off + i + 1] = one
    return ExactMatrix(field, m, _canon=False)


def jordanize_nilpotent(m: ExactMatrix) -> tuple[ExactMatrix, Partition]:
    """Jordan basis of a nilpotent matrix via the standard kernel-chain construction.

    Returns (P, shape) with P invertible and P^-1 * m * P == jordan_matrix(shape).
    """
    if not m.is_square():
        raise ValueError("jordanize expects a square matrix")
    n = m.nrows
    f = m.field
    powers = [ExactMatrix.identity(f, n)]
    times = m._right_factor()
    while not powers[-1].is_zero():
        if len(powers) > n:
            raise NotNilpotent("matrix is not nilpotent")
        powers.append(times(powers[-1]))
    q = len(powers) - 1  # nilpotency index
    kernels = [[]] + [powers[i].kernel_basis() for i in range(1, q + 1)]

    # a level's new chain heads are the vectors of K_level outside the span of
    # K_(level-1), the images of the longer chains, and the heads chosen before
    # them: the pivot columns of [K_(level-1) | images | K_level]; a head h of
    # length L keeps its orbit [h, m h, ..., m^(L-1) h], one prepared step at a time
    step = m._vector_map()
    orbits: list[list[list[Element]]] = []
    for level in range(q, 0, -1):
        cols = kernels[level - 1] + [orbit[len(orbit) - level] for orbit in orbits]
        start = len(cols)
        cols += kernels[level]
        pivots, _ = ExactMatrix(f, list(zip(*cols)), ncols=len(cols), _canon=False)._echelon()
        for c in pivots:
            if c >= start:
                orbits.append([kernels[level][c - start]])
                for _ in range(level - 1):
                    orbits[-1].append(step(orbits[-1][-1]))

    chains = sorted((orbit[::-1] for orbit in orbits), key=len, reverse=True)

    cols = [v for chain in chains for v in chain]
    p_mat = ExactMatrix(f, [[cols[j][i] for j in range(n)] for i in range(n)], _canon=False)
    return p_mat, Partition(len(c) for c in chains)

"""Exact matrices over a finite field: rank, determinant, linear solve.

Entries are canonical field elements held in int64 numpy arrays, and the
constructor validates them as `Field.asarray` does; all row reduction is
exact field arithmetic (no floating point, no pivoting heuristics needed
since any nonzero pivot is exact).  Each elimination step leaves its
pivot on the diagonal, divides the entries right of it by it, and updates
only the columns right of the pivot column in the rows below, zero rows
included, with one broadcast `Field.mul_arr`; the zeros below the pivot
are written, not computed.  So a step counts one multiplication per
product of two nonzero entries right of its pivot, and the inverse.  The
elimination returns its pivot columns, off which rank, solvability and
the PGZ scan's nonsingular Hankel matrices are read, and the sign of its
row swaps, which only `FeMat.det` reads: it multiplies the sign by the
diagonal.  A unique solution is back-substituted with `Field.mul` and
`Field.sub`, which count one product per term whose two factors are
nonzero.  Solving reports its outcome as a value (unique / no solution /
underdetermined) rather than by raising, because singular systems are
an expected, meaningful result for the decoders built on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .gf import Field


class SolveStatus(Enum):
    UNIQUE = "unique"
    NO_SOLUTION = "no_solution"
    UNDERDETERMINED = "underdetermined"


@dataclass(frozen=True)
class SolveResult:
    status: SolveStatus
    solution: tuple[int, ...] | None = None


def _eliminate(f: Field, a: np.ndarray, pivot_cols: int) -> tuple[list[int], int]:
    """Row-reduce `a` in place to echelon form, choosing pivots in the
    first `pivot_cols` columns only.  The i-th pivot stays in row i; the
    entries right of it are divided by it, and those below it are zero.
    Returns the pivot columns and the sign of the row swaps, 1 or -1 in
    the field.
    """
    rows = a.shape[0]
    pivots: list[int] = []
    sign = 1
    r = 0
    for c in range(pivot_cols):
        if r == rows:
            break
        nz = a[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
            sign = f.neg(sign)
        piv = int(a[r, c])
        if piv != 1:
            a[r, c + 1:] = f.mul_arr(a[r, c + 1:], f.inv(piv))
        a[r + 1:, c + 1:] = f.sub_arr(a[r + 1:, c + 1:],
                                      f.mul_arr(a[r + 1:, c, None], a[r, c + 1:]))
        a[r + 1:, c] = 0
        pivots.append(c)
        r += 1
    return pivots, sign


class FeMat:
    """A rows x cols matrix of field elements."""

    __slots__ = ("field", "_a")

    def __init__(self, field: Field, rows: Iterable[Iterable[int]]):
        rows = [list(r) for r in rows]
        cols = len(rows[0]) if rows else 0
        if any(len(r) != cols for r in rows):
            raise ValueError("matrix rows must all have the same length")
        self.field = field
        self._a = field.asarray([x for r in rows for x in r]).reshape(len(rows), cols)

    @classmethod
    def _wrap(cls, field: Field, arr: np.ndarray) -> "FeMat":
        m = cls.__new__(cls)
        m.field = field
        m._a = arr
        return m

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape  # type: ignore[return-value]

    def to_lists(self) -> list[list[int]]:
        return [[int(x) for x in row] for row in self._a]

    def __getitem__(self, ij: tuple[int, int]) -> int:
        return int(self._a[ij])

    @property
    def T(self) -> "FeMat":
        return FeMat._wrap(self.field, self._a.T.copy())

    def is_zero(self) -> bool:
        return not self._a.any()

    def rank(self) -> int:
        work = self._a.copy()
        pivots, _ = _eliminate(self.field, work, work.shape[1])
        return len(pivots)

    def det(self) -> int:
        n = self.rows
        if n != self.cols:
            raise ValueError(f"determinant requires a square matrix, got {self.shape}")
        work = self._a.copy()
        pivots, det = _eliminate(self.field, work, n)
        if len(pivots) < n:
            return 0
        for i in range(n):
            det = self.field.mul(det, int(work[i, i]))
        return det

    def solve(self, b: Sequence[int]) -> SolveResult:
        """Solve self @ x = b, classifying the outcome."""
        f = self.field
        if len(b) != self.rows:
            raise ValueError(f"rhs length {len(b)} does not match {self.rows} rows")
        ncols = self.cols
        aug = np.concatenate([self._a, f.asarray(b)[:, None]], axis=1)
        pivots, _ = _eliminate(f, aug, ncols)
        rank = len(pivots)
        if aug[rank:, ncols].any():
            return SolveResult(SolveStatus.NO_SOLUTION)
        if rank < ncols:
            return SolveResult(SolveStatus.UNDERDETERMINED)
        # Back-substitution on rows 0, ..., ncols - 1, divided right of their
        # pivots: x_c = y_c - sum_(j>c) U_cj x_j.  The pivots are not read.
        u = aug[:ncols].tolist()
        x = [0] * ncols
        for c in range(ncols - 1, -1, -1):
            acc = u[c][ncols]
            for j in range(c + 1, ncols):
                acc = f.sub(acc, f.mul(u[c][j], x[j]))
            x[c] = acc
        return SolveResult(SolveStatus.UNIQUE, tuple(x))

    def __matmul__(self, other: "FeMat") -> "FeMat":
        if self.field != other.field:
            raise ValueError("matrices belong to different fields")
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        f = self.field
        a, b = self._a, other._a
        out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
        for i in range(a.shape[0]):
            out[i] = f.sum_arr(f.mul_arr(a[i][:, None], b), axis=0)
        return FeMat._wrap(f, out)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FeMat) and self.field == other.field
                and self._a.shape == other._a.shape
                and bool((self._a == other._a).all()))

    def __repr__(self) -> str:
        return f"FeMat({self.field!r}, {self.to_lists()!r})"


def vandermonde(field: Field, points: Sequence[int], nrows: int) -> FeMat:
    """The nrows x len(points) matrix with entry (i, j) = points[j] ** i."""
    pts = field.asarray(points)
    out = np.zeros((nrows, pts.size), dtype=np.int64)
    out[:1] = 1
    for i in range(1, nrows):
        out[i] = field.mul_arr(out[i - 1], pts)
    return FeMat._wrap(field, out)

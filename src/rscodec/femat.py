"""Exact matrices over a finite field: rank, determinant, linear solve.

Entries are canonical field elements held in int64 numpy arrays, and the
constructor validates them as `Field.asarray` does; all row reduction is
exact field arithmetic (no floating point, no pivoting heuristics needed
since any nonzero pivot is exact).  Each elimination step normalises the
pivot row and clears the whole block below (or above) it with one
broadcast `Field.mul_arr`, zero rows included, so a step counts one
multiplication per product of two nonzero entries.  Solving reports its
outcome as a value (unique / no solution / underdetermined) rather than
by raising, because singular systems are an expected, meaningful result
for the decoders built on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .gf import Field, add_mul_ops


class SolveStatus(Enum):
    UNIQUE = "unique"
    NO_SOLUTION = "no_solution"
    UNDERDETERMINED = "underdetermined"


@dataclass(frozen=True)
class SolveResult:
    status: SolveStatus
    solution: tuple[int, ...] | None = None

    def is_unique(self) -> bool:
        return self.status is SolveStatus.UNIQUE


def _eliminate(f: Field, a: np.ndarray, pivot_cols: int) -> tuple[list[tuple[int, int]], int]:
    """Row-reduce `a` in place, choosing pivots in the first `pivot_cols`
    columns only.  Pivot rows are normalized to leading 1 and cleared below.
    Returns the pivot (row, col) list and the determinant factor: the field
    product of pre-normalization pivots with the swap sign folded in.
    """
    rows = a.shape[0]
    pivots: list[tuple[int, int]] = []
    det = 1
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
            det = f.neg(det)
        piv = int(a[r, c])
        det = f.mul(det, piv)
        if piv != 1:
            a[r, c:] = f.mul_arr(a[r, c:], f.inv(piv))
        a[r + 1:, c:] = f.sub_arr(a[r + 1:, c:], f.mul_arr(a[r + 1:, c, None], a[r, c:]))
        pivots.append((r, c))
        r += 1
    return pivots, det


def _back_eliminate(f: Field, a: np.ndarray, pivots: list[tuple[int, int]]) -> None:
    # Clear entries above each (already normalized) pivot.
    for r, c in reversed(pivots):
        a[:r, c:] = f.sub_arr(a[:r, c:], f.mul_arr(a[:r, c, None], a[r, c:]))


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

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "FeMat":
        return cls._wrap(field, np.zeros((rows, cols), dtype=np.int64))

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

    def row(self, i: int) -> tuple[int, ...]:
        return tuple(int(x) for x in self._a[i])

    def __getitem__(self, ij: tuple[int, int]) -> int:
        return int(self._a[ij])

    def transpose(self) -> "FeMat":
        return FeMat._wrap(self.field, self._a.T.copy())

    @property
    def T(self) -> "FeMat":
        return self.transpose()

    def is_zero(self) -> bool:
        return not self._a.any()

    def rank(self) -> int:
        if self._a.size == 0:
            return 0
        work = self._a.copy()
        pivots, _ = _eliminate(self.field, work, work.shape[1])
        return len(pivots)

    def det(self) -> int:
        n = self.rows
        if n != self.cols:
            raise ValueError(f"determinant requires a square matrix, got {self.shape}")
        if n == 0:
            return 1  # empty product
        work = self._a.copy()
        pivots, det = _eliminate(self.field, work, n)
        return det if len(pivots) == n else 0

    def solve(self, b: Sequence[int]) -> SolveResult:
        """Solve self @ x = b, classifying the outcome."""
        f = self.field
        if len(b) != self.rows:
            raise ValueError(f"rhs length {len(b)} does not match {self.rows} rows")
        ncols = self.cols
        aug = np.concatenate(
            [self._a, np.asarray([f.check(v) for v in b], dtype=np.int64)[:, None]],
            axis=1)
        pivots, _ = _eliminate(f, aug, ncols)
        rank = len(pivots)
        if aug[rank:, ncols].any():
            return SolveResult(SolveStatus.NO_SOLUTION)
        if rank < ncols:
            return SolveResult(SolveStatus.UNDERDETERMINED)
        _back_eliminate(f, aug, pivots)
        x = [0] * ncols
        for r, c in pivots:
            x[c] = int(aug[r, ncols])
        return SolveResult(SolveStatus.UNIQUE, tuple(x))

    def __matmul__(self, other: "FeMat") -> "FeMat":
        if self.field != other.field:
            raise ValueError("matrices belong to different fields")
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        f = self.field
        a, b = self._a, other._a
        if f.kind == "prime":
            out = (a @ b) % f.p
            add_mul_ops(int(np.count_nonzero(a, axis=0) @ np.count_nonzero(b, axis=1)))
        else:
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
    if nrows > 0:
        out[0] = 1
        for i in range(1, nrows):
            out[i] = field.mul_arr(out[i - 1], pts)
    return FeMat._wrap(field, out)

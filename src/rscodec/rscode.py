"""Reed-Solomon code parameters and the encoding/interpolation maps.

A code RS(q, alpha, k) evaluates message polynomials of degree < k at the
points alpha^0, alpha^1, ..., alpha^(n-1), where n = q - 1 and alpha is a
primitive element, so every nonzero field element is an evaluation point.
The code is maximum distance separable with minimum distance n - k + 1
and corrects tau = floor((n - k) / 2) errors.

Four standard descriptions of the same code agree here.  The codec
computes with evaluations only (a word's syndromes are H times it, formed
as evaluations); the matrices G and H and `lagrange_basis` are kept for
the acceptance gate's identities between the four (criterion C4):

* image of the generator matrix G[i][j] = alpha^(i*j);
* kernel of the parity-check matrix H[i][j] = alpha^((i+1)*j);
* words whose interpolation polynomial has degree < k;
* evaluations (m(alpha^0), ..., m(alpha^(n-1))) of messages m.

Interpolation through all n points never solves a linear system: for any
word u, the unique polynomial f of degree < n with f(alpha^(j-1)) = u_(j-1)
has coefficients f_i = -u(alpha^(n-i)), a single pass of n evaluations.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .femat import FeMat, vandermonde
from .gf import Field
from .poly import Poly


class RSCode:
    """Parameters of RS(q, alpha, k) and its maps."""

    __slots__ = ("field", "k", "n", "d", "tau", "_sizes")

    def __init__(self, field: Field, k: int):
        n = field.q - 1
        if not isinstance(k, int) or not 1 <= k < n:
            raise ValueError(f"dimension k={k!r} must satisfy 1 <= k < n = {n}")
        self.field = field
        self.k = k
        self.n = n
        self.d = n - k + 1
        self.tau = (n - k) // 2
        self._sizes = {"word": (n, "n"), "message": (k, "k"),
                       "syndrome vector": (n - k, "n - k")}

    # ----- validation -----------------------------------------------------------
    # One validator for every input kind, returning the int64 array (one numpy
    # pass); a decoder validates its word once and keeps that array to the
    # outcome.

    def _checked(self, values: Sequence[int], kind: str = "word") -> np.ndarray:
        """A word (length n), message (k) or syndrome vector (n - k) as an
        int64 array, after one length check and one element check."""
        size, name = self._sizes[kind]
        if len(values) != size:
            raise ValueError(f"{kind} length {len(values)} != {name} = {size}")
        return self.field.asarray(values)

    def _checked_rows(self, rows: Sequence[Sequence[int]] | np.ndarray,
                      kind: str = "word") -> np.ndarray:
        """B words (kind "word") or messages ("message"), the rows of a 2-D
        array or of a nested list or tuple, as a (B, n) or (B, k) int64
        array, after one element check; `[]` is zero rows."""
        size, name = self._sizes[kind]
        rows = self.field.asarray(np.asarray(rows))
        if rows.shape[1:] != (size,) and rows.shape != (0,):
            raise ValueError(f"{kind} rows shape {rows.shape} is not (B, {name} = {size})")
        return rows.reshape(-1, size)

    # ----- structure matrices, formed on each call ---------------------------------

    def generator_matrix(self) -> FeMat:
        """k x n matrix with entry (i, j) = alpha^(i*j)."""
        return vandermonde(self.field, self.field.exp, self.k)

    def parity_check_matrix(self) -> FeMat:
        """(n-k) x n matrix with entry (i, j) = alpha^((i+1)*j)."""
        v = vandermonde(self.field, self.field.exp, self.n - self.k + 1)
        return FeMat._wrap(self.field, v._a[1:].copy())

    # ----- the four maps ----------------------------------------------------------

    def encode(self, message: Sequence[int]) -> tuple[int, ...]:
        """Evaluate the message polynomial at alpha^0, ..., alpha^(n-1)."""
        msg = self._checked(message, "message")
        return tuple(self.field.eval_at_powers(msg, first=0, count=self.n).tolist())

    def encode_blocks(self, messages: Sequence[Sequence[int]] | np.ndarray) -> np.ndarray:
        """Encode B messages, the rows of a (B, k) array or of a nested list
        or tuple (`[]` is zero rows), into a (B, n) array."""
        msgs = self._checked_rows(messages, "message")
        return self.field.eval_at_powers(msgs, first=0, count=self.n)

    def word_evaluations(self, word: Sequence[int]) -> np.ndarray:
        """u(alpha^1), ..., u(alpha^n) for the word's polynomial u.

        The first n-k entries are the syndromes and the full vector
        determines the interpolation polynomial, so decoders evaluate once
        and reuse.
        """
        return self.field.eval_at_powers(self._checked(word), first=1, count=self.n)

    def syndromes(self, word: Sequence[int]) -> tuple[int, ...]:
        """u(alpha^1), ..., u(alpha^(n-k)); all zero iff word is a codeword."""
        vals = self.field.eval_at_powers(self._checked(word), first=1,
                                         count=self.n - self.k)
        return tuple(vals.tolist())

    def is_codeword(self, word: Sequence[int]) -> bool:
        return not any(self.syndromes(word))

    def interpolate(self, word: Sequence[int]) -> Poly:
        """The unique polynomial of degree < n through (alpha^j, word[j])."""
        return Poly(self.field, self.low_from_evaluations(self.word_evaluations(word)).tolist())

    def low_from_evaluations(self, tail: np.ndarray) -> np.ndarray:
        """f_0, ..., f_(m-1) as an int64 array, from the last m word
        evaluations u(alpha^(n-m+1)), ..., u(alpha^n) along the last axis:
        m = k gives the message part, m = n the whole polynomial."""
        return self.field.neg_arr(tail[..., ::-1])

    def lagrange_basis(self, i: int) -> Poly:
        """The basis polynomial f_i with f_i(alpha^j) = 1 if j == i else 0.

        Closed form: f_i = -(alpha^i x^(n-1) + alpha^(2i) x^(n-2) + ...
        + alpha^(n*i)), no product expansion required.
        """
        if not 0 <= i < self.n:
            raise ValueError(f"basis index {i} out of range [0, {self.n})")
        f = self.field
        coeffs = [f.neg(f.pow(f.alpha, (i * (self.n - d)) % self.n))
                  for d in range(self.n)]
        return Poly(f, coeffs)

    def __repr__(self) -> str:
        return f"RSCode(q={self.field.q}, alpha={self.field.alpha}, k={self.k})"

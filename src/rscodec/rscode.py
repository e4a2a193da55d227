"""Reed-Solomon code parameters and the encoding/interpolation maps.

A code RS(q, alpha, k) evaluates message polynomials of degree < k at the
points alpha^0, alpha^1, ..., alpha^(n-1), where n = q - 1 and alpha is a
primitive element, so every nonzero field element is an evaluation point.
The code is maximum distance separable with minimum distance n - k + 1
and corrects tau = floor((n - k) / 2) errors.

Four standard descriptions of the same code agree here and are kept
exposed because the decoders and tests exercise all of them:

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
    """Parameters of RS(q, alpha, k) plus cached structure matrices."""

    __slots__ = ("field", "k", "n", "d", "tau", "_gen", "_par")

    def __init__(self, field: Field, k: int):
        n = field.q - 1
        if not isinstance(k, int) or not 1 <= k < n:
            raise ValueError(f"dimension k={k!r} must satisfy 1 <= k < n = {n}")
        self.field = field
        self.k = k
        self.n = n
        self.d = n - k + 1
        self.tau = (n - k) // 2
        self._gen = None
        self._par = None

    # ----- validation -----------------------------------------------------------

    def check_word(self, word: Sequence[int]) -> tuple[int, ...]:
        if len(word) != self.n:
            raise ValueError(f"word length {len(word)} != n = {self.n}")
        return tuple(self.field.check(x) for x in word)

    def check_message(self, message: Sequence[int]) -> tuple[int, ...]:
        if len(message) != self.k:
            raise ValueError(f"message length {len(message)} != k = {self.k}")
        return tuple(self.field.check(x) for x in message)

    # ----- structure matrices (lazy, observationally immutable) ------------------

    def generator_matrix(self) -> FeMat:
        """k x n matrix with entry (i, j) = alpha^(i*j)."""
        if self._gen is None:
            self._gen = vandermonde(self.field, self.field.exp, self.k)
        return self._gen

    def parity_check_matrix(self) -> FeMat:
        """(n-k) x n matrix with entry (i, j) = alpha^((i+1)*j)."""
        if self._par is None:
            v = vandermonde(self.field, self.field.exp, self.n - self.k + 1)
            self._par = FeMat._wrap(self.field, v._a[1:].copy())
        return self._par

    # ----- the four maps ----------------------------------------------------------

    def encode(self, message: Sequence[int]) -> tuple[int, ...]:
        """Evaluate the message polynomial at alpha^0, ..., alpha^(n-1)."""
        message = self.check_message(message)
        vals = self.field.eval_at_powers(message, first=0, count=self.n)
        return tuple(int(x) for x in vals)

    def word_evaluations(self, word: Sequence[int]) -> np.ndarray:
        """u(alpha^1), ..., u(alpha^n) for the word's polynomial u.

        The first n-k entries are the syndromes and the full vector
        determines the interpolation polynomial, so decoders evaluate once
        and reuse.
        """
        word = self.check_word(word)
        return self.field.eval_at_powers(word, first=1, count=self.n)

    def syndromes(self, word: Sequence[int]) -> tuple[int, ...]:
        """u(alpha^1), ..., u(alpha^(n-k)); all zero iff word is a codeword."""
        word = self.check_word(word)
        vals = self.field.eval_at_powers(word, first=1, count=self.n - self.k)
        return tuple(int(x) for x in vals)

    def is_codeword(self, word: Sequence[int]) -> bool:
        return not any(self.syndromes(word))

    def interpolate(self, word: Sequence[int]) -> Poly:
        """The unique polynomial of degree < n through (alpha^j, word[j])."""
        return self.interpolate_from_evaluations(self.word_evaluations(word))

    def interpolate_from_evaluations(self, evals: np.ndarray) -> Poly:
        """Interpolation polynomial from precomputed word_evaluations()."""
        coeffs = self.field.neg_arr(evals[::-1])
        return Poly(self.field, coeffs.tolist())

    def low_coefficients(self, word: Sequence[int]) -> tuple[int, ...]:
        """f_0, ..., f_(k-1) of the word's interpolation polynomial, from
        the k evaluations f_i = -u(alpha^(n-i)); for a codeword, its
        message."""
        word = self.check_word(word)
        vals = self.field.eval_at_powers(word, first=self.n - self.k + 1, count=self.k)
        return tuple(self.field.neg_arr(vals[::-1]).tolist())

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

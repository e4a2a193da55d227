"""Dense univariate polynomials over a finite field.

Coefficients are stored low degree first as a tuple of canonical field
elements with trailing zeros trimmed, so equal polynomials compare equal;
the constructor accepts exactly the coefficients `Field.check` accepts.
The zero polynomial has an empty coefficient tuple and degree -infinity,
which keeps the degree law deg(a*b) = deg(a) + deg(b) true without a
special case.

Products and long division are schoolbook loops over `Field.mul`, `add`,
`sub` and `inv`, so a product counts one multiplication per pair of
nonzero coefficients.  No decoder calls them: the decoders work on
arrays, and these operations are the plain references the tests check
the decoders' kernels against.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .gf import Field


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Sequence[int] = ()):
        # Plain ints are range-checked in one pass; anything else goes
        # through `check`, which names the first value it rejects.
        if (set(map(type, coeffs)) <= {int} and min(coeffs, default=0) >= 0
                and max(coeffs, default=0) < field.q):
            coeffs = tuple(coeffs)
        else:
            coeffs = tuple(map(field.check, coeffs))
        end = len(coeffs)
        while end > 0 and coeffs[end - 1] == 0:
            end -= 1
        self.field = field
        self.coeffs = coeffs[:end]

    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field: Field) -> "Poly":
        return cls(field, (1,))

    @property
    def degree(self) -> int | float:
        """Degree of the polynomial; -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else -math.inf

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check_field(self, other: "Poly") -> None:
        if self.field != other.field:
            raise ValueError("polynomials belong to different fields")

    def __add__(self, other: "Poly") -> "Poly":
        self._check_field(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = f.add(out[i], c)
        return Poly(f, out)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check_field(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        out = list(a) + [0] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] = f.sub(out[i], c)
        return Poly(f, out)

    def scale(self, s: int) -> "Poly":
        f = self.field
        if s == 0:
            return Poly.zero(f)
        return Poly(f, [f.mul(c, s) for c in self.coeffs])

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_field(other)
        f = self.field
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = f.add(out[i + j], f.mul(a, b))
        return Poly(f, out)

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._check_field(other)
        f = self.field
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return Poly.zero(f), self
        # Long division: the inverse of the lead, then per nonzero step one
        # product for the quotient coefficient and one per nonzero lower
        # divisor coefficient; the x^dd term of the remainder cancels exactly.
        rem = list(self.coeffs)
        *lower, lead = other.coeffs
        dd = len(lower)
        inv_lead = f.inv(lead)
        quot = [0] * (len(rem) - dd)
        for i in range(len(quot) - 1, -1, -1):
            c = quot[i] = f.mul(rem[i + dd], inv_lead)
            rem[i + dd] = 0
            for j, d in enumerate(lower):
                rem[i + j] = f.sub(rem[i + j], f.mul(c, d))
        return Poly(f, quot), Poly(f, rem)

    def __call__(self, x: int) -> int:
        """Evaluate by Horner's rule."""
        f = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, x), c)
        return acc

    def shifted(self, k: int) -> "Poly":
        """Multiply by x^k."""
        if self.is_zero():
            return self
        return Poly(self.field, (0,) * k + self.coeffs)

    def roots_nonzero(self) -> set[int]:
        """All nonzero field elements where the polynomial vanishes.

        A Chien search: one `eval_at_powers` over all q - 1 nonzero points
        alpha^i, after folding degree i onto i mod (q - 1), since
        x^(q-1) = 1 for nonzero x.
        """
        f = self.field
        n = f.q - 1
        coeffs = self.coeffs
        if len(coeffs) > n:
            folded = [0] * n
            for i, c in enumerate(coeffs):
                folded[i % n] = f.add(folded[i % n], c)
            coeffs = folded
        vals = f.eval_at_powers(coeffs, first=0, count=n)
        return {f.exp[i] for i in np.flatnonzero(vals == 0).tolist()}

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Poly(0)"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(f"{c}")
            elif i == 1:
                parts.append(f"{c}x" if c != 1 else "x")
            else:
                parts.append(f"{c}x^{i}" if c != 1 else f"x^{i}")
        return "Poly(" + " + ".join(parts) + ")"

"""Dense univariate polynomials over a finite field.

Coefficients are stored low degree first as a tuple of canonical field
elements with trailing zeros trimmed, so equal polynomials compare equal;
the constructor accepts exactly the coefficients `Field.check` accepts.
The zero polynomial has an empty coefficient tuple and degree -infinity,
which keeps the degree law deg(a*b) = deg(a) + deg(b) true without a
special case.

A product has one path at every size: in the log domain, one antilog
lookup and one counted field multiplication per pair of nonzero
coefficients.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .gf import Field, add_mul_ops


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
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(f)
        if len(a) < len(b):
            a, b = b, a
        # In the log domain: each nonzero b_i adds the copy of a's nonzero
        # terms scaled by b_i, alpha^(log b_i + log a_j) at degree i + j,
        # one product per nonzero pair.
        av = np.asarray(a, dtype=np.int64)
        idx = np.flatnonzero(av)
        a_logs = f._log_np[av[idx]]
        acc = np.zeros(len(a) + len(b) - 1, dtype=np.int64)
        prime = f.kind == "prime"
        nonzero_b = 0
        for i, y in enumerate(b):
            if y:
                nonzero_b += 1
                terms = f._exp2_np[a_logs + f.log[y]]
                if prime:
                    acc[i + idx] += terms
                else:
                    acc[i + idx] ^= terms
        if prime:
            acc %= f.p
        add_mul_ops(nonzero_b * idx.size)
        return Poly(f, acc.tolist())

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._check_field(other)
        f = self.field
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return Poly.zero(f), self
        # Long division in the log domain.  `terms` holds (j, log(d_j / lead))
        # for the nonzero lower divisor coefficients, so each step is one
        # lookup for the quotient coefficient c / lead and one per term for
        # rem -= (c / lead) * d_j; the x^dd term of rem cancels exactly.
        # Multiplications are counted as the scalar loop counts them: the
        # inverse of the lead, then 1 + (nonzero d_j) per nonzero step.
        rem = list(self.coeffs)
        den = other.coeffs
        dd = len(den) - 1
        n = f.q - 1
        exp2, log = f._exp2, f.log
        lead_log = log[den[-1]]
        inv_log = n - lead_log
        terms = [(j, (log[d] - lead_log) % n) for j, d in enumerate(den[:-1]) if d]
        prime, p = f.kind == "prime", f.p
        quot = [0] * (len(rem) - dd)
        steps = 0
        for i in range(len(rem) - dd - 1, -1, -1):
            c = rem[i + dd]
            if c == 0:
                continue
            steps += 1
            lc = log[c]
            quot[i] = exp2[lc + inv_log]
            rem[i + dd] = 0
            if prime:
                for j, dl in terms:
                    rem[i + j] = (rem[i + j] - exp2[lc + dl]) % p
            else:
                for j, dl in terms:
                    rem[i + j] ^= exp2[lc + dl]
        add_mul_ops(1 + steps * (len(terms) + 1))
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

"""Exact arithmetic in finite fields GF(q).

Two families are supported:

* prime fields GF(p) for primes 3 <= p <= 65521, elements represented as
  the canonical integers 0..p-1 with arithmetic mod p;
* binary extension fields GF(2^m) for 2 <= m <= 16, elements represented
  as the canonical integers 0..2^m-1 whose bits are the coefficients of a
  polynomial residue mod a degree-m irreducible reduction polynomial.

GF(2) itself is rejected: its multiplicative group is trivial and no
primitive element exists for the evaluation-point sequence used by codes
built on top of this module.

Every field eagerly builds antilog/log tables for its multiplicative
group (q <= 2^16, so the tables are always small), by doubling:
exp[2^s : 2^(s+1)] is exp[:2^s] times alpha^(2^s), one numpy table-free
product per step (a * b mod p, or shift-and-xor over m bits).  Beside the
public antilog table `exp` (length q - 1) and discrete-log table `log`
(length q, log 0 = -1) it keeps a private doubled copy of exp,
exp2[i] = alpha^i for 0 <= i < 2(q - 1), so a product or quotient is one
lookup at a sum of two logs, log a + log b or log a - log b + (q - 1),
with no reduction mod q - 1.  The numpy copy of exp2 has a zero tail up
to index 4(q - 1), and the numpy log table maps 0 to the sentinel
2(q - 1), so exp2[log x + log y] is x * y for all x and y, zeros
included: `mul_arr`, the one elementwise product kernel, is a single
gather on both field kinds with no zero mask (at most 2 MiB for
q = 2^16).  The direct sum below gathers from a copy of it in the
narrowest unsigned dtype that holds q - 1 (uint8 up to GF(256), uint16
above).  Scalar operations are plain Python ints; bulk operations are
exact numpy integer kernels used by the matrix and codec layers.  All
arithmetic is exact, never floating point.

Element validation (`check` for one value, `asarray` for a sequence)
accepts what `operator.index` accepts (Python ints, bools included,
numpy integer scalars and 0-d integer arrays, any class with
`__index__`) in [0, q).  `asarray` packs a list or tuple with
`array.array("q")`, which takes the same values within int64, and
range-checks it, as any integer array, with one reduction: the maximum
of its int64 values viewed as uint64, where a negative value is above
every q.  It falls back to `check`, element by element, for anything
else, so both accept the same values and name the first value they
reject.  They are the only element checks: `Poly` checks its
coefficients through `asarray`, and `eval_at_powers` checks through it
any coefficients but an int64 array.  An int64 array is trusted there,
as by every bulk kernel, so the decoders' own arrays pay no check.

Polynomial evaluation, `eval_at_powers`, has two paths and one rule
between them.  The direct sum forms every term of every point as one
antilog lookup at ((first + r) j mod (q - 1)) + log c_j: count x
(nonzero coefficients) products.  A field with 2n^2 <= `_EVAL_BLOCK`
(n = q - 1 <= 362: GF(256), GF(257) and every field up to GF(359)) reads
the exponents (i j) mod n off one read-only int64 table of 2n rows,
built on first use, so a window of at most n points from alpha^first is
a view of rows and a call is one add, with no cast, one gather from the
narrow exp2 and one reduction, widened to int64 once: a mostly nonzero
row adds its whole log row (a zero's sentinel log reads exp2's zero
tail), a sparse one only its nonzero columns.  A one-dimensional call
returns that row itself.  Larger fields, and windows of more than n
points, compute the exponents block by block, with a remainder mod n.
The transform is Good's prime-factor algorithm over the whole orbit:
n = q - 1 splits into coprime prime-power factors n_i (255 = 3 * 5 *
17), each axis is a direct length-n_i transform by the `mul_arr` gather
against an exponent table, with no twiddle factors: about n * sum(n_i)
products.  It yields the
whole orbit alpha^0, ..., alpha^(n-1), so a window from alpha^first is
read off it by an index shift, with no product.  An axis pass runs over
all rows at once: n_i gathers of the whole (rows, n_i) array, one per
input term, each XORed or added in place into the outputs, then one
reduction mod p.  A pass of at most `_GATHER_OUTPUTS` outputs (a few
rows of a small field) instead gathers all the terms of a block of rows
at once (`_TRANSFORM_BLOCK` terms) and reduces them, which costs fewer
calls.  A call takes the transform when the direct sum would form more
than `_TRANSFORM_COST` times that many; a field whose n is a prime power
(GF(8), GF(17), GF(257)) has no split and always takes the direct sum,
in blocks of at most `_EVAL_BLOCK` terms.  So an evaluation's scratch
memory is a few arrays of rows x n, or of a bounded size, on every
field, and the one per-field table that grows with q^2 stops at
`_EVAL_BLOCK` entries (about 1 MiB for GF(256) and 2 MiB at GF(359)).
A (B, L) array of coefficients is B polynomials evaluated in one call.

The module keeps a count of field multiplications per thread (including
inversions and divisions, and the element products performed inside bulk
kernels) so callers can compare the multiplicative cost of algorithms.
A product counts one when both factors are nonzero and nothing
otherwise, whichever path forms it: `mul`, `div` and `pow` after their
zero checks, `mul_arr` the nonzero entries of its result (in a field a
product is nonzero exactly when both factors are), the direct sum
count x (nonzero coefficients), the transform n_i for each nonzero
input of an axis pass (its tables hold only powers of alpha), so it
counts fewer than the direct sum it replaces.  Each thread counts its own
products: the count is a one-element list held in a context variable,
which a thread makes on its first product or count read (a new thread
starts with an empty context), so two threads decoding at once never see
each other's products.  A context copied from the thread's after that,
as an asyncio task's is, shares the thread's count.  The lazily built
transform plan and exponent table are safe to share: threads that race
to build one build equal values, and either is kept.
"""

from __future__ import annotations

import array
import contextvars
import math
import operator
from typing import Iterable, NamedTuple, Sequence

import numpy as np

PRIME_MAX = 65521  # largest supported prime characteristic
BINARY_MAX_DEGREE = 16

# Default reduction polynomials, one per supported extension degree.  Bit i
# of the mask is the coefficient of x^i.  Each is irreducible and primitive
# (x generates the multiplicative group), and the m=8 entry is the common
# x^8+x^4+x^3+x^2+1 used by most byte-oriented Reed-Solomon deployments.
DEFAULT_REDUCTIONS = {
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x83,
    8: 0x11D,
    9: 0x211,
    10: 0x409,
    11: 0x805,
    12: 0x1053,
    13: 0x201B,
    14: 0x4443,
    15: 0x8003,
    16: 0x1100B,
}

# Most entries of one exponent block of `Field.eval_at_powers`: the points
# are taken in row chunks of at most this many (point, term) pairs, so an
# evaluation's scratch memory stays bounded on GF(2^16).  It also bounds a
# field's cached 2n x n exponent table, built only when 2n^2 fits (n <= 362).
_EVAL_BLOCK = 1 << 18

# An axis pass of the transform with at most this many outputs (rows x n)
# gathers the terms of a block of rows at once and reduces them; a larger
# pass makes n_i gathers of the whole array, each added in place, whose
# calls then cost less than the reductions.  Measured on 2 vCPU (Python
# 3.11, numpy 2.4), per row: 16 rows of GF(256) 0.045-0.065 ms added in
# place, 0.070 ms reduced; one row of GF(256) 0.13 ms reduced, 0.19 ms
# added in place; one row of GF(2048) (axes 89 and 23) 0.9-1.2 ms reduced,
# 2.0-2.4 ms added in place.
_GATHER_OUTPUTS = 2048

# Most (output, term) pairs of one reducing gather, so its scratch stays
# near 256 KiB (one int64 index and one term array); one GF(512) row's
# axis of 73 took 0.16 ms in such blocks and 0.41 ms in one gather.
_TRANSFORM_BLOCK = 1 << 14

# `eval_at_powers` takes the transform when the direct sum would form more
# than this many times the transform's n * sum(n_i) products.  Measured on
# RS(255, 223) (2 vCPU, Python 3.11, numpy 2.4): at factor 1 the 32
# syndromes of a dense word (32 * 255 > 255 * 25) would take the transform,
# 0.055 -> 0.075 ms a call, and they are most of a 0.12 ms clean decode; at
# 2 they keep the direct sum, while an encode (0.29 -> 0.09 ms) and a
# message (0.29 -> 0.10 ms) take the transform.
_TRANSFORM_COST = 2

# The calling thread's multiplication count, [count]; a product bumps it
# inline as `(_mul_ops.get(None) or _new_mul_ops())[0] += 1`.  The importing
# thread's count is made here, so the asyncio tasks it runs share it.
_mul_ops: contextvars.ContextVar[list[int]] = contextvars.ContextVar("mul_ops")
_mul_ops.set([0])


def _new_mul_ops() -> list[int]:
    ops = [0]
    _mul_ops.set(ops)
    return ops


def mul_ops_total() -> int:
    """Running count of the field multiplications this thread performed."""
    return (_mul_ops.get(None) or _new_mul_ops())[0]


def add_mul_ops(count: int) -> None:
    """Add `count` to this thread's multiplication counter (used by kernels),
    as a Python int, so a numpy integer count leaves the total an int."""
    (_mul_ops.get(None) or _new_mul_ops())[0] += operator.index(count)


class MulOpCounter:
    """Context manager measuring the multiplications this thread performs
    inside a block."""

    __slots__ = ("start", "count")

    def __enter__(self) -> "MulOpCounter":
        self.start = mul_ops_total()
        self.count = 0
        return self

    def __exit__(self, *exc) -> None:
        self.count = mul_ops_total() - self.start


def _is_prime(x: int) -> bool:
    return _prime_factors(x) == [x]


def _prime_factors(x: int) -> list[int]:
    out = []
    f = 2
    while f * f <= x:
        if x % f == 0:
            out.append(f)
            while x % f == 0:
                x //= f
        f += 1
    if x > 1:
        out.append(x)
    return out


def _gf2_poly_mod(a: int, b: int) -> int:
    # Remainder of carry-free polynomial division over GF(2).
    db = b.bit_length() - 1
    while a and a.bit_length() - 1 >= db:
        a ^= b << (a.bit_length() - 1 - db)
    return a


def _gf2_is_irreducible(mask: int, m: int) -> bool:
    if mask.bit_length() - 1 != m:
        return False
    # A reducible degree-m polynomial has a factor of degree <= m // 2; the
    # first candidate is x, which divides a mask with bit 0 clear.
    for cand in range(2, 1 << (m // 2 + 1)):
        if _gf2_poly_mod(mask, cand) == 0:
            return False
    return True


class _Plan(NamedTuple):
    """Good's prime-factor split of the length-n transform over the orbit.

    n is split into coprime prime-power factors n_1 < ... < n_k.  A term
    index j sits at (j_1, ..., j_k) with j = sum j_i n/n_i mod n, a point
    index r at (r mod n_1, ..., r mod n_k), and r j = sum r_i j_i n/n_i
    mod n, so each axis is a length-n_i transform with no twiddle factors.
    """

    perm_in: np.ndarray  # flat position of (j_1, ..., j_k) -> j
    out_index: np.ndarray  # r -> flat position of (r mod n_1, ..., r mod n_k)
    axes: tuple  # (n_i, exponent table r_i j_i n/n_i mod n), last axis first
    cost: int  # n * sum(n_i), the products of one dense transform

    @classmethod
    def build(cls, n: int) -> "_Plan | None":
        sizes = []
        for p in _prime_factors(n):
            size = p
            while n % (size * p) == 0:
                size *= p
            sizes.append(size)
        if len(sizes) < 2:
            return None
        sizes.sort()
        grid = np.indices(sizes).reshape(len(sizes), -1)
        perm_in = sum(j * (n // size) for j, size in zip(grid, sizes)) % n
        out_index = np.ravel_multi_index([np.arange(n) % size for size in sizes], sizes)
        axes = tuple((size, np.multiply.outer(np.arange(size), np.arange(size)) * (n // size) % n)
                     for size in reversed(sizes))
        return cls(perm_in, out_index, axes, n * sum(sizes))


class Field:
    """A finite field GF(q) with a designated primitive element alpha.

    `Field(q)` picks the default reduction polynomial (binary fields) and
    the smallest primitive element.  Both can be overridden; invalid
    choices are rejected at construction time.
    """

    __slots__ = (
        "kind", "q", "p", "m", "reduction", "alpha",
        "exp", "log", "_exp2", "_exp2_np", "_exp2_narrow", "_log_np", "_plan", "_powers",
    )

    def __init__(self, q: int, *, reduction: int | None = None,
                 alpha: int | None = None):
        if not isinstance(q, int) or q < 3:
            raise ValueError(f"unsupported field size {q!r}: need an integer >= 3")
        if q & (q - 1) == 0:  # power of two
            m = q.bit_length() - 1
            if not 2 <= m <= BINARY_MAX_DEGREE:
                raise ValueError(f"GF(2^{m}) unsupported: need 2 <= m <= {BINARY_MAX_DEGREE}")
            self.kind = "binary"
            self.q, self.p, self.m = q, 2, m
            if reduction is None:
                reduction = DEFAULT_REDUCTIONS[m]
            if not _gf2_is_irreducible(reduction, m):
                raise ValueError(
                    f"reduction polynomial {reduction:#x} is not an irreducible "
                    f"degree-{m} polynomial over GF(2)")
            self.reduction = reduction
        else:
            # Checked before the primality test, whose trial division takes
            # about sqrt(q) steps.
            if q > PRIME_MAX:
                raise ValueError(f"field size {q} exceeds the largest supported prime {PRIME_MAX}")
            if not _is_prime(q):
                raise ValueError(f"field size {q} is neither prime nor a power of two")
            if reduction is not None:
                raise ValueError("reduction polynomial only applies to GF(2^m)")
            self.kind = "prime"
            self.q, self.p, self.m = q, q, 1
            self.reduction = None

        n = q - 1
        if alpha is None:
            alpha = self._find_smallest_primitive()
        else:
            if not 1 <= alpha < q:
                raise ValueError(f"alpha {alpha!r} is not a nonzero element of GF({q})")
            if not self._is_primitive_slow(alpha):
                under = f" under reduction {reduction:#x}" if self.kind == "binary" else ""
                raise ValueError(f"alpha {alpha} does not have multiplicative order {n}{under}")
        self.alpha = alpha

        # Eager antilog/log tables over the whole multiplicative group, built
        # by doubling: exp[2^s : 2^(s+1)] = exp[:2^s] * alpha^(2^s).
        exp = np.ones(1, dtype=np.int64)
        step = alpha  # alpha^(2^s)
        while exp.size < n:
            exp = np.concatenate((exp, self._mul_slow(exp[:n - exp.size], step)))
            step = self._mul_slow(step, step)
        lg = np.full(q, -1, dtype=np.int64)
        lg[exp] = np.arange(n)
        self.exp = exp.tolist()
        self.log = lg.tolist()
        self._exp2 = self.exp + self.exp
        # log 0 is the sentinel 2n and exp2 is zero from index 2n on, so
        # exp2[log x + log y] is x * y for every x and y, zeros included.
        self._exp2_np = np.zeros(4 * n + 1, dtype=np.int64)
        self._exp2_np[:n] = exp
        self._exp2_np[n:2 * n] = exp
        # The same in the narrowest unsigned dtype that holds q - 1 (uint8
        # up to GF(256)), for the direct sum's gathers.
        self._exp2_narrow = self._exp2_np.astype(np.min_scalar_type(n))
        lg[0] = 2 * n
        self._log_np = lg
        self._plan = None
        self._powers = None

    # ----- construction helpers -------------------------------------------------

    def _mul_slow(self, a: int | np.ndarray, b: int) -> int | np.ndarray:
        # Table-free product of a (an int, or an int64 array elementwise) by
        # the int b, used only while building tables.
        if self.kind == "prime":
            return a * b % self.p
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a = a << 1
            a ^= (a >> self.m) * self.reduction
        return r

    def _pow_slow(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._mul_slow(r, a)
            a = self._mul_slow(a, a)
            e >>= 1
        return r

    def _is_primitive_slow(self, x: int) -> bool:
        # A nonzero x generates the group iff x^((q-1)/f) != 1 for every
        # prime f | q-1.
        n = self.q - 1
        if x == 0:
            return False
        return all(self._pow_slow(x, n // f) != 1 for f in _prime_factors(n))

    def _find_smallest_primitive(self) -> int:
        # The multiplicative group is cyclic, so the search always finds one.
        return next(x for x in range(2, self.q) if self._is_primitive_slow(x))

    # ----- scalar arithmetic ----------------------------------------------------

    def check(self, a: int) -> int:
        """Validate that `a` is a canonical element and return it: an
        integer as `operator.index` takes it, in [0, q)."""
        try:
            value = operator.index(a)
        except TypeError:
            value = -1
        if not 0 <= value < self.q:
            raise ValueError(f"{a!r} is not an element of GF({self.q})")
        return value

    def add(self, a: int, b: int) -> int:
        if self.kind == "prime":
            return (a + b) % self.p
        return a ^ b

    def sub(self, a: int, b: int) -> int:
        if self.kind == "prime":
            return (a - b) % self.p
        return a ^ b

    def neg(self, a: int) -> int:
        if self.kind == "prime":
            return -a % self.p
        return a

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        (_mul_ops.get(None) or _new_mul_ops())[0] += 1
        return self._exp2[self.log[a] + self.log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.q})")
        (_mul_ops.get(None) or _new_mul_ops())[0] += 1
        return self._exp2[self.q - 1 - self.log[a]]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.q})")
        if a == 0:
            return 0
        (_mul_ops.get(None) or _new_mul_ops())[0] += 1
        return self._exp2[self.log[a] - self.log[b] + self.q - 1]

    def pow(self, a: int, e: int) -> int:
        if e == 0:
            return 1
        if a == 0:
            if e < 0:
                raise ZeroDivisionError(f"0 has no negative powers in GF({self.q})")
            return 0
        (_mul_ops.get(None) or _new_mul_ops())[0] += 1
        n = self.q - 1
        return self.exp[(self.log[a] * e) % n]

    # ----- bulk numpy kernels ---------------------------------------------------
    #
    # All kernels take/return int64 arrays of canonical elements and account
    # their element products to the thread's multiplication counter.

    def asarray(self, values: Iterable[int]) -> np.ndarray:
        """Validate `values` as elements and return them as an int64 array.

        Accepts exactly what `check` accepts, element by element: a value
        `check` rejects raises its ValueError.  Integer arrays, and lists or
        tuples that `array.array("q")` packs (it takes what
        `operator.index` takes, within int64), are range-checked in one
        numpy pass; anything else goes through `check` one element at a
        time, an array of any shape element by element into an array of
        its shape: an integer array's elements as Python ints, so a bad
        one is named as an int, any other's (`flat`) as they are.
        """
        if isinstance(values, np.ndarray):
            a = values if values.dtype.kind in "iu" else None
        else:
            if not isinstance(values, (list, tuple)):
                values = list(values)
            try:
                a = np.frombuffer(array.array("q", values), np.int64)
            except (TypeError, OverflowError):
                a = None
        if a is not None:
            a = a.astype(np.int64, copy=False)
            # One reduction: a negative value viewed as uint64 is above q.
            if a.size == 0 or a.view(np.uint64).max() < self.q:
                return a
        if isinstance(values, np.ndarray):  # of any shape, kept
            # An integer array's elements are checked, and named, as ints.
            elements = values.flat if a is None else values.ravel().tolist()
            return np.array([self.check(x) for x in elements],
                            dtype=np.int64).reshape(values.shape)
        return np.array([self.check(x) for x in values], dtype=np.int64)

    def add_arr(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if self.kind == "prime":
            return (x + y) % self.p
        return x ^ y

    def sub_arr(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if self.kind == "prime":
            return (x - y) % self.p
        return x ^ y

    def neg_arr(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "prime":
            return (-x) % self.p
        return x.copy()

    def mul_arr(self, x: np.ndarray | int, y: np.ndarray | int) -> np.ndarray:
        """Elementwise product of x and y (arrays or single elements),
        broadcast; one table gather, counted once per nonzero product."""
        out = self._exp2_np[self._log_np[x] + self._log_np[y]]
        add_mul_ops(int(np.count_nonzero(out)))
        return out

    def sum_arr(self, terms: np.ndarray, axis: int = -1) -> np.ndarray:
        """The field sum of the elements `terms` along `axis`, as int64:
        the integer sum mod p, or the XOR of the bit vectors."""
        if self.kind == "prime":
            return terms.sum(axis=axis, dtype=np.int64) % self.p
        return np.bitwise_xor.reduce(terms, axis=axis).astype(np.int64, copy=False)

    def eval_at_powers(self, coeffs: Sequence[int] | np.ndarray, first: int = 0,
                       count: int | None = None) -> np.ndarray:
        """Evaluate sum_j coeffs[j] x^j at x = alpha^first, ..., alpha^(first+count-1).

        Requires len(coeffs) <= q-1 (degree below the group order).  Returns
        an int64 array of length `count` (default: the whole group orbit).
        A (B, L) array of coefficients is B polynomials, evaluated row by
        row into a (B, count) array.  An int64 array is trusted, as every
        bulk kernel trusts its arrays; anything else is read as `np.asarray`
        reads it (a nested list is 2-D) and checked by `asarray`.
        """
        n = self.q - 1
        if count is None:
            count = n
        trusted = isinstance(coeffs, np.ndarray) and coeffs.dtype == np.int64
        c = coeffs if trusted else self.asarray(np.asarray(coeffs))
        if c.ndim not in (1, 2):
            raise ValueError(f"coefficients must be a 1-D or 2-D array, not {c.ndim}-D")
        if c.shape[-1] > n:
            raise ValueError(f"polynomial degree must be below {n}")
        plan = self._transform_plan()
        rows = len(c) if c.ndim == 2 else 1
        # The direct sum forms count x (nonzero coefficients) products, the
        # transform about plan.cost a row; c.size bounds the nonzero
        # coefficients, so most short calls skip counting them.
        bound = _TRANSFORM_COST * rows * plan.cost if plan else math.inf
        if count * c.size > bound and count * np.count_nonzero(c) > bound:
            out = self._eval_transform(plan, c if c.ndim == 2 else c[None], first, count)
            return out if c.ndim == 2 else out[0]
        if c.ndim == 1:
            return self._eval_direct(c, first, count)
        out = np.empty((rows, count), dtype=np.int64)
        for i in range(rows):
            out[i] = self._eval_direct(c[i], first, count)
        return out

    def eval_products(self, count: int, nonzero: int) -> int:
        """Most products `eval_at_powers` forms for `count` points of one
        polynomial with `nonzero` nonzero coefficients: the direct sum's
        count x nonzero, or n * sum(n_i) where it takes the transform."""
        plan = self._transform_plan()
        direct = count * nonzero
        return plan.cost if plan and direct > _TRANSFORM_COST * plan.cost else direct

    def _eval_direct(self, c: np.ndarray, first: int, count: int) -> np.ndarray:
        # The direct sum, one term per (point, nonzero coefficient) pair,
        # each gathered from the narrow exp2 and the reduced row widened
        # once, to int64.
        n = self.q - 1
        nnz = int(np.count_nonzero(c))
        if nnz == 0:
            return np.zeros(count, dtype=np.int64)
        add_mul_ops(count * nnz)
        table = self._power_table() if count <= n else None
        if table is not None:
            # Term j at point alpha^(first + r) is exp2[table[first + r, j] +
            # log c_j], with the rows from first mod n a view.  A mostly
            # nonzero row takes every column: log 0 is the sentinel 2n, so a
            # zero coefficient reads the zero tail of exp2.
            start = first % n
            window = table[start:start + count]
            if 2 * nnz > len(c):
                e = window[:, :len(c)] + self._log_np[c]
            else:
                nz = np.flatnonzero(c)
                e = window[:, nz] + self._log_np[c[nz]]
            return self.sum_arr(self._exp2_narrow[e])
        nz = np.flatnonzero(c)
        # Term j at point alpha^(first + r) is alpha^(((first + r) j + log c_j)
        # mod n).  With (first + r) mod n, j and log c_j all below n <= 2^16 - 1,
        # the exponent stays below 2^32, so the block is uint32.
        j = nz.astype(np.uint32)
        logs = self._log_np[c[nz]].astype(np.uint32)
        rows = ((first + np.arange(count, dtype=np.int64)) % n).astype(np.uint32)
        step = max(1, _EVAL_BLOCK // nz.size)
        out = np.empty(count, dtype=np.int64)
        for lo in range(0, count, step):
            e = np.multiply.outer(rows[lo:lo + step], j)
            e += logs
            np.remainder(e, n, out=e)
            out[lo:lo + step] = self.sum_arr(np.take(self._exp2_narrow, e))
        return out

    def _power_table(self) -> np.ndarray | None:
        # The read-only int64 table (i j) mod n for i < 2n and j < n, so any
        # window of at most n points is a view of its rows and adds a row of
        # int64 logs with no cast; built on first use, and only while it has
        # at most _EVAL_BLOCK entries (1 MiB for GF(256), 2 MiB at GF(359)).
        if self._powers is None:
            n = self.q - 1
            table = False
            if 2 * n * n <= _EVAL_BLOCK:
                table = np.multiply.outer(np.arange(2 * n, dtype=np.int64), np.arange(n)) % n
                table.flags.writeable = False
            self._powers = table
        return None if self._powers is False else self._powers

    def _transform_plan(self) -> "_Plan | None":
        if self._plan is None:
            self._plan = _Plan.build(self.q - 1) or False
        return self._plan or None

    def _eval_transform(self, plan: "_Plan", c: np.ndarray, first: int,
                        count: int) -> np.ndarray:
        # Good's prime-factor transform of the rows of c over the whole
        # orbit alpha^0, ..., alpha^(n-1); the count points from alpha^first
        # on are read off it.
        n = self.q - 1
        b, width = c.shape
        vals = np.zeros((b, n), dtype=np.int64)
        vals[:, :width] = c
        vals = vals[:, plan.perm_in]
        products = 0
        # Each pass transforms the last axis and moves it to the front, so
        # after a pass per axis they are back in their first order.
        accumulate = np.add if self.kind == "prime" else np.bitwise_xor
        for size, tab in plan.axes:
            products += size * int(np.count_nonzero(vals))
            logs = self._log_np[vals].reshape(-1, size)
            # Output r of a length-n_i transform is the sum over the terms j
            # of x_j alpha^(tab[r, j]).
            if vals.size <= _GATHER_OUTPUTS:
                out = np.empty_like(logs)
                step = max(1, _TRANSFORM_BLOCK // (size * size))
                for lo in range(0, len(logs), step):
                    terms = self._exp2_np[logs[lo:lo + step, None, :] + tab]
                    accumulate.reduce(terms, axis=2, out=out[lo:lo + step])
            else:
                # tab is symmetric, so term j is one gather at log x_j + tab[j]
                # for all rows and outputs at once, added in place.
                out = np.zeros_like(logs)
                idx = np.empty_like(logs)
                terms = np.empty_like(logs)
                for j in range(size):
                    np.add(logs[:, j, None], tab[j], out=idx)
                    np.take(self._exp2_np, idx, out=terms)
                    accumulate(out, terms, out=out)
            if self.kind == "prime":
                np.remainder(out, self.p, out=out)
            vals = out.reshape(b, -1, size).transpose(0, 2, 1)
        add_mul_ops(products)
        window = np.take(plan.out_index, np.arange(first, first + count), mode="wrap")
        return vals.reshape(b, n)[:, window]

    # ----- identity --------------------------------------------------------------

    def _key(self) -> tuple:
        return (self.kind, self.q, self.reduction, self.alpha)

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        if self.kind == "prime":
            return f"Field({self.q}, alpha={self.alpha})"
        return f"Field(2**{self.m}, reduction={self.reduction:#x}, alpha={self.alpha})"

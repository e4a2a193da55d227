"""Shared helpers and independent oracles for the test suite.

The oracles here deliberately use different algorithms than the package
(cofactor expansion instead of elimination, explicit Lagrange products
instead of the closed form, carry-free bit multiplication instead of
tables) so fixture values are cross-checked, not copied.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np

from rscodec import DECODERS, DecodeFailure, DecodeTrace, Field, Poly, RSCode, hamming
from rscodec.decode_interp import decode_blocks

_fields: dict = {}
_codes: dict = {}


def get_field(q: int, **kw) -> Field:
    key = (q, tuple(sorted(kw.items())))
    if key not in _fields:
        _fields[key] = Field(q, **kw)
    return _fields[key]


def get_code(q: int, k: int, **kw) -> RSCode:
    key = (q, k, tuple(sorted(kw.items())))
    if key not in _codes:
        _codes[key] = RSCode(get_field(q, **kw), k)
    return _codes[key]


def det_cofactor(f: Field, rows: list[list[int]]) -> int:
    """Determinant by Laplace expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, c in enumerate(rows[0]):
        if c == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = f.mul(c, det_cofactor(f, minor))
        total = f.add(total, term if j % 2 == 0 else f.neg(term))
    return total


def lagrange_product(code: RSCode, i: int) -> Poly:
    """Lagrange basis polynomial by the defining product, not the closed form."""
    f = code.field
    xi = f.pow(f.alpha, i)
    num = Poly.one(f)
    denom = 1
    for j in range(code.n):
        if j == i:
            continue
        xj = f.pow(f.alpha, j)
        num = num * Poly(f, (f.neg(xj), 1))
        denom = f.mul(denom, f.sub(xi, xj))
    return num.scale(f.inv(denom))


def slow_gf2m_mul(a: int, b: int, reduction: int, m: int) -> int:
    """Carry-free multiply-and-reduce, independent of the package tables."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if (a >> m) & 1:
            a ^= reduction
    return r


def random_poly(rng: random.Random, f: Field, max_degree: int) -> Poly:
    deg = rng.randrange(-1, max_degree + 1)
    if deg < 0:
        return Poly.zero(f)
    coeffs = [rng.randrange(f.q) for _ in range(deg)] + [rng.randrange(1, f.q)]
    return Poly(f, coeffs)


def random_word(rng: random.Random, code: RSCode) -> tuple[int, ...]:
    return tuple(rng.randrange(code.field.q) for _ in range(code.n))


def corrupt(rng: random.Random, code: RSCode, codeword, t: int) -> tuple[int, ...]:
    """Add a random error of exact weight t to the codeword."""
    positions = rng.sample(range(code.n), t)
    word = list(codeword)
    f = code.field
    for pos in positions:
        word[pos] = f.add(word[pos], rng.randrange(1, f.q))
    return tuple(word)


def ball_volume(code: RSCode) -> int:
    """q^k * sum_(i <= tau) C(n, i) (q-1)^i: the words within tau of a codeword."""
    q, n = code.field.q, code.n
    return q ** code.k * sum(math.comb(n, i) * (q - 1) ** i for i in range(code.tau + 1))


def whole_space_accepted(code: RSCode) -> int:
    """Decode every word of GF(q)^n with every registered decoder and count
    the words accepted.

    All decoders must accept the same words, with the same codewords and
    messages, each within tau of the word; every rejection must be a typed
    DecodeFailure carrying a DecodeTrace.
    """
    q, n, tau = code.field.q, code.n, code.tau
    decoders = dict.fromkeys(DECODERS.values())
    count = 0
    for u in itertools.product(range(q), repeat=n):
        outs = set()
        for fn in decoders:
            try:
                out = fn(code, u)
            except DecodeFailure as exc:
                assert isinstance(exc.trace, DecodeTrace), (fn, u)
                outs.add(None)
            else:
                assert hamming(u, out.codeword) == out.error_count <= tau
                outs.add((out.codeword, out.message))
        assert len(outs) == 1, u
        count += None not in outs
    return count


def class_law_accepted(code: RSCode, rng: random.Random, samples: int = 200,
                       chunk: int = 4096) -> int:
    """Decode one word per syndrome class with every registered decoder,
    through `decode_blocks`, and count the classes accepted.

    The q^(n-k) words supported on positions 0, ..., n-k-1 are one per
    class: their map to the syndromes is the invertible matrix
    [alpha^((r+1)j)], r, j < n - k.  Every decoder's error word depends on
    the syndromes alone, so the classes decide the whole space: all
    decoders must accept the same classes with the same error, of weight
    <= tau, and no two classes with one error, so the count is the number
    of error patterns of weight <= tau.  `samples` classes, drawn by `rng`,
    are also decoded one word at a time as u + c for a random codeword c,
    which must give the same error, or a failure of the same type and
    message.
    """
    f, n, k = code.field, code.n, code.k
    q, r = f.q, n - k
    sampled = set(rng.sample(range(q ** r), min(samples, q ** r)))
    errors = set()
    for lo in range(0, q ** r, chunk):
        index = np.arange(lo, min(lo + chunk, q ** r), dtype=np.int64)
        words = np.zeros((len(index), n), dtype=np.int64)
        for j in range(r):
            words[:, j] = index // q ** j % q
        rows = [decode_blocks(code, words, name)[1] for name in DECODERS]
        for i, word in zip(index.tolist(), words):
            got = [row[i - lo] for row in rows]
            if isinstance(got[0], DecodeFailure):
                assert all(isinstance(x, DecodeFailure) for x in got), word
            else:
                error = got[0].error
                assert all(not isinstance(x, DecodeFailure) and x.error == error
                           for x in got), word
                assert sum(map(bool, error)) <= code.tau and error not in errors, word
                errors.add(error)
            if i in sampled:
                cw = code.encode([rng.randrange(q) for _ in range(k)])
                shifted = f.add_arr(word, np.array(cw))
                for (name, fn), want in zip(DECODERS.items(), got):
                    try:
                        out = fn(code, shifted)
                    except DecodeFailure as exc:
                        assert (type(exc), str(exc)) == (type(want), str(want)), (name, word)
                    else:
                        assert not isinstance(want, DecodeFailure), (name, word)
                        assert out.error == want.error, (name, word)
    return len(errors)

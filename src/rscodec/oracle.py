"""Brute-force ground truth for small codes.

Enumerates the whole codebook to answer nearest-codeword and minimum
distance queries exactly.  Intended for tests and cross-checks of the
real decoders; refuses codes too large to enumerate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .exceptions import TooLargeToEnumerate
from .gf import Field
from .rscode import RSCode

# Enumeration guards: at most this many codewords, and at most this many
# total symbols held in memory at once.
ENUM_MAX_CODEWORDS = 10 ** 6
ENUM_MAX_SYMBOLS = 50 * 10 ** 6

# Codebooks kept, least recently used first out: one can hold up to
# ENUM_MAX_SYMBOLS symbols.
CODEBOOK_CACHE_SIZE = 4


@dataclass(frozen=True)
class OracleResult:
    """Nearest codeword to a query word, by exhaustive search."""

    codeword: tuple[int, ...]
    distance: int
    unique: bool


def hamming(a: Sequence[int], b: Sequence[int]) -> int:
    """Number of positions where the two equal-length words differ."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(1 for x, y in zip(a, b) if x != y)


def codebook(code: RSCode) -> np.ndarray:
    """All q^k codewords as an array, row index = message in lexicographic
    order (message symbol 0 most significant).  Cached per (field, k)."""
    return _codebook(code.field, code.k)


@lru_cache(maxsize=CODEBOOK_CACHE_SIZE)
def _codebook(f: Field, k: int) -> np.ndarray:
    code = RSCode(f, k)
    q, n = f.q, code.n
    count = q ** k
    if count > ENUM_MAX_CODEWORDS:
        raise TooLargeToEnumerate(
            f"codebook has q^k = {count} codewords, limit {ENUM_MAX_CODEWORDS}")
    if count * n > ENUM_MAX_SYMBOLS:
        raise TooLargeToEnumerate(
            f"codebook holds {count * n} symbols, limit {ENUM_MAX_SYMBOLS}")
    gen = code.generator_matrix()
    book = np.zeros((1, n), dtype=np.int64)
    for i in range(k):
        scaled = f.mul_arr(np.arange(q)[:, None], gen._a[i])
        book = f.add_arr(np.repeat(book, q, axis=0),
                         np.tile(scaled, (book.shape[0], 1)))
    book = book.astype(np.int32)
    book.setflags(write=False)
    return book


def brute_nearest(code: RSCode, word: Sequence[int]) -> OracleResult:
    """Exhaustively nearest codeword; ties resolved to the lexicographically
    smallest message, with unique=False reported."""
    word = code._checked(word)
    book = codebook(code)
    dists = np.count_nonzero(book != np.asarray(word, dtype=np.int32), axis=1)
    idx = int(np.argmin(dists))
    dmin = int(dists[idx])
    unique = int(np.count_nonzero(dists == dmin)) == 1
    return OracleResult(tuple(int(x) for x in book[idx]), dmin, unique)


def brute_min_distance(code: RSCode) -> int:
    """Minimum Hamming distance of the code, by enumerating all codewords.

    Linearity reduces this to the minimum weight of a nonzero codeword.
    """
    book = codebook(code)
    weights = np.count_nonzero(book[1:], axis=1)
    return int(weights.min())

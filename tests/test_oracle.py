"""Exhaustive-search oracle tests."""

import random

import pytest

from rscodec import TooLargeToEnumerate, decode, hamming, oracle
from rscodec.oracle import brute_min_distance, brute_nearest, codebook

from .util import corrupt, get_code


def test_hamming_fixtures():
    assert hamming((1, 2, 3), (1, 2, 3)) == 0
    assert hamming((0, 0, 0), (1, 0, 2)) == 2
    assert hamming((4, 2, 1, 6, 3, 2), (4, 0, 1, 6, 3, 2)) == 1


def test_hamming_length_mismatch():
    with pytest.raises(ValueError):
        hamming((1, 2), (1, 2, 3))


def test_codebook_shape_and_order(rs72):
    book = codebook(rs72)
    assert book.shape == (49, 6)
    # lexicographic by message, first symbol most significant
    assert tuple(book[0]) == (0,) * 6
    assert tuple(book[1]) == rs72.encode((0, 1))
    assert tuple(book[7]) == rs72.encode((1, 0))
    assert tuple(book[48]) == rs72.encode((6, 6))
    # read-only view is cached
    assert codebook(rs72) is book
    with pytest.raises(ValueError):
        book[0][0] = 1


def test_codebook_cache_is_bounded():
    codes = [get_code(q, k) for q in (5, 7, 11) for k in (1, 2)]
    assert len(codes) > oracle.CODEBOOK_CACHE_SIZE
    for code in codes:
        codebook(code)
        assert oracle._codebook.cache_info().currsize <= oracle.CODEBOOK_CACHE_SIZE
    # the most recent codebook is still served from the cache
    assert codebook(codes[-1]) is codebook(codes[-1])


def test_codebook_rows_are_exactly_the_code(rs72):
    book = codebook(rs72)
    seen = {tuple(int(x) for x in row) for row in book}
    assert len(seen) == 49
    assert all(rs72.is_codeword(c) for c in seen)


def test_nearest_fixtures(rs72):
    res = brute_nearest(rs72, (4, 2, 1, 6, 3, 2))
    assert res.codeword == (4, 0, 1, 6, 3, 2)
    assert res.distance == 1
    assert res.unique

    res = brute_nearest(rs72, (0, 2, 5, 6, 0, 6))
    assert res.codeword == (0, 2, 5, 6, 4, 1)
    assert res.distance == 2
    assert res.unique

    cw = (3, 4, 2, 6, 5, 0)
    res = brute_nearest(rs72, cw)
    assert res.codeword == cw and res.distance == 0 and res.unique


def test_nearest_tie_reported(rs72):
    # (1,1,1,0,0,0) is distance 3 from both the all-zero and the all-one
    # codeword; min distance is 5, so nothing is closer.
    res = brute_nearest(rs72, (1, 1, 1, 0, 0, 0))
    assert res.distance == 3
    assert not res.unique
    assert res.codeword == (0, 0, 0, 0, 0, 0)  # lexicographically first


def test_nearest_validates_word(rs72):
    with pytest.raises(ValueError):
        brute_nearest(rs72, (1, 2, 3))


def test_min_distance_fixtures():
    assert brute_min_distance(get_code(7, 2, alpha=5)) == 5
    assert brute_min_distance(get_code(7, 5, alpha=5)) == 2
    assert brute_min_distance(get_code(5, 2)) == 3


@pytest.mark.parametrize("q", [5, 7, 11, 13])
def test_min_distance_is_mds(q):
    for k in range(1, min(q - 2, 5)):
        code = get_code(q, k)
        assert brute_min_distance(code) == code.n - code.k + 1


def test_too_large_guard():
    code = get_code(256, 3)  # 256**3 = 16.7M codewords
    with pytest.raises(TooLargeToEnumerate):
        codebook(code)
    with pytest.raises(TooLargeToEnumerate):
        brute_nearest(code, (0,) * code.n)
    with pytest.raises(TooLargeToEnumerate):
        brute_min_distance(code)
    # few enough codewords (997^2), but too many symbols
    with pytest.raises(TooLargeToEnumerate,
                       match="codebook holds 990032964 symbols, limit 50000000"):
        codebook(get_code(997, 2))


def test_decoder_agrees_with_oracle_within_radius():
    rng = random.Random(9)
    for q, k in ((7, 3), (11, 2), (13, 3)):
        code = get_code(q, k)
        for _ in range(150):
            msg = [rng.randrange(q) for _ in range(k)]
            cw = code.encode(msg)
            t = rng.randrange(code.tau + 1)
            u = corrupt(rng, code, cw, t)
            res = brute_nearest(code, u)
            out = decode(code, u)
            assert res.codeword == cw == out.codeword
            assert res.distance == t
            assert res.unique
            assert hamming(u, res.codeword) == t

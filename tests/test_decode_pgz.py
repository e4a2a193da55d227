"""Determinant-scan (PGZ) decoder tests."""

import random

import pytest

from rscodec import (
    DECODERS,
    DecodeFailure,
    DecodeTrace,
    Poly,
    TooManyErrors,
    decode,
    decode_via_positions,
    pgz_decode,
)

from .util import corrupt, get_code, get_field, random_word

U = (4, 2, 1, 6, 3, 2)
W = (0, 2, 5, 6, 0, 6)
V = (3, 4, 2, 6, 5, 0)


def test_pgz_decode_keeps_its_old_binding():
    import rscodec.decode_pgz

    assert rscodec.decode_pgz.pgz_decode is rscodec.pgz_decode
    assert rscodec.decode_pgz.solve_locator is rscodec.solve_locator


def test_pgz_single_error_fixture(rs72):
    out = pgz_decode(rs72, U)
    assert out.codeword == (4, 0, 1, 6, 3, 2)
    assert out.error == (0, 2, 0, 0, 0, 0)
    assert out.error_count == 1
    assert out.locator == Poly(rs72.field, (2, 1))
    # scan h = 2 (singular), then h = 1 (nonsingular): two determinants
    assert out.trace.det_checks == 2
    assert out.trace.rank_checks == 0


def test_pgz_double_error_fixture(rs72):
    out = pgz_decode(rs72, W)
    assert out.codeword == (0, 2, 5, 6, 4, 1)
    assert out.error == (0, 0, 0, 0, 3, 5)
    assert out.error_count == 2
    # h = tau = 2 is nonsingular immediately
    assert out.trace.det_checks == 1


def test_pgz_codeword_fast_path(rs72):
    out = pgz_decode(rs72, V)
    assert out.codeword == V
    assert out.error_count == 0
    assert out.trace.det_checks == 0


def test_pgz_too_many_errors_deterministic():
    code = get_code(7, 4, alpha=5)
    with pytest.raises(TooManyErrors) as exc_info:
        pgz_decode(code, (2, 1, 0, 0, 0, 0))
    # every h from tau down to 1 was tried
    assert exc_info.value.trace.det_checks == code.tau


def test_pgz_validates_word(rs72):
    with pytest.raises(ValueError):
        pgz_decode(rs72, (1, 2, 3, 4, 5, 6, 0))


def test_pgz_det_check_law():
    # on success with t >= 1 errors the scan costs tau - t + 1 determinants
    rng = random.Random(31)
    for q, k in ((13, 4), (17, 6)):
        code = get_code(q, k)
        for _ in range(300):
            msg = [rng.randrange(q) for _ in range(k)]
            cw = code.encode(msg)
            t = rng.randrange(1, code.tau + 1)
            u = corrupt(rng, code, cw, t)
            out = pgz_decode(code, u)
            assert out.codeword == cw
            assert out.error_count == t
            assert out.trace.det_checks == code.tau - t + 1


def test_pgz_matches_interp_on_random_words():
    # every registered decoder accepts exactly the same words and agrees
    # on the outcome; every rejection is typed and carries a trace
    decoders = list(dict.fromkeys(DECODERS.values()))
    assert {decode, decode_via_positions, pgz_decode} <= set(decoders)
    rng = random.Random(32)
    total_fail = 0
    codes = [get_code(q, k) for q, k in ((7, 2), (11, 3), (13, 5), (16, 3), (17, 8))]
    codes.append(get_code(16, 4, reduction=0x19, alpha=6))
    assert codes[-1].field.alpha != get_field(16, reduction=0x19).alpha
    for code in codes:
        for _ in range(250):
            u = random_word(rng, code)
            outs = []
            for fn in decoders:
                try:
                    outs.append(fn(code, u))
                except DecodeFailure as exc:
                    assert isinstance(exc.trace, DecodeTrace), (fn, u)
                    outs.append(None)
            if outs[0] is None:
                total_fail += 1
                assert all(out is None for out in outs), u
                continue
            a = outs[0]
            for b in outs[1:]:
                assert b is not None, u
                assert a.codeword == b.codeword
                assert a.error == b.error
                assert a.error_count == b.error_count
                assert a.locator == b.locator
                assert a.message == b.message
    assert total_fail > 0  # the sample really exercised the failure side


def test_pgz_roundtrip_binary_field():
    code = get_code(256, 239)  # tau = 8
    rng = random.Random(33)
    for _ in range(20):
        msg = [rng.randrange(256) for _ in range(code.k)]
        cw = code.encode(msg)
        t = rng.randrange(code.tau + 1)
        u = corrupt(rng, code, cw, t)
        out = pgz_decode(code, u)
        assert out.codeword == cw
        assert out.error_count == t

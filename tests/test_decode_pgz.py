"""Determinant-scan (PGZ) decoder tests."""

import random

import numpy as np
import pytest

from rscodec import (
    DECODERS,
    DecodeFailure,
    DecodeTrace,
    FeMat,
    MulOpCounter,
    Poly,
    SingularLocatorSystem,
    TooManyErrors,
    VerifyFailed,
    decode,
    decode_via_positions,
    pgz_decode,
    solve_locator,
)
from rscodec.decode_interp import (
    _determinant_scan,
    _error_positions_and_values,
    _hankel_scan,
    _run,
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
    # the elimination of H_2's columns stops at column 1, which decides
    # h = 2 (singular) and h = 1 (nonsingular): two candidates decided
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
    # every h from tau down to 1 was decided, each one singular
    assert exc_info.value.trace.det_checks == code.tau


def test_pgz_forms_no_determinant_within_the_radius(monkeypatch):
    # For 1 <= t <= tau errors the elimination of H_tau's columns stops at
    # column t, which shows H_t nonsingular, so no decode forms a
    # determinant.
    calls = []
    det = FeMat.det

    def counted_det(self):
        calls.append(self.shape)
        return det(self)

    monkeypatch.setattr(FeMat, "det", counted_det)
    rng = random.Random(35)
    for q, k in ((7, 2), (13, 4), (16, 6), (256, 223), (257, 200)):
        code = get_code(q, k)
        for t in range(1, code.tau + 1):
            cw = code.encode([rng.randrange(q) for _ in range(k)])
            out = pgz_decode(code, corrupt(rng, code, cw, t))
            assert out.codeword == cw and out.trace.det_checks == code.tau - t + 1
    assert calls == []


def test_pgz_without_correction_radius():
    # tau = 0: H_tau is 0 x 0, a codeword decodes with no check, and any
    # other word is TooManyErrors with det_checks = tau = 0.
    for q, k in ((7, 5), (8, 6), (257, 255)):
        code = get_code(q, k)
        assert code.tau == 0
        cw = code.encode(list(range(1, k + 1)))
        out = pgz_decode(code, cw)
        assert out.codeword == cw and out.error_count == 0 and out.trace.det_checks == 0
        word = (cw[0] + 1) % q if q % 2 else cw[0] ^ 1
        with pytest.raises(TooManyErrors) as exc_info:
            pgz_decode(code, (word,) + cw[1:])
        assert exc_info.value.trace.det_checks == 0


def test_pgz_validates_word(rs72):
    with pytest.raises(ValueError):
        pgz_decode(rs72, (1, 2, 3, 4, 5, 6, 0))


def test_pgz_det_check_law():
    # on success with t >= 1 errors the scan decides tau - t + 1 candidates
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


def _descending_scan(code, synd, trace):
    """The classic PGZ count stage: one determinant for each h = tau, ..., 1."""
    if not synd.any():
        return 0, np.ones(1, dtype=np.int64)
    for h in range(code.tau, 0, -1):
        trace.det_checks += 1
        if FeMat._wrap(code.field, synd[np.add.outer(np.arange(h), np.arange(h))]).det():
            return h, np.array(solve_locator(code, synd, h).coeffs, dtype=np.int64)
    raise TooManyErrors(f"all Hankel determinants up to tau = {code.tau} vanish for a "
                        "nonzero syndrome vector")


def _counted(fn, *args):
    with MulOpCounter() as ctr:
        try:
            out = fn(*args)
        except DecodeFailure as exc:
            out = exc
    if isinstance(out, DecodeFailure):
        return ctr.count, (type(out), str(out), out.trace)
    if isinstance(out, tuple):  # a count stage's (t, lambda array)
        return ctr.count, (out[0], out[1].tolist())
    return ctr.count, (out.codeword, out.error, out.error_count, out.locator,
                       out.trace, out.message)


def _singular_leading_block(code, synd):
    """Whether rank(H_tau) = r is below tau with H_r singular: then the
    scan's h, the first column of H_tau in the span of the earlier ones,
    lies below r."""
    def hankel(h):
        return FeMat._wrap(code.field, synd[np.add.outer(np.arange(h), np.arange(h))])

    r = hankel(code.tau).rank()
    return 0 < r < code.tau and hankel(r).det() == 0


def test_determinant_scan_matches_descending_scan():
    # The one elimination of H_tau's columns, stopped at the first column
    # in the span of the earlier ones, decides the same h as the classic
    # scan from tau down, with the same det_checks, locator and failures,
    # and never forms more products than the classic scan, whose first
    # determinant alone eliminates H_tau.
    rng = random.Random(34)
    codes = [(get_code(7, 2, alpha=5), range(0, 5)),
             (get_code(7, 5), range(0, 3)),  # tau = 0: H_tau is 0 x 0
             (get_code(11, 3), range(0, 7)),
             (get_code(16, 6, reduction=0x19, alpha=6), range(0, 7)),
             (get_code(256, 223), range(0, 19)),
             (get_code(256, 4), (0, 123, 124, 125, 126, 127)),
             (get_code(257, 200), range(0, 31))]
    kinds = set()
    for code, weights in codes:
        q, r = code.field.q, code.n - code.k
        words = [corrupt(rng, code, code.encode([rng.randrange(q) for _ in range(code.k)]), t)
                 for t in weights]
        words += [random_word(rng, code) for _ in range(4)]
        for u in words:
            new_count, new = _counted(pgz_decode, code, u)
            ref_count, ref = _counted(_run, code, u, _descending_scan,
                                      _error_positions_and_values)
            assert new == ref, (code, u)
            assert new_count <= ref_count, (code, u)
            kinds.add(new[0] if isinstance(new[0], type) else "decoded")
            if _singular_leading_block(code, np.array(code.syndromes(u))):
                kinds.add("singular H_r")
        synds = []
        for support in [[r - 1]] + [rng.sample(range(r), min(r, w)) for w in (1, 2, 3)]:
            synd = np.zeros(r, dtype=np.int64)
            synd[support] = [rng.randrange(1, q) for _ in support]
            synds.append(synd)
        if code.tau >= 3:
            # s_j = a^j plus d at j = 2 tau - 2, the corner of H_tau: rank 2
            # with H_2 singular, as column 1 is a times column 0, so h = 1.
            f = code.field
            a, d = rng.randrange(1, q), rng.randrange(1, q)
            synd = np.array([f.pow(a, j) for j in range(r)], dtype=np.int64)
            synd[2 * code.tau - 2] = f.add(synd[2 * code.tau - 2], d)
            synds.append(synd)
        for synd in synds:
            new_trace, ref_trace = DecodeTrace(), DecodeTrace()
            new_count, new = _counted(_determinant_scan, code, synd, new_trace)
            ref_count, ref = _counted(_descending_scan, code, synd, ref_trace)
            assert (new, new_trace) == (ref, ref_trace), (code, synd)
            assert new_count <= ref_count, (code, synd)
            kinds.add(new[0] if isinstance(new[0], type) else "located")
            if _singular_leading_block(code, synd):
                kinds.add("singular H_r" if isinstance(new[0], type) else "located past H_r")
    assert {TooManyErrors, "decoded", "located", "singular H_r", "located past H_r"} <= kinds


def test_largest_nonsingular_leading_block_is_the_first_dependent_column():
    # One elimination of H_tau's columns (`_hankel_scan`) stops at r, the
    # first column in the span of the earlier ones.  For every h <= tau,
    # not only the h the scan picks, H_h is singular for h > r and
    # nonsingular for h = r, so r is the PGZ scan's h.  Below r, H_h can
    # be singular either way.  The syndromes are uniform, 1 to 3 nonzero,
    # and geometric with one entry of H_tau perturbed; RS(255,180), with
    # tau = 37 > _PANEL_TERMS // tau, has the scan replay its remainders
    # onto a second panel.
    rng = random.Random(37)
    codes = [get_code(7, 2, alpha=5), get_code(11, 3), get_code(13, 5),
             get_code(16, 6, reduction=0x19, alpha=6), get_code(8, 1),
             get_code(32, 11, reduction=0x3D), get_code(256, 223), get_code(257, 200),
             get_code(256, 180)]
    seen = set()
    for code in codes:
        f, q, r, tau = code.field, code.field.q, code.n - code.k, code.tau
        synds = [np.array([rng.randrange(q) for _ in range(r)], dtype=np.int64)
                 for _ in range(4)]
        for w in (1, 2, 3, 1, 2, 3):
            synd = np.zeros(r, dtype=np.int64)
            support = rng.sample(range(2 * tau - 1), min(w, 2 * tau - 1))
            synd[support] = [rng.randrange(1, q) for _ in support]
            synds.append(synd)
        for j in [2 * tau - 2] * 2 + rng.sample(range(2 * tau - 1), min(4, 2 * tau - 1)):
            a, d = rng.randrange(1, q), rng.randrange(1, q)
            synd = np.array([f.pow(a, i) for i in range(r)], dtype=np.int64)
            synd[j] = f.add(synd[j], d)
            synds.append(synd)
        for synd in synds:
            first = _hankel_scan(f, synd, tau, tau)
            for h in range(1, tau + 1):
                nonsingular = FeMat._wrap(f, synd[np.add.outer(np.arange(h), np.arange(h))]).det()
                assert bool(nonsingular) == (h == first) or h < first, (code, synd.tolist(), h)
                if h < first:
                    seen.add(bool(nonsingular))
            seen.add(("first", min(first, 2)))
    assert seen == {True, False, ("first", 0), ("first", 1), ("first", 2)}


def test_scan_past_a_singular_leading_block_forms_no_determinant(monkeypatch):
    # Two GF(13) k = 5 words past the radius (tau = 3) with rank(H_3) = 2
    # and H_2 singular: the one elimination of H_3's columns stops at
    # column 1, the first in the span of the earlier ones, which decides
    # h = 3 and 2 (singular) and h = 1 (nonsingular).  Each decode runs
    # `_hankel_scan` once and calls no `FeMat` method.
    from rscodec import decode_interp

    code = get_code(13, 5)
    cases = [((12, 1, 8, 2, 0, 8, 3, 3, 7, 4, 3, 7), SingularLocatorSystem,
              "locator constant term is zero, implying an error at the excluded point 0"),
             ((10, 3, 4, 10, 10, 12, 2, 8, 8, 11, 0, 5), VerifyFailed,
              "decoded word is not a codeword")]
    for word, _, _ in cases:
        assert _singular_leading_block(code, np.array(code.syndromes(word)))

    def forbidden(self, *args):
        raise AssertionError("no decode calls a FeMat method")

    for name in ("det", "rank", "solve"):
        monkeypatch.setattr(FeMat, name, forbidden)
    scans = []
    monkeypatch.setattr(decode_interp, "_hankel_scan",
                        lambda *args: scans.append(args) or _hankel_scan(*args))
    for word, failure, text in cases:
        scans.clear()
        with pytest.raises(failure) as info:
            pgz_decode(code, word)
        assert str(info.value) == text
        assert info.value.trace.det_checks == 3
        assert len(scans) == 1 and scans[0][2:] == (3, 3)
        assert _hankel_scan(*scans[0]) == 1


def test_determinant_scan_cost():
    # One elimination of H_tau's columns stops at column t, the first in
    # the span of the earlier ones, which decides every h above t, and the
    # pivot rows of columns 0, ..., t - 1 decide h = t: on the t = 50 word
    # of RS(255,4), 271 670 products, 239 979 of them in that elimination
    # and 4 975 in the locator's shift-register synthesis (a row echelon
    # elimination of the whole of H_tau made it 538 691); a determinant for
    # each h = 125, ..., 50 takes 17 653 911.  All the counts are
    # deterministic.
    rng = random.Random(256)
    code = get_code(256, 4)
    cw = code.encode([rng.randrange(256) for _ in range(4)])
    word = corrupt(rng, code, cw, 50)
    with MulOpCounter() as ctr:
        out = pgz_decode(code, word)
    assert out.codeword == cw and out.trace.det_checks == 76
    assert ctr.count < 2 * 10 ** 6
    code = get_code(256, 223)
    word = corrupt(rng, code, code.encode([rng.randrange(256) for _ in range(223)]), 1)
    assert pgz_decode(code, word).trace.det_checks == 16

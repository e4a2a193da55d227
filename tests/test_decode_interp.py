"""Interpolation-degree decoder: worked fixtures, failure paths, properties."""

import itertools
import random

import numpy as np
import pytest

from rscodec import (
    DecodeFailure,
    DecodeTrace,
    FeMat,
    DegreeTooHigh,
    InexactDivision,
    Poly,
    RootCountMismatch,
    RSCode,
    SingularLocatorSystem,
    SolveStatus,
    TooManyErrors,
    VerifyFailed,
    berlekamp_massey,
    decode,
    decode_via_positions,
    detect_error_count,
    gf,
    hamming,
    recover_codeword_polynomial,
    solve_locator,
)
from rscodec.bench import DECODERS
from rscodec.decode_interp import (
    _PANEL_TERMS,
    _bm_scan,
    _error_evaluator,
    _error_positions_and_values,
    _rank_scan,
    _run,
    _wrapped_quotient,
    decode_blocks,
)
from rscodec.oracle import brute_nearest

from .util import (
    ball_volume,
    class_law_accepted,
    corrupt,
    get_code,
    get_field,
    random_word,
    whole_space_accepted,
)

U = (4, 2, 1, 6, 3, 2)   # codeword of (5, 6) with error 2 at position 1
W = (0, 2, 5, 6, 0, 6)   # codeword of (3, 4) with errors at positions 4, 5
V = (3, 4, 2, 6, 5, 0)   # a codeword


# ----- step 1: error count detection ----------------------------------------------

def test_detect_fixtures(rs72):
    assert detect_error_count(rs72, (3, 1, 5, 4)) == 1
    assert detect_error_count(rs72, (0, 1, 5, 5)) == 2
    assert detect_error_count(rs72, (0, 0, 0, 0)) == 0


def test_detect_zero_iff_all_syndromes_zero(rs72):
    rng = random.Random(0)
    for _ in range(100):
        s = tuple(rng.randrange(7) for _ in range(4))
        t = detect_error_count(rs72, s)
        if any(s):
            assert t != 0
        else:
            assert t == 0


def test_detect_none_beyond_capability():
    # n - k = 2, tau = 1: syndromes (0, nonzero) fit no t <= 1
    code = get_code(7, 4, alpha=5)
    assert detect_error_count(code, (0, 6)) is None


def test_detect_validates_length(rs72):
    with pytest.raises(ValueError):
        detect_error_count(rs72, (1, 2, 3))
    # non-integer syndromes are rejected, not truncated to (3, 1, 5, 4)
    with pytest.raises(ValueError):
        detect_error_count(rs72, (3.7, 1, 5, 4))
    with pytest.raises(ValueError):
        detect_error_count(rs72, np.array([3.0, 1.0, 5.0, 4.0]))
    with pytest.raises(ValueError):
        solve_locator(rs72, (3.2, 1.0, 5, 4), 1)


def _rank_definition(code, s):
    # The paper's test, verbatim: the smallest t whose (n-k-t) x t Hankel
    # matrix has the rank of its (n-k-t) x (t+1) augmentation.
    rows = code.n - code.k
    for t in range(code.tau + 1):
        lhs = FeMat(code.field, [[s[i + j] for j in range(t)] for i in range(rows - t)])
        aug = FeMat(code.field, [[s[i + j] for j in range(t + 1)] for i in range(rows - t)])
        if lhs.rank() == aug.rank():
            return t
    return None


@pytest.mark.parametrize("q, k, kw", [
    (7, 2, {"alpha": 5}),
    (16, 6, {"reduction": 0x19, "alpha": 6}),
    (256, 223, {}),
    (13, 5, {}),
    (257, 200, {}),
])
def test_detect_matches_rank_definition(q, k, kw):
    code = get_code(q, k, **kw)
    f = code.field
    r = code.n - code.k
    rng = random.Random(q)
    vectors = [tuple(rng.randrange(q) for _ in range(r)) for _ in range(40)]
    for t in range(code.tau + 3):
        cw = code.encode([rng.randrange(q) for _ in range(k)])
        vectors.append(code.syndromes(corrupt(rng, code, cw, t)))
    # 1-3 nonzeros: the scan's recorded pivots sit late in the column and leave
    # the shrinking row window, and many such vectors have singular locators
    for _ in range(30):
        s = [0] * r
        for i in rng.sample(range(r), rng.randrange(1, 4)):
            s[i] = rng.randrange(1, q)
        vectors.append(tuple(s))
    # a single nonzero last syndrome: its column cannot be reached by any t <= tau
    vectors.append((0,) * (r - 1) + (1,))
    # a single nonzero first syndrome fits s_r = 0 * s_(r-1): t = 1 with the
    # locator x, whose zero constant term both locator stages reject
    vectors.append((1,) + (0,) * (r - 1))
    seen = [_check_against_definition(code, s) for s in vectors]
    assert None in seen and 0 in seen and code.tau in seen
    assert "singular" in seen


def _check_against_definition(code, s):
    """The rank scan's count, Berlekamp-Massey's and the locator stages on
    syndromes `s`, against `_rank_definition`; returns the count, or
    "singular" where the locator's constant term is zero."""
    f = code.field
    synd = np.array(s, dtype=np.int64)  # the count stages take the int64 syndromes
    want = _rank_definition(code, s)
    assert detect_error_count(code, s) == want, (f, s)
    # Berlekamp-Massey: the linear complexity is the same count, and the
    # reversed connection polynomial is the Hankel locator
    length, lam = berlekamp_massey(code, s)
    assert (length if length <= code.tau else None) == want, (f, s)
    if want is None:
        with pytest.raises(TooManyErrors):
            _bm_scan(code, synd, DecodeTrace())
    if not want:
        return want
    assert lam.degree == want and lam.coeffs[-1] == 1
    try:
        ref = solve_locator(code, s, want)
    except SingularLocatorSystem:
        assert lam.coeffs[0] == 0, (f, s)
        trace = DecodeTrace()
        with pytest.raises(SingularLocatorSystem, match="constant term is zero") as exc:
            _bm_scan(code, synd, trace)
        # a stage called on its own raises without a trace, and leaves
        # the counters of the trace it was given at 0
        assert exc.value.trace is None and trace == DecodeTrace()
        return "singular"
    assert lam == ref, (f, s)
    t, lam = _bm_scan(code, synd, DecodeTrace())
    assert t == want and lam.dtype == np.int64 and lam.tolist() == list(ref.coeffs)
    return want


def test_detect_across_rank_scan_panels():
    # RS(255,4): n - k = 251, so the scan's panels hold candidates 0-3,
    # 4-8, 9-18, 19-38, 39-78 and 79-125 (max(t + 1, _PANEL_TERMS // 251)
    # from each panel's first t).  A word with t >= 4 errors replays the
    # recorded remainders onto each new panel it reaches.  The single
    # nonzero last syndrome fails every candidate j with its pivot at
    # coordinate 250 - j, outside the window R_l = 251 - l of every later
    # candidate l, so each replay skips those remainders.  Two or three
    # nonzeros among the last syndromes leave some pivots inside a new
    # panel's first windows and outside its later ones.
    code = get_code(256, 4)
    r = code.n - code.k
    ends, end = [], 0
    while end <= code.tau:
        end = min(code.tau + 1, end + max(end + 1, _PANEL_TERMS // r))
        ends.append(end)
    assert ends == [4, 9, 19, 39, 79, 126]
    rng = random.Random(2554)
    vectors = [(0,) * (r - 1) + (1,)]
    for t in (3, 4, 8, 9, 18, 19, 40, code.tau):
        cw = code.encode([rng.randrange(256) for _ in range(4)])
        vectors.append(code.syndromes(corrupt(rng, code, cw, t)))
    for count in (2, 3):
        s = [0] * r
        for i in rng.sample(range(r - 8, r), count):
            s[i] = rng.randrange(1, 256)
        vectors.append(tuple(s))
    seen = [_check_against_definition(code, s) for s in vectors]
    assert seen[:9] == [None, 3, 4, 8, 9, 18, 19, 40, code.tau]


def test_rank_scan_cost():
    # One right-looking elimination answers all t + 1 candidates: O(t^2 (n-k))
    # products, where t + 1 separate eliminations take O(t^3 (n-k)): on
    # these two words 3 247 products for the scan and 1.19e6 for the whole
    # decode (1.14e6 of them the scan's), against 15 469 and 2.7e7.  The
    # left-looking scan before it formed 3 074 and 1.24e6 (1.18e6).  Both
    # counts are deterministic.
    rng = random.Random(255)
    code = get_code(256, 223)
    word = corrupt(rng, code, code.encode([rng.randrange(256) for _ in range(223)]), 16)
    synd = code.syndromes(word)
    with gf.MulOpCounter() as ctr:
        assert detect_error_count(code, synd) == 16
    assert 0 < ctr.count < 5000
    code = get_code(256, 4)
    cw = code.encode([rng.randrange(256) for _ in range(4)])
    word = corrupt(rng, code, cw, 100)
    with gf.MulOpCounter() as ctr:
        out = decode(code, word)
    assert out.codeword == cw and out.trace.rank_checks == 101
    assert ctr.count < 5 * 10 ** 6


def test_recover_tail_cost_and_structure(monkeypatch):
    # A one-word RS(255,223) decode at t = 16: after the syndromes the
    # recover tail evaluates the whole orbit once (the quotient, which gives
    # the codeword; verify then evaluates the sparse error at the n - k
    # syndrome points), forms no Poly product or long division, and counts
    # 23 665 products, where the long division and two orbit evaluations
    # of the word and the message counted 30 650.  Deterministic.
    rng = random.Random(223)
    code = get_code(256, 223)
    cw = code.encode([rng.randrange(256) for _ in range(223)])
    word = corrupt(rng, code, cw, 16)
    calls, transforms = [], []
    field_cls = type(code.field)
    eval_at_powers, eval_transform = field_cls.eval_at_powers, field_cls._eval_transform

    def recording_eval(self, coeffs, first=0, count=None):
        calls.append((first, count))
        return eval_at_powers(self, coeffs, first, count)

    def recording_transform(self, *args):
        transforms.append(args[-1])
        return eval_transform(self, *args)

    def forbidden(*args):
        raise AssertionError("the recover tail works on arrays only")

    monkeypatch.setattr(field_cls, "eval_at_powers", recording_eval)
    monkeypatch.setattr(field_cls, "_eval_transform", recording_transform)
    monkeypatch.setattr(Poly, "__mul__", forbidden)
    monkeypatch.setattr(Poly, "__divmod__", forbidden)
    with gf.MulOpCounter() as ctr:
        out = decode(code, word)
    assert out.codeword == cw and out.error_count == 16
    r = code.n - code.k
    assert calls == [(1, r), (0, code.n), (1, r)]
    assert transforms == [code.n]
    assert ctr.count < 25_000
    # On RS(255,4) the word's other 4 evaluations and the message's
    # encoding, 2 x 1 020 products, cost less than the quotient on the
    # orbit, 6 375; the tail takes them and holds the message.
    code = get_code(256, 4)
    cw = code.encode([rng.randrange(256) for _ in range(4)])
    word = corrupt(rng, code, cw, 1)
    calls.clear()
    out = decode(code, word)
    assert calls == [(1, 251), (252, 4), (0, 255), (1, 251)]
    with gf.MulOpCounter() as ctr:
        message = out.message
    assert ctr.count == 0 and len(calls) == 4  # the tail held the message
    assert out.codeword == cw and code.encode(message) == cw


def test_recover_route_counts_the_message_encoding(monkeypatch):
    # On GF(257) k = 200 at t = 8 the k route, the word's other 200
    # evaluations and the encoding of the message they give, forms more
    # products than the quotient on the orbit: the tail takes the orbit and
    # leaves the message lazy.  The rule once weighed the quotient against
    # the 200 evaluations alone and took the k route.
    rng = random.Random(257)
    code = get_code(257, 200)
    msg = [rng.randrange(257) for _ in range(200)]
    word = corrupt(rng, code, code.encode(msg), 8)
    calls = []
    field_cls = type(code.field)
    eval_at_powers = field_cls.eval_at_powers

    def recording_eval(self, coeffs, first=0, count=None):
        calls.append((first, count))
        return eval_at_powers(self, coeffs, first, count)

    monkeypatch.setattr(field_cls, "eval_at_powers", recording_eval)
    out = decode(code, word)
    assert out.error_count == 8
    assert calls == [(1, 56), (0, 256), (1, 56)]
    assert out.message == tuple(msg)
    assert calls[3:] == [(57, 200)]  # formed on this read


# ----- step 2: locator --------------------------------------------------------------

def test_locator_fixtures(rs72):
    f7 = rs72.field
    assert solve_locator(rs72, (3, 1, 5, 4), 1) == Poly(f7, (2, 1))
    assert solve_locator(rs72, (0, 1, 5, 5), 2) == Poly(f7, (6, 2, 1))


def test_locator_is_monic_of_degree_t(rs72):
    lam = solve_locator(rs72, (0, 1, 5, 5), 2)
    assert lam.degree == 2 and lam.coeffs[-1] == 1


def test_locator_zero_constant_term_rejected(rs72):
    # t = 1 with s = (1, 0, ...): solution l_0 = 0, which would locate an
    # error at the excluded point zero.
    with pytest.raises(SingularLocatorSystem):
        solve_locator(rs72, (1, 0, 0, 0), 1)


def test_locator_singular_system_rejected(rs72):
    # t = 2 Hankel matrix [[3,1],[1,5]] is singular over F_7, and the
    # system is consistent: s_0, ..., s_3 have linear complexity 1 < 2
    with pytest.raises(SingularLocatorSystem) as exc:
        solve_locator(rs72, (3, 1, 5, 4), 2)
    assert str(exc.value) == "locator system for t=2 is underdetermined"
    # (1, 0, 0, 1) has linear complexity 3 > 2: no length-2 LFSR fits
    with pytest.raises(SingularLocatorSystem) as exc:
        solve_locator(rs72, (1, 0, 0, 1), 2)
    assert str(exc.value) == "locator system for t=2 is no_solution"


_ZERO_TEXT = "locator constant term is zero, implying an error at the excluded point 0"


def _hankel(syndromes, rows, cols):
    """The rows x cols Hankel matrix [s_(i+j)] of the syndrome array."""
    return syndromes[np.add.outer(np.arange(rows), np.arange(cols))]


def _hankel_reference(f, s, t):
    """The locator, or the SingularLocatorSystem text, that solving the
    t x t Hankel system with `FeMat.solve` gives."""
    s = np.asarray(s, dtype=np.int64)
    res = FeMat._wrap(f, _hankel(s, t, t)).solve(f.neg_arr(s[t:2 * t]))
    if res.status is not SolveStatus.UNIQUE:
        return f"locator system for t={t} is {res.status.value}"
    if res.solution[0] == 0:
        return _ZERO_TEXT
    return Poly(f, res.solution + (1,))


def _locator_or_text(code, s, t):
    try:
        return solve_locator(code, s, t)
    except SingularLocatorSystem as exc:
        return str(exc)


def _hankel_stand_in(f, t):
    """What `solve_locator` reads of a code, with 2t syndromes and tau = t:
    the Hankel system is defined over every field for every t, but a code
    over GF(4) or GF(5) has at most 3 syndromes."""
    code = object.__new__(RSCode)
    code.field, code.tau = f, t
    code._sizes = {"syndrome vector": (2 * t, "n - k")}
    return code


def test_solve_locator_matches_the_hankel_elimination():
    # `solve_locator` runs Massey's synthesis on s_0, ..., s_(2t-1) and
    # maps its linear complexity L to the system's status: L = t unique,
    # L > t no_solution, L < t underdetermined.  The sequences over GF(5)
    # for t <= 3 and over GF(4) and GF(8) for t <= 2, all of them, meet
    # all four outcomes at each t; the elimination is the independent
    # reference.
    for q, top in ((5, 3), (4, 2), (8, 2)):
        f = get_field(q)
        for t in range(1, top + 1):
            code = _hankel_stand_in(f, t)
            seen = set()
            for s in itertools.product(range(q), repeat=2 * t):
                want = _hankel_reference(f, s, t)
                assert _locator_or_text(code, s, t) == want, (q, s)
                seen.add(want if isinstance(want, str) else "unique")
            assert len(seen) == 4, (q, t, seen)
    # Random syndrome vectors of real codes at every t up to tau: uniform
    # ones (mostly L = t), syndromes of errors of every weight (L = weight,
    # as long as 2 weight <= n - k) and sparse ones.
    for q, k, kw in ((16, 6, {"reduction": 0x19, "alpha": 6}), (256, 223, {}), (257, 200, {})):
        code = get_code(q, k, **kw)
        rng = random.Random(q + k)
        r = code.n - code.k
        vectors = [[rng.randrange(q) for _ in range(r)] for _ in range(8)]
        for weight in range(code.tau + 2):
            word = corrupt(rng, code, code.encode([rng.randrange(q) for _ in range(k)]), weight)
            vectors.append(code.syndromes(word))
        for _ in range(8):
            s = [0] * r
            for i in rng.sample(range(r), rng.randrange(1, 4)):
                s[i] = rng.randrange(1, q)
            vectors.append(s)
        for s in vectors:
            for t in sorted(rng.sample(range(1, code.tau + 1), min(3, code.tau))):
                assert _locator_or_text(code, s, t) == _hankel_reference(code.field, s, t), (q, s, t)


def test_locator_t_range_validated(rs72):
    with pytest.raises(ValueError):
        solve_locator(rs72, (3, 1, 5, 4), 0)
    with pytest.raises(ValueError):
        solve_locator(rs72, (3, 1, 5, 4), 3)


@pytest.mark.parametrize("q, k, kw, found", [
    (7, 2, {"alpha": 5}, {1: 6, 2: 258}),
    (13, 5, {}, {3: 15}),
])
def test_rank_scan_locator_failure_is_the_zero_constant(q, k, kw, found):
    # Words past the radius, searched for a rank-scan t whose leading t x t
    # Hankel block is singular: every syndrome class of GF(7) k = 2 (one
    # word on positions 0, ..., n-k-1 each) and a seeded sample of GF(13)
    # k = 5.  There is none, and there can be none, so neither
    # no_solution nor underdetermined follows the rank scan: its t is the
    # linear complexity of all n - k syndromes (a length-t LFSR generates
    # them, no shorter one does), and s_0, ..., s_(2t-1) have complexity t
    # too, as a complexity l < t there would have to jump at some index
    # N >= 2t to at least N + 1 - l > t (Massey, 1969).  The locator
    # stage's only failure there is the zero constant term, with the text,
    # type and rank_checks that `decode` and `decode_via_positions` raise.
    code = get_code(q, k, **kw)
    f, r = code.field, code.n - code.k
    rng = random.Random(q * 31 + k)
    if q == 7:
        words = [w + (0,) * k for w in itertools.product(range(q), repeat=r)]
    else:  # 7% of these have t <= tau, 0.5% a zero constant term
        words = [random_word(rng, code) for _ in range(3000)]
    failures = {fn: {} for fn in (decode, decode_via_positions)}
    for word in words:
        s = code.syndromes(word)
        t = detect_error_count(code, s)
        if not t:
            continue
        want = _hankel_reference(f, s, t)
        assert isinstance(want, Poly) or want == _ZERO_TEXT, (word, want)
        for fn, seen in failures.items():
            try:
                fn(code, word)
            except SingularLocatorSystem as exc:
                assert str(exc) == want == _ZERO_TEXT, (word, fn)
                assert exc.trace.rank_checks == t + 1, (word, fn)
                seen[t] = seen.get(t, 0) + 1
            except DecodeFailure:
                pass
    assert failures == {decode: found, decode_via_positions: found}


def test_no_decode_solves_the_locator_system_by_elimination(monkeypatch):
    # The paper scans take the locator from `solve_locator`, once a decode,
    # and it never calls `FeMat.solve`; nor does any other stage.
    from rscodec import decode_interp

    def forbidden(self, rhs):
        raise AssertionError("no decode calls FeMat.solve")

    calls = []
    solve = decode_interp.solve_locator
    monkeypatch.setattr(FeMat, "solve", forbidden)
    monkeypatch.setattr(decode_interp, "solve_locator",
                        lambda code, s, t: calls.append(t) or solve(code, s, t))
    code = get_code(256, 223)
    rng = random.Random(223)
    cws, words = [], []
    for t in (1, 8, 16):
        cws.append(code.encode([rng.randrange(256) for _ in range(223)]))
        words.append(corrupt(rng, code, cws[-1], t))
    for name in ("interp", "interp-pos", "pgz"):
        for t, cw, word in zip((1, 8, 16), cws, words):
            calls.clear()
            assert DECODERS[name](code, word).codeword == cw
            assert calls == [t], name
        calls.clear()
        rows = decode_blocks(code, np.array(words), name)[1]
        assert [row.codeword for row in rows] == cws and calls == [1, 8, 16], name


def test_no_decode_imports_or_runs_femat(monkeypatch):
    # Both paper scans run the one Hankel elimination, `_hankel_scan`:
    # `decode_interp` imports nothing from `femat`, and no decode, within
    # the radius or past it, reaches its elimination.
    import ast
    import inspect

    from rscodec import decode_interp, femat

    tree = ast.parse(inspect.getsource(decode_interp))
    imported = [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    imported += [a.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                 for a in node.names]
    assert "gf" in imported and not [name for name in imported if "femat" in name]

    def forbidden(*args):
        raise AssertionError("no decode runs femat's elimination")

    monkeypatch.setattr(femat, "_eliminate", forbidden)
    rng = random.Random(37)
    for code in (get_code(13, 5), get_code(16, 6, reduction=0x19, alpha=6)):
        words = [corrupt(rng, code, code.encode([rng.randrange(code.field.q)
                                                 for _ in range(code.k)]), t)
                 for t in range(code.tau + 1)]
        words += [random_word(rng, code) for _ in range(30)]
        for name in DECODERS:
            for word in words:
                try:
                    DECODERS[name](code, word)
                except DecodeFailure:
                    pass
            decode_blocks(code, np.array(words), name)


# ----- step 3: codeword polynomial recovery --------------------------------------------

def test_recover_fixtures(rs72):
    f7 = rs72.field
    gc = recover_codeword_polynomial(rs72, U, Poly(f7, (2, 1)), 1)
    assert gc == Poly(f7, (5, 6))
    gc = recover_codeword_polynomial(rs72, W, Poly(f7, (6, 2, 1)), 2)
    assert gc == Poly(f7, (3, 4))
    # a scaled locator has the same roots and gives the same polynomial
    gc = recover_codeword_polynomial(rs72, W, Poly(f7, (6, 2, 1)).scale(3), 2)
    assert gc == Poly(f7, (3, 4))


def test_recover_of_a_codeword_is_its_message(rs72):
    # All syndromes vanish, so the quotient is zero whatever the locator.
    codeword = rs72.encode((5, 6))
    for locator in (Poly(rs72.field, (2, 1)), Poly(rs72.field, (3, 1))):
        got = recover_codeword_polynomial(rs72, codeword, locator, 1)
        assert got == Poly(rs72.field, (5, 6))


def test_recover_inexact_division_detected(rs72):
    # x^2 is monic of degree 2 but does not divide the wrapped high part.
    with pytest.raises(InexactDivision):
        recover_codeword_polynomial(rs72, U, Poly(rs72.field, (0, 0, 1)), 2)


def test_recover_degree_guard_detected(rs72):
    # x + 3 divides x^6 - 1, so division is exact, but the recovered
    # polynomial has degree 4 >= k = 2.
    with pytest.raises(DegreeTooHigh):
        recover_codeword_polynomial(rs72, U, Poly(rs72.field, (3, 1)), 1)


def test_recover_validates_t(rs72):
    # t must be the locator's degree, in 1..tau: t != degree, t = 0, t = tau + 1.
    for coeffs, t in (((2, 1), 2), ((1,), 0), ((1, 2, 3, 1), 3)):
        with pytest.raises(ValueError, match=f"t={t} must be the locator degree"):
            recover_codeword_polynomial(rs72, U, Poly(rs72.field, coeffs), t)


@pytest.mark.parametrize("q, k, kw", [
    (7, 2, {"alpha": 5}),
    (16, 6, {"reduction": 0x19, "alpha": 6}),
    (256, 223, {}),
])
def test_recover_reads_only_the_top_coefficients(q, k, kw):
    # The recover tail takes mu from the top t coefficients of f_u; its
    # intermediates equal those of the full product lambda * f_u, lambda
    # having the t distinct roots alpha^i of the error positions.  About
    # half of the words have an error with s_0 = e(alpha) = 0, so that
    # f_u's top coefficient f_(n-1) = -s_0 is zero.
    code = get_code(q, k, **kw)
    f = code.field
    rng = random.Random(q + k)
    zero_top = 0
    for _ in range(30):
        t = rng.randrange(1, code.tau + 1)
        cw = code.encode([rng.randrange(q) for _ in range(k)])
        positions = rng.sample(range(code.n), t)
        values = [rng.randrange(1, q) for _ in range(t)]
        if t >= 2 and rng.random() < 0.5:
            rest = 0
            for pos, v in zip(positions[:-1], values):
                rest = f.add(rest, f.mul(v, f.pow(f.alpha, pos)))
            values[-1] = f.neg(f.div(rest, f.pow(f.alpha, positions[-1])))
        if 0 in values:
            continue
        word = list(cw)
        for pos, v in zip(positions, values):
            word[pos] = f.add(word[pos], v)
        out = decode(code, word)
        assert out.codeword == cw
        interp = code.interpolate(word)
        high = (out.locator * interp).coeffs[code.n:]
        assert out.trace.high_quotient.coeffs == high
        assert out.trace.high_quotient == Poly(f, high)
        assert out.trace.interp_degree == interp.degree
        zero_top += interp.degree < code.n - 1
    assert zero_top > 0


@pytest.mark.parametrize("q, kw", [
    (7, {"alpha": 5}),
    (13, {}),
    (257, {}),  # the prime-field branch on the largest n here
    (16, {"reduction": 0x19, "alpha": 6}),
    (256, {}),
])
def test_wrapped_quotient_matches_long_division(q, kw):
    # The recover tail's quotient of (x^n - 1) mu by a monic lambda of
    # degree t <= tau, run from the quotient's top t coefficients, equals
    # `Poly.__divmod__`'s quotient of the wrapped dividend, and its verdict
    # is whether the remainder vanishes, whether lambda divides the dividend
    # (a product of distinct x - alpha^i divides x^n - 1) or not.  mu is the
    # coefficients t, ..., 2t - 1 of lambda * top, the one mu with that top.
    # lambda may have zero inner coefficients or lambda(0) = 0, and the top
    # trailing zeros.
    f = get_field(q, **kw)
    n = q - 1
    tau = (n - 1) // 2
    rng = random.Random(q)
    degrees = range(1, tau + 1) if tau <= 7 else [1, 2, 3, 5, 8, 16, tau]
    verdicts = set()
    for t in degrees:
        for case in range(6):
            if case == 0:
                lam = Poly.one(f)
                for i in rng.sample(range(n), t):
                    lam = lam * Poly(f, (f.neg(f.exp[i]), 1))
                lam = lam.coeffs
            else:
                lam = [rng.randrange(q) for _ in range(t)] + [1]
                if case == 1:
                    lam[0] = 0
                if case == 2 and t > 1:
                    for i in rng.sample(range(1, t), (t + 1) // 2):
                        lam[i] = 0
            top = [rng.randrange(q) for _ in range(t)]
            if case >= 3:
                zeros = t if case == 5 else rng.randrange(1, t + 1)
                top[t - zeros:] = [0] * zeros
            high = Poly(f, (Poly(f, lam) * Poly(f, top)).coeffs[t:])
            wrapped = high.shifted(n) - high
            quot, exact = _wrapped_quotient(f, lam, np.array(top, dtype=np.int64), n)
            assert quot.shape == (n,)
            want, rem = divmod(wrapped, Poly(f, lam))
            assert Poly(f, quot.tolist()) == want, (t, case)
            assert exact is rem.is_zero(), (t, case)
            verdicts.add(exact)
    assert verdicts == {True, False}


@pytest.mark.parametrize("q, kw", [
    (7, {"alpha": 5}),
    (257, {}),
    (16, {"reduction": 0x19, "alpha": 6}),
    (256, {}),
])
def test_error_evaluator_is_the_truncated_product(q, kw):
    # Forney's Omega, which both tails take (the recover tail as mu
    # reversed), is the low t coefficients of (sum_(r<t) s_r x^r) Lambda,
    # Lambda_j = lambda_(t-j).  Forming it counts exactly one product per
    # nonzero Lambda_j s_(r-j) with 1 <= j <= r < t.  Locators with zero
    # coefficients and syndromes with zeros exercise the skipped products.
    f = get_field(q, **kw)
    rng = random.Random(q + 1)
    for _ in range(60):
        t = rng.randrange(1, 17)
        lam = [rng.randrange(q) if rng.random() < 0.7 else 0 for _ in range(t)] + [1]
        synd = np.array([rng.randrange(q) if rng.random() < 0.7 else 0
                         for _ in range(t + 3)], dtype=np.int64)
        big_lam = lam[::-1]
        with gf.MulOpCounter() as ctr:
            omega = _error_evaluator(f, np.array(lam, dtype=np.int64), synd)
        product = (Poly(f, synd[:t].tolist()) * Poly(f, big_lam)).coeffs[:t]
        assert omega == list(product) + [0] * (t - len(product))
        assert ctr.count == sum(
            1 for j in range(1, t) for r in range(j, t) if big_lam[j] and synd[r - j])


def test_recover_codeword_polynomial_evaluates_the_word_once(monkeypatch):
    # On RS(255,223) at t = 16 the word's one evaluation at all n points
    # gives the syndromes and low(u), and the codeword polynomial is
    # low(u) - Q[:k]: no further evaluation, 10 821 products, where
    # encoding the message into a codeword as well counted 16 612.
    # Deterministic.
    rng = random.Random(255)
    code = get_code(256, 223)
    msg = [rng.randrange(256) for _ in range(223)]
    word = corrupt(rng, code, code.encode(msg), 16)
    locator = decode(code, word).locator
    calls = []
    field_cls = type(code.field)
    eval_at_powers = field_cls.eval_at_powers

    def recording_eval(self, coeffs, first=0, count=None):
        calls.append((first, count))
        return eval_at_powers(self, coeffs, first, count)

    monkeypatch.setattr(field_cls, "eval_at_powers", recording_eval)
    with gf.MulOpCounter() as ctr:
        got = recover_codeword_polynomial(code, word, locator, 16)
    assert got == Poly(code.field, msg)
    assert calls == [(1, code.n)]
    assert ctr.count < 12_000


@pytest.mark.parametrize("name", sorted(DECODERS))
def test_a_decode_evaluates_only_int64_arrays(name, monkeypatch):
    # `eval_at_powers` checks anything but an int64 array through
    # `Field.asarray`; every decoder stage, and the lazy message, hands it
    # int64 arrays, which it trusts, so no decode pays that check.
    rng = random.Random(29)
    code = get_code(256, 223)
    word = corrupt(rng, code, code.encode([rng.randrange(256) for _ in range(223)]), 5)
    seen = []
    field_cls = type(code.field)
    eval_at_powers = field_cls.eval_at_powers

    def recording_eval(self, coeffs, first=0, count=None):
        seen.append(coeffs)
        return eval_at_powers(self, coeffs, first, count)

    monkeypatch.setattr(field_cls, "eval_at_powers", recording_eval)
    outcome = DECODERS[name](code, word)
    assert outcome.error_count == 5 and outcome.message
    assert seen and all(isinstance(c, np.ndarray) and c.dtype == np.int64 for c in seen)


# ----- full decode fixtures ---------------------------------------------------------------

def test_decode_single_error_fixture(rs72):
    out = decode(rs72, U)
    assert out.codeword == (4, 0, 1, 6, 3, 2)
    assert out.error == (0, 2, 0, 0, 0, 0)
    assert out.error_count == 1
    assert out.locator == Poly(rs72.field, (2, 1))
    assert out.trace.rank_checks == 2
    assert out.trace.det_checks == 0
    assert out.trace.interp_degree == 5
    assert out.trace.high_quotient == Poly(rs72.field, (4,))
    assert out.trace.high_quotient.coeffs == (4,)


def test_decode_double_error_fixture(rs72):
    out = decode(rs72, W)
    assert out.codeword == (0, 2, 5, 6, 4, 1)
    assert out.error == (0, 0, 0, 0, 3, 5)
    assert out.error_count == 2
    assert out.locator == Poly(rs72.field, (6, 2, 1))
    assert out.trace.rank_checks == 3
    assert out.trace.high_quotient == Poly(rs72.field, (6,))


def test_high_quotient_is_formed_when_read(rs72, monkeypatch):
    # The recover tail forms mu, and counts its products, only when the
    # trace's high_quotient is first read; a second read, or a trace
    # compared equal, forms it no more.  W's mu has no products.
    from rscodec import decode_interp

    calls = []
    evaluator = decode_interp._error_evaluator
    monkeypatch.setattr(decode_interp, "_error_evaluator",
                        lambda *args: calls.append(args) or evaluator(*args))
    out = decode(rs72, W)
    assert calls == []
    with gf.MulOpCounter() as reading:
        assert out.trace.high_quotient == Poly(rs72.field, (6,))
        assert out.trace == DecodeTrace(3, 0, 4, Poly(rs72.field, (6,)))
    assert len(calls) == 1 and reading.count == 0
    # On RS(255,223) at t = 16, mu has 120 products, one per nonzero
    # Lambda_j s_(r-j): the decode no longer counts them (22 805 when it
    # did), the first read counts exactly them, a second read none.  The
    # decode's 21 575 are 22 805 - 120 less the 1 632 of the locator
    # system's elimination, plus the 501 of Massey's synthesis on
    # s_0, ..., s_31 that replaced it, plus the 21 more products that the
    # right-looking rank scan forms on this word (3 095 against 3 074).
    rng = random.Random(255)
    code = get_code(256, 223)
    word = corrupt(rng, code, code.encode([rng.randrange(256) for _ in range(223)]), 16)
    with gf.MulOpCounter() as decoding:
        out = decode(code, word)
    with gf.MulOpCounter() as reading:
        out.trace.high_quotient
    with gf.MulOpCounter() as again:
        out.trace.high_quotient
    lam, synd = out.locator.coeffs[::-1], code.syndromes(word)
    assert reading.count == 120 == sum(
        1 for j in range(1, 16) for r in range(j, 16) if lam[j] and synd[r - j])
    assert decoding.count == 21_575 and again.count == 0


def test_outcome_fields_are_formed_when_read():
    # The outcome forms codeword, error and locator from the pipeline's
    # arrays on first read, with no product.  Its message, unless the
    # decoder holds it, is k evaluations of the codeword, counted on that
    # read: 6 349 products on this RS(255,223) t = 8 word by `bm` and by
    # `interp` (whose tail takes the orbit route here), as when the
    # outcome's tuples were built before it returned.  Deterministic.
    rng = random.Random(8)
    code = get_code(256, 223)
    msg = tuple(rng.randrange(256) for _ in range(223))
    cw = code.encode(msg)
    word = corrupt(rng, code, cw, 8)
    for name in ("bm", "interp"):
        out = DECODERS[name](code, word)
        with gf.MulOpCounter() as forming:
            assert out.codeword == cw and out.error_count == 8
            assert out.error == tuple(code.field.sub(u, c) for u, c in zip(word, cw))
            assert out.locator.degree == 8 and out.locator.coeffs[-1] == 1
        with gf.MulOpCounter() as reading:
            assert out.message == msg
        assert forming.count == 0 and reading.count == 6_349, name


@pytest.mark.parametrize("t", [0, 3])
def test_outcome_outlives_the_callers_word_array(t):
    # An int64 word array is validated without a copy, so the pipeline runs
    # on the caller's array; an outcome, whose fields are formed when read,
    # must not read it then.  decode_blocks' returned messages are the
    # caller's too.  The caller overwrites both before reading.
    rng = random.Random(t)
    code = get_code(16, 6, reduction=0x19, alpha=6)
    msgs = [tuple(rng.randrange(16) for _ in range(6)) for _ in range(2)]
    cws = [code.encode(m) for m in msgs]
    words = [corrupt(rng, code, cw, t) for cw in cws]
    for name in DECODERS:
        arrays = [np.array(u, dtype=np.int64) for u in words]
        outs = [DECODERS[name](code, a) for a in arrays]
        block = np.array(words, dtype=np.int64)
        messages, results, _ = decode_blocks(code, block, name)
        assert messages.tolist() == [list(m) for m in msgs]
        for a in arrays + [block, messages]:
            a[:] = 0
        for out, u, cw, msg in zip(outs + results, words * 2, cws * 2, msgs * 2):
            assert (out.codeword, out.message) == (cw, msg), name
            assert out.error == tuple(code.field.sub(x, c) for x, c in zip(u, cw)), name


def test_decode_codeword_fixture(rs72, monkeypatch):
    # Zero syndromes answer the one rank check without the elimination.
    def no_elimination(code, syndromes):
        raise AssertionError("the rank scan eliminated zero syndromes")

    monkeypatch.setattr("rscodec.decode_interp._rank_count", no_elimination)
    out = decode(rs72, V)
    assert out.codeword == V
    assert out.error == (0,) * 6
    assert out.error_count == 0
    assert out.locator == Poly.one(rs72.field)
    assert out.trace.rank_checks == 1


def test_decode_too_many_errors_deterministic():
    # RS(7, 5, 4): n - k = 2, tau = 1.  The word 2 + x has syndromes
    # (0, 6): no t <= 1 fits.
    code = get_code(7, 4, alpha=5)
    word = (2, 1, 0, 0, 0, 0)
    with pytest.raises(TooManyErrors) as exc_info:
        decode(code, word)
    assert exc_info.value.trace.rank_checks == code.tau + 1


def test_decode_singular_locator_deterministic():
    # RS(7, 5, 4): the word 3 + x has syndromes (1, 0): t = 1 is detected
    # but the locator constant term comes out zero.
    code = get_code(7, 4, alpha=5)
    assert code.syndromes((3, 1, 0, 0, 0, 0)) == (1, 0)
    with pytest.raises(SingularLocatorSystem):
        decode(code, (3, 1, 0, 0, 0, 0))


def test_decode_validates_word(rs72):
    for dec in DECODERS.values():
        with pytest.raises(ValueError):
            dec(rs72, (1, 2, 3))
        with pytest.raises(ValueError):
            dec(rs72, (0, 0, 0, 0, 0, 9))
        # accepted exactly as Field.check accepts each symbol
        for word in ((3, 4, 2, 6, 5, False), np.array(V, dtype=np.uint8),
                     np.array(V, dtype=np.int64), [np.int64(x) for x in V]):
            out = dec(rs72, word)
            assert out.codeword == V and type(out.codeword[-1]) is int
        assert dec(rs72, (3, 4, 2, 6, 5, True)).error == (0, 0, 0, 0, 0, 1)
        for bad in (2.0, 2.5, -1, 7, 2 ** 70, np.float64(2), np.True_):
            with pytest.raises(ValueError):
                dec(rs72, (3, 4, bad, 6, 5, 0))
        for word in (np.array(V, dtype=float), np.array(V, dtype=bool), np.array(V) + 0.5):
            with pytest.raises(ValueError):
                dec(rs72, word)
        # a codeword and a word with one error, in every accepted container:
        # the outcome holds Python ints, never numpy scalars
        for word, cw in ((V, V), (U, (4, 0, 1, 6, 3, 2))):
            want = dec(rs72, word)
            assert want.codeword == cw
            for given in (word, list(word), np.array(word, dtype=np.int64),
                          np.array(word, dtype=np.uint8)):
                out = dec(rs72, given)
                assert (out.codeword, out.error, out.message) == \
                    (want.codeword, want.error, want.message)
                for symbols in (out.codeword, out.error, out.message):
                    assert all(type(x) is int for x in symbols)


# ----- position-reading variant --------------------------------------------------------------

def test_positions_fixture_single(rs72):
    out = decode_via_positions(rs72, U)
    assert out.codeword == (4, 0, 1, 6, 3, 2)
    assert out.error == (0, 2, 0, 0, 0, 0)
    # locator x + 2 has root 5 = alpha^1, so the error is at position 1
    assert out.locator.roots_nonzero() == {5}
    assert out.trace.rank_checks == 2


def test_positions_fixture_double(rs72):
    out = decode_via_positions(rs72, W)
    assert out.codeword == (0, 2, 5, 6, 4, 1)
    assert out.error == (0, 0, 0, 0, 3, 5)
    # roots 2 = alpha^4 and 3 = alpha^5 give positions 4 and 5; the value
    # system [[2, 3], [4, 2]] (e_4, e_5) = (0, 1) solves to (3, 5)
    assert out.locator.roots_nonzero() == {2, 3}


@pytest.mark.parametrize("q, k, kw", [
    (7, 2, {"alpha": 5}),
    (16, 6, {"reduction": 0x19, "alpha": 6}),
    (257, 236, {}),
])
def test_forney_values_solve_the_value_system(q, k, kw):
    # For any syndromes and any locator with t distinct nonzero roots
    # alpha^(i_j), Forney's values are the solution of the t x t system
    # sum_j alpha^((r+1) i_j) e_j = s_r (r < t).  So the positions tail
    # subtracts the same values as a linear solve would, past the radius too.
    # Every third locator (t >= 2) gets the syndromes of an error that is 0
    # at its first root: that root's numerator Omega(X^-1) is 0, so is its
    # value, and a decode that takes this locator fails verify at distance
    # t - 1.  Each call forms the Chien search's products, Omega's (one per
    # nonzero Lambda_j s_(r-j), j >= 1), t nnz(Omega_1...) for the
    # numerators, nnz(num) (nnz(Lambda'_1...) + 1) for the denominators
    # and the divisions, and on a prime field one per nonzero Lambda_j,
    # j >= 2, for Lambda' 's factors j.
    code = get_code(q, k, **kw)
    f = code.field
    prime = f.kind == "prime"
    n = code.n
    rng = random.Random(q + 7)
    zero = np.zeros(n, dtype=np.int64)  # the tails take the validated word array
    zero_numerators = 0
    for case in range(60):
        t = rng.randrange(1, code.tau + 1)
        positions = sorted(rng.sample(range(n), t))
        locator = Poly.one(f)
        for i in positions:
            locator = locator * Poly(f, (f.neg(f.pow(f.alpha, i)), 1))
        err = None
        if case % 3 or t < 2:
            synd = tuple(rng.randrange(q) for _ in range(n - code.k))
        else:
            err = [0] * n
            for i in positions[1:]:
                err[i] = rng.randrange(1, q)
            synd = code.syndromes(err)
        system = FeMat(f, [[f.pow(f.alpha, (r + 1) * i) for i in positions]
                           for r in range(t)])
        want = system.solve(list(synd[:t])).solution
        with gf.MulOpCounter() as chien:
            locator.roots_nonzero()
        with gf.MulOpCounter() as tail:
            cw, message = _error_positions_and_values(
                code, zero, np.array(synd, dtype=np.int64),
                np.array(locator.coeffs, dtype=np.int64), DecodeTrace())
        assert message is None
        got = tuple(f.neg(c) for c in cw.tolist())
        assert tuple(got[i] for i in positions) == want
        assert not any(c for j, c in enumerate(got) if j not in positions)

        lam = locator.coeffs[::-1]  # Lambda_j = lambda_(t-j)
        omega = ((Poly(f, synd[:t]) * Poly(f, lam)).coeffs + (0,) * t)[:t]
        deriv = [j * lam[j] % f.p if prime else lam[j] * (j % 2) for j in range(1, t + 1)]
        nums = [Poly(f, omega)(f.pow(f.alpha, -i % n)) for i in positions]
        nnz = np.count_nonzero
        assert type(tail.count) is int  # a numpy count would leak into every later total
        assert tail.count == (chien.count
                              + sum(1 for j in range(1, t) if lam[j]
                                    for r in range(j, t) if synd[r - j])
                              + t * nnz(omega[1:]) + nnz(nums) * (nnz(deriv[1:]) + 1)
                              + (nnz(lam[2:]) if prime else 0))
        if err is not None:
            assert nums[0] == 0 and got[positions[0]] == 0
            zero_numerators += 1
            sent = code.encode([rng.randrange(q) for _ in range(code.k)])
            word = [f.add(c, e) for c, e in zip(sent, err)]
            with pytest.raises(VerifyFailed, match=(
                    rf"^decoded codeword is at distance {t - 1}, expected exactly {t}$")):
                _run(code, word, lambda code, synd, trace: (t, np.array(locator.coeffs)),
                     _error_positions_and_values)
    assert zero_numerators > 0


def test_positions_codeword(rs72):
    out = decode_via_positions(rs72, V)
    assert out.codeword == V and out.error_count == 0


def test_positions_root_count_mismatch():
    # Over RS(13, 2, 2) craft a locator whose roots are not all in the
    # field orbit by calling the internal path through a beyond-capability
    # word; RootCountMismatch or another DecodeFailure must surface, never
    # a silent wrong answer.
    code = get_code(13, 2)
    rng = random.Random(42)
    seen_fail = 0
    for _ in range(300):
        u = random_word(rng, code)
        try:
            out = decode_via_positions(code, u)
        except DecodeFailure:
            seen_fail += 1
        else:
            assert code.is_codeword(out.codeword)
            assert hamming(u, out.codeword) == out.error_count <= code.tau
    assert seen_fail > 0


@pytest.mark.parametrize("q, k, kw", [
    (7, 2, {"alpha": 5}),
    (16, 6, {"reduction": 0x19, "alpha": 6}),
])
def test_verify_rejects_a_wrong_tail(q, k, kw):
    # A tail whose answer is not a codeword, or is a codeword at a distance
    # other than t, fails the final check and carries the count stage's trace.
    code = get_code(q, k, **kw)
    f = code.field
    rng = random.Random(q)
    cw = code.encode([rng.randrange(q) for _ in range(k)])
    t = code.tau
    u = corrupt(rng, code, cw, t)
    not_codeword = (f.add(cw[0], 1),) + cw[1:]
    sparse = (1,) + (0,) * (code.n - 1)
    far = tuple(f.add(c, 1) for c in cw)  # cw plus the codeword (1, ..., 1)
    cases = [
        (not_codeword, "decoded word is not a codeword"),
        (sparse, "decoded word is not a codeword"),
        (far, f"decoded codeword is at distance {hamming(u, far)}, expected exactly {t}"),
    ]
    assert hamming(u, far) != t and code.is_codeword(far)
    for stage, rank_checks in ((_rank_scan, t + 1), (_bm_scan, 0)):
        for answer, message in cases:
            def tail(code, word, synd, locator, trace):
                return answer, None
            with pytest.raises(VerifyFailed) as info:
                _run(code, u, stage, tail)
            assert str(info.value) == message
            assert isinstance(info.value.trace, DecodeTrace)
            assert info.value.trace.rank_checks == rank_checks


# ----- properties ------------------------------------------------------------------------------

@pytest.mark.parametrize("q", [7, 11, 13, 17])
def test_roundtrip_all_dimensions(q):
    # For every k, random codewords plus weight-t errors decode back, with
    # the documented trace counters.
    rng = random.Random(q * 101)
    n = q - 1
    for k in range(1, n - 1):
        code = get_code(q, k)
        f = code.field
        for _ in range(500):
            msg = [rng.randrange(q) for _ in range(k)]
            cw = code.encode(msg)
            t = rng.randrange(code.tau + 1)
            u = corrupt(rng, code, cw, t)
            out = decode(code, u)
            assert out.codeword == cw
            assert out.error_count == t
            assert out.trace.rank_checks == t + 1
            assert hamming(u, cw) == t
            assert out.error == tuple(f.sub(a, b) for a, b in zip(u, cw))


@pytest.mark.parametrize("q, k, accepted", [(5, 1, 85), (5, 2, 425), (5, 3, 125), (4, 1, 40)])
def test_whole_space_ball_volume(q, k, accepted):
    # Every word of GF(5)^4, and of GF(4)^3 for a binary field: all
    # registered decoders accept the same words, with the same codewords,
    # and exactly q^k * sum_(i <= tau) C(n, i)(q-1)^i of them, the words
    # within tau of a codeword; every rejection is typed.
    # scripts/whole_space.py runs the GF(7) spaces, too slow for this suite.
    code = get_code(q, k)
    assert ball_volume(code) == accepted
    assert whole_space_accepted(code) == accepted


def test_class_law_binary_tau_two():
    # GF(8) k = 3, the first binary space with tau >= 2, has 8^7 words: too
    # many for the whole-space law, but one word per syndrome class decides
    # it.  Each decoder accepts exactly the sum_(i <= 2) C(7, i) 7^i error
    # patterns, each in its own class.
    code = get_code(8, 3)
    assert ball_volume(code) == 8 ** 3 * 1079
    assert class_law_accepted(code, random.Random(8)) == 1079


def test_class_law_matches_whole_space():
    # On GF(5)^4 the class law and the whole-space law count the same
    # space: q^k words in each accepted class.
    code = get_code(5, 2)
    assert whole_space_accepted(code) == 5 ** 2 * class_law_accepted(code, random.Random(5))


def test_locator_factors_over_error_positions():
    code = get_code(13, 4)
    f = code.field
    rng = random.Random(77)
    for _ in range(300):
        msg = [rng.randrange(13) for _ in range(4)]
        cw = code.encode(msg)
        t = rng.randrange(1, code.tau + 1)
        u = corrupt(rng, code, cw, t)
        out = decode(code, u)
        # locator = prod over error positions i of (x - alpha^i)
        want = Poly.one(f)
        for i, e in enumerate(out.error):
            if e:
                want = want * Poly(f, (f.neg(f.pow(f.alpha, i)), 1))
        assert out.locator == want
        assert out.locator.coeffs[0] != 0
        # and the recovered polynomial interpolates the codeword
        assert code.interpolate(out.codeword).degree < code.k


def test_path_equivalence_on_random_words():
    # both halves agree on arbitrary words: same outcome or same failure
    rng = random.Random(5)
    for q, k in ((7, 2), (13, 4), (16, 3)):
        code = get_code(q, k)
        for _ in range(400):
            u = random_word(rng, code)
            try:
                a = decode(code, u)
            except DecodeFailure as exc:
                a = type(exc)
            try:
                b = decode_via_positions(code, u)
            except DecodeFailure as exc:
                b = type(exc)
            if isinstance(a, type):
                assert isinstance(b, type), (u, a, b)
            else:
                assert not isinstance(b, type), (u, a, b)
                assert a.codeword == b.codeword
                assert a.error == b.error
                assert a.error_count == b.error_count
                assert a.locator == b.locator
                assert a.trace.rank_checks == b.trace.rank_checks


def test_beyond_capability_never_silently_wrong(rs72):
    # weight tau + 1 = 3: decode either fails or lands on a genuine
    # codeword within distance tau of the received word, which the oracle
    # then confirms as the unique nearest codeword.
    rng = random.Random(6)
    fails = successes = 0
    for _ in range(400):
        msg = [rng.randrange(7) for _ in range(2)]
        cw = rs72.encode(msg)
        u = corrupt(rng, rs72, cw, 3)
        try:
            out = decode(rs72, u)
        except DecodeFailure:
            fails += 1
            continue
        successes += 1
        assert rs72.is_codeword(out.codeword)
        d = hamming(u, out.codeword)
        assert d == out.error_count <= rs72.tau
        near = brute_nearest(rs72, u)
        assert near.codeword == out.codeword
        assert near.distance == d
        assert near.unique
    assert fails > 0 and successes > 0


def test_interp_degree_recorded(rs72):
    out = decode(rs72, U)
    assert out.trace.interp_degree == 5
    out = decode(rs72, V)
    assert out.trace.interp_degree is None  # fast path never interpolates


def test_failure_carries_trace():
    code = get_code(7, 4, alpha=5)
    try:
        decode(code, (2, 1, 0, 0, 0, 0))
    except TooManyErrors as exc:
        assert exc.trace is not None
        assert exc.trace.rank_checks == 2
    else:
        pytest.fail("expected TooManyErrors")


def _scan_counters(code, name, word):
    """The (rank_checks, det_checks) that decoder `name` records on `word`,
    from the public scan definitions."""
    s = code.syndromes(word)
    if name in ("interp", "interp-pos"):
        t = detect_error_count(code, s)
        return (code.tau if t is None else t) + 1, 0
    if name == "pgz":
        for h in range(code.tau, 0, -1):
            if FeMat(code.field, [s[i:i + h] for i in range(h)]).det():
                return 0, code.tau - h + 1
        return 0, code.tau
    return 0, 0


@pytest.mark.parametrize("q, k, kw", [
    (7, 2, {"alpha": 5}),
    (13, 5, {}),
    (16, 6, {"reduction": 0x19, "alpha": 6}),
])
def test_every_failure_carries_its_scan_counters(q, k, kw):
    # Whichever stage raises, the failure carries the row's trace with the
    # counters its count stage set, from the one-word call and from a
    # `decode_blocks` row alike.
    code = get_code(q, k, **kw)
    rng = random.Random(q * 7 + k)
    words = [corrupt(rng, code, code.encode([rng.randrange(q) for _ in range(k)]), t)
             for t in range(code.tau + 1, min(code.n, code.tau + 4)) for _ in range(25)]
    words += [random_word(rng, code) for _ in range(50)]
    blocks = np.array(words, dtype=np.int64)
    kinds = set()
    for name, fn in DECODERS.items():
        rows = decode_blocks(code, blocks, name)[1]
        for word, row in zip(words, rows):
            try:
                fn(code, word)
            except DecodeFailure as exc:
                assert type(row) is type(exc), (name, word)
                want = _scan_counters(code, name, word)
                for got in (exc, row):
                    assert isinstance(got.trace, DecodeTrace), (name, word)
                    assert (got.trace.rank_checks, got.trace.det_checks) == want, (name, word)
                kinds.add(type(exc))
    assert {TooManyErrors, SingularLocatorSystem, InexactDivision, RootCountMismatch} <= kinds


# ----- the batched entry ---------------------------------------------------------------------

@pytest.mark.parametrize("q, k, kw", [
    (7, 2, {"alpha": 5}),
    (16, 6, {"reduction": 0x19, "alpha": 6}),
    (257, 200, {}),  # n = 256 is a prime power: no transform, the direct sum
    (256, 223, {}),
])
def test_decode_blocks_matches_one_word_decoders(q, k, kw):
    # One chunk mixes codewords, words at every t = 1..tau, words past tau
    # and random words; each row matches the one-word decoder of the same
    # name on everything it returns, and a failed row's message is the
    # best-effort low part of its interpolation polynomial.
    code = get_code(q, k, **kw)
    rng = random.Random(q * 31 + k)
    weights = [0, 0, *range(1, code.tau + 1), code.tau + 1, code.tau + 2]
    words = [corrupt(rng, code, code.encode([rng.randrange(q) for _ in range(k)]), t)
             for t in weights]
    words += [random_word(rng, code) for _ in range(4)]
    rng.shuffle(words)
    blocks = np.array(words, dtype=np.int64)
    failed = 0
    for name, fn in DECODERS.items():
        messages, results, mul_counts = decode_blocks(code, blocks, name)
        assert messages.shape == (len(words), k)
        assert len(results) == len(mul_counts) == len(words)
        for word, message, got, muls in zip(words, messages.tolist(), results, mul_counts):
            assert muls >= 0
            try:
                want = fn(code, word)
            except DecodeFailure as exc:
                failed += 1
                assert type(got) is type(exc)
                assert (str(got), got.reason, got.trace) == (str(exc), exc.reason, exc.trace)
                low = code.word_evaluations(word)[code.n - code.k:]
                assert message == code.low_from_evaluations(low).tolist()
            else:
                assert got == want  # codeword, error, t, locator and trace
                assert got.message == want.message == tuple(message)
    assert failed > 0
    # The rows are validated like one word is.
    with pytest.raises(ValueError):
        decode_blocks(code, blocks[:, 1:], "bm")
    with pytest.raises(ValueError):
        decode_blocks(code, blocks + q, "bm")
    with pytest.raises(ValueError, match=r"unknown decoder 'nope', expected one of "
                                         r"\['bm', 'interp', 'interp-pos', 'pgz'\]"):
        decode_blocks(code, blocks, "nope")
    messages, results, _ = decode_blocks(code, blocks[:0], "interp")
    assert messages.shape == (0, k) and results == []


def test_blocks_as_nested_lists():
    # A nested list or tuple of words decodes as its int64 array does, and
    # both batch maps check their rows alike.
    code = get_code(7, 2, alpha=5)
    rng = random.Random(11)
    words = [corrupt(rng, code, code.encode([rng.randrange(7) for _ in range(2)]), t)
             for t in (0, 1, 2, 3, 1, 2)]
    assert decode_blocks(code, [[4, 0, 1, 6, 3, 2]], "bm")[0].tolist() == [[5, 6]]
    for name in DECODERS:
        want_messages, want_rows, want_muls = decode_blocks(code, np.array(words), name)
        for blocks in ([list(w) for w in words], tuple(words)):
            messages, rows, muls = decode_blocks(code, blocks, name)
            assert messages.tolist() == want_messages.tolist()
            assert muls == want_muls
            for got, want in zip(rows, want_rows, strict=True):
                if isinstance(want, DecodeFailure):
                    assert (type(got), str(got), got.trace) == (type(want), str(want), want.trace)
                else:
                    assert got == want
    assert code.encode_blocks([]).shape == (0, code.n)
    messages, rows, muls = decode_blocks(code, [], "bm")
    assert messages.shape == (0, code.k) and rows == muls == []
    for bad_word, bad_message in (([[1, 2, 3, 4, 5, 6], [1, 2]], [[1, 2], [1]]),
                                  ([[1, 2, 3, 4, 5]], [[1, 2, 3]]),
                                  ([[1, 2, 3, 4, 5, 7]], [[1, 7]])):
        with pytest.raises(ValueError):
            decode_blocks(code, bad_word, "bm")
        with pytest.raises(ValueError):
            code.encode_blocks(bad_message)


def test_blocks_name_a_bad_element_as_an_int():
    # Nested lists pass through an int64 array, whose bad element is named
    # as the int it is, not by its numpy repr (np.int64(7) on numpy 2).
    code = get_code(7, 2, alpha=5)
    with pytest.raises(ValueError, match=r"^7 is not an element of GF\(7\)$"):
        code.encode_blocks([[1, 7]])
    with pytest.raises(ValueError, match=r"^7 is not an element of GF\(7\)$"):
        decode_blocks(code, [[1, 2, 3, 4, 5, 7]], "bm")

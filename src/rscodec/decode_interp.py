"""The decoder pipeline: a count stage, then a tail stage.

Write the received word as u = c + e with c a codeword and e of Hamming
weight t.  `_run` validates the word once, into an int64 array
(`RSCode._checked`); every later stage works on that array, the int64
array of its evaluations and the locator's int64 coefficient array, and
the DecodeOutcome forms its tuples, its locator Poly and its message from
them on first read (`_outcome`).  Of the stages only `solve_locator`, a
public name, checks its syndromes again.  Every decoder runs one flow on
the n - k syndromes s_r = u(alpha^(r+1)):

1. count stage: find t <= tau and the monic error locator lambda, whose
   roots are alpha^i for the error positions i, or raise TooManyErrors or
   SingularLocatorSystem; t = 0 returns at once;
2. tail stage: turn the word array and the locator into a codeword array;
3. verify codeword membership (the error word - codeword has the word's
   syndromes) and distance exactly t.

Count stages, each (code, syndromes, trace) -> (t, lambda array): lambda
is the monic locator's int64 coefficients, lowest degree first, and for
t = 0 the one shared read-only [1].  The two paper scans take it from
the public `solve_locator`, whose Poly they turn back into the array;
`bm` takes it from `_massey`, as `solve_locator` does.  `_decode_row`
makes the row's one DecodeTrace; a stage sets its counter on it before it
can raise, and raises its failures without a trace, as the tail does:
`_decode_row` alone attaches the trace to every DecodeFailure of the row.

- the paper's rank scan (`_rank_count`, the kernel of the public
  `detect_error_count`: the smallest t whose (n-k-t) x t Hankel matrix
  has the rank of its (n-k-t) x (t+1) augmentation; t + 1 rank checks,
  or tau + 1 when none fits, answered by one right-looking elimination:
  the candidates' matrices are nested, each adding a column and dropping
  a row, so each failed candidate's remainder is cleared from every later
  column at once, and candidate t checks that its column is zero on its
  row window; the later columns are formed in panels, onto which the
  recorded remainders are replayed), then the
  t x t Hankel system [s_(i+j)] lambda = -(s_t, ..., s_(2t-1))
  (`solve_locator`), solved not by a second elimination but as the
  shift-register synthesis on s_0, ..., s_(2t-1) that `bm` runs;
- the Peterson-Gorenstein-Zierler determinant scan (the largest h <= tau
  with a nonzero h x h Hankel determinant; 0 checks for a codeword,
  tau - t + 1 on success, tau on failure, one check per candidate h
  decided: one elimination of the tau x tau Hankel matrix H_tau gives
  its rank r, which decides every h > r (singular), and its pivot
  columns decide h = r, as the symmetric H_tau has a nonsingular H_r iff
  they are 0, ..., r - 1; only past a singular H_r does each h < r take
  its own elimination, which finds h pivots iff H_h is nonsingular),
  then `solve_locator` on the nonsingular H_h;
- Berlekamp-Massey (`berlekamp_massey`).  Candidate t passes the rank
  check iff some length-t LFSR generates all n - k syndromes, so the
  paper's t is the sequence's linear complexity L, and lambda is the
  shortest LFSR's connection polynomial C reversed, x^L C(1/x).  L > tau
  is TooManyErrors and deg C < L (lambda(0) = 0) is
  SingularLocatorSystem, exactly where the rank scan and `solve_locator`
  fail.  It leaves both trace counters at 0.

Tails: the paper's recover (`_recover`) reads f_u's coefficients
k, ..., n - 1 off the syndromes, f_i = -s_(n-1-i), where f_u (degree < n)
is the word's interpolation polynomial.
lambda * f_u = lambda * f_c + (x^n - 1) * mu with deg f_c < k, so mu is
the coefficients of x^n and above, which only the top t coefficients of
f_u reach: mu_(t-1-r) = -Omega_r for Forney's error evaluator Omega
(`_error_evaluator`, which the positions tail shares).  The tail forms
mu, the trace's high_quotient, and counts its products only when that is
read, as Q needs only f_u's top t.  Then f_c = f_u - Q
for the exact quotient Q = (x^n - 1) * mu / lambda, whose top t
coefficients are f_u's and whose others follow lambda's t-term recurrence
(Q is the interpolation polynomial of the t-sparse error): blocks of B
coefficients, each one gather and one reduction against a B x t
impulse-response block (`_wrapped_quotient`).  Run t steps past index 0,
the recurrence closes up on the top t iff the division is exact.  f_c's
coefficients k and above are f_u's minus Q's, so the degree check needs
no other evaluation, and the codeword is c_j = u_j - Q(alpha^j): one
evaluation of Q on the orbit.  Where that would form more products than
the word's other k evaluations, which give low(u), and the encoding of
the message low(u) - low(Q) together (a low-rate code), the tail takes
those instead, and the codeword is that encoding.  Positions
(`_error_positions_and_values`) takes the error positions i where
lambda(alpha^i) = 0 straight off a Chien search and the error values from
Forney's formula, which gives the solution of the t x t value system
without solving it, in one array pass over all t roots; it never
interpolates the whole word.  Both tails take the word array, its
evaluations and lambda, and return a codeword array, which leaves an
error of weight at most t: verify (`_verified_outcome`) checks
membership on the error word's syndromes.

The decoders are the pairs of `_pipeline`, named in the one registry
`DECODERS`: `decode` (rank scan, recover), `decode_via_positions` (rank
scan, positions), `pgz_decode` (determinant scan, positions) and
`bm_decode` (Berlekamp-Massey, positions).  As every answer is
re-verified, inputs beyond the correction radius either raise
DecodeFailure or decode to some codeword genuinely within distance tau.

One word (`_run`) evaluates its n - k syndromes by `eval_at_powers`, and
its message only when asked, unless its tail already holds it.  A chunk
of words (`decode_blocks`) evaluates every word at all of alpha^1, ...,
alpha^n in one call, which takes the batched transform: the first n - k
values of a row are its syndromes, and the last k, negated and reversed,
are the low part low(u) = (f_0, ..., f_(k-1)) of its interpolation
polynomial.  Each row then runs the same per-row body (`_decode_row`) as
`_run`, and its message comes from that evaluation: low(u) itself when
t = 0, low(u) - low(Q) after the recover tail, or low(u) - low(e) after
the positions tail, low(e) being k t products on the t-sparse error;
verify writes it over the row's low(u).  A failed row keeps low(u) as
its best-effort estimate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import (
    DecodeFailure,
    DegreeTooHigh,
    InexactDivision,
    RootCountMismatch,
    SingularLocatorSystem,
    TooManyErrors,
    VerifyFailed,
)
from .femat import _eliminate
from .gf import Field, add_mul_ops, mul_ops_total
from .poly import Poly
from .rscode import RSCode


class _FormedOnRead:
    """A dataclass field that may be set to a `functools.partial`, which is
    called on the field's first read and replaced by its result."""

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return None  # the field's default
        value = obj.__dict__[self.name]
        if isinstance(value, functools.partial):
            value = obj.__dict__[self.name] = value()
        return value

    def __set__(self, obj, value) -> None:
        obj.__dict__[self.name] = value


@dataclass
class DecodeTrace:
    """Work counters and intermediate values of one decode call.

    rank_checks counts the rank scan's rank-equality tests, det_checks the
    determinant scan's candidates h decided (not the eliminations it runs:
    one rank decides every candidate above it); a scan that did not run
    leaves its counter at 0, so Berlekamp-Massey leaves both at 0.
    interp_degree and high_quotient are set by the recover tail only;
    high_quotient is formed, and its products counted, on its first read.
    """

    rank_checks: int = 0
    det_checks: int = 0
    interp_degree: int | None = None
    high_quotient: Poly | None = _FormedOnRead()  # default None


@dataclass(kw_only=True)
class DecodeOutcome:
    """A successful decode: the nearest codeword and how it was found.

    `codeword`, `error`, `locator` and `message` are formed on first read
    from the pipeline's int64 arrays (`_outcome`).  `message` is the k
    message symbols of `codeword`, the coefficients of its polynomial of
    degree < k.  `decode_blocks` holds them already, as does the recover
    tail where it took the word's low part; otherwise the first read
    evaluates `codeword` at k points and counts those products.
    """

    codeword: tuple[int, ...] = _FormedOnRead()
    error: tuple[int, ...] = _FormedOnRead()
    error_count: int
    locator: Poly = _FormedOnRead()
    trace: DecodeTrace
    message: tuple[int, ...] = _FormedOnRead()


def decode(code: RSCode, word: Sequence[int]) -> DecodeOutcome:
    """The paper's decoder: rank scan, then recover the codeword polynomial."""
    return _run(code, word, *_pipeline("interp"))


def decode_via_positions(code: RSCode, word: Sequence[int]) -> DecodeOutcome:
    """Rank scan, then read the error positions off the locator's roots."""
    return _run(code, word, *_pipeline("interp-pos"))


def pgz_decode(code: RSCode, word: Sequence[int]) -> DecodeOutcome:
    """Peterson-Gorenstein-Zierler, for comparison: the determinant scan,
    then the error positions and Forney's values.

    The scan decides 0 candidates for a codeword, tau - t + 1 for a
    successful decode of weight t >= 1, and tau when no weight fits
    (TooManyErrors).  One elimination of the tau x tau Hankel matrix gives
    its rank r and decides every h > r; for t <= tau errors r = t, and
    the same elimination shows the t x t block nonsingular.  Only beyond
    the radius, where the r x r block can be singular, does it eliminate
    again, once for each h < r it decides: H_h is nonsingular iff its
    elimination finds h pivots.  The scan forms no determinant, and
    `solve_locator` takes the locator from the h x h system by
    shift-register synthesis, without a second elimination.
    """
    return _run(code, word, *_pipeline("pgz"))


def bm_decode(code: RSCode, word: Sequence[int]) -> DecodeOutcome:
    """Berlekamp-Massey, then the error positions and Forney's values."""
    return _run(code, word, *_pipeline("bm"))


def _run(code: RSCode, word: Sequence[int], count_stage, tail) -> DecodeOutcome:
    word = code._checked(word)
    synd = code.field.eval_at_powers(word, first=1, count=code.n - code.k)
    return _decode_row(code, word, synd, None, count_stage, tail)


def decode_blocks(code: RSCode, blocks: Sequence[Sequence[int]] | np.ndarray, name: str
                  ) -> tuple[np.ndarray, list[DecodeOutcome | DecodeFailure], list[int]]:
    """Decode B words with the stages of decoder `name`: the rows of a
    (B, n) array or of a nested list or tuple, checked as
    `RSCode.encode_blocks` checks its messages (`[]` is zero rows).

    One `eval_at_powers` call evaluates every row at alpha^1, ..., alpha^n;
    each row then runs the pipeline of `_run` on its slice of it.  Returns
    the (B, k) messages (a failed row's is the best-effort low(u)), each
    row's DecodeOutcome or the DecodeFailure it raised, and each row's
    field multiplications after the shared evaluation, which is counted
    once, in no row.
    """
    count_stage, tail = _pipeline(name)
    words = code._checked_rows(blocks)
    evals = code.field.eval_at_powers(words, first=1, count=code.n)
    messages = code.low_from_evaluations(evals[:, code.n - code.k:])
    results: list[DecodeOutcome | DecodeFailure] = []
    mul_counts = []
    for word, row, low in zip(words, evals, messages):
        start = mul_ops_total()
        try:
            results.append(_decode_row(code, word, row, low, count_stage, tail))
        except DecodeFailure as exc:
            results.append(exc)
        mul_counts.append(mul_ops_total() - start)
    return messages, results, mul_counts


def _decode_row(code: RSCode, word: np.ndarray, evals: np.ndarray, low: np.ndarray | None,
                count_stage, tail) -> DecodeOutcome:
    """The pipeline on one validated word.  `evals` are its evaluations
    from alpha^1 on: the n - k syndromes, or all n of them, in which case
    `low` is low(u), over which a decoded word's message is written.  The
    row's trace is made here, filled by the stages, and attached here to
    any failure."""
    synd = evals[:code.n - code.k]
    trace = DecodeTrace()
    try:
        t, lam = count_stage(code, synd, trace)
        if t == 0:
            # Copies: the word may be the caller's array, and low a row of
            # the messages `decode_blocks` returns.
            return _outcome(code, word.copy(), np.zeros_like(word), 0, lam, trace,
                            None if low is None else low.copy())
        cw, message = tail(code, word, evals, lam, trace)
        return _verified_outcome(code, word, synd, cw, t, lam, trace, message, low)
    except DecodeFailure as exc:
        exc.trace = trace
        raise


def _hankel(syndromes: np.ndarray, rows: int, cols: int) -> np.ndarray:
    idx = np.arange(rows, dtype=np.intp)[:, None] + np.arange(cols, dtype=np.intp)[None, :]
    return syndromes[idx]


# ----- count stages: (code, syndromes, trace) -> (t, lambda), or DecodeFailure -----
#
# lambda is the monic locator's int64 coefficient array, lowest degree first.

_ZERO_CONSTANT = ("locator constant term is zero, implying an error at the "
                  "excluded point 0")
# The t = 0 locator, shared by every codeword's outcome (a read-only view).
_ONE = np.broadcast_to(np.int64(1), 1)


def detect_error_count(code: RSCode, syndromes: Sequence[int]) -> int | None:
    """Smallest t in [0, tau] consistent with the syndromes, else None.

    Candidate t is consistent when appending the next syndrome column to
    the (n-k-t) x t Hankel matrix does not raise its rank: when the column
    v_t = (s_t, ..., s_(n-k-1)) lies in the span of v_0, ..., v_(t-1) cut
    to their first R_t = n-k-t coordinates.
    """
    return _rank_count(code, code._checked(syndromes, "syndrome vector"))


def _rank_count(code: RSCode, s: np.ndarray) -> int | None:
    """`detect_error_count` on the int64 syndrome array.

    One right-looking elimination answers every candidate.  Each failed
    candidate j leaves a remainder b_j, its column v_j less multiples of
    the earlier remainders, with pivot p_j, its first nonzero coordinate
    on R_j; b_j is zero at every earlier pivot inside R_j, and it is
    cleared from each later column v_l that still holds p_j (p_j < R_l)
    at once: v_l -= v_l[p_j] (b_j / b_j[p_j]), one broadcast gather for
    all of them (`_clear`).  So when candidate t comes up, its column is
    v_t less its part in the span of the remainders whose pivots lie in
    R_t, which is the span of v_0, ..., v_(t-1) cut to R_t (a remainder
    whose pivot lies past R_t is zero there), and the column is zero on
    R_t iff t is consistent.  Each remainder is recorded once, as the logs
    of b_j / b_j[p_j] from p_j on: one product per nonzero coordinate.

    The later columns are formed in panels of max(t + 1, `_PANEL_TERMS`
    // (n - k)) candidates from the panel's first candidate t, each a
    (rows, R_t) copy of a Hankel view of the zero-padded syndromes.  A
    failure clears its remainder from the rest of its panel only; a new
    panel has every recorded remainder cleared from it, in order, by the
    same `_clear`.  A low t then clears no more than a panel of columns
    it never checks, and as a panel holds at least as many candidates as
    there are remainders to replay onto it, a high t replays at most one
    remainder per candidate.  The products counted are the nonzero terms
    formed: one per nonzero coordinate of each recorded remainder, and
    those of every `_clear`, padding past a column's window included.
    Candidates are checked in order and the scan stops at the first
    consistent one, so `_rank_scan` counts t + 1 rank checks, or tau + 1
    when none is consistent.
    """
    f = code.field
    m, tau = len(s), code.tau
    exp2, log = f._exp2_np, f._log_np
    records: list[tuple[int, np.ndarray]] = []  # (p_j, log(b_j[p_j:] / b_j[p_j]))
    end = 0
    for t in range(tau + 1):
        if t == end:
            base, end = t, min(tau + 1, t + max(t + 1, _PANEL_TERMS // m))
            rows, width = end - base, m - base
            pad = np.zeros(width + rows, dtype=np.int64)
            pad[:width] = s[base:]
            # Row i is v_(base+i), zero past its window: a Hankel view, copied.
            panel = np.ndarray((rows, width), np.int64, pad, 0, (8, 8)).copy()
            for p, b_logs in records:
                if m - p > base:
                    _clear(f, panel[:m - p - base], p, b_logs)
        col = panel[t - base, :m - t]
        nonzero = col.nonzero()[0]
        if not nonzero.size:
            return t
        if t == tau:
            break
        p = int(nonzero[0])
        # b / b[p] is one product per nonzero b_i by 1 / b[p] (a lookup); a
        # zero's sentinel log stays in exp2's zero tail.
        b_logs = log[exp2[log[col[p:]] + (f.q - 1 - f.log[col[p]])]]
        add_mul_ops(nonzero.size)
        records.append((p, b_logs))
        stop = min(end, m - p) - base  # the later columns of the panel holding p
        if stop > t - base + 1:
            _clear(f, panel[t - base + 1:stop], p, b_logs)
    return None


# Terms of one rank-scan panel, (rows) x (n - k).  A `_clear` call costs a
# fixed 5 us or so of numpy calls, and 2.7 ns a term in GF(256) or 12.7 ns
# in GF(257) (2 vCPU, Python 3.11, numpy 2.4): as much as forming 1 850 or
# 390 terms.  With panels of about that many terms, the columns that a low
# t clears but never checks cost about one more call, and each replay onto
# a new panel costs one call; 1024 lies between the two fields' figures.
_PANEL_TERMS = 1024


def _clear(f: Field, cols: np.ndarray, p: int, b_logs: np.ndarray) -> None:
    """Subtract cols[i, p] b from every row i of `cols`, in place, for the
    normalized remainder b (b[p] = 1) whose coordinates from p on have
    logs `b_logs`, as far as `cols` reaches; counts the nonzero terms
    formed."""
    width = min(cols.shape[1] - p, len(b_logs))
    terms = f._exp2_np[f._log_np[cols[:, p]][:, None] + b_logs[:width]]
    add_mul_ops(int(np.count_nonzero(terms)))
    cols[:, p:p + width] = f.sub_arr(cols[:, p:p + width], terms)


def _rank_scan(code: RSCode, synd: np.ndarray, trace: DecodeTrace) -> tuple[int, np.ndarray]:
    if not synd.any():
        trace.rank_checks = 1
        return 0, _ONE
    t = _rank_count(code, synd)
    trace.rank_checks = code.tau + 1 if t is None else t + 1
    if t is None:
        raise TooManyErrors(f"no error count <= tau = {code.tau} fits the syndromes")
    return t, np.array(solve_locator(code, synd, t).coeffs, dtype=np.int64)


def _determinant_scan(code: RSCode, synd: np.ndarray, trace: DecodeTrace
                      ) -> tuple[int, np.ndarray]:
    if not synd.any():
        return 0, _ONE
    # H_tau is symmetric.  Each h x h Hankel matrix with h > r = rank(H_tau)
    # is a leading submatrix of H_tau, so singular, and H_r is nonsingular
    # iff the pivots of H_tau sit in columns 0, ..., r - 1.  If they do,
    # those columns span the column space, so by symmetry rows 0, ..., r - 1
    # span the row space: they are [H_r, H_r X] for some X and have rank r,
    # so H_r does.  Conversely a nonsingular H_r makes columns 0, ..., r - 1
    # independent, and they take the first r pivots.  Only a singular H_r
    # (past the correction radius) leads to more eliminations, one for each
    # h from r - 1 down; H_h's own pivots are 0, ..., h - 1 iff it has h.
    tau = code.tau
    pivots, _ = _eliminate(code.field, _hankel(synd, tau, tau), tau)
    rank = len(pivots)
    for h in range(rank, 0, -1):
        if h < rank:
            pivots, _ = _eliminate(code.field, _hankel(synd, h, h), h)
        if pivots[h - 1:] == [h - 1]:  # pivots 0, ..., h - 1: H_h is nonsingular
            trace.det_checks = tau - h + 1
            return h, np.array(solve_locator(code, synd, h).coeffs, dtype=np.int64)
    trace.det_checks = tau
    raise TooManyErrors(
        f"all Hankel determinants up to tau = {tau} vanish for a "
        "nonzero syndrome vector")


def _bm_scan(code: RSCode, synd: np.ndarray, trace: DecodeTrace) -> tuple[int, np.ndarray]:
    t, lam = _massey(code, synd.tolist())
    if t > code.tau:
        raise TooManyErrors(f"the syndromes have linear complexity {t} > tau = {code.tau}")
    if lam[0] == 0:
        raise SingularLocatorSystem(_ZERO_CONSTANT)
    return t, lam


def berlekamp_massey(code: RSCode, syndromes: Sequence[int]) -> tuple[int, Poly]:
    """Linear complexity L of the syndrome sequence and the monic locator
    x^L * C(1/x), where C (C_0 = 1) is the connection polynomial of the
    shortest LFSR generating the syndromes.

    L may exceed tau, and the locator's constant term is zero when
    deg C < L; the `bm` count stage rejects both.  Massey's algorithm in
    the log domain: the discrepancy costs one multiplication per nonzero
    product C_i * s_(r-i) (i >= 1), a correction costs one division and one
    multiplication per nonzero coefficient of the shifted earlier C.
    """
    t, lam = _massey(code, code._checked(syndromes, "syndrome vector").tolist())
    return t, Poly(code.field, lam)


def _massey(code: RSCode, s: list[int]) -> tuple[int, np.ndarray]:
    """`berlekamp_massey` on a list of syndromes, its locator an int64 array."""
    f = code.field
    if not any(s):
        return 0, _ONE
    n = f.q - 1
    exp2, log = f._exp2, f.log
    prime, p = f.kind == "prime", f.p
    s_log = [log[x] for x in s]  # log 0 is -1
    conn: list[int] = [1]      # C
    conn_terms: list[tuple[int, int]] = []  # (i, log C_i) for nonzero C_i, i >= 1
    prev_terms = [(0, 0)]      # the same for C before the last length change
    prev_log = 0               # log of the discrepancy at that change
    length, shift, muls = 0, 1, 0
    for r, d in enumerate(s):
        for i, cl in conn_terms:
            sl = s_log[r - i]
            if sl >= 0:
                muls += 1
                if prime:
                    d += exp2[cl + sl]
                else:
                    d ^= exp2[cl + sl]
        if prime:
            d %= p
        if d == 0:
            shift += 1
            continue
        # C <- C - (d / d_prev) x^shift C_prev
        coef_log = (log[d] - prev_log) % n
        muls += len(prev_terms)  # the division; C_prev_0 = 1 needs no product
        new = conn + [0] * (shift + prev_terms[-1][0] + 1 - len(conn))
        for j, bl in prev_terms:
            if prime:
                new[j + shift] = (new[j + shift] - exp2[coef_log + bl]) % p
            else:
                new[j + shift] ^= exp2[coef_log + bl]
        if 2 * length <= r:
            prev_terms = [(0, 0)] + conn_terms
            prev_log, length, shift = log[d], r + 1 - length, 1
        else:
            shift += 1
        conn = new
        conn_terms = [(i, log[c]) for i, c in enumerate(conn) if i and c]
    add_mul_ops(muls)
    return length, np.array((conn + [0] * length)[:length + 1][::-1], dtype=np.int64)


def solve_locator(code: RSCode, syndromes: Sequence[int], t: int) -> Poly:
    """Monic degree-t locator from the t x t Hankel syndrome system
    [s_(i+j)] lambda = -(s_t, ..., s_(2t-1)).

    Its solutions are the length-t LFSRs generating s_0, ..., s_(2t-1),
    each lambda the reversed connection polynomial x^t C(1/x), so Massey's
    count law decides it from the sequence's linear complexity L (Massey,
    1969): no solution when L > t, many when L < t (C and C (1 + a x) both
    fit), and when L = t the unique shortest LFSR, as 2L <= 2t.  `_massey`
    on those 2t syndromes gives L and that locator in O(t^2) steps.  For
    the true error count t <= tau the system is uniquely solvable and the
    constant term is nonzero (zero is not an evaluation point); both are
    still checked and reported as SingularLocatorSystem.
    """
    if not 1 <= t <= code.tau:
        raise ValueError(f"error count t={t} must satisfy 1 <= t <= tau = {code.tau}")
    # Checked again on the pipeline's own syndromes: the benchmark's tests
    # count one call of this public name per decode (ROADMAP item 7).
    length, lam = _massey(code, code._checked(syndromes, "syndrome vector")[:2 * t].tolist())
    if length != t:
        status = "no_solution" if length > t else "underdetermined"
        raise SingularLocatorSystem(f"locator system for t={t} is {status}")
    if lam[0] == 0:
        raise SingularLocatorSystem(_ZERO_CONSTANT)
    return Poly(code.field, lam)


# ----- tails: (code, word, evaluations, lambda, trace) -> (codeword, message or None)
#
# The evaluations are u(alpha^1), ... : the n - k syndromes, or all n.  The
# scalar loops read lambda as a list, as int64 scalars are slow in Python.

def recover_codeword_polynomial(code: RSCode, word: Sequence[int],
                                locator: Poly, t: int) -> Poly:
    """Codeword polynomial (degree < k) from the word and its degree-t locator."""
    if t != locator.degree or not 1 <= t <= code.tau:
        raise ValueError(f"error count t={t} must be the locator degree {locator.degree} "
                         f"and satisfy 1 <= t <= tau = {code.tau}")
    if locator.coeffs[-1] != 1:  # the monic multiple has the same roots
        locator = locator.scale(code.field.inv(locator.coeffs[-1]))
    f, n, k = code.field, code.n, code.k
    evals = f.eval_at_powers(code._checked(word), first=1, count=n)
    quot = _recovered_quotient(code, evals[:n - k], np.array(locator.coeffs, dtype=np.int64))
    return Poly(f, f.sub_arr(code.low_from_evaluations(evals[n - k:]), quot[:k]).tolist())


def _recover(code: RSCode, word: np.ndarray, evals: np.ndarray,
             lam: np.ndarray, trace: DecodeTrace) -> tuple[np.ndarray, np.ndarray | None]:
    """The recover tail: `_recovered_quotient`, then the trace's
    interp_degree and high_quotient, filled here once the quotient has
    passed its checks, then the codeword by one of two routes."""
    f = code.field
    n, k = code.n, code.k
    synd = evals[:n - k]
    quot = _recovered_quotient(code, synd, lam)
    # deg f_u = n - 1 - j for the first nonzero syndrome s_j = u(alpha^(j+1));
    # the tail runs only on a word that is not a codeword.
    trace.interp_degree = n - 1 - int(np.flatnonzero(synd)[0])
    trace.high_quotient = functools.partial(_high_quotient, f, lam, synd[:len(lam) - 1].copy())
    if len(evals) < n and (f.eval_products(n, int(np.count_nonzero(quot)))
                           > f.eval_products(k, int(np.count_nonzero(word)))
                           + f.eval_products(n, k)):
        # quot on the orbit would form more products than the word's other
        # k evaluations, which give the message, and the message's encoding.
        # The orbit route leaves `message` lazy: only a caller that reads it
        # pays its k evaluations of the codeword.
        evals = np.concatenate((evals, f.eval_at_powers(word, first=n - k + 1, count=k)))
    if len(evals) == n:
        message = f.sub_arr(code.low_from_evaluations(evals[n - k:]), quot[:k])
        return f.eval_at_powers(message, first=0, count=n), message
    # c_j = f_c(alpha^j) = u_j - quot(alpha^j), as f_u(alpha^j) = u_j.
    return f.sub_arr(word, f.eval_at_powers(quot, first=0, count=n)), None


def _recovered_quotient(code: RSCode, synd: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The exact quotient Q = (x^n - 1) mu / lambda of the monic locator,
    from the word's n - k syndromes `synd`, so that f_c = f_u - Q; raises
    InexactDivision or DegreeTooHigh.  It fills no trace: `_recover` fills
    the pipeline's, and `recover_codeword_polynomial` keeps none.

    For the monic locator lambda, lambda * f_u = lambda * f_c + (x^n - 1)
    * mu with deg(lambda * f_c) < k + t <= n, so mu is the coefficients of
    x^n and above, formed only from f_u's top t coefficients f_(n-1-r) =
    -s_r: mu_(t-1-r) = -Omega_r for Forney's error evaluator Omega.  Q has
    f_u's top t coefficients, and every coefficient f_i = -s_(n-1-i) with
    i >= k is a negated syndrome, so the degree check needs no other
    evaluation of the word.
    """
    f = code.field
    n, k = code.n, code.k
    t = len(lam) - 1
    quot, exact = _wrapped_quotient(f, lam.tolist(), f.neg_arr(synd[t - 1::-1]), n)
    if not exact:
        raise InexactDivision(
            "locator does not divide the wrapped high part; it cannot "
            "explain the received word")
    # f_c = f_u - quot; its coefficients k, ..., n - 1 must vanish
    above = np.flatnonzero(f.sub_arr(f.neg_arr(synd[::-1]), quot[k:]))
    if above.size:
        raise DegreeTooHigh(f"recovered polynomial has degree {k + int(above[-1])}, "
                            f"expected < k = {k}")
    return quot


def _high_quotient(f: Field, lam: np.ndarray, synd: np.ndarray) -> Poly:
    """The recover tail's mu = -Omega reversed, from the first t syndromes;
    `_error_evaluator` counts its products when the trace's first read
    forms it."""
    return Poly(f, [f.neg(x) for x in _error_evaluator(f, lam, synd)[::-1]])


def _wrapped_quotient(f: Field, lam: Sequence[int], top: np.ndarray, n: int
                      ) -> tuple[np.ndarray, bool]:
    """Quotient of (x^n - 1) * mu by the monic lambda, given the quotient's
    top t coefficients, and whether the division is exact.

    `lam` holds lambda's t + 1 coefficients (t >= 1, lam[t] = 1), `top`
    the quotient's coefficients q_(n-t), ..., q_(n-1); t <= n / 2.  Any t
    values are the top of exactly one mu, mu_i = sum_(j>i) lambda_j
    q_(n+i-j); the recover tail passes f_u's top t.  Returns the quotient's n
    coefficients, as an int64 array, equal to those of `Poly.__divmod__`
    on the wrapped dividend.

    Long division from the top makes q_i = w_(i+t) - sum_(l=1..t)
    lambda_(t-l) q_(i+l) for the dividend w = x^n mu - mu, which is zero
    at degrees t, ..., n - 1: below the top, lambda's recurrence is
    homogeneous.  Run t steps further, below index 0, it gives the wrapped
    values q_(-1), ..., q_(-t), and the remainder is r_m = sum_(j>m)
    lambda_j (q_(m-j) - q_(n+m-j)), a unit triangular map of their
    differences from the top: the division is exact iff the run closes up,
    q_(-i) = q_(n-i) for i = 1, ..., t.  The next B values q_(i-1), ...,
    q_(i-B) are H S_i for the state S_i = (q_i, ..., q_(i+t-1)) and a B x t
    impulse-response block H whose rows are h_1 = c = (-lambda_(t-1), ...,
    -lambda_0) and h_(b+1) = h_b[0] c + (h_b[1:], 0), one companion step
    each; each block of B values is then one gather and one reduction.
    Products of two nonzero elements are counted: at most (B-1)t for H
    and nt for the blocks.
    """
    t = len(lam) - 1
    exp2, log = f._exp2, f.log
    prime, p = f.kind == "prime", f.p
    muls = 0
    # Rows h_1, ..., h_B of H from c_l = -lambda_(t-1-l); log 0 is -1.
    h = [(-x) % p if prime else x for x in lam[t - 1::-1]]
    c_logs = [log[x] for x in h]
    c_nonzero = t - c_logs.count(-1)
    block = [h]
    for _ in range(_block_rows(n, t) - 1):
        x, h = h[0], h[1:] + [0]
        if x:
            xl = log[x]
            muls += c_nonzero
            if prime:
                h = [(a + exp2[xl + cl]) % p if cl >= 0 else a for a, cl in zip(h, c_logs)]
            else:
                h = [a ^ exp2[xl + cl] if cl >= 0 else a for a, cl in zip(h, c_logs)]
        block.append(h)
    # Row b - 1 of `block` gives q_(i-b) from S_i; reversed, the last b
    # rows give q_(i-b), ..., q_(i-1) in order.
    block_logs = f._log_np[np.array(block[::-1], dtype=np.int64)]
    exp2_np, log_np = f._exp2_np, f._log_np
    run = np.zeros(n + t, dtype=np.int64)  # run[i + t] = q_i for -t <= i < n
    run[n:] = top
    i = n
    while i > 0:
        b = min(len(block), i)
        terms = exp2_np[block_logs[-b:] + log_np[run[i:i + t]]]
        muls += int(np.count_nonzero(terms))
        run[i - b:i] = f.sum_arr(terms)
        i -= b
    add_mul_ops(muls)
    return run[t:], np.array_equal(run[:t], run[n:])


def _block_rows(n: int, t: int) -> int:
    """Rows B of the quotient's impulse-response block for the n - t
    coefficients below the top t (the t wrapped values add at most one
    block step).

    B - 1 companion steps, each a Python pass over t entries, against
    ceil((n - t) / B) block steps of a few numpy calls each.  A block step
    costs about as much as a companion step over 50 entries (2 vCPU,
    Python 3.11, numpy 2.4), so (B - 1)(t + 4) + 50 (n - t) / B is least
    near B = sqrt(50 (n - t) / (t + 4)): on RS(255,223) B = 50, 32 and 24
    at t = 1, 8 and 16.
    """
    return max(1, min(n - t, math.isqrt(50 * (n - t) // (t + 4))))


def _error_evaluator(f: Field, lam: np.ndarray, synd: np.ndarray) -> list[int]:
    """Forney's error evaluator Omega = (sum_(r<t) s_r x^r) Lambda mod x^t
    of the degree-t locator lambda, Lambda(x) = x^t lambda(1/x), as t ints.
    Counts one product per nonzero Lambda_j s_(r-j) with 1 <= j <= r < t
    (Lambda_0 = lambda_t = 1 needs none)."""
    t = len(lam) - 1
    exp2, log = f._exp2, f.log
    prime = f.kind == "prime"
    rev = lam.tolist()[::-1]  # Lambda_j = lambda_(t-j)
    omega = synd[:t].tolist()
    s_logs = [log[x] for x in omega]  # log 0 is -1
    muls = 0
    for j in range(1, t):
        if rev[j]:
            lj = log[rev[j]]
            for r in range(j, t):
                sl = s_logs[r - j]
                if sl >= 0:
                    muls += 1
                    omega[r] = omega[r] + exp2[lj + sl] if prime else omega[r] ^ exp2[lj + sl]
    add_mul_ops(muls)
    return [x % f.p for x in omega] if prime else omega


def _error_positions_and_values(code: RSCode, word: np.ndarray, synd: np.ndarray,
                                lam: np.ndarray, trace: DecodeTrace) -> tuple[np.ndarray, None]:
    """Error positions (the i with lambda(alpha^i) = 0, a Chien search)
    and Forney's values, subtracted from the word.

    With Lambda(x) = x^t lambda(1/x) = prod_j (1 - X_j x) and
    Omega = (sum_(r<t) s_r x^r) Lambda mod x^t (`_error_evaluator`; the
    recover tail's mu is -Omega reversed), the value at X = alpha^i is
    e_i = -Omega(X^-1) / Lambda'(X^-1), the solution of the t x t system
    sum_j X_j^(r+1) e_j = s_r (r < t).  Forney's formula is one array pass
    over all t roots: Omega and Lambda' stacked as a (2, t) array are
    evaluated at every X^-1 = alpha^(n - i) by one exp2 gather and one
    `Field.sum_arr`, the quotients are one log-domain gather (a zero
    numerator reads exp2's zero tail), and one `Field.add_arr` writes them
    into the word's copy.  One multiplication is counted per product
    formed; products by 1 (the constant terms, Lambda_0 and Lambda' 's
    factor 1) are not, nor, in characteristic 2, Lambda' 's factors j.
    """
    f = code.field
    t = len(lam) - 1
    n = f.q - 1
    pos = np.flatnonzero(f.eval_at_powers(lam, first=0, count=n) == 0)
    if len(pos) != t:
        raise RootCountMismatch(
            f"locator of degree {t} has {len(pos)} distinct nonzero roots")
    exp2, log = f._exp2_np, f._log_np
    # Lambda' = sum_(j >= 1) j Lambda_j x^(j-1), Lambda_j = lambda_(t-j) (so
    # Lambda_1, ..., Lambda_t is lam[-2::-1]), with j mod p: in characteristic
    # 2 an even j has the sentinel log of 0, so its term reads exp2's zero tail.
    deriv = exp2[log[lam[-2::-1]] + log[np.arange(1, t + 1) % f.p]]
    polys = np.array([_error_evaluator(f, lam, synd), deriv])
    # Term i at X^-1 = alpha^(n - pos) is alpha^(log c_i + i (n - pos) mod n).
    num, den = f.sum_arr(exp2[log[polys][:, None] + np.multiply.outer(n - pos, np.arange(t)) % n])
    cw = word.copy()
    cw[pos] = f.add_arr(cw[pos], exp2[log[num] - log[den] + n])
    nnz = np.count_nonzero
    add_mul_ops(int(t * nnz(polys[0, 1:]) + nnz(num) * (nnz(deriv[1:]) + 1)
                    + (nnz(lam[:-2]) if f.kind == "prime" else 0)))
    return cw, None


def _verified_outcome(code: RSCode, word: np.ndarray, synd: np.ndarray,
                      cw: np.ndarray, t: int, lam: np.ndarray, trace: DecodeTrace,
                      message: np.ndarray | None, low: np.ndarray | None) -> DecodeOutcome:
    f = code.field
    err = f.sub_arr(word, cw)
    weight = int(np.count_nonzero(err))
    # Syndromes are linear, so cw is a codeword iff the error word - cw has
    # the word's syndromes: (n - k) t products on an error of weight t, not
    # the (n - k) n of cw's own syndromes.
    r = code.n - code.k
    if not np.array_equal(f.eval_at_powers(err, first=1, count=r), synd):
        raise VerifyFailed("decoded word is not a codeword")
    if weight != t:
        raise VerifyFailed(
            f"decoded codeword is at distance {weight}, expected exactly {t}")
    if low is not None:  # the row of `decode_blocks`' messages gets the message
        if message is None:  # low(c) = low(u) - low(e), summed on the t nonzeros of e
            message = f.sub_arr(low, code.low_from_evaluations(
                f.eval_at_powers(err, first=r + 1, count=code.k)))
        low[:] = message
    return _outcome(code, cw, err, t, lam, trace, message)


def _outcome(code: RSCode, cw: np.ndarray, err: np.ndarray, t: int, lam: np.ndarray,
             trace: DecodeTrace, message: np.ndarray | None) -> DecodeOutcome:
    """The outcome of the pipeline's arrays, each formed on first read: a
    tuple of ints, lambda's Poly, and the message, which without `message`
    is k evaluations of cw, whose products count then."""
    form = functools.partial
    message = form(_message_of, code, cw) if message is None else form(_ints, message)
    return DecodeOutcome(codeword=form(_ints, cw), error=form(_ints, err), error_count=t,
                         locator=form(Poly, code.field, lam), trace=trace, message=message)


def _ints(a: np.ndarray) -> tuple[int, ...]:
    return tuple(a.tolist())


def _message_of(code: RSCode, cw: np.ndarray) -> tuple[int, ...]:
    evals = code.field.eval_at_powers(cw, first=code.n - code.k + 1, count=code.k)  # trusted
    return _ints(code.low_from_evaluations(evals))


# The one decoder registry, read by `bench`, the CLI's `decode` and
# `compare`, and the package.
DECODERS = {
    "interp": decode,
    "interp-pos": decode_via_positions,
    "pgz": pgz_decode,
    "bm": bm_decode,
}


def _pipeline(name: str) -> tuple:
    """The (count stage, tail) pair of the decoder `name` of `DECODERS`,
    or the one unknown-decoder ValueError.  The stages are looked up on
    each call, so a wrapped stage is the one that runs."""
    pipelines = {
        "interp": (_rank_scan, _recover),
        "interp-pos": (_rank_scan, _error_positions_and_values),
        "pgz": (_determinant_scan, _error_positions_and_values),
        "bm": (_bm_scan, _error_positions_and_values),
    }
    if name not in pipelines:
        raise ValueError(f"unknown decoder {name!r}, expected one of {sorted(pipelines)}")
    return pipelines[name]


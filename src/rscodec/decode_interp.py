"""The decoder pipeline: a count stage, the locator, and a tail stage.

Write the received word as u = c + e with c a codeword and e of Hamming
weight t.  Every decoder runs one flow on the n - k syndromes
s_r = u(alpha^(r+1)):

1. count stage: find t <= tau or raise TooManyErrors; t = 0 returns at once;
2. solve the t x t Hankel system [s_(i+j)] for the monic error locator
   lambda, whose roots are alpha^i for the error positions i;
3. tail stage: turn the word and the locator into a codeword;
4. verify codeword membership and distance exactly t.

Count stages: the paper's rank scan (`detect_error_count`, the smallest t
whose (n-k-t) x t Hankel matrix has the rank of its (n-k-t) x (t+1)
augmentation; t + 1 rank checks, each one elimination of the augmented
matrix with pivots restricted to its first t columns) and the
Peterson-Gorenstein-Zierler determinant scan (the largest h <= tau with
a nonzero h x h Hankel determinant; 0 checks for a codeword, tau - t + 1
on success, tau on failure).

Tails: the paper's recover (`_recover`) extends the syndromes by the
other k evaluations to the interpolation polynomial f_u (degree < n).
lambda * f_u = lambda * f_c + (x^n - 1) * mu with deg f_c < k, so mu is
read off the coefficients of x^n and above, f_c = f_u - (x^n - 1) * mu /
lambda with the division exact, and the codeword is f_c evaluated at
alpha^0, ..., alpha^(n-1).  Positions (`_error_positions_and_values`)
reads the error positions off the locator's roots and solves a t x t
system for the error values; it never interpolates the whole word.

The decoders are the pairs `decode` (rank scan, recover),
`decode_via_positions` (rank scan, positions) and `pgz_decode`
(determinant scan, positions).  As every answer is re-verified, inputs
beyond the correction radius either raise DecodeFailure or decode to
some codeword genuinely within distance tau.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
from .femat import FeMat, _eliminate
from .poly import Poly
from .rscode import RSCode


@dataclass
class DecodeTrace:
    """Work counters and intermediate values of one decode call.

    rank_checks counts the rank scan's rank-equality tests, det_checks the
    determinant scan's determinants; the count stage that did not run
    leaves its counter at 0.  The interp_* and high_* values are set by
    the recover tail only.
    """

    rank_checks: int = 0
    det_checks: int = 0
    interp_degree: int | float | None = None
    high_quotient: Poly | None = None
    high_coeffs: tuple[int, ...] = ()


@dataclass
class DecodeOutcome:
    """A successful decode: the nearest codeword and how it was found.

    `message` is the k message symbols of `codeword`, the coefficients of
    its polynomial of degree < k.  The recover tail holds that polynomial
    already; otherwise the message is computed on first access, from k
    evaluations of the codeword (`RSCode.low_coefficients`).
    """

    codeword: tuple[int, ...]
    error: tuple[int, ...]
    error_count: int
    locator: Poly
    trace: DecodeTrace
    _code: RSCode | None = field(default=None, repr=False, compare=False)
    _message: tuple[int, ...] | None = field(default=None, repr=False, compare=False)

    @property
    def message(self) -> tuple[int, ...]:
        if self._message is None:
            self._message = self._code.low_coefficients(self.codeword)
        return self._message


def decode(code: RSCode, word: Sequence[int]) -> DecodeOutcome:
    """The paper's decoder: rank scan, then recover the codeword polynomial."""
    return _run(code, word, _rank_scan, _recover)


def decode_via_positions(code: RSCode, word: Sequence[int]) -> DecodeOutcome:
    """Rank scan, then read the error positions off the locator's roots."""
    return _run(code, word, _rank_scan, _error_positions_and_values)


def _run(code: RSCode, word: Sequence[int], count_stage, tail) -> DecodeOutcome:
    word = code.check_word(word)
    synd = code.syndromes(word)
    t, trace = count_stage(code, synd)
    if t == 0:
        return DecodeOutcome(word, (0,) * code.n, 0, Poly.one(code.field), trace, code)
    try:
        locator = solve_locator(code, synd, t)
        cw, message = tail(code, word, synd, locator, trace)
        return _verified_outcome(code, word, cw, t, locator, trace, message)
    except DecodeFailure as exc:
        exc.trace = trace
        raise


def _hankel(syndromes: np.ndarray, rows: int, cols: int) -> np.ndarray:
    idx = np.arange(rows, dtype=np.intp)[:, None] + np.arange(cols, dtype=np.intp)[None, :]
    return syndromes[idx]


# ----- count stages: (code, syndromes) -> (t, trace), or TooManyErrors ----------

def detect_error_count(code: RSCode, syndromes: Sequence[int]) -> int | None:
    """Smallest t in [0, tau] consistent with the syndromes, else None.

    Candidate t is consistent when appending the next syndrome column to
    the (n-k-t) x t Hankel matrix does not raise its rank.  One elimination
    of the (n-k-t) x (t+1) augmented matrix, with pivots taken from the
    first t columns only, decides it: the ranks are equal iff column t has
    no nonzero left below the pivot rows.
    """
    s = _check_syndromes(code, syndromes)
    for t in range(code.tau + 1):
        aug = _hankel(s, code.n - code.k - t, t + 1)
        pivots, _ = _eliminate(code.field, aug, pivot_cols=t)
        if not aug[len(pivots):, t].any():
            return t
    return None


def _rank_scan(code: RSCode, synd: Sequence[int]) -> tuple[int, DecodeTrace]:
    t = detect_error_count(code, synd)
    if t is None:
        raise TooManyErrors(
            f"no error count <= tau = {code.tau} fits the syndromes",
            trace=DecodeTrace(rank_checks=code.tau + 1))
    return t, DecodeTrace(rank_checks=t + 1)


def _determinant_scan(code: RSCode, synd: Sequence[int]) -> tuple[int, DecodeTrace]:
    s = _check_syndromes(code, synd)
    if not s.any():
        return 0, DecodeTrace()
    for checks, h in enumerate(range(code.tau, 0, -1), start=1):
        if FeMat._wrap(code.field, _hankel(s, h, h)).det() != 0:
            return h, DecodeTrace(det_checks=checks)
    raise TooManyErrors(
        f"all Hankel determinants up to tau = {code.tau} vanish for a "
        "nonzero syndrome vector",
        trace=DecodeTrace(det_checks=code.tau))


def solve_locator(code: RSCode, syndromes: Sequence[int], t: int) -> Poly:
    """Monic degree-t locator from the t x t Hankel syndrome system.

    For the true error count t <= tau the system is uniquely solvable and
    the constant term is nonzero (zero is not an evaluation point); both
    are still checked and reported as SingularLocatorSystem.
    """
    if not 1 <= t <= code.tau:
        raise ValueError(f"error count t={t} must satisfy 1 <= t <= tau = {code.tau}")
    s = _check_syndromes(code, syndromes)
    lhs = FeMat._wrap(code.field, _hankel(s, t, t))
    rhs = [code.field.neg(int(x)) for x in s[t:2 * t]]
    res = lhs.solve(rhs)
    if not res.is_unique():
        raise SingularLocatorSystem(
            f"locator system for t={t} is {res.status.value}")
    if res.solution[0] == 0:
        raise SingularLocatorSystem(
            "locator constant term is zero, implying an error at the "
            "excluded point 0")
    return Poly(code.field, res.solution + (1,))


# ----- tails: (code, word, syndromes, locator, trace) -> (codeword, message or None)

def recover_codeword_polynomial(code: RSCode, word: Sequence[int],
                                locator: Poly, t: int) -> Poly:
    """Codeword polynomial (degree < k) from the word and its locator."""
    word = code.check_word(word)
    _, message = _recover(code, word, code.syndromes(word), locator, DecodeTrace())
    return Poly(code.field, message)


def _recover(code: RSCode, word: tuple[int, ...], synd: Sequence[int],
             locator: Poly, trace: DecodeTrace) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # lambda * f_u = lambda * f_c + (x^n - 1) * mu with deg(lambda * f_c)
    # < k + t <= n, so the coefficients of x^n and above are exactly those
    # of x^n * mu, and subtracting mu's own coefficients is folded into
    # the (x^n - 1) * mu construction below.
    f = code.field
    rest = f.eval_at_powers(word, first=code.n - code.k + 1, count=code.k)
    interp = code.interpolate_from_evaluations(np.concatenate((f.asarray(synd), rest)))
    prod = locator * interp
    high = tuple(prod.coeffs[code.n:])
    mu = Poly(f, high)
    wrapped = mu.shifted(code.n) - mu
    quot, rem = divmod(wrapped, locator)
    if not rem.is_zero():
        raise InexactDivision(
            "locator does not divide the wrapped high part; it cannot "
            "explain the received word")
    gc = interp - quot
    if gc.degree >= code.k:
        raise DegreeTooHigh(
            f"recovered polynomial has degree {gc.degree}, expected < k = {code.k}")
    trace.interp_degree = interp.degree
    trace.high_quotient = mu
    trace.high_coeffs = high
    cw = tuple(f.eval_at_powers(gc.coeffs, first=0, count=code.n).tolist())
    return cw, gc.coeffs + (0,) * (code.k - len(gc.coeffs))


def _error_positions_and_values(code: RSCode, word: tuple[int, ...], synd: Sequence[int],
                                locator: Poly, trace: DecodeTrace) -> tuple[tuple[int, ...], None]:
    """Error positions (locator roots' discrete logs) and values,
    subtracted from the word."""
    f = code.field
    t = locator.degree
    roots = locator.roots_nonzero()
    if len(roots) != t:
        raise RootCountMismatch(
            f"locator of degree {t} has {len(roots)} distinct nonzero roots")
    positions = sorted(f.dlog(r) for r in roots)
    # Row r (0-based) of the system: sum_j alpha^((r+1) * i_j) e_(i_j) = s_r.
    lhs = FeMat(f, [[f.pow(f.alpha, (r + 1) * pos) for pos in positions]
                    for r in range(t)])
    res = lhs.solve(list(synd[:t]))
    if not res.is_unique():
        raise SingularLocatorSystem(
            f"error value system for t={t} is {res.status.value}")
    cw = list(word)
    for pos, val in zip(positions, res.solution):
        cw[pos] = f.sub(cw[pos], val)
    return tuple(cw), None


def _verified_outcome(code: RSCode, word: tuple[int, ...], cw: tuple[int, ...],
                      t: int, locator: Poly, trace: DecodeTrace,
                      message: tuple[int, ...] | None) -> DecodeOutcome:
    if any(code.syndromes(cw)):
        raise VerifyFailed("decoded word is not a codeword")
    err = code.field.sub_arr(np.array(word, dtype=np.int64), np.array(cw, dtype=np.int64))
    weight = int(np.count_nonzero(err))
    if weight != t:
        raise VerifyFailed(
            f"decoded codeword is at distance {weight}, expected exactly {t}")
    return DecodeOutcome(cw, tuple(err.tolist()), t, locator, trace, code, message)


def _check_syndromes(code: RSCode, syndromes: Sequence[int]) -> np.ndarray:
    if len(syndromes) != code.n - code.k:
        raise ValueError(
            f"syndrome vector length {len(syndromes)} != n - k = {code.n - code.k}")
    return code.field.asarray(syndromes)

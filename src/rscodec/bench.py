"""Instrumented decoder comparison sweeps.

A sweep fixes a code, draws `trials_per_t` random (codeword, corruption)
pairs for each requested error weight t, runs each configured decoder on
the same corrupted words, and aggregates per (decoder, t): success and
failure counts, mean count-stage work counters (rank checks for the
interpolation decoders, determinant-scan candidates decided for PGZ,
neither for BM), mean field multiplications, and mean wall time.

A trial succeeds when the decoder returns exactly the transmitted
codeword; a DecodeFailure or a different (necessarily verified) codeword
counts as failure.  For t <= tau failures cannot occur; above tau the
failure rate is the interesting number.

Everything except wall time is a deterministic function of the seed, so
serialized reports are byte-identical across runs; wall time is therefore
left out of the JSON by default.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import asdict, dataclass

from . import gf
from .decode_interp import bm_decode, decode, decode_via_positions, pgz_decode
from .exceptions import DecodeFailure
from .rscode import RSCode

# The one decoder registry, shared with the CLI's `decode` and `compare`.
DECODERS = {
    "interp": decode,
    "interp-pos": decode_via_positions,
    "pgz": pgz_decode,
    "bm": bm_decode,
}


@dataclass(frozen=True)
class TrialConfig:
    code: RSCode
    t_values: tuple[int, ...]
    trials_per_t: int
    seed: int
    decoders: tuple[str, ...] = ("interp", "pgz")


@dataclass
class TrialRow:
    decoder: str
    t: int
    trials: int
    successes: int
    failures: int
    rank_checks_mean: float
    det_checks_mean: float
    mul_count_mean: float
    wall_ns_mean: float


@dataclass
class TrialReport:
    rows: list[TrialRow]


def random_message(rng: random.Random, code: RSCode) -> tuple[int, ...]:
    return tuple(rng.randrange(code.field.q) for _ in range(code.k))


def random_error(rng: random.Random, code: RSCode, t: int) -> tuple[int, ...]:
    """Error vector of exact Hamming weight t: a partial Fisher-Yates
    shuffle picks the support, values are uniform nonzero symbols."""
    if not 0 <= t <= code.n:
        raise ValueError(f"error weight {t} must be in [0, {code.n}]")
    idx = list(range(code.n))
    for i in range(t):
        j = rng.randrange(i, code.n)
        idx[i], idx[j] = idx[j], idx[i]
    err = [0] * code.n
    for pos in idx[:t]:
        err[pos] = rng.randrange(1, code.field.q)
    return tuple(err)


def _validate(cfg: TrialConfig) -> None:
    if not isinstance(cfg.code, RSCode):
        raise ValueError("config.code must be an RSCode")
    if not cfg.t_values:
        raise ValueError("config.t_values must be nonempty")
    for t in cfg.t_values:
        if not 0 <= t <= cfg.code.n:
            raise ValueError(f"t value {t} outside [0, {cfg.code.n}]")
    if cfg.trials_per_t < 1:
        raise ValueError("config.trials_per_t must be >= 1")
    if not cfg.decoders:
        raise ValueError("config.decoders must be nonempty")
    for name in cfg.decoders:
        if name not in DECODERS:
            raise ValueError(f"unknown decoder {name!r}, expected one of {sorted(DECODERS)}")


def run_sweep(cfg: TrialConfig) -> TrialReport:
    """Run the sweep; deterministic in everything but wall time."""
    _validate(cfg)
    code = cfg.code
    f = code.field
    rng = random.Random(cfg.seed)
    # Draw all trial inputs first so the random stream does not depend on
    # which decoders are enabled.
    trials: list[tuple[int, list[tuple[tuple[int, ...], tuple[int, ...]]]]] = []
    for t in cfg.t_values:
        pairs = []
        for _ in range(cfg.trials_per_t):
            cw = code.encode(random_message(rng, code))
            err = random_error(rng, code, t)
            received = tuple(f.add(c, e) for c, e in zip(cw, err))
            pairs.append((cw, received))
        trials.append((t, pairs))

    rows = []
    for name in cfg.decoders:
        fn = DECODERS[name]
        for t, pairs in trials:
            successes = failures = 0
            rank_sum = det_sum = mul_sum = wall_sum = 0
            for cw, received in pairs:
                mul_start = gf.mul_ops_total()
                t_start = time.perf_counter_ns()
                try:
                    outcome = fn(code, received)
                except DecodeFailure as exc:
                    trace = exc.trace
                    failures += 1
                else:
                    trace = outcome.trace
                    if outcome.codeword == cw:
                        successes += 1
                    else:
                        failures += 1
                wall_sum += time.perf_counter_ns() - t_start
                mul_sum += gf.mul_ops_total() - mul_start
                rank_sum += trace.rank_checks
                det_sum += trace.det_checks
            n_tr = len(pairs)
            rows.append(TrialRow(
                decoder=name, t=t, trials=n_tr,
                successes=successes, failures=failures,
                rank_checks_mean=rank_sum / n_tr,
                det_checks_mean=det_sum / n_tr,
                mul_count_mean=mul_sum / n_tr,
                wall_ns_mean=wall_sum / n_tr,
            ))
    return TrialReport(rows)


def report_to_json(report: TrialReport, include_wall: bool = False) -> str:
    """Newline-delimited JSON, one record per (decoder, t) row.

    A record holds the row's fields in `TrialRow`'s order; its floats, the
    means, are printed with six fractional digits.  Wall time is excluded
    unless requested, keeping the default output byte-identical for a
    given seed.
    """
    out = []
    for row in report.rows:
        fields = asdict(row)
        if not include_wall:
            del fields["wall_ns_mean"]
        parts = [f'"{name}": {value:.6f}' if isinstance(value, float)
                 else f'"{name}": {json.dumps(value)}' for name, value in fields.items()]
        out.append("{" + ", ".join(parts) + "}\n")
    return "".join(out)

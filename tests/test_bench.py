"""Benchmark sweep tests: counter laws, determinism, serialization."""

import json
import random

import pytest

from rscodec.bench import (
    TrialConfig,
    TrialReport,
    TrialRow,
    random_error,
    report_to_json,
    run_sweep,
)

from .util import get_code


def _rows_by(report, decoder):
    return {row.t: row for row in report.rows if row.decoder == decoder}


def test_exact_counter_means_small_code():
    # On RS(7, alpha=5, k=2) the step-1 counters are functions of t alone:
    # interp does t + 1 rank checks, pgz decides tau - t + 1 determinant
    # candidates (0 at t = 0), so the means are exact integers.
    cfg = TrialConfig(code=get_code(7, 2, alpha=5), t_values=(0, 1, 2),
                      trials_per_t=40, seed=123)
    report = run_sweep(cfg)
    interp = _rows_by(report, "interp")
    pgz = _rows_by(report, "pgz")
    assert interp[0].rank_checks_mean == 1.0
    assert interp[1].rank_checks_mean == 2.0
    assert interp[2].rank_checks_mean == 3.0
    assert pgz[0].det_checks_mean == 0.0
    assert pgz[1].det_checks_mean == 2.0
    assert pgz[2].det_checks_mean == 1.0
    for rows in (interp, pgz):
        for t in (0, 1, 2):
            assert rows[t].successes == rows[t].trials == 40
            assert rows[t].failures == 0
    # the counters the other decoder does not use stay zero
    assert all(interp[t].det_checks_mean == 0.0 for t in (0, 1, 2))
    assert all(pgz[t].rank_checks_mean == 0.0 for t in (0, 1, 2))


def test_counter_crossover():
    # RS(17, k=4), tau = 6: at t = 1 interpolation does less step-1 work
    # (2 rank checks vs 6 determinant candidates); at t = tau the order flips
    # (7 vs 1).
    cfg = TrialConfig(code=get_code(17, 4), t_values=(0, 1, 2, 3, 4, 5, 6),
                      trials_per_t=25, seed=9)
    report = run_sweep(cfg)
    interp = _rows_by(report, "interp")
    pgz = _rows_by(report, "pgz")
    assert interp[1].rank_checks_mean == 2.0 < pgz[1].det_checks_mean == 6.0
    assert interp[6].rank_checks_mean == 7.0 > pgz[6].det_checks_mean == 1.0
    # interpolation work is nondecreasing in t; the pgz scan shortens as t
    # grows (for t >= 1; its t = 0 fast path costs nothing)
    ts = sorted(interp)
    for a, b in zip(ts, ts[1:]):
        assert interp[a].rank_checks_mean <= interp[b].rank_checks_mean
    for a, b in zip(ts[1:], ts[2:]):
        assert pgz[a].det_checks_mean >= pgz[b].det_checks_mean
    assert all(interp[t].successes == 25 for t in ts)
    assert all(pgz[t].successes == 25 for t in ts)


def test_mul_counts_positive_and_ordered():
    cfg = TrialConfig(code=get_code(17, 4), t_values=(1, 6),
                      trials_per_t=10, seed=4, decoders=("interp", "pgz"))
    report = run_sweep(cfg)
    for row in report.rows:
        assert row.mul_count_mean > 0
        assert row.wall_ns_mean > 0


def test_report_deterministic():
    cfg = TrialConfig(code=get_code(13, 3), t_values=(0, 1, 2, 3, 4, 5),
                      trials_per_t=30, seed=77,
                      decoders=("interp", "interp-pos", "pgz"))
    a = report_to_json(run_sweep(cfg))
    b = report_to_json(run_sweep(cfg))
    assert a == b


def test_inputs_independent_of_decoder_set():
    # enabling more decoders must not change what any one decoder sees
    base = dict(code=get_code(13, 3), t_values=(0, 2, 4), trials_per_t=20,
                seed=5)
    solo = run_sweep(TrialConfig(decoders=("pgz",), **base))
    both = run_sweep(TrialConfig(decoders=("interp", "pgz"), **base))
    solo_rows = [(r.t, r.successes, r.det_checks_mean, r.mul_count_mean)
                 for r in solo.rows]
    both_rows = [(r.t, r.successes, r.det_checks_mean, r.mul_count_mean)
                 for r in both.rows if r.decoder == "pgz"]
    assert solo_rows == both_rows


def test_json_shape():
    cfg = TrialConfig(code=get_code(7, 2, alpha=5), t_values=(0, 2),
                      trials_per_t=5, seed=1)
    text = report_to_json(run_sweep(cfg))
    lines = text.splitlines()
    assert len(lines) == 4  # 2 decoders x 2 t values
    for line in lines:
        rec = json.loads(line)
        assert set(rec) == {"decoder", "t", "trials", "successes",
                            "failures", "rank_checks_mean",
                            "det_checks_mean", "mul_count_mean"}
    # means are rendered with six fractional digits
    assert '"rank_checks_mean": 1.000000' in lines[0]

    with_wall = report_to_json(run_sweep(cfg), include_wall=True)
    for line in with_wall.splitlines():
        assert "wall_ns_mean" in json.loads(line)


def test_json_bytes_pinned():
    # The `compare` output contract, byte for byte: key order, ": " and ", "
    # spacing, six fractional digits on the means, the JSON-quoted decoder.
    report = TrialReport([
        TrialRow("interp", 2, 5, 4, 1, 3.0, 0.0, 1234.5, 98765.4321),
        TrialRow('a"b', 0, 1, 1, 0, 1 / 3, 2 / 3, 0.0, 1e-7),
    ])
    assert report_to_json(report) == (
        '{"decoder": "interp", "t": 2, "trials": 5, "successes": 4, "failures": 1, '
        '"rank_checks_mean": 3.000000, "det_checks_mean": 0.000000, '
        '"mul_count_mean": 1234.500000}\n'
        '{"decoder": "a\\"b", "t": 0, "trials": 1, "successes": 1, "failures": 0, '
        '"rank_checks_mean": 0.333333, "det_checks_mean": 0.666667, '
        '"mul_count_mean": 0.000000}\n')
    assert report_to_json(report, include_wall=True) == (
        '{"decoder": "interp", "t": 2, "trials": 5, "successes": 4, "failures": 1, '
        '"rank_checks_mean": 3.000000, "det_checks_mean": 0.000000, '
        '"mul_count_mean": 1234.500000, "wall_ns_mean": 98765.432100}\n'
        '{"decoder": "a\\"b", "t": 0, "trials": 1, "successes": 1, "failures": 0, '
        '"rank_checks_mean": 0.333333, "det_checks_mean": 0.666667, '
        '"mul_count_mean": 0.000000, "wall_ns_mean": 0.000000}\n')
    assert report_to_json(TrialReport([])) == ""


def test_failures_counted_above_radius():
    # at t = tau + 1 some trials must fail, and the books balance
    cfg = TrialConfig(code=get_code(7, 2, alpha=5), t_values=(3,),
                      trials_per_t=60, seed=11)
    report = run_sweep(cfg)
    for row in report.rows:
        assert row.successes + row.failures == row.trials == 60
        assert row.failures > 0


def test_random_error_weight_exact():
    rng = random.Random(2)
    code = get_code(13, 4)
    for t in range(code.n + 1):
        err = random_error(rng, code, t)
        assert len(err) == code.n
        assert sum(1 for e in err if e) == t
        assert all(0 <= e < 13 for e in err)
    assert random_error(rng, code, 0) == (0,) * code.n
    with pytest.raises(ValueError):
        random_error(rng, code, code.n + 1)


def test_config_validation():
    code = get_code(7, 2, alpha=5)
    good = dict(code=code, t_values=(1,), trials_per_t=1, seed=0)
    run_sweep(TrialConfig(**good))
    with pytest.raises(ValueError):
        run_sweep(TrialConfig(**{**good, "t_values": ()}))
    with pytest.raises(ValueError):
        run_sweep(TrialConfig(**{**good, "t_values": (7,)}))
    with pytest.raises(ValueError):
        run_sweep(TrialConfig(**{**good, "trials_per_t": 0}))
    with pytest.raises(ValueError):
        run_sweep(TrialConfig(**{**good, "decoders": ()}))
    with pytest.raises(ValueError):
        run_sweep(TrialConfig(**{**good, "decoders": ("bogus",)}))
    with pytest.raises(ValueError, match="config.code must be an RSCode"):
        run_sweep(TrialConfig(**{**good, "code": "x"}))

"""Tests of the benchmark itself: input generation, output checks, span
arithmetic and the wrapping of the program's functions.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import rscodec  # noqa: E402
import rscodec.bench  # noqa: E402
import rscodec.cli  # noqa: E402
import rscodec.decode_interp  # noqa: E402
import rscodec.decode_pgz  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def _report(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-2])["report"]


def _inputs(wl, seed):
    ref = workloads.RefField(workloads.Q, workloads.REDUCTION, workloads.ALPHA)
    msgs = workloads.messages(wl, seed, 3)
    cws = ref.encode(msgs)
    return (workloads.render_payload(msgs),
            workloads.corrupted_stream(wl, seed, cws, 4))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_streams(name):
    wl = workloads.WORKLOADS[name]
    first = _inputs(wl, 11)
    assert first == _inputs(wl, 11)
    assert first != _inputs(wl, 12)


def test_weights_are_stratified_and_errors_exact():
    wl = workloads.WORKLOADS["noisy-bytes"]
    chunk = [workloads.error_weight(wl, 5, i) for i in range(16, 32)]
    assert sorted(chunk) == list(range(1, 17))
    for i in range(16):
        for variant in range(3):
            err = workloads.error_vector(wl, 5, i, variant)
            assert np.count_nonzero(err) == workloads.error_weight(wl, 5, i)
    assert not np.array_equal(workloads.error_vector(wl, 5, 3, 0),
                              workloads.error_vector(wl, 5, 3, 1))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reference_encoder_matches_the_program(name):
    wl = workloads.WORKLOADS[name]
    msgs = workloads.messages(wl, 2, 2)
    ref = workloads.RefField(workloads.Q, workloads.REDUCTION, workloads.ALPHA).encode(msgs)
    code = rscodec.RSCode(rscodec.Field(workloads.Q), wl.k)
    for m, c in zip(msgs, ref):
        assert code.encode(m.tolist()) == tuple(c.tolist())


def test_wrong_decoded_payload_fails_the_run(monkeypatch, capsys):
    original = run.Run.cli

    def tampered(self, *args):
        result = original(self, *args)
        if args[0] == "decode":
            out = Path(args[-1])
            data = bytearray(out.read_bytes())
            data[0] ^= 1
            out.write_bytes(bytes(data))
        return result

    monkeypatch.setattr(run.Run, "cli", tampered)
    code = run.main(["--workload", "clean-bytes", "--seed", "1", "--seconds", "0.5"])
    out = capsys.readouterr().out
    result = _last_json(out)
    assert code != 0
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]
    assert _report(out)["failed_share"] > 0


def test_untraced_run_reports_every_end_to_end_metric(capsys):
    assert run.main(["--workload", "clean-bytes", "--seed", "2", "--seconds", "0.5"]) == 0
    result = _last_json(capsys.readouterr().out)
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric(capsys):
    assert run.main(["--workload", "noisy-bytes", "--seed", "3", "--seconds", "0.5",
                     "--trace", "1"]) == 0
    out = capsys.readouterr().out
    result = _last_json(out)
    names = [m.name for m in tracer.LAYER_METRICS] + list(run.TRACE_UNITS)
    assert list(result["metrics"]) == names
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert _report(out)["missing"] == {}
    assert result["metrics"]["cli.interpolate_per_block"]["value"] == 1.0


def test_self_time_subtracts_the_union_of_child_spans():
    #   span 0: [0, 100] with children 1 [10, 30], 2 [20, 50], 3 [90, 120]
    #   span 1: [10, 30] with child 4 [12, 15]
    start = [0, 10, 20, 90, 12]
    end = [100, 30, 50, 120, 15]
    parent = [-1, 0, 0, 0, 1]
    # Children of span 0 cover [10, 50] and [90, 100]: 50 of its 100.
    assert tracer.self_times(start, end, parent) == [50, 17, 30, 30, 3]


def _noisy_word(code, t, seed=0):
    rng = np.random.default_rng(seed)
    cw = code.encode(rng.integers(0, code.field.q, code.k).tolist())
    word = list(cw)
    for pos in rng.choice(code.n, t, replace=False):
        word[pos] ^= int(rng.integers(1, code.field.q))
    return cw, tuple(word)


def test_wraps_every_binding_and_restores_them():
    originals = {
        "cli": rscodec.cli.CLI_DECODERS["interp"],
        "bench": rscodec.bench.DECODERS["interp"],
        "cli_decode": rscodec.cli.decode,
        "pgz_solve": rscodec.decode_pgz.solve_locator,
        "interp_solve": rscodec.decode_interp.solve_locator,
        "encode": rscodec.RSCode.encode,
    }
    code = rscodec.RSCode(rscodec.Field(256), 223)
    cw, word = _noisy_word(code, 5)
    with tracer.Tracer() as tr:
        assert rscodec.cli.CLI_DECODERS["interp"] is not originals["cli"]
        assert rscodec.bench.DECODERS["interp"] is not originals["bench"]
        assert rscodec.cli.decode is rscodec.cli.CLI_DECODERS["interp"]
        assert rscodec.decode_pgz.solve_locator is not originals["pgz_solve"]
        assert rscodec.cli.CLI_DECODERS["pgz"](code, word).codeword == cw
        assert rscodec.cli.CLI_DECODERS["interp"](code, word).codeword == cw
    totals = tr.totals()
    assert totals["decode_interp.solve_locator"][0] == 2  # once per decoder
    assert totals[tracer.DECODE][0] == totals[tracer.PGZ][0] == 1
    assert tr.blocks_seen() == 2
    assert rscodec.cli.CLI_DECODERS["interp"] is originals["cli"]
    assert rscodec.bench.DECODERS["interp"] is originals["bench"]
    assert rscodec.cli.decode is originals["cli_decode"]
    assert rscodec.decode_pgz.solve_locator is originals["pgz_solve"]
    assert rscodec.decode_interp.solve_locator is originals["interp_solve"]
    assert rscodec.RSCode.encode is originals["encode"]


def test_missing_wrap_target_is_a_missing_metric():
    targets = [t for t in tracer.TARGETS if t.name not in ("decode_interp.recover", "poly.mul")]
    targets.append(tracer.Target("decode_interp.recover", "rscodec.decode_interp",
                                 "_no_such_stage"))
    targets.append(tracer.Target("poly.mul", "rscodec.no_such_module", "mul"))
    code = rscodec.RSCode(rscodec.Field(256), 223)
    cw, word = _noisy_word(code, 3)
    with tracer.Tracer(targets) as tr:
        assert rscodec.decode(code, word).codeword == cw
    metrics = tracer.layer_metrics(tr, blocks=1, mul_ops=None)
    assert metrics["decode_interp.recover.self_ms"]["value"] is None
    assert "_no_such_stage" in metrics["decode_interp.recover.self_ms"]["missing"]
    assert metrics["poly.mul.calls"]["value"] is None
    assert metrics["gf.mul_ops"]["value"] is None
    assert metrics["decode_interp.decode.self_ms"]["value"] > 0
    assert metrics["decode_interp.rank_checks"]["value"] == 4


def test_failing_count_hook_does_not_break_the_program():
    def broken(tr, args, result):
        raise KeyError("gone")

    targets = [t for t in tracer.TARGETS if t.name != "femat.rank"]
    targets.append(tracer.Target("femat.rank", "rscodec.femat", "FeMat.rank", hook=broken))
    code = rscodec.RSCode(rscodec.Field(256), 223)
    cw, word = _noisy_word(code, 2)
    with tracer.Tracer(targets) as tr:
        assert rscodec.decode(code, word).codeword == cw
    metrics = tracer.layer_metrics(tr, blocks=1, mul_ops=0)
    assert metrics["femat.cells"]["value"] is None
    assert metrics["femat.rank.calls"]["value"] is None


def test_benchmark_json_names_match_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer = {m.name: m.unit for m in tracer.LAYER_METRICS} | run.TRACE_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer

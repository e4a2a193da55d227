"""What the traced benchmark reads of the codec.

`perfbench/run.py --trace 1` wraps every binding in `perfbench/tracer.py`'s
`TARGETS` and reads counts off some of their arguments and results.  A
binding that is gone, or a count hook that fails, does not stop the run:
it exits 0 and reports the metrics that need it as `null`.  So these tests
fail instead: each workload's traced run must report every per-layer
metric of `BENCHMARK.json` as a finite number, and in this process every
target must be found, run and counted without a failing hook.
"""

import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rscodec
# Every module a target lives in is loaded before tracing, as the benchmark
# loads them: a module first imported while the wrappers are installed
# binds a wrapper that uninstalling does not restore.
from rscodec import cli, decode_interp, decode_pgz, femat, poly  # noqa: F401

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _strict_json(line: str):
    def reject(constant):
        raise ValueError(f"{constant} is not strict JSON")
    return json.loads(line, parse_constant=reject)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_run_reports_every_metric(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    *_, report_line, result_line = proc.stdout.splitlines()
    assert _strict_json(report_line)["report"]["missing"] == {}
    result = _strict_json(result_line)
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    assert {m["name"] for m in BENCHMARK["per_layer"]} <= set(metrics)
    for name, metric in metrics.items():
        value = metric["value"]
        assert "missing" not in metric, (name, metric)
        assert isinstance(value, (int, float)) and not isinstance(value, bool), (name, value)
        assert math.isfinite(value), (name, value)


def _load_tracer(monkeypatch):
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_is_found_run_and_counted(tmp_path, monkeypatch):
    tracer = _load_tracer(monkeypatch)
    field = rscodec.Field(16)
    code = rscodec.RSCode(field, 8)
    payload, stream = tmp_path / "payload.txt", tmp_path / "stream.rs"
    noisy, decoded = tmp_path / "noisy.rs", tmp_path / "decoded.txt"
    payload.write_text(" ".join(str(i % 16) for i in range(2 * code.k)) + "\n")
    a = femat.FeMat(field, [[1, 2], [3, 4]])
    p = poly.Poly(field, [1, 1])  # 1 + x, whose root is 1
    with tracer.Tracer() as tr:
        word = np.array(code.encode(range(1, 9)), dtype=np.int64)
        word[[2, 9]] = field.add_arr(word[[2, 9]], np.array([3, 5]))
        for name in decode_interp.DECODERS:
            out = decode_interp.DECODERS[name](code, word.tolist())
            assert out.error_count == 2
        decode_interp.detect_error_count(code, code.syndromes(word.tolist()))
        code.interpolate(word.tolist())
        a.rank(), a.det(), a.solve([1, 0])
        divmod(p * p, p), p.roots_nonzero()
        assert cli.main(["encode", "--q", "16", "--k", "8", str(payload), str(stream)]) == 0
        assert cli.main(["corrupt", "--errors", "2", "--seed", "1", str(stream), str(noisy)]) == 0
        assert cli.main(["decode", "--strict", str(noisy), str(decoded)]) == 0
    assert decoded.read_text() == payload.read_text()
    assert tr.missing == {}
    assert not {t.name for t in tracer.TARGETS} - set(tr.totals())

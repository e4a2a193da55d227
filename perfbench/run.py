"""rscodec benchmark: CLI stream throughput, per-block decode latency,
set-up time and memory, plus a traced run for per-layer numbers.

    python3 perfbench/run.py --workload noisy-bytes --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the program is imported from
`src/` of that checkout and nowhere else.  Every run checks every output
of the program, prints a detail line per metric, a JSON report line with
the machine facts, and as its last line a JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit code is 0 only
when every check passed.

Untraced (`--trace 0`), the run makes rounds until --seconds have
passed, each round timing one `rscodec encode` and one `rscodec decode
--strict` in child processes and set-up in two fresh interpreters, with
a pass of `rscodec.decode` and of `rscodec.pgz_decode` over their block
slots after each (or every other) of these four steps; it stops after the step that ends
past --seconds.  Traced (`--trace 1`), it passes T blocks once through
CLI encode, CLI decode and `rscodec.pgz_decode`, all in this process,
with every layer wrapped by tracer.py, after running the same CLI decode
untraced to report the tracing overhead.
perfbench/README.md defines every metric.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import tracer  # noqa: E402
from workloads import (  # noqa: E402
    ALPHA,
    Q,
    REDUCTION,
    STREAM_MAGIC,
    STREAM_VERSION,
    WORKLOADS,
    RefField,
    Workload,
    corrupted_stream,
    error_vector,
    error_weight,
    messages,
    parse_stream,
    render_payload,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"

# An untraced run makes at least MIN_ROUNDS rounds, and more steps until
# --seconds have passed.
MIN_ROUNDS = 3
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "encode_kib_s": "KiB/s",
    "decode_kib_s": "KiB/s",
    "decode_block_p50_ms": "ms",
    "decode_block_p90_ms": "ms",
    "pgz_block_p50_ms": "ms",
    "pgz_block_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}

TRACE_UNITS = {
    "trace.decode_kib_s": "KiB/s",
    "trace.untraced_decode_kib_s": "KiB/s",
    "trace.slowdown": "ratio",
}

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import rscodec
q, k = int(sys.argv[1]), int(sys.argv[2])
code = rscodec.RSCode(rscodec.Field(q), k)
code.encode([1] * k)
print(time.perf_counter() - t0, rscodec.__file__)
"""


class BenchError(Exception):
    """The program could not be found or a measurement could not be made."""


class Checks:
    """Output checks made in a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class Run:
    """State of one benchmark run: workload, seed, scratch files, checks."""

    def __init__(self, workload: Workload, seed: int, seconds: float, work: Path):
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.checks = Checks()
        self.deadline = time.monotonic() + DEADLINE_S
        self.peak_rss_kib = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.ref = RefField(Q, REDUCTION, ALPHA)

    def payload_kib(self, blocks: int) -> float:
        return blocks * self.wl.k / 1024

    def child(self, argv: list[str]) -> tuple[int, float, str]:
        """Run a child process to its end: (exit code, wall seconds, stdout)."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run exceeded its time limit")
        out_path = self.work / "child.out"
        with open(out_path, "wb") as out, open(self.work / "child.err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            killer = threading.Timer(remaining, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode < 0:
            raise BenchError(f"child {argv[:4]} ended by signal {-proc.returncode}")
        if argv[1:3] == ["-m", "rscodec"]:
            self.peak_rss_kib = max(self.peak_rss_kib, usage.ru_maxrss)
        return proc.returncode, wall, out_path.read_text()

    def cli(self, *args: str) -> tuple[int, float]:
        code, wall, _ = self.child([sys.executable, "-m", "rscodec", *map(str, args)])
        return code, wall

    # ----- inputs ----------------------------------------------------------------

    def codewords(self, payload_blocks: int) -> tuple[np.ndarray, np.ndarray]:
        msgs = messages(self.wl, self.seed, payload_blocks)
        return msgs, self.ref.encode(msgs)

    def expected_payload(self, msgs: np.ndarray, count: int) -> bytes:
        return render_payload(np.stack([msgs[i % len(msgs)] for i in range(count)]))

    def check_stream(self, data: bytes, reference: np.ndarray, payload_len: int,
                     what: str) -> None:
        """Check an encoded stream against the reference encoding."""
        wl = self.wl
        try:
            header, blocks = parse_stream(data)
        except ValueError as exc:
            self.checks.record(False, f"{what}: {exc}")
            return
        ok = (header == (STREAM_MAGIC, STREAM_VERSION, Q, wl.k, ALPHA, payload_len)
              and blocks.shape == reference.shape and bool((blocks == reference).all()))
        self.checks.record(ok, f"{what}: stream differs from the reference encoding")

    def check_outcome(self, outcome, codeword: np.ndarray, t: int, what: str) -> None:
        ok = (tuple(outcome.codeword) == tuple(codeword.tolist())
              and outcome.error_count == t)
        self.checks.record(ok, f"{what}: wrong codeword or error count")


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def import_program():
    """Import rscodec from this checkout's src/ and nowhere else."""
    if not (SRC / "rscodec" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC / 'rscodec'}")
    sys.path.insert(0, str(SRC))
    module = importlib.import_module("rscodec")
    importlib.import_module("rscodec.cli")  # loaded before any tracing starts
    if Path(module.__file__).resolve().parent != (SRC / "rscodec").resolve():
        raise BenchError(f"rscodec imported from {module.__file__}, not from {SRC}")
    return module


# ----- untraced run ----------------------------------------------------------------

class SlotTimer:
    """Times `fn(code, word)` on a fixed number of slots per pass.

    Slot i keeps the error weight of block i in every pass, but each
    pass gives it another codeword (a multiple alpha^s * c of an encoded
    one) and another error pattern, so no input repeats and no cache in
    the program can serve it.  A slot's latency is its fastest pass: the
    machine has slow spells of a fraction of a second to several seconds,
    and a fast pass of each slot is the program's own speed.
    """

    def __init__(self, run: Run, rscodec, fn, cws: np.ndarray, slots: int):
        self.run, self.rscodec, self.fn, self.cws = run, rscodec, fn, cws
        self.code = rscodec.RSCode(rscodec.Field(Q), run.wl.k)
        fn(self.code, tuple(cws[0].tolist()))  # lazy tables are set-up, not latency
        self.best_ms = [float("inf")] * slots
        self.mul_ops: list[int] = []
        self.passes = 0

    def one_pass(self) -> None:
        run, wl, cws, slots = self.run, self.run.wl, self.cws, len(self.best_ms)
        r = self.passes
        self.passes += 1
        for i in range(slots):
            power, index = divmod(r * slots + i, len(cws))
            cw = run.ref.scale(cws[index], power)
            word = tuple((cw ^ error_vector(wl, run.seed, i, variant=r)).tolist())
            what = f"{self.fn.__name__} slot {i} pass {r}"
            ops0 = self.rscodec.mul_ops_total()
            t0 = time.perf_counter_ns()
            try:
                outcome = self.fn(self.code, word)
            except Exception as exc:  # a failing decode is a failed check
                run.checks.record(False, f"{what}: raised {exc!r}")
                continue
            t1 = time.perf_counter_ns()
            self.mul_ops.append(self.rscodec.mul_ops_total() - ops0)
            self.best_ms[i] = min(self.best_ms[i], (t1 - t0) / 1e6)
            run.check_outcome(outcome, cw, error_weight(wl, run.seed, i), what)


def setup_time(run: Run) -> float:
    """Seconds a fresh interpreter takes to import rscodec and build the
    workload's code with its lazy tables."""
    code, _, out = run.child([sys.executable, "-c", SETUP_CODE, str(Q), str(run.wl.k)])
    if code != 0:
        raise BenchError(f"set-up child exited {code}")
    seconds, path = out.split(maxsplit=1)
    if Path(path.strip()).resolve().parent != (SRC / "rscodec").resolve():
        raise BenchError(f"set-up child imported rscodec from {path.strip()}")
    return float(seconds)


def untraced_run(run: Run, rscodec, report: dict) -> dict[str, float]:
    """Rounds of four steps: one CLI encode, one CLI decode and two
    set-ups, with a pass over the library decode slots and one over the
    PGZ slots after each step, or after every other step where the
    workload says so.  Interleaving spreads every metric's samples over
    the whole run, so a slow spell of the machine touches all of them a
    little instead of one of them a lot, and gives every slot several
    passes a round to find a fast one.  The run ends with the first
    step that ends past --seconds.  Each CLI call is a fresh process on
    the same input, and its metric is the fastest call of the run."""
    wl = run.wl
    enc_blocks = wl.blocks(wl.encode_rate, run.seconds)
    dec_blocks = wl.blocks(wl.decode_rate, run.seconds)
    msgs, cws = run.codewords(enc_blocks)
    payload_path, stream_path = run.work / "payload", run.work / "stream.rs"
    noisy_path, out_path = run.work / "noisy.rs", run.work / "decoded"
    payload_path.write_bytes(render_payload(msgs))
    noisy_path.write_bytes(corrupted_stream(wl, run.seed, cws, dec_blocks))
    expected = run.expected_payload(msgs, dec_blocks)
    interp = SlotTimer(run, rscodec, rscodec.decode, cws,
                       wl.blocks(wl.decode_slots, run.seconds))
    pgz = SlotTimer(run, rscodec, rscodec.pgz_decode, cws,
                    wl.blocks(wl.pgz_slots, run.seconds))
    setup_time(run)  # the first fresh interpreter also writes bytecode caches
    enc_rates, dec_rates, setups = [], [], []

    def encode() -> None:
        code, wall = run.cli("encode", "--q", Q, "--k", wl.k, "--format", "bin",
                             payload_path, stream_path)
        if run.checks.record(code == 0, f"encode exited {code}"):
            run.check_stream(stream_path.read_bytes(), cws, enc_blocks * wl.k, "encode")
        enc_rates.append(run.payload_kib(enc_blocks) / wall)

    def decode() -> None:
        code, wall = run.cli("decode", "--strict", "--format", "bin", noisy_path, out_path)
        ok = code == 0 and out_path.read_bytes() == expected
        run.checks.record(ok, f"decode exited {code} or lost the payload")
        dec_rates.append(run.payload_kib(dec_blocks) / wall)

    def setup() -> None:
        setups.append(setup_time(run))

    steps = (encode, decode, setup, setup)
    every = len(steps) // wl.passes_per_round
    done = 0
    t_start = time.perf_counter()
    while done < MIN_ROUNDS * len(steps) or time.perf_counter() - t_start < run.seconds:
        steps[done % len(steps)]()
        done += 1
        if done % every == 0:
            interp.one_pass()
            pgz.one_pass()

    report.update(steps=done, library_passes=interp.passes,
                  encode_blocks=enc_blocks, decode_blocks=dec_blocks,
                  encode_kib_s_per_call=enc_rates, decode_kib_s_per_call=dec_rates,
                  setup_s_per_run=setups,
                  decode_slots=len(interp.best_ms), pgz_slots=len(pgz.best_ms),
                  slots_beyond_p90={"decode": len(interp.best_ms) // 10,
                                    "pgz": len(pgz.best_ms) // 10},
                  gf_mul_ops_per_decode_block=statistics.fmean(interp.mul_ops),
                  gf_mul_ops_per_pgz_block=statistics.fmean(pgz.mul_ops))
    return {
        "setup_s": statistics.median(setups),
        "encode_kib_s": max(enc_rates),
        "decode_kib_s": max(dec_rates),
        "decode_block_p50_ms": statistics.median(interp.best_ms),
        "decode_block_p90_ms": _p90(interp.best_ms),
        "pgz_block_p50_ms": statistics.median(pgz.best_ms),
        "pgz_block_p90_ms": _p90(pgz.best_ms),
        "peak_rss_mib": run.peak_rss_kib / 1024,
    }


# ----- traced run ------------------------------------------------------------------

def traced_run(run: Run, rscodec, report: dict) -> dict[str, dict]:
    wl = run.wl
    blocks = wl.blocks(wl.trace_rate, run.seconds)
    msgs, cws = run.codewords(blocks)
    payload_path, stream_path = run.work / "payload", run.work / "stream.rs"
    noisy_path, out_path = run.work / "noisy.rs", run.work / "decoded"
    payload_path.write_bytes(render_payload(msgs))
    noisy_path.write_bytes(corrupted_stream(wl, run.seed, cws, blocks))
    expected = run.expected_payload(msgs, blocks)
    encode_args = ("encode", "--q", Q, "--k", wl.k, "--format", "bin",
                   payload_path, stream_path)
    decode_args = ("decode", "--strict", "--format", "bin", noisy_path, out_path)

    def cli_main(args) -> int | str:
        try:
            return rscodec.cli.main([str(a) for a in args])
        except Exception as exc:  # a crashing command is a failed check
            return repr(exc)

    def decode_cli(label: str) -> float:
        t0 = time.perf_counter()
        code = cli_main(decode_args)
        wall = time.perf_counter() - t0
        ok = code == 0 and out_path.read_bytes() == expected
        run.checks.record(ok, f"{label} decode exited {code} or lost the payload")
        return run.payload_kib(blocks) / wall

    def encode_cli(label: str) -> None:
        code = cli_main(encode_args)
        if run.checks.record(code == 0, f"{label} encode exited {code}"):
            run.check_stream(stream_path.read_bytes(), cws, blocks * wl.k, f"{label} encode")

    encode_cli("untraced")
    untraced_kib_s = decode_cli("untraced")

    code = rscodec.RSCode(rscodec.Field(Q), wl.k)
    ops_fn = getattr(importlib.import_module("rscodec.gf"), "mul_ops_total", None)
    ops0 = ops_fn() if ops_fn else 0
    with tracer.Tracer() as tr:
        encode_cli("traced")
        traced_kib_s = decode_cli("traced")
        for i in range(blocks):
            word = tuple((cws[i] ^ error_vector(wl, run.seed, i)).tolist())
            try:
                outcome = rscodec.pgz_decode(code, word)
            except Exception as exc:  # a failing decode is a failed check
                run.checks.record(False, f"pgz block {i}: raised {exc!r}")
                continue
            run.check_outcome(outcome, cws[i], error_weight(wl, run.seed, i), f"pgz block {i}")
    mul_ops = ops_fn() - ops0 if ops_fn else None

    metrics = tracer.layer_metrics(tr, blocks, mul_ops)
    values = (traced_kib_s, untraced_kib_s, untraced_kib_s / traced_kib_s)
    for (name, unit), value in zip(TRACE_UNITS.items(), values):
        metrics[name] = {"value": value, "unit": unit}
    report.update(trace_blocks=blocks, spans=len(tr.span_start), block_ids=tr.blocks_seen(),
                  missing={name: m["missing"] for name, m in metrics.items() if "missing" in m})
    return metrics


# ----- entry point -----------------------------------------------------------------

def machine_facts(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(ROOT),
        "seed": seed,
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout read from .git, or "unknown" outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    report = {"workload": wl.name, "trace": args.trace, "seconds": args.seconds,
              "machine": machine_facts(args.seed)}
    work = WORK_DIR / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        rscodec = import_program()
        run = Run(wl, args.seed, args.seconds, work)
        if args.trace:
            metrics = traced_run(run, rscodec, report)
        else:
            values = untraced_run(run, rscodec, report)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END_UNITS.items()}
    except (BenchError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    checks = run.checks
    report.update(failed_share=checks.failed_share, failures=checks.failures)
    for name, m in metrics.items():
        note = f"  (missing: {m['missing']})" if "missing" in m else ""
        print(f"{name:44s} {m['value']!s:>24} {m['unit']}{note}")
    print(json.dumps({"report": report}))
    correct = checks.failed == 0
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

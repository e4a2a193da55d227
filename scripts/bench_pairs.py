"""Paired benchmark runs of this tree against a git ref.

Exports REF's `src/` with `git archive` into one fresh tree and copies
this working tree's `src/` into another; both get this working tree's
`perfbench/`, and neither holds a `__pycache__`, so each tree's children
compile the same way.  Then it runs `perfbench/run.py --trace 0` on both
trees, pair after pair: each pair on a fresh seed (--seed, then the next),
with the two trees in alternating order.  For every end-to-end metric of
`BENCHMARK.json` it prints REF's and this tree's median with their
quartiles, the change of the median, how many pairs this tree won (a win
is strictly better in the metric's direction), and whether the median gap
exceeds the IQR of REF's runs.

The exit status is 1 when a run failed or reported a failed check, 2 when
REF cannot be exported, and 0 otherwise.  Stdlib and git only.

Run from the repository root (uncommitted changes included):

    python scripts/bench_pairs.py --against HEAD^1 --workload noisy-bytes --pairs 10 --seconds 45
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_NO_CACHE = shutil.ignore_patterns("__pycache__", "*.pyc")


def end_to_end_metrics() -> list[tuple[str, str]]:
    """(name, "lower" or "higher") of each end-to-end metric."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["better"]) for m in benchmark["end_to_end"]]


def result_values(stdout: str) -> dict[str, float] | None:
    """The metric values of a run's last line, or None if the run did not
    report every check correct."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    if result.get("correct") is not True:
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(pairs: list[tuple[dict, dict]], metrics: list[tuple[str, str]]) -> list[str]:
    """One line per metric from (REF values, this tree's values) pairs."""
    lines = []
    for name, better in metrics:
        ref = [r[name] for r, _ in pairs]
        new = [c[name] for _, c in pairs]
        r1, rm, r3 = _quartiles(ref)
        c1, cm, c3 = _quartiles(new)
        sign = -1 if better == "lower" else 1
        wins = sum(sign * (c - r) > 0 for r, c in zip(ref, new))
        change = (cm - rm) / rm * 100 if rm else float("nan")
        beyond = "yes" if sign * (cm - rm) > r3 - r1 else "no"
        lines.append(f"{name} ({better} is better): ref {rm:.4g} [{r1:.4g}, {r3:.4g}]  "
                     f"new {cm:.4g} [{c1:.4g}, {c3:.4g}]  {change:+.1f}%  "
                     f"wins {wins}/{len(pairs)}  gap > ref IQR: {beyond}")
    return lines


def _trees(ref: str, work: Path) -> tuple[Path, Path]:
    """(REF's tree, this tree's copy), each with src/ and this perfbench/."""
    git = ["git", "-C", str(ROOT)]
    sha = subprocess.run(git + ["rev-parse", "--verify", ref + "^{commit}"],
                         capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(git + ["archive", "--format=tar", sha, "src"],
                             capture_output=True, check=True).stdout
    ref_tree, new_tree = work / "ref", work / "new"
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(ref_tree, **safe)
    shutil.copytree(ROOT / "src", new_tree / "src", ignore=_NO_CACHE)
    for tree in (ref_tree, new_tree):
        shutil.copytree(ROOT / "perfbench", tree / "perfbench", ignore=_NO_CACHE)
    return ref_tree, new_tree


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict | None:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, env=env, capture_output=True, text=True)
    values = result_values(proc.stdout) if proc.returncode == 0 else None
    if values is None:
        print(f"run on {tree.name} (seed {seed}) failed with exit {proc.returncode}:\n"
              + proc.stderr[-2000:], file=sys.stderr)
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REF", required=True, help="the git ref to compare with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1, help="the first pair's seed")
    args = parser.parse_args(argv)
    metrics = end_to_end_metrics()
    pairs = []
    with tempfile.TemporaryDirectory(prefix="rscodec-pairs-") as tmp:
        try:
            ref_tree, new_tree = _trees(args.against, Path(tmp))
        except subprocess.CalledProcessError as exc:
            sys.stderr.write(exc.stderr if isinstance(exc.stderr, str) else exc.stderr.decode())
            return 2
        for i in range(args.pairs):
            seed = args.seed + i
            order = (ref_tree, new_tree) if i % 2 == 0 else (new_tree, ref_tree)
            values = {tree: _run(tree, args.workload, seed, args.seconds) for tree in order}
            if None in values.values():
                return 1
            pairs.append((values[ref_tree], values[new_tree]))
            print(f"pair {i + 1} (seed {seed}, {order[0].name} first): " + ", ".join(
                f"{name} {values[ref_tree][name]:.4g} -> {values[new_tree][name]:.4g}"
                for name, _ in metrics), flush=True)
    print(f"{args.workload}: this tree against {args.against}, {len(pairs)} pairs "
          f"of {args.seconds:g} s")
    for line in summarize(pairs, metrics):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The scripts' own rules.

`scripts/differential.py`: an outcome difference, or a record that only
one tree has, counts against the run; a change of counts does not, but is
printed, as ROSE when the count or any row's count rose, and each kind's
largest rise is named.

`scripts/code_lines.py`: a code line holds a token of code, and
docstrings of modules, classes and functions are not code.

`scripts/line_trace.py`: a statement no test runs is listed, with its
path and line, and a docstring never is.

`scripts/bench_pairs.py`: a run counts only if its last line reports every
check correct; each metric's summary gives both medians and quartiles, the
pairs won in the metric's direction, and whether the median gap exceeds
REF's IQR; its --out file holds the pairs, that summary and the machine.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

from scripts.bench_pairs import end_to_end_metrics, report, result_values, summarize
from scripts.code_lines import code_lines
from scripts.differential import _compare


def test_differential_compare_counts_outcomes_and_prints_every_change(capsys):
    ref = {'["decode", [1]]': {"codeword": [1, 2], "mul": 5, "mul_rows": [1, 2]},
           '["decode", [2]]': {"failure": "TooManyErrors", "mul": 3, "mul_rows": [4]},
           '["decode", [3]]': {"codeword": [0, 0], "mul": 9, "mul_rows": [1]},
           '["poly", [3]]': {"roots": [], "mul_roots": 4}}
    new = {'["decode", [1]]': {"codeword": [1, 2], "mul": 6, "mul_rows": [4, 1]},
           '["decode", [2]]': {"failure": "VerifyFailed", "mul": 3, "mul_rows": [4]},
           '["decode", [3]]': {"codeword": [0, 0], "mul": 7, "mul_rows": [1]},
           '["poly", [4]]': {"roots": [], "mul_roots": 4}}
    outcome_diffs, totals = _compare(ref, new)
    assert outcome_diffs == 3  # decode [2]'s failure, poly [3] and poly [4]
    # records, products at REF and here (not the rows), rose, fell, and the
    # largest rise with its record and field (a list by its largest row's)
    assert totals == {"decode": [3, 5 + 3 + 9, 6 + 3 + 7, 2, 1, 3, '["decode", [1]] mul_rows']}
    lines = capsys.readouterr().out.splitlines()
    assert sorted(line.split()[0] for line in lines) == ["DIFF"] * 3 + ["FELL"] + ["ROSE"] * 2
    assert 'ROSE ["decode", [1]] mul_rows: [1, 2] -> [4, 1]' in lines
    assert 'DIFF ["decode", [2]] failure: "TooManyErrors" != "VerifyFailed"' in lines


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    source = '''"""Module docstring,
over two lines."""

# a comment


class A:
    """Class docstring."""

    def f(self):
        """Function docstring,
        over two lines."""
        # a comment
        return 1  # a trailing comment counts once
'''
    assert code_lines(source) == 3  # class, def, return


def test_code_lines_count_every_line_of_a_statement_and_a_non_docstring():
    source = '''x = f(
    1,

    2,
)
y = """a string
that is not a docstring
"""


def g():
    z = 1
    """Not a docstring: it is not the body's first statement."""
    return z
'''
    # the call's 4 code lines (the blank line inside has no token), the
    # string's 3, and g's 4
    assert code_lines(source) == 4 + 3 + 4


def test_line_trace_lists_the_statements_no_test_runs(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(textwrap.dedent('''\
        """Module docstring."""


        def used(x):
            """Function docstring."""
            if x:
                return 1
            return 2


        def unused():
            return 3
        '''))
    (tmp_path / "pkg" / "never.py").write_text('"""Never imported."""\nX = 1\n')
    (tmp_path / "test_mod.py").write_text(
        "from pkg.mod import used\n\n\ndef test_used():\n    assert used(1) == 1\n")
    script = Path(__file__).resolve().parents[1] / "scripts" / "line_trace.py"
    env = {**os.environ, "PYTHONPATH": str(tmp_path)}
    proc = subprocess.run([sys.executable, str(script), "pkg", "--", "-q", "-p", "no:cacheprovider",
                           "test_mod.py"], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-4:] == [f"{Path('pkg', 'mod.py')}:8: return 2",
                          f"{Path('pkg', 'mod.py')}:12: return 3",
                          f"{Path('pkg', 'never.py')}:2: X = 1",
                          "3 statements not run"]


def _result_line(correct, p50, kib_s):
    metrics = {"decode_block_p50_ms": {"value": p50, "unit": "ms"},
               "decode_kib_s": {"value": kib_s, "unit": "KiB/s"}}
    return json.dumps({"correct": correct, "attempted": 9, "failed": 0, "metrics": metrics})


def test_bench_pairs_summary_of_canned_runs():
    assert ("decode_block_p50_ms", "lower") in end_to_end_metrics()
    assert result_values("") is None
    assert result_values("detail line\nnot json") is None
    assert result_values('{"report": {}}\n' + _result_line(False, 0.4, 50.0)) is None
    ref_lines = [_result_line(True, p50, kib) for p50, kib in
                 ((0.44, 50.0), (0.45, 49.0), (0.46, 52.0), (0.45, 51.0), (0.43, 48.0))]
    new_lines = [_result_line(True, p50, kib) for p50, kib in
                 ((0.38, 50.0), (0.39, 49.5), (0.37, 51.0), (0.46, 51.0), (0.39, 47.0))]
    pairs = [(result_values("a detail line\n" + r), result_values(c))
             for r, c in zip(ref_lines, new_lines)]
    assert pairs[0] == ({"decode_block_p50_ms": 0.44, "decode_kib_s": 50.0},
                        {"decode_block_p50_ms": 0.38, "decode_kib_s": 50.0})
    lines = summarize(pairs, [("decode_block_p50_ms", "lower"), ("decode_kib_s", "higher")])
    # p50: REF's quartiles of (0.43, 0.44, 0.45, 0.45, 0.46) are 0.435 and
    # 0.455; four of five pairs won, a tie or a loss is no win
    assert lines[0] == ("decode_block_p50_ms (lower is better): ref 0.45 [0.435, 0.455]  "
                        "new 0.39 [0.375, 0.425]  -13.3%  wins 4/5  gap > ref IQR: yes")
    assert lines[1] == ("decode_kib_s (higher is better): ref 50 [48.5, 51.5]  "
                        "new 50 [48.25, 51]  +0.0%  wins 1/5  gap > ref IQR: no")


def test_bench_pairs_report_of_canned_runs():
    # The --out file holds the commits, the workload, seeds and seconds,
    # every pair with the tree that ran first, the summary the printed
    # lines are made from, and the machine; it is strict JSON.
    metrics = [("decode_block_p50_ms", "lower"), ("decode_kib_s", "higher")]
    runs = [{"seed": 41 + i, "first": ("ref", "new")[i % 2],
             "ref": result_values(_result_line(True, 0.44 + i / 100, 50.0)),
             "new": result_values(_result_line(True, 0.40 - i / 100, 50.0 + i))}
            for i in range(3)]
    ref, head = {"name": "HEAD^1", "commit": "a" * 40}, {"commit": "b" * 40,
                                                        "src_uncommitted": False}
    out = json.loads(json.dumps(report(ref, head, "noisy-bytes", 45.0, runs, metrics),
                                allow_nan=False))
    assert list(out) == ["ref", "head", "workload", "seeds", "seconds", "pairs", "summary",
                         "machine"]
    assert (out["ref"], out["head"], out["workload"], out["seeds"], out["seconds"]) == (
        ref, head, "noisy-bytes", [41, 42, 43], 45.0)
    assert out["pairs"] == runs and [run["first"] for run in runs] == ["ref", "new", "ref"]
    assert list(out["summary"]) == [name for name, _ in metrics]
    p50 = out["summary"]["decode_block_p50_ms"]
    assert list(p50) == ["better", "ref", "new", "change_pct", "wins", "pairs",
                         "gap_beyond_ref_iqr"]
    assert p50["ref"] == {"median": 0.45, "q1": 0.44, "q3": 0.46}
    assert (p50["better"], p50["wins"], p50["pairs"], p50["gap_beyond_ref_iqr"]) == (
        "lower", 3, 3, True)
    assert out["summary"]["decode_kib_s"]["change_pct"] == 2.0
    assert list(out["machine"]) == ["nproc", "python", "numpy"]
    assert out["machine"]["nproc"] >= 1 and out["machine"]["numpy"] == np.__version__
    lines = summarize([(run["ref"], run["new"]) for run in runs], metrics)
    assert lines[0].startswith("decode_block_p50_ms (lower is better): ref 0.45 [0.44, 0.46]")

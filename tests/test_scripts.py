"""The comparison of `scripts/differential.py`: an outcome difference, or a
record that only one tree has, counts against the run; a change of counts
does not, but is printed, as ROSE when the count or any row's count rose."""

from scripts.differential import _compare


def test_differential_compare_counts_outcomes_and_prints_every_change(capsys):
    ref = {'["decode", [1]]': {"codeword": [1, 2], "mul": 5, "mul_rows": [1, 2]},
           '["decode", [2]]': {"failure": "TooManyErrors", "mul": 3, "mul_rows": [4]},
           '["decode", [3]]': {"codeword": [0, 0], "mul": 9, "mul_rows": [1]},
           '["poly", [3]]': {"roots": [], "mul_roots": 4}}
    new = {'["decode", [1]]': {"codeword": [1, 2], "mul": 6, "mul_rows": [2, 1]},
           '["decode", [2]]': {"failure": "VerifyFailed", "mul": 3, "mul_rows": [4]},
           '["decode", [3]]': {"codeword": [0, 0], "mul": 7, "mul_rows": [1]},
           '["poly", [4]]': {"roots": [], "mul_roots": 4}}
    outcome_diffs, totals = _compare(ref, new)
    assert outcome_diffs == 3  # decode [2]'s failure, poly [3] and poly [4]
    # records, products at REF and here (not the rows), rose, fell
    assert totals == {"decode": [3, 5 + 3 + 9, 6 + 3 + 7, 2, 1]}
    lines = capsys.readouterr().out.splitlines()
    assert sorted(line.split()[0] for line in lines) == ["DIFF"] * 3 + ["FELL"] + ["ROSE"] * 2
    assert 'ROSE ["decode", [1]] mul_rows: [1, 2] -> [2, 1]' in lines
    assert 'DIFF ["decode", [2]] failure: "TooManyErrors" != "VerifyFailed"' in lines

"""The scripts' own rules.

`scripts/differential.py`: an outcome difference, or a record that only
one tree has, counts against the run; a change of counts does not, but is
printed, as ROSE when the count or any row's count rose.

`scripts/code_lines.py`: a code line holds a token of code, and
docstrings of modules, classes and functions are not code.
"""

from scripts.code_lines import code_lines
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

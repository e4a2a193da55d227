"""Peterson-Gorenstein-Zierler decoding, for comparison.

PGZ is the pipeline of `decode_interp` with the determinant scan as its
count stage: after a fast path for the all-zero syndrome vector (t = 0),
it evaluates det of the h x h Hankel syndrome matrix for
h = tau, tau - 1, ..., 1 and takes the first h whose determinant is
nonzero.  The locator, the positions tail and the verification are the
ones `decode_via_positions` uses.

The determinant count per call is therefore 0 when the word is already a
codeword, tau - t + 1 for a successful decode of weight t >= 1, and tau
when no weight fits (TooManyErrors).
"""

from __future__ import annotations

from typing import Sequence

from .decode_interp import (  # noqa: F401  solve_locator: the stage is re-exported here
    DecodeOutcome,
    _determinant_scan,
    _error_positions_and_values,
    _run,
    solve_locator,
)
from .rscode import RSCode


def pgz_decode(code: RSCode, word: Sequence[int]) -> DecodeOutcome:
    """Decode via the descending determinant scan described above."""
    return _run(code, word, _determinant_scan, _error_positions_and_values)

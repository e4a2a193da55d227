"""rscodec: exact Reed-Solomon coding over GF(q).

Encoders/decoders for RS(q, alpha, k) with n = q - 1 evaluation points,
a brute-force oracle for small codes, an instrumented benchmark, and a
block-stream CLI.  Every decoder is one pipeline: a count stage (the
paper's rank scan or the PGZ determinant scan, each followed by the
Hankel locator system, or Berlekamp-Massey) finds the error count and
the error locator from the syndromes, and a tail stage (recover the
codeword polynomial, or read the error positions off the locator's roots
and the values off Forney's formula) produces a codeword that is
verified before it is returned.  `DECODERS` names the pairs; the CLI
decodes with `bm` unless told otherwise.
"""

from .bench import TrialConfig, TrialReport, TrialRow, report_to_json, run_sweep
from .decode_interp import (
    DECODERS,
    DecodeOutcome,
    DecodeTrace,
    berlekamp_massey,
    bm_decode,
    decode,
    decode_via_positions,
    detect_error_count,
    pgz_decode,
    recover_codeword_polynomial,
    solve_locator,
)
from .exceptions import (
    DecodeFailure,
    DegreeTooHigh,
    InexactDivision,
    RootCountMismatch,
    SingularLocatorSystem,
    TooLargeToEnumerate,
    TooManyErrors,
    VerifyFailed,
)
from .femat import FeMat, SolveResult, SolveStatus, vandermonde
from .gf import Field, MulOpCounter, mul_ops_total
from .oracle import OracleResult, brute_min_distance, brute_nearest, codebook, hamming
from .poly import Poly
from .rscode import RSCode

__version__ = "0.1.0"

__all__ = [
    "DECODERS",
    "DecodeFailure",
    "DecodeOutcome",
    "DecodeTrace",
    "DegreeTooHigh",
    "FeMat",
    "Field",
    "InexactDivision",
    "MulOpCounter",
    "OracleResult",
    "Poly",
    "RSCode",
    "RootCountMismatch",
    "SingularLocatorSystem",
    "SolveResult",
    "SolveStatus",
    "TooLargeToEnumerate",
    "TooManyErrors",
    "TrialConfig",
    "TrialReport",
    "TrialRow",
    "VerifyFailed",
    "berlekamp_massey",
    "bm_decode",
    "brute_min_distance",
    "brute_nearest",
    "codebook",
    "decode",
    "decode_via_positions",
    "detect_error_count",
    "hamming",
    "mul_ops_total",
    "pgz_decode",
    "recover_codeword_polynomial",
    "report_to_json",
    "run_sweep",
    "solve_locator",
    "vandermonde",
    "__version__",
]

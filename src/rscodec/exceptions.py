"""Failure taxonomy shared by the decoders and the oracle."""

from __future__ import annotations


class DecodeFailure(Exception):
    """A decoder could not produce a verified codeword.

    Every subclass states the stage that failed; `reason` is a stable
    machine-readable tag used in CLI statistics output.  `trace` is the
    DecodeTrace of the decoded row, with its work counters up to the
    failure point: the decoder pipeline attaches it to every failure it
    raises, and a failure raised by a stand-alone stage function keeps the
    class default None.
    """

    reason = "decode_failure"
    trace = None


class TooManyErrors(DecodeFailure):
    """No error count t <= tau is consistent with the syndromes."""

    reason = "too_many_errors"


class SingularLocatorSystem(DecodeFailure):
    """The locator linear system had no unique solution, or produced a
    locator with zero constant term (which would place an error at the
    excluded point zero)."""

    reason = "singular_locator_system"


class InexactDivision(DecodeFailure):
    """The final polynomial division left a remainder; the locator found
    in step one does not actually explain the received word."""

    reason = "inexact_division"


class DegreeTooHigh(DecodeFailure):
    """The recovered polynomial has degree >= k, so it is not a message
    polynomial."""

    reason = "degree_too_high"


class VerifyFailed(DecodeFailure):
    """The decoded word failed re-verification (not a codeword, or not at
    the claimed distance from the input)."""

    reason = "verify_failed"


class RootCountMismatch(DecodeFailure):
    """The locator does not have exactly t distinct nonzero roots, so the
    error positions cannot be read off."""

    reason = "root_count_mismatch"


class TooLargeToEnumerate(Exception):
    """The brute-force oracle refuses codes whose codebook would be too
    large to enumerate."""

"""Block codec command line: encode, corrupt, decode, compare.

A coded stream is a 25-byte binary header followed by a body holding the
code blocks.  The header is little-endian:

    magic "RSIC" (4 bytes) | version u8 = 1 | q u32 | k u32 | alpha u32
    | payload_len u64

so a stream is self-describing: decode needs no code parameters.  The
body is either `text` (whitespace-separated base-10 symbols, one line per
block as written) or `bin` (one byte per symbol, only for q <= 256); the
header is binary in both cases, so every command that reads a stream
takes --format to know how to read the body.

Payloads are sequences of symbols in [0, q): in text format whitespace-
separated runs of ASCII digits, in bin format raw bytes.  The payload is
chunked into k-symbol messages (the final chunk zero-padded) and each
message is encoded into an n-symbol block; payload_len records how many
symbols of the decoded stream are real.

Exit codes: 0 success; 2 invalid parameters or usage; 3 malformed input
data; 4 at least one uncorrectable block under --strict.  Without
--strict an uncorrectable block passes through as a best-effort estimate
(the low-degree part of its interpolation polynomial) and is reported in
--stats output.

encode and decode work in chunks of blocks (`_CHUNK_SYMBOLS`).  decode
evaluates each chunk once, at every power of alpha
(`decode_interp.decode_blocks`), which gives every block its syndromes
and its message.  So the `mul_count` of a --stats line counts the field
multiplications of that block's own stages after the evaluation; the
evaluation is counted once, in the thread's counter, and in no block's
line.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import struct
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bench import TrialConfig, random_error, report_to_json, run_sweep
from .decode_interp import DECODERS, decode, decode_blocks  # noqa: F401  decode: kept as cli.decode
from .exceptions import DecodeFailure
from .gf import Field
from .rscode import RSCode

MAGIC = b"RSIC"
VERSION = 1
_HEADER_STRUCT = struct.Struct("<4sBIIIQ")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_UNCORRECTED = 4

# Code symbols per `encode_blocks` call of `cmd_encode` and per
# `decode_blocks` call of `cmd_decode`: 16 blocks of RS(255, k), one block
# on larger fields, so memory does not grow with the stream.  A 405-block
# RS(255, 223) encode peaked at 30.8 MiB RSS with 16 or 60 blocks a call,
# and at 33.8 MiB with all 405 in one.
_CHUNK_SYMBOLS = 4096

CLI_DECODERS = DECODERS  # the same registry: decode and compare take the same names


@dataclass(frozen=True)
class StreamHeader:
    q: int
    k: int
    alpha: int
    payload_len: int

    SIZE = _HEADER_STRUCT.size  # 25 bytes

    def pack(self) -> bytes:
        return _HEADER_STRUCT.pack(MAGIC, VERSION, self.q, self.k,
                                   self.alpha, self.payload_len)

    @classmethod
    def unpack(cls, data: bytes) -> "StreamHeader":
        if len(data) < cls.SIZE:
            raise CliError(EXIT_DATA, "stream too short for header")
        magic, version, q, k, alpha, payload_len = _HEADER_STRUCT.unpack(data[:cls.SIZE])
        if magic != MAGIC:
            raise CliError(EXIT_DATA, f"bad stream magic {magic!r}")
        if version != VERSION:
            raise CliError(EXIT_DATA, f"unsupported stream version {version}")
        return cls(q, k, alpha, payload_len)


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _build_code(q: int, k: int, alpha: int | None, exit_code: int = EXIT_USAGE) -> RSCode:
    try:
        field = Field(q, alpha=alpha)
        return RSCode(field, k)
    except ValueError as exc:
        raise CliError(exit_code, str(exc)) from exc


def _check_format(fmt: str, q: int, exit_code: int = EXIT_USAGE) -> None:
    if fmt == "bin" and q > 256:
        raise CliError(exit_code, f"bin format stores one byte per symbol, q={q} > 256")


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(EXIT_DATA, f"cannot read {path}: {exc}") from exc


def _write_bytes(path: str, data: bytes) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise CliError(EXIT_DATA, f"cannot write {path}: {exc}") from exc


def _parse_symbols(data: bytes, fmt: str, q: int, what: str) -> np.ndarray:
    if fmt == "bin":
        symbols = np.frombuffer(data, dtype=np.uint8)
    else:
        width = len(str(q - 1))
        parsed = []
        for tok in data.split():
            if not tok.isdigit():  # ASCII digits only, no sign, "_" or other spelling
                raise CliError(EXIT_DATA, f"{what}: non-integer token {tok!r}")
            if len(tok) > width:
                # Past its zero padding, a token longer than q - 1 is out of
                # range; int() is not asked, as it refuses very long strings.
                tok = tok.lstrip(b"0") or b"0"
                if len(tok) > width:
                    raise CliError(EXIT_DATA, f"{what}: symbol of {len(tok)} digits "
                                              f"outside [0, {q})")
            parsed.append(int(tok))
        symbols = np.array(parsed, dtype=np.int64)
    bad = symbols[symbols >= q]
    if bad.size:
        raise CliError(EXIT_DATA, f"{what}: symbol {bad[0]} outside [0, {q})")
    return symbols


def _render_payload(symbols: np.ndarray, fmt: str) -> bytes:
    """The payload as one row; an empty payload is no row, not an empty line."""
    return _render_blocks(symbols[None], fmt) if symbols.size else b""


def _render_blocks(blocks: np.ndarray, fmt: str) -> bytes:
    if fmt == "bin":
        return blocks.astype(np.uint8).tobytes()
    return "".join(" ".join(map(str, b)) + "\n" for b in blocks.tolist()).encode()


def _read_stream(path: str, fmt: str) -> tuple[StreamHeader, RSCode, np.ndarray]:
    """The header, its code and the body as a validated (blocks, n) int64 array."""
    raw = _read_bytes(path)
    header = StreamHeader.unpack(raw)
    code = _build_code(header.q, header.k, header.alpha, EXIT_DATA)
    _check_format(fmt, header.q, EXIT_DATA)
    symbols = _parse_symbols(raw[StreamHeader.SIZE:], fmt, header.q, "stream body")
    n = code.n
    if len(symbols) % n:
        raise CliError(EXIT_DATA,
                       f"stream body holds {len(symbols)} symbols, not a multiple of n = {n}")
    blocks = symbols.astype(np.int64, copy=False).reshape(-1, n)
    need = -(-header.payload_len // code.k)
    if len(blocks) != need:
        raise CliError(EXIT_DATA,
                       f"stream has {len(blocks)} blocks but payload_len {header.payload_len} "
                       f"needs {need}")
    return header, code, blocks


def cmd_encode(args: argparse.Namespace) -> int:
    code = _build_code(args.q, args.k, args.alpha)
    _check_format(args.format, args.q)
    payload = _parse_symbols(_read_bytes(args.input), args.format, args.q, "payload")
    k = code.k
    messages = np.zeros((-(-len(payload) // k), k), dtype=np.int64)
    messages.flat[:len(payload)] = payload  # the final message zero-padded
    step = max(1, _CHUNK_SYMBOLS // code.n)
    body = b"".join(_render_blocks(code.encode_blocks(messages[i:i + step]), args.format)
                    for i in range(0, len(messages), step))
    header = StreamHeader(args.q, k, code.field.alpha, len(payload))
    _write_bytes(args.output, header.pack() + body)
    return EXIT_OK


def cmd_corrupt(args: argparse.Namespace) -> int:
    header, code, blocks = _read_stream(args.input, args.format)
    if not 0 <= args.errors < code.n:
        raise CliError(EXIT_USAGE,
                       f"--errors must be in [0, {code.n - 1}] for n = {code.n}")
    rng = random.Random(args.seed)
    errors = np.array([random_error(rng, code, args.errors) for _ in blocks],
                      dtype=np.int64).reshape(blocks.shape)
    out = code.field.add_arr(blocks, errors)
    _write_bytes(args.output, header.pack() + _render_blocks(out, args.format))
    return EXIT_OK


def cmd_decode(args: argparse.Namespace) -> int:
    header, code, blocks = _read_stream(args.input, args.format)
    step = max(1, _CHUNK_SYMBOLS // code.n)
    messages = np.empty((len(blocks), code.k), dtype=np.int64)
    stats_lines = []
    any_failed = False
    for lo in range(0, len(blocks), step):
        # A failed block's message is the best-effort low-degree part of
        # its interpolation polynomial.
        messages[lo:lo + step], results, mul_counts = decode_blocks(
            code, blocks[lo:lo + step], args.decoder)
        for i, (result, muls) in enumerate(zip(results, mul_counts), start=lo):
            if isinstance(result, DecodeFailure):
                any_failed = True
                status, t = result.reason, None
            else:
                status, t = "ok", result.error_count
            if args.stats:
                stats_lines.append(json.dumps({
                    "block": i,
                    "status": status,
                    "t": t,
                    "rank_checks": result.trace.rank_checks,
                    "det_checks": result.trace.det_checks,
                    "mul_count": muls,
                }))
    if args.stats:
        _write_bytes(args.stats, ("".join(line + "\n" for line in stats_lines)).encode())
    payload = messages.reshape(-1)[:header.payload_len]
    _write_bytes(args.output, _render_payload(payload, args.format))
    if any_failed and args.strict:
        print("error: uncorrectable block(s) in stream", file=sys.stderr)
        return EXIT_UNCORRECTED
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    code = _build_code(args.q, args.k, args.alpha)
    if args.t_values:
        try:
            t_values = tuple(int(tok) for tok in args.t_values.split(","))
        except ValueError as exc:
            raise CliError(EXIT_USAGE, f"bad --t-values: {exc}") from exc
    else:
        t_values = tuple(range(code.tau + 1))
    decoders = tuple(tok.strip() for tok in args.decoders.split(","))
    cfg = TrialConfig(code=code, t_values=t_values, trials_per_t=args.trials,
                      seed=args.seed, decoders=decoders)
    try:
        report = run_sweep(cfg)
    except ValueError as exc:
        raise CliError(EXIT_USAGE, str(exc)) from exc
    sys.stdout.write(report_to_json(report, include_wall=args.include_wall))
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built once per process; parse_args leaves it as it was.
    parser = argparse.ArgumentParser(
        prog="rscodec",
        description="Reed-Solomon block codec with exact finite-field arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "bin"), default="text",
                       help="payload and stream body format (default: text)")

    def add_code(p):
        p.add_argument("--q", type=int, required=True, help="field size (prime or 2^m)")
        p.add_argument("--k", type=int, required=True, help="message symbols per block")
        p.add_argument("--alpha", type=int, default=None,
                       help="primitive element (default: smallest)")

    p = sub.add_parser("encode", help="encode a payload into a coded stream")
    add_code(p)
    add_format(p)
    p.add_argument("input", help="payload file")
    p.add_argument("output", help="coded stream file")

    p = sub.add_parser("corrupt", help="inject errors of exact weight per block")
    p.add_argument("--errors", type=int, required=True,
                   help="error weight per block (exact)")
    p.add_argument("--seed", type=int, required=True, help="RNG seed")
    add_format(p)
    p.add_argument("input", help="coded stream file")
    p.add_argument("output", help="corrupted stream file")

    p = sub.add_parser("decode", help="decode a coded stream back to its payload")
    p.add_argument("--decoder", choices=sorted(DECODERS), default="bm",
                   help="decoding algorithm (default: bm)")
    p.add_argument("--strict", action="store_true",
                   help="exit 4 if any block is uncorrectable")
    p.add_argument("--stats", metavar="FILE", default=None,
                   help="write per-block JSON-lines statistics to FILE")
    add_format(p)
    p.add_argument("input", help="coded stream file")
    p.add_argument("output", help="decoded payload file")

    p = sub.add_parser("compare", help="benchmark decoders on random corruptions")
    add_code(p)
    p.add_argument("--t-values", default=None,
                   help="comma-separated error weights (default: 0..tau)")
    p.add_argument("--trials", type=int, default=100, help="trials per t")
    p.add_argument("--seed", type=int, required=True, help="RNG seed")
    p.add_argument("--decoders", default="interp,pgz",
                   help=f"comma-separated subset of {sorted(DECODERS)}")
    p.add_argument("--include-wall", action="store_true",
                   help="include wall-time means (breaks byte-determinism)")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        # Looked up on each call, so a wrapped cmd_* is the one that runs.
        return globals()[f"cmd_{args.command}"](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())

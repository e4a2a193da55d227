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
separated integers, in bin format raw bytes.  The payload is chunked into
k-symbol messages (the final chunk zero-padded) and each message is
encoded into an n-symbol block; payload_len records how many symbols of
the decoded stream are real.

Exit codes: 0 success; 2 invalid parameters or usage; 3 malformed input
data; 4 at least one uncorrectable block under --strict.  Without
--strict an uncorrectable block passes through as a best-effort estimate
(the low-degree part of its interpolation polynomial) and is reported in
--stats output.
"""

from __future__ import annotations

import argparse
import json
import random
import struct
import sys
from dataclasses import dataclass
from typing import Sequence

from . import gf
from .bench import DECODERS, TrialConfig, random_error, report_to_json, run_sweep
from .decode_interp import decode  # noqa: F401  kept importable as cli.decode
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


def _check_format(fmt: str, q: int) -> None:
    if fmt == "bin" and q > 256:
        raise CliError(EXIT_USAGE, f"bin format stores one byte per symbol, q={q} > 256")


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


def _parse_symbols(data: bytes, fmt: str, q: int, what: str) -> list[int]:
    if fmt == "bin":
        symbols = list(data)
    else:
        symbols = []
        for tok in data.split():
            try:
                symbols.append(int(tok))
            except ValueError as exc:
                raise CliError(EXIT_DATA, f"{what}: non-integer token {tok!r}") from exc
    for s in symbols:
        if not 0 <= s < q:
            raise CliError(EXIT_DATA, f"{what}: symbol {s} outside [0, {q})")
    return symbols


def _render_payload(symbols: Sequence[int], fmt: str) -> bytes:
    if fmt == "bin":
        return bytes(symbols)
    return (" ".join(str(s) for s in symbols) + "\n").encode() if symbols else b""


def _render_blocks(blocks: Sequence[Sequence[int]], fmt: str) -> bytes:
    if fmt == "bin":
        return b"".join(bytes(b) for b in blocks)
    return "".join(" ".join(str(s) for s in b) + "\n" for b in blocks).encode()


def _read_stream(path: str, fmt: str) -> tuple[StreamHeader, RSCode, list[list[int]]]:
    raw = _read_bytes(path)
    header = StreamHeader.unpack(raw)
    code = _build_code(header.q, header.k, header.alpha, EXIT_DATA)
    _check_format(fmt, header.q)
    symbols = _parse_symbols(raw[StreamHeader.SIZE:], fmt, header.q, "stream body")
    n = code.n
    if len(symbols) % n:
        raise CliError(EXIT_DATA,
                       f"stream body holds {len(symbols)} symbols, not a multiple of n = {n}")
    blocks = [symbols[i:i + n] for i in range(0, len(symbols), n)]
    need = -(-header.payload_len // code.k) if header.payload_len else 0
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
    blocks = []
    for i in range(0, len(payload), k):
        chunk = payload[i:i + k]
        chunk += [0] * (k - len(chunk))
        blocks.append(list(code.encode(chunk)))
    header = StreamHeader(args.q, k, code.field.alpha, len(payload))
    _write_bytes(args.output, header.pack() + _render_blocks(blocks, args.format))
    return EXIT_OK


def cmd_corrupt(args: argparse.Namespace) -> int:
    header, code, blocks = _read_stream(args.input, args.format)
    if not 0 <= args.errors < code.n:
        raise CliError(EXIT_USAGE,
                       f"--errors must be in [0, {code.n - 1}] for n = {code.n}")
    rng = random.Random(args.seed)
    f = code.field
    out_blocks = []
    for block in blocks:
        err = random_error(rng, code, args.errors)
        out_blocks.append([f.add(s, e) for s, e in zip(block, err)])
    _write_bytes(args.output, header.pack() + _render_blocks(out_blocks, args.format))
    return EXIT_OK


def cmd_decode(args: argparse.Namespace) -> int:
    header, code, blocks = _read_stream(args.input, args.format)
    decoder = DECODERS[args.decoder]
    stats_lines = []
    symbols: list[int] = []
    any_failed = False
    for i, block in enumerate(blocks):
        mul_start = gf.mul_ops_total()
        try:
            outcome = decoder(code, block)
        except DecodeFailure as exc:
            any_failed = True
            trace = exc.trace
            status = exc.reason
            t: int | None = None
            # Best effort: keep the low-degree interpolation coefficients.
            symbols.extend(code.low_coefficients(block))
        else:
            trace = outcome.trace
            status = "ok"
            t = outcome.error_count
            symbols.extend(outcome.message)
        stats_lines.append(json.dumps({
            "block": i,
            "status": status,
            "t": t,
            "rank_checks": trace.rank_checks,
            "det_checks": trace.det_checks,
            "mul_count": gf.mul_ops_total() - mul_start,
        }))
    if args.stats:
        _write_bytes(args.stats, ("".join(line + "\n" for line in stats_lines)).encode())
    payload = symbols[:header.payload_len]
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rscodec",
        description="Reed-Solomon block codec with exact finite-field arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "bin"), default="text",
                       help="payload and stream body format (default: text)")

    p = sub.add_parser("encode", help="encode a payload into a coded stream")
    p.add_argument("--q", type=int, required=True, help="field size (prime or 2^m)")
    p.add_argument("--k", type=int, required=True, help="message symbols per block")
    p.add_argument("--alpha", type=int, default=None,
                   help="primitive element (default: smallest)")
    add_format(p)
    p.add_argument("input", help="payload file")
    p.add_argument("output", help="coded stream file")
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("corrupt", help="inject errors of exact weight per block")
    p.add_argument("--errors", type=int, required=True,
                   help="error weight per block (exact)")
    p.add_argument("--seed", type=int, required=True, help="RNG seed")
    add_format(p)
    p.add_argument("input", help="coded stream file")
    p.add_argument("output", help="corrupted stream file")
    p.set_defaults(fn=cmd_corrupt)

    p = sub.add_parser("decode", help="decode a coded stream back to its payload")
    p.add_argument("--decoder", choices=sorted(DECODERS), default="interp",
                   help="decoding algorithm (default: interp)")
    p.add_argument("--strict", action="store_true",
                   help="exit 4 if any block is uncorrectable")
    p.add_argument("--stats", metavar="FILE", default=None,
                   help="write per-block JSON-lines statistics to FILE")
    add_format(p)
    p.add_argument("input", help="coded stream file")
    p.add_argument("output", help="decoded payload file")
    p.set_defaults(fn=cmd_decode)

    p = sub.add_parser("compare", help="benchmark decoders on random corruptions")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=int, default=None)
    p.add_argument("--t-values", default=None,
                   help="comma-separated error weights (default: 0..tau)")
    p.add_argument("--trials", type=int, default=100, help="trials per t")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--decoders", default="interp,pgz",
                   help=f"comma-separated subset of {sorted(DECODERS)}")
    p.add_argument("--include-wall", action="store_true",
                   help="include wall-time means (breaks byte-determinism)")
    p.set_defaults(fn=cmd_compare)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())

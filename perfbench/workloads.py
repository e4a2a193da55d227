"""Workload definitions and seeded input generation for the rscodec benchmark.

Everything the program under test receives is made here from the
workload name and the seed: the payload symbols of every block, the
error pattern of every block, and the coded streams fed to the CLI.  The
module also carries its own GF(2^m) tables and a reference encoder, so
the benchmark checks the program's outputs without trusting the program.

Block i of a run is the pair (message i mod E, error i), where E is the
number of payload blocks the run encodes; library timings also use other
variants of error i, of the same weight.  Error weights are stratified:
each consecutive chunk of L blocks, L the number of allowed weights, holds
every weight once in a seeded order.  The weights are still uniform, but a
run's mean weight no longer varies with the seed.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass

import numpy as np

# The stream format of the rscodec CLI: a 25-byte little-endian header
# (magic, version, q, k, alpha, payload length) followed by the blocks.
STREAM_HEADER = struct.Struct("<4sBIIIQ")
STREAM_MAGIC = b"RSIC"
STREAM_VERSION = 1

# Every workload is a `--format bin` stream over GF(256) with the
# program's default reduction polynomial and primitive element, so one
# symbol is one payload byte.
Q, REDUCTION, ALPHA = 256, 0x11D, 2
N = Q - 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    k: int
    min_weight: int
    max_weight: int
    # Block counts per second of --seconds, calibrated at the parent
    # commit so that one round of an untraced run takes three to five
    # seconds of a 45-second run and a traced run about half the run.
    encode_rate: float  # payload blocks given to one `rscodec encode`
    decode_rate: float  # blocks in one stream given to `rscodec decode`
    decode_slots: float  # blocks timed per library pass with `rscodec.decode`
    pgz_slots: float  # blocks timed per library pass with `rscodec.pgz_decode`
    trace_rate: float  # blocks passed through every path in a traced run
    # Library passes per round of four steps: 4 times a slot for cheap
    # blocks, 2 where a pass over the 112 slots a p90 needs costs a second.
    passes_per_round: int

    @property
    def weights(self) -> tuple[int, ...]:
        return tuple(range(self.min_weight, self.max_weight + 1))

    def blocks(self, rate: float, seconds: float) -> int:
        """Block count for a run of `seconds`, a whole number of weight
        chunks once it reaches one chunk."""
        count = max(1, round(rate * seconds))
        chunk = len(self.weights)
        if count >= chunk:
            count = round(count / chunk) * chunk
        return count


WORKLOADS = {w.name: w for w in (
    Workload(
        name="clean-bytes",
        why="RS(255,223) bin stream with no errors: encode, syndromes and evaluation "
            "dominate; bypasses the rank scan, locator and root search",
        k=223, min_weight=0, max_weight=0,
        encode_rate=9.0, decode_rate=5.67,
        decode_slots=3.83, pgz_slots=11.0, trace_rate=66.7, passes_per_round=4),
    Workload(
        name="noisy-bytes",
        why="RS(255,223) bin stream, 1..16 errors per block: the rank scan on small "
            "Hankel matrices is about half of every decode",
        k=223, min_weight=1, max_weight=16,
        encode_rate=8.67, decode_rate=1.8,
        decode_slots=2.47, pgz_slots=2.47, trace_rate=12.8, passes_per_round=2),
)}


def _rng(workload: Workload, seed: int, what: str) -> random.Random:
    # String seeds are hashed with SHA-512, so streams do not depend on
    # PYTHONHASHSEED or on the platform.
    return random.Random(f"rscodec-perfbench:{workload.name}:{seed}:{what}")


def messages(workload: Workload, seed: int, count: int) -> np.ndarray:
    """`count` uniformly random k-symbol messages, shape (count, k)."""
    flat = np.frombuffer(_rng(workload, seed, "payload").randbytes(count * workload.k),
                         dtype=np.uint8)
    return flat.astype(np.int64).reshape(count, workload.k)


def error_weight(workload: Workload, seed: int, i: int) -> int:
    weights = list(workload.weights)
    chunk, offset = divmod(i, len(weights))
    _rng(workload, seed, f"weights{chunk}").shuffle(weights)
    return weights[offset]


def error_vector(workload: Workload, seed: int, i: int, variant: int = 0) -> np.ndarray:
    """Error of block i: exact weight from the stratified schedule,
    uniform positions and uniform nonzero values.  Each variant is a
    different error of the same weight."""
    t = error_weight(workload, seed, i)
    err = np.zeros(N, dtype=np.int64)
    if t:
        rng = _rng(workload, seed, f"error{i}.{variant}")
        for pos in rng.sample(range(N), t):
            err[pos] = rng.randrange(1, Q)
    return err


def render_payload(symbols: np.ndarray) -> bytes:
    """A payload file as the CLI reads and writes it."""
    return symbols.astype(np.uint8).tobytes()


def render_stream(workload: Workload, payload_len: int, blocks: np.ndarray) -> bytes:
    """A coded stream in the CLI's format."""
    header = STREAM_HEADER.pack(STREAM_MAGIC, STREAM_VERSION, Q, workload.k, ALPHA,
                                payload_len)
    return header + blocks.astype(np.uint8).tobytes()


def corrupted_stream(workload: Workload, seed: int, codewords: np.ndarray,
                     count: int) -> bytes:
    """Stream of blocks 0..count-1, block i being codeword i mod E plus
    error i, with every block's symbols counted as payload."""
    words = np.stack([codewords[i % len(codewords)] ^ error_vector(workload, seed, i)
                      for i in range(count)])
    return render_stream(workload, count * workload.k, words)


def parse_stream(data: bytes) -> tuple[tuple, np.ndarray]:
    """(header fields, blocks of shape (count, n)); raises ValueError."""
    if len(data) < STREAM_HEADER.size:
        raise ValueError("stream shorter than its header")
    header = STREAM_HEADER.unpack(data[:STREAM_HEADER.size])
    flat = np.frombuffer(data[STREAM_HEADER.size:], dtype=np.uint8).astype(np.int64)
    if flat.size % N:
        raise ValueError(f"stream body of {flat.size} symbols is not whole blocks")
    return header, flat.reshape(-1, N)


class RefField:
    """GF(2^m) log/antilog tables built independently of the program."""

    def __init__(self, q: int, reduction: int, alpha: int):
        m = q.bit_length() - 1
        n = q - 1
        exp = np.zeros(n, dtype=np.int64)
        log = np.full(q, -1, dtype=np.int64)
        acc = 1
        for i in range(n):
            if log[acc] >= 0:
                raise ValueError(f"alpha {alpha} is not primitive for {reduction:#x}")
            exp[i] = acc
            log[acc] = i
            acc = self._mul(acc, alpha, reduction, m)
        self.q, self.n, self.exp, self.log = q, n, exp, log

    @staticmethod
    def _mul(a: int, b: int, reduction: int, m: int) -> int:
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a >> m:
                a ^= reduction
        return r

    def scale(self, word: np.ndarray, power: int) -> np.ndarray:
        """alpha^power * word, symbol by symbol: again a codeword if word is."""
        return np.where(word == 0, 0, self.exp[(self.log[word] + power) % self.n])

    def encode(self, msgs: np.ndarray) -> np.ndarray:
        """Codewords c_j = sum_i m_i alpha^(i*j), shape (blocks, n)."""
        n = self.n
        blocks, k = msgs.shape
        out = np.zeros((blocks, n), dtype=np.int64)
        logm = self.log[msgs]
        nonzero = msgs != 0
        j = np.arange(n, dtype=np.int64)
        step_i = max(1, min(k, 2_000_000 // n))
        step_b = max(1, 2_000_000 // (step_i * n))
        for i0 in range(0, k, step_i):
            i = np.arange(i0, min(k, i0 + step_i), dtype=np.int64)
            ij = (i[:, None] * j[None, :]) % n
            for b0 in range(0, blocks, step_b):
                sl = slice(b0, b0 + step_b)
                terms = self.exp[(logm[sl, i0:i0 + i.size, None] + ij[None]) % n]
                terms *= nonzero[sl, i0:i0 + i.size, None]
                out[sl] ^= np.bitwise_xor.reduce(terms, axis=1)
        return out

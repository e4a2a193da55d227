"""End-to-end command line tests driven through main()."""

import json
import random
import struct
import subprocess
import sys

import numpy as np
import pytest

from rscodec import DECODERS, DecodeFailure, Field, Poly, RSCode, gf
from rscodec.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_UNCORRECTED,
    EXIT_USAGE,
    StreamHeader,
    main,
)

from .util import lagrange_product

HEADER_HEX_6 = "52534943010700000002000000050000000600000000000000"


def run(*args):
    return main([str(a) for a in args])


def test_encode_fixture(tmp_path):
    payload = tmp_path / "payload.txt"
    stream = tmp_path / "stream.rs"
    payload.write_text("1 1 0 2 5 6\n")
    assert run("encode", "--q", 7, "--k", 2, "--alpha", 5, payload, stream) == EXIT_OK
    raw = stream.read_bytes()
    assert raw[:25].hex() == HEADER_HEX_6
    assert raw[25:] == b"2 6 5 0 3 4\n2 3 1 5 4 6\n4 0 1 6 3 2\n"


def test_header_roundtrip():
    h = StreamHeader(q=65536, k=1234, alpha=7, payload_len=2**40)
    assert StreamHeader.unpack(h.pack()) == h
    assert len(h.pack()) == StreamHeader.SIZE == 25


def test_encode_pads_final_block(tmp_path):
    payload = tmp_path / "p"
    stream = tmp_path / "s"
    payload.write_text("1 1 0")
    assert run("encode", "--q", 7, "--k", 2, "--alpha", 5, payload, stream) == EXIT_OK
    header = StreamHeader.unpack(stream.read_bytes())
    assert header.payload_len == 3
    body = stream.read_bytes()[25:]
    # second chunk is (0,) padded to (0, 0), whose codeword is all zeros
    assert body == b"2 6 5 0 3 4\n0 0 0 0 0 0\n"

    out = tmp_path / "out"
    assert run("decode", stream, out) == EXIT_OK
    assert out.read_text() == "1 1 0\n"  # pad symbols trimmed by payload_len


def test_encode_empty_payload(tmp_path):
    payload = tmp_path / "p"
    stream = tmp_path / "s"
    out = tmp_path / "o"
    payload.write_text("")
    assert run("encode", "--q", 7, "--k", 2, payload, stream) == EXIT_OK
    assert len(stream.read_bytes()) == 25  # header only
    assert run("decode", stream, out) == EXIT_OK
    assert out.read_bytes() == b""


def test_encode_default_alpha_recorded(tmp_path):
    payload = tmp_path / "p"
    stream = tmp_path / "s"
    payload.write_text("1")
    assert run("encode", "--q", 7, "--k", 2, payload, stream) == EXIT_OK
    assert StreamHeader.unpack(stream.read_bytes()).alpha == 3  # smallest primitive


@pytest.mark.parametrize("fmt", ["text", "bin"])
def test_encode_batches_match_block_encodes(tmp_path, fmt):
    # 41 messages of RS(255, 223) are encoded a few blocks per call; the
    # stream is the blocks of one-message encodes, the last one zero-padded.
    payload, stream = tmp_path / "p", tmp_path / "s"
    code = RSCode(Field(256), 223)
    rng = random.Random(41)
    symbols = [rng.randrange(256) for _ in range(40 * 223 + 100)]
    payload.write_bytes(bytes(symbols) if fmt == "bin" else " ".join(map(str, symbols)).encode())
    assert run("encode", "--q", 256, "--k", 223, "--format", fmt, payload, stream) == EXIT_OK
    padded = symbols + [0] * 123
    blocks = [code.encode(padded[i:i + 223]) for i in range(0, len(padded), 223)]
    body = b"".join(bytes(b) for b in blocks) if fmt == "bin" else \
        "".join(" ".join(map(str, b)) + "\n" for b in blocks).encode()
    assert stream.read_bytes() == StreamHeader(256, 223, 2, len(symbols)).pack() + body


def test_parser_built_once_and_reused(tmp_path):
    from rscodec import cli
    assert cli._parser() is cli._parser()
    payload, stream, out = tmp_path / "p", tmp_path / "s", tmp_path / "o"
    payload.write_text("1 2 3")
    # options of one call do not carry over to the next
    assert run("encode", "--q", 7, "--k", 2, "--alpha", 5, payload, stream) == EXIT_OK
    assert run("encode", "--q", 7, "--k", 2, payload, stream) == EXIT_OK
    assert StreamHeader.unpack(stream.read_bytes()).alpha == 3
    assert run("decode", "--decoder", "pgz", stream, out) == EXIT_OK
    assert run("decode", stream, out) == EXIT_OK
    assert out.read_text() == "1 2 3\n"


def test_command_looked_up_at_call_time(tmp_path, monkeypatch):
    # The cached parser is built before the patch; main still runs the
    # module's current cmd_decode, so a wrapped command is the one called.
    from rscodec import cli
    cli._parser()
    calls = []
    monkeypatch.setattr(cli, "cmd_decode", lambda args: calls.append(args) or 7)
    stream, out = tmp_path / "s", tmp_path / "o"
    assert cli.main(["decode", "--decoder", "pgz", str(stream), str(out)]) == 7
    assert [(a.command, a.decoder, a.input) for a in calls] == [("decode", "pgz", str(stream))]


@pytest.mark.parametrize("fmt", ["text", "bin"])
def test_roundtrip_with_corruption(tmp_path, fmt):
    payload = tmp_path / "p"
    stream = tmp_path / "s"
    bad = tmp_path / "b"
    out = tmp_path / "o"
    data = bytes([1, 1, 0, 2, 5, 6])
    if fmt == "bin":
        payload.write_bytes(data)
    else:
        payload.write_text(" ".join(str(x) for x in data) + "\n")
    common = ("--format", fmt)
    assert run("encode", "--q", 7, "--k", 2, "--alpha", 5, *common, payload, stream) == EXIT_OK
    assert run("corrupt", "--errors", 2, "--seed", 3, *common, stream, bad) == EXIT_OK
    assert bad.read_bytes() != stream.read_bytes()
    assert bad.read_bytes()[:25] == stream.read_bytes()[:25]
    # every registered name, on the clean stream (t = 0) and at t = tau = 2
    for decoder in sorted(DECODERS):
        for src in (stream, bad):
            assert run("decode", "--decoder", decoder, *common, src, out) == EXIT_OK
            assert out.read_bytes() == payload.read_bytes() if fmt == "bin" \
                else out.read_text().split() == payload.read_text().split()


def test_outcome_message_is_the_encoded_message():
    code = RSCode(Field(7, alpha=5), 2)
    for msg in ((5, 6), (0, 0), (3, 4)):
        cw = code.encode(msg)
        noisy = list(cw)
        noisy[1] = (noisy[1] + 2) % 7
        noisy[4] = (noisy[4] + 5) % 7
        for name, fn in DECODERS.items():
            for word in (cw, noisy):  # t = 0 and t = tau = 2
                out = fn(code, word)
                assert out.codeword == cw, name
                assert out.message == msg, name


def test_corrupt_deterministic_and_zero_identity(tmp_path):
    payload = tmp_path / "p"
    stream = tmp_path / "s"
    payload.write_text("1 2 3 4")
    run("encode", "--q", 7, "--k", 2, payload, stream)
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert run("corrupt", "--errors", 1, "--seed", 5, stream, a) == EXIT_OK
    assert run("corrupt", "--errors", 1, "--seed", 5, stream, b) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    # the error draws, pinned: one random_error per block, in block order
    assert a.read_bytes() == StreamHeader(7, 2, 3, 4).pack() + b"3 0 5 6 5 4\n0 1 4 6 5 5\n"
    assert run("corrupt", "--errors", 0, "--seed", 5, stream, c) == EXIT_OK
    assert c.read_bytes() == stream.read_bytes()


def test_decode_stats(tmp_path):
    payload = tmp_path / "p"
    stream = tmp_path / "s"
    bad = tmp_path / "b"
    out = tmp_path / "o"
    stats = tmp_path / "stats.jsonl"
    payload.write_text("1 1 0 2")
    run("encode", "--q", 7, "--k", 2, "--alpha", 5, payload, stream)
    run("corrupt", "--errors", 1, "--seed", 1, stream, bad)
    assert run("decode", "--decoder", "interp", "--stats", stats, bad, out) == EXIT_OK
    recs = [json.loads(line) for line in stats.read_text().splitlines()]
    assert [r["block"] for r in recs] == [0, 1]
    for rec in recs:
        assert rec["status"] == "ok"
        assert rec["t"] == 1
        assert rec["rank_checks"] == 2
        assert rec["det_checks"] == 0
        assert rec["mul_count"] > 0
    # the default decoder (bm) runs neither scan
    assert run("decode", "--stats", stats, bad, out) == EXIT_OK
    recs = [json.loads(line) for line in stats.read_text().splitlines()]
    assert [r["block"] for r in recs] == [0, 1]
    for rec in recs:
        assert rec["status"] == "ok"
        assert rec["t"] == 1
        assert rec["rank_checks"] == rec["det_checks"] == 0
        assert rec["mul_count"] > 0


def test_stats_serialise_after_a_numpy_count(tmp_path):
    # A kernel may pass its count as a numpy integer (`np.count_nonzero`
    # returns np.int64); the thread's count stays a Python int, so the
    # per-block counts of a --stats line, differences of it, serialise.
    gf.add_mul_ops(np.int64(3))
    assert type(gf.mul_ops_total()) is int
    payload, stream, stats, out = (tmp_path / name for name in ("p", "s", "stats.jsonl", "o"))
    payload.write_text("1 1 0 2")
    run("encode", "--q", 7, "--k", 2, "--alpha", 5, payload, stream)
    assert run("decode", "--decoder", "interp", "--stats", stats, stream, out) == EXIT_OK
    recs = [json.loads(line) for line in stats.read_text().splitlines()]
    assert [type(r["mul_count"]) for r in recs] == [int, int]


def test_decode_chunks_match_block_decodes(tmp_path):
    # 40 blocks of RS(255, 223) span three decode chunks: codewords, words
    # at t = 1..16 and one random, uncorrectable word.  Every decoder's
    # payload and --stats lines are those of one-block decodes.
    code = RSCode(Field(256), 223)
    rng = random.Random(40)
    blocks = []
    for i in range(40):
        word = list(code.encode([rng.randrange(256) for _ in range(223)]))
        for pos in rng.sample(range(255), i % 17):
            word[pos] ^= rng.randrange(1, 256)
        blocks.append(word)
    blocks[25] = [rng.randrange(256) for _ in range(255)]
    payload_len = 40 * 223 - 5
    stream, out, stats = tmp_path / "s", tmp_path / "o", tmp_path / "stats.jsonl"
    stream.write_bytes(StreamHeader(256, 223, 2, payload_len).pack()
                       + b"".join(bytes(b) for b in blocks))
    for name, fn in DECODERS.items():
        symbols, want_stats = [], []
        for i, block in enumerate(blocks):
            try:
                outcome = fn(code, block)
            except DecodeFailure as exc:
                low = code.word_evaluations(block)[code.n - code.k:]
                symbols += code.low_from_evaluations(low).tolist()
                want_stats.append((i, exc.reason, None, exc.trace.rank_checks,
                                   exc.trace.det_checks))
            else:
                symbols += outcome.message
                want_stats.append((i, "ok", outcome.error_count, outcome.trace.rank_checks,
                                   outcome.trace.det_checks))
        assert sum(s[1] != "ok" for s in want_stats) == 1
        for strict in (False, True):
            args = ["decode", "--decoder", name, "--format", "bin", "--stats", stats]
            rc = run(*args, *(["--strict"] if strict else []), stream, out)
            assert rc == (EXIT_UNCORRECTED if strict else EXIT_OK)
            assert out.read_bytes() == bytes(symbols[:payload_len])
            recs = [json.loads(line) for line in stats.read_text().splitlines()]
            assert [(r["block"], r["status"], r["t"], r["rank_checks"], r["det_checks"])
                    for r in recs] == want_stats
            assert all(r["mul_count"] >= 0 for r in recs)


def test_decode_strict_uncorrectable(tmp_path):
    # a body block at distance 3 from every codeword of RS(7, alpha=5, k=2)
    stream = tmp_path / "s"
    out = tmp_path / "o"
    stats = tmp_path / "stats.jsonl"
    header = StreamHeader(q=7, k=2, alpha=5, payload_len=2)
    stream.write_bytes(header.pack() + b"0 0 1 0 3 4\n")
    assert run("decode", "--strict", stream, out) == EXIT_UNCORRECTED

    # without --strict the block passes through as a best-effort estimate:
    # the two low coefficients of its interpolation polynomial, by every decoder
    code = RSCode(Field(7, alpha=5), 2)
    interp = sum((lagrange_product(code, j).scale(u)
                  for j, u in enumerate((0, 0, 1, 0, 3, 4))),
                 start=Poly.zero(code.field))
    expected = " ".join(str(c) for c in (interp.coeffs + (0, 0))[:2]) + "\n"
    for decoder in sorted(DECODERS):
        assert run("decode", "--decoder", decoder, "--stats", stats, stream, out) == EXIT_OK
        assert out.read_text() == expected
        rec = json.loads(stats.read_text())
        assert rec["status"] != "ok"
        assert rec["t"] is None


def test_compare_deterministic(tmp_path, capsys):
    args = ["compare", "--q", "17", "--k", "4", "--trials", "20", "--seed", "7"]
    assert main(args) == EXIT_OK
    first = capsys.readouterr().out
    assert main(args) == EXIT_OK
    assert capsys.readouterr().out == first
    recs = [json.loads(line) for line in first.splitlines()]
    # default decoders and default t sweep 0..tau
    assert {r["decoder"] for r in recs} == {"interp", "pgz"}
    assert sorted({r["t"] for r in recs}) == list(range(7))
    assert all("wall_ns_mean" not in r for r in recs)

    assert main(args + ["--include-wall"]) == EXIT_OK
    with_wall = capsys.readouterr().out
    assert all("wall_ns_mean" in json.loads(line) for line in with_wall.splitlines())


def test_compare_decoder_subset(capsys):
    assert main(["compare", "--q", "7", "--k", "2", "--alpha", "5",
                 "--t-values", "1", "--trials", "5", "--seed", "0",
                 "--decoders", "interp-pos"]) == EXIT_OK
    recs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["decoder"] for r in recs] == ["interp-pos"]
    assert recs[0]["successes"] == 5


def test_usage_errors(tmp_path, capsys):
    payload = tmp_path / "p"
    payload.write_text("1")
    stream = tmp_path / "s"
    # q = 6 is not a prime power we support
    assert run("encode", "--q", 6, "--k", 2, payload, stream) == EXIT_USAGE
    # k must be < n
    assert run("encode", "--q", 7, "--k", 6, payload, stream) == EXIT_USAGE
    # 2 has order 3 in F_7*, not primitive
    assert run("encode", "--q", 7, "--k", 2, "--alpha", 2, payload, stream) == EXIT_USAGE
    # bin format cannot hold symbols of a field larger than a byte
    assert run("encode", "--q", 65521, "--k", 2, "--format", "bin",
               payload, stream) == EXIT_USAGE
    # corrupt weight must stay below n
    run("encode", "--q", 7, "--k", 2, payload, stream)
    assert run("corrupt", "--errors", 6, "--seed", 0, stream, tmp_path / "x") == EXIT_USAGE
    # unknown benchmark decoder name
    assert main(["compare", "--q", "7", "--k", "2", "--seed", "0",
                 "--decoders", "bogus"]) == EXIT_USAGE
    capsys.readouterr()  # drain error prints


@pytest.mark.parametrize("command", ["encode", "compare"])
def test_help_describes_the_code_options(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    out = " ".join(capsys.readouterr().out.split())
    for text in ("--q Q field size (prime or 2^m)", "--k K message symbols per block",
                 "--alpha ALPHA primitive element (default: smallest)"):
        assert text in out
    if command == "compare":
        assert "--seed SEED RNG seed" in out


def test_bad_t_values_is_a_usage_error(capsys):
    assert main(["compare", "--q", "7", "--k", "2", "--seed", "0",
                 "--t-values", "1,x"]) == EXIT_USAGE
    assert "bad --t-values" in capsys.readouterr().err


def test_unwritable_outputs_are_data_errors(tmp_path, capsys):
    # An output path that is a directory cannot be written; a decode whose
    # --stats cannot be written stops before it writes its payload.
    payload = tmp_path / "p"
    payload.write_text("1 1 0 2")
    stream = tmp_path / "s"
    folder = tmp_path / "folder"
    folder.mkdir()
    assert run("encode", "--q", 7, "--k", 2, "--alpha", 5, payload, folder) == EXIT_DATA
    assert "cannot write" in capsys.readouterr().err
    assert run("encode", "--q", 7, "--k", 2, "--alpha", 5, payload, stream) == EXIT_OK
    assert run("decode", stream, folder) == EXIT_DATA
    assert "cannot write" in capsys.readouterr().err
    out = tmp_path / "o"
    assert run("decode", "--stats", folder, stream, out) == EXIT_DATA
    assert "cannot write" in capsys.readouterr().err
    assert not out.exists()


def test_non_primitive_alpha_names_the_reduction(tmp_path, capsys):
    # The CLI builds GF(2^m) on its default reduction polynomial, 0x13 for
    # GF(16), under which 6 is not primitive (it is under 0x19).
    payload = tmp_path / "p"
    payload.write_text("1")
    assert run("encode", "--q", 16, "--k", 6, "--alpha", 6, payload, tmp_path / "s") == EXIT_USAGE
    assert "alpha 6 does not have multiplicative order 15 under reduction 0x13" in (
        capsys.readouterr().err)
    run("encode", "--q", 7, "--k", 2, "--alpha", 2, payload, tmp_path / "s")
    assert capsys.readouterr().err.rstrip().endswith("does not have multiplicative order 6")


def test_data_errors(tmp_path, capsys):
    payload = tmp_path / "p"
    stream = tmp_path / "s"
    out = tmp_path / "o"

    payload.write_text("1 7")  # symbol out of range for q = 7
    assert run("encode", "--q", 7, "--k", 2, payload, stream) == EXIT_DATA
    payload.write_text("1 x")
    assert run("encode", "--q", 7, "--k", 2, payload, stream) == EXIT_DATA
    # symbols are ASCII decimal digits: no sign, "_" or other int() spelling
    payload.write_text("1_0 +3 -0 4")
    assert run("encode", "--q", 16, "--k", 4, payload, stream) == EXIT_DATA
    assert "non-integer token" in capsys.readouterr().err
    stream.write_bytes(StreamHeader(7, 2, 5, 2).pack() + b"+0 0 0 0 0 0\n")
    assert run("decode", stream, out) == EXIT_DATA
    assert "non-integer token b'+0'" in capsys.readouterr().err
    # a token past int()'s digit limit is out of range, not a crash; zero
    # padding is not, however long
    payload.write_text("1 " + "1" * 5000)
    assert run("encode", "--q", 7, "--k", 2, payload, out) == EXIT_DATA
    stream.write_bytes(StreamHeader(7, 2, 5, 2).pack() + b"1" * 5000 + b" 0 0 0 0 0\n")
    assert run("decode", stream, out) == EXIT_DATA
    assert capsys.readouterr().err.count("symbol of 5000 digits outside [0, 7)") == 2
    assert not out.exists()
    payload.write_text("1 " + "0" * 5000 + "6")
    assert run("encode", "--q", 7, "--k", 2, payload, stream) == EXIT_OK
    assert run("decode", stream, out) == EXIT_OK
    assert out.read_text() == "1 6\n"

    stream.write_bytes(b"NOPE" + bytes(21))
    assert run("decode", stream, out) == EXIT_DATA
    stream.write_bytes(b"RSIC")  # truncated header
    assert run("decode", stream, out) == EXIT_DATA
    stream.write_bytes(bytes.fromhex(HEADER_HEX_6)[:4] + b"\x02"
                       + bytes.fromhex(HEADER_HEX_6)[5:])  # bad version
    assert run("decode", stream, out) == EXIT_DATA

    # body length not a multiple of n
    header = StreamHeader(7, 2, 5, 6).pack()
    stream.write_bytes(header + b"1 2 3 4\n")
    assert run("decode", stream, out) == EXIT_DATA
    # block count disagrees with payload_len
    stream.write_bytes(header + b"2 6 5 0 3 4\n")
    assert run("decode", stream, out) == EXIT_DATA
    # missing input file
    assert run("decode", tmp_path / "absent", out) == EXIT_DATA
    # header code parameters that name no code: malformed data, not usage
    for q, k, alpha in ((6, 2, 0), (7, 9, 3), (7, 2, 2), (2**20, 4, 0)):
        stream.write_bytes(StreamHeader(q, k, alpha, 0).pack())
        assert run("decode", stream, out) == EXIT_DATA
    # a header naming a valid code with q > 256 cannot head a bin stream
    stream.write_bytes(StreamHeader(257, 2, 3, 0).pack())
    assert run("decode", "--format", "bin", stream, out) == EXIT_DATA
    capsys.readouterr()


# Header layout: magic, version u8, q u32, k u32, alpha u32, payload_len u64;
# edge values by field index: version, q, k, alpha, payload_len.
_HEADER = struct.Struct("<4sBIIIQ")
_EDGE_FIELDS = {
    1: (0, 2, 255),
    2: (0, 1, 2, 4, 6, 8, 256, 257, 65521, 65536, 2**32 - 1),
    3: (0, 1, 5, 6, 7, 2**32 - 1),
    4: (0, 1, 6, 7, 2**32 - 1),
    5: (0, 1, 7, 9, 2**40, 2**64 - 1),
}


def _mutations(rng, stream, fmt):
    # Random header bytes, each header field at its edge values,
    # truncations, random body bytes and appended bytes.
    size = StreamHeader.SIZE
    fields = _HEADER.unpack(stream[:size])
    symbols = b"0123456 \n" if fmt == "text" else bytes(range(7))
    for i, values in _EDGE_FIELDS.items():
        for v in values:
            yield _HEADER.pack(*fields[:i], v, *fields[i + 1:]) + stream[size:]
    for _ in range(60):
        data = bytearray(stream)
        for _ in range(rng.randint(1, 3)):
            data[rng.randrange(size)] = rng.randrange(256)
        yield bytes(data)
    for _ in range(40):
        yield stream[:rng.randrange(len(stream))]
    for _ in range(100):
        data = bytearray(stream)
        alphabet = symbols if rng.random() < 0.5 else bytes(range(256))
        for _ in range(rng.randint(1, 4)):
            data[rng.randrange(size, len(data))] = rng.choice(alphabet)
        yield bytes(data)
    for _ in range(20):
        yield stream + bytes(rng.choice(symbols) for _ in range(rng.randint(1, 12)))


@pytest.mark.parametrize("fmt", ["text", "bin"])
def test_malformed_streams_exit_cleanly(tmp_path, capsys, fmt):
    # About 250 seeded mutations of a GF(7) stream per format: each one
    # decodes (exit 0) or is rejected as malformed data (exit 3) by every
    # decoder, never with an uncaught exception.
    payload, stream, out = tmp_path / "p", tmp_path / "s", tmp_path / "o"
    symbols = [3, 1, 4, 1, 5, 0, 2, 6]
    payload.write_bytes(bytes(symbols) if fmt == "bin" else " ".join(map(str, symbols)).encode())
    assert run("encode", "--q", 7, "--k", 2, "--alpha", 5, "--format", fmt, payload, stream) == EXIT_OK
    rng = random.Random(20261018 + (fmt == "bin"))
    cases = list(_mutations(rng, stream.read_bytes(), fmt))
    assert len(cases) > 240
    exits = set()
    for data in cases:
        stream.write_bytes(data)
        for name in ("bm", "interp", "pgz"):
            code = run("decode", "--decoder", name, "--format", fmt, stream, out)
            assert code in (EXIT_OK, EXIT_DATA), (name, data)
            exits.add(code)
    assert exits == {EXIT_OK, EXIT_DATA}
    assert "Traceback" not in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    payload = tmp_path / "p"
    stream = tmp_path / "s"
    out = tmp_path / "o"
    payload.write_text("3 1 4 1 5")
    enc = subprocess.run(
        [sys.executable, "-m", "rscodec", "encode", "--q", "11", "--k", "3",
         str(payload), str(stream)],
        capture_output=True, text=True)
    assert enc.returncode == EXIT_OK, enc.stderr
    dec = subprocess.run(
        [sys.executable, "-m", "rscodec", "decode", str(stream), str(out)],
        capture_output=True, text=True)
    assert dec.returncode == EXIT_OK, dec.stderr
    assert out.read_text().split() == ["3", "1", "4", "1", "5"]

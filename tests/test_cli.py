"""End-to-end command line tests driven through main()."""

import json
import subprocess
import sys

import pytest

from rscodec import DECODERS, Field, Poly, RSCode
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
    assert run("decode", "--stats", stats, bad, out) == EXIT_OK
    recs = [json.loads(line) for line in stats.read_text().splitlines()]
    assert [r["block"] for r in recs] == [0, 1]
    for rec in recs:
        assert rec["status"] == "ok"
        assert rec["t"] == 1
        assert rec["rank_checks"] == 2
        assert rec["det_checks"] == 0
        assert rec["mul_count"] > 0


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
                 "--decoders", "interp_positions"]) == EXIT_OK
    recs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["decoder"] for r in recs] == ["interp_positions"]
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


def test_data_errors(tmp_path, capsys):
    payload = tmp_path / "p"
    stream = tmp_path / "s"
    out = tmp_path / "o"

    payload.write_text("1 7")  # symbol out of range for q = 7
    assert run("encode", "--q", 7, "--k", 2, payload, stream) == EXIT_DATA
    payload.write_text("1 x")
    assert run("encode", "--q", 7, "--k", 2, payload, stream) == EXIT_DATA

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
    capsys.readouterr()


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

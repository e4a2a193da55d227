"""Acceptance gate.

Each criterion runs inside a timed block and prints exactly one line

    ACCEPTANCE C<i> (<label>): PASS|FAIL [<elapsed> / budget <limit>]

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete; without -s pytest shows them for failing criteria only.
"""

import json
import random
import time
from contextlib import contextmanager

from rscodec import (
    DECODERS,
    DecodeFailure,
    Field,
    Poly,
    RSCode,
    decode,
    decode_via_positions,
    detect_error_count,
    hamming,
    pgz_decode,
    solve_locator,
)
from rscodec.bench import TrialConfig, run_sweep
from rscodec.cli import EXIT_OK, main
from rscodec.oracle import brute_min_distance, brute_nearest

from .util import corrupt, get_code, lagrange_product


@contextmanager
def criterion(num, label, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE C{num} ({label}): FAIL", flush=True)
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < budget_s
    print(f"ACCEPTANCE C{num} ({label}): {'PASS' if ok else 'FAIL'} "
          f"[{elapsed:.2f}s / budget {budget_s}s]", flush=True)
    assert ok, f"criterion {num} took {elapsed:.2f}s, budget {budget_s}s"


def test_c1_worked_example():
    with criterion(1, "seven-symbol worked example", 1.0):
        f = Field(7, alpha=5)
        code = RSCode(f, 2)
        assert [f.pow(5, i) for i in range(6)] == [1, 5, 4, 6, 2, 3]

        cw = code.encode((5, 6))
        assert cw == (4, 0, 1, 6, 3, 2)
        u = (4, 2, 1, 6, 3, 2)
        w = (0, 2, 5, 6, 0, 6)

        assert code.syndromes(u) == (3, 1, 5, 4)
        assert code.syndromes(w) == (0, 1, 5, 5)
        assert detect_error_count(code, (3, 1, 5, 4)) == 1
        assert detect_error_count(code, (0, 1, 5, 5)) == 2
        assert solve_locator(code, (3, 1, 5, 4), 1) == Poly(f, (2, 1))
        assert solve_locator(code, (0, 1, 5, 5), 2) == Poly(f, (6, 2, 1))

        assert code.interpolate(u) == Poly(f, (3, 0, 3, 2, 6, 4))
        assert code.interpolate(w) == Poly(f, (2, 2, 2, 2, 6, 0))

        out = decode(code, u)
        assert out.codeword == cw
        assert out.error == (0, 2, 0, 0, 0, 0)
        assert out.error_count == 1
        assert out.trace.rank_checks == 2
        assert out.trace.high_quotient == Poly(f, (4,))

        out = decode(code, w)
        assert out.codeword == (0, 2, 5, 6, 4, 1)
        assert out.error == (0, 0, 0, 0, 3, 5)
        assert out.trace.rank_checks == 3
        assert out.trace.high_quotient == Poly(f, (6,))

        out = decode(code, (3, 4, 2, 6, 5, 0))
        assert out.error_count == 0 and out.trace.rank_checks == 1

        assert pgz_decode(code, u).trace.det_checks == 2
        assert pgz_decode(code, w).trace.det_checks == 1
        assert pgz_decode(code, (3, 4, 2, 6, 5, 0)).trace.det_checks == 0

        pos = decode_via_positions(code, u)
        assert pos.codeword == cw and pos.locator.roots_nonzero() == {5}
        pos = decode_via_positions(code, w)
        assert pos.locator.roots_nonzero() == {2, 3}

        near = brute_nearest(code, u)
        assert near.codeword == cw and near.distance == 1 and near.unique
        assert brute_min_distance(code) == 5 == code.d

        assert code.lagrange_basis(1) == Poly(f, (6, 4, 5, 1, 3, 2))


def test_c2_oracle_equivalence():
    with criterion(2, "decoders match exhaustive oracle", 30.0):
        rng = random.Random(20)
        checked = 0
        for q in (5, 7, 11, 13):
            n = q - 1
            for k in range(1, n):
                if q**k > 100_000:
                    break
                code = get_code(q, k)
                for _ in range(200):
                    msg = [rng.randrange(q) for _ in range(k)]
                    cw = code.encode(msg)
                    t = rng.randrange(code.tau + 1)
                    u = corrupt(rng, code, cw, t)
                    for fn in dict.fromkeys(DECODERS.values()):
                        assert fn(code, u).codeword == cw
                    near = brute_nearest(code, u)
                    assert near.codeword == cw
                    assert near.distance == t
                    assert near.unique
                    checked += 1
        assert checked == 200 * (3 + 5 + 4 + 4)


def test_c3_mds_distance():
    with criterion(3, "minimum distance meets the Singleton bound", 10.0):
        for q in (5, 7, 11, 13):
            n = q - 1
            for k in range(1, n):
                if q**k > 100_000:
                    break
                code = get_code(q, k)
                assert brute_min_distance(code) == code.n - code.k + 1


def test_c4_structural_identities():
    with criterion(4, "matrix and interpolation identities", 10.0):
        # generator annihilated by parity check, every k, directly
        for q in (5, 7, 11, 13, 17):
            for k in range(1, q - 2):
                code = get_code(q, k)
                assert (code.generator_matrix()
                        @ code.parity_check_matrix().T).is_zero()

        # GF(256): the (a, b) entry of G Ht is sum_j alpha^((a+b+1) j),
        # a power sum with exponent in [1, n-1] for every k at once
        f = Field(256)
        n = f.q - 1
        power_sums = f.eval_at_powers([1] * n, first=1, count=n - 1)
        assert not power_sums.any()
        # tie the shortcut to direct products at spot dimensions
        for k in (1, 128, 223, 254):
            code = RSCode(f, k)
            g, h = code.generator_matrix(), code.parity_check_matrix()
            prod = g @ h.T
            assert prod.is_zero()
            for a in (0, k - 1):
                for b in (0, n - k - 1):
                    assert prod[a, b] == int(power_sums[a + b]) == 0

        # closed-form single-point basis rows equal the product form
        for q in (3, 4, 5, 7, 8, 11, 13, 16, 17):
            code = get_code(q, q - 2)
            for i in range(code.n):
                assert code.lagrange_basis(i) == lagrange_product(code, i)

        # the interpolation polynomial really passes through every point
        # (checked by independent scalar Horner evaluation)
        rng = random.Random(40)
        for _ in range(1000):
            q = rng.choice((8, 13, 17))
            code = get_code(q, q - 2)
            fld = code.field
            word = tuple(rng.randrange(q) for _ in range(code.n))
            p = code.interpolate(word)
            assert p.degree < code.n
            assert tuple(p(fld.pow(fld.alpha, j)) for j in range(code.n)) == word


def test_c5_counter_laws():
    with criterion(5, "instrumentation counter laws", 10.0):
        code = get_code(17, 4)
        tau = code.tau
        cfg = TrialConfig(code=code, t_values=tuple(range(tau + 1)),
                          trials_per_t=50, seed=17)
        report = run_sweep(cfg)
        interp = {r.t: r for r in report.rows if r.decoder == "interp"}
        pgz = {r.t: r for r in report.rows if r.decoder == "pgz"}
        for t in range(tau + 1):
            assert interp[t].successes == 50 and pgz[t].successes == 50
            assert interp[t].rank_checks_mean == float(t + 1)
            assert pgz[t].det_checks_mean == (float(tau - t + 1) if t else 0.0)
        for t in range(tau):
            assert interp[t].rank_checks_mean < interp[t + 1].rank_checks_mean
        for t in range(1, tau):
            assert pgz[t].det_checks_mean > pgz[t + 1].det_checks_mean
        assert interp[1].rank_checks_mean < pgz[1].det_checks_mean
        assert interp[tau].rank_checks_mean > pgz[tau].det_checks_mean


def test_c6_large_field_code():
    with criterion(6, "byte-field code with 32 checks", 60.0):
        code = get_code(256, 223)
        assert (code.n, code.d, code.tau) == (255, 33, 16)
        rng = random.Random(60)
        for t in (0, 1, 8, 16):
            for _ in range(1000):
                msg = [rng.randrange(256) for _ in range(223)]
                cw = code.encode(msg)
                u = corrupt(rng, code, cw, t)
                out = decode(code, u)
                assert out.codeword == cw
                assert out.error_count == t
                assert out.trace.rank_checks == t + 1
        # one past the radius: never a silent wrong answer
        for _ in range(1000):
            msg = [rng.randrange(256) for _ in range(223)]
            cw = code.encode(msg)
            u = corrupt(rng, code, cw, 17)
            try:
                out = decode(code, u)
            except DecodeFailure:
                continue
            assert code.is_codeword(out.codeword)
            assert hamming(u, out.codeword) == out.error_count <= 16


def test_c7_cli_end_to_end(tmp_path, capsys):
    with criterion(7, "command line round trips", 10.0):
        for fmt in ("text", "bin"):
            payload = tmp_path / f"p-{fmt}"
            stream = tmp_path / f"s-{fmt}"
            bad = tmp_path / f"b-{fmt}"
            out = tmp_path / f"o-{fmt}"
            data = bytes([10, 250, 0, 7, 77, 199, 3])
            if fmt == "bin":
                payload.write_bytes(data)
            else:
                payload.write_text(" ".join(str(x) for x in data))
            argv = ["encode", "--q", "256", "--k", "4", "--format", fmt,
                    str(payload), str(stream)]
            assert main(argv) == EXIT_OK
            assert main(["corrupt", "--errors", "100", "--seed", "1",
                         "--format", fmt, str(stream), str(bad)]) == EXIT_OK
            # weight 100 <= tau = 125 for RS(256, k=4)
            # every registered decoder, then the default
            for choice in [["--decoder", name] for name in sorted(DECODERS)] + [[]]:
                assert main(["decode", *choice, "--strict",
                             "--format", fmt, str(bad), str(out)]) == EXIT_OK
                got = out.read_bytes() if fmt == "bin" else bytes(
                    int(tok) for tok in out.read_text().split())
                assert got == data

        compare_args = ["compare", "--q", "13", "--k", "4", "--trials", "25",
                        "--seed", "2", "--decoders",
                        "interp,interp-pos,pgz"]
        assert main(compare_args) == EXIT_OK
        first = capsys.readouterr().out
        assert main(compare_args) == EXIT_OK
        assert capsys.readouterr().out == first
        for line in first.splitlines():
            rec = json.loads(line)
            assert rec["successes"] == rec["trials"] == 25

"""Differential run of this tree against a git ref.

Exports REF with `git archive` into a temporary directory, runs one fixed
corpus in two child processes, one importing this tree's `src/rscodec`
and one importing REF's, and compares the JSON lines they print, record
by record.  The corpus code is this script's in both children, so it
uses only names that both trees have.

The corpus:

- codes: RS(255,223), RS(255,4), GF(257) k = 200, GF(16) 0x19 alpha = 6
  k = 6, GF(13) k = 5, GF(7) alpha = 5 k = 2, GF(8) k = 3 and k = 1,
  GF(11) k = 3;
- words: codewords plus errors of every weight 0 ... tau + 3 (at most n),
  and uniformly random words;
- boundary words (`boundary_words`): a codeword plus tau + 1 or tau
  symbols of a minimum-weight codeword, on RS(255,223) and RS(255,222),
  GF(257) k = 200 and 199, GF(16) 0x19 alpha = 6 k = 6 and 5, GF(2^16)
  k = 65503 and GF(65521) k = 65488 and 65489, decoded one by one and as
  blocks (the two large fields by `bm` and `pgz`, GF(2^16) also by
  `interp`);
- runs: every decoder of `DECODERS` on each word, counting the decode and
  then the `.message` read apart; `decode_blocks` in chunks of `CHUNK`
  rows; the public stages `detect_error_count`, `berlekamp_massey`,
  `solve_locator` and `recover_codeword_polynomial`; random `FeMat` rank,
  det and solve systems with dependent rows; random `Poly` products,
  divisions and root searches.

A record holds an outcome (codeword, error, count, locator, trace
counters, message) or a failure (type, text, trace counters), and the
field multiplications of each call (fields named `mul*`).  Every
difference is printed, outcomes and counts alike; a count that rose is
marked ROSE, one that fell FELL.  The summary gives each kind's products
at REF and here, and its largest rise with the record it is in.  The
exit status is 1 when any outcome differs, 2 when REF cannot be exported
or a tree could not run the corpus, and 0 otherwise, so a change of
counts alone passes.  Stdlib and git only.

Run from the repository root (the working tree, uncommitted changes
included, against REF):

    python scripts/differential.py --against HEAD^1
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import os
import random
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (q, k, Field keywords, codeword-plus-error words per weight)
CODES = (
    (256, 223, {}, 2),
    (256, 4, {}, 1),
    (257, 200, {}, 2),
    (16, 6, {"reduction": 0x19, "alpha": 6}, 12),
    (13, 5, {}, 12),
    (7, 2, {"alpha": 5}, 12),
    (8, 3, {}, 12),
    (8, 1, {}, 12),
    (11, 3, {}, 12),
)
RANDOM_WORDS = 12  # uniformly random words per code
CHUNK = 5  # rows per `decode_blocks` call
MATRIX_FIELDS = ((7, {}), (13, {}), (16, {"reduction": 0x19}), (256, {}), (257, {}))
MATRICES = 60  # random FeMat systems per field
POLY_FIELDS = ((7, {}), (13, {}), (16, {"reduction": 0x19}), (256, {}), (257, {}), (4096, {}))
POLYS = 40  # random Poly pairs per field
# (q, k, Field keywords, decoders or None for all) of the decoding-boundary
# words: n - k even, where w decodes to b + c, and odd, where it fails
BOUNDARY = (
    (256, 223, {}, None),
    (256, 222, {}, None),
    (257, 200, {}, None),
    (257, 199, {}, None),
    (16, 6, {"reduction": 0x19, "alpha": 6}, None),
    (16, 5, {"reduction": 0x19, "alpha": 6}, None),
    (65536, 65503, {}, ("bm", "pgz", "interp")),
    (65521, 65488, {}, ("bm", "pgz")),
    (65521, 65489, {}, ("bm", "pgz")),
)


def boundary_words(code) -> tuple[list[int], ...]:
    """(m, b, c, w, w') on the decoding boundary, after MacWilliams and
    Sloane (ch. 10-11), seeded by the code: b = encode(m) for a random
    message m; c the codeword of weight d = n - k + 1 on a random support
    T with c_j = 1 / (x_j prod_(i in T, i != j) (x_j - x_i)), x_j =
    alpha^j, and 0 off T; w = b + c on tau + 1 positions of T and b
    elsewhere, and w' the same on tau positions.  w is tau + 1 from b and
    n - k - tau from b + c: it decodes to b + c when n - k is even and to
    no codeword when n - k is odd.  w' decodes to b."""
    f, n, tau = code.field, code.n, code.tau
    rng = random.Random(f"{f.q} {f.reduction} {f.alpha} {code.k}")
    support = rng.sample(range(n), code.d)
    c = [0] * n
    for j in support:
        denom = f.exp[j]
        for i in support:
            if i != j:
                denom = f.mul(denom, f.sub(f.exp[j], f.exp[i]))
        c[j] = f.inv(denom)
    message = [rng.randrange(f.q) for _ in range(code.k)]
    b = list(code.encode(message))

    def plus_c(positions: list[int]) -> list[int]:
        word = list(b)
        for j in positions:
            word[j] = f.add(word[j], c[j])
        return word

    return message, b, c, plus_c(support[:tau + 1]), plus_c(support[:tau])


# ----- the corpus, run in a child process ----------------------------------------


def _emit(tree: Path) -> None:
    sys.path.insert(0, str(tree / "src"))
    import numpy as np
    import rscodec
    from rscodec import (DECODERS, DecodeFailure, FeMat, Field, MulOpCounter, Poly, RSCode,
                         berlekamp_massey, detect_error_count, recover_codeword_polynomial,
                         solve_locator)
    from rscodec.decode_interp import decode_blocks

    if not Path(rscodec.__file__).resolve().is_relative_to(tree.resolve()):
        raise SystemExit(f"imported {rscodec.__file__}, not the tree {tree}")

    def out(kind: str, key: list, **fields) -> None:
        print(json.dumps({"kind": kind, "key": key, **fields}, sort_keys=True))

    def plain(value):
        if isinstance(value, Poly):
            return list(value.coeffs)
        if isinstance(value, np.ndarray):
            return value.tolist()
        if isinstance(value, (tuple, list)):
            return [plain(v) for v in value]
        return value

    def counters(trace) -> dict:
        if trace is None:
            return {}
        return {fld.name: plain(getattr(trace, fld.name)) for fld in dataclasses.fields(trace)}

    def failure(exc: Exception) -> dict:
        return {"failure": type(exc).__name__, "text": str(exc),
                "trace": counters(getattr(exc, "trace", None))}

    def outcome(res) -> dict:
        return {"codeword": list(res.codeword), "error": list(res.error),
                "error_count": res.error_count, "locator": plain(res.locator),
                "trace": counters(res.trace)}

    def counted(call):
        """(the call's result, or the DecodeFailure or ValueError it
        raised; its products)."""
        with MulOpCounter() as mc:
            try:
                res = call()
            except (DecodeFailure, ValueError) as exc:
                res = exc
        return res, mc.count

    def decoded(kind: str, key: list, code, word, decoder) -> None:
        """One decode's record: its failure, or its outcome and message."""
        res, muls = counted(lambda: decoder(code, word))
        if isinstance(res, Exception):
            out(kind, key, **failure(res), mul=muls)
            return
        with MulOpCounter() as mc:
            message = list(res.message)
        out(kind, key, **outcome(res), message=message, mul=muls, mul_message=mc.count)

    def blocks_decoded(kind: str, key: list, code, blocks, name: str) -> None:
        """One `decode_blocks` call's record: its messages and rows."""
        with MulOpCounter() as mc:
            messages, results, row_muls = decode_blocks(code, blocks, name)
        rows = [failure(r) if isinstance(r, Exception) else outcome(r) for r in results]
        out(kind, key, messages=plain(messages), rows=rows, mul=mc.count, mul_rows=row_muls)

    for q, k, kw, reps in CODES:
        code = RSCode(Field(q, **kw), k)
        f, n, tau = code.field, code.n, code.tau
        rng = random.Random(1000 * q + k)
        words = []
        for weight in range(min(tau + 3, n) + 1):
            for _ in range(reps):
                word = list(code.encode([rng.randrange(q) for _ in range(k)]))
                for pos in rng.sample(range(n), weight):
                    word[pos] = f.add(word[pos], rng.randrange(1, q))
                words.append((f"w{weight}", word))
        words += [("random", [rng.randrange(q) for _ in range(n)]) for _ in range(RANDOM_WORDS)]
        label = [q, k, kw.get("reduction"), kw.get("alpha")]

        for i, (kind, word) in enumerate(words):
            for name, decoder in DECODERS.items():
                decoded("decode", label + [i, kind, name], code, word, decoder)

            synd = code.syndromes(word)
            t, muls = counted(lambda: detect_error_count(code, synd))
            out("stage", label + [i, kind, "detect_error_count"], t=plain(t), mul=muls)
            res, muls = counted(lambda: berlekamp_massey(code, synd))
            out("stage", label + [i, kind, "berlekamp_massey"],
                **(failure(res) if isinstance(res, Exception) else {"result": plain(res)}),
                mul=muls)
            if isinstance(t, int) and 1 <= t <= tau:
                loc, muls = counted(lambda: solve_locator(code, synd, t))
                out("stage", label + [i, kind, "solve_locator"],
                    **(failure(loc) if isinstance(loc, Exception) else {"result": plain(loc)}),
                    mul=muls)
                if not isinstance(loc, Exception):
                    res, muls = counted(lambda: recover_codeword_polynomial(code, word, loc, t))
                    out("stage", label + [i, kind, "recover_codeword_polynomial"],
                        **(failure(res) if isinstance(res, Exception) else {"result": plain(res)}),
                        mul=muls)

        blocks = np.array([word for _, word in words], dtype=np.int64)
        for name in DECODERS:
            for lo in range(0, len(blocks), CHUNK):
                blocks_decoded("blocks", label + [lo, name], code, blocks[lo:lo + CHUNK], name)

    for q, k, kw, names in BOUNDARY:
        code = RSCode(Field(q, **kw), k)
        _, _, _, word, mirror = boundary_words(code)
        label = [q, k, kw.get("reduction"), kw.get("alpha")]
        for name in names or DECODERS:
            decoded("boundary", label + ["w", name], code, word, DECODERS[name])
            decoded("boundary", label + ["mirror", name], code, mirror, DECODERS[name])
            blocks_decoded("boundary", label + ["blocks", name], code,
                           np.array([word, mirror], dtype=np.int64), name)

    for q, kw in MATRIX_FIELDS:
        f = Field(q, **kw)
        rng = random.Random(q)
        for i in range(MATRICES):
            rows, cols = rng.randrange(7), rng.randrange(7)
            a = [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]
            if rows > 1 and rng.random() < 0.5:  # a dependent row
                s = rng.randrange(1, q)
                a[-1] = [f.add(x, f.mul(s, y)) for x, y in zip(a[0], a[1])]
            m = FeMat(f, a)
            b = [rng.randrange(q) for _ in range(rows)]
            rank, mul_rank = counted(m.rank)
            det, mul_det = counted(m.det) if rows == cols else (None, 0)
            sol, mul_solve = counted(lambda: m.solve(b))
            out("femat", [q, i], rank=rank, det=det, status=sol.status.value,
                solution=plain(sol.solution), mul_rank=mul_rank, mul_det=mul_det,
                mul_solve=mul_solve)

    for q, kw in POLY_FIELDS:
        f = Field(q, **kw)
        rng = random.Random(q + 1)
        for i in range(POLYS):
            a = Poly(f, [rng.randrange(q) for _ in range(rng.randrange(12))])
            b = Poly(f, [rng.randrange(q) for _ in range(rng.randrange(8))])
            prod, mul_prod = counted(lambda: a * b)
            qr, mul_div = counted(lambda: divmod(a, b)) if not b.is_zero() else ((), 0)
            roots, mul_roots = counted(a.roots_nonzero)
            out("poly", [q, i], product=plain(prod), divmod=[plain(p) for p in qr],
                roots=sorted(roots), mul_product=mul_prod, mul_divmod=mul_div,
                mul_roots=mul_roots)


# ----- the comparison ---------------------------------------------------------------


def _short(value) -> str:
    text = json.dumps(value)
    return text if len(text) <= 120 else text[:117] + "..."


def _records(lines: list[str]) -> dict:
    records = {}
    for line in lines:
        rec = json.loads(line)
        records[json.dumps([rec.pop("kind"), rec.pop("key")])] = rec
    return records


def _compare(ref: dict, new: dict) -> tuple[int, dict]:
    """Print every difference; return the number of outcome differences
    and, per kind, [records, products at REF, products here, count fields
    that rose, count fields that fell, the largest rise, where it is].  A
    list of per-row counts rose when any row rose, by its largest row's
    rise; the totals leave it out, as its call's count holds it."""
    outcome_diffs = 0
    totals: dict[str, list] = {}
    for key in sorted(ref.keys() | new.keys()):
        if key not in ref or key not in new:
            outcome_diffs += 1
            print(f"DIFF {key}: only in {'this tree' if key in new else 'REF'}")
            continue
        old, cur = ref[key], new[key]
        kind = json.loads(key)[0]
        tally = totals.setdefault(kind, [0, 0, 0, 0, 0, 0, ""])
        tally[0] += 1
        for name in sorted(old.keys() | cur.keys()):
            a, b = old.get(name), cur.get(name)
            if name.startswith("mul"):
                if not isinstance(a, list):  # per-row counts are in their call's
                    tally[1] += a or 0
                    tally[2] += b or 0
                if a != b:
                    rise = (max((y - x for x, y in zip(a, b)), default=0) if isinstance(a, list)
                            else (b or 0) - (a or 0))
                    rose = rise > 0
                    tally[3 if rose else 4] += 1
                    if rise > tally[5]:
                        tally[5:] = rise, f"{key} {name}"
                    print(f"{'ROSE' if rose else 'FELL'} {key} {name}: {_short(a)} -> {_short(b)}")
            elif a != b:
                outcome_diffs += 1
                print(f"DIFF {key} {name}: {_short(a)} != {_short(b)}")
    return outcome_diffs, totals


def _run_children(trees: list[Path], out_dir: Path) -> list[list[str]]:
    """Run the corpus on each tree at once, each child printing into its
    own file; a child's errors go to this process's stderr."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    paths = [out_dir / f"records-{i}.jsonl" for i in range(len(trees))]
    procs = []
    for tree, path in zip(trees, paths):
        with path.open("w") as sink:
            procs.append(subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), "--emit", str(tree)],
                stdout=sink, env=env, cwd=tree))
    failed = [(tree, proc.wait()) for tree, proc in zip(trees, procs)]
    for tree, status in failed:
        if status:
            print(f"the corpus failed on {tree} (exit {status})", file=sys.stderr)
    if any(status for _, status in failed):
        raise SystemExit(2)
    return [path.read_text().splitlines() for path in paths]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--against", metavar="REF", help="the git ref to compare with")
    group.add_argument("--emit", metavar="TREE", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit:
        _emit(args.emit)
        return 0
    start = time.perf_counter()
    git = ["git", "-C", str(ROOT)]
    try:
        sha = subprocess.run(git + ["rev-parse", "--verify", "--short", args.against],
                             capture_output=True, text=True, check=True).stdout.strip()
        archive = subprocess.run(git + ["archive", "--format=tar", sha],
                                 capture_output=True, check=True).stdout
    except subprocess.CalledProcessError as exc:
        sys.stderr.write(exc.stderr if isinstance(exc.stderr, str) else exc.stderr.decode())
        return 2
    with tempfile.TemporaryDirectory(prefix="rscodec-ref-") as tmp:
        ref_tree = Path(tmp) / "ref"
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
            tar.extractall(ref_tree, **safe)
        ref_lines, new_lines = _run_children([ref_tree, ROOT], Path(tmp))
    ref, new = _records(ref_lines), _records(new_lines)
    print(f"this tree against {args.against} ({sha}): {len(new)} records")
    outcome_diffs, totals = _compare(ref, new)
    for kind, (records, old, cur, rose, fell, top, where) in sorted(totals.items()):
        print(f"{kind}: {records} records, products {old} -> {cur}, {rose} rose, {fell} fell"
              + (f", largest rise +{top} at {where}" if rose else ""))
    print(f"outcome differences: {outcome_diffs} ({time.perf_counter() - start:.1f} s)")
    return 1 if outcome_diffs else 0


if __name__ == "__main__":
    sys.exit(main())

"""Acceptance laws for every registered decoder, too slow for tier-1.

Without arguments: the whole-space law on GF(7).  Every word of GF(7)^6
is decoded; all decoders must accept the same words with the same
codewords, and the number accepted must equal the ball volume
q^k * sum_(i <= tau) C(n, i) (q-1)^i, so no word past the radius is
accepted and none within it is missed.  Each space takes minutes; the
tier-1 suite runs the GF(5) spaces and GF(4) k = 1
(`test_whole_space_ball_volume`).

With `--classes`: the class law on GF(8) k = 1 (tau = 3).  One word per
syndrome class (8^6 classes) is decoded through `decode_blocks`; all
decoders must accept the same classes with the same error, and exactly
sum_(i <= tau) C(n, i) (q-1)^i of them, one per error pattern of weight
<= tau (`tests.util.class_law_accepted`).  It takes minutes; the tier-1
suite runs GF(8) k = 3 (`test_class_law_binary_tau_two`).

Run from the repository root:

    PYTHONPATH=src python -m scripts.whole_space [--classes]
"""

from __future__ import annotations

import argparse
import random
import time

from tests.util import ball_volume, class_law_accepted, get_code, whole_space_accepted

CASES = ((7, 2, {"alpha": 5}), (7, 4, {}))
CLASS_CASES = ((8, 1, {}),)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--classes", action="store_true",
                        help="run the class law on GF(8) k = 1 instead")
    classes = parser.parse_args().classes
    for q, k, kw in CLASS_CASES if classes else CASES:
        code = get_code(q, k, **kw)
        start = time.perf_counter()
        if classes:
            accepted = class_law_accepted(code, random.Random(q))
            space, want = f"{q ** (code.n - k)} classes", ball_volume(code) // q ** k
        else:
            accepted = whole_space_accepted(code)
            space, want = f"{q ** code.n} words", ball_volume(code)
        seconds = time.perf_counter() - start
        print(f"{code}: {accepted} of {space} accepted, want {want}, {seconds:.1f} s",
              flush=True)
        if accepted != want:
            raise SystemExit(f"{code}: {accepted} accepted, want {want}")


if __name__ == "__main__":
    main()

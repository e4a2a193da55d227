"""Whole-space law on GF(7): decode every word of GF(7)^6 with every
registered decoder.

All decoders must accept the same words with the same codewords, and the
number accepted must equal the ball volume q^k * sum_(i <= tau) C(n, i)
(q-1)^i, so no word past the radius is accepted and none within it is
missed.  Each space takes minutes, too slow for the tier-1 suite, which
runs the GF(5) spaces and GF(4) k = 1 (`test_whole_space_ball_volume`).

Run from the repository root:

    PYTHONPATH=src python -m scripts.whole_space
"""

from __future__ import annotations

import time

from tests.util import ball_volume, get_code, whole_space_accepted

CASES = ((7, 2, {"alpha": 5}), (7, 4, {}))


def main() -> None:
    for q, k, kw in CASES:
        code = get_code(q, k, **kw)
        start = time.perf_counter()
        accepted = whole_space_accepted(code)
        seconds = time.perf_counter() - start
        want = ball_volume(code)
        print(f"{code}: {accepted} of {q ** code.n} words accepted, ball volume {want}, "
              f"{seconds:.1f} s", flush=True)
        if accepted != want:
            raise SystemExit(f"{code}: {accepted} words accepted, ball volume {want}")


if __name__ == "__main__":
    main()

"""Words on the decoding boundary, after MacWilliams and Sloane (ch. 10-11).

A codeword c of the minimum weight d = n - k + 1 is added to a codeword b
on tau + 1 positions of its support.  The word is then tau + 1 from b and
n - k - tau from b + c: for even n - k every decoder must return b + c,
and for odd n - k no codeword is within tau, so every decoder must fail.
The mirror word, c added on tau positions, decodes to b.  The words are
the differential corpus's (`scripts/differential.py`).
"""

import numpy as np
import pytest

from rscodec import DECODERS, DecodeFailure, DecodeTrace
from rscodec.decode_interp import decode_blocks
from scripts.differential import BOUNDARY, boundary_words

from .util import get_code


def _low(code, message, b, w):
    """low(w), the first k coefficients of w's interpolation polynomial,
    as low(b) = message plus the Lagrange basis terms of the error w - b:
    coefficient i of the basis polynomial of position j is -alpha^(-ij)."""
    f, n = code.field, code.n
    low = np.array(message, dtype=np.int64)
    exponents = np.arange(code.k)
    for j in np.flatnonzero(np.array(w) != np.array(b)):
        powers = np.array(f.exp)[(-exponents * int(j)) % n]
        low = f.sub_arr(low, f.mul_arr(powers, np.full(code.k, f.sub(w[j], b[j]))))
    return low.tolist()


@pytest.mark.parametrize("q, k, kw, decoders", BOUNDARY,
                         ids=[f"q{q}-k{k}" for q, k, _, _ in BOUNDARY])
def test_boundary_words(q, k, kw, decoders):
    code = get_code(q, k, **kw)
    f = code.field
    message, b, c, w, mirror = boundary_words(code)
    assert sum(1 for x in c if x) == code.d
    assert not any(code.syndromes(c))
    b_plus_c = tuple(f.add(x, y) for x, y in zip(b, c))
    unique = (code.n - code.k) % 2 == 0
    for name in decoders or DECODERS:
        decoder = DECODERS[name]
        if unique:
            out = decoder(code, w)
            assert out.codeword == b_plus_c and out.error_count == code.tau, name
        else:
            with pytest.raises(DecodeFailure) as info:
                decoder(code, w)
            assert isinstance(info.value.trace, DecodeTrace), name
        assert decoder(code, mirror).codeword == tuple(b), name
    if decoders:  # the large fields: a message read or a block decode is a transform
        return

    # w's message: b + c's when it decodes, else the best-effort low(w)
    low_w = _low(code, message, b, b_plus_c if unique else w)
    for name, decoder in DECODERS.items():
        if unique:
            assert list(decoder(code, w).message) == low_w, name
        assert list(decoder(code, mirror).message) == message, name
        messages, results, _ = decode_blocks(code, np.array([w, mirror]), name)
        if unique:
            assert results[0].codeword == b_plus_c, name
        else:
            assert isinstance(results[0], DecodeFailure), name
            assert isinstance(results[0].trace, DecodeTrace), name
        assert messages[0].tolist() == low_w, name
        assert results[1].codeword == tuple(b) and messages[1].tolist() == message, name

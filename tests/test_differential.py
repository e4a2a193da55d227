"""Differential tests on binary fields with non-default reductions.

Every registered decoder must accept the same words, at and beyond the
correction radius, with the same codeword (the one sent when t <= tau);
every rejection is a typed DecodeFailure, and a one-word decode equals
the same row decoded through `decode_blocks`.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rscodec import DECODERS, DecodeFailure, DecodeTrace
from rscodec.decode_interp import decode_blocks

from .util import get_code

CODES = [
    (16, 9, {"reduction": 0x19, "alpha": 6}),
    (32, 21, {"reduction": 0x3D}),  # n = 31 is prime: no transform plan, the direct sum
    (64, 49, {"reduction": 0x61}),
    (256, 223, {"reduction": 0x11B, "alpha": 3}),
]


@st.composite
def noisy_words(draw, code):
    q, n = code.field.q, code.n
    message = draw(st.lists(st.integers(0, q - 1), min_size=code.k, max_size=code.k))
    weight = draw(st.integers(0, code.tau + 2))
    positions = draw(st.lists(st.integers(0, n - 1), min_size=weight, max_size=weight,
                              unique=True))
    values = draw(st.lists(st.integers(1, q - 1), min_size=weight, max_size=weight))
    cw = code.encode(message)
    word = list(cw)
    for pos, v in zip(positions, values):
        word[pos] = code.field.add(word[pos], v)
    return cw, weight, word


@pytest.mark.parametrize("q, k, kw", CODES)
def test_decoders_agree_on_binary_fields(q, k, kw):
    code = get_code(q, k, **kw)

    @settings(deadline=None, derandomize=True, max_examples=30)
    @given(noisy_words(code))
    def check(case):
        cw, weight, word = case
        block = np.array([word], dtype=np.int64)
        accepted = set()
        for name, fn in DECODERS.items():
            messages, (row,), _ = decode_blocks(code, block, name)
            try:
                out = fn(code, word)
            except DecodeFailure as exc:
                assert isinstance(exc.trace, DecodeTrace), name
                assert type(row) is type(exc)
                assert (str(row), row.trace) == (str(exc), exc.trace)
                accepted.add(None)
            else:
                assert row == out, name
                assert out.message == row.message == tuple(messages[0].tolist())
                accepted.add(out.codeword)
        assert len(accepted) == 1
        if weight <= code.tau:
            assert accepted == {cw}

    check()

"""Decoders on one field from several threads at once."""

import random
import sys
import threading

from rscodec import Field, RSCode, decode, pgz_decode

from .util import corrupt


def _outcomes(code, words):
    # Everything an outcome reports except multiplication counts, which the
    # module-global counter mixes between threads.
    out = []
    for word in words:
        for decoder in (decode, pgz_decode):
            o = decoder(code, word)
            out.append((o.codeword, o.error, o.error_count, o.locator, o.trace, o.message))
    return out


def test_two_threads_share_a_fresh_field():
    # Both threads start on a barrier with the field's lazily built tables
    # still unbuilt, so both may build them; each must decode exactly as
    # one thread alone does.
    ref = RSCode(Field(256), 223)
    rng = random.Random(21)
    words = []
    for i in range(50):
        cw = ref.encode([rng.randrange(256) for _ in range(223)])
        words.append(corrupt(rng, ref, cw, i % (ref.tau + 1)))
    want = _outcomes(ref, words)

    code = RSCode(Field(256), 223)
    assert code.field._powers is None and code.field._plan is None
    barrier = threading.Barrier(2, timeout=60)
    got, errors = {}, []

    def work(name):
        try:
            barrier.wait()
            got[name] = _outcomes(code, words)
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(name,)) for name in "ab"]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch often, inside the table builds too
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert not errors
    assert got["a"] == want and got["b"] == want

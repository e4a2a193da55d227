"""Decoders on one field from several threads at once."""

import asyncio
import random
import sys
import threading

from rscodec import Field, MulOpCounter, RSCode, bm_decode, decode, pgz_decode

from .util import corrupt


def _words(code, seed, weight):
    rng = random.Random(seed)
    words = []
    for i in range(50):
        cw = code.encode([rng.randrange(code.field.q) for _ in range(code.k)])
        words.append(corrupt(rng, code, cw, weight(i)))
    return words


def _outcomes(code, words):
    # Everything an outcome reports, and the products each decode counts,
    # the message read included.
    out = []
    for word in words:
        for decoder in (decode, pgz_decode):
            with MulOpCounter() as ops:
                o = decoder(code, word)
                message = o.message
            out.append((o.codeword, o.error, o.error_count, o.locator, o.trace, message,
                        ops.count))
    return out


def _in_two_threads(work):
    """work() in threads "a" and "b" started on one barrier; their results."""
    barrier = threading.Barrier(2, timeout=60)
    got, errors = {}, []

    def run(name):
        try:
            barrier.wait()
            got[name] = work()
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(name,)) for name in "ab"]
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
    return got


def test_two_threads_share_a_fresh_field():
    # Both threads start with the field's lazily built tables still unbuilt,
    # so both may build them; each must decode, and count its products,
    # exactly as one thread alone does.
    ref = RSCode(Field(256), 223)
    words = _words(ref, 21, lambda i: i % (ref.tau + 1))
    want = _outcomes(ref, words)

    code = RSCode(Field(256), 223)
    assert code.field._powers is None and code.field._plan is None
    got = _in_two_threads(lambda: _outcomes(code, words))
    assert got["a"] == want and got["b"] == want


def test_two_threads_race_the_first_direct_sum():
    # Both threads make the first evaluations of a fresh field at once, so
    # both may build its power table; each must get the direct sums one
    # thread alone gets, dense and sparse rows, and count exactly its own
    # count x (nonzero coefficients) products.
    rng = random.Random(3)
    for q in (256, 359):
        rows = [[rng.randrange(q) if i % 4 or j % 16 == 0 else 0 for j in range(q - 1)]
                for i in range(20)]

        def work(f):
            with MulOpCounter() as ops:
                values = [f.eval_at_powers(row, first=1, count=32).tolist() for row in rows]
            return values, ops.count

        want = work(Field(q))
        assert want[1] == 32 * sum(1 for row in rows for c in row if c)
        field = Field(q)
        assert field._powers is None
        assert _in_two_threads(lambda: work(field)) == {"a": want, "b": want}


def test_two_threads_count_only_their_own_products():
    # 50 `bm` decodes at t = 8 inside one MulOpCounter per thread.  With one
    # module-wide count, each of two threads read 0.9 to 1.1 million products
    # for the 552 530 that one thread alone counts.
    code = RSCode(Field(256), 223)
    words = _words(code, 8, lambda i: 8)

    def work():
        with MulOpCounter() as ops:
            for word in words:
                bm_decode(code, word)
        return ops.count

    want = work()
    assert _in_two_threads(work) == {"a": want, "b": want}


def test_asyncio_tasks_count_in_their_thread():
    # A task runs in a copy of its thread's context, taken after the
    # thread's count exists, so its products land in that count.
    f = Field(7)

    async def work():
        for _ in range(5):
            f.mul(3, 4)

    def run():
        with MulOpCounter() as ops:
            asyncio.run(work())
        return ops.count

    assert run() == 5
    assert _in_two_threads(run) == {"a": 5, "b": 5}

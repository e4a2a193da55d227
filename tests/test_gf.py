"""Field construction, scalar arithmetic, tables, and bulk kernels."""

import functools
import random
import re
import time

import numpy as np
import pytest

from rscodec import Field
from rscodec import gf
from rscodec.cli import EXIT_USAGE, main
from rscodec.decode_interp import decode_blocks

from .util import get_code, get_field, slow_gf2m_mul

SMALL_Q = (3, 4, 5, 7, 8)
GF16_0X19 = {"reduction": 0x19, "alpha": 6}  # a non-default binary field
ALL_SUPPORTED_LE_256 = sorted(
    [q for q in range(3, 257) if gf._is_prime(q)]
    + [4, 8, 16, 32, 64, 128, 256])


# ----- construction and validation -------------------------------------------

def test_rejects_gf2():
    with pytest.raises(ValueError):
        Field(2)


@pytest.mark.parametrize("q", [0, 1, 6, 9, 10, 12, 100, 65522, 65537, 2 ** 17])
def test_rejects_unsupported_sizes(q):
    # 9 = 3^2 is a prime power but not prime or 2^m; 65537 is prime but
    # beyond the supported range; 2^17 exceeds the binary degree limit.
    with pytest.raises(ValueError):
        Field(q)


def test_accepts_extreme_supported_sizes():
    assert Field(3).q == 3
    assert Field(65521).q == 65521
    assert Field(2 ** 16).q == 65536


def test_default_reduction_gf256_is_0x11d():
    assert Field(256).reduction == 0x11D


@pytest.mark.parametrize("m", sorted(gf.DEFAULT_REDUCTIONS))
def test_default_reductions_are_irreducible(m):
    mask = gf.DEFAULT_REDUCTIONS[m]
    assert gf._gf2_is_irreducible(mask, m)
    # and degree exactly m with nonzero constant term
    assert mask.bit_length() - 1 == m and mask & 1


def test_rejects_reducible_reduction():
    # x^8 + 1 = (x + 1)^8 over GF(2)
    with pytest.raises(ValueError):
        Field(256, reduction=0x101)
    # x^4 + x = x (x^3 + 1): the search's first candidate, x, divides it
    assert not gf._gf2_is_irreducible(0x12, 4)
    with pytest.raises(ValueError, match="not an irreducible"):
        Field(16, reduction=0x12)


def test_primality_and_primitivity_helpers_reject_small_values():
    assert not gf._is_prime(0)
    assert not gf._is_prime(1)
    assert gf._is_prime(2) and gf._is_prime(65521)
    assert not Field(7)._is_primitive_slow(0)
    assert Field(7)._is_primitive_slow(3)


def test_huge_prime_size_rejected_before_trial_division(tmp_path, capsys):
    # 2^61 - 1 is prime: trial division up to its square root would take
    # minutes, so the size bound must be checked first.
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds"):
        Field(2 ** 61 - 1)
    assert time.perf_counter() - start < 0.1
    payload = tmp_path / "p"
    payload.write_text("")
    assert main(["encode", "--q", str(2 ** 61 - 1), "--k", "3",
                 str(payload), str(tmp_path / "s")]) == EXIT_USAGE
    assert "exceeds" in capsys.readouterr().err
    # `_is_prime` against a sieve, at the small end and around PRIME_MAX
    limit = 65541
    sieve = bytearray([0, 0]) + bytearray([1]) * (limit - 2)
    for p in range(2, int(limit ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(range(p * p, limit, p)))
    for x in [*range(5001), *range(65500, limit)]:
        assert gf._is_prime(x) == bool(sieve[x]), x


def test_field_repr():
    assert repr(Field(7)) == "Field(7, alpha=3)"
    assert repr(Field(256)) == "Field(2**8, reduction=0x11d, alpha=2)"
    assert repr(Field(16, reduction=0x19, alpha=6)) == "Field(2**4, reduction=0x19, alpha=6)"


def test_rejects_wrong_degree_reduction():
    with pytest.raises(ValueError):
        Field(256, reduction=0x13)


def test_rejects_reduction_for_prime_field():
    with pytest.raises(ValueError):
        Field(7, reduction=0x11D)


def test_rejects_non_primitive_alpha():
    # 2 has order 3 in F_7; 6 has order 2.
    with pytest.raises(ValueError):
        Field(7, alpha=2)
    with pytest.raises(ValueError):
        Field(7, alpha=6)
    with pytest.raises(ValueError):
        Field(7, alpha=0)
    with pytest.raises(ValueError):
        Field(7, alpha=7)


# ----- F_7 fixtures -----------------------------------------------------------

def test_f7_scalar_fixtures(f7):
    assert f7.add(4, 5) == 2
    assert f7.sub(1, 2) == 6
    assert f7.mul(3, 5) == 1
    assert f7.mul(5, 5) == 4
    assert f7.pow(5, 3) == 6
    assert f7.pow(5, 6) == 1
    assert f7.neg(3) == 4


def test_f7_powers_of_alpha(f7):
    assert f7.exp == [1, 5, 4, 6, 2, 3]
    assert f7.pow(5, 0) == 1


def test_f7_inverses_against_exhaustive_search(f7):
    for a in range(1, 7):
        expected = next(b for b in range(1, 7) if a * b % 7 == 1)
        assert f7.inv(a) == expected
        assert f7.mul(a, f7.inv(a)) == 1
    assert f7.inv(5) == 3
    assert f7.inv(2) == 4


def test_f7_log_table(f7):
    # log[a] is the i in [0, q-2] with alpha^i == a (alpha = 5); 0 has the
    # sentinel -1
    assert [f7.log[a] for a in (1, 5, 2, 3)] == [0, 1, 4, 5]
    assert f7.log[0] == -1
    assert all(f7.exp[f7.log[a]] == a for a in range(1, 7))


def test_zero_division_contracts(f7):
    with pytest.raises(ZeroDivisionError):
        f7.inv(0)
    with pytest.raises(ZeroDivisionError):
        f7.div(3, 0)
    with pytest.raises(ZeroDivisionError):
        f7.pow(0, -1)
    assert f7.div(0, 3) == 0
    assert f7.pow(0, 0) == 1
    assert f7.pow(0, 5) == 0


def test_pow_negative_exponents(f7):
    assert f7.pow(5, -1) == f7.inv(5)
    assert f7.pow(5, -3) == f7.inv(f7.pow(5, 3))


# ----- primitive elements ------------------------------------------------------

def test_find_primitive_f7_is_3():
    assert Field(7).alpha == 3


@pytest.mark.parametrize("q", [5, 11, 13, 16, 17, 64, 256])
def test_smallest_primitive_is_smallest(q):
    f = get_field(q)
    alpha = f.alpha
    # definition check: powers 0..q-2 of alpha are pairwise distinct
    powers = {f.pow(alpha, i) for i in range(q - 1)}
    assert len(powers) == q - 1
    # nothing smaller generates the group
    for x in range(2, alpha):
        seen = set()
        acc = 1
        for _ in range(q - 1):
            acc = f.mul(acc, x)
            seen.add(acc)
        assert len(seen) < q - 1, f"{x} also generates GF({q})*"


# ----- axioms -------------------------------------------------------------------

@pytest.mark.parametrize("q", SMALL_Q)
def test_field_axioms_exhaustive(q):
    f = get_field(q)
    elems = range(q)
    for a in elems:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
        for b in elems:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.sub(a, b) == f.add(a, f.neg(b))
            for c in elems:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", [13, 251, 256, 65521, 65536])
def test_field_axioms_random_triples(q):
    f = get_field(q)
    rng = random.Random(0xA0 + q)
    for _ in range(10_000):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.mul(a, b) == f.mul(b, a)
        if a:
            assert f.mul(a, f.inv(a)) == 1
            assert f.div(b, a) == f.mul(b, f.inv(a))


@pytest.mark.parametrize("q", ALL_SUPPORTED_LE_256)
def test_fermat_exhaustive_up_to_256(q):
    f = get_field(q)
    for x in range(1, q):
        assert f.pow(x, q - 1) == 1


@pytest.mark.parametrize("q", [7, 17, 256, 4096, 65521, 65536])
def test_tables_are_inverse_bijections(q):
    f = get_field(q)
    assert len(f.exp) == q - 1
    assert sorted(f.exp) == list(range(1, q))
    for x in range(1, q):
        assert f.exp[f.log[x]] == x


@pytest.mark.parametrize("q, kw", [
    (7, {}), (7, {"alpha": 5}), (16, GF16_0X19), (256, {}), (4096, {"alpha": 2}),
    (4096, {"alpha": 3}), (65521, {}), (65536, {"alpha": 2}), (65536, {"alpha": 3})])
def test_tables_match_scalar_walk(q, kw):
    # The tables, built by doubling with array products, against the walk
    # 1, alpha, alpha^2, ... by the scalar table-free product.
    f = get_field(q, **kw)
    exp, acc = [], 1
    for _ in range(q - 1):
        exp.append(acc)
        acc = f._mul_slow(acc, f.alpha)
    assert acc == 1 and f.exp == exp
    log = [-1] * q
    for i, x in enumerate(exp):
        log[x] = i
    assert f.log == log
    assert f._log_np[1:].tolist() == log[1:] and f._log_np[0] == 2 * (q - 1)


def test_gf256_exhaustive_inverse_roundtrip():
    f = get_field(256)
    for x in range(1, 256):
        assert f.mul(x, f.inv(x)) == 1


def test_gf256_mul_matches_carry_free_oracle():
    f = get_field(256)
    rng = random.Random(7)
    for _ in range(5000):
        a, b = rng.randrange(256), rng.randrange(256)
        assert f.mul(a, b) == slow_gf2m_mul(a, b, 0x11D, 8)


def test_gf16_full_mul_table_matches_oracle():
    f = get_field(16)
    for a in range(16):
        for b in range(16):
            assert f.mul(a, b) == slow_gf2m_mul(a, b, f.reduction, 4)


# ----- bulk kernels -------------------------------------------------------------

@pytest.mark.parametrize("q", [7, 17, 16, 256, 65521, 65536])
def test_array_kernels_match_scalar_ops(q):
    f = get_field(q, **GF16_0X19 if q == 16 else {})
    rng = random.Random(q)
    x = np.array([rng.randrange(q) for _ in range(64)], dtype=np.int64)
    y = np.array([rng.randrange(q) for _ in range(64)], dtype=np.int64)
    x[:4] = 0  # forced zeros: 0 * 0, 0 * y and x * 0
    y[2:6] = 0
    s = rng.randrange(1, q)
    assert f.add_arr(x, y).tolist() == [f.add(a, b) for a, b in zip(x, y)]
    assert f.sub_arr(x, y).tolist() == [f.sub(a, b) for a, b in zip(x, y)]
    assert f.neg_arr(x).tolist() == [f.neg(a) for a in x]
    assert f.mul_arr(x, y).tolist() == [f.mul(a, b) for a, b in zip(x, y)]
    assert f.mul_arr(x, s).tolist() == [f.mul(a, s) for a in x]
    assert f.mul_arr(x, 0).tolist() == [0] * 64
    assert f.mul_arr(0, x).tolist() == [0] * 64
    # broadcasting: a column against a row is the full product table
    u, v = x[:9], y[:7]
    assert f.mul_arr(u[:, None], v).tolist() == [[f.mul(a, b) for b in v] for a in u]
    assert f.mul_arr(u[:, None], v[None, :]).shape == (9, 7)
    assert f.mul_arr(x[:0], y[:0]).shape == (0,)
    # the field sum along either axis, of int64 or uint16 elements, is int64
    grid = x.reshape(8, 8)
    for terms in (grid, grid.astype(np.uint16)):
        for axis in (0, -1):
            got = f.sum_arr(terms, axis=axis)
            assert got.dtype == np.int64
            lines = np.moveaxis(grid, axis, -1).tolist()
            want = [functools.reduce(f.add, line, 0) for line in lines]
            assert got.tolist() == want
    assert f.sum_arr(x[:0]) == 0


HORNER_FIELDS = [(7, {}), (13, {}), (256, {}), (16, GF16_0X19), (257, {}), (359, {})]


@pytest.mark.parametrize("q, kw", HORNER_FIELDS, ids=[str(q) for q, _ in HORNER_FIELDS])
def test_eval_at_powers_matches_horner(q, kw):
    # Random polynomials and the rows the decoders evaluate: a dense word
    # with one zero, a t-sparse error, a short t + 1 locator and the zero
    # word.  Windows wrap past alpha^(n-1), start at first >= n, and count
    # more than n points.  The direct sum counts count x nnz products.
    f = get_field(q, **kw)
    rng = random.Random(q * 3)
    n = q - 1
    t = max(1, n // 16)
    xs = np.array([f.pow(f.alpha, i) for i in range(n)])

    def horner(coeffs):
        acc = np.zeros(n, dtype=np.int64)
        for c in reversed(coeffs):
            acc = f.add_arr(f.mul_arr(acc, xs), c)
        return acc.tolist()

    dense = [rng.randrange(1, q) for _ in range(n)]
    dense[rng.randrange(n)] = 0
    sparse = [0] * n
    for j in rng.sample(range(n), t):
        sparse[j] = rng.randrange(1, q)
    rows = [dense, sparse, [rng.randrange(1, q) for _ in range(t + 1)], [0] * n]
    for _ in range(25):
        rows.append([rng.randrange(q) for _ in range(rng.randrange(n) + 1)])
    k = n - 2 * t
    windows = ((0, n), (1, n), (1, 3), (2, n), (0, 0), (n - k + 1, k), (n + 2, n - 1),
               (3 * n + 1, 5), (1, n + 3), (n + 1, 2 * n + 1))
    for coeffs in rows:
        orbit = horner(coeffs)
        nnz = sum(1 for c in coeffs if c)
        for first, count in windows:
            with gf.MulOpCounter() as ctr:
                got = f.eval_at_powers(coeffs, first=first, count=count)
            assert got.tolist() == [orbit[(first + i) % n] for i in range(count)]
            most = f.eval_products(count, nnz)
            assert ctr.count == most if most == count * nnz else ctr.count <= most


def test_eval_at_powers_large_field_fallback_path():
    # Large groups, where exponents (first + r) j + log c_j approach 2^32,
    # and a GF(4096) call of count x nnz > _EVAL_BLOCK, so the points are
    # taken in several row chunks, with first >= n and zero coefficients.
    from rscodec import Poly
    rng = random.Random(11)
    for q, size, first, count in ((65521, 30, 5, 40), (65536, 40, 70000, 40),
                                  (65536, 65535, 65532, 3), (4096, 4095, 5000, 100)):
        f = get_field(q)
        coeffs = [rng.randrange(q) if rng.random() < 0.9 else 0 for _ in range(size)]
        coeffs[-1] = rng.randrange(1, q)
        if q == 4096:
            assert count * sum(1 for c in coeffs if c) > gf._EVAL_BLOCK
        p = Poly(f, coeffs)
        got = f.eval_at_powers(coeffs, first=first, count=count)
        want = [p(f.pow(f.alpha, (first + i) % (q - 1))) for i in range(count)]
        assert got.tolist() == want


@pytest.mark.parametrize("q", [359, 367, 4096, 65536])
def test_power_table_is_cached_below_the_size_bound(q):
    # The direct sum reads (i j) mod n off one read-only int64 table of
    # 2n x n entries, built on a field's first evaluation only while
    # 2n^2 <= _EVAL_BLOCK: GF(359) builds it, GF(367) and the larger fields
    # never do.
    from rscodec import Poly
    f = Field(q)  # not the shared one: the table must start unbuilt
    n = q - 1
    coeffs = [3, 0, 1, 2]
    want = [Poly(f, coeffs)(f.pow(f.alpha, i % n)) for i in range(1, 6)]
    assert f.eval_at_powers(coeffs, first=1, count=5).tolist() == want
    table = f._power_table()
    assert (table is not None) == (q == 359) == (2 * n * n <= gf._EVAL_BLOCK)
    if table is None:
        return
    assert table.shape == (2 * n, n) and table.dtype == np.int64
    assert np.array_equal(table, np.multiply.outer(np.arange(2 * n), np.arange(n)) % n)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[1, 1] = 0
    f.eval_at_powers(coeffs, first=n + 2, count=n)
    assert f._power_table() is table


# Fields whose group order n = q - 1 splits into coprime factors, so
# `eval_at_powers` has the prime-factor transform as its second path.
TRANSFORM_FIELDS = [(16, GF16_0X19), (64, {}), (256, {}), (4096, {}), (65521, {}), (65536, {})]


@pytest.mark.parametrize("q, kw", TRANSFORM_FIELDS, ids=[str(q) for q, _ in TRANSFORM_FIELDS])
def test_transform_matches_direct_sum(q, kw):
    f = get_field(q, **kw)
    n = q - 1
    plan = f._transform_plan()
    assert plan and plan.cost == n * sum(size for size, _ in plan.axes)
    rng = np.random.default_rng(q)
    # On the largest fields the direct sum of a whole orbit is too slow, so
    # both paths are compared on a slice of the points.
    full = min(n, 100)

    for width, first, count in ((n, 0, full), (n, n + 3, full), (n // 2, 1, 3), (7, n - 1, full),
                                (1, 3 * n + 2, full), (n, n, full), (n, 5, 0)):
        rows = rng.integers(0, q, size=(3, width))
        rows[0] = 0  # zero polynomial
        rows[1, rng.random(width) < 0.8] = 0  # sparse
        got = f._eval_transform(plan, rows, first, count)
        assert got.shape == (3, count)
        for row, values in zip(rows, got):
            assert values.tolist() == f._eval_direct(row, first, count).tolist()
    # A batch evaluates its rows independently, whichever path it takes.
    rows = rng.integers(0, q, size=(4, n))
    rows[2] = 0
    batch = f.eval_at_powers(rows, first=2, count=full)
    assert batch.shape == (4, full)
    for row, values in zip(rows, batch):
        assert values.tolist() == f.eval_at_powers(row, first=2, count=full).tolist()
    assert f.eval_at_powers(rows[:0], first=2, count=full).shape == (0, full)


@pytest.mark.parametrize("q, kw", [(16, GF16_0X19), (31, {}), (211, {}), (256, {})],
                         ids=["16", "31", "211", "256"])
def test_transform_axis_passes_on_batches(q, kw):
    # An axis pass reduces blocks of gathered terms for few outputs and
    # adds one gather per term in place for many; batches of 1 to 150 rows
    # take both, on binary and prime fields, and match the direct sum.
    f = get_field(q, **kw)
    n = q - 1
    plan = f._transform_plan()
    rng = np.random.default_rng(q + 1)
    taken = set()
    for rows, width, first in ((1, n, 1), (5, n - 3, 0), (150, n, n + 2), (17, 4, 3)):
        c = rng.integers(0, q, size=(rows, width))
        c[rows // 2, rng.random(width) < 0.7] = 0
        taken.add(rows * n <= gf._GATHER_OUTPUTS)
        got = f._eval_transform(plan, c, first, n)
        for row, values in zip(c, got):
            assert values.tolist() == f._eval_direct(row, first, n).tolist()
    assert taken == {True, False}


def test_transform_counts_products_it_forms():
    f = get_field(256)
    plan = f._transform_plan()
    sizes = [size for size, _ in plan.axes]
    assert sizes == [17, 5, 3]
    # One nonzero coefficient: the first pass forms 17 products, each of
    # them nonzero, the second 17 x 5 and the third 17 x 5 x 3; a window
    # from a nonzero `first` is read off the orbit and costs nothing.
    # Zeros form none.
    one = np.zeros((1, 200), dtype=np.int64)
    one[0, 57] = 9
    for first, want in ((0, 17 + 85 + 255), (4, 17 + 85 + 255)):
        with gf.MulOpCounter() as ctr:
            f._eval_transform(plan, one, first, 255)
        assert ctr.count == want
    with gf.MulOpCounter() as ctr:
        f._eval_transform(plan, one * 0, 4, 255)
    assert ctr.count == 0
    # Through `eval_at_powers`, the transform never counts more than the
    # count x nnz products of the direct sum it replaces.
    rng = np.random.default_rng(3)
    for count, width, first in ((255, 223, 0), (223, 255, 33), (200, 100, 1), (255, 255, 1)):
        rows = rng.integers(0, 256, size=(2, width))
        with gf.MulOpCounter() as ctr:
            f.eval_at_powers(rows, first=first, count=count)
        nnz = np.count_nonzero(rows)
        assert ctr.count <= min(count * nnz, 2 * (plan.cost + width))


def test_evaluation_path_rule():
    code = get_code(256, 223)
    rng = random.Random(4)
    msg = [rng.randrange(256) for _ in range(223)]
    # An encode (255 points of 223 coefficients) takes the transform...
    # `eval_products` states the rule: the most products a call forms.
    with gf.MulOpCounter() as ctr:
        cw = code.encode(msg)
    assert ctr.count <= code.field.eval_products(255, 223) == 255 * 25
    # ...the 32 syndromes of a dense word keep the direct sum.
    word = list(cw)
    word[0] ^= 1
    word[1] = 0
    with gf.MulOpCounter() as ctr:
        code.syndromes(word)
    nnz = sum(1 for c in word if c)
    assert ctr.count == 32 * nnz == code.field.eval_products(32, nnz)
    # Fields whose group order is a prime power have no transform: every
    # evaluation is the direct sum, counting count x nnz.
    for q in (8, 17, 257, 8192):
        f = get_field(q)
        assert f._transform_plan() is None
        coeffs = [rng.randrange(1, q) for _ in range(min(q - 1, 600))]
        with gf.MulOpCounter() as ctr:
            f.eval_at_powers(coeffs, first=1)
        assert ctr.count == (q - 1) * len(coeffs) == f.eval_products(q - 1, len(coeffs))


def test_transform_memory_is_bounded():
    import tracemalloc
    f = get_field(65536)
    f._transform_plan()
    coeffs = np.random.default_rng(1).integers(0, 65536, size=65535)
    tracemalloc.start()
    try:
        f.eval_at_powers(coeffs, first=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_eval_at_powers_rejects_overlong_coefficients(f7):
    with pytest.raises(ValueError):
        f7.eval_at_powers([1] * 7, first=0, count=6)


def test_eval_at_powers_checks_all_but_int64_arrays(f7):
    # Anything but an int64 array goes through `Field.asarray`: nothing
    # is wrapped, truncated or left to fail at a table lookup.
    f256 = get_field(256)
    for f, coeffs in ((f256, [-1]), (f256, [256]), (f256, np.array([300], dtype=np.int32)),
                      (f7, [7]), (f7, [1.5]), (f7, [1.0]), (f7, np.array([1.5])),
                      (f7, [[1, 2], [3, 7]])):
        with pytest.raises(ValueError, match=r"is not an element of GF"):
            f.eval_at_powers(coeffs, first=0, count=3)
    # a nested list is read as np.asarray reads it, a row per polynomial
    rows = [[1, 2, 3], [4, 0, 6]]
    want = f7.eval_at_powers(np.array(rows, dtype=np.int64), first=1, count=4)
    assert f7.eval_at_powers(rows, first=1, count=4).tolist() == want.tolist()
    assert f7.eval_at_powers((1, 2, 3), first=1, count=4).tolist() == want[0].tolist()
    assert f7.eval_at_powers(np.array([1, 2, 3], dtype=np.uint8),
                             first=1, count=4).tolist() == want[0].tolist()


def test_eval_at_powers_takes_one_or_two_dimensions(f7):
    # A 1-D array is one polynomial and a 2-D array a row of polynomials;
    # a 0-D or 3-D array is neither.
    for coeffs in (np.int64(3), np.zeros((2, 2, 3), dtype=np.int64)):
        with pytest.raises(ValueError, match=r"1-D or 2-D array, not [03]-D"):
            f7.eval_at_powers(coeffs)


def test_asarray_validates_range(f7):
    with pytest.raises(ValueError):
        f7.asarray([0, 7])
    with pytest.raises(ValueError):
        f7.asarray([-1])
    # non-integers are rejected, never truncated
    for bad in ([3.7], [1, 2.0], (3.2, 1.0, 5, 4), np.array([1.0, 2.0]),
                np.array([0.5]), [2 ** 70], np.array([True, False])):
        with pytest.raises(ValueError):
            f7.asarray(bad)
    assert f7.asarray([]).size == 0
    assert f7.asarray(np.array([], dtype=float)).size == 0
    assert f7.asarray([True, 2, np.uint8(6)]).tolist() == [1, 2, 6]
    assert f7.asarray(np.array([6, 0], dtype=np.uint8)).tolist() == [6, 0]
    # one reduction over the values viewed as uint64 rejects every negative
    # or wrapped value, of any integer dtype, and takes strided views
    for bad in (np.array([3, -1], dtype=np.int8), np.array([-2 ** 63, 1]),
                np.array([2 ** 63 + 1], dtype=np.uint64), np.array([2 ** 64 - 1], dtype=np.uint64)):
        with pytest.raises(ValueError):
            f7.asarray(bad)
    assert f7.asarray(np.arange(20)[::3] % 7).tolist() == [0, 3, 6, 2, 5, 1, 4]
    assert f7.asarray(iter([1, 2])).dtype == np.int64
    # An array of two or more dimensions keeps its shape, and an error names
    # its first bad element, not a row.
    grid = np.array([[1, 2], [3, 4]], dtype=object)
    assert f7.asarray(grid).tolist() == [[1, 2], [3, 4]]
    assert f7.asarray(grid[None]).shape == (1, 2, 2)
    for bad, name in ((np.array([[1, 2], [3, 7]], dtype=object), "7"),
                      (np.array([[1, 9], [3, 7]], dtype=object), "9"),
                      (np.array([[1, 2], [3, -1]]), "-1"),
                      (np.array([[1.0, 2.0]]), r"(np\.float64\()?1\.0\)?")):
        with pytest.raises(ValueError, match=rf"^{name} is not an element of GF\(7\)$"):
            f7.asarray(bad)
    code = get_code(7, 2)
    assert code.encode_blocks(np.array([[1, 2]], dtype=object)).tolist() == [list(code.encode([1, 2]))]
    with pytest.raises(ValueError, match=r"^300 is not an element of GF\(7\)$"):
        decode_blocks(code, np.full((2, 6), 300, dtype=object), "bm")


class _Index:
    """An integer only through `__index__`."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __repr__(self):
        return f"_Index({self.value})"


# Scalars that `check` accepts (with their value) or rejects; `asarray`
# must agree with it element by element.
ELEMENT_CASES = [
    (6, 6), (True, 1), (False, 0), (np.uint8(3), 3), (np.int64(6), 6),
    (np.array(5), 5), (np.array(2, dtype=np.uint8), 2), (_Index(4), 4),
    (7, None), (-1, None), (2.0, None), (2.5, None), (2 ** 70, None),
    (np.float64(2.0), None), (np.True_, None), ("3", None), (None, None),
    (np.array([1], dtype=np.uint8), None), (np.array([1], dtype=np.int64), None),
    (np.array([1.0]), None), (np.array(2.0), None), (np.array(7), None),
    (np.uint64(2 ** 64 - 1), None), (_Index(-1), None), (_Index(2 ** 70), None),
]


def test_check_validates(f7):
    for value, want in ELEMENT_CASES:
        if want is None:
            with pytest.raises(ValueError):
                f7.check(value)
        else:
            got = f7.check(value)
            assert got == want and type(got) is int


def test_asarray_agrees_with_check(f7):
    for value, want in ELEMENT_CASES:
        for seq in ([value], (4, value), [value, 5, 0]):
            if want is None:
                with pytest.raises(ValueError, match=r"is not an element of GF\(7\)"):
                    f7.asarray(seq)
            else:
                assert f7.asarray(seq).tolist() == [f7.check(v) for v in seq]
        # the same value at (1, 0) of a 2 x 2 object array
        grid = np.full((2, 2), 4, dtype=object)
        grid[1, 0] = value
        if want is None:
            with pytest.raises(ValueError,
                               match=rf"^{re.escape(repr(value))} is not an element of GF\(7\)$"):
                f7.asarray(grid)
        else:
            assert f7.asarray(grid).tolist() == [[4, 4], [want, 4]]


# ----- multiplication counter ----------------------------------------------------

def test_mul_counter_scalar(f7):
    before = gf.mul_ops_total()
    f7.mul(3, 4)
    f7.inv(3)
    f7.div(4, 2)
    f7.pow(5, 4)
    assert gf.mul_ops_total() == before + 4
    # neither forms a product of two nonzero elements
    assert f7.div(0, 3) == 0 and f7.pow(5, 0) == 1 and f7.pow(0, 0) == 1
    assert gf.mul_ops_total() == before + 4


def test_mul_counter_context_and_kernels(f7):
    with gf.MulOpCounter() as ctr:
        f7.mul_arr(np.arange(6, dtype=np.int64), np.arange(6, dtype=np.int64))
    assert ctr.count == 5  # 0 * 0 is not a product of two nonzero elements
    with gf.MulOpCounter() as ctr:
        f7.eval_at_powers([1, 2, 3], first=0, count=6)
    assert ctr.count == 6 * 3
    # one count per product formed: count x (nonzero coefficients), on every field
    for f, coeffs, count in ((f7, [0, 2, 0, 0, 5], 6), (get_field(256), [0] * 9 + [7], 200),
                             (get_field(65521), [3, 0, 0, 65520, 0, 1], 50)):
        with gf.MulOpCounter() as ctr:
            f.eval_at_powers(coeffs, first=2, count=count)
        assert ctr.count == count * sum(1 for c in coeffs if c)
    # a product counts nonzero pairs
    from rscodec import FeMat, Poly
    for f in (f7, get_field(16), get_field(257)):
        a = Poly(f, [1, 0, 0, 2, 0, 3])
        b = Poly(f, [0, 4, 0, 0, 0, 0, 0, 0, 5] * 5)
        for x, y in ((a, b), (b, a)):
            with gf.MulOpCounter() as ctr:
                x * y
            assert ctr.count == 3 * 10
    # every other product kernel, and the scalar mul, on prime and binary
    # fields: one per product of two nonzero elements, a zero factor is free
    rng = random.Random(5)
    for f in (f7, get_field(257), get_field(16, **GF16_0X19), get_field(256)):

        def sparse(size):
            return [rng.randrange(1, f.q) if rng.random() < 0.6 else 0 for _ in range(size)]

        for a, b in ((0, 0), (0, 3), (3, 0), (3, 4)):
            with gf.MulOpCounter() as ctr:
                f.mul(a, b)
            assert ctr.count == (a != 0 and b != 0)
        x, y = np.array(sparse(40)), np.array(sparse(40))
        with gf.MulOpCounter() as ctr:
            f.mul_arr(x[:, None], y)
        assert ctr.count == np.count_nonzero(x) * np.count_nonzero(y)
        a = [sparse(5) for _ in range(4)]
        b = [sparse(3) for _ in range(5)]
        with gf.MulOpCounter() as ctr:
            FeMat(f, a) @ FeMat(f, b)
        assert ctr.count == sum(1 for i in range(4) for j in range(5) for c in range(3)
                                if a[i][j] and b[j][c])
        p = Poly(f, sparse(12) + [1])
        for pt in (0, 1, 2):
            want, acc = 0, 0
            for c in reversed(p.coeffs):  # Horner: acc * pt is a product iff both are nonzero
                want += acc != 0 and pt != 0
                acc = f.add(f.mul(acc, pt), c)
            with gf.MulOpCounter() as ctr:
                assert p(pt) == acc
            assert ctr.count == want
        with gf.MulOpCounter() as ctr:
            p.scale(2)
        assert ctr.count == sum(1 for c in p.coeffs if c)


def test_field_equality_and_hash():
    assert get_field(7, alpha=5) == Field(7, alpha=5)
    assert get_field(7, alpha=5) != Field(7, alpha=3)
    assert hash(Field(7, alpha=5)) == hash(Field(7, alpha=5))

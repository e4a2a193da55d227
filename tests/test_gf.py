"""Field construction, scalar arithmetic, tables, and bulk kernels."""

import functools
import random

import numpy as np
import pytest

from rscodec import Field, find_primitive
from rscodec import gf

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


def test_f7_dlog(f7):
    assert f7.dlog(1) == 0
    assert f7.dlog(5) == 1
    assert f7.dlog(2) == 4
    assert f7.dlog(3) == 5
    with pytest.raises(ValueError):
        f7.dlog(0)


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
    assert find_primitive(7) == 3
    assert Field(7).alpha == 3


def test_is_primitive(f7):
    assert f7.is_primitive(5)
    assert f7.is_primitive(3)
    assert not f7.is_primitive(2)
    assert not f7.is_primitive(1)
    assert not f7.is_primitive(0)


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


@pytest.mark.parametrize("q", [7, 13, 256])
def test_eval_at_powers_matches_horner(q):
    from rscodec import Poly
    f = get_field(q)
    rng = random.Random(q * 3)
    n = q - 1
    for _ in range(25):
        deg = rng.randrange(n)
        coeffs = [rng.randrange(q) for _ in range(deg + 1)]
        p = Poly(f, coeffs)
        for first, count in ((0, n), (1, n), (1, 3), (2, n), (0, 0)):
            got = f.eval_at_powers(coeffs, first=first, count=count)
            want = [p(f.pow(f.alpha, (first + i) % n)) for i in range(count)]
            assert got.tolist() == want


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

    def direct(row, first, count):
        out = np.zeros(count, dtype=np.int64)
        f._eval_direct(row, first, out)
        return out

    for width, first, count in ((n, 0, full), (n, n + 3, full), (n // 2, 1, 3), (7, n - 1, full),
                                (1, 3 * n + 2, full), (n, n, full), (n, 5, 0)):
        rows = rng.integers(0, q, size=(3, width))
        rows[0] = 0  # zero polynomial
        rows[1, rng.random(width) < 0.8] = 0  # sparse
        got = f._eval_transform(plan, rows, first, count)
        assert got.shape == (3, count)
        for row, values in zip(rows, got):
            assert values.tolist() == direct(row, first, count).tolist()
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
            want = np.zeros(n, dtype=np.int64)
            f._eval_direct(row, first, want)
            assert values.tolist() == want.tolist()
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
    assert f7.asarray(iter([1, 2])).dtype == np.int64


# Scalars that `check` accepts (with their value) or rejects; `asarray`
# must agree with it element by element.
ELEMENT_CASES = [
    (6, 6), (True, 1), (False, 0), (np.uint8(3), 3), (np.int64(6), 6),
    (7, None), (-1, None), (2.0, None), (2.5, None), (2 ** 70, None),
    (np.float64(2.0), None), (np.True_, None), ("3", None), (None, None),
    (np.array([1], dtype=np.uint8), None), (np.array([1], dtype=np.int64), None),
    (np.array([1.0]), None),
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

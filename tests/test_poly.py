"""Polynomial ring operations, division, evaluation, roots."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rscodec import Poly, gf

from .util import get_field, random_poly


def P(f, *coeffs):
    return Poly(f, coeffs)


# ----- representation ------------------------------------------------------------

def test_trailing_zeros_trimmed(f7):
    assert P(f7, 1, 2, 0, 0).coeffs == (1, 2)
    assert P(f7, 0, 0, 0).coeffs == ()
    # coefficients are what `Field.check` accepts: never wrapped, truncated
    # or left to fail at the first product
    f8 = get_field(8)
    for f, coeffs in ((f8, [9]), (f8, [-1, 1]), (f7, [1.7]), (f7, [2.0]), (f7, [1, 7, 0]),
                      (f7, [2 ** 70]), (f7, ["3"]), (f7, [None]), (f7, [np.float64(1)]),
                      (f7, [np.array(3.0)]), (f7, [np.array([3])]), (f7, [np.array(7)]),
                      (f7, np.array([1.0, 2.0]))):
        with pytest.raises(ValueError, match=r"is not an element of GF"):
            Poly(f, coeffs)
    p = Poly(f7, [True, np.uint8(6), np.int64(2), 0])
    assert p.coeffs == (1, 6, 2) and all(type(c) is int for c in p.coeffs)
    # `check` takes what `operator.index` takes, 0-d integer arrays included
    p = Poly(f7, [np.array(3), np.array(0)])
    assert p.coeffs == (3,) and type(p.coeffs[0]) is int
    assert Poly(f7, np.array([3, 0, 4, 0])).coeffs == (3, 0, 4)
    assert Poly(f7, np.array([], dtype=np.int64)).is_zero()
    assert Poly(f8, [7, 1]) * Poly(f8, [3, 1]) == Poly(f8, [f8.mul(7, 3), 7 ^ 3, 1])


def test_zero_degree_is_minus_infinity(f7):
    z = Poly.zero(f7)
    assert z.is_zero()
    assert z.degree == -math.inf
    assert z.degree < 0
    # degree law holds against the sentinel
    p = P(f7, 1, 1)
    assert (z * p).degree == z.degree + p.degree


def test_degree_and_constructors(f7):
    assert P(f7, 5).degree == 0
    assert P(f7, 0, 1).degree == 1
    assert Poly.one(f7) == P(f7, 1)


def test_coefficients_from_any_iterable(f7):
    # `Field.asarray` reads an iterator once: it is not the zero polynomial
    assert Poly(f7, iter([1, 2, 3])) == Poly(f7, [1, 2, 3])
    assert Poly(f7, (c for c in (1, 2, 3))).coeffs == (1, 2, 3)
    assert Poly(f7, range(4, 7)).coeffs == (4, 5, 6)
    # a 0-D or 2-D array is not one coefficient sequence
    for coeffs in (np.array(3), np.array([[1, 2], [3, 4]])):
        with pytest.raises(ValueError, match=r"must be a 1-D sequence, not [02]-D"):
            Poly(f7, coeffs)


def test_repr_is_readable(f7):
    assert repr(P(f7, 5, 6)) == "Poly(6x + 5)"
    assert repr(Poly.zero(f7)) == "Poly(0)"
    # zero terms are left out, and a unit coefficient is not written
    assert repr(P(f7, 5, 0, 1)) == "Poly(x^2 + 5)"
    assert repr(P(f7, 0, 1, 0, 4)) == "Poly(4x^3 + x)"


def test_equal_polynomials_hash_equal(f7):
    assert hash(P(f7, 1, 2)) == hash(P(f7, 1, 2, 0))
    assert len({P(f7, 1, 2), P(f7, 1, 2, 0), P(f7, 2, 1)}) == 2


def test_cross_field_operations_rejected(f7):
    f13 = get_field(13)
    with pytest.raises(ValueError):
        P(f7, 1) + P(f13, 1)


# ----- arithmetic fixtures --------------------------------------------------------

def test_add_sub_scale_fixtures(f7):
    a = P(f7, 1, 1)       # x + 1
    assert a.scale(2) == P(f7, 2, 2)
    assert a.scale(0).is_zero()
    assert (a - a).is_zero()
    # f_u minus the fold quotient from the worked decode: result 6x + 5
    f_u = P(f7, 3, 0, 3, 2, 6, 4)
    quot = P(f7, 5, 1, 3, 2, 6, 4)
    assert f_u - quot == P(f7, 5, 6)


def test_mul_fixtures(f7):
    # (x + 2) * f_u = 4x^6 + 6x^2 + 3x + 6
    f_u = P(f7, 3, 0, 3, 2, 6, 4)
    assert P(f7, 2, 1) * f_u == P(f7, 6, 3, 6, 0, 0, 0, 4)
    # (x^2 + 2x + 6) * f_w = 6x^6 + 4x^3 + 4x^2 + 2x + 5
    f_w = P(f7, 2, 2, 2, 2, 6)
    assert P(f7, 6, 2, 1) * f_w == P(f7, 5, 2, 4, 4, 0, 0, 6)
    assert (Poly.one(f7) * f_u) == f_u
    assert (Poly.zero(f7) * f_u).is_zero()


def test_divmod_fixtures(f7):
    # (4x^6 - 4) / (x + 2): exact, quotient 4x^5 + 6x^4 + 2x^3 + 3x^2 + x + 5
    num = P(f7, 3, 0, 0, 0, 0, 0, 4)
    q, r = divmod(num, P(f7, 2, 1))
    assert q == P(f7, 5, 1, 3, 2, 6, 4)
    assert r.is_zero()
    # (6x^6 + 1) / (x^2 + 2x + 6): exact, quotient 6x^4 + 2x^3 + 2x^2 + 5x + 6
    q, r = divmod(P(f7, 1, 0, 0, 0, 0, 0, 6), P(f7, 6, 2, 1))
    assert q == P(f7, 6, 5, 2, 2, 6)
    assert r.is_zero()
    # x / (x + 1) = (1, remainder -1)
    q, r = divmod(P(f7, 0, 1), P(f7, 1, 1))
    assert (q, r) == (P(f7, 1), P(f7, 6))
    a = P(f7, 3, 1, 4)
    assert divmod(a, a) == (Poly.one(f7), Poly.zero(f7))
    # degree(num) < degree(den): quotient zero
    assert divmod(P(f7, 1), P(f7, 0, 1)) == (Poly.zero(f7), P(f7, 1))


def test_divmod_mul_count(f7):
    # The inverse of the lead, then per nonzero step one product for the
    # quotient coefficient and one per nonzero lower divisor coefficient.
    cases = [
        # x^2 / (x + 1) = x + 6, remainder 1: two steps of 1 + 1
        ((0, 0, 1), (1, 1), (6, 1), (1,), 5),
        # x^2 / (2x + 1) = 4x + 5, remainder 2: non-monic, the same count
        ((0, 0, 1), (1, 2), (5, 4), (2,), 5),
        # (x^3 + 1) / (x^2 + 3) = x, remainder 4x + 1: d_1 = 0 is no term,
        # and the step with a zero leading remainder forms nothing
        ((1, 0, 0, 1), (3, 0, 1), (0, 1), (1, 4), 3),
    ]
    for num, den, quot, rem, count in cases:
        with gf.MulOpCounter() as ctr:
            got = divmod(Poly(f7, num), Poly(f7, den))
        assert got == (Poly(f7, quot), Poly(f7, rem))
        assert ctr.count == count, (num, den)


def test_division_by_zero_raises(f7):
    with pytest.raises(ZeroDivisionError):
        divmod(P(f7, 1, 1), Poly.zero(f7))


def test_eval_fixtures(f7):
    # 342650 as a polynomial: 3 + 4x + 2x^2 + 6x^3 + 5x^4 vanishes at 5 and 4
    v = P(f7, 3, 4, 2, 6, 5, 0)
    assert v(5) == 0 and v(4) == 0
    assert P(f7, 6, 5)(1) == 4  # g_c(1) for the worked decode
    assert P(f7, 2)(0) == 2
    assert Poly.zero(f7)(3) == 0


def test_shifted(f7):
    assert P(f7, 4).shifted(6) == P(f7, 0, 0, 0, 0, 0, 0, 4)
    assert Poly.zero(f7).shifted(3).is_zero()


def test_roots_fixtures(f7):
    assert P(f7, 2, 1).roots_nonzero() == {5}
    assert P(f7, 6, 2, 1).roots_nonzero() == {2, 3}
    assert Poly.one(f7).roots_nonzero() == set()


# ----- ring properties -------------------------------------------------------------

@st.composite
def f13_polys(draw):
    coeffs = draw(st.lists(st.integers(0, 12), max_size=9))
    return Poly(get_field(13), coeffs)


@settings(deadline=None, max_examples=200)
@given(f13_polys(), f13_polys(), f13_polys())
def test_ring_axioms_hypothesis(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - b) + b == a


@settings(deadline=None, max_examples=200)
@given(f13_polys(), f13_polys())
def test_divmod_reconstruction_hypothesis(a, b):
    if b.is_zero():
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


@pytest.mark.parametrize("q", [7, 13, 16, 256])
def test_ring_properties_random(q):
    f = get_field(q)
    rng = random.Random(q * 17)
    for _ in range(1000):
        a = random_poly(rng, f, 12)
        b = random_poly(rng, f, 12)
        assert a * b == b * a
        prod = a * b
        if a.is_zero() or b.is_zero():
            assert prod.is_zero()
        else:
            assert prod.degree == a.degree + b.degree
        if not b.is_zero():
            quot, rem = divmod(a, b)
            assert quot * b + rem == a
            assert rem.degree < b.degree


@pytest.mark.parametrize("q", [7, 256])
def test_eval_is_ring_homomorphism(q):
    f = get_field(q)
    rng = random.Random(q + 1)
    for _ in range(300):
        a = random_poly(rng, f, 10)
        b = random_poly(rng, f, 10)
        x = rng.randrange(q)
        assert (a + b)(x) == f.add(a(x), b(x))
        assert (a * b)(x) == f.mul(a(x), b(x))


def test_mul_matches_sum_of_scaled_shifts():
    # Degree-80 products against a sum of scaled shifts.
    for q in (13, 256):
        f = get_field(q)
        rng = random.Random(q)
        a = random_poly(rng, f, 80)
        b = random_poly(rng, f, 80)
        big = a * b
        acc = Poly.zero(f)
        for i, c in enumerate(a.coeffs):  # scalar route
            acc = acc + (b.scale(c)).shifted(i)
        assert big == acc


def test_roots_match_eval_sweep():
    rng = random.Random(99)
    cases = [  # (field, max degree, trials, planted roots)
        (get_field(17), 6, 50, 0),
        (get_field(17), 40, 10, 3),           # degree >= q - 1: folded
        (get_field(16, reduction=0x19, alpha=6), 12, 30, 4),
        (get_field(16, reduction=0x19, alpha=6), 35, 10, 2),
        (get_field(256), 16, 10, 8),
        (get_field(4096), 16, 3, 8),          # 4095 candidate points
    ]
    for f, max_degree, trials, planted in cases:
        for _ in range(trials):
            p = random_poly(rng, f, max_degree)
            for _ in range(planted):
                p = p * P(f, f.neg(rng.randrange(1, f.q)), 1)
            assert p.roots_nonzero() == {x for x in range(1, f.q) if p(x) == 0}
    f = get_field(16, reduction=0x19, alpha=6)
    every = {x for x in range(1, 16)}
    assert Poly.zero(f).roots_nonzero() == every
    assert P(f, 1, *[0] * 14, 1).roots_nonzero() == every  # x^15 - 1
    assert P(f, *[0] * 31, 3).roots_nonzero() == set()  # 3x^31

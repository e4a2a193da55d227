"""Code parameters, the four code descriptions, and interpolation."""

import random

import numpy as np
import pytest

from rscodec import FeMat, Poly, RSCode, bm_decode, gf, vandermonde

from .util import get_code, get_field, lagrange_product, random_word

# Worked F_7 example values (q=7, alpha=5, k=2).
G_EX = [[1, 1, 1, 1, 1, 1], [1, 5, 4, 6, 2, 3]]
H_EX = [[1, 5, 4, 6, 2, 3], [1, 4, 2, 1, 4, 2], [1, 6, 1, 6, 1, 6], [1, 2, 4, 1, 2, 4]]
U = (4, 2, 1, 6, 3, 2)
W = (0, 2, 5, 6, 0, 6)
V = (3, 4, 2, 6, 5, 0)

LAGRANGE_FIXTURES = {
    0: (6, 6, 6, 6, 6, 6),
    1: (6, 4, 5, 1, 3, 2),
    2: (6, 5, 3, 6, 5, 3),
    3: (6, 1, 6, 1, 6, 1),
    4: (6, 3, 5, 6, 3, 5),
    5: (6, 2, 3, 1, 5, 4),
}


# ----- parameters ---------------------------------------------------------------

def test_parameters(rs72):
    assert (rs72.n, rs72.k, rs72.d, rs72.tau) == (6, 2, 5, 2)
    assert repr(rs72) == "RSCode(q=7, alpha=5, k=2)"


def test_k_bounds(f7):
    with pytest.raises(ValueError):
        RSCode(f7, 0)
    with pytest.raises(ValueError):
        RSCode(f7, 6)
    assert RSCode(f7, 5).tau == 0
    assert RSCode(f7, 1).d == 6


def test_tau_parity():
    assert get_code(7, 2).tau == 2   # n - k = 4
    assert get_code(7, 3).tau == 1   # n - k = 3, rounds down
    assert get_code(17, 4).tau == 6


# ----- matrices -------------------------------------------------------------------

def test_generator_matrix_fixture(rs72):
    assert rs72.generator_matrix().to_lists() == G_EX


def test_parity_matrix_fixture(rs72):
    assert rs72.parity_check_matrix().to_lists() == H_EX


@pytest.mark.parametrize("q", [5, 7, 11, 13, 17])
def test_generator_times_parity_transpose_is_zero_all_k(q):
    f = get_field(q)
    for k in range(1, q - 1):
        code = RSCode(f, k)
        prod = code.generator_matrix() @ code.parity_check_matrix().T
        assert prod.is_zero(), (q, k)


def test_generator_times_parity_transpose_gf256_spot():
    for k in (1, 128, 223, 254):
        code = get_code(256, k)
        assert (code.generator_matrix() @ code.parity_check_matrix().T).is_zero()


# ----- encode ----------------------------------------------------------------------

def test_encode_fixtures(rs72):
    assert rs72.encode((1, 1)) == (2, 6, 5, 0, 3, 4)
    assert rs72.encode((0, 2)) == (2, 3, 1, 5, 4, 6)
    assert rs72.encode((5, 6)) == (4, 0, 1, 6, 3, 2)
    assert rs72.encode((0, 0)) == (0, 0, 0, 0, 0, 0)


def test_encode_validation(rs72):
    with pytest.raises(ValueError):
        rs72.encode((1,))
    with pytest.raises(ValueError):
        rs72.encode((1, 7))
    for bad in ([(1, 1), (1,)], [(1, 7)], np.zeros((2, 3), dtype=np.int64),
                np.zeros(2, dtype=np.int64), np.array([[1, 7]]), np.array([[1.0, 2.0]])):
        with pytest.raises(ValueError):
            rs72.encode_blocks(bad)


def test_encode_checks_its_message_once(rs72, monkeypatch):
    calls = []
    asarray = type(rs72.field).asarray
    monkeypatch.setattr(type(rs72.field), "asarray",
                        lambda self, values: calls.append(values) or asarray(self, values))
    assert rs72.encode((5, 6)) == (4, 0, 1, 6, 3, 2)
    assert calls == [(5, 6)]


@pytest.mark.parametrize("q, k", [(7, 2), (16, 9), (256, 223), (257, 200)])
def test_encode_blocks_rows_are_encodes(q, k):
    code = get_code(q, k)
    rng = random.Random(q)
    messages = [[rng.randrange(q) for _ in range(k)] for _ in range(5)]
    messages[1] = [0] * k
    want = [list(code.encode(m)) for m in messages]
    assert code.encode_blocks(messages).tolist() == want
    assert code.encode_blocks(np.array(messages)).tolist() == want
    assert code.encode_blocks(np.array(messages, dtype=np.uint8 if q <= 256 else np.int32)
                              ).tolist() == want
    assert code.encode_blocks(np.zeros((0, k), dtype=np.int64)).shape == (0, code.n)


def test_large_field_block_costs():
    # RS(4095, 4063): an encode and the message of a decode at t = 16 are
    # prime-factor transforms over 4095 = 9 * 5 * 7 * 13, with n * 34
    # products each, not the direct sum's 4095 x 4063.
    code = get_code(4096, 4063)
    rng = random.Random(12)
    msg = [rng.randrange(4096) for _ in range(code.k)]
    with gf.MulOpCounter() as ctr:
        word = list(code.encode(msg))
    assert ctr.count <= 4095 * 34
    assert code.is_codeword(word)
    for pos in rng.sample(range(code.n), 16):
        word[pos] ^= rng.randrange(1, 4096)
    with gf.MulOpCounter() as ctr:
        outcome = bm_decode(code, word)
        assert list(outcome.message) == msg
    assert outcome.error_count == 16
    assert ctr.count <= 400_000


def test_encode_matches_generator_matrix_row_combination(rs72):
    rng = random.Random(0)
    g = rs72.generator_matrix()
    for _ in range(100):
        m = [rng.randrange(7) for _ in range(2)]
        via_matrix = (FeMat(rs72.field, [m]) @ g).to_lists()[0]
        assert list(rs72.encode(m)) == via_matrix


# ----- syndromes and membership -------------------------------------------------------

def test_syndrome_fixtures(rs72):
    assert rs72.syndromes(U) == (3, 1, 5, 4)
    assert rs72.syndromes(W) == (0, 1, 5, 5)
    assert rs72.syndromes(V) == (0, 0, 0, 0)


def test_is_codeword_fixtures(rs72):
    assert rs72.is_codeword(V)
    assert not rs72.is_codeword(U)
    assert not rs72.is_codeword(W)
    assert rs72.is_codeword((0,) * 6)


def test_word_validation(rs72):
    with pytest.raises(ValueError):
        rs72.syndromes((1, 2, 3))
    with pytest.raises(ValueError):
        rs72.syndromes((0, 0, 0, 0, 0, 7))


def test_membership_matches_parity_matrix(rs72):
    rng = random.Random(1)
    h_t = rs72.parity_check_matrix().T
    for _ in range(200):
        u = random_word(rng, rs72)
        via_h = (FeMat(rs72.field, [u]) @ h_t).is_zero()
        assert rs72.is_codeword(u) == via_h


# ----- interpolation --------------------------------------------------------------------

def test_interpolate_fixtures(rs72):
    f7 = rs72.field
    assert rs72.interpolate(U) == Poly(f7, (3, 0, 3, 2, 6, 4))
    assert rs72.interpolate(W) == Poly(f7, (2, 2, 2, 2, 6, 0))
    # single-pass inverse fixture: word (5,4,0,1,2,0) interpolates to
    # 2 + 4x + 3x^2 + 5x^3 + 5x^4
    assert rs72.interpolate((5, 4, 0, 1, 2, 0)) == Poly(f7, (2, 4, 3, 5, 5))
    # codeword interpolates to its message polynomial
    assert rs72.interpolate(rs72.encode((5, 6))) == Poly(f7, (5, 6))
    assert rs72.interpolate((0,) * 6).is_zero()


def test_interpolation_coefficients_of_unit_words(rs72):
    # interpolate(e_i) is row i of the interpolation matrix
    # M[i][j] = -alpha^((n-j) * i).
    rows = {}
    for i in range(6):
        e = tuple(1 if j == i else 0 for j in range(6))
        p = rs72.interpolate(e)
        rows[i] = tuple(p.coeffs) + (0,) * (6 - len(p.coeffs))
    assert rows == LAGRANGE_FIXTURES


def test_interpolate_passes_through_all_points(rs72):
    rng = random.Random(2)
    f = rs72.field
    for _ in range(300):
        u = random_word(rng, rs72)
        p = rs72.interpolate(u)
        assert p.degree < 6 or p.is_zero()
        assert tuple(p(f.pow(f.alpha, j)) for j in range(6)) == u


@pytest.mark.parametrize("q", [8, 13, 17])
def test_interpolate_evaluate_identity(q):
    # interpolation is a two-sided inverse of all-point evaluation
    code = get_code(q, 2)
    f = code.field
    rng = random.Random(q)
    for _ in range(300):
        u = random_word(rng, code)
        p = code.interpolate(u)
        back = tuple(int(x) for x in f.eval_at_powers(
            list(p.coeffs), first=0, count=code.n))
        assert back == u


def test_membership_equals_low_interpolation_degree(rs72):
    rng = random.Random(3)
    for _ in range(300):
        u = random_word(rng, rs72)
        assert rs72.is_codeword(u) == (rs72.interpolate(u).degree < rs72.k)


# ----- Lagrange basis ----------------------------------------------------------------------

def test_lagrange_fixtures(rs72):
    for i, coeffs in LAGRANGE_FIXTURES.items():
        assert rs72.lagrange_basis(i) == Poly(rs72.field, coeffs), i


def test_lagrange_delta_property(rs72):
    f = rs72.field
    for i in range(6):
        fi = rs72.lagrange_basis(i)
        for j in range(6):
            assert fi(f.pow(f.alpha, j)) == (1 if i == j else 0)


def test_lagrange_index_bounds(rs72):
    with pytest.raises(ValueError):
        rs72.lagrange_basis(-1)
    with pytest.raises(ValueError):
        rs72.lagrange_basis(6)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 11, 13, 16, 17])
def test_lagrange_closed_form_equals_product_form_exhaustive(q):
    code = get_code(q, 1)
    for i in range(code.n):
        assert code.lagrange_basis(i) == lagrange_product(code, i), (q, i)


def test_lagrange_reconstruction(rs72):
    # interpolate(u) == sum_i u_i * f_i
    rng = random.Random(4)
    f = rs72.field
    for _ in range(50):
        u = random_word(rng, rs72)
        acc = Poly.zero(f)
        for i, ui in enumerate(u):
            acc = acc + rs72.lagrange_basis(i).scale(ui)
        assert acc == rs72.interpolate(u)


# ----- the four descriptions agree ------------------------------------------------------------

@pytest.mark.parametrize("q", [5, 7, 11, 13, 17])
def test_four_definitions_agree(q):
    f = get_field(q)
    rng = random.Random(q * 7)
    n = q - 1
    for _ in range(1000):
        k = rng.randrange(1, n)
        code = get_code(q, k)
        m = [rng.randrange(q) for _ in range(k)]
        # definition 4: evaluation of the message polynomial
        cw = code.encode(m)
        # definition 1: image of the generator matrix
        assert (FeMat(f, [m]) @ code.generator_matrix()).to_lists() == [list(cw)]
        # definition 2: kernel of the parity-check matrix
        assert not any(code.syndromes(cw))
        # definition 3: interpolation degree < k
        assert code.interpolate(cw).degree < k
        # and a perturbed word falls out of the code
        u = list(cw)
        pos = rng.randrange(n)
        u[pos] = f.add(u[pos], rng.randrange(1, q))
        assert not code.is_codeword(tuple(u))
        assert code.interpolate(tuple(u)).degree >= k

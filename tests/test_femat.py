"""Matrix rank, determinant, solving, and Vandermonde structure."""

import itertools
import random

import numpy as np
import pytest

from rscodec import FeMat, MulOpCounter, SolveResult, SolveStatus, vandermonde
from rscodec.femat import _eliminate

from .util import det_cofactor, get_field


# ----- construction -----------------------------------------------------------

def test_shape_and_entries(f7):
    m = FeMat(f7, [[1, 2, 3], [4, 5, 6]])
    assert m.shape == (2, 3)
    assert m[1, 2] == 6
    assert m.to_lists() == [[1, 2, 3], [4, 5, 6]]
    assert m.T.to_lists() == [[1, 4], [2, 5], [3, 6]]


def test_entry_validation(f7):
    # entries are validated as `Field.check` validates them: never cast,
    # truncated or wrapped
    for rows in ([[0, 7]], [[-1]], [[1.5, 2]], [["3", 2]], [[-0.5, 1]], [[2 ** 70, 1]],
                 [[2.0, 1]], [[1, None]]):
        with pytest.raises(ValueError, match=r"is not an element of GF\(7\)"):
            FeMat(f7, rows)
    with pytest.raises(ValueError):
        FeMat(f7, [[1, 2], [3]])  # ragged
    m = FeMat(f7, [[True, np.uint8(6)], [np.int64(2), 0]])
    assert m.to_lists() == [[1, 6], [2, 0]]


def test_empty_shapes(f7):
    assert FeMat(f7, []).shape == (0, 0)
    assert FeMat(f7, [[], []]).shape == (2, 0)
    assert FeMat(f7, [[]] * 3).rank() == 0
    assert FeMat(f7, []).det() == 1  # empty product


# ----- rank fixtures ------------------------------------------------------------

def test_rank_fixtures(f7):
    # the syndrome column of the worked t=1 decode has rank 1
    assert FeMat(f7, [[3], [1], [5], [4]]).rank() == 1
    # its t=1 augmentation keeps rank 1 (rows are multiples of (3, 1))
    assert FeMat(f7, [[3, 1], [1, 5], [5, 4]]).rank() == 1
    assert FeMat(f7, [[0, 1], [1, 5]]).rank() == 2
    assert FeMat(f7, [[0, 1, 5], [1, 5, 5]]).rank() == 2
    assert FeMat(f7, [[0, 1], [1, 5], [5, 5]]).rank() == 2
    assert FeMat(f7, [[0] * 4] * 3).rank() == 0


# ----- determinant ----------------------------------------------------------------

def test_det_fixtures(f7):
    assert FeMat(f7, [[3]]).det() == 3
    assert FeMat(f7, [[0, 1], [1, 5]]).det() == 6
    assert FeMat(f7, [[3, 1], [1, 5]]).det() == 0
    assert FeMat(f7, [[1, 1], [1, 5]]).det() == 4


def test_det_requires_square(f7):
    with pytest.raises(ValueError):
        FeMat(f7, [[1, 2, 3], [4, 5, 6]]).det()


@pytest.mark.parametrize("q", [7, 13, 16, 256])
def test_det_matches_cofactor_oracle(q):
    f = get_field(q)
    rng = random.Random(q * 31)
    for _ in range(150):
        n = rng.randrange(1, 6)
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
        assert FeMat(f, rows).det() == det_cofactor(f, rows)


def test_det_multiplicative(f7):
    rng = random.Random(5)
    for _ in range(100):
        a = FeMat(f7, [[rng.randrange(7) for _ in range(3)] for _ in range(3)])
        b = FeMat(f7, [[rng.randrange(7) for _ in range(3)] for _ in range(3)])
        assert (a @ b).det() == f7.mul(a.det(), b.det())


@pytest.mark.parametrize("q", [7, 16])
def test_det_nonzero_iff_full_rank(q):
    f = get_field(q)
    rng = random.Random(q)
    for _ in range(1000):
        n = rng.randrange(1, 9)
        m = FeMat(f, [[rng.randrange(q) for _ in range(n)] for _ in range(n)])
        assert (m.det() != 0) == (m.rank() == n)


# ----- solve ------------------------------------------------------------------------

def test_solve_fixtures(f7):
    # 3 * x = 6 over F_7 (the worked t=1 locator system, rhs = -s_1)
    res = FeMat(f7, [[3]]).solve([6])
    assert res.status is SolveStatus.UNIQUE and res.solution == (2,)
    # the worked t=2 locator system
    res = FeMat(f7, [[0, 1], [1, 5]]).solve([2, 2])
    assert res.status is SolveStatus.UNIQUE and res.solution == (6, 2)
    # inconsistent: 0 * x = 1
    res = FeMat(f7, [[0]]).solve([1])
    assert res.status is SolveStatus.NO_SOLUTION
    assert res.solution is None
    # underdetermined: one equation, two unknowns
    res = FeMat(f7, [[1, 1]]).solve([3])
    assert res.status is SolveStatus.UNDERDETERMINED
    # overdetermined but consistent
    res = FeMat(f7, [[1], [2]]).solve([3, 6])
    assert res.status is SolveStatus.UNIQUE and res.solution == (3,)
    # overdetermined and inconsistent
    res = FeMat(f7, [[1], [2]]).solve([3, 5])
    assert res.status is SolveStatus.NO_SOLUTION


def test_solve_rhs_length_checked(f7):
    with pytest.raises(ValueError):
        FeMat(f7, [[1, 2], [3, 4]]).solve([1])


def test_solve_rhs_values_checked(f7):
    # The rhs is validated as `Field.check` validates one element: the
    # first value it rejects is named.
    for b, bad in (([1, 7], "7"), ([1, -1], "-1"), ([1.5, 2], "1.5"),
                   (np.array([1, 9]), repr(np.int64(9)))):
        with pytest.raises(ValueError) as info:
            FeMat(f7, [[1, 2], [3, 4]]).solve(b)
        assert str(info.value) == f"{bad} is not an element of GF(7)"


@pytest.mark.parametrize("q", [7, 13, 256])
def test_solve_resubstitution(q):
    f = get_field(q)
    rng = random.Random(q * 13)
    unique_seen = 0
    for _ in range(400):
        n = rng.randrange(1, 7)
        m = FeMat(f, [[rng.randrange(q) for _ in range(n)] for _ in range(n)])
        b = [rng.randrange(q) for _ in range(n)]
        res = m.solve(b)
        if res.status is SolveStatus.UNIQUE:
            unique_seen += 1
            # check m @ x == b exactly
            got = (m @ FeMat(f, [[v] for v in res.solution])).to_lists()
            assert [row[0] for row in got] == b
            assert m.det() != 0
        else:
            assert m.det() == 0
    assert unique_seen > 200  # random matrices are mostly invertible


def test_solve_known_solution_roundtrip(f7):
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randrange(1, 6)
        m = FeMat(f7, [[rng.randrange(7) for _ in range(n)] for _ in range(n)])
        if m.det() == 0:
            continue
        x = [rng.randrange(7) for _ in range(n)]
        b = [row[0] for row in (m @ FeMat(f7, [[v] for v in x])).to_lists()]
        res = m.solve(b)
        assert res.status is SolveStatus.UNIQUE and list(res.solution) == x


def _solve_by_back_elimination(m, b):
    """`FeMat.solve` as it was before back-substitution: every pivot clears
    the block above it, right of its column, with one broadcast `mul_arr`."""
    f, ncols = m.field, m.cols
    aug = np.concatenate([m._a, f.asarray(b)[:, None]], axis=1)
    pivots, _ = _eliminate(f, aug, ncols)
    rank = len(pivots)
    if aug[rank:, ncols].any():
        return SolveResult(SolveStatus.NO_SOLUTION)
    if rank < ncols:
        return SolveResult(SolveStatus.UNDERDETERMINED)
    for r, c in reversed(list(enumerate(pivots))):
        aug[:r, c + 1:] = f.sub_arr(aug[:r, c + 1:], f.mul_arr(aug[:r, c, None], aug[r, c + 1:]))
        aug[:r, c] = 0
    x = [0] * ncols
    for r, c in enumerate(pivots):
        x[c] = int(aug[r, ncols])
    return SolveResult(SolveStatus.UNIQUE, tuple(x))


@pytest.mark.parametrize("q, kw", [(7, {}), (8, {}), (16, {"reduction": 0x19}),
                                   (256, {}), (257, {})])
def test_solve_matches_back_elimination(q, kw):
    # Back-substitution gives the same result as clearing every pivot's
    # column above it, with the same products: by the time a pivot clears
    # its column, the rows above it are zero right of that column but for
    # the right-hand side, whose products are back-substitution's.
    f = get_field(q, **kw)
    rng = random.Random(q * 7 + len(kw))
    statuses = set()
    for _ in range(600):
        rows, cols = rng.randrange(0, 7), rng.randrange(0, 7)
        density = rng.random()
        a = [[rng.randrange(1, q) if rng.random() < density else 0 for _ in range(cols)]
             for _ in range(rows)]
        if rows > 1 and rng.random() < 0.3:
            a[-1] = list(a[0])  # a dependent row
        b = [rng.randrange(q) if rng.random() < density else 0 for _ in range(rows)]
        m = FeMat(f, a) if rows else FeMat._wrap(f, np.zeros((0, cols), dtype=np.int64))
        with MulOpCounter() as new_ctr:
            got = m.solve(b)
        with MulOpCounter() as ref_ctr:
            want = _solve_by_back_elimination(m, b)
        assert got == want, (a, b)
        assert new_ctr.count == ref_ctr.count, (a, b)
        statuses.add(got.status)
    assert statuses == set(SolveStatus)


@pytest.mark.parametrize("q", [7, 16, 257])
def test_pivots_decide_the_leading_block(q):
    # A symmetric matrix of rank r, such as a Hankel matrix, has a
    # nonsingular leading r x r block iff its pivots sit in columns 0, ...,
    # r - 1; the PGZ determinant scan relies on it.
    f = get_field(q)
    rng = random.Random(q * 3)
    seen = set()
    for _ in range(400):
        n, r = rng.randrange(1, 7), rng.randrange(0, 4)
        outer = FeMat._wrap(f, np.array([[rng.randrange(q) if rng.random() < 0.7 else 0
                                          for _ in range(n)] for _ in range(r)],
                                        dtype=np.int64).reshape(r, n))
        inner = np.zeros((r, r), dtype=np.int64)
        for i in range(r):
            for j in range(i, r):
                inner[i, j] = inner[j, i] = rng.randrange(q)
        m = outer.T @ FeMat._wrap(f, inner) @ outer
        assert m == m.T
        pivots, _ = _eliminate(f, m._a.copy(), n)
        rank = len(pivots)
        lead = FeMat._wrap(f, m._a[:rank, :rank].copy()).det() != 0
        assert lead == (pivots == list(range(rank))), m
        seen.add(lead)
    assert seen == {True, False}
    # Symmetry is needed: this matrix has its one pivot in column 0, yet
    # its leading 1 x 1 block is 0.
    pivots, _ = _eliminate(f, np.array([[0, 0], [1, 0]], dtype=np.int64), 2)
    assert pivots == [0]


def test_elimination_counts_only_products_right_of_each_pivot(f7):
    # Pivots stay on the diagonal, and the zeros below them are written, so
    # a step forms the pivot's inverse, the divided entries right of it and
    # the updates right of its column in the rows below.  The system
    # [[2, 1, 3], [1, 4, 0], [5, 2, 6]] x = (1, 0, 4), by pivot, for rank
    # (solve's rhs column in brackets):
    #   2 at (0, 0): 1/2, then 1, 3 [, 1] divided, then rows 1 and 2 times
    #     4, 5 [, 4]: 1 + 2 + 4 = 7 [1 + 3 + 6 = 10]; rows 1 and 2 swap;
    #   3 at (1, 1): 1/3, then 2 [, 5] divided; row 2 has 0 below it:
    #     2 [3];
    #   2 at (2, 2): 1/2 [and 3 divided]: 1 [2].
    # rank forms 10; solve 15, then 3 in back-substitution (U_12 x_2, U_01
    # x_1, U_02 x_2); det the rank's 10 and one per pivot for sign * 2 *
    # 3 * 2, the sign -1 of the swap.
    m = FeMat(f7, [[2, 1, 3], [1, 4, 0], [5, 2, 6]])
    with MulOpCounter() as ctr:
        assert m.rank() == 3
    assert ctr.count == 10
    with MulOpCounter() as ctr:
        assert m.solve([1, 0, 4]) == SolveResult(SolveStatus.UNIQUE, (2, 3, 5))
    assert ctr.count == 18
    with MulOpCounter() as ctr:
        assert m.det() == 2  # -(2 * 3 * 2) mod 7
    assert ctr.count == 10 + 3
    work = m._a.copy()
    assert _eliminate(f7, work, 3) == ([0, 1, 2], f7.neg(1))
    assert work.tolist() == [[2, 4, 5], [0, 3, 3], [0, 0, 2]]


# ----- matmul -------------------------------------------------------------------------

def test_matmul_fixture(f7):
    a = FeMat(f7, [[1, 2], [3, 4]])
    b = FeMat(f7, [[5, 6], [0, 1]])
    assert (a @ b).to_lists() == [[5, 1], [1, 1]]  # exact mod-7 products


def test_matmul_shape_mismatch(f7):
    with pytest.raises(ValueError):
        FeMat(f7, [[1, 2]]) @ FeMat(f7, [[1, 2]])


def test_matmul_rejects_another_field(f7):
    with pytest.raises(ValueError, match="matrices belong to different fields"):
        FeMat(f7, [[1]]) @ FeMat(get_field(11), [[1]])


def test_repr(f7):
    assert repr(FeMat(f7, [[1, 2], [3, 4]])) == "FeMat(Field(7, alpha=5), [[1, 2], [3, 4]])"


@pytest.mark.parametrize("q", [7, 256])
def test_matmul_matches_scalar_triple_loop(q):
    f = get_field(q)
    rng = random.Random(q + 2)
    for _ in range(30):
        r, m, c = (rng.randrange(1, 6) for _ in range(3))
        a = [[rng.randrange(q) for _ in range(m)] for _ in range(r)]
        b = [[rng.randrange(q) for _ in range(c)] for _ in range(m)]
        want = [[0] * c for _ in range(r)]
        for i in range(r):
            for j in range(c):
                acc = 0
                for t in range(m):
                    acc = f.add(acc, f.mul(a[i][t], b[t][j]))
                want[i][j] = acc
        assert (FeMat(f, a) @ FeMat(f, b)).to_lists() == want


# ----- vandermonde ----------------------------------------------------------------------

def test_vandermonde_fixtures(f7):
    v = vandermonde(f7, (1, 5), 2)
    assert v.to_lists() == [[1, 1], [1, 5]]
    assert v.det() == 4
    # order-k Vandermonde over the alpha powers is the generator matrix
    g = vandermonde(f7, (1, 5, 4, 6, 2, 3), 2)
    assert g.to_lists() == [[1, 1, 1, 1, 1, 1], [1, 5, 4, 6, 2, 3]]
    assert vandermonde(f7, (2, 3, 4), 1).to_lists() == [[1, 1, 1]]
    assert vandermonde(f7, (), 3).shape == (3, 0)


def test_vandermonde_determinant_formula_exhaustive_f7(f7):
    # det V(p_1..p_r) = prod_{i<j} (p_j - p_i), all distinct subsets
    # of F_7 with size <= 4, in ascending order.
    for size in range(1, 5):
        for pts in itertools.combinations(range(7), size):
            v = vandermonde(f7, pts, size)
            want = 1
            for i in range(size):
                for j in range(i + 1, size):
                    want = f7.mul(want, f7.sub(pts[j], pts[i]))
            assert v.det() == want, pts


def test_vandermonde_determinant_formula_permuted(f7):
    # also holds for non-sorted point tuples
    rng = random.Random(4)
    for _ in range(50):
        size = rng.randrange(2, 5)
        pts = rng.sample(range(7), size)
        v = vandermonde(f7, pts, size)
        want = 1
        for i in range(size):
            for j in range(i + 1, size):
                want = f7.mul(want, f7.sub(pts[j], pts[i]))
        assert v.det() == want


def test_vandermonde_distinct_points_invertible_binary():
    f = get_field(16)
    rng = random.Random(8)
    for _ in range(100):
        size = rng.randrange(1, 6)
        pts = rng.sample(range(16), size)
        assert vandermonde(f, pts, size).det() != 0


def test_equality(f7):
    a = FeMat(f7, [[1, 2]])
    assert a == FeMat(f7, [[1, 2]])
    assert a != FeMat(f7, [[1, 3]])
    assert a != FeMat(get_field(13), [[1, 2]])
    assert FeMat(f7, [[0, 0], [0, 0]]).is_zero()
    assert not a.is_zero()

import random
from fractions import Fraction

import pytest

from pairform.linalg import RationalMatrix, _bareiss, det_dense, invert_dense
from pairform.rationals import ZERO, gq

from oracles import gauss_rank


def _matrix(rows):
    return RationalMatrix.from_rows([[gq(*v) if isinstance(v, tuple) else gq(v)
                                      for v in row] for row in rows])


def test_rank_identity():
    assert _matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).rank() == 3


def test_rank_zero_matrix():
    m = RationalMatrix(3, 3)
    assert m.rank() == 0
    assert m.kernel_dim() == 3


def test_rank_dependent_complex_rows():
    # second row is i times the first
    m = _matrix([[1, (0, 1)], [(0, 1), -1]])
    assert m.rank() == 1
    assert m.kernel_dim() == 1


def test_kernel_vectors_annihilate():
    m = _matrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    basis = m.kernel_basis()
    assert len(basis) == m.kernel_dim() == 1
    vec = basis[0]
    for r in range(m.nrows):
        total = gq(0)
        for c, v in vec.items():
            total = total + m.entries.get((r, c), gq(0)) * v
        assert not total


def test_rank_matches_plain_gauss_on_random_matrices():
    rng = random.Random(20240817)
    pool = [gq(0), gq(0), gq(1), gq(-1), gq(2), gq("1/2"), gq(0, 1), gq(1, -1)]
    for _ in range(60):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        m = RationalMatrix.from_rows(
            [[rng.choice(pool) for _ in range(nc)] for _ in range(nr)])
        assert m.rank() == gauss_rank(m)
        assert len(m.kernel_basis()) == nc - m.rank()


def test_stack_intersects_kernels():
    a = _matrix([[1, 0, 0]])
    b = _matrix([[0, 1, 0]])
    stacked = a.stack(b)
    assert stacked.kernel_dim() == 1
    (vec,) = stacked.kernel_basis()
    assert set(vec) == {2}


def test_matmul_zero_detection():
    d0 = _matrix([[1, 0], [1, 2], [1, 2]])  # columns lie in ker d1
    d1 = _matrix([[0, -1, 1]])
    assert d1.matmul(d0).is_zero()
    assert not d1.matmul(_matrix([[1, 0], [0, 1], [1, 1]])).is_zero()


def test_add_matches_dense_sum_and_drops_cancelled_entries():
    rng = random.Random(61)
    for _ in range(200):
        nr, nc = rng.randint(0, 5), rng.randint(0, 5)
        left = [[_random_entry(rng) for _ in range(nc)] for _ in range(nr)]
        right = [[-v if rng.random() < 0.3 else _random_entry(rng) for v in row]
                 for row in left]
        total = RationalMatrix(nr, nc, RationalMatrix.from_rows(left).entries).add(
            RationalMatrix(nr, nc, RationalMatrix.from_rows(right).entries))
        assert (total.nrows, total.ncols) == (nr, nc)
        assert total.entries == {(r, c): left[r][c] + right[r][c]
                                 for r in range(nr) for c in range(nc)
                                 if left[r][c] + right[r][c]}
    a = _matrix([[1, 2], [0, 3]])
    assert a.add(_matrix([[-1, -2], [0, -3]])).is_zero()
    with pytest.raises(ValueError, match="shape mismatch in matrix sum"):
        a.add(_matrix([[1, 2]]))


def test_invert_dense_round_trip():
    rows = [[gq(2), gq(1)], [gq(1), gq(1)]]
    inv = invert_dense(rows)
    prod = [[sum((rows[i][k] * inv[k][j] for k in range(2)), gq(0))
             for j in range(2)] for i in range(2)]
    assert prod == [[gq(1), gq(0)], [gq(0), gq(1)]]


def test_det_dense():
    assert det_dense([[gq(2), gq(1)], [gq(1), gq(1)]]) == gq(1)
    assert det_dense([[gq(1), gq(2)], [gq(2), gq(4)]]) == gq(0)
    assert det_dense([[gq(0, 1)]]) == gq(0, 1)


def _random_entry(rng):
    if rng.random() < 0.45:
        return ZERO
    return gq(Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
              Fraction(rng.randint(-9, 9), rng.randint(1, 6)))


def _random_block_matrix(rng):
    """Random Q(i) matrix made of a few blocks with shuffled rows and columns;
    some rows are combinations of others, so many blocks are rank deficient."""
    rows, ncols = [], 0
    for _ in range(rng.randint(1, 3)):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        block = [[_random_entry(rng) for _ in range(nc)] for _ in range(nr)]
        for i in range(1, nr):
            if rng.random() < 0.4:
                f, g = _random_entry(rng), _random_entry(rng)
                block[i] = [f * v + g * w for v, w in zip(block[0], block[i - 1])]
        rows += [[ZERO] * ncols + row for row in block]
        ncols += nc
    rows = [row + [ZERO] * (ncols - len(row)) for row in rows]
    col_order = list(range(ncols))
    rng.shuffle(col_order)
    rng.shuffle(rows)
    return RationalMatrix.from_rows([[row[c] for c in col_order] for row in rows])


def test_rank_and_kernel_match_oracle_on_random_block_matrices():
    rng = random.Random(19680101)
    for _ in range(150):
        m = _random_block_matrix(rng)
        rank = m.rank()
        assert rank == gauss_rank(m)
        basis = m.kernel_basis()
        assert len(basis) == m.ncols - rank == m.kernel_dim()
        for vec in basis:
            for r in range(m.nrows):
                total = ZERO
                for c, v in vec.items():
                    total = total + m.entries.get((r, c), ZERO) * v
                assert not total
        vectors = RationalMatrix.from_rows(
            [[vec.get(c, ZERO) for c in range(m.ncols)] for vec in basis])
        assert gauss_rank(vectors) == len(basis)


def test_bareiss_last_pivot_is_the_determinant():
    # Gaussian-integer matrices, so most Bareiss divisions are by a non-real
    # pivot and must still be exact
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(1, 5)
        rows = [[gq(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(n)]
                for _ in range(n)]
        det = det_dense(rows)
        pivots, re_rows, im_rows = _bareiss([[v.a for v in row] for row in rows],
                                            [[v.b for v in row] for row in rows])
        if not det:
            assert len(pivots) < n
            continue
        assert pivots == [(i, i) for i in range(n)]
        last = gq(re_rows[n - 1][n - 1], im_rows[n - 1][n - 1])
        assert last in (det, -det)

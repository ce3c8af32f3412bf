import random
from fractions import Fraction

from pairform.linalg import (
    RationalMatrix,
    _bareiss,
    invert_dense,
    zi_kernel,
    zi_matmul,
    zi_rank,
)
from pairform.rationals import ZERO, gq

from oracles import gauss_rank, kernel_oracle, leibniz_det, perm_sign


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


def test_matmul_zero_detection():
    d0 = _matrix([[1, 0], [1, 2], [1, 2]])  # columns lie in ker d1
    d1 = _matrix([[0, -1, 1]])
    assert d1.matmul(d0).is_zero()
    assert not d1.matmul(_matrix([[1, 0], [0, 1], [1, 1]])).is_zero()


def test_invert_dense_round_trip():
    rows = [[gq(2), gq(1)], [gq(1), gq(1)]]
    inv = invert_dense(rows)
    prod = [[sum((rows[i][k] * inv[k][j] for k in range(2)), gq(0))
             for j in range(2)] for i in range(2)]
    assert prod == [[gq(1), gq(0)], [gq(0), gq(1)]]


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
        det = leibniz_det(rows)
        int_rows = [{c: (v.a, v.b) for c, v in enumerate(row) if v} for row in rows]
        pivots = _bareiss(int_rows)
        if not det:
            assert len(pivots) < n
            continue
        assert [c for _, c in pivots] == list(range(n))
        # signed by the order in which the rows became pivots
        row, col = pivots[-1]
        assert gq(*int_rows[row][col]) * perm_sign([r for r, _ in pivots]) == det


def _random_zi_columns(rng):
    """A random Z[i] column matrix of a few blocks with shuffled rows and
    columns; some rows are Z[i] combinations of others."""
    rows, ncols = [], 0
    for _ in range(rng.randint(1, 4)):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        block = [[(rng.randint(-4, 4), rng.randint(-4, 4)) if rng.random() < 0.6 else (0, 0)
                  for _ in range(nc)] for _ in range(nr)]
        for i in range(1, nr):
            if rng.random() < 0.5:
                f, g = (rng.randint(-2, 2), rng.randint(-2, 2)), (rng.randint(-2, 2), 1)
                block[i] = [(f[0] * a - f[1] * b + g[0] * c - g[1] * e,
                             f[0] * b + f[1] * a + g[0] * e + g[1] * c)
                            for (a, b), (c, e) in zip(block[0], block[i - 1])]
        rows += [[(0, 0)] * ncols + row for row in block]
        ncols += nc
    rows = [row + [(0, 0)] * (ncols - len(row)) for row in rows]
    col_order = list(range(ncols))
    rng.shuffle(col_order)
    rng.shuffle(rows)
    return [{r: row[c] for r, row in enumerate(rows) if row[c] != (0, 0)} for c in col_order]


def _column_groups(columns) -> dict:
    """Each column's group, named by the group's first column."""
    group = list(range(len(columns)))
    changed = True
    while changed:
        changed = False
        for a in range(len(columns)):
            for b in range(a + 1, len(columns)):
                if set(columns[a]) & set(columns[b]) and group[a] != group[b]:
                    group[a] = group[b] = min(group[a], group[b])
                    changed = True
    return dict(enumerate(group))


def _as_matrix(columns, nrows):
    return RationalMatrix.from_columns(nrows, [{r: gq(*v) for r, v in col.items()}
                                               for col in columns])


def test_zi_elimination_matches_oracle_on_random_block_matrices():
    rng = random.Random(19680102)
    for _ in range(150):
        columns = _random_zi_columns(rng)
        nrows = 1 + max((r for col in columns for r in col), default=0)
        m = _as_matrix(columns, nrows)
        rank = zi_rank(columns)
        assert rank == gauss_rank(m)
        groups = zi_kernel(columns)
        firsts = [first for first, _ in groups]
        assert firsts == sorted(firsts)
        basis = [vec for _, vectors in groups for vec in vectors]
        assert len(basis) == len(columns) - rank
        assert basis == m.kernel_basis()
        # the oracle's vectors, ordered by the first column of their group
        # of columns connected through shared rows, then by their 1
        oracle = kernel_oracle(m)
        group_of = _column_groups(columns)
        assert basis == [oracle[j] for j in sorted(oracle, key=lambda j: (group_of[j], j))]
        for vec in basis:
            assert list(vec) == sorted(vec)
            for r in range(nrows):
                total = ZERO
                for c, v in vec.items():
                    total = total + m.entries.get((r, c), ZERO) * v
                assert not total
        if basis:
            assert gauss_rank(RationalMatrix.from_rows(
                [[vec.get(c, ZERO) for c in range(len(columns))] for vec in basis])) == len(basis)


def _dense_product(left, right, outer):
    """left . right summed entry by entry over Q(i), as a RationalMatrix."""
    dense = {}
    for c, col in enumerate(right):
        for r in range(outer):
            total = sum((gq(*left[k][r]) * gq(*v) for k, v in col.items() if r in left[k]),
                        ZERO)
            if total:
                dense[(r, c)] = total
    return RationalMatrix(outer, len(right), dense)


def test_zi_products_match_dense_products():
    rng = random.Random(31)
    for _ in range(100):
        left, right = _random_zi_columns(rng), _random_zi_columns(rng)
        inner = max(len(left), 1 + max((r for col in right for r in col), default=0))
        outer = 1 + max((r for col in left for r in col), default=0)
        left = left + [{} for _ in range(inner - len(left))]
        product = _dense_product(left, right, outer)
        assert _as_matrix(zi_matmul(left, right), outer) == product
        assert _as_matrix(left, outer).matmul(_as_matrix(right, inner)) == product


def test_zi_products_with_empty_columns_on_both_sides():
    """Empty columns of `right` give empty product columns in place, and
    empty columns of `left` contribute nothing."""
    left = [{0: (1, 2), 2: (-3, 0)}, {}, {1: (0, -1)}, {}, {0: (2, 2), 1: (1, 0)}]
    right = [{}, {0: (1, 0), 1: (4, -1), 3: (2, 0)}, {}, {1: (5, 5), 3: (-1, 1)},
             {2: (0, 3), 4: (1, 1)}, {}]
    cases = [(left, right), (left, [{1: (1, 0)}, {}, {3: (2, 0)}])]
    rng = random.Random(32)
    for _ in range(50):
        left, right = _random_zi_columns(rng), _random_zi_columns(rng)
        inner = max(len(left), 1 + max((r for col in right for r in col), default=0))
        left = left + [{} for _ in range(inner - len(left))]
        for cols in (left, right):
            for c in rng.sample(range(len(cols)), len(cols) // 2):
                cols[c] = {}
        cases.append((left, right))
    for left, right in cases:
        outer = 1 + max((r for col in left for r in col), default=0)
        product = zi_matmul(left, right)
        assert len(product) == len(right)
        assert all(not product[c] for c, col in enumerate(right) if not col)
        assert _as_matrix(product, outer) == _dense_product(left, right, outer)

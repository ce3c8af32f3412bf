"""Exact linear algebra over Q(i).

Ranks and kernels are computed by fraction-free Bareiss elimination with
deterministic pivoting (first nonzero entry, columns scanned left to right).
Each block is scaled to a Gaussian-integer matrix held as int pairs
(real part, imaginary part), and every Bareiss division is exact over Z[i].
Matrices arising from band-limited complexes split into many small blocks of
columns that share no rows; blocks are eliminated independently, which keeps
the elimination cheap without changing any result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .rationals import ONE, ZERO, GaussianRational, from_parts


@dataclass
class RationalMatrix:
    """Sparse matrix with Gaussian-rational entries, keyed by (row, col)."""

    nrows: int
    ncols: int
    entries: dict = field(default_factory=dict)

    @classmethod
    def from_columns(cls, nrows: int, columns: "list[dict[int, GaussianRational]]"):
        m = cls(nrows, len(columns))
        for c, col in enumerate(columns):
            for r, v in col.items():
                if v:
                    m.entries[(r, c)] = v
        return m

    @classmethod
    def from_rows(cls, rows: "list[list]") -> "RationalMatrix":
        m = cls(len(rows), len(rows[0]) if rows else 0)
        for r, row in enumerate(rows):
            for c, v in enumerate(row):
                if v:
                    m.entries[(r, c)] = v
        return m

    def is_zero(self) -> bool:
        return not self.entries

    def matmul(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        by_col: dict[int, list] = {}
        for (r, c), v in self.entries.items():
            by_col.setdefault(c, []).append((r, v))
        acc: dict[tuple[int, int], GaussianRational] = {}
        for (k, c2), w in other.entries.items():
            for r, v in by_col.get(k, ()):
                key = (r, c2)
                cur = acc.get(key, ZERO) + v * w
                if cur:
                    acc[key] = cur
                elif key in acc:
                    del acc[key]
        return RationalMatrix(self.nrows, other.ncols, acc)

    def add(self, other: "RationalMatrix") -> "RationalMatrix":
        """Entrywise sum; entries that cancel are dropped, as in matmul."""
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in matrix sum")
        acc = dict(self.entries)
        for key, w in other.entries.items():
            cur = acc.get(key, ZERO) + w
            if cur:
                acc[key] = cur
            else:
                acc.pop(key, None)
        return RationalMatrix(self.nrows, self.ncols, acc)

    def stack(self, other: "RationalMatrix") -> "RationalMatrix":
        """Vertical stack; kernel of the result is the kernel intersection."""
        if self.ncols != other.ncols:
            raise ValueError("shape mismatch in stack")
        m = RationalMatrix(self.nrows + other.nrows, self.ncols, dict(self.entries))
        for (r, c), v in other.entries.items():
            m.entries[(r + self.nrows, c)] = v
        return m

    def _blocks(self):
        """Partition columns into groups connected through shared rows.

        Returns one (rows, cols, entries) triple per group, groups ordered by
        their smallest column, rows and cols ascending and `entries` the
        group's ((row, col), value) items; every entry is visited once.
        """
        parent = list(range(self.ncols))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        row_col: dict[int, int] = {}
        for (r, c) in sorted(self.entries):
            if r in row_col:
                ra, rb = find(row_col[r]), find(c)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
            else:
                row_col[r] = c
        groups: dict[int, tuple] = {}
        for c in range(self.ncols):
            root = find(c)
            if root not in groups:
                groups[root] = (set(), [], [])
            groups[root][1].append(c)
        for (r, c), v in self.entries.items():
            rows, _cols, entries = groups[find(c)]
            rows.add(r)
            entries.append(((r, c), v))
        return [(sorted(rows), cols, entries)
                for rows, cols, entries in (groups[root] for root in sorted(groups))]

    def rank(self) -> int:
        return sum(len(_bareiss(*_integer_block(rows, cols, entries))[0])
                   for rows, cols, entries in self._blocks() if rows)

    def kernel_basis(self) -> "list[dict[int, GaussianRational]]":
        """Deterministic basis of the right kernel, one dict per vector."""
        vectors = []
        for rows, cols, entries in self._blocks():
            if not rows:
                vectors.extend([{c: ONE} for c in cols])
                continue
            pivots, re_rows, im_rows = _bareiss(*_integer_block(rows, cols, entries))
            echelon = {r: [from_parts(a, b) for a, b in zip(re_rows[r], im_rows[r])]
                       for r, _ in pivots}
            pivot_cols = {c for _, c in pivots}
            for j in range(len(cols)):
                if j in pivot_cols:
                    continue
                local = {j: ONE}
                for r, c in reversed(pivots):
                    s = ZERO
                    for jj, vv in local.items():
                        if jj > c:
                            s = s + echelon[r][jj] * vv
                    if s:
                        local[c] = -s / echelon[r][c]
                vectors.append({cols[jj]: vv for jj, vv in sorted(local.items())})
        return vectors

    def kernel_dim(self) -> int:
        return self.ncols - self.rank()


def _integer_block(rows: list[int], cols: list[int], entries):
    """Dense block of `entries` scaled by the lcm of their denominators.

    Returns the real and imaginary parts as two lists of int rows, so the
    block is a Gaussian-integer matrix with the same rank and kernel.
    """
    denom = 1
    for _, v in entries:
        denom = math.lcm(denom, v.d)
    rindex = {r: i for i, r in enumerate(rows)}
    cindex = {c: j for j, c in enumerate(cols)}
    re_rows = [[0] * len(cols) for _ in rows]
    im_rows = [[0] * len(cols) for _ in rows]
    for (r, c), v in entries:
        i, j, scale = rindex[r], cindex[c], denom // v.d
        re_rows[i][j] = v.a * scale
        im_rows[i][j] = v.b * scale
    return re_rows, im_rows


def _bareiss(re_rows: "list[list[int]]", im_rows: "list[list[int]]"):
    """Fraction-free row echelon reduction over Z[i].

    The matrix is given as its real and imaginary int parts (reduced in
    place).  Every interior division of the Bareiss recurrence is by the
    previous pivot, a minor of the matrix, and is exact over Z[i]; a nonzero
    remainder fails an assertion.  Returns (pivots, re_rows, im_rows) with
    pivots as (row, col) pairs.
    """
    nr = len(re_rows)
    nc = len(re_rows[0]) if nr else 0
    pivots = []
    qa, qb = 1, 0                      # previous pivot
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if re_rows[i][c] or im_rows[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            re_rows[r], re_rows[pr] = re_rows[pr], re_rows[r]
            im_rows[r], im_rows[pr] = im_rows[pr], im_rows[r]
        pre, pim = re_rows[r], im_rows[r]
        pa, pb = pre[c], pim[c]
        # divide by q as t*conj(q) / |q|^2, or by qa alone when q is real
        div = qa * qa + qb * qb if qb else qa
        for i in range(r + 1, nr):
            xre, xim = re_rows[i], im_rows[i]
            ha, hb = xre[c], xim[c]
            for j in range(c + 1, nc):
                xa, xb, ya, yb = xre[j], xim[j], pre[j], pim[j]
                # (p*x - h*y) / q with p = pa+pb*i, h = ha+hb*i, q = qa+qb*i
                ta = pa * xa - pb * xb - ha * ya + hb * yb
                tb = pa * xb + pb * xa - ha * yb - hb * ya
                if qb:
                    ta, tb = ta * qa + tb * qb, tb * qa - ta * qb
                if div != 1:
                    ta, ra = divmod(ta, div)
                    tb, rb = divmod(tb, div)
                    if ra or rb:
                        raise AssertionError("inexact Bareiss division over Z[i]")
                xre[j], xim[j] = ta, tb
            xre[c] = xim[c] = 0
        qa, qb = pa, pb
        pivots.append((r, c))
        r += 1
        if r == nr:
            break
    return pivots, re_rows, im_rows


def invert_dense(rows: "list[list[GaussianRational]]"):
    """Exact inverse of a small square matrix (Gauss-Jordan over Q(i))."""
    n = len(rows)
    a = [list(row) + [ONE if i == j else ZERO for j in range(n)]
         for i, row in enumerate(rows)]
    for col in range(n):
        pr = next((i for i in range(col, n) if a[i][col]), None)
        if pr is None:
            raise ValueError("matrix is singular")
        a[col], a[pr] = a[pr], a[col]
        inv = ONE / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [v - f * w for v, w in zip(a[i], a[col])]
    return [row[n:] for row in a]


def det_dense(rows: "list[list[GaussianRational]]") -> GaussianRational:
    """Exact determinant by Bareiss reduction (last pivot)."""
    n = len(rows)
    if n == 0:
        return ONE
    work = [list(r) for r in rows]
    sign = 1
    prev = ONE
    for c in range(n):
        pr = next((i for i in range(c, n) if work[i][c]), None)
        if pr is None:
            return ZERO
        if pr != c:
            work[c], work[pr] = work[pr], work[c]
            sign = -sign
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                work[i][j] = (work[c][c] * work[i][j] - work[i][c] * work[c][j]) / prev
            work[i][c] = ZERO
        prev = work[c][c]
    return prev * sign

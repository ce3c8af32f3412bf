"""Exact linear algebra over Q(i).

Ranks, kernels and inverses all come from one elimination
routine, `_bareiss`: fraction-free Bareiss elimination over the Gaussian
integers Z[i], on sparse rows whose entries are int pairs (real part,
imaginary part).
Pivoting is deterministic: columns are scanned left to right and the first
remaining row that holds the column is the pivot row.  Every division is by a
minor of the matrix and is exact over Z[i]; a nonzero remainder fails an
assertion.

A Z[i] matrix is a list of sparse columns, each a dict {row: (re, im)} of its
nonzero entries.  Before elimination its columns are split into the groups
connected through shared rows (`_groups`), so each group is reduced on
its own and no pivot of one group scales the entries of another.  Band
blocks are written in this form directly; `RationalMatrix` clears its
denominators to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .rationals import ONE, ZERO, GaussianRational, from_parts


# -- Z[i] column matrices ------------------------------------------------------


def zi_matmul(left: list, right: list) -> list:
    """The product left . right of two Z[i] column matrices; the rows of
    `right` index the columns of `left`.  Entries that cancel are dropped."""
    out = []
    for col in right:
        if not col:
            out.append({})
            continue
        acc = {}
        for k, (a, b) in col.items():
            for r, (c, e) in left[k].items():
                if r in acc:
                    x, y = acc[r]
                    acc[r] = x + c * a - e * b, y + c * b + e * a
                else:
                    acc[r] = c * a - e * b, c * b + e * a
        out.append({r: v for r, v in acc.items() if v[0] or v[1]})
    return out


def _groups(columns: list) -> list:
    """The columns grouped by connection through shared rows, as (cols,
    rows) per group: cols ascending, the groups ordered by their first
    column, and rows the group's nonzero rows as dicts {col: (re, im)}."""
    rows = {}
    for c, col in enumerate(columns):
        for r, v in col.items():
            if r in rows:
                rows[r][c] = v
            else:
                rows[r] = {c: v}
    seen, seen_rows, out = set(), set(), []
    for first in range(len(columns)):
        if first in seen:
            continue
        seen.add(first)
        stack, cols, group_rows = [first], [first], []
        while stack:
            for r in columns[stack.pop()]:
                if r not in seen_rows:
                    seen_rows.add(r)
                    group_rows.append(rows[r])
                    for c in rows[r]:
                        if c not in seen:
                            seen.add(c)
                            cols.append(c)
                            stack.append(c)
        cols.sort()
        out.append((cols, group_rows))
    return out


def _divided(row: dict, qa: int, qb: int) -> dict:
    """The entries of `row` divided by qa + qb*i, which must be exact over Z[i]."""
    if qb:
        row = {j: (a * qa + b * qb, b * qa - a * qb) for j, (a, b) in row.items()}
        qa = qa * qa + qb * qb
    elif qa == 1:
        return row
    out = {}
    for j, (a, b) in row.items():
        if a % qa or b % qa:
            raise AssertionError("inexact Bareiss division over Z[i]")
        out[j] = a // qa, b // qa
    return out


def _bareiss(rows: list) -> list:
    """Fraction-free row echelon reduction over Z[i].

    `rows` are dicts {col: (re, im)} of nonzero entries; the list is reduced
    in place.  Returns the pivots as (row, col) pairs in elimination order;
    rows[row] is then the pivot's echelon row and every other row is empty.
    Each step is the Bareiss recurrence x <- (p*x - h*y) / q, with p the
    pivot, h the row's entry in the pivot column, y the pivot row and q the
    previous pivot.  A row without an entry in the pivot column would only be
    scaled by p/q, so it is left as it is and remembers the pivot it was last
    reduced with; when it is next reduced or becomes the pivot row, the
    scalings it skipped telescope into one exact division by that pivot.
    """
    pivots = []
    last = [(1, 0)] * len(rows)          # the pivot each row was last reduced with
    active = [i for i, row in enumerate(rows) if row]
    prev = (1, 0)
    for c in sorted({c for i in active for c in rows[i]}):
        for pos, top in enumerate(active):
            if c in rows[top]:
                break
        else:
            continue
        del active[pos]
        y = rows[top]
        if last[top] != prev:
            pa, pb = prev
            y = rows[top] = _divided({j: (pa * a - pb * b, pa * b + pb * a)
                                      for j, (a, b) in y.items()}, *last[top])
        pa, pb = y[c]
        for i in active:
            x = rows[i]
            h = x.get(c)
            if h is None:
                continue
            ha, hb = h
            new = {j: (pa * a - pb * b, pa * b + pb * a)
                   for j, (a, b) in x.items() if j not in y}
            for j, (ya, yb) in y.items():
                if j != c:
                    xa, xb = x.get(j, (0, 0))
                    ta = pa * xa - pb * xb - ha * ya + hb * yb
                    tb = pa * xb + pb * xa - ha * yb - hb * ya
                    if ta or tb:
                        new[j] = ta, tb
            rows[i] = _divided(new, *last[i])
            last[i] = pa, pb
        prev = pa, pb
        pivots.append((top, c))
        active = [i for i in active if rows[i]]
        if not active:
            break
    return pivots


def zi_rank(columns: list) -> int:
    """Rank of a Z[i] column matrix."""
    return sum(len(_bareiss(rows)) for _, rows in _groups(columns))


def zi_kernel(columns: list) -> list:
    """Deterministic basis of the right kernel of a Z[i] column matrix, as
    (first column, vectors) per group of `_groups`: for each non-pivot
    column j of the group, ascending, the kernel vector that is 1 at j and 0
    at the group's other non-pivot columns, as a dict {col: GaussianRational}
    of its nonzero entries in column order."""
    out = []
    for cols, rows in _groups(columns):
        if len(cols) == 1:
            out.append((cols[0], [] if rows else [{cols[0]: ONE}]))
            continue
        pivots = [(rows[r], c) for r, c in _bareiss(rows)]
        pivot_cols = {c for _, c in pivots}
        vectors = []
        for j in cols:
            if j in pivot_cols:
                continue
            # back substitution over a common positive integer denominator
            num, den = {j: (1, 0)}, 1
            for row, c in reversed(pivots):
                sa = sb = 0
                for jj, (ya, yb) in row.items():
                    if jj > c and jj in num:
                        va, vb = num[jj]
                        sa += ya * va - yb * vb
                        sb += ya * vb + yb * va
                if sa or sb:
                    # x_c = -s / (den * p) = -s * conj(p) / (den * |p|^2)
                    pa, pb = row[c]
                    norm = pa * pa + pb * pb
                    num = {jj: (va * norm, vb * norm) for jj, (va, vb) in num.items()}
                    num[c] = -(sa * pa + sb * pb), sa * pb - sb * pa
                    den *= norm
            vectors.append({jj: from_parts(a, b, den) for jj, (a, b) in sorted(num.items())})
        out.append((cols[0], vectors))
    return out


# -- Q(i) matrices -------------------------------------------------------------


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
        (d1, left), (d2, right) = self._cleared(), other._cleared()
        return RationalMatrix(self.nrows, other.ncols, {
            (r, c): from_parts(a, b, d1 * d2)
            for c, col in enumerate(zi_matmul(left, right)) for r, (a, b) in col.items()})

    def _cleared(self):
        """(d, the matrix times d as a Z[i] column matrix), d the lcm of the
        entries' denominators."""
        denom = 1
        for v in self.entries.values():
            denom = math.lcm(denom, v.d)
        columns = [{} for _ in range(self.ncols)]
        for (r, c), v in self.entries.items():
            scale = denom // v.d
            columns[c][r] = (v.a * scale, v.b * scale)
        return denom, columns

    def rank(self) -> int:
        return zi_rank(self._cleared()[1])

    def kernel_basis(self) -> "list[dict[int, GaussianRational]]":
        """Deterministic basis of the right kernel, one dict per vector."""
        return [vec for _, vectors in zi_kernel(self._cleared()[1]) for vec in vectors]

    def kernel_dim(self) -> int:
        return self.ncols - self.rank()


def invert_dense(rows: "list[list[GaussianRational]]"):
    """Exact inverse of a small square matrix A: column j of the inverse is
    the kernel vector of [A | -I] that is 1 at column j of -I."""
    n = len(rows)
    denom, columns = RationalMatrix.from_rows(rows)._cleared()
    columns += [{i: (-denom, 0)} for i in range(n)]
    vectors = sorted((vec for _, group in zi_kernel(columns) for vec in group), key=max)
    if any(max(vec) < n for vec in vectors):
        raise ValueError("matrix is singular")
    return [[vec.get(i, ZERO) for vec in vectors] for i in range(n)]

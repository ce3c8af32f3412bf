"""Model charts: real and complex affine space, and flat tori.

A chart fixes the coordinate system every expression in this package lives
on.  Real charts carry coordinates x1..xn; complex charts of complex
dimension n expose the 2n symbols z1..zn, zb1..zbn (zb = conjugate) and,
underneath them, the 2n real axes x1..xn, y1..yn.  Torus coordinates are
2*pi-periodic and the torus volume is normalised to 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum


class ChartKind(Enum):
    AFFINE = "affine-real"
    TORUS = "torus"
    AFFINE_COMPLEX = "affine-complex"
    TORUS_COMPLEX = "torus-complex"


class ChartMismatchError(ValueError):
    """Operands live on different charts."""


class ChartCompatibilityError(ValueError):
    """A term violates its chart's constraints (e.g. a polynomial on a torus)."""


@dataclass(frozen=True)
class Chart:
    """A model chart.  Besides the fields, `__post_init__` sets the derived
    shape once, since it is read on every term of every expression:
    `is_complex`, `is_torus`, `nvars` (length of exponent/frequency vectors,
    2n on complex charts), `nslots` (coframe slots: dx1..dxn, or dz1..dzn,
    dzb1..dzbn) and `zeros` (the zero vector of length `nvars`).  They are
    plain attributes, not fields, so ==, hash and repr see only (kind, dim);
    that hash is taken once too, as charts key the band memos.
    """

    kind: ChartKind
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("chart dimension must be >= 1")
        is_complex = self.kind in (ChartKind.AFFINE_COMPLEX, ChartKind.TORUS_COMPLEX)
        is_torus = self.kind in (ChartKind.TORUS, ChartKind.TORUS_COMPLEX)
        nvars = 2 * self.dim if is_complex else self.dim
        object.__setattr__(self, "is_complex", is_complex)
        object.__setattr__(self, "is_torus", is_torus)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "nslots", nvars)
        object.__setattr__(self, "zeros", (0,) * nvars)
        object.__setattr__(self, "_hash", hash((self.kind, self.dim)))

    def __hash__(self) -> int:
        return self._hash

    def var_name(self, j: int) -> str:
        if self.kind is ChartKind.AFFINE_COMPLEX:
            return f"z{j + 1}" if j < self.dim else f"zb{j - self.dim + 1}"
        if self.kind is ChartKind.TORUS_COMPLEX:
            return f"x{j + 1}" if j < self.dim else f"y{j - self.dim + 1}"
        return f"x{j + 1}"

    def slot_name(self, j: int) -> str:
        if self.is_complex:
            return f"dz[{j + 1}]" if j < self.dim else f"dzb[{j - self.dim + 1}]"
        return f"dx[{j + 1}]"

    def __str__(self) -> str:
        return f"{self.kind.value}({self.dim})"


def affine(n: int) -> Chart:
    return Chart(ChartKind.AFFINE, n)


def torus(n: int) -> Chart:
    return Chart(ChartKind.TORUS, n)


def affine_complex(n: int) -> Chart:
    return Chart(ChartKind.AFFINE_COMPLEX, n)


def torus_complex(n: int) -> Chart:
    return Chart(ChartKind.TORUS_COMPLEX, n)


def bidegree_index_sets(chart: Chart, p: int, q: int) -> list:
    """The coframe index sets of bidegree (p, q) on a complex chart: p
    holomorphic slots then q antiholomorphic ones, holomorphic-major.  Empty
    when p or q is out of range."""
    n = chart.dim
    if not (0 <= p <= n and 0 <= q <= n):
        return []
    anti = list(itertools.combinations(range(n, 2 * n), q))
    return [h + a for h in itertools.combinations(range(n), p) for a in anti]


def require_same_chart(*objs) -> Chart:
    # operands nearly always share one chart object; only others need hashing
    if objs:
        first = objs[0].chart
        if all(o.chart is first for o in objs):
            return first
    charts = {o.chart for o in objs}
    if len(charts) != 1:
        raise ChartMismatchError(f"expected one chart, got {sorted(map(str, charts))}")
    return next(iter(charts))

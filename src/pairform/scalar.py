"""Exact scalar expressions on model charts.

A scalar is a finite sum of terms ``c * x^alpha * e(k)`` where ``c`` is a
Gaussian rational, ``alpha`` is a vector of polynomial exponents and ``k`` a
vector of integer frequencies (``e(k)`` denotes ``exp(i<k, x>)``).  Each chart
kind allows only one species: affine charts are purely polynomial, tori purely
trigonometric.  Complex charts store polynomials in z and zb (the conjugate),
or frequencies over the underlying real axes.

Expressions are kept in canonical form at all times: terms sorted by
(alpha, k), no duplicate keys, no zero coefficients.  Two expressions are
semantically equal iff their term tuples are identical.  The constructor
verifies input that is already canonical and fits the chart in one pass and
keeps it as given; any other input is merged, sorted and validated.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .charts import (
    Chart,
    ChartCompatibilityError,
    ChartKind,
    ChartMismatchError,
)
from .linalg import invert_dense
from .rationals import I, ONE, ZERO, GaussianRational, from_parts, gq

Term = "tuple[tuple[int, ...], tuple[int, ...], GaussianRational]"

_HALF = gq(Fraction(1, 2))
_HALF_I = gq(0, Fraction(1, 2))


def _is_canonical(terms: tuple, chart: Chart) -> bool:
    """One pass: True iff `terms` is already canonical and meets every
    condition `ScalarExpr._validate` checks on `chart`."""
    zeros, nvars, torus = chart.zeros, chart.nvars, chart.is_torus
    prev = None
    for term in terms:
        if type(term) is not tuple or len(term) != 3:
            return False
        alpha, k, c = term
        if type(alpha) is not tuple or type(k) is not tuple or \
                type(c) is not GaussianRational or not c:
            return False
        # the other half of the (alpha, k) key is the zero vector, so the
        # varying half alone decides the order
        if torus:
            if alpha != zeros or len(k) != nvars:
                return False
            key = k
        else:
            if k != zeros or len(alpha) != nvars or min(alpha) < 0:
                return False
            key = alpha
        if prev is not None and key <= prev:
            return False
        prev = key
    return True


@dataclass(frozen=True)
class ScalarExpr:
    chart: Chart
    terms: tuple

    def __post_init__(self):
        if type(self.terms) is tuple and _is_canonical(self.terms, self.chart):
            return
        merged: dict = {}
        for alpha, k, coeff in self.terms:
            alpha, k = tuple(alpha), tuple(k)
            cur = merged.get((alpha, k), ZERO) + coeff
            if cur:
                merged[(alpha, k)] = cur
            else:
                merged.pop((alpha, k), None)
        canon = tuple((alpha, k, merged[(alpha, k)]) for alpha, k in sorted(merged))
        object.__setattr__(self, "terms", canon)
        self._validate()

    def _validate(self):
        nvars = self.chart.nvars
        torus = self.chart.is_torus
        for alpha, k, _ in self.terms:
            if len(alpha) != nvars or len(k) != nvars:
                raise ChartCompatibilityError(
                    f"term shape {len(alpha)}/{len(k)} does not fit chart {self.chart}")
            if any(a < 0 for a in alpha):
                raise ChartCompatibilityError("negative polynomial exponent")
            if torus and any(alpha):
                raise ChartCompatibilityError(f"polynomial term on torus chart {self.chart}")
            if not torus and any(k):
                raise ChartCompatibilityError(f"frequency term on affine chart {self.chart}")

    # -- ring structure ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(a) and not any(k) for a, k, _ in self.terms)

    def constant_value(self) -> GaussianRational:
        if self.is_zero:
            return ZERO
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return self.terms[0][2]

    def _require_same(self, other: "ScalarExpr"):
        if self.chart != other.chart:
            raise ChartMismatchError(f"{self.chart} vs {other.chart}")

    def __add__(self, other):
        if isinstance(other, ScalarExpr):
            self._require_same(other)
            return ScalarExpr(self.chart, self.terms + other.terms)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, ScalarExpr):
            return self + (-other)
        return NotImplemented

    def __neg__(self):
        return ScalarExpr(self.chart, tuple((a, k, -c) for a, k, c in self.terms))

    def __mul__(self, other):
        if isinstance(other, ScalarExpr):
            self._require_same(other)
            out = []
            for a1, k1, c1 in self.terms:
                for a2, k2, c2 in other.terms:
                    alpha = tuple(x + y for x, y in zip(a1, a2))
                    k = tuple(x + y for x, y in zip(k1, k2))
                    out.append((alpha, k, c1 * c2))
            return ScalarExpr(self.chart, tuple(out))
        if isinstance(other, (GaussianRational, int, Fraction)):
            c0 = other if isinstance(other, GaussianRational) else gq(other)
            return ScalarExpr(self.chart, tuple((a, k, c * c0) for a, k, c in self.terms))
        return NotImplemented

    __rmul__ = __mul__

    def power(self, exponent: int) -> "ScalarExpr":
        if exponent < 0:
            raise ValueError("negative power")
        out = const(self.chart, 1)
        for _ in range(exponent):
            out = out * self
        return out

    def conjugate(self) -> "ScalarExpr":
        kind = self.chart.kind
        out = []
        for alpha, k, c in self.terms:
            if kind is ChartKind.AFFINE_COMPLEX:
                n = self.chart.dim
                alpha = alpha[n:] + alpha[:n]
            if self.chart.is_torus:
                k = tuple(-x for x in k)
            out.append((alpha, k, c.conjugate()))
        return ScalarExpr(self.chart, tuple(out))

    # -- calculus ------------------------------------------------------

    def partial(self, axis: int) -> "ScalarExpr":
        """Derivative along the real axis `axis` (complex charts: x then y)."""
        if not 0 <= axis < self.chart.nvars:
            raise ValueError(f"axis {axis} out of range for {self.chart}")
        if self.chart.kind is ChartKind.AFFINE_COMPLEX:
            n = self.chart.dim
            j = axis % n
            dz, dzb = self.wirtinger(j), self.wirtinger(n + j)
            return dz + dzb if axis < n else I * dz - I * dzb
        out = []
        for alpha, k, c in self.terms:
            if alpha[axis]:
                down = alpha[:axis] + (alpha[axis] - 1,) + alpha[axis + 1:]
                out.append((down, k, c * alpha[axis]))
            if k[axis]:
                # c * i * k as a component swap
                out.append((alpha, k, from_parts(-c.b * k[axis], c.a * k[axis], c.d)))
        return ScalarExpr(self.chart, tuple(out))

    def wirtinger(self, slot: int) -> "ScalarExpr":
        """Derivative dual to coframe slot `slot` (d/dz, d/dzb on complex charts)."""
        if not 0 <= slot < self.chart.nslots:
            raise ValueError(f"slot {slot} out of range for {self.chart}")
        kind = self.chart.kind
        if kind in (ChartKind.AFFINE, ChartKind.TORUS):
            return self.partial(slot)
        if kind is ChartKind.AFFINE_COMPLEX:
            out = []
            for alpha, k, c in self.terms:
                if alpha[slot]:
                    down = alpha[:slot] + (alpha[slot] - 1,) + alpha[slot + 1:]
                    out.append((down, k, c * alpha[slot]))
            return ScalarExpr(self.chart, tuple(out))
        n = self.chart.dim
        j, conjugated = slot % n, slot >= n
        out = []
        for alpha, k, c in self.terms:
            kx, ky = k[j], k[n + j]
            if kx or ky:
                # (i*kx + ky)/2, or (i*kx - ky)/2 on the conjugate slot
                mult = from_parts(-ky if conjugated else ky, kx, 2)
                out.append((alpha, k, c * mult))
        return ScalarExpr(self.chart, tuple(out))

    def torus_integral(self) -> GaussianRational:
        """Integral over the torus with volume normalised to 1."""
        if not self.chart.is_torus:
            raise ChartCompatibilityError(f"torus integral on {self.chart}")
        for alpha, k, c in self.terms:
            if k == self.chart.zeros:
                return c
        return ZERO

    def compose(self, cmap: "ChartMap") -> "ScalarExpr":
        """Substitute through a chart map (pullback of functions)."""
        if cmap.target != self.chart:
            raise ChartMismatchError(
                f"expression on {self.chart} cannot pull back through map into {cmap.target}")
        if cmap.matrix is not None:
            at = _transpose(cmap.matrix)
            zeros = cmap.source.zeros
            out = [(zeros, _matvec(at, k), c) for _a, k, c in self.terms]
            return ScalarExpr(cmap.source, tuple(out))
        images = cmap.variable_images()
        result = ScalarExpr(cmap.source, ())
        for alpha, _k, c in self.terms:
            term = const(cmap.source, 1) * c
            for j, a in enumerate(alpha):
                if a:
                    term = term * images[j].power(a)
            result = result + term
        return result

    # -- structure probes ----------------------------------------------

    def total_degree(self) -> int:
        return max((sum(a) for a, _, _ in self.terms), default=0)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        rendered = []
        for alpha, k, c in self.terms:
            parts = []
            for j, a in enumerate(alpha):
                if a:
                    name = self.chart.var_name(j)
                    parts.append(name if a == 1 else f"{name}^{a}")
            if any(k):
                parts.append("e(" + ",".join(str(x) for x in k) + ")")
            if not parts or c != ONE:
                parts.insert(0, str(c))
            rendered.append("*".join(parts))
        return " + ".join(rendered)


# -- constructors -------------------------------------------------------


def const(chart: Chart, value) -> ScalarExpr:
    c = value if isinstance(value, GaussianRational) else gq(value)
    return ScalarExpr(chart, ((chart.zeros, chart.zeros, c),) if c else ())


def zero(chart: Chart) -> ScalarExpr:
    return ScalarExpr(chart, ())


def coordinate(chart: Chart, j: int) -> ScalarExpr:
    """The j-th coordinate function (z/zb on complex affine charts)."""
    if chart.is_torus:
        raise ChartCompatibilityError("torus coordinates are not global scalars")
    if not 0 <= j < chart.nvars:
        raise ValueError(f"coordinate {j} out of range")
    alpha = tuple(1 if s == j else 0 for s in range(chart.nvars))
    return ScalarExpr(chart, ((alpha, chart.zeros, ONE),))


def wave(chart: Chart, k, coeff=ONE) -> ScalarExpr:
    """exp(i<k, x>) on a torus chart."""
    if not chart.is_torus:
        raise ChartCompatibilityError("wave terms require a torus chart")
    k = tuple(k)
    if len(k) != chart.nvars:
        raise ValueError("frequency vector has wrong length")
    c = coeff if isinstance(coeff, GaussianRational) else gq(coeff)
    return ScalarExpr(chart, ((chart.zeros, k, c),) if c else ())


def sin_wave(chart: Chart, k) -> ScalarExpr:
    """sin(<k, x>) encoded through complex exponentials."""
    k = tuple(k)
    minus = tuple(-x for x in k)
    return wave(chart, k, _HALF_I * -1) + wave(chart, minus, _HALF_I)


def cos_wave(chart: Chart, k) -> ScalarExpr:
    """cos(<k, x>) encoded through complex exponentials."""
    k = tuple(k)
    minus = tuple(-x for x in k)
    return wave(chart, k, _HALF) + wave(chart, minus, _HALF)


def normalize(chart: Chart, raw_terms) -> ScalarExpr:
    """Canonicalise a raw term list: merge keys, drop zeros, sort."""
    return ScalarExpr(chart, tuple(raw_terms))


# -- chart maps ----------------------------------------------------------


def _transpose(matrix):
    return tuple(tuple(row[i] for row in matrix) for i in range(len(matrix[0])))


def _matvec(matrix, vec):
    return tuple(sum(r * v for r, v in zip(row, vec)) for row in matrix)


@dataclass(frozen=True)
class ChartMap:
    """A map between charts: polynomial on affine charts, integer-linear on tori.

    `components` gives the target coordinate functions on the source chart
    (for complex charts only the z-components; zb follows by conjugation).
    `matrix` gives the integer matrix of a torus map, acting on real axes:
    target coordinates = matrix @ source coordinates.
    """

    source: Chart
    target: Chart
    components: tuple = None
    matrix: tuple = None

    def __post_init__(self):
        if (self.components is None) == (self.matrix is None):
            raise ValueError("exactly one of components/matrix must be given")
        if self.source.is_torus != self.target.is_torus or \
                self.source.is_complex != self.target.is_complex:
            raise ValueError(f"unsupported map kind {self.source} -> {self.target}")
        if self.matrix is not None:
            if not self.source.is_torus:
                raise ValueError("matrix rule requires torus charts")
            rows = tuple(tuple(int(v) for v in row) for row in self.matrix)
            if len(rows) != self.target.nvars or any(len(r) != self.source.nvars for r in rows):
                raise ValueError("torus matrix has wrong shape")
            object.__setattr__(self, "matrix", rows)
            if self.source.is_complex and not self._is_complex_linear():
                raise ValueError("complex torus maps must commute with the complex structure")
        else:
            if self.source.is_torus:
                raise ValueError("component rule requires affine charts")
            comps = tuple(self.components)
            if len(comps) != self.target.dim:
                raise ValueError("component count must match target coordinates")
            for comp in comps:
                if comp.chart != self.source:
                    raise ChartMismatchError("map components must live on the source chart")
                if self.source.is_complex:
                    n = self.source.dim
                    if any(a[j] for a, _, _ in comp.terms for j in range(n, 2 * n)):
                        raise ValueError("complex chart maps must be holomorphic (no zb)")
            object.__setattr__(self, "components", comps)

    def _is_complex_linear(self) -> bool:
        n = self.source.dim
        m = self.target.dim

        def j_apply(vec):
            return tuple(-v for v in vec[n:]) + tuple(vec[:n])

        for e in range(2 * n):
            basis = tuple(1 if s == e else 0 for s in range(2 * n))
            aj = _matvec(self.matrix, j_apply(basis))
            ja = _matvec(self.matrix, basis)
            ja = tuple(-v for v in ja[m:]) + tuple(ja[:m])
            if aj != ja:
                return False
        return True

    def variable_images(self) -> tuple:
        """Source-chart scalars substituted for each target variable."""
        if self.components is None:
            raise ValueError("torus maps have no global coordinate functions")
        if self.target.is_complex:
            return self.components + tuple(c.conjugate() for c in self.components)
        return self.components

    def _linear_parts(self):
        """(A, b) with target var = sum A[t][s]*source var + b[t]; None if nonlinear."""
        if self.components is None:
            return None
        nsrc = self.source.dim if self.source.is_complex else self.source.nvars
        a_rows, b_vec = [], []
        for comp in self.components:
            if comp.total_degree() > 1:
                return None
            row = [ZERO] * nsrc
            b = ZERO
            for alpha, _k, c in comp.terms:
                deg = sum(alpha)
                if deg == 0:
                    b = c
                else:
                    row[alpha.index(1)] = c
            a_rows.append(row)
            b_vec.append(b)
        return a_rows, b_vec

    @property
    def is_invertible(self) -> bool:
        if self.matrix is not None:
            if self.source.nvars != self.target.nvars:
                return False
            from .linalg import det_dense
            d = det_dense([[gq(v) for v in row] for row in self.matrix])
            return d.is_real and abs(d.re) == 1
        parts = self._linear_parts()
        if parts is None or self.source.dim != self.target.dim:
            return False
        from .linalg import det_dense
        return bool(det_dense(parts[0]))

    def inverse(self) -> "ChartMap":
        if not self.is_invertible:
            raise ValueError("chart map is not invertible")
        if self.matrix is not None:
            inv = invert_dense([[gq(v) for v in row] for row in self.matrix])
            rows = tuple(tuple(int(v.re) for v in row) for row in inv)
            return ChartMap(self.target, self.source, matrix=rows)
        a_rows, b_vec = self._linear_parts()
        inv = invert_dense(a_rows)
        comps = []
        for t in range(len(inv)):
            comp = zero(self.target)
            for s, c in enumerate(inv[t]):
                if c:
                    comp = comp + coordinate(self.target, s) * c - const(self.target, c * b_vec[s])
            comps.append(comp)
        return ChartMap(self.target, self.source, components=tuple(comps))


def identity_map(chart: Chart) -> ChartMap:
    if chart.is_torus:
        n = chart.nvars
        rows = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        return ChartMap(chart, chart, matrix=rows)
    comps = tuple(coordinate(chart, j) for j in range(chart.dim))
    return ChartMap(chart, chart, components=comps)


# -- text grammar --------------------------------------------------------

_COEFF_PAREN = re.compile(r"^\((-?\d+(?:/\d+)?)([+-])(\d+(?:/\d+)?)?i\)$")
_COEFF_IMAG = re.compile(r"^(-?)(\d+(?:/\d+)?)?i$")
_COEFF_REAL = re.compile(r"^-?\d+(?:/\d+)?$")
_VAR = re.compile(r"^([a-z]+\d+)(?:\^(\d+))?$")
_WAVE = re.compile(r"^e\((-?\d+(?:,-?\d+)*)\)$")


def _split_top(text: str, sep: str):
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0 and cur:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur))
    return parts


def parse_gaussian(token: str) -> GaussianRational:
    m = _COEFF_PAREN.match(token)
    if m:
        re_part = Fraction(m.group(1))
        im_part = Fraction(m.group(3)) if m.group(3) else Fraction(1)
        if m.group(2) == "-":
            im_part = -im_part
        return gq(re_part, im_part)
    m = _COEFF_IMAG.match(token)
    if m:
        mag = Fraction(m.group(2)) if m.group(2) else Fraction(1)
        return gq(0, -mag if m.group(1) == "-" else mag)
    if _COEFF_REAL.match(token):
        return gq(Fraction(token))
    raise ValueError(f"not a Gaussian rational: {token!r}")


def parse_scalar(chart: Chart, text: str) -> ScalarExpr:
    """Parse the rendering grammar, e.g. ``3/2*x1^2 + (1+i)*e(1,-1)``."""
    text = text.replace(" ", "")
    if not text or text == "0":
        return zero(chart)
    var_index = {chart.var_name(j): j for j in range(chart.nvars)}
    terms = []
    for term_text in _split_top(text, "+"):
        coeff = ONE
        alpha = [0] * chart.nvars
        k = [0] * chart.nvars
        for factor in _split_top(term_text, "*"):
            m = _WAVE.match(factor)
            if m:
                entries = [int(v) for v in m.group(1).split(",")]
                if len(entries) != chart.nvars:
                    raise ValueError(f"frequency arity mismatch in {factor!r}")
                k = [a + b for a, b in zip(k, entries)]
                continue
            m = _VAR.match(factor)
            if m and m.group(1) in var_index:
                alpha[var_index[m.group(1)]] += int(m.group(2) or 1)
                continue
            coeff = coeff * parse_gaussian(factor)
        terms.append((tuple(alpha), tuple(k), coeff))
    return ScalarExpr(chart, tuple(terms))

"""Exact scalar expressions on model charts.

A scalar is a finite sum of terms ``c * x^alpha * e(k)`` where ``c`` is a
Gaussian rational, ``alpha`` is a vector of polynomial exponents and ``k`` a
vector of integer frequencies (``e(k)`` denotes ``exp(i<k, x>)``).  Each chart
kind allows only one species: affine charts are purely polynomial, tori purely
trigonometric.  Complex charts store polynomials in z and zb (the conjugate),
or frequencies over the underlying real axes.

Expressions are kept in canonical form at all times: terms sorted by
(alpha, k), no duplicate keys, no zero coefficients.  Two expressions are
semantically equal iff their term tuples are identical.  The operators build
canonical results directly from canonical operands: each merges its terms
into a dict as it goes, drops cancelled coefficients and wraps the sorted
dict without a further check.  A product with a one-term operand shifts
every key of the other operand by one vector, which keeps their order, and
scales every coefficient, which cancels nothing in the field Q(i): it is
built term by term with no merge.  The public constructor is the entry point
for outside input: it verifies input that is already canonical and fits the
chart in one pass and keeps it as given; any other input is merged, sorted
and validated.  Exponents and frequencies must be ints; coefficients must be
ints, Fractions or Gaussian rationals.

A `ChartMap` is immutable and keeps what pulling back through it needs in
memos on itself: the powers of its variable images that `compose` uses on
affine charts, the columns of a torus map's matrix A, the pulled-back
coframe wedges that `exterior` uses, and its inverse.  They are filled on
first use and are not fields, so ==, hash and repr see only the map.  A
torus map sends e(k) o f to e(A^T k); `ChartMap.pull` gives A^T k, and it is
the one place this rule is written: `compose` and the band model over a
map (`cohomology._Model.pull`) read it there.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add, mul

from .charts import (
    Chart,
    ChartCompatibilityError,
    ChartKind,
    ChartMismatchError,
)
from .linalg import invert_dense
from .rationals import I, ONE, ZERO, GaussianRational, from_parts, gq

Term = "tuple[tuple[int, ...], tuple[int, ...], GaussianRational]"

_HALF_I = gq(0, Fraction(1, 2))
_INT = {int}
_new = object.__new__
_set = object.__setattr__


def _expr(chart: Chart, terms: tuple) -> "ScalarExpr":
    """Wrap `terms` that are already canonical and fit `chart` (no check)."""
    s = _new(ScalarExpr)
    _set(s, "chart", chart)
    _set(s, "terms", terms)
    return s


def _wrap(chart: Chart, merged: dict) -> "ScalarExpr":
    """The expression of a {(alpha, k): nonzero coeff} dict whose keys fit
    `chart`: the keys are sorted, nothing is re-validated."""
    return _expr(chart, tuple([(a, k, c) for (a, k), c in sorted(merged.items())]))


def _accumulate(merged: dict, key, c) -> None:
    """Add `c` at `key`; the key goes when its coefficient cancels."""
    cur = merged.pop(key, None)
    cur = c if cur is None else cur + c
    if cur:
        merged[key] = cur


def _is_canonical(terms: tuple, chart: Chart) -> bool:
    """One pass: True iff `terms` is already canonical and meets every
    condition the `ScalarExpr` constructor checks on `chart`."""
    zeros, nvars, torus = chart.zeros, chart.nvars, chart.is_torus
    prev = None
    for term in terms:
        if type(term) is not tuple or len(term) != 3:
            return False
        alpha, k, c = term
        if type(alpha) is not tuple or type(k) is not tuple or \
                type(c) is not GaussianRational or not c or \
                not _INT.issuperset(map(type, alpha + k)):
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
        chart = self.chart
        if type(self.terms) is tuple and _is_canonical(self.terms, chart):
            return
        merged: dict = {}
        for alpha, k, coeff in self.terms:
            alpha, k = tuple(alpha), tuple(k)
            if len(alpha) != chart.nvars or len(k) != chart.nvars:
                raise ChartCompatibilityError(
                    f"term shape {len(alpha)}/{len(k)} does not fit chart {chart}")
            if not _INT.issuperset(map(type, alpha + k)):
                raise ChartCompatibilityError(
                    f"exponents and frequencies must be ints, got {alpha}/{k}")
            if min(alpha) < 0:
                raise ChartCompatibilityError("negative polynomial exponent")
            if chart.is_torus and any(alpha):
                raise ChartCompatibilityError(f"polynomial term on torus chart {chart}")
            if not chart.is_torus and any(k):
                raise ChartCompatibilityError(f"frequency term on affine chart {chart}")
            if type(coeff) is not GaussianRational:
                if type(coeff) not in (int, Fraction):
                    raise ChartCompatibilityError(
                        f"coefficients must be ints, Fractions or Gaussian rationals, "
                        f"got {coeff!r}")
                coeff = gq(coeff)
            _accumulate(merged, (alpha, k), coeff)
        _set(self, "terms", tuple([(a, k, c) for (a, k), c in sorted(merged.items())]))

    # -- ring structure ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        # canonical terms have distinct (alpha, k), so a constant has at most one
        zeros = self.chart.zeros
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0] == zeros
                                  and self.terms[0][1] == zeros)

    def constant_value(self) -> GaussianRational:
        if self.is_zero:
            return ZERO
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return self.terms[0][2]

    def _require_same(self, other: "ScalarExpr"):
        if self.chart is not other.chart and self.chart != other.chart:
            raise ChartMismatchError(f"{self.chart} vs {other.chart}")

    def __add__(self, other):
        if isinstance(other, ScalarExpr):
            self._require_same(other)
            if not other.terms:
                return self
            if not self.terms:
                return other
            merged = {(a, k): c for a, k, c in self.terms}
            for a, k, c in other.terms:
                _accumulate(merged, (a, k), c)
            return _wrap(self.chart, merged)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, ScalarExpr):
            return self + (-other)
        return NotImplemented

    def __neg__(self):
        return _expr(self.chart, tuple([(a, k, -c) for a, k, c in self.terms]))

    def __mul__(self, other):
        if isinstance(other, ScalarExpr):
            self._require_same(other)
            chart = self.chart
            # one species per chart: only frequencies (torus) or only
            # exponents (affine) add up, the other half stays the zero vector
            torus, zeros = chart.is_torus, chart.zeros
            if len(other.terms) == 1 or len(self.terms) == 1:
                many, one = (self, other) if len(other.terms) == 1 else (other, self)
                (a0, k0, c0), = one.terms
                if torus:
                    return _expr(chart, tuple([(a, tuple(map(add, k, k0)), c * c0)
                                               for a, k, c in many.terms]))
                return _expr(chart, tuple([(tuple(map(add, a, a0)), k, c * c0)
                                           for a, k, c in many.terms]))
            merged: dict = {}
            for a1, k1, c1 in self.terms:
                for a2, k2, c2 in other.terms:
                    key = (zeros, tuple(map(add, k1, k2))) if torus else \
                        (tuple(map(add, a1, a2)), zeros)
                    _accumulate(merged, key, c1 * c2)
            return _wrap(chart, merged)
        if isinstance(other, (GaussianRational, int, Fraction)):
            c0 = other if isinstance(other, GaussianRational) else gq(other)
            if not c0:
                return _expr(self.chart, ())
            return _expr(self.chart, tuple([(a, k, c * c0) for a, k, c in self.terms]))
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
        chart = self.chart
        if chart.is_torus:  # e(k) -> e(-k) reverses the order of the keys
            return _expr(chart, tuple([(a, tuple([-x for x in k]), c.conjugate())
                                       for a, k, c in reversed(self.terms)]))
        if chart.kind is ChartKind.AFFINE_COMPLEX:  # z^a zb^b -> z^b zb^a
            n = chart.dim
            return _wrap(chart, {(a[n:] + a[:n], k): c.conjugate() for a, k, c in self.terms})
        return _expr(chart, tuple([(a, k, c.conjugate()) for a, k, c in self.terms]))

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
        # one species per chart, so each term gives at most one term whose key
        # is its own, or its own shifted by a fixed vector: the order survives
        out = []
        for alpha, k, c in self.terms:
            if alpha[axis]:
                down = alpha[:axis] + (alpha[axis] - 1,) + alpha[axis + 1:]
                out.append((down, k, c * alpha[axis]))
            elif k[axis]:
                # c * i * k as a component swap
                out.append((alpha, k, from_parts(-c.b * k[axis], c.a * k[axis], c.d)))
        return _expr(self.chart, tuple(out))

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
            return _expr(self.chart, tuple(out))
        n = self.chart.dim
        j, conjugated = slot % n, slot >= n
        out = []
        for alpha, k, c in self.terms:
            kx, ky = k[j], k[n + j]
            if kx or ky:
                # (i*kx + ky)/2, or (i*kx - ky)/2 on the conjugate slot
                mult = from_parts(-ky if conjugated else ky, kx, 2)
                out.append((alpha, k, c * mult))
        return _expr(self.chart, tuple(out))

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
        zeros, merged = cmap.source.zeros, {}
        if cmap.matrix is not None:
            for _a, k, c in self.terms:
                _accumulate(merged, (zeros, cmap.pull(k)), c)
            return _wrap(cmap.source, merged)
        for alpha, _k, c in self.terms:
            term = None
            for j, a in enumerate(alpha):
                if a:
                    p = cmap.image_power(j, a)
                    term = p if term is None else term * p
            if term is None:
                _accumulate(merged, (zeros, zeros), c)
            else:
                for a2, k2, c2 in term.terms:
                    _accumulate(merged, (a2, k2), c2 * c)
        return _wrap(cmap.source, merged)

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


# -- chart maps ----------------------------------------------------------


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
            rows = tuple(tuple(row) for row in self.matrix)
            bad = [v for row in rows for v in row if type(v) is not int]
            if bad:
                raise ValueError(f"torus matrix entries must be integers, got {bad[0]!r}")
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
        """Whether A commutes with (x, y) -> (-y, x), the block form [[P, -Q], [Q, P]]
        on the axes (x_1..x_n, y_1..y_n): A[t][j] = A[m + t][n + j], A[t][n + j] = -A[m + t][j]."""
        a, n, m = self.matrix, self.source.dim, self.target.dim
        return all(a[t][j] == a[m + t][n + j] and a[t][n + j] == -a[m + t][j]
                   for t in range(m) for j in range(n))

    def variable_images(self) -> tuple:
        """Source-chart scalars substituted for each target variable."""
        if self.components is None:
            raise ValueError("torus maps have no global coordinate functions")
        if self.target.is_complex:
            return self.components + tuple(c.conjugate() for c in self.components)
        return self.components

    @cached_property
    def _columns(self) -> tuple:
        return tuple(zip(*self.matrix))

    def pull(self, k) -> tuple:
        """The source frequency A^T k of the target frequency k of a torus
        map: e(k) o f = e(A^T k)."""
        return tuple([sum(map(mul, column, k)) for column in self._columns])

    def off_cube(self, max_freq: int) -> set:
        """The distinct source frequencies A^T k of the target frequencies
        |k_i| <= max_freq that fall off the source cube |m_j| <= max_freq.
        On a line k = (prefix, t), A^T k = A^T (prefix, 0) + t a, a the last
        row of A, is in the source cube for t in one interval [lo, hi], and
        only the frequencies off it are made."""
        *rows, last = self.matrix
        freqs, out = range(-max_freq, max_freq + 1), set()
        for prefix in itertools.product(freqs, repeat=len(rows)):
            base, lo, hi = self.pull((*prefix, 0)), -max_freq, max_freq
            for b, a in zip(base, last):
                # -N <= b + t a <= N: t from ceil(low / a) to floor(high / a)
                if a:
                    low, high = (-max_freq - b, max_freq - b)[::1 if a > 0 else -1]
                    lo, hi = max(lo, -(-low // a)), min(hi, high // a)
                elif abs(b) > max_freq:
                    lo, hi = 1, 0
            out.update(tuple([b + t * a for b, a in zip(base, last)])
                       for t in freqs if not lo <= t <= hi)
        return out

    @cached_property
    def _image_powers(self) -> dict:
        return {}

    def image_power(self, j: int, a: int) -> ScalarExpr:
        """The a-th power of the image of target variable j, memoised."""
        p = self._image_powers.get((j, a))
        if p is None:
            p = self._image_powers[(j, a)] = self.variable_images()[j].power(a)
        return p

    @cached_property
    def coframe_pullbacks(self) -> dict:
        """Memo of `exterior.pullback`: target index set I -> f*(dx^I)."""
        return {}

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
        return self._inverse is not None

    def inverse(self) -> "ChartMap":
        if self._inverse is None:
            raise ValueError("chart map is not invertible")
        return self._inverse

    @cached_property
    def _inverse(self):
        """The inverse map, or None when there is none; worked out once by
        one elimination, which refuses a singular matrix (`invert_dense`).
        An integer matrix has an integer inverse exactly when det = +-1."""
        torus = self.matrix is not None
        parts = ([[gq(v) for v in row] for row in self.matrix], None) if torus \
            else self._linear_parts()
        if parts is None or len(parts[0]) != len(parts[0][0]):
            return None
        a_rows, b_vec = parts
        try:
            inv = invert_dense(a_rows)
        except ValueError:
            return None
        if torus:
            if any(v.d != 1 for row in inv for v in row):
                return None
            return ChartMap(self.target, self.source,
                            matrix=tuple(tuple(v.a for v in row) for row in inv))
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
# spaces between two characters of one number, name or basis token
_SPLIT_TOKEN = re.compile(r"[^ +*^;(),] +[^ +*^;(),]")


def _strip_spaces(text: str) -> str:
    """`text` without its spaces, which may stand only next to one of
    ``+ * ^ ; ( ) ,``; a space inside a token is refused, not joined."""
    m = _SPLIT_TOKEN.search(text)
    if m:
        raise ValueError(f"space inside a token in {text!r}: {m.group(0)!r}")
    return text.replace(" ", "")


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
    if parts and not cur:
        raise ValueError(f"dangling {sep!r} at the end of {text!r}")
    if cur:
        parts.append("".join(cur))
    return parts


def parse_gaussian(token: str) -> GaussianRational:
    try:
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
    except ZeroDivisionError:
        raise ValueError(f"not a Gaussian rational: {token!r} (zero denominator)") from None
    raise ValueError(f"not a Gaussian rational: {token!r}")


def parse_scalar(chart: Chart, text: str) -> ScalarExpr:
    """Parse the rendering grammar, e.g. ``3/2*x1^2 + (1+i)*e(1,-1)``."""
    text = _strip_spaces(text)
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

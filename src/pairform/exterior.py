"""Single-form exterior calculus: wedge, d, contraction, Lie derivative,
pullback/pushforward, and flat-metric Hodge theory on tori.

Forms are stored over the chart's coframe slots (dx1..dxn on real charts,
dz1..dzn, dzb1..dzbn on complex ones) with strictly increasing int index
tuples and scalar coefficients.  The operators build canonical results
directly: each merges its components into a dict as it goes, drops the ones
that cancel and wraps the sorted dict without a further check.  The `Form`
constructor is the entry point for outside input: it verifies components
that are already canonical in one pass and keeps them as given; any other
input is merged, sorted and checked.  Each wedge f*(dx^I) of pulled-back
coframes is built once per map and kept in the map's memo
(`ChartMap.coframe_pullbacks`); it serves pullback, pushforward and the
band minors.  A pullback sums (s_I o f) f*(dx^I) over the components
s_I dx^I into one merge; a pushforward's component on target slot t is
(i_X f*(dx_t)) o f^-1 for every kind of map; over a torus map A,
f*(dx^I) = sum_J det A[I, J] dx^J holds the minors that a relative band
model reads (`cohomology._Model.minors`).  The Lie derivative of a constant
field acts on coefficients only (L_X dx^j = d(X^j) = 0); any other field
goes through the homotopy formula d i_X + i_X d.  The coordinate formula is kept
out of the library and used only as an independent oracle in the tests.
The flat codifferential is applied by its coordinate formula; the
composite of Hodge stars serves as its reference in the tests.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .charts import Chart, ChartKind, ChartMismatchError, require_same_chart
from .linalg import invert_dense
from .rationals import ZERO, GaussianRational, gq
from .scalar import (ChartMap, ScalarExpr, _new, _set, _split_top, _strip_spaces, const,
                     parse_scalar)
from .scalar import zero as scalar_zero


def _form(chart: Chart, degree: int, components: tuple) -> "Form":
    """Wrap `components` that are already canonical on `chart` (no check)."""
    f = _new(Form)
    _set(f, "chart", chart)
    _set(f, "degree", degree)
    _set(f, "components", components)
    return f


def _wrap(chart: Chart, degree: int, merged: dict) -> "Form":
    """The form of an {index set: nonzero scalar} dict whose index sets are
    strictly increasing slots of `chart`: sorted, not re-validated."""
    return _form(chart, degree, tuple(sorted(merged.items())))


def _accumulate(merged: dict, idx: tuple, s: ScalarExpr) -> None:
    """Add `s` at `idx`; the index set goes when its scalar cancels."""
    cur = merged.pop(idx, None)
    cur = s if cur is None else cur + s
    if cur.terms:
        merged[idx] = cur


def _is_canonical(components: tuple, chart: Chart, degree: int) -> bool:
    """One pass: True iff `components` is already canonical and meets every
    condition the `Form` constructor checks.  A component whose index set
    has `degree` strictly increasing entries in [0, nslots) also proves
    0 <= degree <= nslots."""
    n = chart.nslots
    prev = None
    for comp in components:
        if type(comp) is not tuple or len(comp) != 2:
            return False
        idx, s = comp
        if type(idx) is not tuple or len(idx) != degree or type(s) is not ScalarExpr \
                or not s.terms or not (s.chart is chart or s.chart == chart):
            return False
        last = -1
        for j in idx:
            if type(j) is not int or j <= last or not 0 <= j < n:
                return False
            last = j
        if prev is not None and idx <= prev:
            return False
        prev = idx
    return True


@dataclass(frozen=True)
class Form:
    """A homogeneous differential form; `degree` is meaningful even when zero."""

    chart: Chart
    degree: int
    components: tuple

    def __post_init__(self):
        if type(self.components) is tuple and \
                _is_canonical(self.components, self.chart, self.degree):
            return
        merged: dict = {}
        for idx, s in self.components:
            idx = tuple(idx)
            if not isinstance(s, ScalarExpr):
                raise ValueError(f"form component must be a ScalarExpr, got {s!r}")
            if any(type(j) is not int for j in idx):
                raise ValueError(f"bad index set {idx} for degree {self.degree}")
            _accumulate(merged, idx, s)
        canon = tuple(sorted(merged.items()))
        object.__setattr__(self, "components", canon)
        n = self.chart.nslots
        if (self.degree < 0 or self.degree > n) and canon:
            raise ValueError(f"degree {self.degree} form must be zero on {self.chart}")
        for idx, s in canon:
            if len(idx) != self.degree or any(not 0 <= j < n for j in idx) or \
                    any(idx[i] >= idx[i + 1] for i in range(len(idx) - 1)):
                raise ValueError(f"bad index set {idx} for degree {self.degree}")
            if s.chart != self.chart:
                raise ChartMismatchError("component scalar on wrong chart")

    @property
    def is_zero(self) -> bool:
        return not self.components

    def component(self, idx) -> ScalarExpr:
        idx = tuple(idx)
        for i, s in self.components:
            if i == idx:
                return s
        return scalar_zero(self.chart)

    def _require_same(self, other: "Form"):
        if self.chart != other.chart:
            raise ChartMismatchError(f"{self.chart} vs {other.chart}")

    def __add__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        self._require_same(other)
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degrees")
        merged = dict(self.components)
        for idx, s in other.components:
            _accumulate(merged, idx, s)
        return _wrap(self.chart, self.degree, merged)

    def __sub__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return _form(self.chart, self.degree, tuple([(i, -s) for i, s in self.components]))

    def __mul__(self, other):
        if isinstance(other, (ScalarExpr, GaussianRational, int, Fraction)):
            return _form(self.chart, self.degree, tuple(
                [(i, p) for i, s in self.components if (p := s * other).terms]))
        return NotImplemented

    __rmul__ = __mul__

    def conjugate(self) -> "Form":
        """Complex conjugation (swaps dz and dzb slots on complex charts)."""
        if not self.chart.is_complex:
            return _form(self.chart, self.degree,
                         tuple([(i, s.conjugate()) for i, s in self.components]))
        n = self.chart.dim
        out = {}
        for idx, s in self.components:
            swapped = tuple(j + n if j < n else j - n for j in idx)
            sign, sorted_idx = _sort_with_sign(swapped)
            out[sorted_idx] = s.conjugate() if sign > 0 else -s.conjugate()
        return _wrap(self.chart, self.degree, out)

    def __str__(self) -> str:
        if not self.components:
            return "0"
        parts = []
        for idx, s in self.components:
            if not idx:
                parts.append(str(s))
            else:
                basis = "^".join(self.chart.slot_name(j) for j in idx)
                parts.append(f"({s})*{basis}")
        return " + ".join(parts)


@dataclass(frozen=True)
class VectorField:
    """Components over the chart frame (d/dx, or d/dz and d/dzb).

    `__post_init__` decides once whether every component is constant and
    keeps the answer as a plain attribute, not a field, so ==, hash and repr
    see only (chart, components)."""

    chart: Chart
    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        if len(comps) != self.chart.nslots:
            raise ValueError("component count must equal the chart frame size")
        for c in comps:
            if c.chart != self.chart:
                raise ChartMismatchError("vector field component on wrong chart")
        object.__setattr__(self, "_constant", all(c.is_constant() for c in comps))

    def is_constant(self) -> bool:
        return self._constant

    def is_holomorphic(self) -> bool:
        """True when the dzb half vanishes and the dz half has no zb dependence."""
        if not self.chart.is_complex:
            return False
        n = self.chart.dim
        if any(not c.is_zero for c in self.components[n:]):
            return False
        return all(c.wirtinger(n + j).is_zero
                   for c in self.components[:n] for j in range(n))

    def apply(self, f: ScalarExpr) -> ScalarExpr:
        """Directional derivative of a scalar."""
        out = scalar_zero(self.chart)
        for j, c in enumerate(self.components):
            if not c.is_zero:
                out = out + c * f.wirtinger(j)
        return out

    def __add__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        require_same_chart(self, other)
        return VectorField(self.chart, tuple(a + b for a, b in
                                             zip(self.components, other.components)))

    def __sub__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        require_same_chart(self, other)
        return VectorField(self.chart, tuple(a - b for a, b in
                                             zip(self.components, other.components)))

    def __neg__(self):
        return VectorField(self.chart, tuple(-c for c in self.components))

    def __str__(self) -> str:
        return "(" + "; ".join(str(c) for c in self.components) + ")"


# -- constructors ---------------------------------------------------------


def zero_form(chart: Chart, degree: int) -> Form:
    return Form(chart, degree, ())


def form(chart: Chart, degree: int, components: dict) -> Form:
    return Form(chart, degree, tuple(components.items()))


def coframe(chart: Chart, j: int) -> Form:
    """The basis 1-form of slot j (dx_j, dz_j or dzb_j)."""
    return Form(chart, 1, (((j,), const(chart, 1)),))


def scalar_form(s: ScalarExpr) -> Form:
    return _form(s.chart, 0, (((), s),) if s.terms else ())


def constant_field(chart: Chart, coeffs) -> VectorField:
    comps = tuple(const(chart, c) for c in coeffs)
    return VectorField(chart, comps)


def _sort_with_sign(idx):
    idx = list(idx)
    sign = 1
    for i in range(len(idx)):
        for j in range(len(idx) - 1 - i):
            if idx[j] > idx[j + 1]:
                idx[j], idx[j + 1] = idx[j + 1], idx[j]
                sign = -sign
    if any(idx[i] == idx[i + 1] for i in range(len(idx) - 1)):
        return 0, ()
    return sign, tuple(idx)


def _merge(left, right):
    """Sign and union of two disjoint increasing index tuples (0 if they meet)."""
    if set(left) & set(right):
        return 0, ()
    inversions = sum(1 for a in left for b in right if a > b)
    return (-1 if inversions % 2 else 1), tuple(sorted(left + right))


# -- core operators -------------------------------------------------------


def wedge(a: Form, b: Form) -> Form:
    require_same_chart(a, b)
    merged: dict = {}
    for ia, sa in a.components:
        for ib, sb in b.components:
            sign, idx = _merge(ia, ib)
            if sign:
                prod = sa * sb
                _accumulate(merged, idx, prod if sign > 0 else -prod)
    return _wrap(a.chart, a.degree + b.degree, merged)


def ext_d(a: Form) -> Form:
    merged: dict = {}
    for idx, s in a.components:
        for j in range(a.chart.nslots):
            p = bisect_left(idx, j)  # dx_j moves past the p slots below j
            if p < len(idx) and idx[p] == j:
                continue
            ds = s.wirtinger(j)
            if ds.terms:
                _accumulate(merged, idx[:p] + (j,) + idx[p:], -ds if p % 2 else ds)
    return _wrap(a.chart, a.degree + 1, merged)


def interior(x: VectorField, a: Form) -> Form:
    require_same_chart(x, a)
    merged: dict = {}
    for idx, s in a.components:
        for r, j in enumerate(idx):
            comp = x.components[j]
            if comp.terms:
                prod = comp * s
                _accumulate(merged, idx[:r] + idx[r + 1:], -prod if r % 2 else prod)
    return _wrap(a.chart, a.degree - 1, merged)


def lie(x: VectorField, a: Form) -> Form:
    """Lie derivative.  For a constant field, L_X(s dx^I) = X(s) dx^I, since
    L_X dx^j = d(X^j) = 0 in the slot frame of every chart kind; any other
    field goes through the homotopy formula d i_X + i_X d."""
    if x.is_constant():
        require_same_chart(x, a)
        return _form(a.chart, a.degree, tuple(
            [(idx, xs) for idx, s in a.components if (xs := x.apply(s)).terms]))
    return ext_d(interior(x, a)) + interior(x, ext_d(a))


def bracket(x: VectorField, y: VectorField) -> VectorField:
    require_same_chart(x, y)
    comps = tuple(x.apply(yc) - y.apply(xc)
                  for xc, yc in zip(x.components, y.components))
    return VectorField(x.chart, comps)


# -- chart maps -----------------------------------------------------------


def _coframe_pullback(cmap: ChartMap, slot: int) -> Form:
    """f*(dx_slot): d of the slot's image on an affine chart, the row
    sum_j A[slot][j] dx_j on a real torus.  A complex torus map is
    complex-linear (`ChartMap` checks it), z_t o f = sum_j c_tj w_j with
    c_tj = A[t][j] + i A[n_t + t][j], so f*(dz_t) = sum_j c_tj dw_j and
    f*(dzb_t) is its conjugate on the dwb_j slots."""
    src, tgt = cmap.source, cmap.target
    if cmap.components is not None:
        return ext_d(scalar_form(cmap.image_power(slot, 1)))
    if not tgt.is_complex:
        return _form(src, 1, tuple([((j,), const(src, m))
                                    for j, m in enumerate(cmap.matrix[slot]) if m]))
    nt, ns = tgt.dim, src.dim
    t, conjugated = slot % nt, slot >= nt
    comps = []
    for j in range(ns):
        c = gq(cmap.matrix[t][j], cmap.matrix[nt + t][j])
        if c:
            comps.append(((ns + j,), const(src, c.conjugate())) if conjugated
                         else ((j,), const(src, c)))
    return _form(src, 1, tuple(comps))


def _pulled_coframe(cmap: ChartMap, idx: tuple) -> Form:
    """f*(dx^I) for a target index set I, from the map's memo."""
    memo = cmap.coframe_pullbacks
    w = memo.get(idx)
    if w is None:
        if not idx:
            w = scalar_form(const(cmap.source, 1))
        elif len(idx) == 1:
            w = _coframe_pullback(cmap, idx[0])
        else:
            w = wedge(_pulled_coframe(cmap, idx[:-1]), _pulled_coframe(cmap, idx[-1:]))
        memo[idx] = w
    return w


def pullback(cmap: ChartMap, a: Form) -> Form:
    """f*(sum_I s_I dx^I) = sum_I (s_I o f) f*(dx^I), merged in one dict."""
    if a.chart != cmap.target:
        raise ChartMismatchError("pullback target chart mismatch")
    merged: dict = {}
    for idx, s in a.components:
        sf = s.compose(cmap)
        if sf.terms:
            for jdx, w in _pulled_coframe(cmap, idx).components:
                _accumulate(merged, jdx, sf * w)
    return _wrap(cmap.source, a.degree, merged)


def pushforward(cmap: ChartMap, x: VectorField) -> VectorField:
    """f_*X, whose component on target slot t is (i_X f*(dx_t)) o f^-1, for
    every kind of map."""
    if x.chart != cmap.source:
        raise ChartMismatchError("pushforward source chart mismatch")
    if not cmap.is_invertible:
        raise ValueError("pushforward requires an invertible chart map")
    inv = cmap.inverse()
    return VectorField(cmap.target, tuple(
        interior(x, _pulled_coframe(cmap, (t,))).component(()).compose(inv)
        for t in range(cmap.target.nslots)))


# -- flat Hodge theory on tori ---------------------------------------------


def _require_real_torus(a):
    if a.chart.kind is not ChartKind.TORUS:
        raise ChartMismatchError(f"flat Hodge operators require a real torus, got {a.chart}")


def hodge_star(a: Form) -> Form:
    _require_real_torus(a)
    n = a.chart.nslots
    if a.is_zero:
        return zero_form(a.chart, n - a.degree)
    out = {}
    full = tuple(range(n))
    for idx, s in a.components:
        comp = tuple(j for j in full if j not in idx)
        sign, _ = _merge(idx, comp)
        out[comp] = s if sign > 0 else -s
    return _wrap(a.chart, n - a.degree, out)


def codiff(a: Form) -> Form:
    """Flat codifferential -sum_j i_(d/dx_j) d/dx_j, the formal adjoint of d:
    delta(s dx^I) = sum_r (-1)^(r+1) (d s/dx_(i_r)) dx^(I minus i_r), r from 0.
    It equals (-1)^(n(p+1)+1) * d * on p-forms."""
    _require_real_torus(a)
    merged: dict = {}
    for idx, s in a.components:
        for r, j in enumerate(idx):
            ds = s.partial(j)
            if ds.terms:
                _accumulate(merged, idx[:r] + idx[r + 1:], ds if r % 2 else -ds)
    return _wrap(a.chart, a.degree - 1, merged)


def laplacian(a: Form) -> Form:
    _require_real_torus(a)
    return ext_d(codiff(a)) + codiff(ext_d(a))


def sharp(w: Form) -> VectorField:
    """Metric dual of a 1-form in flat orthonormal torus coordinates."""
    _require_real_torus(w)
    if w.degree != 1:
        raise ValueError("sharp expects a 1-form")
    comps = [scalar_zero(w.chart)] * w.chart.nslots
    for (j,), s in w.components:
        comps[j] = s
    return VectorField(w.chart, tuple(comps))


def inner(a: Form, b: Form) -> GaussianRational:
    """Torus inner product integral(a wedge *conj(b)); conjugation makes it
    positive definite on complex-exponential coefficients."""
    require_same_chart(a, b)
    if a.degree != b.degree and not (a.is_zero or b.is_zero):
        raise ValueError("inner product requires equal degrees")
    top = wedge(a, hodge_star(b.conjugate()))
    full = tuple(range(a.chart.nslots))
    return top.component(full).torus_integral()


# -- symplectic helpers -----------------------------------------------------


def hamiltonian_field(omega: Form, f: Form) -> VectorField:
    """Solve i_X omega = -df for constant-coefficient nondegenerate omega."""
    require_same_chart(omega, f)
    if omega.degree != 2 or f.degree != 0:
        raise ValueError("expected a 2-form and a 0-form")
    n = omega.chart.nslots
    if n % 2:
        raise ValueError("chart dimension must be even")
    w = [[ZERO] * n for _ in range(n)]
    for (i, j), s in omega.components:
        if not s.is_constant():
            raise ValueError("omega must have constant coefficients")
        c = s.constant_value()
        w[i][j], w[j][i] = c, -c
    try:
        inv = invert_dense([[w[j][i] for j in range(n)] for i in range(n)])
    except ValueError:
        raise ValueError("omega is degenerate") from None
    df = ext_d(f)
    grad = [df.component((j,)) for j in range(n)]
    comps = tuple(_linear_combo(omega.chart, inv[k], [-g for g in grad])
                  for k in range(n))
    x = VectorField(omega.chart, comps)
    residual = interior(x, omega) + df
    if not residual.is_zero:
        raise AssertionError("hamiltonian solve failed verification")
    return x


def _linear_combo(chart, coeffs, scalars):
    out = scalar_zero(chart)
    for c, s in zip(coeffs, scalars):
        if c and not s.is_zero:
            out = out + s * c
    return out


# -- Lichnerowicz operators for a parallel 1-form ---------------------------


def require_parallel_one_form(w: Form):
    """Reject anything but a constant-coefficient 1-form on a real torus."""
    _require_real_torus(w)
    if w.degree != 1:
        raise ValueError("expected a 1-form")
    for _, s in w.components:
        if not s.is_constant():
            raise ValueError("the twisting 1-form must have constant coefficients")


def one_form_norm2(w: Form) -> GaussianRational:
    """<w, w> for a constant-coefficient 1-form (bilinear, not hermitian)."""
    require_parallel_one_form(w)
    total = ZERO
    for _, s in w.components:
        c = s.constant_value()
        total = total + c * c
    return total


def lichnerowicz_d(w: Form, a: Form) -> Form:
    require_parallel_one_form(w)
    return ext_d(a) + wedge(w, a)


def lichnerowicz_delta(w: Form, a: Form) -> Form:
    require_parallel_one_form(w)
    return codiff(a) + interior(sharp(w), a)


def lichnerowicz_lap(w: Form, a: Form) -> Form:
    require_parallel_one_form(w)
    return lichnerowicz_d(w, lichnerowicz_delta(w, a)) + \
        lichnerowicz_delta(w, lichnerowicz_d(w, a))


# -- text grammar -----------------------------------------------------------

_BASIS_TOKEN = re.compile(r"d(x|z|zb)\[(\d+)\]")


def _slot_from_token(chart: Chart, kind: str, index: int) -> int:
    j = index - 1
    if kind == "x" and not chart.is_complex:
        pass
    elif kind == "z" and chart.is_complex:
        pass
    elif kind == "zb" and chart.is_complex:
        j += chart.dim
    else:
        raise ValueError(f"basis token d{kind}[{index}] does not fit chart {chart}")
    if not 0 <= j < chart.nslots:
        raise ValueError(f"basis index {index} out of range")
    return j


def parse_form(chart: Chart, text: str) -> Form:
    """Parse the form grammar, e.g. ``(x1)*dx[2] + dx[1]^dx[3]``."""
    text = _strip_spaces(text)
    if not text or text == "0":
        return zero_form(chart, 0)
    degree, comps = None, []
    for summand in _split_top(text, "+"):
        m = re.search(r"(d(?:x|zb?)\[\d+\](?:\^d(?:x|zb?)\[\d+\])*)$", summand)
        if not m:
            comps.append(((), parse_scalar(chart, summand)))
            degree = 0 if degree is None else degree
            continue
        basis_text = m.group(1)
        head = summand[: m.start()].rstrip("*")
        if head.startswith("(") and head.endswith(")"):
            head = head[1:-1]
        s = parse_scalar(chart, head) if head else const(chart, 1)
        slots = [_slot_from_token(chart, k, int(i))
                 for k, i in _BASIS_TOKEN.findall(basis_text)]
        sign, idx = _sort_with_sign(slots)
        if degree is None:
            degree = len(slots)
        if len(slots) != degree:
            raise ValueError("mixed degrees in form literal")
        if sign:
            comps.append((idx, s * sign))
    return Form(chart, degree if degree is not None else 0, tuple(comps))


def parse_field(chart: Chart, text: str) -> VectorField:
    """Parse `;`-separated components; complex charts take z-components only."""
    for i, part in enumerate(text.split(";"), 1):
        if not part.strip():
            raise ValueError(f"vector field component {i} of {text!r} is empty")
    parts = [parse_scalar(chart, p) for p in text.split(";")]
    if chart.is_complex:
        if len(parts) != chart.dim:
            raise ValueError("expected one z-component per complex coordinate")
        comps = tuple(parts) + tuple(scalar_zero(chart) for _ in range(chart.dim))
        return VectorField(chart, comps)
    if len(parts) != chart.nslots:
        raise ValueError("component count must match the chart dimension")
    return VectorField(chart, tuple(parts))

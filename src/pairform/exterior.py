"""Single-form exterior calculus: wedge, d, contraction, Lie derivative,
pullback/pushforward, and flat-metric Hodge theory on tori.

Forms are stored over the chart's coframe slots (dx1..dxn on real charts,
dz1..dzn, dzb1..dzbn on complex ones) with strictly increasing index tuples
and scalar coefficients.  The `Form` constructor verifies components that
are already canonical in one pass and keeps them as given; any other input
is merged, sorted and checked.  The Lie derivative of a constant field
acts on coefficients only (L_X dx^j = d(X^j) = 0); any other field goes
through the homotopy formula d i_X + i_X d.  The coordinate formula is kept
out of the library and used only as an independent oracle in the tests.
The flat codifferential is applied by its coordinate formula; the
composite of Hodge stars serves as its reference in the tests.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .charts import Chart, ChartKind, ChartMismatchError, require_same_chart
from .linalg import invert_dense
from .rationals import ZERO, GaussianRational, gq
from .scalar import ChartMap, ScalarExpr, _split_top, const, parse_scalar
from .scalar import zero as scalar_zero


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
            if j <= last or not 0 <= j < n:
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
            cur = merged.get(idx)
            cur = s if cur is None else cur + s
            if cur.is_zero:
                merged.pop(idx, None)
            else:
                merged[idx] = cur
        canon = tuple((idx, merged[idx]) for idx in sorted(merged))
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
        if self.degree != other.degree and not (self.is_zero or other.is_zero):
            raise ValueError("cannot add forms of different degrees")
        degree = other.degree if self.is_zero and not other.is_zero else self.degree
        return Form(self.chart, degree, self.components + other.components)

    def __sub__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Form(self.chart, self.degree,
                    tuple((i, -s) for i, s in self.components))

    def __mul__(self, other):
        if isinstance(other, (ScalarExpr, GaussianRational, int)):
            return Form(self.chart, self.degree,
                        tuple((i, s * other) for i, s in self.components))
        return NotImplemented

    __rmul__ = __mul__

    def conjugate(self) -> "Form":
        """Complex conjugation (swaps dz and dzb slots on complex charts)."""
        if not self.chart.is_complex:
            return Form(self.chart, self.degree,
                        tuple((i, s.conjugate()) for i, s in self.components))
        n = self.chart.dim
        out = []
        for idx, s in self.components:
            swapped = tuple(j + n if j < n else j - n for j in idx)
            sign, sorted_idx = _sort_with_sign(swapped)
            out.append((sorted_idx, s.conjugate() * sign))
        return Form(self.chart, self.degree, tuple(out))

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
    return Form(s.chart, 0, (((), s),))


def frame_field(chart: Chart, j: int) -> VectorField:
    comps = tuple(const(chart, 1) if s == j else scalar_zero(chart)
                  for s in range(chart.nslots))
    return VectorField(chart, comps)


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
    out = []
    for ia, sa in a.components:
        for ib, sb in b.components:
            sign, idx = _merge(ia, ib)
            if sign:
                out.append((idx, sa * sb * sign))
    return Form(a.chart, a.degree + b.degree, tuple(out))


def ext_d(a: Form) -> Form:
    chart = a.chart
    out = []
    for idx, s in a.components:
        for j in range(chart.nslots):
            ds = s.wirtinger(j)
            if ds.is_zero:
                continue
            sign, merged = _merge((j,), idx)
            if sign:
                out.append((merged, ds * sign))
    return Form(chart, a.degree + 1, tuple(out))


def interior(x: VectorField, a: Form) -> Form:
    require_same_chart(x, a)
    out = []
    for idx, s in a.components:
        for r, j in enumerate(idx):
            comp = x.components[j]
            if comp.is_zero:
                continue
            rest = idx[:r] + idx[r + 1:]
            coeff = comp * s if r % 2 == 0 else comp * s * -1
            out.append((rest, coeff))
    return Form(a.chart, a.degree - 1, tuple(out))


def lie(x: VectorField, a: Form) -> Form:
    """Lie derivative.  For a constant field, L_X(s dx^I) = X(s) dx^I, since
    L_X dx^j = d(X^j) = 0 in the slot frame of every chart kind; any other
    field goes through the homotopy formula d i_X + i_X d."""
    if x.is_constant():
        require_same_chart(x, a)
        return Form(a.chart, a.degree, tuple((idx, x.apply(s)) for idx, s in a.components))
    return ext_d(interior(x, a)) + interior(x, ext_d(a))


def bracket(x: VectorField, y: VectorField) -> VectorField:
    require_same_chart(x, y)
    comps = tuple(x.apply(yc) - y.apply(xc)
                  for xc, yc in zip(x.components, y.components))
    return VectorField(x.chart, comps)


# -- chart maps -----------------------------------------------------------


def _coframe_pullback(cmap: ChartMap, slot: int) -> Form:
    src, tgt = cmap.source, cmap.target
    if cmap.components is not None:
        images = cmap.variable_images()
        return ext_d(scalar_form(images[slot]))
    if not tgt.is_complex:
        comps = {(j,): const(src, cmap.matrix[slot][j])
                 for j in range(src.nvars) if cmap.matrix[slot][j]}
        return Form(src, 1, tuple(comps.items()))
    # complex torus: dz_t = dx_t + i dy_t, pulled back through the real matrix,
    # then re-expressed in the source dz/dzb coframe.
    nt, ns = tgt.dim, src.dim
    t, conjugated = slot % nt, slot >= nt
    half, minus_half_i, half_i = gq("1/2"), gq(0, "-1/2"), gq(0, "1/2")
    acc: dict = {}
    for k in range(2 * ns):
        c = gq(cmap.matrix[t][k], cmap.matrix[nt + t][k])
        if conjugated:
            c = c.conjugate()
        if not c:
            continue
        if k < ns:  # dx_k = (dw_k + dwb_k)/2
            for s_idx in (k, ns + k):
                acc[s_idx] = acc.get(s_idx, ZERO) + c * half
        else:  # dy_k = -(i/2)(dw_k - dwb_k)
            j = k - ns
            acc[j] = acc.get(j, ZERO) + c * minus_half_i
            acc[ns + j] = acc.get(ns + j, ZERO) + c * half_i
    comps = {(j,): const(src, v) for j, v in acc.items() if v}
    return Form(src, 1, tuple(comps.items()))


def pullback(cmap: ChartMap, a: Form) -> Form:
    if a.chart != cmap.target:
        raise ChartMismatchError("pullback target chart mismatch")
    coframe_images = {}
    out = Form(cmap.source, a.degree, ())
    for idx, s in a.components:
        piece = scalar_form(s.compose(cmap))
        for j in idx:
            if j not in coframe_images:
                coframe_images[j] = _coframe_pullback(cmap, j)
            piece = wedge(piece, coframe_images[j])
        out = out + piece
    return out


def pushforward(cmap: ChartMap, x: VectorField) -> VectorField:
    if x.chart != cmap.source:
        raise ChartMismatchError("pushforward source chart mismatch")
    if not cmap.is_invertible:
        raise ValueError("pushforward requires an invertible chart map")
    inv = cmap.inverse()
    src, tgt = cmap.source, cmap.target
    comps = []
    if cmap.components is not None:
        images = cmap.variable_images()
        for t in range(tgt.nslots):
            total = scalar_zero(src)
            for j, xc in enumerate(x.components):
                if not xc.is_zero:
                    total = total + xc * images[t].wirtinger(j)
            comps.append(total.compose(inv))
    elif not tgt.is_complex:
        for t in range(tgt.nvars):
            total = scalar_zero(src)
            for j, xc in enumerate(x.components):
                if cmap.matrix[t][j] and not xc.is_zero:
                    total = total + xc * cmap.matrix[t][j]
            comps.append(total.compose(inv))
    else:
        nt, ns = tgt.dim, src.dim
        for slot in range(2 * nt):
            t, conjugated = slot % nt, slot >= nt
            total = scalar_zero(src)
            for k in range(ns):
                c = gq(cmap.matrix[t][k], cmap.matrix[nt + t][k])
                if conjugated:
                    c = c.conjugate()
                xc = x.components[ns + k] if conjugated else x.components[k]
                if c and not xc.is_zero:
                    total = total + xc * c
            comps.append(total.compose(inv))
    return VectorField(tgt, tuple(comps))


# -- flat Hodge theory on tori ---------------------------------------------


def _require_real_torus(a):
    if a.chart.kind is not ChartKind.TORUS:
        raise ChartMismatchError(f"flat Hodge operators require a real torus, got {a.chart}")


def hodge_star(a: Form) -> Form:
    _require_real_torus(a)
    n = a.chart.nslots
    if a.is_zero:
        return zero_form(a.chart, n - a.degree)
    out = []
    full = tuple(range(n))
    for idx, s in a.components:
        comp = tuple(j for j in full if j not in idx)
        sign, _ = _merge(idx, comp)
        out.append((comp, s * sign))
    return Form(a.chart, n - a.degree, tuple(out))


def codiff(a: Form) -> Form:
    """Flat codifferential -sum_j i_(d/dx_j) d/dx_j, the formal adjoint of d:
    delta(s dx^I) = sum_r (-1)^(r+1) (d s/dx_(i_r)) dx^(I minus i_r), r from 0.
    It equals (-1)^(n(p+1)+1) * d * on p-forms."""
    _require_real_torus(a)
    out = []
    for idx, s in a.components:
        for r, j in enumerate(idx):
            ds = s.partial(j)
            if not ds.is_zero:
                out.append((idx[:r] + idx[r + 1:], ds if r % 2 else -ds))
    return Form(a.chart, a.degree - 1, tuple(out))


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
    text = text.replace(" ", "")
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
    parts = [parse_scalar(chart, p) for p in text.split(";")]
    if chart.is_complex:
        if len(parts) != chart.dim:
            raise ValueError("expected one z-component per complex coordinate")
        comps = tuple(parts) + tuple(scalar_zero(chart) for _ in range(chart.dim))
        return VectorField(chart, comps)
    if len(parts) != chart.nslots:
        raise ValueError("component count must match the chart dimension")
    return VectorField(chart, tuple(parts))

"""Bigraded calculus on complex charts: the d = del + dbar splitting and the
pair operator it induces together with a holomorphic vector field.

A bigraded form is a plain `Form` whose components all have p holomorphic
and q antiholomorphic slots; `bidegree` reads (p, q) off it and rejects a
form that mixes bidegrees.  The operators below call it once per slot of
their input, so every bidegree check happens at the operator boundary.  The
holomorphic pairs are the ordinary `PairForm` and unprimed `RelPairForm`,
with slots of bidegrees (p, q) and (p, q-1); their wedge and pullback are
`pair_wedge` and `pair_pullback`, whose sign (p + q) mod 2 is the one of
the total degree.

A holomorphic vector field is kept as its (1,0)-part, i.e. a field whose
dzb-components vanish and whose dz-components do not depend on zb.  The
operators below contract and differentiate with that complex field directly;
this preserves bidegree, so its Lie derivative is the plain `lie`, and
matches the identities L_X phi = del(i_X phi), dbar(i_X phi) = 0 for closed
phi.  (Adding the conjugate field would also preserve bidegree but changes
the value of the Lie term; the report records which convention is in
force.)
"""

from __future__ import annotations

from .charts import Chart, ChartMismatchError, require_same_chart
from .exterior import Form, VectorField, _form, ext_d, interior, lie, pullback
from .pair import PairForm
from .relative import RelPairForm
from .scalar import zero as scalar_zero


def bidegree(form: Form):
    """The bidegree (p, q) shared by every component of a form on a complex
    chart, or None for the zero form; raises ValueError if it mixes them."""
    if not form.chart.is_complex:
        raise ChartMismatchError("bidegrees require a complex chart")
    n = form.chart.dim
    holos = {sum(j < n for j in idx) for idx, _ in form.components}
    found = sorted((p, form.degree - p) for p in holos)
    if len(found) > 1:
        raise ValueError(f"form mixes bidegrees {found}")
    return found[0] if found else None


def _split(a: Form, p) -> tuple:
    """(del a, dbar a) for a form whose components all have p holomorphic
    slots (p is None only for the zero form)."""
    n = a.chart.dim
    total = ext_d(a)
    parts = ([], [])
    for idx, s in total.components:
        holo = sum(j < n for j in idx)
        if holo not in (p, p + 1):
            raise AssertionError("exterior derivative left the expected bidegrees")
        parts[holo - p].append((idx, s))
    return (_form(a.chart, total.degree, tuple(parts[1])),
            _form(a.chart, total.degree, tuple(parts[0])))


def _holo(bideg):
    return bideg and bideg[0]


def split_d(a: Form) -> tuple:
    """Split the exterior derivative of a bigraded form into (del a, dbar a)."""
    return _split(a, _holo(bidegree(a)))


def holomorphic_field(chart: Chart, z_components) -> VectorField:
    """Build the (1,0)-part field from z-components; checked for holomorphy."""
    comps = tuple(z_components) + tuple(scalar_zero(chart) for _ in range(chart.dim))
    x = VectorField(chart, comps)
    if not x.is_holomorphic():
        raise ValueError("components must be holomorphic (no zb dependence)")
    return x


def _require_holomorphic(x: VectorField):
    if not x.is_holomorphic():
        raise ValueError("operator requires a holomorphic vector field")


def _pair_holos(first: Form, second: Form) -> tuple:
    """The holomorphic degrees of a pair's slots, checked to be bigraded of
    bidegrees (p, q) and (p, q-1); a zero slot matches any bidegree."""
    top, low = bidegree(first), bidegree(second)
    if top and low and low != (top[0], top[1] - 1):
        raise ValueError("second component must have bidegree (p, q-1)")
    return _holo(top), _holo(low)


def dbar_pair(x: VectorField, a: PairForm) -> PairForm:
    """(dbar phi, L_X phi - dbar psi); raises q by one and squares to zero."""
    require_same_chart(x, a)
    _require_holomorphic(x)
    p_first, p_second = _pair_holos(a.first, a.second)
    return PairForm(_split(a.first, p_first)[1],
                    lie(x, a.first) - _split(a.second, p_second)[1])


def dbar_pair_rel(x: VectorField, a: RelPairForm) -> RelPairForm:
    """(dbar phi, L_X f*phi - dbar psi) with X holomorphic on the source."""
    if a.primed:
        raise ValueError("dbar_pair_rel acts on the unprimed complex")
    if x.chart != a.cmap.source:
        raise ChartMismatchError("the vector field must live on the map's source")
    _require_holomorphic(x)
    p_first, p_second = _pair_holos(a.first, a.second)
    return RelPairForm(a.cmap, _split(a.first, p_first)[1],
                       lie(x, pullback(a.cmap, a.first)) - _split(a.second, p_second)[1])


def lie_exactness_witness(x: VectorField, phi: Form) -> Form:
    """For d-closed phi return i_X phi and certify L_X phi = del(i_X phi),
    dbar(i_X phi) = 0 -- the computable core of the Kaehler triviality step."""
    require_same_chart(x, phi)
    _require_holomorphic(x)
    p = _holo(bidegree(phi))
    if not ext_d(phi).is_zero:
        raise ValueError("lie_exactness_witness requires a d-closed form")
    witness = interior(x, phi)
    d_del, d_bar = _split(witness, None if p is None else p - 1)
    if d_del != lie(x, phi):
        raise AssertionError("Lie derivative is not del of the contraction")
    if not d_bar.is_zero:
        raise AssertionError("contraction of a closed form is not dbar-closed")
    return witness

"""Bigraded calculus on complex charts: the d = del + dbar splitting and the
pair operator it induces together with a holomorphic vector field.

A holomorphic vector field is kept as its (1,0)-part, i.e. a field whose
dzb-components vanish and whose dz-components do not depend on zb.  The
operators below contract and differentiate with that complex field directly;
this preserves bidegree and matches the identities L_X phi = del(i_X phi),
dbar(i_X phi) = 0 for closed phi.  (Adding the conjugate field would also
preserve bidegree but changes the value of the Lie term; the report records
which convention is in force.)
"""

from __future__ import annotations

from dataclasses import dataclass

from .charts import Chart, ChartMismatchError, require_same_chart
from .exterior import (
    Form,
    VectorField,
    _form,
    ext_d,
    interior,
    lie,
    pullback,
    wedge,
    zero_form,
)
from .pair import PairContainer
from .scalar import ChartMap, zero as scalar_zero


@dataclass(frozen=True)
class BigradedForm:
    """A form of pure bidegree (p, q) on a complex chart."""

    form: Form
    p: int
    q: int

    def __post_init__(self):
        chart = self.form.chart
        if not chart.is_complex:
            raise ChartMismatchError("bigraded forms require a complex chart")
        if self.form.degree != self.p + self.q:
            raise ValueError("bidegree does not match the total degree")
        n = chart.dim
        for idx, _ in self.form.components:
            holo = sum(1 for j in idx if j < n)
            if holo != self.p or len(idx) - holo != self.q:
                raise ValueError(f"component {idx} is not of bidegree ({self.p},{self.q})")

    @property
    def chart(self) -> Chart:
        return self.form.chart

    @property
    def is_zero(self) -> bool:
        return self.form.is_zero

    def __add__(self, other):
        if not isinstance(other, BigradedForm):
            return NotImplemented
        if (self.p, self.q) != (other.p, other.q) and not (self.is_zero or other.is_zero):
            raise ValueError("cannot add different bidegrees")
        p, q = (other.p, other.q) if self.is_zero and not other.is_zero else (self.p, self.q)
        return BigradedForm(self.form + other.form, p, q)

    def __sub__(self, other):
        if not isinstance(other, BigradedForm):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return BigradedForm(-self.form, self.p, self.q)

    def __mul__(self, other):
        return BigradedForm(self.form * other, self.p, self.q)

    __rmul__ = __mul__

    def __str__(self) -> str:
        return str(self.form)


def bigraded(form: Form) -> BigradedForm:
    """Wrap a form whose components all share one bidegree."""
    n = form.chart.dim
    bidegrees = {(sum(1 for j in idx if j < n), sum(1 for j in idx if j >= n))
                 for idx, _ in form.components}
    if len(bidegrees) > 1:
        raise ValueError(f"form mixes bidegrees {sorted(bidegrees)}")
    p, q = bidegrees.pop() if bidegrees else (form.degree, 0)
    return BigradedForm(form, p, q)


def zero_bigraded(chart: Chart, p: int, q: int) -> BigradedForm:
    return BigradedForm(zero_form(chart, p + q), p, q)


def split_d(a: BigradedForm) -> tuple:
    """Split the exterior derivative into (del a, dbar a)."""
    n = a.chart.dim
    total = ext_d(a.form)
    del_comps, dbar_comps = [], []
    for idx, s in total.components:
        holo = sum(1 for j in idx if j < n)
        if holo == a.p + 1:
            del_comps.append((idx, s))
        elif holo == a.p:
            dbar_comps.append((idx, s))
        else:
            raise AssertionError("exterior derivative left the expected bidegrees")
    return (
        BigradedForm(_form(a.chart, total.degree, tuple(del_comps)), a.p + 1, a.q),
        BigradedForm(_form(a.chart, total.degree, tuple(dbar_comps)), a.p, a.q + 1),
    )


def del_op(a: BigradedForm) -> BigradedForm:
    return split_d(a)[0]


def dbar_op(a: BigradedForm) -> BigradedForm:
    return split_d(a)[1]


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


def lie_bigraded(x: VectorField, a: BigradedForm) -> BigradedForm:
    """Lie derivative along the (1,0)-field; preserves bidegree."""
    require_same_chart(x, a.form)
    _require_holomorphic(x)
    return BigradedForm(lie(x, a.form), a.p, a.q)


@dataclass(frozen=True)
class PairBigradedForm(PairContainer):
    """A pair of bidegrees (p, q) and (p, q-1) on one complex chart."""

    first: BigradedForm
    second: BigradedForm

    def __post_init__(self):
        if self.first.chart != self.second.chart:
            raise ChartMismatchError("pair components on different charts")
        if (self.second.p, self.second.q) != (self.first.p, self.first.q - 1):
            raise ValueError("second component must have bidegree (p, q-1)")

    @property
    def chart(self) -> Chart:
        return self.first.chart

    @property
    def bidegree(self) -> tuple:
        return (self.first.p, self.first.q)


def dbar_pair(x: VectorField, a: PairBigradedForm) -> PairBigradedForm:
    """(dbar phi, L_X phi - dbar psi); raises q by one and squares to zero."""
    require_same_chart(x, a.first.form)
    _require_holomorphic(x)
    return PairBigradedForm(
        dbar_op(a.first),
        lie_bigraded(x, a.first) - dbar_op(a.second),
    )


def dbar_pair_wedge(a: PairBigradedForm, b: PairBigradedForm) -> PairBigradedForm:
    """Pair wedge with the sign taken from the total degree of `a`."""
    sign = -1 if (a.first.p + a.first.q) % 2 else 1
    first = wedge(a.first.form, b.first.form)
    second = wedge(a.first.form, b.second.form) * sign + wedge(a.second.form, b.first.form)
    p, q = a.first.p + b.first.p, a.first.q + b.first.q
    return PairBigradedForm(
        BigradedForm(first, p, q),
        BigradedForm(second, p, q - 1),
    )


def dbar_pair_pullback(cmap: ChartMap, a: PairBigradedForm) -> PairBigradedForm:
    """Componentwise pullback through a holomorphic map; keeps bidegrees."""
    p, q = a.bidegree
    return PairBigradedForm(
        BigradedForm(pullback(cmap, a.first.form), p, q),
        BigradedForm(pullback(cmap, a.second.form), p, q - 1),
    )


@dataclass(frozen=True)
class RelPairBigradedForm(PairContainer):
    """Relative bigraded pair: first on the map's target, second on its source."""

    cmap: ChartMap
    first: BigradedForm
    second: BigradedForm

    def __post_init__(self):
        if self.first.chart != self.cmap.target or self.second.chart != self.cmap.source:
            raise ChartMismatchError("relative pair components on wrong charts")
        if (self.second.p, self.second.q) != (self.first.p, self.first.q - 1):
            raise ValueError("second component must have bidegree (p, q-1)")


def dbar_pair_rel(x: VectorField, a: RelPairBigradedForm) -> RelPairBigradedForm:
    """(dbar phi, L_X f*phi - dbar psi) with X holomorphic on the source."""
    if x.chart != a.cmap.source:
        raise ChartMismatchError("the vector field must live on the map's source")
    _require_holomorphic(x)
    p, q = a.first.p, a.first.q
    pulled = BigradedForm(pullback(a.cmap, a.first.form), p, q)
    return RelPairBigradedForm(
        a.cmap,
        dbar_op(a.first),
        lie_bigraded(x, pulled) - dbar_op(a.second),
    )


def lie_exactness_witness(x: VectorField, phi: BigradedForm) -> BigradedForm:
    """For d-closed phi return i_X phi and certify L_X phi = del(i_X phi),
    dbar(i_X phi) = 0 -- the computable core of the Kaehler triviality step."""
    require_same_chart(x, phi.form)
    _require_holomorphic(x)
    if not ext_d(phi.form).is_zero:
        raise ValueError("lie_exactness_witness requires a d-closed form")
    witness = BigradedForm(interior(x, phi.form), phi.p - 1, phi.q)
    lhs = lie_bigraded(x, phi)
    if del_op(witness).form != lhs.form:
        raise AssertionError("Lie derivative is not del of the contraction")
    if not dbar_op(witness).is_zero:
        raise AssertionError("contraction of a closed form is not dbar-closed")
    return witness

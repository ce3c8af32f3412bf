"""Pair calculus relative to a chart map f: source -> target.

The unprimed complex pairs a p-form on the target with a (p-1)-form on the
source; its differential twists by the pullback through f and a Lie
derivative on the source.  The primed complex swaps the roles (p-form on the
source, (p-1)-form on the target) and is driven by a 1-form on the target
instead of a vector field.  With f the identity both specialise to the plain
pair calculus.
"""

from __future__ import annotations

from dataclasses import dataclass

from .charts import ChartMismatchError
from .exterior import Form, VectorField, ext_d, interior, lie, pullback, wedge
from .pair import PairContainer
from .scalar import ChartMap


@dataclass(frozen=True)
class RelPairForm(PairContainer):
    """A pair over a chart map; `primed` swaps which side carries the p-form."""

    cmap: ChartMap
    first: Form
    second: Form
    primed: bool = False

    def __post_init__(self):
        first_chart = self.cmap.source if self.primed else self.cmap.target
        second_chart = self.cmap.target if self.primed else self.cmap.source
        if self.first.chart != first_chart:
            raise ChartMismatchError("first component on wrong chart for this map")
        if self.second.chart != second_chart:
            raise ChartMismatchError("second component on wrong chart for this map")
        if self.second.degree != self.first.degree - 1:
            raise ValueError("relative pair degrees must differ by one")

    @property
    def degree(self) -> int:
        return self.first.degree


# -- the unprimed complex -----------------------------------------------------


def rel_d(x: VectorField, a: RelPairForm) -> RelPairForm:
    """(d phi, L_X f*phi - d psi) for X on the map's source; squares to zero."""
    if a.primed:
        raise ValueError("rel_d acts on the unprimed complex")
    if x.chart != a.cmap.source:
        raise ChartMismatchError("the vector field must live on the map's source")
    return RelPairForm(
        a.cmap,
        ext_d(a.first),
        lie(x, pullback(a.cmap, a.first)) - ext_d(a.second),
    )


def rel_wedge(a: RelPairForm, b: RelPairForm) -> RelPairForm:
    """(phi^phi', (-1)^p f*phi^psi' + psi^f*phi')."""
    a._require_compatible(b)
    if a.primed:
        raise ValueError("rel_wedge acts on the unprimed complex")
    sign = -1 if a.degree % 2 else 1
    return RelPairForm(
        a.cmap,
        wedge(a.first, b.first),
        wedge(pullback(a.cmap, a.first), b.second) * sign
        + wedge(a.second, pullback(a.cmap, b.first)),
    )


def closed_pair(x: VectorField, cmap: ChartMap, phi: Form,
                primitive: Form = None, zeta: Form = None) -> RelPairForm:
    """Return the closed relative pair (phi, i_X f*phi) for closed phi.

    When phi = d(primitive) is supplied with its primitive, the pair is also
    verified to be the rel_d-image of (primitive, i_X f*primitive + d zeta),
    so its class vanishes.
    """
    if not ext_d(phi).is_zero:
        raise ValueError("closed_pair requires a closed form")
    out = RelPairForm(cmap, phi, interior(x, pullback(cmap, phi)))
    if not rel_d(x, out).is_zero:
        raise AssertionError("closed_pair output failed the closedness check")
    if primitive is not None:
        second = interior(x, pullback(cmap, primitive))
        if zeta is not None:
            second = second + ext_d(zeta)
        if rel_d(x, RelPairForm(cmap, primitive, second)) != out:
            raise AssertionError("exactness witness failed for closed_pair")
    return out


# -- the primed complex -------------------------------------------------------


def rel_d_lichnerowicz(eta: Form, a: RelPairForm) -> RelPairForm:
    """(d phi - f*(d eta ^ psi), -d psi) on the primed complex."""
    if not a.primed:
        raise ValueError("rel_d_lichnerowicz acts on the primed complex")
    if eta.chart != a.cmap.target or eta.degree != 1:
        raise ChartMismatchError("eta must be a 1-form on the map's target")
    return RelPairForm(
        a.cmap,
        ext_d(a.first) - pullback(a.cmap, wedge(ext_d(eta), a.second)),
        -ext_d(a.second),
        primed=True,
    )


"""Calculus of pair forms.

A pair form of degree p bundles a p-form with a (p-1)-form on the same
chart.  A fixed vector field X turns the graded space of pairs into a
complex: the differential sends (phi, psi) to (d phi, L_X phi - d psi),
which squares to zero because the Lie derivative commutes with d.  For a
field that is not constant, `pair_d` writes the second slot by the Cartan
formula as i_X d phi + d(i_X phi - psi), so d phi is computed once and
serves both slots; a constant field keeps the coefficient-wise Lie
derivative.  The wedge, contraction and Lie operators extend componentwise
with signs that make them (anti)derivations, and on flat tori a
codifferential and a Laplacian complete the picture.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .charts import Chart, ChartKind, ChartMismatchError, require_same_chart
from .exterior import (
    Form,
    VectorField,
    codiff,
    ext_d,
    inner,
    interior,
    laplacian,
    lie,
    pullback,
    wedge,
)
from .rationals import GaussianRational
from .scalar import ChartMap


class PairContainer:
    """Slotwise arithmetic of the pair dataclasses: each result is the same
    class with new `first` and `second` slots and every other field (a chart
    map, the primed flag) carried over, so the class's own checks run on it.
    Operands of two classes do not mix; operands whose other fields differ
    are relative pairs over different maps."""

    def _with(self, first, second):
        return replace(self, first=first, second=second)

    def _require_compatible(self, other):
        if any(v != getattr(other, k) for k, v in vars(self).items()
               if k not in ("first", "second")):
            raise ChartMismatchError("relative pairs over different maps")

    @property
    def is_zero(self) -> bool:
        return self.first.is_zero and self.second.is_zero

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._require_compatible(other)
        return self._with(self.first + other.first, self.second + other.second)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._require_compatible(other)
        return self._with(self.first - other.first, self.second - other.second)

    def __neg__(self):
        return self._with(-self.first, -self.second)

    def __mul__(self, other):
        return self._with(self.first * other, self.second * other)

    __rmul__ = __mul__

    def __str__(self) -> str:
        return f"({self.first} | {self.second})"


@dataclass(frozen=True)
class PairForm(PairContainer):
    first: Form
    second: Form

    def __post_init__(self):
        if self.first.chart != self.second.chart:
            raise ChartMismatchError("pair components on different charts")
        if self.second.degree != self.first.degree - 1:
            raise ValueError(
                f"second component must have degree {self.first.degree - 1}, "
                f"got {self.second.degree}")

    @property
    def chart(self) -> Chart:
        return self.first.chart

    @property
    def degree(self) -> int:
        return self.first.degree


# -- graded algebra ---------------------------------------------------------


def pair_wedge(a: PairForm, b: PairForm) -> PairForm:
    """(phi, psi) ^ (phi', psi') = (phi^phi', (-1)^p phi^psi' + psi^phi')."""
    require_same_chart(a, b)
    sign = -1 if a.degree % 2 else 1
    return PairForm(
        wedge(a.first, b.first),
        wedge(a.first, b.second) * sign + wedge(a.second, b.first),
    )


# -- operators induced by a vector field -------------------------------------


def pair_d(x: VectorField, a: PairForm) -> PairForm:
    """The pair differential (d phi, L_X phi - d psi); squares to zero."""
    require_same_chart(x, a)
    d_phi = ext_d(a.first)
    if x.is_constant():
        return PairForm(d_phi, lie(x, a.first) - ext_d(a.second))
    return PairForm(d_phi, interior(x, d_phi) + ext_d(interior(x, a.first) - a.second))


def pair_interior(x: VectorField, a: PairForm) -> PairForm:
    """(i_X phi, -i_X psi); an antiderivation of degree -1."""
    require_same_chart(x, a)
    return PairForm(interior(x, a.first), -interior(x, a.second))


def pair_lie(x: VectorField, a: PairForm) -> PairForm:
    """Componentwise Lie derivative; a degree-0 derivation."""
    require_same_chart(x, a)
    return PairForm(lie(x, a.first), lie(x, a.second))


def pair_d_lichnerowicz(eta: Form, a: PairForm) -> PairForm:
    """The pair differential (d phi - d eta ^ psi, -d psi) twisted by a 1-form."""
    require_same_chart(eta, a)
    if eta.degree != 1:
        raise ValueError("twisting form must be a 1-form")
    d_eta = ext_d(eta)
    return PairForm(ext_d(a.first) - wedge(d_eta, a.second), -ext_d(a.second))


def pair_pullback(cmap: ChartMap, a: PairForm) -> PairForm:
    """Componentwise pullback; natural for the pair operators."""
    return PairForm(pullback(cmap, a.first), pullback(cmap, a.second))


# -- cochain-level class maps -------------------------------------------------


def class_embed(x: VectorField, phi: Form) -> PairForm:
    """Send a closed form phi to the closed pair (phi, i_X phi)."""
    require_same_chart(x, phi)
    if not ext_d(phi).is_zero:
        raise ValueError("class_embed requires a closed form")
    return PairForm(phi, interior(x, phi))


def class_project(x: VectorField, a: PairForm) -> Form:
    """Send a closed pair (phi, psi) to the closed form i_X phi - psi."""
    require_same_chart(x, a)
    if not pair_d(x, a).is_zero:
        raise ValueError("class_project requires a closed pair")
    return interior(x, a.first) - a.second


def class_split(x: VectorField, a: PairForm) -> tuple:
    """Split a closed pair into its two closed-form class representatives."""
    return a.first, class_project(x, a)


def class_combine(x: VectorField, phi: Form, psi_hat: Form) -> PairForm:
    """Inverse of class_split on representatives: (phi, i_X phi - psi_hat)."""
    require_same_chart(x, phi, psi_hat)
    return PairForm(phi, interior(x, phi) - psi_hat)


def transfer(x: VectorField, y: VectorField, a: PairForm) -> PairForm:
    """Move a pair from the X-complex to the Y-complex: add i_(Y-X) phi."""
    require_same_chart(x, y, a)
    return PairForm(a.first, interior(y - x, a.first) + a.second)


# -- flat-torus harmonic theory ----------------------------------------------


def _require_killing(u: VectorField):
    if u.chart.kind is not ChartKind.TORUS:
        raise ChartMismatchError("harmonic pair operators require a real torus")
    if not u.is_constant():
        raise ValueError("the vector field must be constant (Killing)")


def _pair_codiff(u: VectorField, a: PairForm, sign: int) -> PairForm:
    """(delta phi + sign * L_U psi, -delta psi)."""
    require_same_chart(u, a)
    _require_killing(u)
    first, lie_psi = codiff(a.first), lie(u, a.second)
    return PairForm(first + lie_psi if sign > 0 else first - lie_psi, -codiff(a.second))


def _pair_laplacian(u: VectorField, a: PairForm, cod, sign: int, message: str) -> PairForm:
    """cod . pair_d + pair_d . cod, asserted against its closed form: the
    componentwise Laplacian plus `sign` times the squared Lie derivative."""
    require_same_chart(u, a)
    _require_killing(u)
    out = cod(u, pair_d(u, a)) + pair_d(u, cod(u, a))

    def closed(f):
        lap, lie_sq = laplacian(f), lie(u, lie(u, f))
        return lap + lie_sq if sign > 0 else lap - lie_sq

    if out != PairForm(closed(a.first), closed(a.second)):
        raise AssertionError(message)
    return out


def pair_codiff(u: VectorField, a: PairForm) -> PairForm:
    """(delta phi + L_U psi, -delta psi); squares to zero for constant U."""
    return _pair_codiff(u, a, 1)


def pair_laplacian(u: VectorField, a: PairForm) -> PairForm:
    """Pair Laplacian as the anticommutator of pair_d and pair_codiff.

    The closed form (componentwise Laplacian plus the squared Lie
    derivative) is asserted against the composite on every call.
    """
    return _pair_laplacian(u, a, pair_codiff, 1,
                           "pair Laplacian composite disagrees with its closed form")


def pair_codiff_skew(u: VectorField, a: PairForm) -> PairForm:
    """(delta phi - L_U psi, -delta psi): the true adjoint of pair_d.

    pair_codiff carries +L_U psi, which is adjoint to the L_X term of
    pair_d only if the Lie derivative were self-adjoint; for a Killing
    field it is skew-adjoint, so the sign here is flipped.  Both versions
    are exercised and reported by the check suites.
    """
    return _pair_codiff(u, a, -1)


def pair_laplacian_corrected(u: VectorField, a: PairForm) -> PairForm:
    """Anticommutator of pair_d with its true adjoint pair_codiff_skew.

    Componentwise this is the Laplacian minus the squared Lie derivative, a
    nonnegative operator whose kernel has the cohomology dimensions - the
    harmonic theory the sign-corrected adjoint buys back.
    """
    return _pair_laplacian(u, a, pair_codiff_skew, -1,
                           "corrected pair Laplacian disagrees with its closed form")


def pair_inner(a: PairForm, b: PairForm) -> GaussianRational:
    """<<(phi,psi),(phi',psi')>> = <phi,phi'> + <psi,psi'> on a torus."""
    require_same_chart(a, b)
    if a.degree != b.degree:
        raise ValueError("pair inner product requires equal degrees")
    return inner(a.first, b.first) + inner(a.second, b.second)

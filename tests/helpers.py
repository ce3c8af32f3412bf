"""Constructors that only the tests use: no library or CLI code calls them."""

from fractions import Fraction

from pairform.exterior import Form, VectorField, zero_form
from pairform.pair import PairForm
from pairform.rationals import gq
from pairform.relative import RelPairForm
from pairform.scalar import ChartMap, ScalarExpr, const, wave
from pairform.scalar import zero as scalar_zero


def normalize(chart, raw_terms) -> ScalarExpr:
    """Canonicalise a raw term list: merge keys, drop zeros, sort."""
    return ScalarExpr(chart, tuple(raw_terms))


def cos_wave(chart, k) -> ScalarExpr:
    """cos(<k, x>) encoded through complex exponentials."""
    k = tuple(k)
    return wave(chart, k, gq("1/2")) + wave(chart, tuple(-x for x in k), gq("1/2"))


def frame_field(chart, j: int) -> VectorField:
    """The coordinate field of slot j."""
    return VectorField(chart, tuple(const(chart, 1) if s == j else scalar_zero(chart)
                                    for s in range(chart.nslots)))


def norm2(z) -> Fraction:
    """The squared modulus re^2 + im^2 of a Gaussian rational, read off its
    integer numerators and common denominator."""
    return Fraction(z.a * z.a + z.b * z.b, z.d * z.d)


def zero_pair(chart, degree: int) -> PairForm:
    return PairForm(zero_form(chart, degree), zero_form(chart, degree - 1))


def from_form(phi: Form) -> PairForm:
    """phi -> (phi, 0)."""
    return PairForm(phi, zero_form(phi.chart, phi.degree - 1))


def include_second(cmap: ChartMap, psi: Form) -> RelPairForm:
    """psi on the source -> (0, psi); a cochain map against -d."""
    return RelPairForm(cmap, zero_form(cmap.target, psi.degree + 1), psi)


def include_first(cmap: ChartMap, phi: Form) -> RelPairForm:
    """phi on the source -> (phi, 0) in the primed complex."""
    return RelPairForm(cmap, phi, zero_form(cmap.target, phi.degree - 1), primed=True)


def cohomology_memos() -> tuple:
    """Every process-wide `_Memo` of `pairform.cohomology`: band verdicts
    and formal matrices."""
    from pairform import cohomology

    return cohomology._CERTIFIED, cohomology._PARTS


def clear_certificates() -> None:
    """Empty every process-wide `_Memo` of `pairform.cohomology`."""
    for memo in cohomology_memos():
        memo.clear()

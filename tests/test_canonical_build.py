"""The scalar and form operators build canonical results directly, without
the validating constructor.  This is the fast path; the slow path is the
public constructor applied to the raw, un-merged term list that a plain
term-by-term expansion gives (duplicate keys, cancelled and unsorted terms
included).  On seeded random operands over every identity-suite chart each
rewritten operator must return a result that the independent oracle finds
canonical and that equals the slow path's."""

import random
from fractions import Fraction

import pytest

from pairform.charts import ChartKind, torus
from pairform.dolbeault import bidegree, split_d
from pairform.exterior import (
    Form,
    VectorField,
    codiff,
    coframe,
    ext_d,
    hodge_star,
    interior,
    lie,
    scalar_form,
    wedge,
)
from pairform.randgen import (
    random_automorphism,
    random_bigraded,
    random_coeff,
    random_field,
    random_form,
    random_scalar,
)
from pairform.rationals import I, ZERO, from_parts, gq
from pairform.scalar import ChartMap, ScalarExpr, const, coordinate, wave
from pairform.suites import CHART_KEYS

from oracles import canonical_form_faults, canonical_scalar_faults, perm_sign

CHARTS = sorted(CHART_KEYS)
TRIALS = 25


def _vsum(u, v):
    return tuple(x + y for x, y in zip(u, v))


def _operand(rng, chart, s=None):
    """A random scalar; given `s`, often one that shares or cancels its terms."""
    t = random_scalar(rng, chart, max_terms=3)
    if s is None or rng.random() < 0.3:
        return t
    return rng.choice([-s, t - s, t + s * random_coeff(rng)])


# -- raw term lists of the slow path ----------------------------------------


def _raw_partial(s, axis):
    chart = s.chart
    if chart.kind is ChartKind.AFFINE_COMPLEX:
        n, j = chart.dim, axis % chart.dim
        dz, dzb = _raw_wirtinger(s, j), _raw_wirtinger(s, n + j)
        if axis < n:
            return dz + dzb
        return tuple((a, k, c * I) for a, k, c in dz) + \
            tuple((a, k, -c * I) for a, k, c in dzb)
    out = []
    for alpha, k, c in s.terms:
        if alpha[axis]:
            down = tuple(v - (i == axis) for i, v in enumerate(alpha))
            out.append((down, k, c * alpha[axis]))
        if k[axis]:
            out.append((alpha, k, c * gq(0, k[axis])))
    return tuple(out)


def _raw_wirtinger(s, slot):
    chart = s.chart
    if chart.kind in (ChartKind.AFFINE, ChartKind.TORUS):
        return _raw_partial(s, slot)
    if chart.kind is ChartKind.AFFINE_COMPLEX:
        return tuple((tuple(v - (i == slot) for i, v in enumerate(a)), k, c * a[slot])
                     for a, k, c in s.terms if a[slot])
    n = chart.dim
    j, sign = slot % n, (-1 if slot >= n else 1)
    return tuple((a, k, c * from_parts(sign * k[n + j], k[j], 2))
                 for a, k, c in s.terms if k[j] or k[n + j])


def _raw_conjugate(s):
    chart, out = s.chart, []
    for alpha, k, c in s.terms:
        if chart.kind is ChartKind.AFFINE_COMPLEX:
            alpha = alpha[chart.dim:] + alpha[:chart.dim]
        if chart.is_torus:
            k = tuple(-v for v in k)
        out.append((alpha, k, c.conjugate()))
    return tuple(out)


def _raw_compose(s, cmap):
    cols = list(zip(*cmap.matrix))
    return tuple((cmap.source.zeros, tuple(sum(r * v for r, v in zip(col, k)) for col in cols), c)
                 for _a, k, c in s.terms)


def _check_scalar(got, chart, raw):
    assert canonical_scalar_faults(got) == []
    assert got == ScalarExpr(chart, raw)


def _check_form(got, chart, degree, raw):
    assert canonical_form_faults(got) == []
    assert got == Form(chart, degree, raw)
    assert got.degree == degree


# -- scalars -----------------------------------------------------------------


@pytest.mark.parametrize("key", CHARTS)
def test_scalar_operators_build_canonical_results(key):
    chart = CHART_KEYS[key]
    rng = random.Random(f"scalar/{key}")
    for _ in range(TRIALS):
        s = random_scalar(rng, chart, max_terms=3)
        t = _operand(rng, chart, s)
        c0 = rng.choice([random_coeff(rng), 3, Fraction(-2, 3), 0, ZERO])
        _check_scalar(s + t, chart, s.terms + t.terms)
        _check_scalar(s - t, chart, s.terms + tuple((a, k, -c) for a, k, c in t.terms))
        _check_scalar(-s, chart, tuple((a, k, -c) for a, k, c in s.terms))
        _check_scalar(s * t, chart, tuple(
            (_vsum(a1, a2), _vsum(k1, k2), c1 * c2)
            for a1, k1, c1 in s.terms for a2, k2, c2 in t.terms))
        _check_scalar(s * c0, chart, tuple((a, k, c * c0) for a, k, c in s.terms))
        _check_scalar(c0 * s, chart, tuple((a, k, c * c0) for a, k, c in s.terms))
        _check_scalar(s.conjugate(), chart, _raw_conjugate(s))
        for axis in range(chart.nvars):
            _check_scalar(s.partial(axis), chart, _raw_partial(s, axis))
        for slot in range(chart.nslots):
            _check_scalar(s.wirtinger(slot), chart, _raw_wirtinger(s, slot))
        cmap = random_automorphism(rng, chart)
        pulled = s.compose(cmap)
        assert canonical_scalar_faults(pulled) == []
        if cmap.matrix is not None:
            _check_scalar(pulled, chart, _raw_compose(s, cmap))


@pytest.mark.parametrize("key", CHARTS)
def test_scalar_cancellation_gives_the_canonical_zero(key):
    chart = CHART_KEYS[key]
    rng = random.Random(f"zero/{key}")
    for _ in range(TRIALS):
        s = random_scalar(rng, chart, max_terms=3)
        for out in (s + (-s), s - s, s * 0, s * ZERO, 0 * s, s * Fraction(0)):
            assert out.terms == ()
            assert canonical_scalar_faults(out) == []


def test_products_and_pullbacks_that_cancel_drop_the_terms():
    r1 = CHART_KEYS["r2"]
    x = coordinate(r1, 0)
    one = const(r1, 1)
    assert (x + one) * (x - one) == x * x - one
    assert canonical_scalar_faults((x + one) * (x - one)) == []
    # T1 -> T2, theta -> (theta, theta): e(1,0) - e(0,1) pulls back to 0
    t1, t2 = torus(1), torus(2)
    diagonal = ChartMap(t1, t2, matrix=((1,), (1,)))
    pulled = (wave(t2, (1, 0)) - wave(t2, (0, 1))).compose(diagonal)
    assert pulled.terms == ()
    doubled = (wave(t2, (1, 0)) + wave(t2, (0, 1))).compose(diagonal)
    assert doubled.terms == ((t1.zeros, (1,), gq(2)),)


# -- forms -------------------------------------------------------------------


def _raw_wedge(a, b):
    out = []
    for ia, sa in a.components:
        for ib, sb in b.components:
            sign = perm_sign(ia + ib)
            if sign:
                out.append((tuple(sorted(ia + ib)), sa * sb * sign))
    return tuple(out)


def _raw_ext_d(a):
    out = []
    for idx, s in a.components:
        for j in range(a.chart.nslots):
            sign = perm_sign((j,) + idx)
            if sign:
                out.append((tuple(sorted((j,) + idx)), s.wirtinger(j) * sign))
    return tuple(out)


def _raw_interior(x, a):
    return tuple((idx[:r] + idx[r + 1:], x.components[j] * s * (-1) ** r)
                 for idx, s in a.components for r, j in enumerate(idx))


def _form_operand(rng, chart, degree, a=None):
    b = random_form(rng, chart, degree, max_components=3, max_terms=3)
    if a is None or a.degree != degree or rng.random() < 0.3:
        return b
    return rng.choice([-a, b - a, b + a * random_coeff(rng)])


@pytest.mark.parametrize("key", CHARTS)
def test_form_operators_build_canonical_results(key):
    chart = CHART_KEYS[key]
    rng = random.Random(f"form/{key}")
    for _ in range(TRIALS):
        p = rng.randint(0, chart.nslots)
        a = _form_operand(rng, chart, p)
        b = _form_operand(rng, chart, p, a)
        c = _form_operand(rng, chart, rng.randint(0, chart.nslots - p))
        s = random_scalar(rng, chart, max_terms=2)
        x = random_field(rng, chart)
        x_const = random_field(rng, chart, constant=True)
        _check_form(a + b, chart, p, a.components + b.components)
        _check_form(-a, chart, p, tuple((i, -s) for i, s in a.components))
        for factor in (s, random_coeff(rng), 2, Fraction(1, 3), 0):
            raw = tuple((i, t * factor) for i, t in a.components)
            _check_form(a * factor, chart, p, raw)
            _check_form(factor * a, chart, p, raw)
        _check_form(wedge(a, c), chart, p + c.degree, _raw_wedge(a, c))
        _check_form(ext_d(a), chart, p + 1, _raw_ext_d(a))
        _check_form(interior(x, a), chart, p - 1, _raw_interior(x, a))
        _check_form(lie(x_const, a), chart, p,
                    tuple((i, x_const.apply(t)) for i, t in a.components))
        assert canonical_form_faults(lie(x, a)) == []


def _raw_conjugate_form(a):
    chart = a.chart
    if not chart.is_complex:
        return tuple((i, s.conjugate()) for i, s in a.components)
    n = chart.dim
    out = []
    for idx, s in a.components:
        swapped = tuple(j + n if j < n else j - n for j in idx)
        out.append((tuple(sorted(swapped)), s.conjugate() * perm_sign(swapped)))
    return tuple(out)


@pytest.mark.parametrize("key", CHARTS)
def test_internal_form_builders_give_canonical_results(key):
    """scalar_form, conjugate, the torus Hodge star and codifferential and
    the Dolbeault split wrap their results without the constructor."""
    chart = CHART_KEYS[key]
    n = chart.nslots
    rng = random.Random(f"builders/{key}")
    for _ in range(TRIALS):
        p = rng.randint(0, n)
        a = _form_operand(rng, chart, p)
        s = _operand(rng, chart, random_scalar(rng, chart))
        _check_form(scalar_form(s), chart, 0, (((), s),))
        _check_form(scalar_form(s - s), chart, 0, ())
        _check_form(a.conjugate(), chart, p, _raw_conjugate_form(a))
        if chart.kind is ChartKind.TORUS:
            star = []
            for idx, t in a.components:
                rest = tuple(j for j in range(n) if j not in idx)
                star.append((rest, t * perm_sign(idx + rest)))
            _check_form(hodge_star(a), chart, n - p, tuple(star))
            _check_form(codiff(a), chart, p - 1, tuple(
                (idx[:r] + idx[r + 1:], t.partial(j) * (1 if r % 2 else -1))
                for idx, t in a.components for r, j in enumerate(idx)))
        if chart.is_complex:
            q = rng.randint(0, chart.dim)
            p = rng.randint(0, chart.dim)
            b = random_bigraded(rng, chart, p, q)
            assert bidegree(b) in ((p, q), None)
            total = ext_d(b)
            parts = split_d(b)
            for part, holo in zip(parts, (p + 1, p)):
                _check_form(part, chart, b.degree + 1, tuple(
                    (idx, t) for idx, t in total.components
                    if sum(j < chart.dim for j in idx) == holo))
            assert parts[0] + parts[1] == total


@pytest.mark.parametrize("key", CHARTS)
def test_form_cancellation_gives_the_canonical_zero(key):
    chart = CHART_KEYS[key]
    rng = random.Random(f"form-zero/{key}")
    for _ in range(TRIALS):
        p = rng.randint(0, chart.nslots)
        a = random_form(rng, chart, p, max_components=3)
        w = random_form(rng, chart, 1, max_components=3)
        for out in (a + (-a), a - a, a * 0, a * const(chart, 0), wedge(w, w),
                    ext_d(ext_d(a)), lie(random_field(rng, chart, constant=True),
                                         scalar_form(const(chart, random_coeff(rng))))):
            assert out.components == ()
            assert canonical_form_faults(out) == []


def test_zero_operands_keep_the_degree_of_the_nonzero_side():
    r2 = CHART_KEYS["r2"]
    dx = coframe(r2, 0)
    zero2 = Form(r2, 2, ())
    assert (zero2 + dx).degree == 1 and (dx + zero2).degree == 1
    assert (zero2 + Form(r2, 1, ())).degree == 2
    x = VectorField(r2, (const(r2, 1), const(r2, 0)))
    assert interior(x, scalar_form(coordinate(r2, 0))).degree == -1

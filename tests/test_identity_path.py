"""The identity path's fast paths against their slow references.

`pullback` sums (s_I o f) f*(dx^I) in one merge with per-map memos; the
reference is the wedge chain in `oracles.wedge_chain_pullback`.  `pair_d`
writes its second slot by the Cartan formula for a non-constant field; the
reference is (d phi, L_X phi - d psi) with L_X from the library and from the
coordinate formula.  A product with a one-term operand shifts the other
operand's keys; the reference is the public constructor on the raw,
un-merged term list.  The memos live on the `ChartMap` and must not show in
its ==, hash or repr."""

import random

import pytest

from pairform.charts import ChartKind, affine, affine_complex, torus, torus_complex
from pairform.exterior import VectorField, coframe, ext_d, lie, pullback, pushforward
from pairform.pair import PairForm, pair_d
from pairform.randgen import (
    random_automorphism,
    random_coeff,
    random_field,
    random_form,
    random_gl_matrix,
    random_pair,
    random_scalar,
)
from pairform.rationals import gq
from pairform.scalar import ChartMap, ScalarExpr, const, coordinate, identity_map
from pairform.suites import CHART_KEYS

from oracles import canonical_form_faults, canonical_scalar_faults, coordinate_lie, \
    torus_coframe_pullback, wedge_chain_pullback

CHARTS = sorted(CHART_KEYS)
TRIALS = 20


def _vsum(u, v):
    return tuple(x + y for x, y in zip(u, v))


def _polynomial_map(rng, chart):
    """A self-map of an affine chart with polynomial components of degree <= 2
    (holomorphic on complex charts), usually not invertible."""
    n = chart.dim
    comps = []
    for _ in range(n):
        comp = const(chart, rng.choice([0, 1, -1]))
        for _ in range(rng.randint(1, 3)):
            alpha = [0] * chart.nvars
            for _ in range(rng.randint(0, 2)):
                alpha[rng.randrange(n)] += 1
            comp = comp + ScalarExpr(chart, ((tuple(alpha), chart.zeros, random_coeff(rng)),))
        comps.append(comp)
    return ChartMap(chart, chart, components=tuple(comps))


def _maps_into(rng, chart):
    """Maps with target `chart`: its random automorphism and identity, and
    per kind the maps the suites use besides them."""
    maps = [random_automorphism(rng, chart), identity_map(chart)]
    n = chart.nvars
    if chart.kind is ChartKind.TORUS:
        doubling = [[2 if i == j == 0 else int(i == j) for j in range(n)] for i in range(n)]
        maps.append(ChartMap(chart, chart, matrix=tuple(map(tuple, doubling))))
        maps.append(ChartMap(chart, chart, matrix=random_gl_matrix(rng, n)))
        for m in (n - 1, n + 1):  # from a smaller and from a larger torus
            rows = tuple(tuple(rng.randint(-2, 2) for _ in range(m)) for _ in range(n))
            maps.append(ChartMap(torus(m), chart, matrix=rows))
    elif chart.kind is ChartKind.TORUS_COMPLEX:
        d = chart.dim
        rows = [[0] * n for _ in range(n)]
        for j in range(d):  # multiplication by 1 + i
            rows[j][j], rows[j][d + j] = 1, -1
            rows[d + j][j], rows[d + j][d + j] = 1, 1
        maps.append(ChartMap(chart, chart, matrix=tuple(map(tuple, rows))))
    else:
        squaring = [coordinate(chart, 0).power(2)] + \
            [coordinate(chart, j) for j in range(1, chart.dim)]
        maps.append(ChartMap(chart, chart, components=tuple(squaring)))
        maps.append(_polynomial_map(rng, chart))
    return maps


@pytest.mark.parametrize("key", CHARTS)
def test_pullback_matches_the_wedge_chain(key):
    chart = CHART_KEYS[key]
    rng = random.Random(f"pullback/{key}")
    for _ in range(TRIALS):
        for cmap in _maps_into(rng, chart):
            for p in range(chart.nslots + 2):
                a = random_form(rng, chart, p, max_components=3, max_terms=3)
                got = pullback(cmap, a)
                assert canonical_form_faults(got) == []
                assert got.degree == p
                assert got == wedge_chain_pullback(cmap, a)
                # a second call reads the memos the first one filled
                assert pullback(cmap, a) == got


def test_pullback_over_a_gaussian_shear_matches_the_coframe_oracle():
    """The TC2 shear z_1 -> z_1 + (1 + i) z_2 mixes complex coordinates, which
    no map of `_maps_into` does: f*(dz_1) = dz_1 + (1 + i) dz_2 and
    f*(dzb_1) = dzb_1 + (1 - i) dzb_2, each f*(dx_j) equals the axis-by-axis
    `torus_coframe_pullback`, and every pulled-back form the wedge chain
    built from it."""
    tc2 = torus_complex(2)
    shear = ChartMap(tc2, tc2, matrix=((1, 1, 0, -1), (0, 1, 0, 0), (0, 1, 1, 1), (0, 0, 0, 1)))
    assert torus_coframe_pullback(shear, 0) == coframe(tc2, 0) + coframe(tc2, 1) * gq(1, 1)
    assert torus_coframe_pullback(shear, 2) == coframe(tc2, 2) + coframe(tc2, 3) * gq(1, -1)
    for j in range(tc2.nslots):
        assert pullback(shear, coframe(tc2, j)) == torus_coframe_pullback(shear, j)
    rng = random.Random("pullback/tc2-shear")
    for _ in range(TRIALS):
        for p in range(tc2.nslots + 2):
            a = random_form(rng, tc2, p, max_components=3, max_terms=3)
            got = pullback(shear, a)
            assert canonical_form_faults(got) == []
            assert got == wedge_chain_pullback(shear, a)


def test_pullback_between_complex_charts_of_different_dimension():
    c1, c2 = affine_complex(1), affine_complex(2)
    z = coordinate(c2, 0)
    w = coordinate(c2, 1)
    cmap = ChartMap(c2, c1, components=(z * w + z.power(2),))
    rng = random.Random("pullback/c2->c1")
    for _ in range(TRIALS):
        for p in range(4):
            a = random_form(rng, c1, p, max_components=3, max_terms=3)
            assert pullback(cmap, a) == wedge_chain_pullback(cmap, a)


def _non_constant_field(rng, chart):
    while True:
        x = VectorField(chart, tuple(random_scalar(rng, chart, max_terms=2)
                                     for _ in range(chart.nslots)))
        if not x.is_constant():
            return x


@pytest.mark.parametrize("key", CHARTS)
def test_pair_d_matches_the_lie_derivative_form(key):
    chart = CHART_KEYS[key]
    rng = random.Random(f"pair-d/{key}")
    for _ in range(TRIALS):
        for x in (random_field(rng, chart, constant=True), _non_constant_field(rng, chart)):
            a = random_pair(rng, chart, rng.randint(0, chart.nslots + 1),
                            max_components=3, max_terms=3)
            got = pair_d(x, a)
            phi, psi = a.first, a.second
            expected = PairForm(ext_d(phi), lie(x, phi) - ext_d(psi))
            assert got.first == expected.first and got.second == expected.second
            assert got.second == coordinate_lie(x, phi) - ext_d(psi)
            assert canonical_form_faults(got.first) == []
            assert canonical_form_faults(got.second) == []
            assert (got.first.degree, got.second.degree) == (a.degree + 1, a.degree)


def _monomial(rng, chart):
    """A one-term scalar; a constant one time in three."""
    if rng.random() < 1 / 3:
        return const(chart, random_coeff(rng))
    s = random_scalar(rng, chart, max_terms=1, max_degree=3, max_freq=2)
    return s if len(s.terms) == 1 else _monomial(rng, chart)


@pytest.mark.parametrize("key", CHARTS)
def test_one_term_products_shift_the_other_operand(key):
    chart = CHART_KEYS[key]
    rng = random.Random(f"monomial/{key}")
    for _ in range(TRIALS * 3):
        m = _monomial(rng, chart)
        s = random_scalar(rng, chart, max_terms=4, max_degree=3, max_freq=2)
        for left, right in ((m, s), (s, m), (m, _monomial(rng, chart))):
            got = left * right
            raw = tuple((_vsum(a1, a2), _vsum(k1, k2), c1 * c2)
                        for a1, k1, c1 in left.terms for a2, k2, c2 in right.terms)
            assert canonical_scalar_faults(got) == []
            assert got == ScalarExpr(chart, raw)
            assert len(got.terms) == max(len(left.terms), len(right.terms))
        zero = ScalarExpr(chart, ())
        assert (m * zero).terms == () and (zero * m).terms == ()


def _use(cmap, rng):
    """Run every operator that fills a memo of `cmap`."""
    chart = cmap.target
    for p in range(chart.nslots + 1):
        pullback(cmap, random_form(rng, chart, p, max_components=3, max_terms=3))
    random_scalar(rng, chart, max_terms=3).compose(cmap)
    if cmap.is_invertible:
        cmap.inverse()
        pushforward(cmap, random_field(rng, cmap.source))


@pytest.mark.parametrize("key", CHARTS)
def test_used_chart_maps_compare_hash_and_print_as_fresh_ones(key):
    chart = CHART_KEYS[key]
    rng = random.Random(f"memo/{key}")
    for cmap in _maps_into(rng, chart):
        fresh = ChartMap(cmap.source, cmap.target, components=cmap.components,
                         matrix=cmap.matrix)
        before = repr(cmap)
        _use(cmap, rng)
        assert cmap == fresh and fresh == cmap
        assert hash(cmap) == hash(fresh)
        assert repr(cmap) == repr(fresh) == before
        assert {cmap: 1}[fresh] == 1
        assert cmap.is_invertible == fresh.is_invertible


def test_inverse_is_worked_out_once_and_still_refuses():
    t1 = CHART_KEYS["t2"]
    shear = ChartMap(t1, t1, matrix=((1, 1), (0, 1)))
    assert shear.inverse() is shear.inverse()
    assert shear.inverse() == ChartMap(t1, t1, matrix=((1, -1), (0, 1)))
    doubling = ChartMap(t1, t1, matrix=((2, 0), (0, 1)))
    for _ in range(2):
        assert not doubling.is_invertible
        with pytest.raises(ValueError, match="chart map is not invertible"):
            doubling.inverse()
        with pytest.raises(ValueError, match="pushforward requires an invertible chart map"):
            pushforward(doubling, random_field(random.Random(0), t1))



def _matrices_of_det(rng):
    """(n, integer matrix, det) for n <= 4 and det in {0, +-1, +-2, 3}: diag(det,
    1, ..., 1) between two GL(n, Z) factors, so the determinant is +-det."""
    out = []
    for n in range(1, 5):
        for det in (0, 1, -1, 2, -2, 3):
            diag = [[det if i == j == 0 else int(i == j) for j in range(n)] for i in range(n)]
            left, right = random_gl_matrix(rng, n), random_gl_matrix(rng, n)
            m = [[sum(left[i][s] * diag[s][t] * right[t][j] for s in range(n) for t in range(n))
                  for j in range(n)] for i in range(n)]
            out.append((n, tuple(map(tuple, m)), det))
    return out


def _product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_a_torus_map_is_invertible_exactly_when_its_determinant_is_a_unit():
    """One elimination decides it: an integer inverse exists exactly when
    |det A| = 1, and then A A^-1 = A^-1 A = I."""
    for n, rows, det in _matrices_of_det(random.Random("inverse/torus")):
        cmap = ChartMap(torus(n), torus(n), matrix=rows)
        unit = abs(det) == 1
        assert cmap.is_invertible == unit, (rows, det)
        if unit:
            identity = [[int(i == j) for j in range(n)] for i in range(n)]
            inverse = cmap.inverse().matrix
            assert _product(rows, inverse) == _product(inverse, rows) == identity, rows


def test_an_affine_map_is_invertible_exactly_when_its_linear_part_is():
    """x -> A x + b is invertible exactly when det A != 0, and then its
    inverse undoes it on every coordinate, composed either way."""
    rng = random.Random("inverse/affine")
    for n, rows, det in _matrices_of_det(rng):
        chart = affine(n)
        comps = tuple(sum((coordinate(chart, s) * v for s, v in enumerate(row)),
                          const(chart, rng.randint(-3, 3))) for row in rows)
        cmap = ChartMap(chart, chart, components=comps)
        regular = det != 0
        assert cmap.is_invertible == regular, (rows, det)
        if regular:
            inverse = cmap.inverse()
            for j in range(n):
                x = coordinate(chart, j)
                assert x.compose(cmap).compose(inverse) == x, (rows, j)
                assert x.compose(inverse).compose(cmap) == x, (rows, j)

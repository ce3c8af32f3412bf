"""Seeded random generators of bounded expressions for the identity suites.

Everything draws from a caller-supplied random.Random, so a fixed seed gives
a reproducible stream of scalars, forms, fields and chart maps.  Sizes are
kept small: identities are linear in each argument, so tiny dense-ish
expressions already exercise every sign path.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .charts import Chart, ChartKind, bidegree_index_sets
from .dolbeault import holomorphic_field
from .exterior import Form, VectorField
from .pair import PairForm
from .rationals import gq
from .scalar import ChartMap, ScalarExpr

_COEFFS = [gq(1), gq(-1), gq(2), gq("1/2"), gq(0, 1), gq(1, 1), gq(-1, "1/2")]


def random_coeff(rng: random.Random):
    return rng.choice(_COEFFS)


def random_scalar(rng: random.Random, chart: Chart, max_terms: int = 2,
                  max_degree: int = 2, max_freq: int = 1) -> ScalarExpr:
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        alpha = [0] * chart.nvars
        k = [0] * chart.nvars
        if chart.is_torus:
            for j in range(chart.nvars):
                k[j] = rng.randint(-max_freq, max_freq)
        else:
            for _ in range(rng.randint(0, max_degree)):
                alpha[rng.randrange(chart.nvars)] += 1
        terms.append((tuple(alpha), tuple(k), random_coeff(rng)))
    return ScalarExpr(chart, tuple(terms))


def random_form(rng: random.Random, chart: Chart, degree: int,
                max_components: int = 2, **scalar_kw) -> Form:
    if degree < 0 or degree > chart.nslots:
        return Form(chart, degree, ())
    all_sets = list(itertools.combinations(range(chart.nslots), degree))
    count = min(len(all_sets), rng.randint(1, max_components))
    chosen = rng.sample(all_sets, count)
    comps = tuple((idx, random_scalar(rng, chart, **scalar_kw)) for idx in chosen)
    return Form(chart, degree, comps)


def random_pair(rng: random.Random, chart: Chart, degree: int, **kw) -> PairForm:
    return PairForm(random_form(rng, chart, degree, **kw),
                    random_form(rng, chart, degree - 1, **kw))


def random_field(rng: random.Random, chart: Chart, constant: bool = False) -> VectorField:
    comps = []
    for _ in range(chart.nslots):
        if constant:
            comps.append(ScalarExpr(chart, ((chart.zeros, chart.zeros, random_coeff(rng)),)))
        else:
            comps.append(random_scalar(rng, chart, max_terms=1, max_degree=1))
    return VectorField(chart, tuple(comps))


def random_holomorphic_field(rng: random.Random, chart: Chart) -> VectorField:
    """A (1,0)-part field; polynomial in z on affine charts, constant on tori."""
    n = chart.dim
    comps = []
    for _ in range(n):
        if chart.is_torus:
            comps.append(ScalarExpr(chart, ((chart.zeros, chart.zeros, random_coeff(rng)),)))
        else:
            alpha = [0] * chart.nvars
            alpha[rng.randrange(n)] = rng.randint(0, 1)
            comps.append(ScalarExpr(chart, ((tuple(alpha), chart.zeros, random_coeff(rng)),)))
    return holomorphic_field(chart, tuple(comps))


def random_bigraded(rng: random.Random, chart: Chart, p: int, q: int) -> Form:
    """A form of bidegree (p, q); the zero (p+q)-form if there is none."""
    sets = bidegree_index_sets(chart, p, q)
    if not sets:
        return Form(chart, p + q, ())
    chosen = rng.sample(sets, min(len(sets), rng.randint(1, 2)))
    comps = tuple((idx, random_scalar(rng, chart)) for idx in chosen)
    return Form(chart, p + q, comps)


def random_pair_bigraded(rng: random.Random, chart: Chart, p: int, q: int) -> PairForm:
    return PairForm(random_bigraded(rng, chart, p, q), random_bigraded(rng, chart, p, q - 1))


def random_gl_matrix(rng: random.Random, n: int) -> tuple:
    """A GL(n, Z) matrix built from elementary and permutation moves."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(2, 4)):
        kind = rng.randrange(3)
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if kind == 0 and i != j:
            c = rng.choice([-2, -1, 1, 2])
            for col in range(n):
                rows[i][col] += c * rows[j][col]
        elif kind == 1 and i != j:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-v for v in rows[i]]
    return tuple(tuple(r) for r in rows)


def random_torus_automorphism(rng: random.Random, chart: Chart) -> ChartMap:
    return ChartMap(chart, chart, matrix=random_gl_matrix(rng, chart.nvars))


def random_affine_automorphism(rng: random.Random, chart: Chart) -> ChartMap:
    """An invertible affine-linear self-map with small rational coefficients."""
    from .scalar import const, coordinate

    n = chart.dim if chart.is_complex else chart.nvars
    rows = random_gl_matrix(rng, n)
    comps = []
    for t in range(n):
        comp = const(chart, rng.choice([0, 1, -1]))
        for s in range(n):
            if rows[t][s]:
                comp = comp + coordinate(chart, s) * gq(rows[t][s])
        comps.append(comp)
    return ChartMap(chart, chart, components=tuple(comps))


def random_automorphism(rng: random.Random, chart: Chart) -> ChartMap:
    if chart.is_torus:
        if chart.kind is ChartKind.TORUS_COMPLEX:
            return _random_complex_torus_map(rng, chart)
        return random_torus_automorphism(rng, chart)
    return random_affine_automorphism(rng, chart)


def _random_complex_torus_map(rng: random.Random, chart: Chart) -> ChartMap:
    """Multiplication by a unit Gaussian integer on each complex coordinate."""
    n = chart.dim
    rows = [[0] * (2 * n) for _ in range(2 * n)]
    for j in range(n):
        a, b = rng.choice([(1, 0), (-1, 0), (0, 1), (0, -1)])
        rows[j][j], rows[j][n + j] = a, -b
        rows[n + j][j], rows[n + j][n + j] = b, a
    return ChartMap(chart, chart, matrix=tuple(tuple(r) for r in rows))


def random_commuting_fields(rng: random.Random, chart: Chart):
    """A pair X, Y with [X, Y] = 0: constants, or separated-variable fields."""
    if chart.is_torus or chart.nslots < 2 or rng.random() < Fraction(1, 2):
        return random_field(rng, chart, constant=True), \
            random_field(rng, chart, constant=True)
    from .scalar import coordinate, zero as scalar_zero

    slots = list(range(chart.nslots))
    i, j = rng.sample(slots, 2)
    comps_x = [scalar_zero(chart) for _ in slots]
    comps_y = [scalar_zero(chart) for _ in slots]
    comps_x[i] = coordinate(chart, i).power(rng.randint(0, 2)) * random_coeff(rng)
    comps_y[j] = coordinate(chart, j).power(rng.randint(0, 2)) * random_coeff(rng)
    return VectorField(chart, tuple(comps_x)), VectorField(chart, tuple(comps_y))

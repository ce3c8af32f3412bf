import dataclasses
import pickle
import random
from fractions import Fraction

import pytest

from pairform.charts import (
    Chart,
    ChartCompatibilityError,
    ChartKind,
    ChartMismatchError,
    affine,
    affine_complex,
    require_same_chart,
    torus,
    torus_complex,
)
from pairform.rationals import ONE, GaussianRational, gq
from pairform.randgen import random_scalar
from pairform.scalar import (
    ChartMap,
    ScalarExpr,
    const,
    coordinate,
    identity_map,
    parse_scalar,
    sin_wave,
    wave,
    zero,
)

from helpers import cos_wave, normalize
from oracles import eval_scalar, points_for

R1, R2 = affine(1), affine(2)
T1, T2 = torus(1), torus(2)
C1 = affine_complex(1)
TC1 = torus_complex(1)


# -- normalize -----------------------------------------------------------


def test_normalize_cancellation():
    a = normalize(R1, [((0,), (0,), gq(1)), ((0,), (0,), gq(-1))])
    assert a.is_zero and a.terms == ()


def test_normalize_merges_duplicate_keys():
    a = normalize(R1, [((1,), (0,), gq(2)), ((1,), (0,), gq(3))])
    assert a == coordinate(R1, 0) * gq(5)


def test_normalize_keeps_distinct_frequencies():
    a = normalize(T1, [((0,), (1,), gq(1)), ((0,), (-1,), gq(1))])
    assert len(a.terms) == 2
    assert a == cos_wave(T1, (1,)) * 2


def test_normalize_idempotent_on_random_inputs():
    rng = random.Random(11)
    for chart in (R2, T2, C1):
        for _ in range(100):
            a = random_scalar(rng, chart)
            assert ScalarExpr(a.chart, a.terms) == a


def test_chart_compatibility_enforced():
    with pytest.raises(ChartCompatibilityError):
        ScalarExpr(T1, (((1,), (0,), gq(1)),))
    with pytest.raises(ChartCompatibilityError):
        ScalarExpr(R1, (((0,), (1,), gq(1)),))


# -- canonical form: the constructor against a reference canonicaliser ------


def _reference_terms(raw):
    """Merge equal keys, drop zero coefficients, sort by (alpha, k)."""
    merged = {}
    for alpha, k, c in raw:
        key = (tuple(alpha), tuple(k))
        merged[key] = merged.get(key, gq(0)) + c
    return tuple((a, k, c) for (a, k), c in sorted(merged.items()) if c)


def _canonical_terms(rng, chart, count):
    """Distinct keys in sorted order with nonzero Gaussian rational coefficients."""
    zeros = (0,) * chart.nvars
    low = -2 if chart.is_torus else 0
    keys = set()
    while len(keys) < count:
        v = tuple(rng.randint(low, 3) for _ in range(chart.nvars))
        keys.add((zeros, v) if chart.is_torus else (v, zeros))
    out = []
    for alpha, k in sorted(keys):
        c = gq(Fraction(rng.randint(-5, 5), rng.randint(1, 4)), rng.randint(-2, 2))
        out.append((alpha, k, c if c else gq(1)))
    return tuple(out)


def _shuffled(rng, terms):
    out = list(terms)
    rng.shuffle(out)
    return out


def _duplicated(rng, terms):
    # every key twice, in sorted order
    out = []
    for alpha, k, c in terms:
        part = gq(rng.randint(-3, 3), rng.randint(-3, 3))
        out += [(alpha, k, c - part), (alpha, k, part)]
    return tuple(out)


def _zero_coefficient(rng, terms):
    # sorted distinct keys, one coefficient zero
    return tuple((alpha, k, gq(0) if i == 0 else c) for i, (alpha, k, c) in enumerate(terms))


def _cancelling(rng, terms):
    out = list(terms)
    for alpha, k, c in terms[:2]:
        out += [(alpha, k, -c), (alpha, k, c)]
    return _shuffled(rng, out)


def _real_coefficients(rng, terms):
    # int and Fraction coefficients, kept in canonical order
    return tuple((alpha, k, rng.choice([rng.randint(1, 9), Fraction(rng.randint(1, 9), 7)]))
                 for alpha, k, _ in terms)


def _list_alpha(rng, terms):
    return tuple((list(alpha), k, c) for alpha, k, c in terms)


def _list_k(rng, terms):
    return tuple((alpha, list(k), c) for alpha, k, c in terms)


_RAW_VARIANTS = {
    "canonical": lambda rng, terms: terms,
    "shuffled": _shuffled,
    "duplicated": _duplicated,
    "zero-coefficient": _zero_coefficient,
    "cancelling": _cancelling,
    "int-or-fraction": _real_coefficients,
    "list-alpha": _list_alpha,
    "list-k": _list_k,
    "list-container": lambda rng, terms: list(terms),
}


@pytest.mark.parametrize("variant", sorted(_RAW_VARIANTS))
def test_constructor_matches_reference_canonicaliser(variant):
    rng = random.Random(31)
    charts = [make(n) for make in (affine, torus, affine_complex, torus_complex)
              for n in (1, 2)]
    for chart in charts:
        for _ in range(40):
            raw = _RAW_VARIANTS[variant](rng, _canonical_terms(rng, chart, rng.randint(0, 4)))
            expr = ScalarExpr(chart, raw)
            assert expr.terms == _reference_terms(raw)
            assert type(expr.terms) is tuple
            for alpha, k, c in expr.terms:
                assert (type(alpha), type(k), type(c)) == (tuple, tuple, GaussianRational)
            if variant == "canonical":
                assert expr.terms is raw  # verified and kept as given


@pytest.mark.parametrize("chart, terms, message", [
    (T2, (((0, 0), (1,), ONE),), "term shape 2/1 does not fit chart torus(2)"),
    (R2, (((1,), (0, 0), ONE),), "term shape 1/2 does not fit chart affine-real(2)"),
    (TC1, (((0, 0), (1, 0, 0), ONE),), "term shape 2/3 does not fit chart torus-complex(1)"),
    (R2, (((-1, 0), (0, 0), ONE),), "negative polynomial exponent"),
    (C1, (((0, 0), (0, 0), ONE), ((0, -1), (0, 0), ONE)), "negative polynomial exponent"),
    (T2, (((1, 0), (0, 0), ONE),), "polynomial term on torus chart torus(2)"),
    (T2, (((0, 0), (0, 1), ONE), ((0, 1), (0, 0), ONE)),
     "polynomial term on torus chart torus(2)"),
    (R2, (((0, 0), (1, 0), ONE),), "frequency term on affine chart affine-real(2)"),
    (C1, (((1, 0), (0, 0), ONE), ((1, 0), (0, 1), ONE)),
     "frequency term on affine chart affine-complex(1)"),
])
def test_invalid_terms_raise_whatever_their_order(chart, terms, message):
    rng = random.Random(5)
    for raw in (terms, _shuffled(rng, terms), _list_alpha(rng, terms), _list_k(rng, terms)):
        with pytest.raises(ChartCompatibilityError) as info:
            ScalarExpr(chart, raw)
        assert type(info.value) is ChartCompatibilityError
        assert str(info.value) == message


@pytest.mark.parametrize("chart, terms", [
    (R2, (((Fraction(1, 2), 0), (0, 0), ONE),)),
    (R2, (((1, 0), (0, 0), ONE), ((True, 0), (0, 0), ONE))),
    (T2, (((0, 0), (1.5, 0), ONE),)),
    (T2, (((0, 0), (True, 0), ONE),)),
    (T2, (((0.0, 0), (1, 0), ONE),)),
    (C1, (((1, 0), (0, 0.0), ONE),)),
])
def test_non_int_exponents_and_frequencies_raise_whatever_their_order(chart, terms):
    rng = random.Random(5)
    for raw in (terms, _shuffled(rng, terms), _list_alpha(rng, terms), _list_k(rng, terms)):
        with pytest.raises(ChartCompatibilityError, match="must be ints"):
            ScalarExpr(chart, raw)


def test_wave_rejects_float_and_bool_frequencies():
    for k in ((1.5, 0), (True, 0), (1, 0.0)):
        with pytest.raises(ChartCompatibilityError, match="must be ints"):
            wave(T2, k)
    with pytest.raises(ChartCompatibilityError):
        ScalarExpr(R2, (((0.5, 0), (0, 0), gq(1)),))


@pytest.mark.parametrize("make", [affine, torus, affine_complex, torus_complex])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_chart_shape_attributes(make, n):
    chart = make(n)
    is_complex = chart.kind in (ChartKind.AFFINE_COMPLEX, ChartKind.TORUS_COMPLEX)
    assert chart.is_complex == is_complex
    assert chart.is_torus == (chart.kind in (ChartKind.TORUS, ChartKind.TORUS_COMPLEX))
    assert chart.nvars == chart.nslots == (2 * n if is_complex else n)
    assert chart.zeros == (0,) * chart.nvars
    assert [f.name for f in dataclasses.fields(Chart)] == ["kind", "dim"]
    assert repr(chart) == f"Chart(kind={chart.kind!r}, dim={n})"
    assert chart == Chart(chart.kind, n) and hash(chart) == hash((chart.kind, n))
    assert chart != Chart(chart.kind, n + 1)
    copy = pickle.loads(pickle.dumps(chart))
    assert copy == chart and hash(copy) == hash(chart) and repr(copy) == repr(chart)
    for name in ("is_complex", "is_torus", "nvars", "nslots", "zeros"):
        assert getattr(copy, name) == getattr(chart, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        chart.nvars = 7


def test_require_same_chart_on_identical_and_equal_charts():
    twin = Chart(ChartKind.TORUS, 2)
    assert twin == T2 and twin is not T2
    a, b = const(T2, 1), const(twin, 2)
    assert require_same_chart(a) is T2
    assert require_same_chart(a, a, a) is T2
    # equal but not identical charts pass too; the first operand's chart is returned
    assert require_same_chart(a, b) is T2
    assert require_same_chart(b, a, a) is twin


def test_require_same_chart_mismatch_message():
    for objs in ((const(T2, 1), const(R2, 1)), (const(R2, 1), const(T2, 1), const(R2, 1)),
                 (const(T2, 1), const(Chart(ChartKind.TORUS, 2), 1), const(R2, 1))):
        with pytest.raises(ChartMismatchError) as info:
            require_same_chart(*objs)
        assert str(info.value) == "expected one chart, got ['affine-real(2)', 'torus(2)']"


# -- ring operations -------------------------------------------------------


def test_wave_product_adds_frequencies():
    assert wave(T1, (1,)) * wave(T1, (1,)) == wave(T1, (2,))


def test_monomial_product_adds_exponents():
    x = coordinate(R1, 0)
    assert x * x == ScalarExpr(R1, (((2,), (0,), gq(1)),))


def test_difference_of_squares_matches_expand_oracle():
    x = coordinate(R2, 0)
    product = (x + const(R2, 1)) * (x - const(R2, 1))
    # independent expand-and-merge oracle over raw term dicts
    left = {((1, 0), (0, 0)): gq(1), ((0, 0), (0, 0)): gq(1)}
    right = {((1, 0), (0, 0)): gq(1), ((0, 0), (0, 0)): gq(-1)}
    acc = {}
    for (a1, k1), c1 in left.items():
        for (a2, k2), c2 in right.items():
            key = (tuple(u + v for u, v in zip(a1, a2)),
                   tuple(u + v for u, v in zip(k1, k2)))
            acc[key] = acc.get(key, gq(0)) + c1 * c2
    expected = normalize(R2, [(a, k, c) for (a, k), c in acc.items()])
    assert product == expected


def test_chart_mismatch_raises():
    with pytest.raises(ChartMismatchError):
        coordinate(R1, 0) + coordinate(R2, 0)


def test_commutative_associative_on_random_inputs():
    rng = random.Random(7)
    for chart in (R2, T2):
        for _ in range(100):
            a, b, c = (random_scalar(rng, chart) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


# -- derivatives -----------------------------------------------------------


def test_partial_wave():
    assert wave(T1, (1,)).partial(0) == wave(T1, (1,)) * gq(0, 1)


def test_partial_monomial():
    x2 = coordinate(R1, 0).power(2)
    assert x2.partial(0) == coordinate(R1, 0) * 2


def test_partial_other_axis_kills_sin():
    assert sin_wave(T2, (1, 0)).partial(1).is_zero


def test_leibniz_on_random_pairs():
    rng = random.Random(23)
    for chart in (R2, T2, C1):
        for _ in range(100):
            a, b = random_scalar(rng, chart), random_scalar(rng, chart)
            axis = rng.randrange(chart.nvars)
            lhs = (a * b).partial(axis)
            rhs = a.partial(axis) * b + a * b.partial(axis)
            assert lhs == rhs


def test_partials_commute():
    rng = random.Random(29)
    for chart in (R2, T2, C1, TC1):
        for _ in range(50):
            a = random_scalar(rng, chart)
            assert a.partial(0).partial(1) == a.partial(1).partial(0)


def test_partial_matches_numeric_difference_quotient():
    rng = random.Random(31)
    h = 1e-6
    for chart in (R2, T2):
        for _ in range(20):
            a = random_scalar(rng, chart)
            axis = rng.randrange(chart.nvars)
            d = a.partial(axis)
            for p in points_for(chart):
                up = list(p)
                up[axis] += h
                down = list(p)
                down[axis] -= h
                approx = (eval_scalar(a, up) - eval_scalar(a, down)) / (2 * h)
                assert abs(approx - eval_scalar(d, p)) < 1e-5


def test_wirtinger_on_complex_chart():
    z, zb = coordinate(C1, 0), coordinate(C1, 1)
    assert z.wirtinger(0) == const(C1, 1)
    assert z.wirtinger(1).is_zero
    assert (z * zb).wirtinger(1) == z
    # real-axis partials recombine: d/dx z = 1, d/dy z = i
    assert z.partial(0) == const(C1, 1)
    assert z.partial(1) == const(C1, gq(0, 1))


def test_wirtinger_on_complex_torus():
    w = wave(TC1, (1, 0))  # e^{ix}
    # d/dz = (d/dx - i d/dy)/2 acts as multiplication by i/2 on e^{ix}
    assert w.wirtinger(0) == w * gq(0, "1/2")
    assert w.wirtinger(1) == w * gq(0, "1/2")
    mixed = wave(TC1, (1, 1))  # not annihilated by d/dzb: (i*k_x - k_y)/2
    assert mixed.wirtinger(1) == mixed * gq("-1/2", "1/2")


def test_torus_derivatives_match_q_i_products():
    """partial and wirtinger multiply by c*i*k and (i*kx +- ky)/2 straight from
    the coefficient's ints; the slow path takes the Q(i) products."""
    rng = random.Random(37)
    half, half_i = gq("1/2"), gq(0, "1/2")
    for chart in (T2, TC1, torus_complex(2)):
        for _ in range(60):
            a = random_scalar(rng, chart, max_terms=3, max_freq=3) * gq(
                rng.randint(-9, 9), rng.randint(-9, 9)) * gq(1, rng.randint(1, 12))
            for axis in range(chart.nvars):
                slow = [(al, k, c * gq(0, 1) * k[axis]) for al, k, c in a.terms]
                assert a.partial(axis) == ScalarExpr(chart, tuple(slow))
            if not chart.is_complex:
                continue
            n = chart.dim
            for slot in range(2 * n):
                j, sign = slot % n, (-1 if slot >= n else 1)
                slow = [(al, k, c * (half_i * k[j] + half * (sign * k[n + j])))
                        for al, k, c in a.terms]
                assert a.wirtinger(slot) == ScalarExpr(chart, tuple(slow))


# -- integration -----------------------------------------------------------


def test_torus_integral_of_one():
    assert const(T2, 1).torus_integral() == gq(1)


def test_torus_integral_of_wave_vanishes():
    assert wave(T1, (1,)).torus_integral() == gq(0)


def test_torus_integral_extracts_zero_mode():
    a = const(T2, 3) + wave(T2, (1, -1))
    # independent mode-0 extraction from the raw term list
    expected = next((c for _, k, c in a.terms if not any(k)), gq(0))
    assert a.torus_integral() == expected == gq(3)


def test_torus_integral_requires_torus():
    with pytest.raises(ChartCompatibilityError):
        const(R1, 1).torus_integral()


def test_integration_by_parts():
    rng = random.Random(37)
    for _ in range(100):
        a = random_scalar(rng, T2, max_terms=3)
        for axis in range(2):
            assert a.partial(axis).torus_integral() == gq(0)


# -- composition ------------------------------------------------------------


def test_compose_torus_doubling():
    doubling = ChartMap(T1, T1, matrix=((2,),))
    assert wave(T1, (1,)).compose(doubling) == wave(T1, (2,))


@pytest.mark.parametrize("bad", [1.5, "2", True, Fraction(1), 1.0])
def test_chart_map_rejects_non_int_matrix_entries(bad):
    with pytest.raises(ValueError) as info:
        ChartMap(T2, T2, matrix=((bad, 0), (0, 1)))
    assert str(info.value) == f"torus matrix entries must be integers, got {bad!r}"


def test_chart_map_keeps_int_matrix_rows_as_tuples():
    cmap = ChartMap(T2, T2, matrix=[[1, 1], [0, 1]])
    assert cmap.matrix == ((1, 1), (0, 1))


def test_off_cube_frequencies_equal_the_streamed_images():
    """`ChartMap.off_cube`, made per line of the target cube from the
    interval of the line inside the source cube, is the set of A^T k off the
    source cube over every k of the target cube, for random integer maps of
    every shape up to 3 x 3, singular ones too, and N up to 3."""
    import itertools

    rng = random.Random(11)
    for _ in range(200):
        n, m, max_freq = rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 3)
        rows = tuple(tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(n))
        cmap = ChartMap(torus(m), torus(n), matrix=rows)
        cube = itertools.product(range(-max_freq, max_freq + 1), repeat=n)
        assert cmap.off_cube(max_freq) == {k for k in map(cmap.pull, cube)
                                           if max(map(abs, k)) > max_freq}, (rows, max_freq)


# z_1 -> z_1 + (1 + i) z_2, z_2 -> z_2 on TC2, on the axes (x_1, x_2, y_1, y_2)
GAUSSIAN_SHEAR = ((1, 1, 0, -1), (0, 1, 0, 0), (0, 1, 1, 1), (0, 0, 0, 1))


def _commutes_with_j(rows, n: int, m: int) -> bool:
    """A J = J A for the real 2m x 2n matrix A, J (x, y) = (-y, x) on each
    side, by multiplying the matrices out."""
    def j_matrix(k):
        return [[-1 if c == r + k else 1 if r == c + k else 0 for c in range(2 * k)]
                for r in range(2 * k)]

    def matmul(a, b):
        return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]

    return matmul(rows, j_matrix(n)) == matmul(j_matrix(m), rows)


def test_complex_torus_maps_must_commute_with_the_complex_structure():
    """A GL(2, Z[i]) shear on TC2 is a complex torus map; a real shear that
    mixes x_1 and y_1 is refused.  Over random block matrices [[P, -Q], [Q, P]]
    and each with one entry bumped, between TC1 and TC2 both ways, the map
    is accepted exactly when A J = J A multiplied out."""
    tc2 = torus_complex(2)
    assert ChartMap(tc2, tc2, matrix=GAUSSIAN_SHEAR).matrix == GAUSSIAN_SHEAR
    mixing = ((1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    with pytest.raises(ValueError, match="complex torus maps must commute with the complex"):
        ChartMap(tc2, tc2, matrix=mixing)
    rng = random.Random("complex-linear")
    seen = set()
    for n, m in ((2, 2), (1, 2), (2, 1)):
        source, target = torus_complex(n), torus_complex(m)
        for _ in range(10):
            p = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
            q = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
            rows = [p[t] + [-v for v in q[t]] for t in range(m)] + \
                [q[t] + p[t] for t in range(m)]
            bumped = [row[:] for row in rows]
            bumped[rng.randrange(2 * m)][rng.randrange(2 * n)] += 1
            for a in (rows, bumped):
                want = _commutes_with_j(a, n, m)
                seen.add(want)
                if want:
                    ChartMap(source, target, matrix=a)
                else:
                    with pytest.raises(ValueError, match="must commute with the complex"):
                        ChartMap(source, target, matrix=a)
    assert seen == {True, False}


def test_compose_identity():
    assert coordinate(R1, 0).compose(identity_map(R1)) == coordinate(R1, 0)


def test_compose_cancellation():
    # (y1 + y2) o (y1 = x^2, y2 = -x^2) = 0
    x2 = coordinate(R1, 0).power(2)
    cmap = ChartMap(R1, R2, components=(x2, -x2))
    target = coordinate(R2, 0) + coordinate(R2, 1)
    assert target.compose(cmap).is_zero


def test_compose_matches_numeric_substitution():
    rng = random.Random(41)
    cmap = ChartMap(R1, R2, components=(coordinate(R1, 0).power(2),
                                        coordinate(R1, 0) * gq(-2)))
    for _ in range(30):
        a = random_scalar(rng, R2)
        pulled = a.compose(cmap)
        for (t,) in points_for(R1):
            direct = eval_scalar(a, (t * t, -2 * t))
            assert abs(direct - eval_scalar(pulled, (t,))) < 1e-9


def test_compose_torus_matrix_matches_numeric():
    rng = random.Random(43)
    cmap = ChartMap(T2, T2, matrix=((1, 1), (0, 1)))
    for _ in range(30):
        a = random_scalar(rng, T2)
        pulled = a.compose(cmap)
        for (u, v) in points_for(T2):
            direct = eval_scalar(a, (u + v, v))
            assert abs(direct - eval_scalar(pulled, (u, v))) < 1e-9


def test_compose_complex_conjugate_component():
    # z o (z = w^2) must send zb to conj(w^2) = wb^2
    w2 = coordinate(C1, 0).power(2)
    cmap = ChartMap(C1, C1, components=(w2,))
    assert coordinate(C1, 1).compose(cmap) == coordinate(C1, 1).power(2)


# -- conjugation, rendering, parsing ----------------------------------------


def test_conjugate_is_numeric_conjugate():
    rng = random.Random(47)
    for chart in (R2, T2, C1, TC1):
        for _ in range(30):
            a = random_scalar(rng, chart)
            conj = a.conjugate()
            for p in points_for(chart):
                assert abs(eval_scalar(conj, p) -
                           eval_scalar(a, p).conjugate()) < 1e-9


def test_render_example_grammar():
    a = coordinate(R2, 0).power(2) * Fraction(3, 2)
    assert str(a) == "3/2*x1^2"
    b = wave(T2, (1, -1))
    assert str(b) == "e(1,-1)"
    assert str(zero(T2)) == "0"


def test_parse_render_round_trip():
    rng = random.Random(53)
    for chart in (R2, T2, C1, TC1):
        for _ in range(60):
            a = random_scalar(rng, chart, max_terms=3)
            assert parse_scalar(chart, str(a)) == a


def test_inverse_affine_map():
    cmap = ChartMap(R2, R2, components=(
        coordinate(R2, 0) * 2 + const(R2, 1),
        coordinate(R2, 0) + coordinate(R2, 1),
    ))
    inv = cmap.inverse()
    for j in range(2):
        assert coordinate(R2, j).compose(cmap).compose(inv) == coordinate(R2, j)


def test_inverse_torus_map():
    cmap = ChartMap(T2, T2, matrix=((1, 1), (0, 1)))
    inv = cmap.inverse()
    a = wave(T2, (2, -1))
    assert a.compose(cmap).compose(inv) == a


def test_doubling_not_invertible():
    assert not ChartMap(T1, T1, matrix=((2,),)).is_invertible


@pytest.mark.parametrize("coeff", [0.5, 1j, "1/2", None, True])
def test_bad_coefficients_raise_chart_compatibility_error(coeff):
    message = f"coefficients must be ints, Fractions or Gaussian rationals, got {coeff!r}"
    for raw in ((((0,), (0,), coeff),), (((1,), (0,), ONE), ((0,), (0,), coeff))):
        with pytest.raises(ChartCompatibilityError) as info:
            ScalarExpr(R1, raw)
        assert str(info.value) == message


def test_int_and_fraction_coefficients_are_coerced_on_the_merge_path():
    s = ScalarExpr(R1, (((1,), (0,), Fraction(1, 2)), ((0,), (0,), 3), ((1,), (0,), gq(1, 1))))
    assert s.terms == (((0,), (0,), gq(3)), ((1,), (0,), gq(Fraction(3, 2), 1)))
    assert all(type(c) is GaussianRational for _, _, c in s.terms)

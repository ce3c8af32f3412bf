import dataclasses
import pickle
import random
from fractions import Fraction

import pytest

from pairform.charts import (
    Chart,
    ChartKind,
    ChartMismatchError,
    affine,
    affine_complex,
    torus,
    torus_complex,
)
from pairform.exterior import (
    Form,
    VectorField,
    bracket,
    codiff,
    coframe,
    constant_field,
    ext_d,
    form,
    hamiltonian_field,
    hodge_star,
    inner,
    interior,
    laplacian,
    lichnerowicz_d,
    lichnerowicz_delta,
    lichnerowicz_lap,
    lie,
    one_form_norm2,
    parse_field,
    parse_form,
    pullback,
    pushforward,
    scalar_form,
    sharp,
    wedge,
    zero_form,
)
from pairform.randgen import (
    random_automorphism,
    random_field,
    random_form,
    random_scalar,
)
from pairform.rationals import gq
from pairform.scalar import (
    ChartMap,
    ScalarExpr,
    const,
    coordinate,
    identity_map,
    sin_wave,
    wave,
    zero as scalar_zero,
)

from helpers import cos_wave, frame_field
from oracles import coordinate_lie, laplace_eigenvalue, perm_sign

R1, R2 = affine(1), affine(2)
T1, T2, T3 = torus(1), torus(2), torus(3)
C1, C2 = affine_complex(1), affine_complex(2)
TC1, TC2 = torus_complex(1), torus_complex(2)

CHARTS = (R2, T2, T3)


def dx(chart, j):
    return coframe(chart, j)


# -- canonical form: the constructor against a reference canonicaliser ------


def _reference_components(raw):
    """Merge equal index sets, drop zero scalars, sort by index set."""
    merged = {}
    for idx, s in raw:
        idx = tuple(idx)
        merged[idx] = merged[idx] + s if idx in merged else s
    return tuple((idx, merged[idx]) for idx in sorted(merged) if not merged[idx].is_zero)


def _shuffled(rng, comps):
    out = list(comps)
    rng.shuffle(out)
    return out


def _duplicated(rng, comps):
    # every index set twice, in sorted order
    out = []
    for idx, s in comps:
        part = random_scalar(rng, s.chart)
        out += [(idx, s - part), (idx, part)]
    return tuple(out)


def _zero_scalar(rng, comps):
    # sorted distinct index sets, one scalar zero
    return tuple((idx, scalar_zero(s.chart) if i == 0 else s)
                 for i, (idx, s) in enumerate(comps))


def _cancelling(rng, comps):
    out = list(comps)
    for idx, s in comps[:2]:
        out += [(idx, -s), (idx, s)]
    return _shuffled(rng, out)


def _equal_chart(rng, comps):
    # scalars on a chart equal to, but not the same object as, the form's chart
    return tuple((idx, ScalarExpr(Chart(s.chart.kind, s.chart.dim), s.terms))
                 for idx, s in comps)


_RAW_VARIANTS = {
    "canonical": lambda rng, comps: comps,
    "shuffled": _shuffled,
    "duplicated": _duplicated,
    "zero-scalar": _zero_scalar,
    "cancelling": _cancelling,
    "lists": lambda rng, comps: tuple((list(idx), s) for idx, s in comps),
    "list-container": lambda rng, comps: list(comps),
    "equal-chart": _equal_chart,
}


@pytest.mark.parametrize("variant", sorted(_RAW_VARIANTS))
def test_form_constructor_matches_reference_canonicaliser(variant):
    rng = random.Random(37)
    for chart in (R2, T2, T3, C1, torus_complex(1)):
        for degree in range(chart.nslots + 1):
            for _ in range(12):
                comps = random_form(rng, chart, degree, max_components=3).components
                raw = _RAW_VARIANTS[variant](rng, comps)
                out = Form(chart, degree, raw)
                assert out.components == _reference_components(raw)
                assert type(out.components) is tuple
                assert all(type(idx) is tuple for idx, _ in out.components)
                if variant == "canonical":
                    assert out.components is raw  # verified and kept as given


@pytest.mark.parametrize("chart, degree, comps, error, message", [
    (T2, 2, (((1, 0), const(T2, 1)),), ValueError, "bad index set (1, 0) for degree 2"),
    (T2, 2, (((0, 0), const(T2, 1)),), ValueError, "bad index set (0, 0) for degree 2"),
    (T2, 1, (((2,), const(T2, 1)),), ValueError, "bad index set (2,) for degree 1"),
    (T2, 1, (((-1,), const(T2, 1)),), ValueError, "bad index set (-1,) for degree 1"),
    (T2, 1, (((0,), const(T2, 1)), ((0, 1), const(T2, 1))), ValueError,
     "bad index set (0, 1) for degree 1"),
    (T2, 2, (((0,), const(T2, 1)),), ValueError, "bad index set (0,) for degree 2"),
    (T2, 1, (((0,), const(T2, 1)), ((1,), const(T1, 1))), ChartMismatchError,
     "component scalar on wrong chart"),
    (T1, 2, (((0, 1), const(T1, 1)),), ValueError, "degree 2 form must be zero on torus(1)"),
    (T1, -1, (((), const(T1, 1)),), ValueError, "degree -1 form must be zero on torus(1)"),
])
def test_invalid_components_raise_whatever_their_order(chart, degree, comps, error, message):
    rng = random.Random(5)
    for raw in (comps, _shuffled(rng, comps), tuple((list(i), s) for i, s in comps)):
        with pytest.raises(error) as info:
            Form(chart, degree, raw)
        assert type(info.value) is error
        assert str(info.value) == message


@pytest.mark.parametrize("idx", [(0.0,), (True,), ("0",), (Fraction(0),)])
def test_non_int_index_entries_raise(idx):
    for raw in ((idx, const(R2, 1)),), ((list(idx), const(R2, 1)), ((1,), const(R2, 1))):
        with pytest.raises(ValueError) as info:
            Form(R2, 1, raw)
        assert str(info.value) == f"bad index set {idx} for degree 1"


def test_fraction_times_form():
    half = Fraction(1, 2)
    expected = Form(R2, 1, (((0,), const(R2, half)),))
    assert dx(R2, 0) * half == expected
    assert half * dx(R2, 0) == expected
    assert (dx(R2, 0) * Fraction(0)).is_zero


def test_zero_form_of_any_degree_is_accepted():
    for degree in (-1, 3, 5):
        assert Form(T1, degree, ()).is_zero
        assert Form(T1, degree, (((0,) * degree, scalar_zero(T1)),)).is_zero


# -- wedge -------------------------------------------------------------------


def test_wedge_basis():
    assert wedge(dx(R2, 0), dx(R2, 1)) == form(R2, 2, {(0, 1): const(R2, 1)})


def test_wedge_sign_matches_permutation_oracle():
    # (x dy) ^ dx = sign(1,0) * x dx^dy
    a = wedge(scalar_form(coordinate(R2, 0)), dx(R2, 1))
    out = wedge(a, dx(R2, 0))
    assert perm_sign((1, 0)) == -1
    assert out == form(R2, 2, {(0, 1): -coordinate(R2, 0)})


def test_wedge_self_is_zero():
    assert wedge(dx(R2, 0), dx(R2, 0)).is_zero


def test_wedge_chart_mismatch():
    with pytest.raises(ChartMismatchError):
        wedge(dx(R2, 0), dx(R1, 0))


def test_wedge_graded_commutative_and_associative():
    rng = random.Random(101)
    for chart in CHARTS:
        for _ in range(100):
            p = rng.randint(0, 2)
            q = rng.randint(0, 2)
            a, b = random_form(rng, chart, p), random_form(rng, chart, q)
            c = random_form(rng, chart, rng.randint(0, 1))
            sign = -1 if (p * q) % 2 else 1
            assert wedge(a, b) == wedge(b, a) * sign
            assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


# -- exterior derivative -------------------------------------------------------


def test_d_of_coordinate():
    assert ext_d(scalar_form(coordinate(R1, 0))) == dx(R1, 0)


def test_d_frozen_example():
    a = wedge(scalar_form(sin_wave(T2, (1, 0))), dx(T2, 1))
    expected = form(T2, 2, {(0, 1): cos_wave(T2, (1, 0))})
    assert ext_d(a) == expected


def test_d_of_basis_covector():
    assert ext_d(dx(R2, 0)).is_zero


def test_d_squared_zero():
    rng = random.Random(103)
    for chart in CHARTS + (C1,):
        for _ in range(100):
            a = random_form(rng, chart, rng.randint(0, chart.nslots))
            assert ext_d(ext_d(a)).is_zero


def test_d_antiderivation():
    rng = random.Random(107)
    for chart in CHARTS:
        for _ in range(100):
            p = rng.randint(0, 2)
            a = random_form(rng, chart, p)
            b = random_form(rng, chart, rng.randint(0, 2))
            sign = -1 if p % 2 else 1
            lhs = ext_d(wedge(a, b))
            rhs = wedge(ext_d(a), b) + wedge(a, ext_d(b)) * sign
            assert lhs == rhs


# -- interior product ----------------------------------------------------------


def test_interior_basis_examples():
    assert interior(frame_field(R2, 0), wedge(dx(R2, 0), dx(R2, 1))) == dx(R2, 1)
    assert interior(frame_field(R2, 1), dx(R2, 0)).is_zero


def test_interior_componentwise_contraction():
    x_field = VectorField(R2, (coordinate(R2, 0), scalar_zero(R2)))
    a = wedge(scalar_form(coordinate(R2, 0)), wedge(dx(R2, 0), dx(R2, 1)))
    out = interior(x_field, a)
    assert out == form(R2, 1, {(1,): coordinate(R2, 0).power(2)})


def test_interior_squared_and_antiderivation():
    rng = random.Random(109)
    for chart in CHARTS:
        for _ in range(100):
            x = random_field(rng, chart)
            p = rng.randint(0, 3)
            a = random_form(rng, chart, p)
            b = random_form(rng, chart, rng.randint(0, 2))
            assert interior(x, interior(x, a)).is_zero
            sign = -1 if p % 2 else 1
            lhs = interior(x, wedge(a, b))
            rhs = wedge(interior(x, a), b) + wedge(a, interior(x, b)) * sign
            assert lhs == rhs


# -- Lie derivative -------------------------------------------------------------


def test_lie_frozen_examples():
    out = lie(frame_field(T2, 0), wedge(scalar_form(sin_wave(T2, (1, 0))), dx(T2, 1)))
    assert out == wedge(scalar_form(cos_wave(T2, (1, 0))), dx(T2, 1))
    assert lie(frame_field(T2, 0), dx(T2, 0)).is_zero
    euler = VectorField(R1, (coordinate(R1, 0),))
    assert lie(euler, dx(R1, 0)) == dx(R1, 0)


def test_lie_matches_coordinate_formula_oracle():
    rng = random.Random(113)
    for chart in CHARTS + (C1,):
        for _ in range(100):
            x = random_field(rng, chart)
            a = random_form(rng, chart, rng.randint(0, min(chart.nslots, 2)))
            assert lie(x, a) == coordinate_lie(x, a)


def test_lie_on_functions_is_directional_derivative():
    rng = random.Random(127)
    for chart in CHARTS:
        for _ in range(100):
            x = random_field(rng, chart)
            f = random_scalar(rng, chart)
            assert lie(x, scalar_form(f)) == scalar_form(x.apply(f))


def test_lie_commutes_with_d_and_brackets():
    rng = random.Random(131)
    for chart in CHARTS:
        for _ in range(100):
            x, y = random_field(rng, chart), random_field(rng, chart)
            a = random_form(rng, chart, rng.randint(0, 2))
            assert lie(x, ext_d(a)) == ext_d(lie(x, a))
            lhs = lie(x, lie(y, a)) - lie(y, lie(x, a))
            assert lhs == lie(bracket(x, y), a)
            lhs2 = lie(x, interior(y, a)) - interior(y, lie(x, a))
            assert lhs2 == interior(bracket(x, y), a)


ALL_KINDS = (affine, torus, affine_complex, torus_complex)


def _homotopy_lie(x, a):
    return ext_d(interior(x, a)) + interior(x, ext_d(a))


def _fields_with_zeros(rng, chart):
    """Constant fields with some components zero, and the zero field."""
    zero_field = constant_field(chart, [0] * chart.nslots)
    coeffs = [rng.choice((0, 1, -2, gq(0, 1), gq("1/3", -1))) for _ in range(chart.nslots)]
    return [zero_field, constant_field(chart, coeffs)]


def test_constant_field_lie_matches_homotopy_formula():
    rng = random.Random(211)
    for make in ALL_KINDS:
        for n in (1, 2, 3):
            chart = make(n)
            for degree in range(-1, chart.nslots + 2):
                for _ in range(3):
                    a = random_form(rng, chart, degree, max_components=3)
                    for x in [random_field(rng, chart, constant=True)] + \
                            _fields_with_zeros(rng, chart):
                        assert x.is_constant()
                        assert lie(x, a) == _homotopy_lie(x, a)


def test_constant_field_lie_chart_mismatch():
    twin = Chart(ChartKind.TORUS, 2)
    x, a = constant_field(T2, (1, 2)), scalar_form(sin_wave(twin, (1, 0)))
    assert lie(x, a) == _homotopy_lie(x, a)  # equal charts, not the same object
    for x, a in ((constant_field(T2, (1, 2)), dx(R2, 0)),
                 (constant_field(R2, (1, 2)), dx(T2, 1)),
                 (constant_field(C1, (1, 0)), dx(torus_complex(1), 0))):
        with pytest.raises(ChartMismatchError) as fast:
            lie(x, a)
        with pytest.raises(ChartMismatchError) as slow:
            _homotopy_lie(x, a)
        assert str(fast.value) == str(slow.value)
        assert str(fast.value).startswith("expected one chart, got [")


@pytest.mark.parametrize("make", ALL_KINDS)
def test_vector_field_constancy_flag(make):
    rng = random.Random(227)
    for n in (1, 2):
        chart = make(n)
        fields = [random_field(rng, chart, constant=rng.random() < 0.5) for _ in range(40)]
        fields += _fields_with_zeros(rng, chart)
        assert {x.is_constant() for x in fields} == {True, False}
        for x in fields:
            assert x.is_constant() is all(c.is_zero or c.is_constant()
                                          for c in x.components)
            assert [f.name for f in dataclasses.fields(x)] == ["chart", "components"]
            assert repr(x) == f"VectorField(chart={chart!r}, components={x.components!r})"
            twin = VectorField(Chart(chart.kind, n), list(x.components))
            assert twin == x and hash(twin) == hash(x) and repr(twin) == repr(x)
            assert twin.is_constant() is x.is_constant()
            copy = pickle.loads(pickle.dumps(x))
            assert copy == x and hash(copy) == hash(x) and repr(copy) == repr(x)
            assert copy.is_constant() is x.is_constant()
            with pytest.raises(dataclasses.FrozenInstanceError):
                x.components = ()


# -- pullback and pushforward -----------------------------------------------------


def _doubling_r1():
    return ChartMap(R1, R1, components=(coordinate(R1, 0) * 2,))


def test_pullback_chain_rule():
    assert pullback(_doubling_r1(), dx(R1, 0)) == dx(R1, 0) * 2


def test_pullback_identity():
    rng = random.Random(137)
    for _ in range(20):
        a = random_form(rng, T2, rng.randint(0, 2))
        assert pullback(identity_map(T2), a) == a


def test_pullback_zero_form_is_compose():
    f = random_scalar(random.Random(139), R1)
    cmap = _doubling_r1()
    assert pullback(cmap, scalar_form(f)) == scalar_form(f.compose(cmap))


def test_pullback_morphism_and_d_naturality():
    rng = random.Random(149)
    for chart in CHARTS:
        for _ in range(100):
            cmap = random_automorphism(rng, chart)
            a = random_form(rng, chart, rng.randint(0, 2))
            b = random_form(rng, chart, rng.randint(0, 2))
            assert pullback(cmap, wedge(a, b)) == wedge(pullback(cmap, a),
                                                        pullback(cmap, b))
            assert pullback(cmap, ext_d(a)) == ext_d(pullback(cmap, a))


def test_pullback_nonsquare_torus_maps():
    rng = random.Random(152)
    embed = ChartMap(T1, T2, matrix=((1,), (0,)))       # circle into the 2-torus
    project = ChartMap(T2, T1, matrix=((1, 0),))        # 2-torus onto a circle
    for cmap in (embed, project):
        for _ in range(40):
            a = random_form(rng, cmap.target, rng.randint(0, cmap.target.nslots))
            assert pullback(cmap, ext_d(a)) == ext_d(pullback(cmap, a))
            b = random_form(rng, cmap.target, rng.randint(0, 1))
            assert pullback(cmap, wedge(a, b)) == wedge(pullback(cmap, a),
                                                        pullback(cmap, b))
    # frozen values: the embedding restricts dx2 to zero and keeps dx1
    assert pullback(embed, dx(T2, 0)) == dx(T1, 0)
    assert pullback(embed, dx(T2, 1)).is_zero
    assert pullback(embed, scalar_form(wave(T2, (3, 5)))) == scalar_form(wave(T1, (3,)))


def _gaussian_torus_map(chart, m):
    """The map z -> m z of a complex torus, m a square Gaussian-integer
    matrix of (re, im) pairs, written on the real axes (x, y)."""
    n = chart.dim
    rows = [[0] * (2 * n) for _ in range(2 * n)]
    for t in range(n):
        for j in range(n):
            a, b = m[t][j]
            rows[t][j], rows[t][n + j] = a, -b
            rows[n + t][j], rows[n + t][n + j] = b, a
    return ChartMap(chart, chart, matrix=tuple(map(tuple, rows)))


def test_pushforward_identity_and_examples():
    x = VectorField(R1, (coordinate(R1, 0),))
    assert pushforward(identity_map(R1), x) == x
    # (y = 2x) pushes d/dx to 2 d/dy
    out = pushforward(_doubling_r1(), frame_field(R1, 0))
    assert out == constant_field(R1, (2,))
    swap = ChartMap(T2, T2, matrix=((0, 1), (1, 0)))
    assert pushforward(swap, frame_field(T2, 0)) == frame_field(T2, 1)
    # multiplication by i on TC1 pushes d/dz to i d/dz and d/dzb to -i d/dzb
    times_i = _gaussian_torus_map(TC1, (((0, 1),),))
    assert pushforward(times_i, constant_field(TC1, (1, 2))) == \
        constant_field(TC1, (gq(0, 1), gq(0, -2)))


def test_pushforward_characterised_by_contraction_identity():
    """f*(i_(f_* X) a) = i_X f*a and f*(L_(f_* X) a) = L_X f*a, on real and
    complex charts; on TC2 every third map is one of two GL(2, Z[i])
    shears instead of a random unit diagonal."""
    rng = random.Random(151)
    shears = [_gaussian_torus_map(TC2, m) for m in ((((1, 0), (1, 1)), ((0, 0), (1, 0))),
                                                    (((1, 1), (0, 1)), ((1, 0), (1, 0))))]
    for chart in CHARTS + (C1, C2, TC1, TC2):
        for trial in range(100):
            cmap = shears[trial % 2] if chart is TC2 and trial % 3 == 0 \
                else random_automorphism(rng, chart)
            x = random_field(rng, chart, constant=not chart.is_torus)
            fx = pushforward(cmap, x)
            a = random_form(rng, chart, rng.randint(1, 2))
            assert pullback(cmap, interior(fx, a)) == interior(x, pullback(cmap, a))
            assert pullback(cmap, lie(fx, a)) == lie(x, pullback(cmap, a))


def test_pushforward_requires_invertible():
    with pytest.raises(ValueError):
        pushforward(ChartMap(T1, T1, matrix=((2,),)), frame_field(T1, 0))


# -- Hodge star, codifferential, Laplacian ------------------------------------------


def test_hodge_star_t2():
    assert hodge_star(dx(T2, 0)) == dx(T2, 1)
    assert hodge_star(scalar_form(const(T2, 1))) == wedge(dx(T2, 0), dx(T2, 1))
    assert hodge_star(dx(T2, 1)) == dx(T2, 0) * -1


def test_hodge_star_signs_match_permutation_oracle():
    for chart in (T2, T3):
        n = chart.nslots
        import itertools
        for p in range(n + 1):
            for idx in itertools.combinations(range(n), p):
                comp = tuple(j for j in range(n) if j not in idx)
                starred = hodge_star(form(chart, p, {idx: const(chart, 1)}))
                assert starred == form(chart, n - p,
                                       {comp: const(chart, perm_sign(idx + comp))})


def test_star_star_sign():
    rng = random.Random(157)
    for chart in (T2, T3):
        n = chart.nslots
        for _ in range(100):
            p = rng.randint(0, n)
            a = random_form(rng, chart, p)
            sign = -1 if (p * (n - p)) % 2 else 1
            assert hodge_star(hodge_star(a)) == a * sign


def test_codiff_frozen_examples():
    a = wedge(scalar_form(sin_wave(T2, (1, 0))), dx(T2, 0))
    assert codiff(a) == scalar_form(-cos_wave(T2, (1, 0)))
    assert codiff(scalar_form(const(T2, 5))).is_zero
    # T^1, p = 1: delta(f dx) = -f'
    f = sin_wave(T1, (1,))
    assert codiff(wedge(scalar_form(f), dx(T1, 0))) == scalar_form(-f.partial(0))


def _codiff_by_stars(a):
    """The codifferential as (-1)^(n(p+1)+1) * d *, the composite of Hodge stars."""
    n, p = a.chart.nslots, a.degree
    sign = -1 if (n * p + n + 1) % 2 else 1
    return hodge_star(ext_d(hodge_star(a))) * sign


def test_codiff_matches_hodge_star_composite():
    rng = random.Random(223)
    for n in (1, 2, 3, 4):
        chart = torus(n)
        for degree in range(-1, n + 2):
            for _ in range(8):
                a = random_form(rng, chart, degree, max_components=3)
                assert codiff(a) == _codiff_by_stars(a)


@pytest.mark.parametrize("chart", [R2, C1, torus_complex(1), affine(3)])
def test_codiff_requires_real_torus(chart):
    with pytest.raises(ChartMismatchError) as info:
        codiff(dx(chart, 0))
    assert str(info.value) == f"flat Hodge operators require a real torus, got {chart}"


def test_codiff_squared_zero():
    rng = random.Random(163)
    for chart in (T2, T3):
        for _ in range(100):
            a = random_form(rng, chart, rng.randint(0, chart.nslots))
            assert codiff(codiff(a)).is_zero


def test_laplacian_eigenvalues():
    assert laplacian(scalar_form(sin_wave(T1, (1,)))) == scalar_form(sin_wave(T1, (1,)))
    assert laplacian(scalar_form(const(T2, 1))).is_zero
    a = wedge(scalar_form(wave(T2, (1, 1))), dx(T2, 0))
    assert laplacian(a) == a * 2
    # oracle: the eigenvalue of mode k is |k|^2
    for k in [(1, 0), (2, -1), (0, 3)]:
        mode = wedge(scalar_form(wave(T2, k)), dx(T2, 1))
        assert laplacian(mode) == mode * laplace_eigenvalue(k)


def test_adjointness_of_d_and_codiff():
    rng = random.Random(167)
    for chart in (T2, T3):
        for _ in range(100):
            p = rng.randint(0, chart.nslots - 1)
            a = random_form(rng, chart, p)
            b = random_form(rng, chart, p + 1)
            assert inner(ext_d(a), b) == inner(a, codiff(b))


def test_inner_positive_definite():
    rng = random.Random(173)
    for _ in range(100):
        a = random_form(rng, T2, rng.randint(0, 2))
        val = inner(a, a)
        assert val.is_real and val.re >= 0
        assert (val.re == 0) == a.is_zero


def test_lie_skew_for_killing_fields():
    rng = random.Random(179)
    for chart in (T2, T3):
        for _ in range(100):
            u = random_field(rng, chart, constant=True)
            p = rng.randint(0, chart.nslots)
            a = random_form(rng, chart, p)
            b = random_form(rng, chart, p)
            # constant fields may have complex coefficients in the generator
            # pool; skewness <L_U a, b> = -<a, L_U b> needs the real action,
            # so conjugate the components for the second slot.
            u_conj = VectorField(chart, tuple(c.conjugate() for c in u.components))
            assert inner(lie(u, a), b) == -inner(a, lie(u_conj, b))


# -- sharp and Hamiltonian fields -----------------------------------------------


def test_sharp():
    assert sharp(dx(T2, 0)) == frame_field(T2, 0)
    w = dx(T2, 0) * 2 + dx(T2, 1) * 3
    assert sharp(w) == constant_field(T2, (2, 3))
    assert sharp(zero_form(T2, 1)) == constant_field(T2, (0, 0))


def test_hamiltonian_field_solve_and_verify():
    omega = wedge(dx(R2, 0), dx(R2, 1))
    x_coord, y_coord = coordinate(R2, 0), coordinate(R2, 1)
    # f = x -> X = d/dy
    assert hamiltonian_field(omega, scalar_form(x_coord)) == constant_field(R2, (0, 1))
    # f constant -> X = 0
    assert hamiltonian_field(omega, scalar_form(const(R2, 7))) == constant_field(R2, (0, 0))
    # f = (x^2 + y^2)/2 -> rotation field, verified through i_X omega = -df
    f = scalar_form((x_coord.power(2) + y_coord.power(2)) * gq("1/2"))
    out = hamiltonian_field(omega, f)
    assert out == VectorField(R2, (-y_coord, x_coord))
    assert interior(out, omega) == -ext_d(f)


def test_hamiltonian_field_rejects_degenerate():
    degenerate = zero_form(R2, 2)
    with pytest.raises(ValueError):
        hamiltonian_field(degenerate, scalar_form(coordinate(R2, 0)))


# -- Lichnerowicz operators ------------------------------------------------------


def test_lichnerowicz_d_on_constants():
    w = dx(T1, 0)
    assert lichnerowicz_d(w, scalar_form(const(T1, 1))) == w


def test_lichnerowicz_laplacian_unit_form():
    w = dx(T1, 0)
    for k in [(1,), (2,)]:
        f = scalar_form(sin_wave(T1, k))
        # unit parallel form: Delta_w = Delta + 1
        assert lichnerowicz_lap(w, f) == laplacian(f) + f
    rng = random.Random(181)
    w2 = dx(T2, 0) * gq("3/5") + dx(T2, 1) * gq("4/5")
    assert one_form_norm2(w2) == gq(1)
    for _ in range(50):
        a = random_form(rng, T2, rng.randint(0, 2))
        assert lichnerowicz_lap(w2, a) == laplacian(a) + a


def test_lichnerowicz_laplacian_general_norm():
    w = dx(T1, 0) * 2
    rng = random.Random(191)
    for _ in range(50):
        a = random_form(rng, T1, rng.randint(0, 1))
        assert lichnerowicz_lap(w, a) == laplacian(a) + a * one_form_norm2(w)
    assert one_form_norm2(w) == gq(4)


def test_lichnerowicz_d_squared_zero():
    rng = random.Random(193)
    for chart in (T1, T2):
        w = dx(chart, 0) * gq("1/2")
        for _ in range(100):
            a = random_form(rng, chart, rng.randint(0, chart.nslots))
            assert lichnerowicz_d(w, lichnerowicz_d(w, a)).is_zero
            assert lichnerowicz_delta(w, lichnerowicz_delta(w, a)).is_zero


def test_killing_relations_for_parallel_form():
    rng = random.Random(197)
    for w in (dx(T2, 0), dx(T2, 0) * gq("3/5") + dx(T2, 1) * gq("4/5")):
        u = sharp(w)
        for _ in range(100):
            a = random_form(rng, T2, rng.randint(0, 2))
            lhs = lie(u, a)
            rhs = -lichnerowicz_e_delta(w, a)
            assert lhs == rhs
            assert codiff(lie(u, a)) == lie(u, codiff(a))


def lichnerowicz_e_delta(w, a):
    return codiff(wedge(w, a)) + wedge(w, codiff(a))


# -- parsing -----------------------------------------------------------------


def test_parse_form_round_trip():
    rng = random.Random(199)
    for chart in (T2, R2, C1):
        for _ in range(40):
            a = random_form(rng, chart, rng.randint(0, 2))
            back = parse_form(chart, str(a))
            if a.is_zero:
                assert back.is_zero  # "0" does not carry a degree
            else:
                assert back == a


def test_parse_field():
    f = parse_field(T2, "1; 2")
    assert f == constant_field(T2, (1, 2))
    z = parse_field(C1, "z1")
    assert z.components[0] == coordinate(C1, 0)
    assert z.is_holomorphic()


@pytest.mark.parametrize("bad", [5, gq(1), "x", None])
def test_non_scalar_components_raise_value_error(bad):
    for raw in ((((0,), bad),), (((1,), const(T2, 1)), ((0,), bad))):
        with pytest.raises(ValueError) as info:
            Form(T2, 1, raw)
        assert type(info.value) is ValueError
        assert str(info.value) == f"form component must be a ScalarExpr, got {bad!r}"

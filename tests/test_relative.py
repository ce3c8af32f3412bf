import random

import pytest

from pairform.charts import affine, torus
from pairform.exterior import (
    coframe,
    constant_field,
    ext_d,
    form,
    interior,
    lie,
    pullback,
    scalar_form,
    wedge,
    zero_form,
)
from pairform.pair import pair_d, pair_d_lichnerowicz, pair_wedge
from pairform.randgen import (
    random_field,
    random_form,
    random_pair,
    random_scalar,
    random_torus_automorphism,
)
from pairform.relative import (
    RelPairForm,
    closed_pair,
    rel_d,
    rel_d_lichnerowicz,
    rel_wedge,
)
from pairform.rationals import gq
from pairform.scalar import ChartMap, const, coordinate, identity_map, sin_wave

from helpers import cos_wave, frame_field, include_first, include_second

R1, R2 = affine(1), affine(2)
T1, T2 = torus(1), torus(2)


def dx(chart, j):
    return coframe(chart, j)


def _doubling():
    return ChartMap(T1, T1, matrix=((2,),))


def _random_rel(rng, cmap, degree, primed=False):
    first_chart = cmap.source if primed else cmap.target
    second_chart = cmap.target if primed else cmap.source
    return RelPairForm(cmap, random_form(rng, first_chart, degree),
                       random_form(rng, second_chart, degree - 1), primed)


def test_chart_placement_enforced():
    cmap = _doubling()
    with pytest.raises(ValueError):
        RelPairForm(cmap, dx(T1, 0), dx(T1, 0))
    ok = RelPairForm(cmap, dx(T1, 0), scalar_form(const(T1, 1)))
    assert ok.degree == 1


def test_rel_d_reduces_to_pair_d_at_identity():
    rng = random.Random(401)
    for chart in (T2, R2):
        ident = identity_map(chart)
        for _ in range(100):
            x = random_field(rng, chart)
            a = random_pair(rng, chart, rng.randint(0, 2))
            rel = RelPairForm(ident, a.first, a.second)
            out = rel_d(x, rel)
            expected = pair_d(x, a)
            assert out.first == expected.first and out.second == expected.second


def test_rel_d_frozen_doubling_example():
    # f: y = 2x on the circle, X = d/dx, (sin y dy, 0) -> (0, 4 cos 2x dx)
    cmap = _doubling()
    phi = wedge(scalar_form(sin_wave(T1, (1,))), dx(T1, 0))
    a = RelPairForm(cmap, phi, zero_form(T1, 0))
    out = rel_d(frame_field(T1, 0), a)
    assert out.first.is_zero
    assert out.second == wedge(scalar_form(cos_wave(T1, (2,)) * 4), dx(T1, 0))


def test_rel_d_kills_constant_pullbacks():
    cmap = _doubling()
    a = RelPairForm(cmap, dx(T1, 0), zero_form(T1, 0))
    assert rel_d(frame_field(T1, 0), a).is_zero


def test_rel_d_squared_zero():
    rng = random.Random(409)
    maps = [_doubling(), identity_map(T2), random_torus_automorphism(random.Random(5), T2)]
    for cmap in maps:
        for _ in range(100):
            x = random_field(rng, cmap.source, constant=True)
            a = _random_rel(rng, cmap, rng.randint(0, 3))
            assert rel_d(x, rel_d(x, a)).is_zero


def test_rel_d_squared_zero_affine_nonconstant_field():
    rng = random.Random(419)
    cmap = ChartMap(R1, R2, components=(coordinate(R1, 0).power(2),
                                        coordinate(R1, 0) * -1))
    for _ in range(100):
        x = random_field(rng, R1)
        a = _random_rel(rng, cmap, rng.randint(0, 2))
        assert rel_d(x, rel_d(x, a)).is_zero


def test_rel_wedge_at_identity_matches_pair_wedge():
    rng = random.Random(421)
    ident = identity_map(T2)
    for _ in range(60):
        a = random_pair(rng, T2, rng.randint(0, 2))
        b = random_pair(rng, T2, rng.randint(0, 2))
        lhs = rel_wedge(RelPairForm(ident, a.first, a.second),
                        RelPairForm(ident, b.first, b.second))
        rhs = pair_wedge(a, b)
        assert lhs.first == rhs.first and lhs.second == rhs.second


def test_rel_wedge_frozen_example():
    cmap = _doubling()
    a = RelPairForm(cmap, dx(T1, 0), zero_form(T1, 0))
    b = RelPairForm(cmap, dx(T1, 0), scalar_form(const(T1, 1)))
    out = rel_wedge(a, b)
    assert out.first.is_zero  # dy ^ dy
    assert out.second == dx(T1, 0) * -2  # (-1)^1 f*dy * 1


def test_rel_wedge_scalar_specialisation():
    rng = random.Random(431)
    cmap = _doubling()
    g = random_scalar(rng, T1)
    b = _random_rel(rng, cmap, 1)
    out = rel_wedge(RelPairForm(cmap, scalar_form(g), zero_form(T1, -1)), b)
    assert out.first == scalar_form(g).component(()) * b.first
    assert out.second == g.compose(cmap) * b.second


def test_rel_wedge_anticommutative_and_d_antiderivation():
    rng = random.Random(433)
    cmap = random_torus_automorphism(random.Random(9), T2)
    for _ in range(100):
        p, q = rng.randint(0, 2), rng.randint(0, 2)
        a, b = _random_rel(rng, cmap, p), _random_rel(rng, cmap, q)
        x = random_field(rng, cmap.source, constant=True)
        sign = -1 if (p * q) % 2 else 1
        lhs, rhs = rel_wedge(a, b), rel_wedge(b, a)
        assert lhs.first == rhs.first * sign and lhs.second == rhs.second * sign
        dsign = -1 if p % 2 else 1
        left = rel_d(x, rel_wedge(a, b))
        right = rel_wedge(rel_d(x, a), b) + rel_wedge(a, rel_d(x, b)) * dsign
        assert left.first == right.first and left.second == right.second


def test_rel_wedge_antiderivation_with_nonconstant_field():
    rng = random.Random(439)
    cmap = ChartMap(R1, R1, components=(coordinate(R1, 0) * 2,))
    for _ in range(60):
        p = rng.randint(0, 1)
        a, b = _random_rel(rng, cmap, p), _random_rel(rng, cmap, rng.randint(0, 1))
        x = random_field(rng, R1)
        dsign = -1 if p % 2 else 1
        left = rel_d(x, rel_wedge(a, b))
        right = rel_wedge(rel_d(x, a), b) + rel_wedge(a, rel_d(x, b)) * dsign
        assert left.first == right.first and left.second == right.second


# -- closed pairs and connecting-map vanishing ---------------------------------


def test_closed_pair_frozen_example():
    cmap = _doubling()
    out = closed_pair(frame_field(T1, 0), cmap, dx(T1, 0))
    assert out.first == dx(T1, 0)
    assert out.second == scalar_form(const(T1, 2))


def test_closed_pair_zero():
    out = closed_pair(frame_field(T1, 0), _doubling(), zero_form(T1, 1))
    assert out.is_zero


def test_closed_pair_rejects_non_closed():
    with pytest.raises(ValueError):
        closed_pair(frame_field(T1, 0), _doubling(),
                    wedge(scalar_form(sin_wave(T1, (1,))), dx(T1, 0)) * 0 +
                    scalar_form(sin_wave(T1, (1,))))


def test_closed_pair_exactness_witness():
    # exact phi = d(sin y); the witness identity is asserted inside
    cmap = _doubling()
    psi = scalar_form(sin_wave(T1, (1,)))
    phi = ext_d(psi)
    out = closed_pair(frame_field(T1, 0), cmap, phi, primitive=psi)
    assert out.first == phi
    rng = random.Random(443)
    zeta = random_form(rng, T1, -1)
    closed_pair(frame_field(T1, 0), cmap, phi, primitive=psi, zeta=zeta)


def test_connecting_map_vanishing_lie_of_pullback_is_exact():
    rng = random.Random(449)
    for cmap in (_doubling(), random_torus_automorphism(random.Random(3), T2)):
        for _ in range(100):
            x = random_field(rng, cmap.source, constant=True)
            p = rng.randint(1, 2)
            phi = ext_d(random_form(rng, cmap.target, p - 1)) + \
                random_form(rng, cmap.target, p, max_freq=0)
            assert ext_d(phi).is_zero
            pulled = pullback(cmap, phi)
            assert lie(x, pulled) == ext_d(interior(x, pulled))


# -- the primed complex ---------------------------------------------------------


def test_rel_d_lichnerowicz_closed_eta():
    rng = random.Random(457)
    cmap = _doubling()
    eta = dx(T1, 0) * 3
    for _ in range(50):
        a = _random_rel(rng, cmap, rng.randint(0, 2), primed=True)
        out = rel_d_lichnerowicz(eta, a)
        assert out.first == ext_d(a.first)
        assert out.second == -ext_d(a.second)


def test_rel_d_lichnerowicz_matches_pair_version_at_identity():
    rng = random.Random(461)
    ident = identity_map(R2)
    eta = wedge(scalar_form(coordinate(R2, 0)), dx(R2, 1))
    for _ in range(60):
        a = random_pair(rng, R2, rng.randint(0, 2))
        rel = RelPairForm(ident, a.first, a.second, primed=True)
        out = rel_d_lichnerowicz(eta, rel)
        expected = pair_d_lichnerowicz(eta, a)
        assert out.first == expected.first and out.second == expected.second


def test_rel_d_lichnerowicz_frozen_example():
    # eta = x dy on the plane, f = id: (0, 1) -> (-dx^dy, 0)
    ident = identity_map(R2)
    eta = wedge(scalar_form(coordinate(R2, 0)), dx(R2, 1))
    a = RelPairForm(ident, zero_form(R2, 1), scalar_form(const(R2, 1)), primed=True)
    out = rel_d_lichnerowicz(eta, a)
    assert out.first == wedge(dx(R2, 0), dx(R2, 1)) * -1
    assert out.second.is_zero


def test_rel_d_lichnerowicz_squared_zero():
    rng = random.Random(463)
    cmap = ChartMap(R2, R2, components=(coordinate(R2, 0) + coordinate(R2, 1),
                                        coordinate(R2, 1)))
    for _ in range(100):
        eta = random_form(rng, R2, 1)
        a = _random_rel(rng, cmap, rng.randint(0, 3), primed=True)
        assert rel_d_lichnerowicz(eta, rel_d_lichnerowicz(eta, a)).is_zero


def test_rel_d_lichnerowicz_closed_psi_kills_second_slot():
    rng = random.Random(467)
    cmap = identity_map(T2)
    eta = random_form(rng, T2, 1)
    psi = random_form(rng, T2, 1, max_freq=0)  # constant, hence closed
    a = RelPairForm(cmap, random_form(rng, T2, 2), psi, primed=True)
    assert rel_d_lichnerowicz(eta, a).second.is_zero


def test_primed_second_connecting_vanishing():
    # for closed psi on the target: f*(d eta ^ psi) = d f*(eta ^ psi)
    rng = random.Random(479)
    for cmap in (_doubling(), random_torus_automorphism(random.Random(7), T2)):
        for _ in range(100):
            eta = random_form(rng, cmap.target, 1)
            psi = random_form(rng, cmap.target, rng.randint(0, 1), max_freq=0)
            lhs = pullback(cmap, wedge(ext_d(eta), psi))
            rhs = ext_d(pullback(cmap, wedge(eta, psi)))
            assert lhs == rhs


# -- structural maps -------------------------------------------------------------


def test_structural_definitions():
    cmap = _doubling()
    a = include_second(cmap, dx(T1, 0))
    assert a.first.is_zero and a.second == dx(T1, 0) and a.degree == 2
    rel = RelPairForm(cmap, dx(T1, 0), scalar_form(const(T1, 1)))
    assert rel.first == dx(T1, 0)
    b = include_first(cmap, dx(T1, 0))
    assert b.primed and b.first == dx(T1, 0) and b.second.is_zero
    assert RelPairForm(cmap, dx(T1, 0), scalar_form(const(T1, 2)),
                       primed=True).second == scalar_form(const(T1, 2))


def test_structural_cochain_identities():
    rng = random.Random(487)
    cmap = random_torus_automorphism(random.Random(11), T2)
    for _ in range(60):
        x = random_field(rng, cmap.source, constant=True)
        psi = random_form(rng, cmap.source, rng.randint(0, 1))
        lhs = rel_d(x, include_second(cmap, psi))
        rhs = include_second(cmap, -ext_d(psi))
        assert lhs.first == rhs.first and lhs.second == rhs.second
        a = _random_rel(rng, cmap, rng.randint(0, 2))
        assert rel_d(x, a).first == ext_d(a.first)
        # exactness in the middle: beta(a) = 0 forces a = alpha(second slot)
        killed = RelPairForm(cmap, zero_form(cmap.target, a.degree), a.second)
        assert killed.first.is_zero
        again = include_second(cmap, killed.second)
        assert again.first == killed.first and again.second == killed.second
        # primed analogues
        eta = random_form(rng, cmap.target, 1)
        phi = random_form(rng, cmap.source, rng.randint(0, 2))
        lhs2 = rel_d_lichnerowicz(eta, include_first(cmap, phi))
        rhs2 = include_first(cmap, ext_d(phi))
        assert lhs2.first == rhs2.first and lhs2.second == rhs2.second
        b = _random_rel(rng, cmap, rng.randint(1, 2), primed=True)
        assert rel_d_lichnerowicz(eta, b).second == -ext_d(b.second)


# -- relative Liouville example ----------------------------------------------------


def test_primed_complex_reindexes_inverse_map():
    # over an invertible map the primed pair holds the same two forms as the
    # unprimed pair over the inverse, just bookkept from the other side
    cmap = ChartMap(T2, T2, matrix=((1, 1), (0, 1)))
    inv = cmap.inverse()
    phi = wedge(scalar_form(sin_wave(T2, (1, 0))), dx(T2, 0))
    psi = scalar_form(const(T2, 2))
    primed = RelPairForm(inv, phi, psi, primed=True)
    unprimed = RelPairForm(cmap, phi, psi)
    assert primed.first == unprimed.first and primed.second == unprimed.second
    assert primed.degree == unprimed.degree


def test_relative_liouville_symplectomorphism():
    # M = M' = R^2, f(u, v) = (2u, v/2) is a linear symplectomorphism
    u, v = coordinate(R2, 0), coordinate(R2, 1)
    cmap = ChartMap(R2, R2, components=(u * 2, v * gq("1/2")))
    omega = wedge(dx(R2, 0), dx(R2, 1))
    assert pullback(cmap, omega) == omega  # f* omega = omega'
    theta = wedge(scalar_form(coordinate(R2, 0)), dx(R2, 1))  # Liouville form x dy
    theta_src = wedge(scalar_form(u), dx(R2, 1))
    from pairform.exterior import VectorField
    xi = VectorField(R2, (u, u * 0))
    a = RelPairForm(cmap, omega, theta_src)
    assert rel_d(xi, a).is_zero
    # f* theta = theta' here, so the class is exhibited as a rel_d-image
    assert pullback(cmap, theta) == theta_src
    witness = closed_pair(xi, cmap, omega, primitive=theta)
    assert witness.first == omega and witness.second == theta_src

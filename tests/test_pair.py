import random

import pytest

from pairform.charts import affine, torus
from pairform.exterior import (
    VectorField,
    coframe,
    constant_field,
    ext_d,
    form,
    laplacian,
    lie,
    scalar_form,
    wedge,
    zero_form,
)
from pairform.pair import (
    PairForm,
    class_combine,
    class_embed,
    class_project,
    class_split,
    pair_codiff,
    pair_codiff_skew,
    pair_d,
    pair_d_lichnerowicz,
    pair_inner,
    pair_interior,
    pair_lie,
    pair_laplacian,
    pair_pullback,
    pair_wedge,
    transfer,
)
from pairform.randgen import (
    random_automorphism,
    random_commuting_fields,
    random_field,
    random_form,
    random_pair,
    random_scalar,
)
from pairform.rationals import gq
from pairform.scalar import ChartMap, const, coordinate, sin_wave, wave

from helpers import cos_wave, frame_field, from_form, zero_pair
from oracles import coordinate_lie

R1, R2 = affine(1), affine(2)
T1, T2, T3 = torus(1), torus(2), torus(3)
CHARTS = (R2, T2, T3)


def dx(chart, j):
    return coframe(chart, j)


def test_degree_bookkeeping():
    with pytest.raises(ValueError):
        PairForm(dx(T2, 0), dx(T2, 1))
    p = zero_pair(T2, 3)  # top degree n+1 has zero first component
    assert p.degree == 3 and p.is_zero
    assert zero_pair(T2, 4).is_zero  # beyond n+1 only the zero pair exists
    with pytest.raises(ValueError):
        PairForm(form(T2, 2, {(0, 1): const(T2, 1)}), zero_form(T2, 0))


# -- pair wedge ---------------------------------------------------------------


def test_pair_wedge_scalar_action():
    rng = random.Random(211)
    for chart in CHARTS:
        f = random_scalar(rng, chart)
        a = random_pair(rng, chart, 2)
        out = pair_wedge(PairForm(scalar_form(f), zero_form(chart, -1)), a)
        assert out.first == scalar_form(f).component(()) * a.first
        assert out.second == f * a.second


def test_pair_wedge_frozen_example():
    a = PairForm(dx(R2, 0), scalar_form(const(R2, 1)))
    b = from_form(dx(R2, 1))
    out = pair_wedge(a, b)
    assert out.first == wedge(dx(R2, 0), dx(R2, 1))
    assert out.second == dx(R2, 1)


def test_pair_wedge_self_annihilates():
    a = from_form(dx(R2, 0))
    assert pair_wedge(a, a).is_zero


def test_pair_wedge_graded_commutative():
    rng = random.Random(223)
    for chart in CHARTS:
        for _ in range(100):
            p, q = rng.randint(0, 2), rng.randint(0, 2)
            a, b = random_pair(rng, chart, p), random_pair(rng, chart, q)
            sign = -1 if (p * q) % 2 else 1
            lhs = pair_wedge(a, b)
            rhs = pair_wedge(b, a)
            assert lhs.first == rhs.first * sign and lhs.second == rhs.second * sign


def test_pair_wedge_associative_distributive():
    rng = random.Random(227)
    for _ in range(100):
        a = random_pair(rng, T2, rng.randint(0, 2))
        b = random_pair(rng, T2, rng.randint(0, 2))
        c = random_pair(rng, T2, b.degree)
        lhs = pair_wedge(pair_wedge(a, b), c)
        rhs = pair_wedge(a, pair_wedge(b, c))
        assert lhs.first == rhs.first and lhs.second == rhs.second
        dist = pair_wedge(a, b + c)
        split = pair_wedge(a, b) + pair_wedge(a, c)
        assert dist.first == split.first and dist.second == split.second


# -- the differential induced by X ---------------------------------------------


def test_pair_d_on_functions():
    # (f, 0) -> (df, Xf)
    rng = random.Random(229)
    for chart in CHARTS:
        x = random_field(rng, chart)
        f = random_scalar(rng, chart)
        out = pair_d(x, PairForm(scalar_form(f), zero_form(chart, -1)))
        assert out.first == ext_d(scalar_form(f))
        assert out.second == scalar_form(x.apply(f))


def test_pair_d_frozen_example():
    a = PairForm(wedge(scalar_form(sin_wave(T2, (1, 0))), dx(T2, 1)), zero_form(T2, 0))
    out = pair_d(frame_field(T2, 0), a)
    cosx = cos_wave(T2, (1, 0))
    assert out.first == form(T2, 2, {(0, 1): cosx})
    assert out.second == wedge(scalar_form(cosx), dx(T2, 1))


def test_pair_d_kills_constant_pairs():
    assert pair_d(frame_field(T2, 0), from_form(dx(T2, 0))).is_zero


def test_pair_d_squared_zero():
    rng = random.Random(233)
    for chart in CHARTS:
        for _ in range(100):
            x = random_field(rng, chart)
            a = random_pair(rng, chart, rng.randint(0, 3))
            assert pair_d(x, pair_d(x, a)).is_zero


def test_pair_d_antiderivation():
    rng = random.Random(239)
    for chart in CHARTS:
        for _ in range(100):
            x = random_field(rng, chart)
            p = rng.randint(0, 2)
            a, b = random_pair(rng, chart, p), random_pair(rng, chart, rng.randint(0, 2))
            sign = -1 if p % 2 else 1
            lhs = pair_d(x, pair_wedge(a, b))
            rhs = pair_wedge(pair_d(x, a), b) + pair_wedge(a, pair_d(x, b)) * sign
            assert lhs.first == rhs.first and lhs.second == rhs.second


# -- contraction and Lie operators ---------------------------------------------


def test_pair_interior_frozen_example():
    a = PairForm(wedge(dx(T2, 0), dx(T2, 1)), dx(T2, 0))
    out = pair_interior(frame_field(T2, 0), a)
    assert out.first == dx(T2, 1)
    assert out.second == scalar_form(const(T2, -1))


def test_pair_interior_on_functions_vanishes():
    a = PairForm(scalar_form(const(T2, 3)), zero_form(T2, -1))
    assert pair_interior(frame_field(T2, 0), a).is_zero
    assert pair_interior(frame_field(T2, 1), from_form(dx(T2, 0))).is_zero


def test_pair_interior_squared_and_antiderivation():
    rng = random.Random(241)
    for chart in CHARTS:
        for _ in range(100):
            x = random_field(rng, chart)
            p = rng.randint(0, 2)
            a = random_pair(rng, chart, p)
            b = random_pair(rng, chart, rng.randint(0, 2))
            assert pair_interior(x, pair_interior(x, a)).is_zero
            sign = -1 if p % 2 else 1
            lhs = pair_interior(x, pair_wedge(a, b))
            rhs = pair_wedge(pair_interior(x, a), b) + \
                pair_wedge(a, pair_interior(x, b)) * sign
            assert lhs.first == rhs.first and lhs.second == rhs.second


def test_pair_lie_componentwise_and_derivation():
    rng = random.Random(251)
    euler = VectorField(R1, (coordinate(R1, 0),))
    out = pair_lie(euler, PairForm(dx(R1, 0), scalar_form(const(R1, 1))))
    assert out.first == dx(R1, 0) and out.second.is_zero
    for chart in CHARTS:
        for _ in range(100):
            x = random_field(rng, chart)
            a = random_pair(rng, chart, rng.randint(0, 2))
            b = random_pair(rng, chart, rng.randint(0, 2))
            expected = PairForm(coordinate_lie(x, a.first), coordinate_lie(x, a.second))
            got = pair_lie(x, a)
            assert got.first == expected.first and got.second == expected.second
            lhs = pair_lie(x, pair_wedge(a, b))
            rhs = pair_wedge(pair_lie(x, a), b) + pair_wedge(a, pair_lie(x, b))
            assert lhs.first == rhs.first and lhs.second == rhs.second


def test_lie_commutators_on_pairs():
    rng = random.Random(257)
    from pairform.exterior import bracket
    for chart in CHARTS:
        for _ in range(100):
            x, y = random_field(rng, chart), random_field(rng, chart)
            a = random_pair(rng, chart, rng.randint(0, 2))
            lhs = pair_lie(x, pair_lie(y, a)) - pair_lie(y, pair_lie(x, a))
            rhs = pair_lie(bracket(x, y), a)
            assert lhs.first == rhs.first and lhs.second == rhs.second
            lhs2 = pair_lie(x, pair_interior(y, a)) - pair_interior(y, pair_lie(x, a))
            rhs2 = pair_interior(bracket(x, y), a)
            assert lhs2.first == rhs2.first and lhs2.second == rhs2.second


def test_cartan_homotopy_for_commuting_fields():
    rng = random.Random(263)
    for chart in CHARTS:
        for _ in range(100):
            x, y = random_commuting_fields(rng, chart)
            a = random_pair(rng, chart, rng.randint(0, 2))
            homotopy = pair_d(x, pair_interior(y, a)) + pair_interior(y, pair_d(x, a))
            expected = pair_lie(y, a)
            assert homotopy.first == expected.first and homotopy.second == expected.second
            commutator = pair_lie(y, pair_d(x, a)) - pair_d(x, pair_lie(y, a))
            assert commutator.is_zero


def test_cartan_homotopy_self_case():
    rng = random.Random(269)
    for chart in CHARTS:
        for _ in range(100):
            x = random_field(rng, chart)
            a = random_pair(rng, chart, rng.randint(0, 2))
            homotopy = pair_d(x, pair_interior(x, a)) + pair_interior(x, pair_d(x, a))
            expected = pair_lie(x, a)
            assert homotopy.first == expected.first and homotopy.second == expected.second
            assert (pair_lie(x, pair_d(x, a)) - pair_d(x, pair_lie(x, a))).is_zero


# -- the Lichnerowicz-type twisted differential ----------------------------------


def test_pair_d_lichnerowicz_frozen_example():
    eta = wedge(scalar_form(coordinate(R2, 0)), dx(R2, 1))  # x dy
    a = PairForm(zero_form(R2, 1), scalar_form(const(R2, 1)))
    out = pair_d_lichnerowicz(eta, a)
    assert out.first == wedge(dx(R2, 0), dx(R2, 1)) * -1
    assert out.second.is_zero


def test_pair_d_lichnerowicz_closed_eta_decouples():
    rng = random.Random(271)
    eta = dx(T2, 0) * 3
    for _ in range(50):
        a = random_pair(rng, T2, rng.randint(0, 2))
        out = pair_d_lichnerowicz(eta, a)
        assert out.first == ext_d(a.first)
        assert out.second == -ext_d(a.second)


def test_pair_d_lichnerowicz_squared_zero():
    rng = random.Random(277)
    for chart in CHARTS:
        for _ in range(100):
            eta = random_form(rng, chart, 1)
            a = random_pair(rng, chart, rng.randint(0, 3))
            assert pair_d_lichnerowicz(eta, pair_d_lichnerowicz(eta, a)).is_zero


def test_pair_d_functions_kill_eta_term():
    rng = random.Random(281)
    eta = random_form(rng, R2, 1)
    f = random_scalar(rng, R2)
    out = pair_d_lichnerowicz(eta, PairForm(scalar_form(f), zero_form(R2, -1)))
    assert out.first == ext_d(scalar_form(f)) and out.second.is_zero


# -- pullback naturality ----------------------------------------------------------


def test_pair_pullback_identity_and_examples():
    from pairform.scalar import identity_map, ChartMap, coordinate as coord
    rng = random.Random(283)
    a = random_pair(rng, T2, 1)
    ident = pair_pullback(identity_map(T2), a)
    assert ident.first == a.first and ident.second == a.second
    doubling = ChartMap(R1, R1, components=(coord(R1, 0) * 2,))
    b = PairForm(dx(R1, 0), scalar_form(const(R1, 1)))
    out = pair_pullback(doubling, b)
    assert out.first == dx(R1, 0) * 2
    assert out.second == scalar_form(const(R1, 1))


def test_pair_naturality_across_covering_map():
    # the circle doubling is not invertible, but the constant field d/dx
    # still pushes forward by the matrix, and naturality holds across it:
    # pulling back the pair differential of (sin y dy, 0) along y = 2x
    # matches differentiating the pulled-back pair
    doubling = ChartMap(T1, T1, matrix=((2,),))
    y_field = constant_field(T1, (2,))   # image of d/dx under the doubling
    x_field = frame_field(T1, 0)
    a = PairForm(wedge(scalar_form(sin_wave(T1, (1,))), dx(T1, 0)), zero_form(T1, 0))
    lhs = pair_pullback(doubling, pair_d(y_field, a))
    rhs = pair_d(x_field, pair_pullback(doubling, a))
    expected_second = wedge(scalar_form(cos_wave(T1, (2,)) * 4), dx(T1, 0))
    assert lhs.first.is_zero and lhs.second == expected_second
    assert rhs.first == lhs.first and rhs.second == lhs.second


def test_pair_naturality_three_identities():
    rng = random.Random(293)
    from pairform.exterior import pushforward
    for chart in CHARTS:
        for _ in range(100):
            cmap = random_automorphism(rng, chart)
            x = random_field(rng, chart, constant=not chart.is_torus)
            fx = pushforward(cmap, x)
            a = random_pair(rng, chart, rng.randint(0, 2))
            lhs = pair_d(x, pair_pullback(cmap, a))
            rhs = pair_pullback(cmap, pair_d(fx, a))
            assert lhs.first == rhs.first and lhs.second == rhs.second
            lhs = pair_pullback(cmap, pair_interior(fx, a))
            rhs = pair_interior(x, pair_pullback(cmap, a))
            assert lhs.first == rhs.first and lhs.second == rhs.second
            lhs = pair_pullback(cmap, pair_lie(fx, a))
            rhs = pair_lie(x, pair_pullback(cmap, a))
            assert lhs.first == rhs.first and lhs.second == rhs.second


# -- class maps --------------------------------------------------------------------


def test_class_embed_frozen_example():
    out = class_embed(frame_field(R2, 0), dx(R2, 0))
    assert out.first == dx(R2, 0)
    assert out.second == scalar_form(const(R2, 1))


def test_class_maps_round_trip_on_random_closed_input():
    rng = random.Random(307)
    for chart in CHARTS:
        for _ in range(100):
            x = random_field(rng, chart)
            p = rng.randint(0, 2)
            phi = ext_d(random_form(rng, chart, p))
            embedded = class_embed(x, phi)
            assert pair_d(x, embedded).is_zero
            psi_hat = ext_d(random_form(rng, chart, p - 1))
            combined = class_combine(x, phi, psi_hat)
            back_phi, back_psi = class_split(x, combined)
            assert back_phi == phi and back_psi == psi_hat


def test_class_project_requires_closed_pair():
    with pytest.raises(ValueError):
        class_project(frame_field(T2, 0),
                      PairForm(wedge(scalar_form(sin_wave(T2, (1, 0))), dx(T2, 1)),
                               zero_form(T2, 0)))
    with pytest.raises(ValueError):
        class_embed(frame_field(T2, 0), wedge(scalar_form(sin_wave(T2, (1, 0))), dx(T2, 1)))


def test_class_embed_zero():
    out = class_embed(frame_field(T2, 0), zero_form(T2, 1))
    assert out.is_zero


def test_class_project_output_closed():
    rng = random.Random(311)
    for _ in range(40):
        x = constant_field(T2, (1, 2))
        phi = ext_d(random_form(rng, T2, 1))
        psi_hat = ext_d(random_form(rng, T2, 0))
        a = class_combine(x, phi, psi_hat)
        projected = class_project(x, a)
        assert ext_d(projected).is_zero


# -- transfer between complexes ------------------------------------------------------


def test_transfer_identity_when_fields_equal():
    rng = random.Random(313)
    x = random_field(rng, T2)
    a = random_pair(rng, T2, 2)
    out = transfer(x, x, a)
    assert out.first == a.first and out.second == a.second


def test_transfer_frozen_example():
    out = transfer(frame_field(T2, 0), frame_field(T2, 1), from_form(dx(T2, 0)))
    assert out.first == dx(T2, 0)
    assert out.second == scalar_form(const(T2, -1))


def test_transfer_round_trip_and_closedness():
    rng = random.Random(317)
    for chart in CHARTS:
        for _ in range(100):
            x, y = random_field(rng, chart), random_field(rng, chart)
            a = random_pair(rng, chart, rng.randint(0, 2))
            back = transfer(y, x, transfer(x, y, a))
            assert back.first == a.first and back.second == a.second
            phi = ext_d(random_form(rng, chart, 1))
            closed = class_embed(x, phi)
            moved = transfer(x, y, closed)
            assert pair_d(y, moved).is_zero


# -- harmonic theory -------------------------------------------------------------------


def test_pair_codiff_frozen_examples():
    u = frame_field(T2, 0)
    assert pair_codiff(u, PairForm(scalar_form(wave(T2, (1, 1))), zero_form(T2, -1))).is_zero
    a = PairForm(wedge(scalar_form(sin_wave(T2, (1, 0))), dx(T2, 0)),
                 scalar_form(cos_wave(T2, (1, 0))))
    out = pair_codiff(u, a)
    assert out.first == scalar_form(-cos_wave(T2, (1, 0)) - sin_wave(T2, (1, 0)))
    assert out.second.is_zero
    const_pair = PairForm(wedge(dx(T2, 0), dx(T2, 1)) * 2, dx(T2, 1) * 3)
    from pairform.exterior import codiff as delta
    out2 = pair_codiff(u, const_pair)
    assert out2.first == delta(const_pair.first)  # L_U kills constants
    assert out2.second == -delta(const_pair.second)


def test_pair_codiff_squared_zero():
    rng = random.Random(331)
    for chart in (T2, T3):
        for _ in range(100):
            u = random_field(rng, chart, constant=True)
            a = random_pair(rng, chart, rng.randint(0, chart.nslots + 1))
            assert pair_codiff(u, pair_codiff(u, a)).is_zero


def test_pair_codiff_requires_constant_field_on_torus():
    with pytest.raises(ValueError):
        pair_codiff(VectorField(T2, (sin_wave(T2, (1, 0)), const(T2, 0) * 0)),
                    zero_pair(T2, 1))
    with pytest.raises(Exception):
        pair_codiff(frame_field(R2, 0), zero_pair(R2, 1))


def test_pair_laplacian_composite_equals_closed_form():
    # the operator itself asserts the closed form on every call
    rng = random.Random(337)
    for chart in (T2, T3):
        for _ in range(100):
            u = random_field(rng, chart, constant=True)
            a = random_pair(rng, chart, rng.randint(0, chart.nslots + 1))
            out = pair_laplacian(u, a)
            expected = PairForm(
                laplacian(a.first) + lie(u, lie(u, a.first)),
                laplacian(a.second) + lie(u, lie(u, a.second)))
            assert out.first == expected.first and out.second == expected.second


def test_pair_laplacian_frozen_examples():
    sinx = scalar_form(sin_wave(T2, (1, 0)))
    a = PairForm(sinx, zero_form(T2, -1))
    assert pair_laplacian(frame_field(T2, 1), a).first == sinx
    assert pair_laplacian(frame_field(T2, 0), a).is_zero
    const_pair = PairForm(wedge(dx(T2, 0), dx(T2, 1)), dx(T2, 0) * 5)
    assert pair_laplacian(constant_field(T2, (2, 3)), const_pair).is_zero


def test_pair_inner_orthonormal_basis():
    a = from_form(dx(T2, 0))
    assert pair_inner(a, a) == gq(1)
    b = PairForm(zero_form(T2, 1), scalar_form(const(T2, 1)))
    assert pair_inner(b, b) == gq(1)
    assert pair_inner(a, from_form(dx(T2, 1))) == gq(0)


def test_pair_inner_positive_definite():
    rng = random.Random(347)
    for _ in range(60):
        a = random_pair(rng, T2, rng.randint(0, 3))
        val = pair_inner(a, a)
        assert val.is_real and val.re >= 0
        assert (val.re == 0) == a.is_zero


def test_pair_laplacian_self_adjoint():
    rng = random.Random(349)
    for chart in (T2, T3):
        for _ in range(100):
            # real constant components so that U is a genuine Killing field
            u = constant_field(chart, [rng.randint(-2, 2) for _ in range(chart.nslots)])
            p = rng.randint(0, chart.nslots + 1)
            a, b = random_pair(rng, chart, p), random_pair(rng, chart, p)
            assert pair_inner(pair_laplacian(u, a), b) == pair_inner(a, pair_laplacian(u, b))


def test_adjointness_as_defined_fails_and_sign_corrected_holds():
    """The codifferential as defined is NOT the inner-product adjoint of the
    pair differential (the Lie term would have to be self-adjoint, but for a
    Killing field it is skew).  The corrected adjoint flips that sign."""
    rng = random.Random(353)
    failures = 0
    for chart in (T2, T3):
        for _ in range(100):
            u = constant_field(chart, [rng.randint(-2, 2) for _ in range(chart.nslots)])
            p = rng.randint(1, chart.nslots)
            a = random_pair(rng, chart, p - 1)
            b = random_pair(rng, chart, p)
            lhs = pair_inner(pair_d(u, a), b)
            defined_rhs = pair_inner(a, pair_codiff(u, b))
            skew_rhs = pair_inner(a, pair_codiff_skew(u, b))
            assert lhs == skew_rhs
            if lhs != defined_rhs:
                failures += 1
                # any discrepancy must come from the Lie term
                assert not lie(u, a.first).is_zero
    assert failures > 0


def test_corrected_laplacian_closed_form_and_hodge_kernel():
    from pairform.pair import pair_laplacian_corrected
    from pairform.cohomology import corrected_laplacian_kernel_dim
    from math import comb
    rng = random.Random(367)
    for chart in (T2, T3):
        for _ in range(50):
            u = constant_field(chart, [rng.randint(-2, 2) for _ in range(chart.nslots)])
            a = random_pair(rng, chart, rng.randint(0, chart.nslots + 1))
            out = pair_laplacian_corrected(u, a)
            expected = PairForm(
                laplacian(a.first) - lie(u, lie(u, a.first)),
                laplacian(a.second) - lie(u, lie(u, a.second)))
            assert out.first == expected.first and out.second == expected.second
    # its kernel carries the cohomology: dims C(n,p) + C(n,p-1), even for a
    # resonant field where the uncorrected Laplacian has excess kernel
    for degree in range(4):
        got = corrected_laplacian_kernel_dim(T2, constant_field(T2, (1, 0)), degree, 1)
        want = comb(2, degree) if degree <= 2 else 0
        want += comb(2, degree - 1) if 1 <= degree <= 3 else 0
        assert got == want


def test_adjointness_targeted_witness():
    u = frame_field(T2, 0)
    a = PairForm(scalar_form(wave(T2, (1, 0))), zero_form(T2, -1))
    b = PairForm(zero_form(T2, 1), scalar_form(wave(T2, (1, 0))))
    lhs = pair_inner(pair_d(u, a), b)
    assert lhs == pair_inner(a, pair_codiff_skew(u, b))
    assert lhs != pair_inner(a, pair_codiff(u, b))
    assert lhs - pair_inner(a, pair_codiff(u, b)) == gq(0, 2)  # 2<L_U phi, psi'>


def test_killing_harmonic_constant_pairs():
    rng = random.Random(359)
    for chart in (T2, T3):
        for _ in range(50):
            u = constant_field(chart, [rng.randint(-2, 2) for _ in range(chart.nslots)])
            p = rng.randint(0, chart.nslots)
            # constant-coefficient (harmonic) components
            first = random_form(rng, chart, p, max_freq=0)
            second = random_form(rng, chart, p - 1, max_freq=0)
            assert pair_laplacian(u, PairForm(first, second)).is_zero


def test_klein_gordon_eigenvalue_cancellation():
    sinx = PairForm(scalar_form(sin_wave(T2, (1, 0))), zero_form(T2, -1))
    assert pair_laplacian(frame_field(T2, 0), sinx).is_zero
    out = pair_laplacian(frame_field(T2, 1), sinx)
    assert out.first == sinx.first and out.second.is_zero
    # (e^{imx}, 0) with U = m' d/dx is harmonic iff m^2 = m'^2 m^2
    for m in range(3):
        for mp in range(3):
            a = PairForm(scalar_form(wave(T1, (m,))), zero_form(T1, -1))
            u = constant_field(T1, (mp,))
            harmonic = pair_laplacian(u, a).is_zero
            assert harmonic == (m * m == mp * mp * m * m)

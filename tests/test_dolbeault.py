import random

import pytest

from pairform.charts import ChartMismatchError, affine, affine_complex, torus_complex
from pairform.dolbeault import (
    bidegree,
    dbar_pair,
    dbar_pair_rel,
    holomorphic_field,
    lie_exactness_witness,
    split_d,
)
from pairform.exterior import (
    VectorField,
    coframe,
    ext_d,
    lie,
    pushforward,
    scalar_form,
    wedge,
    zero_form,
)
from pairform.pair import PairForm, pair_pullback, pair_wedge
from pairform.randgen import (
    _random_complex_torus_map,
    random_bigraded,
    random_holomorphic_field,
    random_pair_bigraded,
)
from pairform.rationals import gq
from pairform.relative import RelPairForm
from pairform.scalar import ChartMap, const, coordinate, identity_map

C1, C2 = affine_complex(1), affine_complex(2)
TC1 = torus_complex(1)


def dz(chart, j):
    return coframe(chart, j)


def dzb(chart, j):
    return coframe(chart, chart.dim + j)


def test_bigraded_validation():
    assert bidegree(dz(C2, 0)) == (1, 0)
    assert bidegree(wedge(dz(C2, 0), dzb(C2, 1))) == (1, 1)
    assert bidegree(scalar_form(coordinate(C2, 2))) == (0, 0)
    assert bidegree(zero_form(C2, 2)) is None
    with pytest.raises(ValueError, match=r"mixes bidegrees \[\(0, 1\), \(1, 0\)\]"):
        bidegree(dz(C2, 0) + dzb(C2, 0))
    with pytest.raises(ChartMismatchError):
        bidegree(coframe(affine(2), 0))


def test_a_mixed_bidegree_is_rejected_at_every_operator():
    x = holomorphic_field(C1, (const(C1, 1),))
    mixed, zero0 = dz(C1, 0) + dzb(C1, 0), zero_form(C1, 0)
    ident = identity_map(C1)
    calls = [
        lambda: bidegree(mixed),
        lambda: split_d(mixed),
        lambda: dbar_pair(x, PairForm(mixed, zero0)),
        lambda: dbar_pair(x, PairForm(wedge(dz(C1, 0), dzb(C1, 0)), mixed)),
        lambda: dbar_pair_rel(x, RelPairForm(ident, mixed, zero0)),
        lambda: dbar_pair_rel(x, RelPairForm(ident, wedge(dz(C1, 0), dzb(C1, 0)), mixed)),
        # d-closed, so only the bidegree check can refuse it
        lambda: lie_exactness_witness(x, mixed),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="mixes bidegrees"):
            call()


def test_a_pair_whose_slots_are_not_p_q_and_p_q_minus_one_is_rejected():
    x = holomorphic_field(C2, (const(C2, 1), const(C2, 0)))
    cases = [
        (wedge(dz(C2, 0), dzb(C2, 0)), dzb(C2, 1)),    # (1, 1) with (0, 1)
        (wedge(dz(C2, 0), dz(C2, 1)), dz(C2, 0)),      # (2, 0) with (1, 0)
        (wedge(dzb(C2, 0), dzb(C2, 1)), dz(C2, 1)),    # (0, 2) with (1, 0)
    ]
    for first, second in cases:
        with pytest.raises(ValueError, match=r"\(p, q-1\)"):
            dbar_pair(x, PairForm(first, second))
        with pytest.raises(ValueError, match=r"\(p, q-1\)"):
            dbar_pair_rel(x, RelPairForm(identity_map(C2), first, second))
    # the matching (1, 0) slot, and a zero slot on either side, are accepted
    first = wedge(dz(C2, 0), dzb(C2, 0))
    for a in (PairForm(first, dz(C2, 1)), PairForm(first, zero_form(C2, 1)),
              PairForm(zero_form(C2, 2), dzb(C2, 1))):
        dbar_pair(x, a)
        dbar_pair_rel(x, RelPairForm(identity_map(C2), a.first, a.second))


def test_dbar_pair_rel_rejects_a_primed_pair():
    x = holomorphic_field(C1, (const(C1, 1),))
    a = RelPairForm(identity_map(C1), dz(C1, 0), zero_form(C1, 0), primed=True)
    with pytest.raises(ValueError, match="unprimed"):
        dbar_pair_rel(x, a)


def test_dbar_pair_output_has_the_raised_bidegrees():
    rng = random.Random(609)
    for chart in (C1, C2, TC1):
        n = chart.dim
        for _ in range(60):
            x = random_holomorphic_field(rng, chart)
            p, q = rng.randint(0, n), rng.randint(0, n)
            out = dbar_pair(x, random_pair_bigraded(rng, chart, p, q))
            assert bidegree(out.first) in ((p, q + 1), None)
            assert bidegree(out.second) in ((p, q), None)


def test_split_d_wirtinger_examples():
    zb = scalar_form(coordinate(C1, 1))
    d_del, d_bar = split_d(zb)
    assert d_del.is_zero
    assert d_bar == dzb(C1, 0)
    z_zb = scalar_form(coordinate(C1, 0) * coordinate(C1, 1))
    d_del, d_bar = split_d(z_zb)
    assert d_del == wedge(scalar_form(coordinate(C1, 1)), dz(C1, 0))
    assert d_bar == wedge(scalar_form(coordinate(C1, 0)), dzb(C1, 0))
    assert split_d(dz(C1, 0))[0].is_zero
    assert split_d(dz(C1, 0))[1].is_zero


def test_split_d_square_zero_and_anticommute():
    rng = random.Random(601)
    for chart in (C1, C2, TC1):
        n = chart.dim
        for _ in range(100):
            p, q = rng.randint(0, n), rng.randint(0, n)
            a = random_bigraded(rng, chart, p, q)
            dd, db = split_d(a)
            assert split_d(dd)[0].is_zero
            assert split_d(db)[1].is_zero
            mixed = split_d(db)[0] + split_d(dd)[1]
            assert mixed.is_zero
            # del + dbar recovers d
            assert dd + db == ext_d(a)


def test_holomorphic_field_checks():
    z = coordinate(C1, 0)
    x = holomorphic_field(C1, (z,))
    assert x.is_holomorphic()
    with pytest.raises(ValueError):
        holomorphic_field(C1, (coordinate(C1, 1),))  # zb component


def test_lie_preserves_bidegree():
    rng = random.Random(607)
    for chart in (C1, C2, TC1):
        n = chart.dim
        for _ in range(60):
            x = random_holomorphic_field(rng, chart)
            a = random_bigraded(rng, chart, rng.randint(0, n), rng.randint(0, n))
            assert bidegree(lie(x, a)) in (bidegree(a), None)


def test_dbar_pair_frozen_examples():
    x = holomorphic_field(C1, (const(C1, 1),))
    # (z, 0): dbar z = 0 and the field acts as d/dz, giving (0, 1)
    a = PairForm(scalar_form(coordinate(C1, 0)), zero_form(C1, -1))
    out = dbar_pair(x, a)
    assert out.first.is_zero
    assert out.second == scalar_form(const(C1, 1))
    # constant first slot: everything dies
    b = PairForm(dz(C1, 0), zero_form(C1, 0))
    assert dbar_pair(x, b).is_zero
    # (zb dz, 0): dbar(zb dz) = dzb^dz and the Lie term vanishes
    c = PairForm(wedge(scalar_form(coordinate(C1, 1)), dz(C1, 0)), zero_form(C1, 0))
    out = dbar_pair(x, c)
    assert out.first == wedge(dzb(C1, 0), dz(C1, 0))
    assert out.second.is_zero


def test_dbar_pair_squared_zero():
    rng = random.Random(613)
    for chart in (C1, C2, TC1):
        n = chart.dim
        for _ in range(100):
            x = random_holomorphic_field(rng, chart)
            a = random_pair_bigraded(rng, chart, rng.randint(0, n), rng.randint(0, n))
            assert dbar_pair(x, dbar_pair(x, a)).is_zero


def test_lie_commutes_with_dbar():
    rng = random.Random(617)
    for chart in (C1, C2, TC1):
        n = chart.dim
        for _ in range(100):
            x = random_holomorphic_field(rng, chart)
            a = random_bigraded(rng, chart, rng.randint(0, n), rng.randint(0, n))
            assert lie(x, split_d(a)[1]) == split_d(lie(x, a))[1]


def test_dbar_pair_antiderivation_over_pair_wedge():
    rng = random.Random(619)
    for chart in (C2, TC1):
        n = chart.dim
        for _ in range(100):
            x = random_holomorphic_field(rng, chart)
            pa, qa = rng.randint(0, n), rng.randint(0, n)
            a = random_pair_bigraded(rng, chart, pa, qa)
            b = random_pair_bigraded(rng, chart, rng.randint(0, n), rng.randint(0, n))
            sign = -1 if (pa + qa) % 2 else 1
            lhs = dbar_pair(x, pair_wedge(a, b))
            rhs = pair_wedge(dbar_pair(x, a), b) + pair_wedge(a, dbar_pair(x, b)) * sign
            assert lhs.first == rhs.first
            assert lhs.second == rhs.second


def test_pair_wedge_graded_commutative_bigraded():
    rng = random.Random(621)
    for _ in range(100):
        pa, qa = rng.randint(0, 2), rng.randint(0, 2)
        pb, qb = rng.randint(0, 2), rng.randint(0, 2)
        a = random_pair_bigraded(rng, C2, pa, qa)
        b = random_pair_bigraded(rng, C2, pb, qb)
        sign = -1 if ((pa + qa) * (pb + qb)) % 2 else 1
        lhs = pair_wedge(a, b)
        rhs = pair_wedge(b, a)
        assert lhs.first == rhs.first * sign
        assert lhs.second == rhs.second * sign


def test_functoriality_maps_cocycles_to_cocycles():
    rng = random.Random(631)
    for chart in (C1, TC1):
        for _ in range(100):
            if chart.is_torus:
                cmap = _random_complex_torus_map(rng, chart)
            else:
                z = coordinate(chart, 0)
                cmap = ChartMap(chart, chart, components=(z * gq(2) + const(chart, 1),))
            x = random_holomorphic_field(rng, chart)
            fx = pushforward(cmap, x)
            assert fx.is_holomorphic()
            a = random_pair_bigraded(rng, chart, rng.randint(0, 1), rng.randint(0, 1))
            image = dbar_pair(fx, a)
            pulled_image = pair_pullback(cmap, image)
            pulled = pair_pullback(cmap, a)
            direct = dbar_pair(x, pulled)
            assert pulled_image.first == direct.first
            assert pulled_image.second == direct.second
            cocycle = dbar_pair(fx, a)
            assert dbar_pair(x, pair_pullback(cmap, cocycle)).is_zero


def test_dbar_pair_rel_identity_reduction():
    rng = random.Random(641)
    for chart in (C1, TC1):
        ident = identity_map(chart)
        for _ in range(60):
            x = random_holomorphic_field(rng, chart)
            a = random_pair_bigraded(rng, chart, rng.randint(0, 1), rng.randint(0, 1))
            rel = RelPairForm(ident, a.first, a.second)
            out = dbar_pair_rel(x, rel)
            expected = dbar_pair(x, a)
            assert out.first == expected.first
            assert out.second == expected.second


def test_dbar_pair_rel_frozen_example():
    # f(w) = w^2, X = d/dw, a = (dz, 0): second slot L_X f*dz = L_X(2w dw) = 2dw
    w = coordinate(C1, 0)
    cmap = ChartMap(C1, C1, components=(w.power(2),))
    x = holomorphic_field(C1, (const(C1, 1),))
    a = RelPairForm(cmap, dz(C1, 0), zero_form(C1, 0))
    out = dbar_pair_rel(x, a)
    assert out.first.is_zero
    assert out.second == dz(C1, 0) * 2


def test_dbar_pair_rel_squared_zero():
    rng = random.Random(643)
    w = coordinate(C1, 0)
    maps = [identity_map(C1), ChartMap(C1, C1, components=(w.power(2),))]
    for cmap in maps:
        for _ in range(60):
            x = random_holomorphic_field(rng, C1)
            p, q = rng.randint(0, 1), rng.randint(0, 1)
            a = RelPairForm(cmap, random_bigraded(rng, C1, p, q),
                            random_bigraded(rng, C1, p, q - 1))
            assert dbar_pair_rel(x, dbar_pair_rel(x, a)).is_zero


def test_dbar_pair_rel_rejects_nonholomorphic():
    zb = coordinate(C1, 1)
    bad = VectorField(C1, (zb, zb * 0))
    a = RelPairForm(identity_map(C1), dz(C1, 0), zero_form(C1, 0))
    with pytest.raises(ValueError):
        dbar_pair_rel(bad, a)


def test_lie_exactness_witness_frozen_example():
    # phi = dz^dzb, X = z d/dz: i_X phi = z dzb, del(z dzb) = dz^dzb, dbar = 0
    x = holomorphic_field(C1, (coordinate(C1, 0),))
    phi = wedge(dz(C1, 0), dzb(C1, 0))
    witness = lie_exactness_witness(x, phi)
    assert witness == wedge(scalar_form(coordinate(C1, 0)), dzb(C1, 0))
    assert split_d(witness)[0] == lie(x, phi)
    assert split_d(witness)[1].is_zero


def test_lie_exactness_witness_trivial_cases():
    x = holomorphic_field(C1, (const(C1, 2),))
    phi = wedge(dz(C1, 0), dzb(C1, 0))
    assert lie_exactness_witness(x, phi) == dzb(C1, 0) * 2
    # holomorphic 1-form: contraction is a holomorphic function
    psi = dz(C1, 0)
    w = lie_exactness_witness(x, psi)
    assert w == scalar_form(const(C1, 2))
    assert split_d(w)[1].is_zero


def test_lie_exactness_witness_on_complex_torus_modes():
    rng = random.Random(647)
    for _ in range(40):
        x = random_holomorphic_field(rng, TC1)
        phi = wedge(dz(TC1, 0), dzb(TC1, 0))
        witness = lie_exactness_witness(x, phi)
        assert split_d(witness)[0] == lie(x, phi)


def test_lie_exactness_witness_requires_closed():
    x = holomorphic_field(C1, (const(C1, 1),))
    not_closed = wedge(scalar_form(coordinate(C1, 1)), dz(C1, 0))
    with pytest.raises(ValueError):
        lie_exactness_witness(x, not_closed)

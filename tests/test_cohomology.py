import itertools
import random
from functools import partial
from math import comb as _math_comb


def comb(n, k):
    return _math_comb(n, k) if 0 <= k <= n else 0

import pytest

from pairform.charts import ChartMismatchError, affine, torus, torus_complex
from pairform.cohomology import (
    UnsupportedScenarioError,
    corrected_laplacian_kernel_dim,
    de_rham_complex,
    dolbeault_complex,
    dolbeault_predicted_dims,
    harmonic_kernel,
    lichnerowicz_kernel_dim,
    pair_complex,
    pair_eta_complex,
    pair_predicted_dims,
    primed_eta_complex,
    primed_predicted_dims,
    relative_complex,
    relative_predicted_dims,
)
from pairform.dolbeault import holomorphic_field
from pairform.exterior import coframe, constant_field, parse_form, scalar_form, wedge, zero_form
from pairform.randgen import random_gl_matrix
from pairform.rationals import gq
from pairform.scalar import ChartMap, const, identity_map, sin_wave

from helpers import clear_certificates, cohomology_memos
from oracles import (
    all_blocks_harmonic,
    all_blocks_kernel_dim,
    anticommutator,
    band_matrix,
    blocks,
    closed_value,
    de_rham_band,
    dolbeault_band,
    eliminated_ranks,
    homotopy_value,
    laplace_eigenvalue,
    leibniz_det,
    mode_block,
    ModeBlock,
    operator_matrix,
    pair_band,
    pair_eta_band,
    point_set_certify,
    point_set_dd_failure,
    primed_band,
    reassemble,
    relative_band,
    render_vector,
    sampled_coefficients,
    sampled_forms,
    symbol_forms,
)

T1, T2, T3 = torus(1), torus(2), torus(3)
TC1 = torus_complex(1)


def test_circle_de_rham_band_counts():
    out = de_rham_complex(T1, 1)
    # independent Fourier-mode oracle: three modes per degree, the two
    # nonzero modes are killed in cohomology by d
    modes = [k for k in (-1, 0, 1)]
    assert len(out.basis[0]) == len(modes) == 3
    assert len(out.basis[1]) == 3
    assert out.ranks[0] == sum(1 for k in modes if k != 0) == 2
    assert out.dims[0] == 1 and out.dims[1] == 1


def test_de_rham_betti_numbers():
    for chart in (T1, T2, T3):
        out = de_rham_complex(chart, 1)
        n = chart.dim
        assert out.dim_vector() == [comb(n, p) for p in range(n + 2)]


def test_pair_complex_constant_band():
    from pairform.cohomology import _pair_model

    x = constant_field(T2, (1, 0))
    out = pair_complex(T2, x, 0)
    model = _pair_model(T2, x, 0)
    for d in model.degrees[:-1]:
        assert band_matrix(model, model.op, d, d + 1).is_zero()
    assert set(out.ranks.values()) == {0}
    assert out.dim_vector() == [1, 3, 3, 1, 0]


def test_pair_complex_dimension_formula():
    for chart in (T1, T2, T3):
        n = chart.dim
        fields = [constant_field(chart, [1] + [0] * (n - 1))]
        if n >= 2:
            fields.append(constant_field(chart, [1, 2] + [0] * (n - 2)))
        tables = []
        for x in fields:
            for max_freq in (1, 2):
                out = pair_complex(chart, x, max_freq)
                assert out.dim_vector() == pair_predicted_dims(n)
                # vanishing above top degree and Poincare symmetry
                assert out.dims[n + 2] == 0
                for p in range(n + 2):
                    assert out.dims[p] == out.dims[n + 1 - p]
                tables.append(out.dim_vector())
        assert all(t == tables[0] for t in tables)


def test_pair_complex_rejects_nonconstant_field():
    from pairform.exterior import VectorField
    from pairform.scalar import zero as scalar_zero
    bad = VectorField(T2, (sin_wave(T2, (1, 0)), scalar_zero(T2)))
    with pytest.raises(UnsupportedScenarioError):
        pair_complex(T2, bad, 1)


def test_eta_complex_closed_supported():
    eta = coframe(T2, 0) * 3
    out = pair_eta_complex(T2, eta, 1)
    assert out.dim_vector() == pair_predicted_dims(2)
    wavy_closed = wedge(scalar_form(sin_wave(T2, (1, 0))), coframe(T2, 0))
    out2 = pair_eta_complex(T2, wavy_closed, 1)
    assert out2.dim_vector() == pair_predicted_dims(2)


def test_eta_complex_rejects_non_closed():
    eta = wedge(scalar_form(sin_wave(T2, (1, 0))), coframe(T2, 1))
    with pytest.raises(UnsupportedScenarioError):
        pair_eta_complex(T2, eta, 1)


@pytest.mark.parametrize("eta, message", [
    (coframe(T3, 0), "the twisting form lives on torus(3), not torus(2)"),
    (coframe(affine(2), 0), "the twisting form lives on affine-real(2), not torus(2)"),
])
def test_eta_complex_rejects_a_form_on_another_chart(eta, message):
    with pytest.raises(ChartMismatchError) as exc_info:
        pair_eta_complex(T2, eta, 1)
    assert str(exc_info.value) == message


@pytest.mark.parametrize("text", ["dx[1]^dx[2]", "3"])
def test_eta_complex_rejects_a_form_of_other_degree(text):
    # closed forms of degree 2 and 0 would otherwise pass as a twisted table
    with pytest.raises(ValueError) as exc_info:
        pair_eta_complex(T2, parse_form(T2, text), 1)
    assert exc_info.type is ValueError
    assert str(exc_info.value) == "twisting form must be a 1-form"


def test_relative_identity_matches_pair_table():
    x = constant_field(T2, (1, 0))
    rel = relative_complex(identity_map(T2), x, 1)
    direct = pair_complex(T2, x, 1)
    assert rel.dim_vector() == direct.dim_vector()


def test_relative_doubling_dimensions():
    doubling = ChartMap(T1, T1, matrix=((2,),))
    out = relative_complex(doubling, constant_field(T1, (1,)), 1)
    assert out.dim_vector() == relative_predicted_dims(1, 1)
    out2 = relative_complex(doubling, constant_field(T1, (1,)), 2)
    assert out2.dim_vector() == relative_predicted_dims(1, 1)


def test_relative_gl2z_dimensions():
    shear = ChartMap(T2, T2, matrix=((1, 1), (0, 1)))
    for x in (constant_field(T2, (1, 0)), constant_field(T2, (1, 2))):
        out = relative_complex(shear, x, 1)
        assert out.dim_vector() == relative_predicted_dims(2, 2)


def test_relative_dimensions_across_nonsquare_maps():
    # circle embedded in the 2-torus along the first angle
    embed = ChartMap(T1, T2, matrix=((1,), (0,)))
    out = relative_complex(embed, constant_field(T1, (1,)), 1)
    assert out.dim_vector() == relative_predicted_dims(2, 1) == [1, 3, 2, 0, 0]
    # projection of the 2-torus onto a circle
    project = ChartMap(T2, T1, matrix=((1, 0),))
    out2 = relative_complex(project, constant_field(T2, (0, 1)), 1)
    assert out2.dim_vector() == relative_predicted_dims(1, 2) == [1, 2, 2, 1, 0]
    out3 = relative_complex(project, constant_field(T2, (1, 2)), 2)
    assert out3.dim_vector() == relative_predicted_dims(1, 2)


def test_primed_complex_dimensions_match_inverse_unprimed():
    from pairform.cohomology import primed_eta_complex, primed_predicted_dims
    shear = ChartMap(T2, T2, matrix=((1, 1), (0, 1)))
    eta = coframe(T2, 0) * 2
    primed = primed_eta_complex(shear.inverse(), eta, 1)
    assert primed.dim_vector() == primed_predicted_dims(2, 2)
    unprimed = relative_complex(shear, constant_field(T2, (1, 0)), 1)
    assert primed.dim_vector() == unprimed.dim_vector()


def test_primed_complex_rejects_non_closed_eta():
    from pairform.cohomology import primed_eta_complex
    eta = wedge(scalar_form(sin_wave(T2, (1, 0))), coframe(T2, 1))
    with pytest.raises(UnsupportedScenarioError):
        primed_eta_complex(identity_map(T2), eta, 1)


def test_primed_complex_rejects_eta_of_other_degree():
    from pairform.cohomology import primed_eta_complex
    shear = ChartMap(T2, T2, matrix=((1, 1), (0, 1)))
    for text in ("dx[1]^dx[2]", "3"):
        with pytest.raises(ValueError) as exc_info:
            primed_eta_complex(shear.inverse(), parse_form(T2, text), 1)
        assert exc_info.type is ValueError
        assert str(exc_info.value) == "twisting form must be a 1-form"


def test_dolbeault_dimensions_and_serre_symmetry():
    x = holomorphic_field(TC1, (const(TC1, 1),))
    tables = {}
    for p in (0, 1):
        out = dolbeault_complex(TC1, x, p, 1)
        assert out.dim_vector() == dolbeault_predicted_dims(1, p)
        tables[p] = out.dims
    # Serre-type symmetry: dim at (p, q) equals dim at (1-p, 2-q)
    for p in (0, 1):
        for q in range(3):
            assert tables[p][q] == tables[1 - p][2 - q]


def test_dolbeault_stable_under_band_and_field():
    x2 = holomorphic_field(TC1, (const(TC1, 2),))
    out = dolbeault_complex(TC1, x2, 0, 2)
    assert out.dim_vector() == dolbeault_predicted_dims(1, 0)


# -- harmonic kernels ---------------------------------------------------------


def _resonant_modes(n, u_coeffs, max_freq):
    import itertools
    out = []
    for k in itertools.product(range(-max_freq, max_freq + 1), repeat=n):
        drift = sum(ki * ui for ki, ui in zip(k, u_coeffs))
        if laplace_eigenvalue(k) == drift * drift:
            out.append(k)
    return out


def _predicted_lap_kernel(n, u_coeffs, degree, max_freq):
    return len(_resonant_modes(n, u_coeffs, max_freq)) * \
        (comb(n, degree) + comb(n, degree - 1))


def test_harmonic_kernel_circle_degree_zero():
    out = harmonic_kernel(T1, constant_field(T1, (1,)), 0, 1)
    # every mode satisfies |k|^2 = <k,U>^2, so the Laplacian kernel is full
    assert out.dim_laplacian == 3 == _predicted_lap_kernel(1, (1,), 0, 1)
    # but only the constants are killed by both the differential and the
    # codifferential: the proposition's equality fails at resonant modes
    assert out.dim_joint == 1
    assert not out.kernels_equal
    assert out.witness is not None


def test_harmonic_kernel_transverse_field():
    out = harmonic_kernel(T2, constant_field(T2, (0, 1)), 0, 1)
    # resonant modes are exactly (0, k2)
    assert out.dim_laplacian == 3 == _predicted_lap_kernel(2, (0, 1), 0, 1)
    assert out.dim_joint == 1


def test_harmonic_kernel_nonresonant_field_kernels_agree():
    for degree in (0, 1, 2):
        out = harmonic_kernel(T2, constant_field(T2, (2, 0)), degree, 1)
        assert out.dim_laplacian == _predicted_lap_kernel(2, (2, 0), degree, 1)
        assert out.kernels_equal
        assert out.dim_laplacian == comb(2, degree) + comb(2, degree - 1)


def test_harmonic_kernel_eigenvalue_oracle_many_scenarios():
    cases = [
        (T1, (1,), (0, 1, 2)),
        (T2, (1, 0), (0, 1, 2, 3)),
        (T2, (1, 2), (0, 1)),
        (T3, (1, 0, 0), (0, 2)),
    ]
    for chart, coeffs, degrees in cases:
        for degree in degrees:
            for max_freq in (1, 2):
                out = harmonic_kernel(chart, constant_field(chart, coeffs),
                                      degree, max_freq)
                assert out.dim_laplacian == _predicted_lap_kernel(
                    chart.dim, coeffs, degree, max_freq)
                assert out.dim_joint <= out.dim_laplacian


def _column_of(complex_out, degree, value_first, value_second):
    """Decompose a pair (first, second) into band coordinates at `degree`."""
    index = {tag: i for i, tag in enumerate(complex_out.basis[degree])}
    col = {}
    for side, form in (("F", value_first), ("S", value_second)):
        zero_alpha = (0,) * form.chart.nvars
        for idx, s in form.components:
            for alpha, k, c in s.terms:
                assert alpha == zero_alpha
                col[index[(side, k, idx)]] = c
    return col


def test_class_representatives_span_band_cohomology():
    """The explicit class maps produce cocycles that are independent modulo
    boundaries and exactly span every cohomology degree (not just match its
    dimension)."""
    import itertools
    from pairform.linalg import RationalMatrix
    from pairform.pair import class_embed, pair_d
    from pairform.exterior import form as make_form, interior
    from pairform.scalar import const

    from pairform.cohomology import _pair_model

    for chart, coeffs in ((T1, (1,)), (T2, (1, 2))):
        n = chart.dim
        x = constant_field(chart, coeffs)
        out = pair_complex(chart, x, 1)
        model = _pair_model(chart, x, 1)
        matrices = {d: band_matrix(model, model.op, d, d + 1) for d in model.degrees[:-1]}
        for p in range(n + 2):
            reps = []
            for idx in itertools.combinations(range(n), p):
                phi = make_form(chart, p, {idx: const(chart, 1)})
                embedded = class_embed(x, phi)  # (phi, i_X phi), closed
                assert pair_d(x, embedded).is_zero
                reps.append(_column_of(out, p, embedded.first, embedded.second))
            for idx in (itertools.combinations(range(n), p - 1) if p else ()):
                psi = make_form(chart, p - 1, {idx: const(chart, 1)})
                second_type = (zero_formlike(chart, p), psi)
                reps.append(_column_of(out, p, *second_type))
            nrows = len(out.basis[p])
            boundary_cols = []
            mat_below = matrices.get(p - 1)
            if mat_below is not None:
                by_col = {}
                for (r, c), v in mat_below.entries.items():
                    by_col.setdefault(c, {})[r] = v
                boundary_cols = [by_col[c] for c in sorted(by_col)]
            base = RationalMatrix.from_columns(nrows, boundary_cols)
            base_rank = base.rank()
            grown = RationalMatrix.from_columns(nrows, boundary_cols + reps)
            # independent modulo boundaries...
            assert grown.rank() == base_rank + len(reps)
            # ...each a cocycle...
            d_mat = matrices[p]
            for rep in reps:
                for r in range(d_mat.nrows):
                    total = sum((d_mat.entries.get((r, c), 0) * v
                                 for c, v in rep.items()), 0)
                    assert not total
            # ...and spanning: their count is the computed dimension
            assert len(reps) == out.dims[p]


def zero_formlike(chart, degree):
    from pairform.exterior import zero_form
    return zero_form(chart, degree)


def test_relative_representatives_span_band_cohomology():
    """Closed relative pairs built from constant target forms, plus pure
    source constants, generate the relative cohomology of the doubling map."""
    import itertools
    from pairform.linalg import RationalMatrix
    from pairform.relative import closed_pair, rel_d
    from pairform.exterior import form as make_form
    from pairform.scalar import const

    from pairform.cohomology import _relative_model

    doubling = ChartMap(T1, T1, matrix=((2,),))
    x = constant_field(T1, (1,))
    out = relative_complex(doubling, x, 1)
    model = _relative_model(doubling, x, 1)
    matrices = {d: band_matrix(model, model.op, d, d + 1) for d in model.degrees[:-1]}
    for p in range(3):
        reps = []
        for idx in itertools.combinations(range(1), p):
            phi = make_form(T1, p, {idx: const(T1, 1)})
            rel = closed_pair(x, doubling, phi)
            assert rel_d(x, rel).is_zero
            reps.append(_column_of(out, p, rel.first, rel.second))
        for idx in (itertools.combinations(range(1), p - 1) if p else ()):
            psi = make_form(T1, p - 1, {idx: const(T1, 1)})
            reps.append(_column_of(out, p, zero_formlike(T1, p), psi))
        nrows = len(out.basis[p])
        mat_below = matrices.get(p - 1)
        boundary_cols = []
        if mat_below is not None:
            by_col = {}
            for (r, c), v in mat_below.entries.items():
                by_col.setdefault(c, {})[r] = v
            boundary_cols = [by_col[c] for c in sorted(by_col)]
        base_rank = RationalMatrix.from_columns(nrows, boundary_cols).rank()
        grown = RationalMatrix.from_columns(nrows, boundary_cols + reps)
        assert grown.rank() == base_rank + len(reps)
        assert len(reps) == out.dims[p]


def test_lichnerowicz_kernel_empty_for_unit_form():
    from pairform.cohomology import lichnerowicz_kernel_dim
    from pairform.rationals import gq
    w = coframe(T2, 0)
    for degree in (0, 1, 2):
        # eigenvalue oracle: |k|^2 + |w|^2 >= 1 > 0 on every mode
        assert lichnerowicz_kernel_dim(T2, w, degree, 1) == 0
    unit_mixed = coframe(T2, 0) * gq("3/5") + coframe(T2, 1) * gq("4/5")
    assert lichnerowicz_kernel_dim(T2, unit_mixed, 1, 1) == 0


def _twisting_forms(chart):
    """w = i*v, dx, and a complex unit form, each with constant coefficients."""
    from pairform.rationals import gq

    n = chart.dim
    i_v = coframe(chart, 0) * gq(0, 1)
    for j, v in enumerate((2, -1)[:n - 1]):
        i_v = i_v + coframe(chart, j + 1) * gq(0, v)
    unit = coframe(chart, n - 1) * gq("3/5", "4/5")
    return [i_v, coframe(chart, 0), unit]


@pytest.mark.parametrize("chart, max_freq",
                         [(T1, 1), (T1, 2), (T2, 1), (T2, 2), (T3, 1), (T3, 2)])
def test_lichnerowicz_symbols_match_symbolic_reference(chart, max_freq):
    from pairform.cohomology import _TWISTED_CODIFF, _TWISTED_D
    from pairform.exterior import lichnerowicz_lap

    for w in _twisting_forms(chart):
        band = de_rham_band(chart, max_freq, w)
        model = band.model
        for degree in range(-1, chart.dim + 2):
            ref, basis = operator_matrix(band, degree, degree, lambda a: lichnerowicz_lap(w, a))
            built = reassemble(
                [(b.tags(degree), b.tags(degree),
                  anticommutator(b, degree, _TWISTED_D, _TWISTED_CODIFF))
                 for b in blocks(model)], basis, basis, model.scale ** 2)
            assert built == ref


def test_lichnerowicz_kernel_on_the_sphere_of_i_v():
    from pairform.cohomology import lichnerowicz_kernel_dim
    from pairform.rationals import gq

    # <w, w> = -|v|^2 for w = i v: the kernel is spanned by the modes with
    # |k|^2 = 5, the eight k = (+-1, +-2), (+-2, +-1) of the N=2 band
    w = coframe(T2, 0) * gq(0, 1) + coframe(T2, 1) * gq(0, 2)
    for degree in range(4):
        assert lichnerowicz_kernel_dim(T2, w, degree, 2) == 8 * comb(2, degree)


@pytest.mark.parametrize("degree", [0, 1, 5])
def test_lichnerowicz_rejects_bad_inputs_at_every_degree(degree):
    from pairform.charts import ChartMismatchError, affine
    from pairform.cohomology import lichnerowicz_kernel_dim

    with pytest.raises(UnsupportedScenarioError) as info:
        lichnerowicz_kernel_dim(affine(2), coframe(affine(2), 0), degree, 1)
    assert str(info.value) == "de Rham band model requires a real torus"
    with pytest.raises(ChartMismatchError) as info:
        lichnerowicz_kernel_dim(T2, coframe(T3, 0), degree, 1)
    assert str(info.value) == "the 1-form lives on torus(3), not on torus(2)"
    with pytest.raises(ValueError) as info:
        lichnerowicz_kernel_dim(T2, wedge(coframe(T2, 0), coframe(T2, 1)), degree, 1)
    assert str(info.value) == "expected a 1-form"
    with pytest.raises(ValueError) as info:
        lichnerowicz_kernel_dim(T2, coframe(T2, 0) * sin_wave(T2, (1, 0)), degree, 1)
    assert str(info.value) == "the twisting 1-form must have constant coefficients"


def test_joint_kernel_contained_in_laplacian_kernel():
    # containment is structural: the Laplacian is the anticommutator
    from pairform.linalg import RationalMatrix
    out = harmonic_kernel(T2, constant_field(T2, (1, 0)), 1, 1)
    basis_size = len(out.laplacian_vectors[0]) if out.laplacian_vectors else 0
    lap_cols = RationalMatrix.from_columns(10 ** 6, list(out.laplacian_vectors))
    joint_cols = list(out.joint_vectors)
    base = lap_cols.rank()
    for vec in joint_cols:
        grown = RationalMatrix.from_columns(10 ** 6, list(out.laplacian_vectors) + [vec])
        assert grown.rank() == base  # no joint vector leaves the span


# -- matrix-built Laplacians against the per-column symbolic reference --------


def _reference_harmonic(chart, u, degree, max_freq):
    """Laplacian matrix, kernels and witness as built column by column from
    pair_laplacian, the symbolic path with its per-call closed-form check."""
    from pairform.linalg import RationalMatrix
    from pairform.pair import pair_codiff, pair_d, pair_laplacian

    band = pair_band(chart, u, max_freq)
    lap, basis = operator_matrix(band, degree, degree, lambda a: pair_laplacian(u, a))
    d_mat, _ = operator_matrix(band, degree, degree + 1, lambda a: pair_d(u, a))
    cod_mat, _ = operator_matrix(band, degree, degree - 1, lambda a: pair_codiff(u, a))
    lap_kernel = lap.kernel_basis()
    stacked = RationalMatrix(d_mat.nrows + cod_mat.nrows, d_mat.ncols, {
        **d_mat.entries,
        **{(r + d_mat.nrows, c): v for (r, c), v in cod_mat.entries.items()}})
    joint_kernel = stacked.kernel_basis()
    witness = None
    if len(lap_kernel) != len(joint_kernel):
        base_rank = RationalMatrix.from_columns(len(basis), list(joint_kernel)).rank()
        for vec in lap_kernel:
            trial = RationalMatrix.from_columns(len(basis), list(joint_kernel) + [vec])
            if trial.rank() > base_rank:
                witness = render_vector(band, degree, basis, vec)
                break
    return lap, lap_kernel, joint_kernel, witness


# resonant fields (some nonzero mode has |k|^2 = <k, U>^2) and quiet ones
_LAPLACIAN_CASES = [
    (T1, (1,), 2), (T1, (-2,), 2),
    (T2, (1, 0), 2), (T2, (-1, 2), 2), (T2, (2, -2), 2),
    (T3, (1, 0, 0), 1), (T3, (0, 2, -2), 1), (T3, (1, 0, 0), 2),
    (T2, (gq("1/2"), gq(0, "-2/3")), 1),
]


@pytest.mark.parametrize("chart, coeffs, max_freq", _LAPLACIAN_CASES)
def test_matrix_built_laplacians_match_symbolic_reference(chart, coeffs, max_freq):
    from pairform.cohomology import (
        _PAIR_CODIFF,
        _PAIR_CODIFF_SKEW,
        corrected_laplacian_kernel_dim,
    )
    from pairform.pair import pair_laplacian_corrected

    u = constant_field(chart, coeffs)
    band = pair_band(chart, u, max_freq)
    model = band.model

    def laplacian_matrix(degree, cod):
        basis = model.basis(degree)
        return reassemble([(b.tags(degree), b.tags(degree),
                            anticommutator(b, degree, model.op, cod))
                           for b in blocks(model)], basis, basis, model.scale ** 2)

    for degree in range(chart.dim + 3):
        lap, lap_kernel, joint_kernel, witness = _reference_harmonic(
            chart, u, degree, max_freq)
        assert laplacian_matrix(degree, _PAIR_CODIFF) == lap
        out = harmonic_kernel(chart, u, degree, max_freq)
        assert out.laplacian_vectors == lap_kernel
        assert out.joint_vectors == joint_kernel
        assert out.witness == witness
        assert (out.dim_laplacian, out.dim_joint) == (len(lap_kernel), len(joint_kernel))
        if chart.dim == 3 and max_freq == 2:
            continue  # the corrected operator is covered on the smaller bands
        corrected, _ = operator_matrix(band, degree, degree,
                                       lambda a: pair_laplacian_corrected(u, a))
        assert laplacian_matrix(degree, _PAIR_CODIFF_SKEW) == corrected
        assert corrected_laplacian_kernel_dim(chart, u, degree, max_freq) == \
            corrected.kernel_dim()


# pair_codiff's symbol blocks with the sign of its L_U psi term flipped
FLIPPED_PAIR_CODIFF = (("F", "F", 1, "codiff"), ("S", "F", -1, "lie"),
                       ("S", "S", -1, "codiff"))


def test_harmonic_kernel_checks_closed_form_once_per_matrix(monkeypatch):
    from pairform import cohomology

    monkeypatch.setattr(cohomology, "_PAIR_CODIFF", FLIPPED_PAIR_CODIFF)
    with pytest.raises(AssertionError) as info:
        harmonic_kernel(T2, constant_field(T2, (1, 2)), 1, 1)
    assert str(info.value) == "pair Laplacian composite disagrees with its closed form"


def test_corrected_laplacian_checks_closed_form(monkeypatch):
    from pairform import cohomology
    from pairform.cohomology import corrected_laplacian_kernel_dim

    # the uncorrected sign makes the corrected closed form fail
    monkeypatch.setattr(cohomology, "_PAIR_CODIFF_SKEW", cohomology._PAIR_CODIFF)
    with pytest.raises(AssertionError) as info:
        corrected_laplacian_kernel_dim(T2, constant_field(T2, (1, 2)), 1, 1)
    assert str(info.value) == "corrected pair Laplacian disagrees with its closed form"


# -- symbol-built matrices against the symbolic reference ---------------------


def _by_tag(matrix, rows, cols):
    return {(rows[r], cols[c]): v for (r, c), v in matrix.entries.items()}


def _assert_matches_reference(band):
    """Every band matrix of `band.model`, put together from its per-block
    symbol matrices in basis order and on a shuffled basis, equals entry for
    entry the matrix of the symbolic differential applied to materialized
    basis forms, and the per-block ranks add up to the reference's."""
    model = band.model
    out = model.assemble()
    rng = random.Random(5)
    shuffled = {}
    for d in model.degrees:
        shuffled[d] = list(model.basis(d))
        rng.shuffle(shuffled[d])
    for d in model.degrees[:-1]:
        ref, cols = operator_matrix(band, d, d + 1)
        rows = model.basis(d + 1)
        assert (out.basis[d], out.basis[d + 1]) == (tuple(cols), tuple(rows))
        assert band_matrix(model, model.op, d, d + 1) == ref
        on_shuffled = band_matrix(model, model.op, d, d + 1, src_basis=shuffled[d],
                                  dst_basis=shuffled[d + 1])
        assert _by_tag(on_shuffled, shuffled[d + 1], shuffled[d]) == _by_tag(ref, rows, cols)
        assert out.ranks[d] == ref.rank()


_SYMBOL_FIELDS = [(T1, (1,)), (T1, (-2,)), (T2, (1, 2)), (T2, (0, -1)), (T3, (1, 0, -2)),
                  (T2, (gq("1/2"), gq(0, "-2/3")))]   # lambda with a denominator


@pytest.mark.parametrize("max_freq", [1, 2])
@pytest.mark.parametrize("chart, coeffs", _SYMBOL_FIELDS)
def test_pair_symbols_match_symbolic_reference(chart, coeffs, max_freq):
    from pairform.exterior import zero_form

    _assert_matches_reference(pair_band(chart, constant_field(chart, coeffs), max_freq))
    eta = zero_form(chart, 1)
    for j, c in enumerate(coeffs):
        eta = eta + coframe(chart, j) * (c + 1)
    closed = [eta]
    if chart is T2:
        closed.append(wedge(scalar_form(sin_wave(T2, (1, 0))), coframe(T2, 0)))
    for eta in closed:
        _assert_matches_reference(pair_eta_band(chart, eta, max_freq))


@pytest.mark.parametrize("max_freq", [1, 2])
@pytest.mark.parametrize("chart, coeffs", _SYMBOL_FIELDS)
def test_de_rham_and_codiff_symbols_match_symbolic_reference(chart, coeffs, max_freq):
    """Single-form d, codiff and lie, and the pair codifferentials."""
    from pairform.cohomology import _PAIR_CODIFF, _PAIR_CODIFF_SKEW
    from pairform.exterior import codiff, ext_d, lie
    from pairform.pair import pair_codiff, pair_codiff_skew

    u = constant_field(chart, coeffs)
    band = pair_band(chart, u, max_freq)
    model = band.model
    derham = de_rham_band(chart, max_freq)
    _assert_matches_reference(derham)
    # single-form blocks of the pair model, one per mode
    singles = [ModeBlock(model, {"F": [k]}) for k in model.modes["F"]]
    for q in range(-1, chart.dim + 2):
        for step, kind, op in ((1, "d", ext_d), (-1, "codiff", codiff),
                               (0, "lie", lambda a: lie(u, a))):
            ref, cols = operator_matrix(derham, q, q + step, op)
            assert band_matrix(model, (("F", "F", 1, kind),), q, q + step, singles, cols,
                               derham.model.basis(q + step)) == ref
        for blocks, op in ((_PAIR_CODIFF, pair_codiff), (_PAIR_CODIFF_SKEW, pair_codiff_skew)):
            ref, cols = operator_matrix(band, q, q - 1, lambda a: op(u, a))
            assert band_matrix(model, blocks, q, q - 1) == ref


@pytest.mark.parametrize("chart", [TC1, torus_complex(2)])
def test_dolbeault_symbols_match_symbolic_reference(chart):
    from pairform.rationals import gq

    units = (gq(1), gq(0, -1), gq(2, 1))
    x = holomorphic_field(chart, tuple(const(chart, units[j]) for j in range(chart.dim)))
    for p in range(chart.dim + 1):
        _assert_matches_reference(dolbeault_band(chart, x, p, 1))


_SYMBOL_MAPS = [
    ChartMap(T2, T2, matrix=((1, 1), (0, 1))),
    ChartMap(T2, T2, matrix=((-1, 0), (2, -1))),
    ChartMap(T1, T1, matrix=((2,),)),
    ChartMap(T1, T2, matrix=((1,), (0,))),
    ChartMap(T2, T1, matrix=((0, 1),)),
    ChartMap(T2, T1, matrix=((0, 0),)),
]


@pytest.mark.parametrize("max_freq", [1, 2])
@pytest.mark.parametrize("cmap", _SYMBOL_MAPS, ids=lambda m: str(m.matrix))
def test_relative_symbols_match_symbolic_reference(cmap, max_freq):
    n = cmap.source.dim
    for coeffs in ([1] + [0] * (n - 1), [2, -1][:n]):
        _assert_matches_reference(
            relative_band(cmap, constant_field(cmap.source, coeffs), max_freq))
    eta = coframe(cmap.target, 0) * 3
    _assert_matches_reference(primed_band(cmap, eta, max_freq))


# -- per-mode block engine ----------------------------------------------------


def test_dd_check_runs_on_every_block(monkeypatch):
    from pairform import cohomology

    # pair_d with the sign of its second-slot d flipped: d.d = 2 L d != 0
    monkeypatch.setattr(cohomology, "_PAIR_D", (("F", "F", 1, "d"), ("F", "S", 1, "lie"),
                                                 ("S", "S", 1, "d")))
    with pytest.raises(AssertionError) as info:
        pair_complex(T2, constant_field(T2, (1, 2)), 1)
    assert str(info.value) == "differentials fail to compose to zero at degree 0"


@pytest.mark.parametrize("n, max_freq", [(4, 2), (5, 1)])
def test_pair_complex_on_larger_bands(n, max_freq):
    chart = torus(n)
    x = constant_field(chart, [1, 2] + [0] * (n - 2))
    assert pair_complex(chart, x, max_freq).dim_vector() == pair_predicted_dims(n)


def test_certified_builders_at_high_dimension():
    """At N = 0 a band is the zero mode alone, so these calls are mostly the
    certificate, at n = 7 and 8 and on TC4 for every p."""
    for n in (7, 8):
        chart = torus(n)
        x = constant_field(chart, [1, 2] + [0] * (n - 2))
        assert pair_complex(chart, x, 0).dim_vector() == pair_predicted_dims(n)
    tc4 = torus_complex(4)
    x = holomorphic_field(tc4, tuple(const(tc4, c) for c in (1, gq(0, 2), 0, gq(1, -1))))
    for p in range(5):
        assert dolbeault_complex(tc4, x, p, 0).dim_vector() == dolbeault_predicted_dims(4, p)


def test_relative_complex_over_the_zero_map_holds_every_target_mode_in_one_block():
    from pairform.cohomology import _relative_model

    zero = ChartMap(T2, T1, matrix=((0, 0),))
    x = constant_field(T2, (1, 2))
    model = _relative_model(zero, x, 2)
    (full,) = [b for b in blocks(model) if "F" in b.modes]
    assert full.modes == {"F": model.modes["F"], "S": [(0, 0)]}
    assert len(blocks(model)) == len(model.modes["S"])
    assert relative_complex(zero, x, 2).dim_vector() == relative_predicted_dims(1, 2)


def _gl_maps(n, count):
    rng = random.Random(f"minors/{n}")
    chart = torus(n)
    return [ChartMap(chart, chart, matrix=random_gl_matrix(rng, n)) for _ in range(count)]


_MINOR_MAPS = [m for n in range(1, 5) for m in _gl_maps(n, 4)] + [
    ChartMap(T3, T3, matrix=((2, 1, 0), (1, 1, 0), (0, 3, -1))),
    ChartMap(torus(4), torus(4), matrix=((2, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 1), (0, 0, 0, 1))),
    ChartMap(T1, T2, matrix=((1,), (-2,))),
    ChartMap(T2, T1, matrix=((2, -1),)),
    ChartMap(T2, T3, matrix=((1, 0), (0, 1), (1, 1))),
    ChartMap(T3, T2, matrix=((1, 2, 0), (0, -1, 3))),
]


@pytest.mark.parametrize("cmap", _MINOR_MAPS, ids=lambda m: str(m.matrix))
def test_relative_minors_are_the_determinants_of_square_submatrices(cmap):
    """A relative model's `minors`, read off the pulled-back coframes, against
    the Leibniz determinant of every square submatrix A[I, J], in every degree."""
    from pairform.cohomology import _relative_model

    src, tgt = cmap.source, cmap.target
    model = _relative_model(cmap, constant_field(src, [1] * src.nslots), 0)
    assert sorted(model.minors) == list(range(tgt.nslots + 1))
    nonzero = 0
    for q, rows in model.minors.items():
        sources = list(itertools.combinations(range(src.nslots), q))
        targets = list(itertools.combinations(range(tgt.nslots), q))
        assert len(rows) == len(targets)
        for target_set, row in zip(targets, rows):
            dets = [leibniz_det([[gq(cmap.matrix[t][s]) for s in source_set]
                                 for t in target_set])
                    for source_set in sources]
            assert [(pos, gq(m), j) for pos, m, j in row] == \
                [(pos, d, 0) for pos, d in enumerate(dets) if d]
            nonzero += len(row)
    assert nonzero > 0


@pytest.mark.parametrize("p", [0, 1, 2])
def test_dolbeault_complex_on_a_larger_band(p):
    tc2 = torus_complex(2)
    x = holomorphic_field(tc2, (const(tc2, 1), const(tc2, 2)))
    assert dolbeault_complex(tc2, x, p, 2).dim_vector() == dolbeault_predicted_dims(2, p)


def test_relative_complex_independent_of_hash_seed():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "from pairform.charts import torus\n"
        "from pairform.cohomology import relative_complex\n"
        "from pairform.exterior import constant_field\n"
        "from pairform.scalar import ChartMap\n"
        "for rows in (((1, 1), (0, 1)), ((0, 0),), ((2, 0), (1, 1))):\n"
        "    cmap = ChartMap(torus(2), torus(len(rows)), matrix=rows)\n"
        "    out = relative_complex(cmap, constant_field(torus(2), (1, 2)), 2)\n"
        "    print(repr((out.basis, out.ranks, out.dims)))\n")
    outputs = []
    for seed in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)},
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


# -- caller errors ------------------------------------------------------------


def _t2_field():
    return constant_field(T2, (1, 2))


def _tc2_field():
    tc2 = torus_complex(2)
    return holomorphic_field(tc2, (const(tc2, 1), const(tc2, 0)))


@pytest.mark.parametrize("call, message", [
    (lambda: pair_complex(T3, _t2_field(), 1),
     "the vector field lives on torus(2), not torus(3)"),
    (lambda: harmonic_kernel(T3, _t2_field(), 1, 1),
     "the vector field lives on torus(2), not torus(3)"),
    (lambda: corrected_laplacian_kernel_dim(T3, _t2_field(), 1, 1),
     "the vector field lives on torus(2), not torus(3)"),
    (lambda: dolbeault_complex(TC1, _tc2_field(), 0, 1),
     "the vector field lives on torus-complex(2), not torus-complex(1)"),
    (lambda: relative_complex(identity_map(T3), _t2_field(), 1),
     "the vector field lives on torus(2), not torus(3)"),
    (lambda: primed_eta_complex(identity_map(T2), coframe(T3, 0), 1),
     "the twisting form lives on torus(3), not torus(2)"),
], ids=["pair", "harmonic", "corrected", "dolbeault", "relative", "primed"])
def test_an_input_on_another_chart_is_a_chart_mismatch(call, message):
    with pytest.raises(ChartMismatchError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("call", [
    lambda n: de_rham_complex(T2, n),
    lambda n: pair_complex(T2, _t2_field(), n),
    lambda n: pair_eta_complex(T2, coframe(T2, 0), n),
    lambda n: relative_complex(identity_map(T2), _t2_field(), n),
    lambda n: primed_eta_complex(identity_map(T2), coframe(T2, 0), n),
    lambda n: dolbeault_complex(TC1, holomorphic_field(TC1, (const(TC1, 1),)), 0, n),
    lambda n: harmonic_kernel(T2, _t2_field(), 1, n),
    lambda n: corrected_laplacian_kernel_dim(T2, _t2_field(), 1, n),
    lambda n: lichnerowicz_kernel_dim(T2, coframe(T2, 0), 1, n),
], ids=["de-rham", "pair", "pair-eta", "relative", "primed", "dolbeault", "harmonic",
        "corrected", "lichnerowicz"])
def test_a_negative_band_is_rejected(call):
    with pytest.raises(ValueError) as info:
        call(-1)
    assert info.type is ValueError
    assert str(info.value) == "max_freq must be non-negative, got -1"
    call(0)


def test_dolbeault_rejects_a_negative_p():
    with pytest.raises(ValueError) as info:
        dolbeault_complex(TC1, holomorphic_field(TC1, (const(TC1, 1),)), -1, 1)
    assert info.type is ValueError
    assert str(info.value) == "p must be non-negative, got -1"


# every public builder and kernel as a call of (max_freq, degree, p), with the
# arguments it reads
_INT_CALLS = {
    "de-rham": (lambda n, d, p: de_rham_complex(T2, n), ("max_freq",)),
    "pair": (lambda n, d, p: pair_complex(T2, _t2_field(), n), ("max_freq",)),
    "pair-eta": (lambda n, d, p: pair_eta_complex(T2, coframe(T2, 0), n), ("max_freq",)),
    "relative": (lambda n, d, p: relative_complex(identity_map(T2), _t2_field(), n),
                 ("max_freq",)),
    "primed": (lambda n, d, p: primed_eta_complex(identity_map(T2), coframe(T2, 0), n),
               ("max_freq",)),
    "dolbeault": (lambda n, d, p: dolbeault_complex(
        TC1, holomorphic_field(TC1, (const(TC1, 1),)), p, n), ("max_freq", "p")),
    "harmonic": (lambda n, d, p: harmonic_kernel(T2, _t2_field(), d, n), ("max_freq", "degree")),
    "corrected": (lambda n, d, p: corrected_laplacian_kernel_dim(T2, _t2_field(), d, n),
                  ("max_freq", "degree")),
    "lichnerowicz": (lambda n, d, p: lichnerowicz_kernel_dim(T2, coframe(T2, 0), d, n),
                     ("max_freq", "degree")),
}


@pytest.mark.parametrize("value", [1.0, 1.5, True, "1"], ids=repr)
@pytest.mark.parametrize("name, argument", [(name, argument) for name, (_, arguments)
                                            in _INT_CALLS.items() for argument in arguments])
def test_a_band_degree_or_p_that_is_not_an_int_is_refused(name, argument, value):
    """A float, a bool or a string is refused by name, even one equal to an
    int that a call has just run with (1.0 and True hash as 1)."""
    call, _ = _INT_CALLS[name]
    call(1, 1, 1)
    given = {"max_freq": 1, "degree": 1, "p": 1, argument: value}
    with pytest.raises(ValueError) as info:
        call(given["max_freq"], given["degree"], given["p"])
    assert info.type is ValueError
    assert str(info.value) == f"{argument} must be an int, got {value!r}"


# -- certified band dimensions ------------------------------------------------


def _random_zi(rng):
    return rng.randint(-9, 9), rng.randint(-9, 9)


def test_coefficients_recover_every_quadratic():
    """`sampled_coefficients` reads a seeded random Z[i] quadratic's own
    nonzero coefficients off its values, keyed by (a, b) for k_a k_b with
    k_0 = 1, and `_value` gives it back on every mode tried."""
    from pairform.cohomology import _value

    rng = random.Random(14)
    for n in range(1, 7):
        for _ in range(5):
            keys = itertools.combinations_with_replacement(range(n + 1), 2)
            coefs = {key: _random_zi(rng) for key in keys}

            def value(k, coefs=coefs):
                k = (1,) + k
                return (sum(a * k[i] * k[j] for (i, j), (a, _) in coefs.items()),
                        sum(b * k[i] * k[j] for (i, j), (_, b) in coefs.items()))

            nonzero = {key: c for key, c in coefs.items() if c != (0, 0)}
            assert sampled_coefficients(value, n) == nonzero
            for _ in range(10):
                k = tuple(rng.randint(-5, 5) for _ in range(n))
                assert _value(nonzero, k) == value(k)


def _zi_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def test_holds_checks_every_coefficient_of_a_product():
    """L(k) R(k) = (l(k) . r(k)) I for a seeded random affine Z[i] row l(k)
    and column r(k), each repeated down a block diagonal: `_parts_hold`
    accepts them, given as matrices of linear forms in k, against the
    quadratic l(k) . r(k) from its values, and refuses them once that
    quadratic gets one more linear, square or cross term, or L one more
    entry."""
    from pairform.cohomology import _parts_hold

    rng = random.Random(15)
    for n in range(1, 5):
        for size in (1, 3):
            m = rng.randint(1, 3)
            l_parts, r_parts = ([[_random_zi(rng) for _ in range(m)] for _ in range(n + 1)]
                                for _ in range(2))

            def at(parts, k):       # the affine vector parts_0 + sum k_i parts_i
                return [(sum(v * p[c][0] for v, p in zip((1,) + k, parts)),
                         sum(v * p[c][1] for v, p in zip((1,) + k, parts))) for c in range(m)]

            def form(parts, c):     # entry c of that vector as a linear form in k
                return {i: p[c] for i, p in enumerate(parts) if p[c] != (0, 0)}

            # size copies of the row l(k), and of the column r(k)
            left = [{b: form(l_parts, c)} if form(l_parts, c) else {}
                    for b in range(size) for c in range(m)]
            right = [{b * m + c: form(r_parts, c) for c in range(m) if form(r_parts, c)}
                     for b in range(size)]

            def value(k, extra=lambda k: 0):
                products = [_zi_mul(x, y) for x, y in zip(at(l_parts, k), at(r_parts, k))]
                return sum(a for a, _ in products) + extra(k), sum(b for _, b in products)

            right = ((right, 0),)     # one row block from row 0
            assert _parts_hold(left, right, sampled_coefficients(value, n))
            extras = [lambda k: k[0], lambda k: k[-1] ** 2] + (
                [lambda k: k[0] * k[1]] if n > 1 else [])
            for extra in extras:
                assert not _parts_hold(left, right,
                                       sampled_coefficients(lambda k, e=extra: value(k, e), n))
            stray = [dict(col) for col in left]
            stray[0][size] = {n: (1, 0)}
            assert not _parts_hold(stray, right, sampled_coefficients(value, n))


def _combine(*terms):
    """The sum of sign * matrix over (sign, matrix) of Z[i] column matrices
    with the same columns, zero entries dropped."""
    out = [{} for _ in terms[0][1]]
    for sign, mat in terms:
        for acc, col in zip(out, mat):
            for r, (a, b) in col.items():
                x, y = acc.get(r, (0, 0))
                acc[r] = x + sign * a, y + sign * b
    return [{r: v for r, v in acc.items() if v != (0, 0)} for acc in out]


def _symbol_kind_cases():
    """(kind, model, one-mode block at k, complex-degree step) for every
    symbol kind, on fields and 1-forms with rational and complex
    coefficients."""
    from pairform.cohomology import _de_rham_model, _dolbeault_model, _pair_model, _relative_model

    t3, tc2 = torus(3), torus_complex(2)
    pair = _pair_model(t3, constant_field(t3, (gq(1, 2), gq("1/2"), gq(0, "-3/5"))), 1)
    w = coframe(t3, 0) * gq(2, -1) + coframe(t3, 2) * gq("2/3")
    derham = _de_rham_model(t3, 1, w)
    holo = holomorphic_field(tc2, (const(tc2, gq(1, 1)), const(tc2, gq("1/3"))))
    cmap = ChartMap(T2, t3, matrix=((1, 1), (0, 1), (2, -1)))
    relative = _relative_model(cmap, constant_field(T2, (gq(2), gq(0, 1))), 1)
    cases = [(kind, pair, step) for kind, step in (("d", 1), ("codiff", -1), ("lie", 0))]
    cases += [(kind, derham, step) for kind, step in (("wedge", 1), ("interior", -1))]
    cases += [(kind, _dolbeault_model(tc2, holo, p, 1), step) for p in range(3)
              for kind, step in (("dbar", 1), ("dbar*", -1), ("lie", 0))]
    out = [(kind, model, (("F", "F", 1, kind),), lambda k, m=model: mode_block(m, k), step)
           for kind, model, step in cases]
    out.append(("pullback", relative, (("F", "S", 1, "pullback"),),
                lambda k: ModeBlock(relative, {"F": [k], "S": [relative.pull(k)]}), 1))
    return out


def test_every_symbol_kind_is_affine_in_the_mode():
    """The premise of the certificate: each entry of a one-mode block matrix
    satisfies entry(k + l) = entry(k) + entry(l) - entry(0)."""
    from pairform.cohomology import _STEP

    rng = random.Random(12)
    cases = _symbol_kind_cases()
    assert {kind for kind, *_ in cases} == set(_STEP)
    for kind, model, op, block_at, step in cases:
        n = model.charts["F"].nvars
        zero = (0,) * n
        entries = 0
        for _ in range(4):
            k, l = (tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(2))
            k_l = tuple(a + b for a, b in zip(k, l))
            for d in model.degrees:
                mats = [block_at(m).matrix(op, d, d + step) for m in (k_l, k, l, zero)]
                assert _combine(*zip((1, -1, -1, 1), mats)) == [{}] * len(mats[0]), (kind, d)
                entries += sum(map(len, mats[1]))
        assert entries, kind   # the case is not vacuous


def _linear_part_cases():
    """(name, points, op) for every point set and operator that the library
    reads as linear forms in the mode: the differential and the homotopy of
    each model on the point sets of its `certificate`, and the kernels'
    operators on the blocks of 0 and e_i."""
    from pairform.cohomology import (
        _PAIR_CODIFF,
        _PAIR_CODIFF_SKEW,
        _TWISTED_CODIFF,
        _TWISTED_D,
        _de_rham_model,
        _dolbeault_model,
        _pair_eta_model,
        _pair_model,
        _primed_eta_model,
        _relative_model,
        _units,
    )

    t3, tc2 = torus(3), torus_complex(2)
    pair = _pair_model(t3, constant_field(t3, _COEFFS["complex"][:3]), 1)
    models = {"pair": pair, "de Rham": _de_rham_model(t3, 1),
              "pair-eta": _pair_eta_model(t3, coframe(t3, 0) * gq("1/2") + coframe(t3, 2), 1)}
    for name in ("zero T2->T1", "GL(3,Z)", "embed T1->T2"):
        cmap = _torus_map(name)
        x = constant_field(cmap.source, (gq(1, 2), gq("-1/3"), 2)[:cmap.source.dim])
        models[f"relative {name}"] = _relative_model(cmap, x, 1)
        models[f"primed {name}"] = _primed_eta_model(cmap, coframe(cmap.target, 0) * 3, 1)
    holo = holomorphic_field(tc2, (const(tc2, gq(1, 1)), const(tc2, gq("1/3"))))
    for p in range(3):
        models[f"dolbeault p={p}"] = _dolbeault_model(tc2, holo, p, 1)
    cases = []
    for name, model in models.items():
        checked, pieces = model.certificate()
        cases += [(name, model, modes, model.op) for modes in checked]
        cases += [(name, model, modes, op) for modes, d_op, _ in pieces
                  for op in (d_op, model.homotopy)]
    twisted = _de_rham_model(t3, 1, coframe(t3, 0) * gq(2, -1) + coframe(t3, 2) * gq("2/3"))
    for model, ops in ((pair, (_PAIR_CODIFF, _PAIR_CODIFF_SKEW)),
                       (twisted, (_TWISTED_D, _TWISTED_CODIFF))):
        cases += [(f"kernel {model.label}", model, _units(model), op) for op in ops]
    return cases


def _nvars(modes) -> int:
    """The n of a point set {side: its modes at 0, e_1, ..., e_n}."""
    return len(next(iter(modes.values()))) - 1


def _point_blocks(modes) -> list:
    """The blocks {side: [mode]} of a point set, one per point 0, e_1, ..., e_n."""
    return [{side: [k] for side, k in zip(modes, ks)} for ks in zip(*modes.values())]


def _mode_at(modes, side, k):
    """The mode of `side` at k on a point set whose modes are linear in k:
    m(0) + sum k_i (m(e_i) - m(0)), m(e_i) the mode of `side` at e_i."""
    zero, *units = modes[side]
    return tuple(z + sum(v * (u[t] - z) for v, u in zip(k, units)) for t, z in enumerate(zero))


def _field_values(model, modes, kind="lie"):
    """{variable: linear form in the points' k} that the formal variables of
    `_parts` on the point set `modes` stand for, times `scale`: 1, unit * k_i,
    Lambda = lambda of the side "S" mode (A^T k on a map's source side next
    to its target modes), or of the pullback's target mode, and W_j = w_j."""
    from pairform.cohomology import _composed

    n, lam = _nvars(modes), {}
    if kind == "pullback":
        lam = _composed(model.lam_form, [model.pull(k) for k in modes["F"][1:]])
    elif "S" in modes:
        lam = _composed(model.lam_form, modes["S"][1:])
    return {0: {0: (1, 0)}, **{i: {i: (model.unit, 0)} for i in range(1, n + 1)},
            n + 1: lam, **{n + 2 + j: {0: w} for j, w in enumerate(model.scaled_coeffs)}}


def _substituted(model, modes, form, kind) -> dict:
    """The formal linear form of a symbol block of `kind` with each variable
    replaced by what it stands for (`_field_values`): a linear form in the
    points' k, zeros left out."""
    values, out = _field_values(model, modes, kind), {}
    for i, (a, b) in form.items():
        for t, (x, y) in values[i].items():
            re, im = out.get(t, (0, 0))
            out[t] = re + a * x - b * y, im + a * y + b * x
    return {t: v for t, v in out.items() if v != (0, 0)}


def _formal_point(model, modes, k) -> list:
    """The value of each formal variable of `_parts` on the point set
    `modes` at mode k."""
    values = _field_values(model, modes)
    return [tuple(sum(c[t] * ((1,) + tuple(k))[i] for i, c in values[v].items()) for t in (0, 1))
            for v in range(len(values))]


def test_linear_parts_equal_the_per_mode_blocks_off_the_unit_modes():
    """The premise of reading each coefficient at 0 and e_i only: at 20
    seeded random modes with |k_i| <= 3, the formal linear forms of `_parts`,
    at unit k with Lambda = lambda scale and W_j = w_j scale, evaluate to the
    per-mode reference block, entry for entry, for every point set and
    operator the library certifies or reads a kernel from."""
    from pairform.cohomology import _STEP, _at, _parts

    rng = random.Random(18)
    cases = _linear_part_cases()
    assert len({name for name, *_ in cases}) == 14
    for name, model, modes, op in cases:
        step, entries = _STEP[op[0][3]], 0
        for _ in range(20):
            k = tuple(rng.randint(-3, 3) for _ in range(_nvars(modes)))
            block = ModeBlock(model, {side: [_mode_at(modes, side, k)] for side in modes})
            for d in model.degrees:
                mat = block.matrix(op, d, d + step)
                assert _at(_formal_point(model, modes, k),
                           (_parts(model, modes, op, d, d + step), 0)) == mat, (name, op, d, k)
                entries += sum(map(len, mat))
        assert entries, (name, op)   # the case is not vacuous


def test_row_blocks_equal_the_stacked_matrix():
    """[D ; Cod] read as its two `_parts` row blocks, Cod's from D's row
    count (`_row_blocks`), is the matrix stacked here: at seeded random
    values of every formal variable `_at` of the blocks equals `_at` of the
    stack, and `_product` with the blocks equals `_product` with the stack,
    for a pair model with both kernels' codifferentials, a twisted de Rham
    model, a Dolbeault model and a relative model over the GL(3,Z) map, with
    their homotopies on every point set of their certificates, at every
    degree."""
    from pairform.cohomology import (
        _PAIR_CODIFF,
        _PAIR_CODIFF_SKEW,
        _TWISTED_CODIFF,
        _TWISTED_D,
        _at,
        _de_rham_model,
        _dolbeault_model,
        _pair_model,
        _parts,
        _product,
        _relative_model,
        _row_blocks,
        _units,
    )

    tc2, cmap = torus_complex(2), _torus_map("GL(3,Z)")
    holo = holomorphic_field(tc2, (const(tc2, gq(1, 1)), const(tc2, gq("1/3"))))
    pair = _pair_model(T3, constant_field(T3, (1, gq("1/2"), 0)), 1)
    twisted = _de_rham_model(T3, 1, coframe(T3, 0) * gq(2, -1) + coframe(T3, 2) * gq("2/3"))
    cases = [(pair, _units(pair), pair.op, cod) for cod in (_PAIR_CODIFF, _PAIR_CODIFF_SKEW)]
    cases.append((twisted, _units(twisted), _TWISTED_D, _TWISTED_CODIFF))
    for model in (_dolbeault_model(tc2, holo, 1, 1),
                  _relative_model(cmap, constant_field(cmap.source, (1, 2, 0)), 1)):
        checked, pieces = model.certificate()
        cases += [(model, modes, model.op, model.homotopy) for modes in checked]
        cases += [(model, modes, d_op, model.homotopy) for modes, d_op, _ in pieces]
    rng, both = random.Random(27), set()
    for model, modes, d_op, cod_op in cases:
        zero = _point_blocks(modes)[0]
        nvars = _nvars(modes) + 2 + max(chart.nslots for chart in model.charts.values())
        for d in model.degrees[:-1]:
            top, low = _parts(model, modes, d_op, d, d + 1), _parts(model, modes, cod_op, d, d - 1)
            shift = model.size(d + 1, zero)
            assert all(r < shift for col in top for r in col)
            assert _row_blocks(model, modes, d, d_op, cod_op) == ((top, 0), (low, shift))
            stack = [{**up, **{r + shift: v for r, v in down.items()}}
                     for up, down in zip(top, low)]
            point = [(1, 0)] + [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(nvars)]
            assert _at(point, (top, 0), (low, shift)) == _at(point, (stack, 0)), (model.label, d)
            left = (_parts(model, modes, cod_op, d + 1, d)
                    + _parts(model, modes, d_op, d - 1, d))
            assert _product(left, ((top, 0), (low, shift))) == _product(left, ((stack, 0),)), \
                (model.label, d)
            if any(top) and any(low):
                both.add(model.label)
    assert len(both) == 4        # every model has a degree with rows in both blocks


def _forms_models():
    """(model, ops, the map's matrix rows or None) for every symbol kind:
    pair and twisted de Rham models on T1-T4, Dolbeault models on TC1-TC2
    for every p, and relative and primed models over an embedding, a
    projection, the zero map, doubling and a non-triangular GL(3,Z) map;
    fields and 1-forms with integer and Gaussian-rational coefficients
    (unit 42 and 6), one w_j zero."""
    from pairform.cohomology import (
        _DBAR_HOMOTOPY,
        _DBAR_PAIR,
        _PAIR_CODIFF,
        _PAIR_D,
        _PAIR_HOMOTOPY,
        _REL_D,
        _TWISTED_CODIFF,
        _TWISTED_D,
        _UNCOUPLED_D,
        _de_rham_model,
        _dolbeault_model,
        _pair_model,
        _primed_eta_model,
        _relative_model,
    )

    gaussian = (gq("1/2", 1), gq(0, "-2/3"), gq(3), gq("5/7", "1/7"))
    out = []
    for n in range(1, 5):
        chart = torus(n)
        out += [(_pair_model(chart, constant_field(chart, coeffs[:n]), 1), _PAIR_D + _PAIR_CODIFF,
                 None) for coeffs in (_COEFFS["integer"], gaussian)]
        w = sum((coframe(chart, j) * c for j, c in enumerate((gq(2, -1), 0, gq("2/3"), 1)[:n])),
                zero_form(chart, 1))
        out.append((_de_rham_model(chart, 1, w), _TWISTED_D + _TWISTED_CODIFF, None))
    for n in (1, 2):
        chart = torus_complex(n)
        holo = holomorphic_field(chart, tuple(const(chart, c) for c in gaussian[1:n + 1]))
        out += [(_dolbeault_model(chart, holo, p, 1), _DBAR_PAIR + _DBAR_HOMOTOPY, None)
                for p in range(n + 1)]
    for name in ("embed T1->T2", "project T2->T1", "zero T2->T1", "doubling", "GL(3,Z)"):
        cmap = _torus_map(name)
        x = constant_field(cmap.source, gaussian[:cmap.source.dim])
        out.append((_relative_model(cmap, x, 1), _REL_D + _PAIR_HOMOTOPY, cmap.matrix))
        out.append((_primed_eta_model(cmap, coframe(cmap.target, 0) * gq("1/2"), 1),
                    _UNCOUPLED_D + _PAIR_HOMOTOPY, cmap.matrix))
    return out


def test_symbol_forms_are_the_sampled_forms():
    """`_forms` writes each c_j of a symbol block down as a formal linear
    form in the point set's k (composed with A^T on a map's source side next
    to its target modes), Lambda and W_j; with unit k, Lambda = lambda scale
    and W_j = w_j scale put in, the target flag, the forms and k'(0) equal
    what reading each c_j at the blocks of 0 and e_i gives
    (`oracles.sampled_forms`), for every symbol kind, model of
    `_forms_models` and point set of its `certificate`: a map model's
    coupled set and each side's own."""
    from pairform.cohomology import _STEP, _forms

    kinds, composed, units = set(), 0, set()
    for model, ops, rows in _forms_models():
        checked, pieces = model.certificate()
        for modes in checked + [modes for modes, _, _ in pieces]:
            for side, dst_side, _, kind in set(ops):
                if side not in modes:
                    continue
                inside, forms, target = _forms(model, modes, side, dst_side, kind)
                got = [_substituted(model, modes, form, kind) for form in forms]
                assert (inside, got, target) == \
                    sampled_forms(model, modes, side, dst_side, kind), \
                    (model.label, tuple(modes), side, kind)
                kinds.add(kind)
                composed += got != symbol_forms(model, side, kind, rows)
        units.add(model.unit)
    assert kinds == set(_STEP)
    assert composed and max(units) > 1


def test_stencils_are_derived_once_per_chart_kind_and_degree(monkeypatch):
    """The process-wide stencils equal a fresh `_symbol` derivation, each
    target index set J at its position among the target's index sets, for
    every kind and degree on T1-T4 and on TC2 for p = 0..2.  The fields
    X = (1, 2, 0) and X = (1/2, i, 0) on T3 share one entry per key: the
    second model derives nothing, and no key or entry holds a field value."""
    from pairform import cohomology
    from pairform.charts import Chart
    from pairform.cohomology import _STEP, _pair_model, _sets, _stencil, _symbol

    cases = [(torus(n), None, kind) for n in range(1, 5)
             for kind in ("d", "codiff", "wedge", "interior", "lie")]
    cases += [(torus_complex(2), p, kind) for p in range(3) for kind in ("dbar", "dbar*", "lie")]
    for chart, p, kind in cases:
        for q in range(-1, chart.nslots + 2):
            targets = _sets(chart, p, q + _STEP[kind])
            expected = [[(J if J in targets else None, s, j) for J, s, j in _symbol(chart, kind, idx)]
                        for idx in _sets(chart, p, q)]
            assert [[(None if pos is None else targets[pos], s, j) for pos, s, j in terms]
                    for terms in _stencil(chart, p, kind, q)] == expected, (chart, p, kind, q)

    _stencil.cache_clear()
    symbol, derived, reads = cohomology._symbol, [], []
    monkeypatch.setattr(cohomology, "_symbol",
                        lambda *args: derived.append(args) or symbol(*args))
    monkeypatch.setattr(cohomology, "_stencil",
                        lambda *key: reads.append((key, _stencil(*key))) or reads[-1][1])
    _pair_model(T3, constant_field(T3, (1, 2, 0)), 1).certified_ranks()
    entries, first, info = dict(reads), len(derived), _stencil.cache_info()
    assert info.misses == info.currsize == len(entries)     # each key derived once
    _pair_model(T3, constant_field(T3, (gq("1/2"), gq(0, 1), 0)), 1).certified_ranks()
    assert first and len(derived) == first
    assert _stencil.cache_info()[1:] == info[1:]        # no miss, no new entry
    assert all(_stencil(*key) is entry for key, entry in entries.items())

    assert {type(leaf) for leaf in _leaves(entries)} <= {Chart, str, int, type(None)}


# broken operators: a homotopy or i_(w#) with a flipped sign, and differentials
# with the sign of their second-slot d flipped (then d.d = 2 L d != 0)
_FLIPPED = {"pair homotopy": (("F", "F", 1, "codiff"), ("S", "S", 1, "codiff")),
            "de Rham homotopy": (("F", "F", -1, "codiff"),),
            "dbar homotopy": (("F", "F", -1, "dbar*"), ("S", "S", -1, "dbar*")),
            "twisted codiff": (("F", "F", 1, "codiff"), ("F", "F", -1, "interior")),
            "pair d": (("F", "F", 1, "d"), ("F", "S", 1, "lie"), ("S", "S", 1, "d")),
            "dbar pair": (("F", "F", 1, "dbar"), ("F", "S", 1, "lie"), ("S", "S", 1, "dbar"))}


def _certificate_cases(chart):
    """(model, D, H, value, formal, degrees, homotopy) of every identity the
    library certifies on `chart`, and of the same identities with broken
    operators or a closed form off by a linear term: value(k) the closed
    form with the field's numbers, `formal` the coefficients of the closed
    form in (k, Lambda, W) (`_closed`); `homotopy` marks the cases that
    `certified_ranks` checks, with the model's own D and H."""
    from pairform.cohomology import (
        _PAIR_CODIFF,
        _PAIR_CODIFF_SKEW,
        _TWISTED_CODIFF,
        _TWISTED_D,
        _closed,
        _de_rham_model,
        _dolbeault_model,
        _pair_eta_model,
        _pair_model,
    )

    def homotopy(make, op=None, h=None):
        """A fresh model from `make`, with `op` and `h` as its differential
        and homotopy if given."""
        model = make()
        model.op, model.homotopy = op or model.op, h or model.homotopy
        return (model, model.op, model.homotopy, lambda k: (homotopy_value(model, k), 0),
                _closed(chart.nvars), model.degrees[:-1], True)

    n, m = chart.dim, chart.nvars
    if chart.is_complex:
        units = (gq(1, 1), gq(0, -2), gq("1/3"))
        x = holomorphic_field(chart, tuple(const(chart, units[j]) for j in range(n)))
        out = []
        for p in range(n + 1):
            def dolbeault(p=p):
                return _dolbeault_model(chart, x, p, 1)
            out += [homotopy(dolbeault), homotopy(dolbeault, h=_FLIPPED["dbar homotopy"]),
                    homotopy(dolbeault, op=_FLIPPED["dbar pair"])]
        return out

    def pair():
        return _pair_model(chart, constant_field(chart, _COEFFS["complex"][:n]), 1)

    def eta():
        return _pair_eta_model(chart, coframe(chart, 0) * gq("1/2") + coframe(chart, n - 1), 1)

    def de_rham():
        return _de_rham_model(chart, 1)

    out = [homotopy(pair), homotopy(pair, h=_FLIPPED["pair homotopy"]),
           homotopy(pair, op=_FLIPPED["pair d"]),
           homotopy(eta), homotopy(eta, h=_FLIPPED["pair homotopy"]),
           homotopy(de_rham), homotopy(de_rham, h=_FLIPPED["de Rham homotopy"])]
    laplacian = pair()
    for cod, sign in ((_PAIR_CODIFF, 1), (_PAIR_CODIFF_SKEW, -1), (_PAIR_CODIFF, -1)):
        out.append((laplacian, laplacian.op, cod,
                    lambda k, s=sign: closed_value(laplacian, k, s),
                    _closed(m, 1, [(sign, {m + 1: (1, 0)})]), laplacian.degrees, False))
    out.append((laplacian, laplacian.op, laplacian.homotopy,
                lambda k: (homotopy_value(laplacian, k) + k[-1], 0),
                {**_closed(m), (0, m): (1, 0)}, laplacian.degrees, False))
    w_w = _closed(m, 1, [(1, {m + 2 + j: (1, 0)}) for j in range(m)])
    for w in _twisting_forms(chart):
        model = _de_rham_model(chart, 1, w)
        re = sum(a * a - b * b for a, b in model.scaled_coeffs)
        im = sum(2 * a * b for a, b in model.scaled_coeffs)
        for cod in (_TWISTED_CODIFF, _FLIPPED["twisted codiff"]):
            out.append((model, _TWISTED_D, cod,
                        lambda k, m=model, re=re, im=im: (homotopy_value(m, k) + re, im),
                        w_w, model.degrees, False))
    return out


@pytest.mark.parametrize("chart", [T1, T2, T3, torus(4), TC1, torus_complex(2)], ids=str)
def test_coefficient_certificate_agrees_with_the_point_set_certificate(chart):
    """`_certify` on the products' coefficients in (k, Lambda, W), against
    the formal closed form, gives the verdict and the lowest failing degree
    that checking the products' values, with the field's numbers, at the
    1 + 2n + C(n, 2) modes 0, +-e_i and e_i + e_j gives, and
    `certified_ranks` fails as that check does, for the certified
    identities and for broken operators."""
    from pairform.cohomology import _certify, _units

    verdicts = set()
    for model, d_op, h_op, value, formal, degrees, homotopy in _certificate_cases(chart):
        broken = point_set_certify(model, d_op, h_op, value, degrees)
        assert _certify(model, _units(model), d_op, h_op, formal, degrees) == broken
        verdicts.add(broken is None)
        if not homotopy:
            continue          # `_resonant` raises on the verdict
        failed = point_set_dd_failure(model)
        verdicts.add(failed is None)
        if failed is None and broken is None:
            model.certified_ranks()
            continue
        with pytest.raises(AssertionError) as info:
            model.certified_ranks()
        assert str(info.value) == (
            f"differentials fail to compose to zero at degree {failed}" if failed is not None
            else f"contracting homotopy disagrees with its closed form at degree {broken}")
    assert verdicts == {True, False}


def _closed_cases():
    """(model, side, squares, value) for every closed form the library
    writes down with the field's numbers, `squares` the (sign, linear form)
    of `_closed`: value(k) is its reference value times scale^2, from the
    model's own sigma_j(k) and lambda(k) (`homotopy_value`, `closed_value`)
    and, for <w, w>, from the exact 1-form coefficients."""
    from pairform.cohomology import _de_rham_model, _dolbeault_model, _pair_model
    from pairform.cohomology import _primed_eta_model, _relative_model

    def homotopy(model, side="F"):
        return model, side, (), lambda k: (homotopy_value(model, k, side), 0)

    out = []
    for coeffs, n, sign in itertools.product(("integer", "rational", "complex"), range(1, 5),
                                             (-1, 0, 1)):
        model = _pair_model(torus(n), constant_field(torus(n), _COEFFS[coeffs][:n]), 1)
        out.append((model, "F", [(sign, model.lam_form)],
                    lambda k, m=model, s=sign: closed_value(m, k, s)))
    for chart in (TC1, torus_complex(2)):
        units = (gq(1, 1), gq("1/3", -2))
        x = holomorphic_field(chart, tuple(const(chart, units[j]) for j in range(chart.dim)))
        out += [homotopy(_dolbeault_model(chart, x, p, 1)) for p in range(chart.dim + 1)]
    t3 = torus(3)
    maps = [ChartMap(T1, T2, matrix=((1,), (0,))), ChartMap(T2, T1, matrix=((1, 0),)),
            ChartMap(T2, T1, matrix=((0, 0),)),
            ChartMap(t3, t3, matrix=((2, 1, 0), (1, 1, 0), (0, 1, 1)))]
    for cmap in maps:
        x = constant_field(cmap.source, _COEFFS["rational"][:cmap.source.dim])
        out += [homotopy(model, side) for model in (
            _relative_model(cmap, x, 1), _primed_eta_model(cmap, coframe(cmap.target, 0) * 2, 1))
            for side in model.charts]
    # <w, w> = 0 for the "complex" 1-form; -43/36 + i for the last one
    for coeffs in [_LICHNEROWICZ_COEFFS[c] for c in ("real", "imaginary", "complex")] + [
            (gq("1/2", 1), gq(0, "2/3"), 0)]:
        model = _de_rham_model(T3, 1, _one_form(T3, coeffs))
        w_w = sum((c * c for c in model.coeffs), gq(0)) * model.scale ** 2
        assert w_w.d == 1
        out.append((model, "F", [(1, {0: w}) for w in model.scaled_coeffs],
                    lambda k, m=model, c=w_w: (homotopy_value(m, k) + c.a, c.b)))
    return out


def test_closed_forms_are_the_sampled_coefficients(monkeypatch):
    """`_closed` writes down the coefficients that sampling each closed form's
    reference value at 0, +-e_i and e_i + e_j gives, on pair models with
    integer, rational and Gaussian fields, Dolbeault models for every p,
    both sides of relative and primed maps and Lichnerowicz 1-forms; and
    one more unit in any one coefficient of it makes `pair_complex` and
    every kernel raise its closed-form AssertionError."""
    from pairform import cohomology

    closed = cohomology._closed
    cases = _closed_cases()
    for model, side, squares, value in cases:
        nvars = model.charts[side].nvars
        assert closed(nvars, model.unit, squares) == sampled_coefficients(value, nvars), \
            (model.label, side, squares)
    assert any(model.unit > 1 for model, *_ in cases)
    messages = {"harmonic": "pair Laplacian composite disagrees with its closed form",
                "corrected": "corrected pair Laplacian disagrees with its closed form",
                "lichnerowicz": "Lichnerowicz Laplacian disagrees with its closed form"}
    for key in ((0, 0), (0, 1), (1, 1), (1, 2)):
        def bumped(*args, key=key):
            out = dict(closed(*args))
            a, b = out.get(key, (0, 0))
            out[key] = a + 1, b
            return out

        monkeypatch.setattr(cohomology, "_closed", bumped)
        with pytest.raises(AssertionError) as info:
            pair_complex(T2, constant_field(T2, (1, 2)), 1)
        assert str(info.value).startswith("contracting homotopy disagrees with its closed form")
        for kind, message in messages.items():
            with pytest.raises(AssertionError) as info:
                _KERNELS[kind](T2, (1, 2), 1, 1)
            assert str(info.value) == message, (key, kind)


def _assert_certified_equals_eliminated(model):
    """The certified ranks, dims and basis of `model` equal those of
    elimination on every one of its blocks."""
    out = model.assemble()
    ranks = eliminated_ranks(model)
    degrees = model.degrees
    dims = {d: len(model.basis(d)) - ranks[d] - (ranks[degrees[i - 1]] if i else 0)
            for i, d in enumerate(degrees)}
    assert (out.ranks, out.dims) == (ranks, dims)
    assert out.basis == {d: tuple(model.basis(d)) for d in model.degrees}


_COEFFS = {"integer": (1, -2, 0, 3), "rational": (gq("1/2"), gq("-2/3"), gq(3), gq("5/7")),
           "complex": (gq(0, 1), gq(1, -2), gq("1/2", "1/3"), gq(0))}


@pytest.mark.parametrize("coeffs", sorted(_COEFFS))
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_certified_pair_dims_equal_elimination(n, coeffs):
    from pairform.cohomology import _pair_eta_model, _pair_model

    chart = torus(n)
    values = _COEFFS[coeffs][:n]
    eta = coframe(chart, 0) * 0
    for j, c in enumerate(values):
        eta = eta + coframe(chart, j) * c
    for max_freq in range(3):
        _assert_certified_equals_eliminated(
            _pair_model(chart, constant_field(chart, values), max_freq))
        _assert_certified_equals_eliminated(_pair_eta_model(chart, eta, max_freq))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_certified_de_rham_dims_equal_elimination(n):
    from pairform.cohomology import _de_rham_model

    for max_freq in range(3):
        _assert_certified_equals_eliminated(_de_rham_model(torus(n), max_freq))


@pytest.mark.parametrize("n", [1, 2])
def test_certified_dolbeault_dims_equal_elimination(n):
    from pairform.cohomology import _dolbeault_model

    chart = torus_complex(n)
    units = (gq(1, 1), gq(0, -2))
    x = holomorphic_field(chart, tuple(const(chart, units[j]) for j in range(n)))
    for max_freq in range(3):
        for p in range(n + 1):
            _assert_certified_equals_eliminated(_dolbeault_model(chart, x, p, max_freq))


# torus maps by their matrix A (rows: target slots): the identity, a shear,
# doubling, an embedding, a projection, the zero maps, a GL(3,Z) map and a
# non-square T3 -> T2
_MAP_MATRICES = {"identity": ((1, 0), (0, 1)), "shear": ((1, 1), (0, 1)), "doubling": ((2,),),
                 "embed T1->T2": ((1,), (0,)), "project T2->T1": ((1, 0),),
                 "zero T2->T1": ((0, 0),), "zero T2->T2": ((0, 0), (0, 0)),
                 "GL(3,Z)": ((2, 1, 0), (1, 1, 0), (0, 3, -1)),
                 "T3->T2": ((1, 0, 2), (0, -1, 1))}


def _torus_map(name):
    rows = _MAP_MATRICES[name]
    return ChartMap(torus(len(rows[0])), torus(len(rows)), matrix=rows)


@pytest.mark.parametrize("name", sorted(_MAP_MATRICES))
def test_certified_map_dims_equal_elimination(name):
    """The relative model (for an integer, a rational-complex and the zero
    field) and the primed model (for a closed twisting form) over each map
    give the ranks, dims and basis of elimination on every block, at N = 0..2."""
    from pairform.cohomology import _primed_eta_model, _relative_model

    cmap = _torus_map(name)
    n = cmap.source.dim
    fields = [(1, -2, 3)[:n], _COEFFS["complex"][1:n + 1], (0,) * n]
    eta = coframe(cmap.target, 0) * gq("1/2") + coframe(cmap.target, cmap.target.dim - 1) * 3
    for max_freq in range(3):
        for coeffs in fields:
            _assert_certified_equals_eliminated(
                _relative_model(cmap, constant_field(cmap.source, coeffs), max_freq))
        _assert_certified_equals_eliminated(_primed_eta_model(cmap, eta, max_freq))


@pytest.mark.parametrize("name", ["zero T2->T1", "project T2->T1", "embed T1->T2", "shear"])
def test_map_certificate_reaches_every_side_at_every_unit_mode(name):
    """d.d = 0 must hold on the source modes that no target mode pulls back
    to (all but 0 over the zero map), and each side's homotopy on that
    side's own unit modes: some d.d point set runs over every unit mode of
    each side, each side's homotopy is certified on its own unit modes, and
    the first point set starts with the zero block."""
    from pairform.cohomology import _primed_eta_model, _relative_model, _unit_modes

    cmap = _torus_map(name)
    models = (_relative_model(cmap, constant_field(cmap.source, (1, 2)[:cmap.source.dim]), 1),
              _primed_eta_model(cmap, coframe(cmap.target, 0), 1))
    for model in models:
        checked, pieces = model.certificate()
        zero = {side: [(0,) * chart.nvars] for side, chart in model.charts.items()}
        assert _point_blocks(checked[0])[0] == zero
        for side, chart in model.charts.items():
            units = _unit_modes(chart.nvars)
            assert any(modes.get(side) == units for modes in checked)
            (own,) = [modes for modes, _, s in pieces if s == side]
            assert own == {side: units}

def _layout_cases():
    """(model, its degrees, modes dicts, [(point set, op, step)]) for every
    layout the library numbers: pair (resonant on the k_1 axis), de Rham,
    twisted de Rham (w = i dx^1, resonant on |k| = 1) and pair-eta on T2;
    relative and primed over the zero T2->T1 map, the GL(3,Z) map, the
    T1->T2 embedding and a T2->T3 map; Dolbeault on TC2 at p = 0, 1, 2 and
    3 > n.  The degrees are each complex's own rule: 0..n+1 for de Rham,
    0..n+2 for the pair complexes on T^n or TC^n and 0..max(n_src, n_tgt)+2
    over a map, n the slot count (the complex dimension for Dolbeault).
    The dicts are the whole band (None), the zero block, each point of every
    `certificate()` point set and each `_resonant` block of a kernel; the
    ops are those the library writes on each point set, and the kernels' on
    the unit points."""
    from pairform.cohomology import (
        _PAIR_CODIFF,
        _PAIR_CODIFF_SKEW,
        _TWISTED_CODIFF,
        _TWISTED_D,
        _de_rham_model,
        _dolbeault_model,
        _pair_eta_model,
        _pair_model,
        _primed_eta_model,
        _relative_model,
        _resonant,
        _units,
    )

    tc2 = torus_complex(2)
    holo = holomorphic_field(tc2, (const(tc2, 1), const(tc2, gq(0, 2))))
    pair = _pair_model(T2, constant_field(T2, (1, 0)), 2)
    twisted = _de_rham_model(T2, 2, coframe(T2, 0) * gq(0, 1))
    n = T2.nslots
    models = [(pair, range(n + 3)), (_de_rham_model(T2, 2), range(n + 2)),
              (twisted, range(n + 2)), (_pair_eta_model(T2, coframe(T2, 0), 2), range(n + 3))]
    maps = [_torus_map(name) for name in ("zero T2->T1", "GL(3,Z)", "embed T1->T2")]
    for cmap in maps + [ChartMap(T2, T3, matrix=((1, 0), (0, 1), (1, -1)))]:
        x = constant_field(cmap.source, (1, 2, 0)[:cmap.source.dim])
        eta = coframe(cmap.target, 0)
        top = max(cmap.source.nslots, cmap.target.nslots)
        models += [(_relative_model(cmap, x, 1), range(top + 3)),
                   (_primed_eta_model(cmap, eta, 1), range(top + 3))]
    models += [(_dolbeault_model(tc2, holo, p, 1), range(tc2.dim + 3)) for p in range(4)]
    # (d_op, cod_op, lam_sign, resonant modes per degree) of each kernel
    kernels = {pair: [(pair.op, _PAIR_CODIFF, 1, 5), (pair.op, _PAIR_CODIFF_SKEW, -1, 1)],
               twisted: [(_TWISTED_D, _TWISTED_CODIFF, None, 4)]}
    out = []
    for model, degrees in models:
        checked, pieces = model.certificate()
        dicts = [None, _point_blocks(checked[0])[0]]
        dicts += [block for modes in checked + [modes for modes, _, _ in pieces]
                  for block in _point_blocks(modes)]
        ops = [(modes, model.op, 1) for modes in checked]
        ops += [(modes, op, step) for modes, d_op, _ in pieces
                for op, step in ((d_op, 1), (model.homotopy, -1))]
        for d_op, cod_op, sign, count in kernels.get(model, ()):
            units = _units(model)
            ops += [(units, d_op, 1), (units, cod_op, -1)]
            blocks = [block for d in model.degrees
                      for block in _resonant(model, d, d_op, cod_op, "kernel", sign)]
            assert len(blocks) == count * len(model.degrees), (model.label, cod_op)
            dicts += blocks
        out.append((model, tuple(degrees), dicts, ops))
    return out


def test_every_count_follows_the_layout_rule():
    """`basis(d, modes)` lists the tags, sides in model order, then modes,
    then index sets, and `starts` counts them, for every modes dict the
    library uses (`_layout_cases`), in the degrees of its complex's rule.
    The per-mode bases, joined in `modes` order, are the whole band's
    basis, and `_parts` on a point set has `size(s, zero)` columns and rows
    below `size(t, zero)`, zero its block at k = 0."""
    from pairform.cohomology import _parts

    for model, degrees, dicts, ops in _layout_cases():
        assert model.degrees == degrees, model.label
        order = list(model.charts)
        for d in model.degrees:
            per_mode = [tag for side in order for k in model.modes[side]
                        for tag in model.basis(d, {side: [k]})]
            assert per_mode == model.basis(d), (model.label, d)
            for modes in dicts:
                basis, starts = model.basis(d, modes), model.starts(d, modes)
                assert len(basis) == model.size(d, modes) == starts[None], (model.label, d)
                sides = [side for side, _, _ in basis]
                assert sides == sorted(sides, key=order.index), (model.label, d, modes)
                assert set(starts) - {None} == set(model.modes if modes is None else modes)
                for side in set(starts) - {None}:
                    before = sum(order.index(s) < order.index(side) for s in sides)
                    assert starts[side] == before, (model.label, d, modes, side)
                    assert side not in sides or sides[before] == side
        for modes, op, step in ops:
            zero = _point_blocks(modes)[0]
            for s in model.degrees:
                cols = _parts(model, modes, op, s, s + step)
                assert len(cols) == model.size(s, zero), (model.label, op, s)
                assert all(r < model.size(s + step, zero) for col in cols for r in col), \
                    (model.label, op, s)


def _sized_models(max_freq):
    """Every band model kind at `max_freq`: pair, de Rham, twisted de Rham
    (w = i dx^1) and pair-eta on T2, Dolbeault on TC2 at p = 0, 1 and 2, and
    relative and primed over the zero T2->T1 map, the projection, the
    embedding, the doubling and the GL(3,Z) map."""
    from pairform.cohomology import (
        _de_rham_model,
        _dolbeault_model,
        _pair_eta_model,
        _pair_model,
        _primed_eta_model,
        _relative_model,
    )

    tc2 = torus_complex(2)
    holo = holomorphic_field(tc2, (const(tc2, 1), const(tc2, gq(0, 2))))
    models = [_pair_model(T2, constant_field(T2, (1, 2)), max_freq), _de_rham_model(T2, max_freq),
              _de_rham_model(T2, max_freq, coframe(T2, 0) * gq(0, 1)),
              _pair_eta_model(T2, coframe(T2, 0) * 3, max_freq)]
    models += [_dolbeault_model(tc2, holo, p, max_freq) for p in range(3)]
    for name in ("zero T2->T1", "project T2->T1", "embed T1->T2", "doubling", "GL(3,Z)"):
        cmap = _torus_map(name)
        x = constant_field(cmap.source, (1, 2, 0)[:cmap.source.dim])
        models += [_relative_model(cmap, x, max_freq),
                   _primed_eta_model(cmap, coframe(cmap.target, 0), max_freq)]
    return models


@pytest.mark.parametrize("max_freq", range(4))
def test_closed_form_sizes_equal_the_listed_counts(max_freq):
    """Each degree's size, read in closed form from the mode counts and the
    index-set widths, is the length of the listed basis, and so is the
    len() of the assembled `BandComplex.basis`.  A map's source side counts
    its cube and every A^T k of the target cube, each once; off the model's
    degrees no side has an index set."""
    from pairform.cohomology import _REL_D, _sets, _SHIFT

    cube = partial(itertools.product, range(-max_freq, max_freq + 1))
    for model in _sized_models(max_freq):
        out = model.assemble()
        for d in model.degrees:
            assert len(out.basis[d]) == model.size(d) == len(list(model.basis(d))), \
                (model.label, d)
        for d in range(-2, model.degrees[-1] + 3):
            assert model.widths(d) == {side: len(_sets(chart, model.p, d - _SHIFT[side]))
                                       for side, chart in model.charts.items()}
        if model.op == _REL_D:
            target, source = model.charts["F"].nvars, model.charts["S"].nvars
            union = set(cube(repeat=source)) | {model.pull(k) for k in cube(repeat=target)}
            assert model.counts == {"F": (2 * max_freq + 1) ** target, "S": len(union)}
            assert model.modes["S"] == sorted(union)
        else:
            assert model.counts == {side: (2 * max_freq + 1) ** chart.nvars
                                    for side, chart in model.charts.items()}


def test_the_basis_sequence_is_the_listed_tuple():
    """`BandComplex.basis[d]` compares, indexes, iterates, hashes and prints
    as `tuple(model.basis(d))`, and its len() lists nothing."""
    from pairform.cohomology import _relative_model

    model = _relative_model(_torus_map("shear"), constant_field(T2, (1, 2)), 1)
    out = model.assemble()
    for d in model.degrees:
        tags = tuple(model.basis(d))
        basis = out.basis[d]
        assert len(basis) == len(tags) and "_tags" not in vars(basis)
        assert basis == tags and tags == basis and basis == model.assemble().basis[d]
        assert basis != list(tags)
        assert list(basis) == list(tags) and basis[1:3] == tags[1:3]
        assert (repr(basis), hash(basis)) == (repr(tags), hash(tags))
    assert out.basis == {d: tuple(model.basis(d)) for d in model.degrees}


def test_no_band_is_listed_to_count_it(monkeypatch):
    """T8 N=3 (5.8M modes per side) and a GL(3,Z) relative band at N=6
    assemble with `_Model.basis` and `_Model.modes` refusing to list
    anything: every len() of the basis is the closed form."""
    from pairform import cohomology

    def refuse(*args):
        raise AssertionError("the band was listed")

    monkeypatch.setattr(cohomology._Model, "basis", refuse)
    monkeypatch.setattr(cohomology._Model, "modes", property(refuse))
    t8 = torus(8)
    out = pair_complex(t8, constant_field(t8, (1, 2, 0, 0, 0, 0, 0, -1)), 3)
    assert out.dim_vector() == pair_predicted_dims(8)
    assert [len(out.basis[d]) for d in out.degrees] == \
        [7 ** 8 * (comb(8, d) + comb(8, d - 1)) for d in out.degrees]
    cmap = _torus_map("GL(3,Z)")
    out = relative_complex(cmap, constant_field(T3, (1, 2, 0)), 6)
    assert out.dim_vector() == relative_predicted_dims(3, 3)
    modes = list(itertools.product(range(-6, 7), repeat=3))
    source = len(set(modes) | {tuple(sum(r * v for r, v in zip(column, k))
                                     for column in zip(*cmap.matrix)) for k in modes})
    assert [len(out.basis[d]) for d in out.degrees] == \
        [13 ** 3 * comb(3, d) + source * comb(3, d - 1) for d in out.degrees]


def test_kernels_place_each_mode_by_its_rank_in_the_cube():
    """`_rank` numbers the band's modes in sorted order, 0 to (2N+1)^n - 1."""
    from pairform.cohomology import _rank

    for n, max_freq in ((1, 0), (1, 2), (2, 1), (3, 2)):
        modes = sorted(itertools.product(range(-max_freq, max_freq + 1), repeat=n))
        assert [_rank(k, max_freq) for k in modes] == list(range(len(modes)))


def _bidiagonal(n):
    """The GL(n,Z) matrix with 1 on the diagonal and just above it."""
    return tuple(tuple(int(j in (i, i + 1)) for j in range(n)) for i in range(n))


@pytest.mark.parametrize("rows, max_freq", [(_bidiagonal(5), 1), (_MAP_MATRICES["GL(3,Z)"], 3)],
                         ids=["bidiagonal GL(5,Z), N=1", "GL(3,Z), N=3"])
def test_map_complexes_on_larger_bands(rows, max_freq):
    n = len(rows)
    chart = torus(n)
    cmap = ChartMap(chart, chart, matrix=rows)
    x = constant_field(chart, [1, 2] + [0] * (n - 2))
    assert relative_complex(cmap, x, max_freq).dim_vector() == relative_predicted_dims(n, n)
    eta = coframe(chart, 0) * 3 + coframe(chart, n - 1) * gq("1/2")
    assert primed_eta_complex(cmap, eta, max_freq).dim_vector() == primed_predicted_dims(n, n)

# resonant on long lines through 0: the k_1 axis, both axes, the axis and
# the line through (3, -4), and on T3 both axes and the lines through
# (1, 2, +-2) and (2, 1, +-2)
_RAY_CASES = [(T2, (1, 0), 6), (T2, (1, 1), 6), (T2, (1, 2), 6), (T3, (1, 1, 0), 2)]


# resonant, quiet and complex fields: with U = (i, 0) the corrected closed
# form |k|^2 - lambda(k)^2 = k_2^2 vanishes on a whole axis
_KERNEL_CASES = _LAPLACIAN_CASES + [
    (T2, (gq(0, 1), 0), 2), (T2, (gq(1, 1), gq(0, -1)), 2), (T3, (gq(0, 1), 1, 0), 1)]


@pytest.mark.parametrize("chart, coeffs, max_freq", _KERNEL_CASES + _RAY_CASES)
def test_certified_kernels_equal_the_all_blocks_path(chart, coeffs, max_freq):
    from pairform.cohomology import _PAIR_CODIFF_SKEW

    u = constant_field(chart, coeffs)
    band = pair_band(chart, u, max_freq)
    model = band.model
    for degree in range(chart.dim + 3):
        assert harmonic_kernel(chart, u, degree, max_freq) == \
            all_blocks_harmonic(band, degree, max_freq)
        assert corrected_laplacian_kernel_dim(chart, u, degree, max_freq) == \
            all_blocks_kernel_dim(model, degree, model.op, _PAIR_CODIFF_SKEW)


def _resonant_lines(coeffs, max_freq) -> list:
    """The lines through 0 that hold a nonzero band mode k with
    |k|^2 = <k, U>^2, each as its first such mode: k and l share a line when
    every 2 x 2 minor k_i l_j - k_j l_i vanishes."""
    n, lines = len(coeffs), []
    for k in itertools.product(range(-max_freq, max_freq + 1), repeat=n):
        if any(k) and sum(t * t for t in k) == sum(t * c for t, c in zip(k, coeffs)) ** 2 and \
                not any(all(k[i] * l[j] == k[j] * l[i] for i in range(n) for j in range(n))
                        for l in lines):
            lines.append(k)
    return lines


@pytest.mark.parametrize("chart, coeffs, max_freq, count", [
    (T2, (1, 0), 6, 1), (T2, (1, 1), 6, 2), (T2, (1, 2), 6, 2), (T3, (1, 1, 0), 2, 6),
    (T2, (2, 2), 2, 0), (T3, (0, 2, -2), 1, 0)])
def test_one_elimination_per_resonant_line(monkeypatch, chart, coeffs, max_freq, count):
    """`zi_kernel` runs once per resonant line through 0 at every degree,
    never at mode 0, and never for a quiet field, where only k = 0 is
    resonant."""
    from pairform import cohomology

    calls = []
    kernel = cohomology.zi_kernel

    def counting(columns):
        calls.append(len(columns))
        return kernel(columns)

    monkeypatch.setattr(cohomology, "zi_kernel", counting)
    assert len(_resonant_lines(coeffs, max_freq)) == count
    u = constant_field(chart, coeffs)
    for degree in range(chart.dim + 3):
        calls.clear()
        harmonic_kernel(chart, u, degree, max_freq)
        assert len(calls) == count, degree


def test_a_joint_kernel_that_is_not_homogeneous_is_refused(monkeypatch):
    """Reading mode 0's columns as joint kernel vectors, and sharing one
    kernel along a line, needs [pair_d ; pair_codiff] to be homogeneous in
    (k, Lambda), which the Laplacian's certificate does not prove.
    pair_codiff given an interior block, whose W_j is constant in k, is
    refused by the homogeneity check with the Laplacian's certificate passed
    over, for a resonant and for a quiet field."""
    from pairform import cohomology

    monkeypatch.setattr(cohomology, "_PAIR_CODIFF",
                        cohomology._PAIR_CODIFF + (("F", "F", 1, "interior"),))
    monkeypatch.setattr(cohomology, "_certify", lambda *args: None)
    for coeffs in ((1, 2), (2, 2)):
        with pytest.raises(AssertionError) as info:
            harmonic_kernel(T2, constant_field(T2, coeffs), 1, 1)
        assert str(info.value) == "[pair_d ; pair_codiff] is not homogeneous in the mode"


def test_witness_render_equals_the_two_slot_render():
    """`_render_vector` writes the tag's one nonzero slot next to a zero form;
    it prints as the sum of the tag's form into two zero slots did, for
    every tag of T2 and T3 at N = 1 in every degree."""
    from pairform.cohomology import _pair_model, _render_vector
    from pairform.exterior import Form
    from pairform.pair import PairForm
    from pairform.rationals import ONE
    from pairform.scalar import wave

    def two_slots(chart, degree, tag):
        side, k, idx = tag
        slots = {"F": zero_form(chart, degree), "S": zero_form(chart, degree - 1)}
        slots[side] = slots[side] + Form(chart, len(idx), ((tuple(idx), wave(chart, k)),)) * ONE
        return str(PairForm(slots["F"], slots["S"]))

    tags = 0
    for chart in (T2, T3):
        model = _pair_model(chart, constant_field(chart, (1, 2, 0)[:chart.dim]), 1)
        for degree in model.degrees:
            for tag in model.basis(degree):
                assert _render_vector(model, tag) == two_slots(chart, degree, tag), tag
                tags += 1
    assert tags == 9 * 8 + 27 * 16


# real, imaginary (resonant on the sphere |k| = |v|), complex (<w, w> = 0 on
# T2 and T3, resonant at k = 0) and rational 1-forms
_LICHNEROWICZ_COEFFS = {"real": (1, -2, 0), "imaginary": (gq(0, 1), gq(0, 2), gq(0, -1)),
                        "complex": (gq("1/2", "1/2"), gq("1/2", "-1/2"), 0),
                        "rational": (gq("1/2"), gq("-2/3"), gq("5/7"))}


@pytest.mark.parametrize("coeffs", sorted(_LICHNEROWICZ_COEFFS))
@pytest.mark.parametrize("n, max_freq", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)])
def test_certified_lichnerowicz_kernel_equals_the_all_blocks_path(n, max_freq, coeffs):
    from pairform.cohomology import _TWISTED_CODIFF, _TWISTED_D, _de_rham_model

    chart = torus(n)
    w = coframe(chart, 0) * 0
    for j, c in enumerate(_LICHNEROWICZ_COEFFS[coeffs][:n]):
        w = w + coframe(chart, j) * c
    model = _de_rham_model(chart, max_freq, w)
    for degree in range(n + 2):
        assert lichnerowicz_kernel_dim(chart, w, degree, max_freq) == \
            all_blocks_kernel_dim(model, degree, _TWISTED_D, _TWISTED_CODIFF)


def test_kernels_are_taken_on_the_resonant_modes_only():
    from pairform.cohomology import _PAIR_CODIFF, _PAIR_CODIFF_SKEW, _pair_model, _resonant

    def resonant(coeffs, cod, sign):
        model = _pair_model(T2, constant_field(T2, coeffs), 2)
        return _resonant(model, 1, model.op, cod, "closed form", sign)

    axis = [{"F": [k], "S": [k]} for k in ((-2, 0), (-1, 0), (0, 0), (1, 0), (2, 0))]
    zero = [{"F": [(0, 0)], "S": [(0, 0)]}]
    # |k|^2 = <k, U>^2 on the k_1 axis for U = (1, 0), only at 0 for U = (2, 2)
    assert resonant((1, 0), _PAIR_CODIFF, 1) == axis
    assert resonant((2, 2), _PAIR_CODIFF, 1) == zero
    assert resonant((1, 0), _PAIR_CODIFF_SKEW, -1) == zero
    # U = (0, i): lambda(k) = -k_2, so |k|^2 - lambda(k)^2 = k_1^2
    assert resonant((0, gq(0, 1)), _PAIR_CODIFF_SKEW, -1) == [
        {"F": [k], "S": [k]} for k in ((0, -2), (0, -1), (0, 0), (0, 1), (0, 2))]
    # the verdict for |k|^2 + Lambda^2 does not cover |k|^2 - Lambda^2
    with pytest.raises(AssertionError, match="^closed form$"):
        resonant((1, 0), _PAIR_CODIFF, -1)


def test_certified_builders_eliminate_the_zero_mode_only(monkeypatch):
    """The zero block Z, every side at mode 0, is the one block the band
    builders split off, and they rank not even that one: with
    `linalg.zi_rank` refusing, all six give their predicted dims, and Z is
    the first block of every model's certificate."""
    from pairform import cohomology, linalg

    def refuse(columns):
        raise AssertionError("eliminated a block")

    seen = []
    certified_ranks = cohomology._Model.certified_ranks

    def recording(model):
        seen.append(_point_blocks(model.certificate()[0][0])[0])
        return certified_ranks(model)

    monkeypatch.setattr(linalg, "zi_rank", refuse)
    monkeypatch.setattr(cohomology._Model, "certified_ranks", recording)
    assert pair_complex(T3, constant_field(T3, (1, 2, 0)), 2).dim_vector() == \
        pair_predicted_dims(3)
    assert pair_eta_complex(T3, coframe(T3, 0), 2).dim_vector() == pair_predicted_dims(3)
    assert seen == [{"F": [(0, 0, 0)], "S": [(0, 0, 0)]}] * 2
    seen.clear()
    assert de_rham_complex(T3, 2).dim_vector() == [1, 3, 3, 1, 0]
    tc2 = torus_complex(2)
    z = holomorphic_field(tc2, (const(tc2, 1), const(tc2, gq(0, 2))))
    for p in range(3):
        assert dolbeault_complex(tc2, z, p, 1).dim_vector() == dolbeault_predicted_dims(2, p)
    assert seen == [{"F": [(0, 0, 0)]}] + [{"F": [(0, 0, 0, 0)], "S": [(0, 0, 0, 0)]}] * 3
    # over a torus map, the one block of every side at mode 0: here T3 -> T2
    # and the zero map T2 -> T1, whose target modes all pull back to 0
    seen.clear()
    for cmap in (_torus_map("T3->T2"), _torus_map("zero T2->T1")):
        source = cmap.source.dim
        assert relative_complex(cmap, constant_field(cmap.source, (1, 2, 0)[:source]), 2) \
            .dim_vector() == relative_predicted_dims(cmap.target.dim, source)
        assert primed_eta_complex(cmap, coframe(cmap.target, 0), 2).dim_vector() == \
            primed_predicted_dims(source, cmap.target.dim)
    assert seen == [{"F": [(0, 0)], "S": [(0, 0, 0)]}, {"F": [(0, 0, 0)], "S": [(0, 0)]},
                    {"F": [(0,)], "S": [(0, 0)]}, {"F": [(0, 0)], "S": [(0,)]}]


def test_laplacian_kernel_dims_eliminate_nothing(monkeypatch):
    """`cohomology` has neither `zi_rank` nor `_eliminate`, and with
    `linalg.zi_rank` and `cohomology.zi_kernel` refusing, the corrected and
    Lichnerowicz kernels give their resonant sizes."""
    from pairform import cohomology, linalg

    def refuse(columns):
        raise AssertionError("eliminated a block")

    assert not {"zi_rank", "_eliminate"} & set(vars(cohomology))
    monkeypatch.setattr(linalg, "zi_rank", refuse)
    monkeypatch.setattr(cohomology, "zi_kernel", refuse)
    # resonant cases: the k_1 axis for U = (i, 0), the sphere |k|^2 = 5 for w = i (1, 2)
    assert corrected_laplacian_kernel_dim(T2, constant_field(T2, (gq(0, 1), 0)), 1, 2) == 5 * 3
    w = coframe(T2, 0) * gq(0, 1) + coframe(T2, 1) * gq(0, 2)
    assert lichnerowicz_kernel_dim(T2, w, 1, 2) == 8 * 2


# the pair homotopy diag(delta, -delta) with the sign of its second slot flipped
FLIPPED_PAIR_HOMOTOPY = (("F", "F", 1, "codiff"), ("S", "S", 1, "codiff"))


@pytest.mark.parametrize("name, flipped, call, degree", [
    ("_PAIR_HOMOTOPY", FLIPPED_PAIR_HOMOTOPY,
     lambda: pair_complex(T2, constant_field(T2, (1, 2)), 1), 1),
    ("_PAIR_HOMOTOPY", FLIPPED_PAIR_HOMOTOPY,
     lambda: pair_eta_complex(T2, coframe(T2, 0), 1), 1),
    ("_CODIFF", (("F", "F", -1, "codiff"),), lambda: de_rham_complex(T2, 1), 0),
    ("_DBAR_HOMOTOPY", (("F", "F", -1, "dbar*"), ("S", "S", -1, "dbar*")),
     lambda: dolbeault_complex(TC1, holomorphic_field(TC1, (const(TC1, 1),)), 0, 1), 0),
    # each side's homotopy is certified on that side alone: the source side
    # of the relative model, the target side of the primed one
    ("_PAIR_HOMOTOPY", FLIPPED_PAIR_HOMOTOPY,
     lambda: relative_complex(_torus_map("shear"), constant_field(T2, (1, 2)), 1), 1),
    ("_PAIR_HOMOTOPY", FLIPPED_PAIR_HOMOTOPY,
     lambda: relative_complex(_torus_map("zero T2->T1"), constant_field(T2, (1, 2)), 1), 1),
    ("_PAIR_HOMOTOPY", (("F", "F", -1, "codiff"), ("S", "S", -1, "codiff")),
     lambda: relative_complex(_torus_map("embed T1->T2"), constant_field(T1, (1,)), 1), 0),
    ("_PAIR_HOMOTOPY", FLIPPED_PAIR_HOMOTOPY,
     lambda: primed_eta_complex(_torus_map("shear"), coframe(T2, 0), 1), 1),
    ("_PAIR_HOMOTOPY", (("F", "F", -1, "codiff"), ("S", "S", -1, "codiff")),
     lambda: primed_eta_complex(_torus_map("T3->T2"), coframe(T2, 0), 1), 0),
], ids=["pair", "pair-eta", "de-rham", "dolbeault", "relative", "relative-zero-map",
        "relative-target-side", "primed", "primed-source-side"])
def test_a_wrong_homotopy_fails_the_certificate(monkeypatch, name, flipped, call, degree):
    from pairform import cohomology

    call()
    monkeypatch.setattr(cohomology, name, flipped)
    with pytest.raises(AssertionError) as info:
        call()
    assert str(info.value) == \
        f"contracting homotopy disagrees with its closed form at degree {degree}"


# _REL_D = (d, L_X f^* - d) with the sign of one side's d flipped: each d
# still squares to zero, and D.D fails through the cross term C d - d C
# alone, here C d + d C = 2 d C
@pytest.mark.parametrize("flipped", [
    (("F", "F", 1, "d"), ("F", "S", 1, "pullback"), ("S", "S", 1, "d")),
    (("F", "F", -1, "d"), ("F", "S", 1, "pullback"), ("S", "S", -1, "d")),
], ids=["source-side", "target-side"])
@pytest.mark.parametrize("name", ["shear", "project T2->T1", "GL(3,Z)"])
def test_a_wrong_relative_differential_fails_the_dd_check(monkeypatch, flipped, name):
    from pairform import cohomology

    cmap = _torus_map(name)
    x = constant_field(cmap.source, (1, 2, 0)[:cmap.source.dim])
    relative_complex(cmap, x, 1)
    monkeypatch.setattr(cohomology, "_REL_D", flipped)
    with pytest.raises(AssertionError) as info:
        relative_complex(cmap, x, 1)
    assert str(info.value) == "differentials fail to compose to zero at degree 0"


def test_relative_differential_with_the_pullback_negated_is_still_certified(monkeypatch):
    """(d, -L_X f^* - d) squares to zero too, and (phi, psi) -> (phi, -psi)
    carries it to the relative complex, so the certificate accepts it and
    its dims are the same: the d.d check reads the sign of C d - d C, not
    that of C alone.  It is certified anew: the verdict of the relative
    differential does not cover it (two verdicts are kept)."""
    from pairform import cohomology

    cmap = _torus_map("GL(3,Z)")
    x = constant_field(T3, (1, 2, 0))
    expected = relative_complex(cmap, x, 1)
    monkeypatch.setattr(cohomology, "_REL_D", (("F", "F", 1, "d"), ("F", "S", -1, "pullback"),
                                               ("S", "S", -1, "d")))
    out = relative_complex(cmap, x, 1)
    assert (out.ranks, out.dims) == (expected.ranks, expected.dims)
    assert len(cohomology._CERTIFIED) == 2


def test_a_differential_that_does_not_vanish_at_mode_0_is_refused():
    """d + w^ with w = dx^1 squares to zero (w is parallel and w^w = 0), but
    its w^ part is nonzero at mode 0, so the zero block would not split off."""
    from pairform.cohomology import _TWISTED_D, _de_rham_model

    model = _de_rham_model(T2, 1, coframe(T2, 0))
    model.op = _TWISTED_D
    with pytest.raises(AssertionError) as info:
        model.assemble()
    assert str(info.value) == "differential does not vanish at mode 0"


# pair_complex T2 N=1 fills the ranks 8, 16, 8, 0, 0 from the columns
# outside mode 0, 8, 24, 24, 8, 0
@pytest.mark.parametrize("degree, change, failed", [(1, -1, 3), (4, 1, 4)],
                         ids=["short-in-degree-1", "extra-in-the-last-degree"])
def test_a_band_size_that_breaks_the_fill_is_refused(degree, change, failed):
    """One column short in degree 1 would fill the ranks 8, 15, 9, -1 and
    report dims [1, 4, 3, 1, 1]; one extra column in the empty last degree
    would leave a rank out of it."""
    from pairform.cohomology import _pair_model

    model = _pair_model(T2, constant_field(T2, (1, 2)), 1)
    assert model.certified_ranks() == {0: 8, 1: 16, 2: 8, 3: 0, 4: 0}
    size = model.size
    # only the whole band's size changes, not the zero block's
    model.size = lambda d, modes=None: \
        size(d, modes) + change * (modes is None and d == degree)
    with pytest.raises(AssertionError) as info:
        model.assemble()
    assert str(info.value) == f"band outside mode 0 is not acyclic at degree {failed}"


def test_a_wrong_twisted_codifferential_fails_the_certificate(monkeypatch, capsys):
    from pairform import cohomology
    from pairform.cli import main

    # i_(w#) with its sign flipped: C_w D_w + D_w C_w is no longer scalar
    monkeypatch.setattr(cohomology, "_TWISTED_CODIFF",
                        (("F", "F", 1, "codiff"), ("F", "F", -1, "interior")))
    with pytest.raises(AssertionError) as info:
        lichnerowicz_kernel_dim(T2, coframe(T2, 0), 1, 1)
    assert str(info.value) == "Lichnerowicz Laplacian disagrees with its closed form"
    assert main(["harmonic"]) == 3
    assert capsys.readouterr().err == \
        "internal invariant failed: Lichnerowicz Laplacian disagrees with its closed form\n"


@pytest.mark.parametrize("call", [
    lambda: harmonic_kernel(T2, _t2_field(), -1, 1),
    lambda: corrected_laplacian_kernel_dim(T2, _t2_field(), -1, 1),
    lambda: lichnerowicz_kernel_dim(T2, coframe(T2, 0), -1, 1),
], ids=["harmonic", "corrected", "lichnerowicz"])
def test_a_negative_degree_is_rejected(call):
    with pytest.raises(ValueError) as info:
        call()
    assert info.type is ValueError
    assert str(info.value) == "degree must be non-negative, got -1"


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_dolbeault_complex_on_tc3_with_n_2(p):
    tc3 = torus_complex(3)
    x = holomorphic_field(tc3, (const(tc3, 1), const(tc3, gq(0, 2)), const(tc3, 0)))
    assert dolbeault_complex(tc3, x, p, 2).dim_vector() == dolbeault_predicted_dims(3, p)


# -- certificates kept between calls -------------------------------------------


def _one_form(chart, coeffs):
    w = coframe(chart, 0) * 0
    for j, c in enumerate(coeffs):
        w = w + coframe(chart, j) * c
    return w


# per torus: resonant, quiet and complex fields; imaginary (resonant on a
# sphere) and real 1-forms
_SHARED_FIELDS = {T1: [(1,), (2,)], T2: [(1, 2), (2, 2), (gq(0, 1), 0)],
                  T3: [(1, 0, 2), (2, 2, 0)]}
_SHARED_FORMS = {T1: [(gq(0, 1),), (1,)], T2: [(gq(0, 1), gq(0, 2)), (1, -2)],
                 T3: [(gq(0, 1), 0, gq(0, 1)), (1, 0, 0)]}
_KERNELS = {"harmonic": lambda chart, c, p, n: harmonic_kernel(
                chart, constant_field(chart, c), p, n),
            "corrected": lambda chart, c, p, n: corrected_laplacian_kernel_dim(
                chart, constant_field(chart, c), p, n),
            "lichnerowicz": lambda chart, c, p, n: lichnerowicz_kernel_dim(
                chart, _one_form(chart, c), p, n)}


def _leaves(value) -> list:
    """The leaves of nested tuples, lists, sets and dicts (keys and values)."""
    if isinstance(value, dict):
        value = list(value.items())
    if isinstance(value, (tuple, list, set, frozenset)):
        return [leaf for item in value for leaf in _leaves(item)]
    return [value]


def _counting_certify(monkeypatch) -> list:
    """Patch `cohomology._certify` to record the degrees of each run."""
    from pairform import cohomology

    certify, seen = cohomology._certify, []

    def counting(model, modes, d_op, h_op, coefficients, degrees):
        seen.append(degrees)
        return certify(model, modes, d_op, h_op, coefficients, degrees)

    monkeypatch.setattr(cohomology, "_certify", counting)
    return seen


def _shared_call_sequence(rng):
    """(kind, chart, coefficients, degree, band) calls of the three kernels
    over T1-T3, every degree 0..n+1 and N in {1, 2, 3}: the calls of one
    kind and field or form come in two shuffled runs, and the runs of all
    kinds and fields are shuffled together."""
    runs = []
    for kind in _KERNELS:
        table = _SHARED_FORMS if kind == "lichnerowicz" else _SHARED_FIELDS
        for chart, fields in table.items():
            for coeffs in fields:
                calls = [(kind, chart, coeffs, p, n)
                         for p, n in itertools.product(range(chart.dim + 2), (1, 2, 3))]
                rng.shuffle(calls)
                runs += [calls[:len(calls) // 2], calls[len(calls) // 2:]]
    rng.shuffle(runs)
    return [call for run in runs for call in run]


def test_shared_kernel_state_gives_the_results_of_a_cleared_cache(monkeypatch):
    """Every kernel result of a seeded, interleaved call sequence (dims,
    vectors, witness) equals the same call made with the process-wide
    certificate memos cleared.  Warm, `_certify` runs once per kernel, chart
    and degree, whatever the field or band; cold, on every call."""
    seen = _counting_certify(monkeypatch)
    calls = _shared_call_sequence(random.Random(20))
    warm = [_KERNELS[kind](chart, coeffs, degree, max_freq)
            for kind, chart, coeffs, degree, max_freq in calls]
    assert len(seen) == len({(kind, chart, degree) for kind, chart, _, degree, _ in calls}) == 36
    seen.clear()
    for (kind, chart, coeffs, degree, max_freq), result in zip(calls, warm):
        clear_certificates()
        assert _KERNELS[kind](chart, coeffs, degree, max_freq) == result, \
            (kind, chart, coeffs, degree, max_freq)
    assert len(seen) == len(calls) == 240


@pytest.mark.parametrize("name, flipped, kind, message", [
    ("_PAIR_CODIFF", FLIPPED_PAIR_CODIFF, "harmonic",
     "pair Laplacian composite disagrees with its closed form"),
    ("_PAIR_D", _FLIPPED["pair d"], "harmonic",
     "pair Laplacian composite disagrees with its closed form"),
    ("_PAIR_D", _FLIPPED["pair d"], "corrected",
     "corrected pair Laplacian disagrees with its closed form"),
    # the skew codifferential with the uncorrected sign of its Lie term
    ("_PAIR_CODIFF_SKEW",
     (("F", "F", 1, "codiff"), ("S", "F", 1, "lie"), ("S", "S", -1, "codiff")),
     "corrected", "corrected pair Laplacian disagrees with its closed form"),
    ("_TWISTED_CODIFF", _FLIPPED["twisted codiff"], "lichnerowicz",
     "Lichnerowicz Laplacian disagrees with its closed form"),
], ids=["harmonic-codiff", "harmonic-d", "corrected-d", "corrected-skew", "lichnerowicz"])
def test_a_patched_operator_fails_after_a_warm_call(monkeypatch, name, flipped, kind, message):
    """The kernels read their operators on every call, and every verdict is
    keyed by them, so an operator patched after calls of every kernel on the
    same field and band is certified anew, against its own kernel's closed
    form."""
    from pairform import cohomology

    coeffs = (1, 2) if kind != "lichnerowicz" else (1, 0)
    for warm in ("lichnerowicz",) if kind == "lichnerowicz" else ("harmonic", "corrected"):
        for degree in range(4):
            _KERNELS[warm](T2, coeffs, degree, 1)
    monkeypatch.setattr(cohomology, name, flipped)
    with pytest.raises(AssertionError) as info:
        _KERNELS[kind](T2, coeffs, 1, 1)
    assert str(info.value) == message


def test_inputs_are_still_refused_after_a_call_on_an_equal_field():
    from pairform.exterior import VectorField
    from pairform.scalar import zero as scalar_zero

    wavy = VectorField(T2, (sin_wave(T2, (1, 0)), scalar_zero(T2)))
    for kernel in (harmonic_kernel, corrected_laplacian_kernel_dim):
        kernel(T2, _t2_field(), 1, 1)
        refusals = [
            (lambda: kernel(T2, constant_field(T3, (1, 2, 0)), 1, 1), ChartMismatchError,
             "the vector field lives on torus(3), not torus(2)"),
            (lambda: kernel(T2, wavy, 1, 1), UnsupportedScenarioError,
             "band scenarios require constant vector fields (modes must not mix)"),
            (lambda: kernel(T2, _t2_field(), -1, 1), ValueError,
             "degree must be non-negative, got -1"),
            (lambda: kernel(T2, _t2_field(), 1, -1), ValueError,
             "max_freq must be non-negative, got -1")]
        for call, error, message in refusals:
            with pytest.raises(error) as info:
                call()
            assert info.type is error and str(info.value) == message
    lichnerowicz_kernel_dim(T2, coframe(T2, 0), 1, 1)
    for w, error, message in [
            (coframe(T3, 0), ChartMismatchError, "the 1-form lives on torus(3), not on torus(2)"),
            (coframe(T2, 0) * sin_wave(T2, (1, 0)), ValueError,
             "the twisting 1-form must have constant coefficients")]:
        with pytest.raises(error) as info:
            lichnerowicz_kernel_dim(T2, w, 1, 1)
        assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        lichnerowicz_kernel_dim(T2, coframe(T2, 0), -1, 1)
    assert str(info.value) == "degree must be non-negative, got -1"


@pytest.mark.parametrize("kind", sorted(_KERNELS))
def test_only_the_latest_field_is_held(monkeypatch, kind):
    """No field is held, not even the latest: after calls on two fields the
    models of both are freed by reference counting alone (no memo and no
    cycle holds them), and no memo entry holds a field value."""
    import gc
    import weakref

    from pairform import cohomology
    from pairform.rationals import GaussianRational

    resonant, models = cohomology._resonant, []

    def recording(model, *args):
        models.append(weakref.ref(model))
        return resonant(model, *args)

    monkeypatch.setattr(cohomology, "_resonant", recording)
    first, second = ((1, 2), (2, 2)) if kind != "lichnerowicz" else ((1, 0), (gq(0, 1), 2))
    enabled = gc.isenabled()
    gc.disable()
    try:
        for coeffs, degree, max_freq in ((first, 1, 2), (first, 2, 1), (second, 1, 2)):
            _KERNELS[kind](T2, coeffs, degree, max_freq)
        assert len(models) == 3 and all(ref() is None for ref in models)
    finally:
        if enabled:
            gc.enable()
    memos = _leaves(cohomology_memos())
    assert memos and not any(isinstance(leaf, GaussianRational) for leaf in memos)


def test_every_kernel_call_certifies_its_own_degree(monkeypatch):
    """Each kernel call is covered by a certificate of its own degree alone:
    one `_certify` run per kernel, chart and degree, at its first call,
    whatever the field or band of the calls that follow."""
    seen = _counting_certify(monkeypatch)
    for max_freq, coeffs in ((1, (1, 2)), (2, (2, gq(0, 1))), (1, (1, 2))):
        for degree in range(4):
            for kind in _KERNELS:
                _KERNELS[kind](T2, coeffs, degree, max_freq)
    assert seen == [(degree,) for degree in range(4) for _ in _KERNELS]


def test_no_certificate_memo_holds_a_field(monkeypatch):
    """After every kernel at every degree on a rational field and 1-form of
    T3, the same calls on a Gaussian-rational field and 1-form take no
    product at all, and no memo key or entry holds a field value."""
    from pairform import cohomology
    from pairform.rationals import GaussianRational

    rational, gaussian = (gq("3/2"), gq("1/2"), 0), (1, gq(0, 1), gq("2/3", -1))
    calls = [(kind, degree) for kind in _KERNELS for degree in range(5)]
    for kind, degree in calls:
        _KERNELS[kind](T3, rational, degree, 1)
    product, products = cohomology._product, []
    monkeypatch.setattr(cohomology, "_product",
                        lambda left, right: products.append(1) or product(left, right))
    for kind, degree in calls:
        _KERNELS[kind](T3, gaussian, degree, 1)
    assert products == []
    memos = _leaves(cohomology_memos())
    assert memos and not any(isinstance(leaf, GaussianRational) for leaf in memos)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_a_wrong_formal_closed_form_fails_at_every_degree(n):
    """On T_n, the harmonic certificate holds against |k|^2 + Lambda^2 and
    fails against |k|^2 - Lambda^2 at every degree with columns, and the
    Lichnerowicz certificate holds against |k|^2 + sum W_j^2 and fails at
    every such degree once any one W_j^2 is dropped."""
    from pairform.cohomology import (
        _PAIR_CODIFF,
        _PAIR_D,
        _TWISTED_CODIFF,
        _TWISTED_D,
        _certify,
        _closed,
        _de_rham_model,
        _pair_model,
        _units,
    )

    chart = torus(n)
    pair = _pair_model(chart, constant_field(chart, (1,) * n), 1)
    twisted = _de_rham_model(chart, 1, _one_form(chart, (1,) * n))
    pair, twisted = (pair, _units(pair)), (twisted, _units(twisted))   # (model, point set)
    squares = [(1, {n + 2 + j: (1, 0)}) for j in range(n)]
    for d in range(n + 2):
        for sign in (1, -1):
            closed = _closed(n, 1, [(sign, {n + 1: (1, 0)})])
            assert _certify(*pair, _PAIR_D, _PAIR_CODIFF, closed, (d,)) == \
                (None if sign > 0 else d), (d, sign)
    for d in range(n + 1):
        assert _certify(*twisted, _TWISTED_D, _TWISTED_CODIFF, _closed(n, 1, squares),
                        (d,)) is None
        for j in range(n):
            dropped = _closed(n, 1, squares[:j] + squares[j + 1:])
            assert _certify(*twisted, _TWISTED_D, _TWISTED_CODIFF, dropped, (d,)) == d, (d, j)


def test_relative_complexes_over_two_maps_certify_twice(monkeypatch):
    """`relative_complex` over two GL(2,Z) maps, each called on two fields
    and two bands, certifies once per map: one verdict each, each side's
    homotopy checked once, and the dims are the predicted ones."""
    from pairform import cohomology

    seen = _counting_certify(monkeypatch)
    for rows in (((1, 1), (0, 1)), ((2, 1), (1, 1))):
        cmap = ChartMap(T2, T2, matrix=rows)
        for coeffs, max_freq in (((1, 2), 1), ((gq("1/2"), gq(0, 1)), 2)):
            assert relative_complex(cmap, constant_field(T2, coeffs), max_freq).dim_vector() \
                == relative_predicted_dims(2, 2)
    assert len(cohomology._CERTIFIED) == 2 and len(seen) == 4


def test_memos_stay_bounded_over_many_maps():
    """`relative_complex` over one more torus map than a memo holds: each
    map's rows are in its keys, so the verdicts fill `_CERTIFIED`, which is
    emptied once full; neither memo ever holds more than `_MEMO_LIMIT`
    entries, and every answer is the predicted one."""
    from pairform import cohomology

    limit, sizes = cohomology._MEMO_LIMIT, []
    for m in range(2, limit + 3):
        cmap = ChartMap(T1, T1, matrix=((m,),))
        assert relative_complex(cmap, constant_field(T1, (1,)), 0).dim_vector() == \
            relative_predicted_dims(1, 1)
        sizes.append((len(cohomology._PARTS), len(cohomology._CERTIFIED)))
    assert max(max(pair) for pair in sizes) == limit
    assert sizes[-1][1] == 1


def test_a_memo_emptied_during_a_certificate_gives_the_same_answers(monkeypatch):
    """With room for three entries, the formal matrices of one certificate
    are dropped while it runs; every builder and kernel still gives the
    answer it gives with the memos at full size, and no memo grows past
    three entries."""
    from pairform import cohomology

    cmaps = [ChartMap(T2, T2, matrix=((1, 1), (0, 1))), ChartMap(T2, T2, matrix=((2, 1), (1, 1))),
             ChartMap(T1, T2, matrix=((1,), (0,)))]
    calls = [lambda: pair_complex(T3, constant_field(T3, (1, 2, 0)), 1).dim_vector(),
             *(lambda c=c: relative_complex(c, constant_field(c.source, (1,) * c.source.dim),
                                            1).dim_vector() for c in cmaps),
             *(lambda p=p, kind=kind: _KERNELS[kind](T2, (1, 2), p, 2)
               for kind in _KERNELS for p in range(4))]
    full = [call() for call in calls]
    clear_certificates()
    monkeypatch.setattr(cohomology, "_MEMO_LIMIT", 3)
    for call, want in zip(calls, full):
        assert call() == want
        assert all(len(memo) <= 3 for memo in cohomology_memos())


def test_the_band_is_scanned_once_per_closed_form():
    """A kernel called on one field and band at every degree scans the band
    once: `_zeros` keeps the latest closed form's resonant modes, keyed by
    its integer coefficients and the band alone."""
    from pairform import cohomology

    cohomology._zeros.cache_clear()
    for degree in range(4):
        corrected_laplacian_kernel_dim(T2, constant_field(T2, (1, 2)), degree, 2)
    assert cohomology._zeros.cache_info()[:2] == (3, 1)
    corrected_laplacian_kernel_dim(T2, constant_field(T2, (1, 2)), 0, 1)
    assert cohomology._zeros.cache_info()[:2] == (3, 2)


def test_the_harmonic_suite_scans_each_band_once(capsys):
    """`pairform harmonic` alternates bands N = 1 and 2 degree by degree
    over 13 distinct closed forms and bands; the band scan memo keeps them
    all, so each is scanned once."""
    from pairform import cohomology
    from pairform.cli import main

    cohomology._zeros.cache_clear()
    main(["harmonic"])
    capsys.readouterr()
    assert cohomology._zeros.cache_info().misses == 13


def _counting_parts(monkeypatch) -> list:
    """Patch `cohomology._parts` to record the key of each matrix it builds,
    that is each call whose key the process-wide memo does not hold yet."""
    from pairform import cohomology

    parts, built = cohomology._parts, []

    def counting(model, modes, op, src, dst):
        key = cohomology._layout(model, modes), op, src, dst
        if key not in cohomology._PARTS:
            built.append(key)
        return parts(model, modes, op, src, dst)

    monkeypatch.setattr(cohomology, "_parts", counting)
    return built


def _sides(layout) -> tuple:
    """The sides of a point set's layout, in order."""
    return tuple(side for side, _, _ in layout[1])


def test_the_certificate_splits_each_matrix_once_and_skips_zero_parts(monkeypatch):
    """`_parts` builds each (op, src, dst) once per layout, shared between
    the d.d check and the homotopy certificate, and keeps no zero entry and
    no zero coefficient of a linear form; exactly one product is taken per
    d.d degree and per certified degree."""
    from pairform import cohomology
    from pairform.cohomology import _pair_model

    built = _counting_parts(monkeypatch)
    product, products = cohomology._product, []
    monkeypatch.setattr(cohomology, "_product",
                        lambda left, right: products.append(1) or product(left, right))
    model = _pair_model(T3, constant_field(T3, (1, 2, 0)), 1)
    model.certified_ranks()
    cache = cohomology._PARTS          # emptied before the test: this model's matrices
    assert len(built) == len(set(built)) == len(cache) == 2 * (len(model.degrees) - 1) + 2
    assert len(products) == (len(model.degrees) - 2) + (len(model.degrees) - 1)
    forms = [form for cols in cache.values() for col in cols for form in col.values()]
    assert forms and all(form and (0, 0) not in form.values() for form in forms)


def test_map_certificate_splits_each_point_set_apart(monkeypatch):
    """A map model certifies on three point sets: target modes with their
    source modes, and each side's own modes.  `_parts` keys them apart by
    their layouts, so each matrix of each set is built once and read back on
    its own set."""
    from pairform import cohomology
    from pairform.cohomology import _relative_model

    built = _counting_parts(monkeypatch)
    model = _relative_model(_torus_map("T3->T2"), constant_field(T3, (1, 2, 0)), 1)
    model.certified_ranks()
    cache = cohomology._PARTS
    assert len(built) == len(set(built)) == len(cache)
    assert {_sides(key[0]) for key in cache} == {("F", "S"), ("F",), ("S",)}
    # d.d = 0 is checked on the coupled blocks and on the source side's own
    assert {_sides(key[0]) for key in cache if key[1] == model.op} == {("F", "S"), ("S",)}


# -- warm calls ------------------------------------------------------------------


def _warm_calls() -> list:
    """One call per shape of the benchmark's band items: pair T4 N=1 and T3
    N=2, Dolbeault on TC2, relative over a GL(2,Z) map, the doubling of T1,
    an embedding and a projection, pair-eta and primed-eta; and the three
    kernels at every degree of T2 N=2 on a resonant, a quiet, a
    Gaussian-rational and an imaginary w = i v field or 1-form."""
    t4, tc2 = torus(4), torus_complex(2)
    holo = holomorphic_field(tc2, (const(tc2, gq(0, 1)), const(tc2, -1)))
    calls = [partial(pair_complex, t4, constant_field(t4, (1, 0, 2, 0)), 1),
             partial(pair_complex, T3, constant_field(T3, (0, -2, 1)), 2),
             partial(dolbeault_complex, tc2, holo, 1, 1),
             partial(pair_eta_complex, T3, coframe(T3, 0) * 2 + coframe(T3, 2), 2),
             partial(primed_eta_complex, _torus_map("shear"), coframe(T2, 1) * gq("1/2"), 2)]
    for rows, max_freq in ((((2, 1), (1, 1)), 3), (((-2,),), 2), (((0,), (1,)), 2),
                           (((1, 0),), 2)):
        cmap = ChartMap(torus(len(rows[0])), torus(len(rows)), matrix=rows)
        calls.append(partial(relative_complex, cmap,
                             constant_field(cmap.source, (1, -2)[:cmap.source.dim]), max_freq))
    for coeffs in ((1, 2), (2, 2), (gq("1/2"), gq(0, 1)), (gq(0, 1), gq(0, 2))):
        calls += [partial(_KERNELS[kind], T2, coeffs, p, 2) for kind in _KERNELS
                  for p in range(4)]
    return calls


def _outcome(result):
    """A band complex's label, dims, ranks and basis lengths; any other
    result as it is (a `HarmonicKernel` with its vectors and witness)."""
    if hasattr(result, "dims"):
        return (result.label, result.dims, result.ranks,
                {d: len(tags) for d, tags in result.basis.items()})
    return result


def test_warm_calls_equal_cold_calls():
    """Each call of `_warm_calls` gives the same answer made first, repeated
    with every memo warm, and made again after `clear_certificates`."""
    calls = _warm_calls()
    first = [_outcome(call()) for call in calls]
    assert [_outcome(call()) for call in calls] == first
    for call, want in zip(calls, first):
        clear_certificates()
        assert _outcome(call()) == want, call
    witnesses = [out.witness for out in first if hasattr(out, "witness")]
    assert any(witnesses) and None in witnesses


def test_a_warm_repeat_builds_no_point_set(monkeypatch):
    """Once every call of `_warm_calls` has run, the same calls write down no
    symbol block's forms (`_forms`): verdicts and formal matrices are read
    back by keys that no point set's forms are needed to form."""
    from pairform import cohomology

    calls = _warm_calls()
    for call in calls:
        call()
    forms, built = cohomology._forms, []
    monkeypatch.setattr(cohomology, "_forms",
                        lambda model, *args: built.append(model.label) or forms(model, *args))
    for call in calls:
        call()
    assert built == []


def test_stacked_matrices_stay_few_over_many_maps_and_fields():
    """600 distinct torus maps through `relative_complex` and 600 distinct
    fields through `harmonic_kernel` leave no memo above `_MEMO_LIMIT`
    entries, and the maps' rows fill `_CERTIFIED` up to it.  The memos that
    `clear_certificates` empties are all the module's `_Memo`s, and none of
    them is a store of stacked matrices: [pair_d ; pair_codiff] is read as
    the row blocks `_PARTS` holds."""
    from pairform import cohomology

    memos = [value for value in vars(cohomology).values() if isinstance(value, cohomology._Memo)]
    assert sorted(map(id, memos)) == sorted(map(id, cohomology_memos()))
    assert not [name for name in vars(cohomology) if "stack" in name.lower()]
    limit, most = cohomology._MEMO_LIMIT, {}

    def measure():
        for name in ("_CERTIFIED", "_PARTS"):
            most[name] = max(most.get(name, 0), len(getattr(cohomology, name)))

    for m in range(2, 602):
        cmap = ChartMap(T1, T1, matrix=((m,),))
        assert relative_complex(cmap, constant_field(T1, (1,)), 1).dim_vector() == \
            relative_predicted_dims(1, 1)
        measure()
    for m in range(1, 601):
        u = constant_field(T2, (gq(1, m % 5), gq(m, -1)))
        harmonic_kernel(T2, u, m % 4, 1 + m % 3)
        harmonic_kernel(T2, constant_field(T2, (1, m)), m % 4, 1 + m % 3)
        measure()
    assert all(size <= limit for size in most.values()), most
    assert most["_CERTIFIED"] == limit and 0 < most["_PARTS"] <= limit

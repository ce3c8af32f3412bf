import random
from math import comb as _math_comb


def comb(n, k):
    return _math_comb(n, k) if 0 <= k <= n else 0

import pytest

from pairform.charts import ChartMismatchError, affine, torus, torus_complex
from pairform.cohomology import (
    UnsupportedScenarioError,
    de_rham_complex,
    dolbeault_complex,
    dolbeault_predicted_dims,
    harmonic_kernel,
    pair_complex,
    pair_eta_complex,
    pair_predicted_dims,
    relative_complex,
    relative_predicted_dims,
)
from pairform.dolbeault import holomorphic_field
from pairform.exterior import coframe, constant_field, parse_form, scalar_form, wedge
from pairform.scalar import ChartMap, const, identity_map, sin_wave

from oracles import (
    de_rham_band,
    dolbeault_band,
    laplace_eigenvalue,
    operator_matrix,
    pair_band,
    pair_eta_band,
    primed_band,
    relative_band,
    render_vector,
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
    out = pair_complex(T2, constant_field(T2, (1, 0)), 0)
    for mat in out.matrices.values():
        assert mat.is_zero()
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


def test_pair_complex_independent_of_basis_order():
    x = constant_field(T2, (1, 2))
    reference = pair_complex(T2, x, 1).dim_vector()
    rng = random.Random(777)
    shuffled = pair_complex(T2, x, 1, shuffle=rng.shuffle).dim_vector()
    assert shuffled == reference


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
    with pytest.raises(ChartMismatchError) as exc_info:
        primed_eta_complex(shear.inverse(), parse_form(T2, "dx[1]^dx[2]"), 1)
    assert str(exc_info.value) == "eta must be a 1-form on the map's target"


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

    for chart, coeffs in ((T1, (1,)), (T2, (1, 2))):
        n = chart.dim
        x = constant_field(chart, coeffs)
        out = pair_complex(chart, x, 1)
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
            mat_below = out.matrices.get(p - 1)
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
            d_mat = out.matrices[p]
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

    doubling = ChartMap(T1, T1, matrix=((2,),))
    x = constant_field(T1, (1,))
    out = relative_complex(doubling, x, 1)
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
        mat_below = out.matrices.get(p - 1)
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
    from pairform.cohomology import _lichnerowicz_matrix
    from pairform.exterior import lichnerowicz_lap

    for w in _twisting_forms(chart):
        band = de_rham_band(chart, max_freq, w)
        for degree in range(-1, chart.dim + 2):
            ref, _ = operator_matrix(band, degree, degree, lambda a: lichnerowicz_lap(w, a))
            assert _lichnerowicz_matrix(chart, w, degree, max_freq) == ref


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
    joint_kernel = d_mat.stack(cod_mat).kernel_basis()
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
]


@pytest.mark.parametrize("chart, coeffs, max_freq", _LAPLACIAN_CASES)
def test_matrix_built_laplacians_match_symbolic_reference(chart, coeffs, max_freq):
    from pairform.cohomology import (
        _PAIR_CODIFF,
        _PAIR_CODIFF_SKEW,
        _laplacian_matrices,
        corrected_laplacian_kernel_dim,
    )
    from pairform.pair import pair_laplacian_corrected

    u = constant_field(chart, coeffs)
    band = pair_band(chart, u, max_freq)
    model = band.model
    for degree in range(chart.dim + 3):
        lap, lap_kernel, joint_kernel, witness = _reference_harmonic(
            chart, u, degree, max_freq)
        built = _laplacian_matrices(model, degree, _PAIR_CODIFF, 1, "closed form")[0]
        assert built == lap
        out = harmonic_kernel(chart, u, degree, max_freq)
        assert out.laplacian_vectors == lap_kernel
        assert out.joint_vectors == joint_kernel
        assert out.witness == witness
        assert (out.dim_laplacian, out.dim_joint) == (len(lap_kernel), len(joint_kernel))
        if chart.dim == 3 and max_freq == 2:
            continue  # the corrected operator is covered on the smaller bands
        corrected, _ = operator_matrix(band, degree, degree,
                                       lambda a: pair_laplacian_corrected(u, a))
        built = _laplacian_matrices(model, degree, _PAIR_CODIFF_SKEW, -1, "closed form")[0]
        assert built == corrected
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
    """Every band matrix of `band.model`, assembled from symbols in basis
    order and on a shuffled basis, equals entry for entry the matrix of the
    symbolic differential applied to materialized basis forms."""
    model = band.model
    out = model.assemble()
    shuffled = model.assemble(random.Random(5).shuffle)
    for d in model.degrees[:-1]:
        ref, cols = operator_matrix(band, d, d + 1)
        rows = model.basis(d + 1)
        assert (out.basis[d], out.basis[d + 1]) == (tuple(cols), tuple(rows))
        assert out.matrices[d] == ref
        assert _by_tag(shuffled.matrices[d], shuffled.basis[d + 1], shuffled.basis[d]) \
            == _by_tag(ref, rows, cols)


_SYMBOL_FIELDS = [(T1, (1,)), (T1, (-2,)), (T2, (1, 2)), (T2, (0, -1)), (T3, (1, 0, -2))]


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
    from pairform.cohomology import (
        _PAIR_CODIFF,
        _PAIR_CODIFF_SKEW,
        _symbol_matrix,
    )
    from pairform.exterior import codiff, ext_d, lie
    from pairform.pair import pair_codiff, pair_codiff_skew

    u = constant_field(chart, coeffs)
    band = pair_band(chart, u, max_freq)
    model = band.model
    derham = de_rham_band(chart, max_freq)
    _assert_matches_reference(derham)
    for q in range(-1, chart.dim + 2):
        for step, kind, op in ((1, "d", ext_d), (-1, "codiff", codiff),
                               (0, "lie", lambda a: lie(u, a))):
            ref, cols = operator_matrix(derham, q, q + step, op)
            index = {tag: i for i, tag in enumerate(derham.model.basis(q + step))}
            assert _symbol_matrix(model, (("F", "F", 1, kind),), cols, index) == ref
        for blocks, op in ((_PAIR_CODIFF, pair_codiff), (_PAIR_CODIFF_SKEW, pair_codiff_skew)):
            ref, cols = operator_matrix(band, q, q - 1, lambda a: op(u, a))
            index = {tag: i for i, tag in enumerate(model.basis(q - 1))}
            assert _symbol_matrix(model, blocks, cols, index) == ref


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

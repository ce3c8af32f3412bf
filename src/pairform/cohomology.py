"""Band-limited cochain complexes on tori with exact cohomology dimensions.

Constant vector fields and integer-linear torus maps preserve Fourier modes,
so the span of all monomial forms with frequencies bounded in sup norm is a
finite-dimensional subcomplex that splits off as a direct summand.  Its
cohomology therefore equals the full answer in every degree, and all ranks
are computed exactly over Q(i).

Operators that mix frequencies (a pair differential twisted by a non-closed
1-form) escape every finite band; such scenarios are rejected rather than
approximated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb as _math_comb

from .charts import Chart, ChartKind
from .dolbeault import BigradedForm, PairBigradedForm, dbar_pair
from .exterior import Form, VectorField, codiff, ext_d, lie, zero_form
from .linalg import RationalMatrix
from .pair import (
    PairForm,
    pair_codiff,
    pair_codiff_skew,
    pair_d,
    pair_d_lichnerowicz,
    zero_pair,
)
from .rationals import ZERO
from .scalar import ChartMap, wave


def _binom(n: int, k: int) -> int:
    return _math_comb(n, k) if 0 <= k <= n else 0


class UnsupportedScenarioError(Exception):
    """The requested computation cannot be carried out exactly on a band."""


def _modes(nvars: int, max_freq: int):
    return [k for k in itertools.product(range(-max_freq, max_freq + 1), repeat=nvars)]


def _index_sets(nslots: int, size: int):
    if size < 0:
        return []
    return list(itertools.combinations(range(nslots), size))


def _wave_form(chart: Chart, k, idx) -> Form:
    return Form(chart, len(idx), ((tuple(idx), wave(chart, k)),))


def _check_constant(x: VectorField):
    if not x.is_constant():
        raise UnsupportedScenarioError(
            "band scenarios require constant vector fields (modes must not mix)")


@dataclass
class BandComplex:
    """Exact matrices of a differential on an ordered monomial basis."""

    label: str
    degrees: tuple
    basis: dict = field(default_factory=dict)
    matrices: dict = field(default_factory=dict)
    ranks: dict = field(default_factory=dict)
    dims: dict = field(default_factory=dict)

    def dim_vector(self) -> list:
        return [self.dims[d] for d in self.degrees]


class _Model:
    """Degree-indexed basis plus a symbolic operator; subclasses fill hooks."""

    label = "complex"
    degrees: tuple

    def basis(self, degree):
        raise NotImplementedError

    def materialize(self, degree, tag):
        raise NotImplementedError

    def apply(self, degree, value):
        raise NotImplementedError

    def decompose_form(self, prefix, form: Form, out: dict, index: dict):
        zeros = form.chart.zeros
        for idx, s in form.components:
            for alpha, k, c in s.terms:
                if alpha != zeros:
                    raise UnsupportedScenarioError("polynomial coefficient escaped the torus basis")
                tag = (prefix, k, idx)
                if tag not in index:
                    raise UnsupportedScenarioError(
                        f"band-closure violation: mode {k} leaves the band")
                out[index[tag]] = out.get(index[tag], ZERO) + c

    def assemble(self, shuffle=None) -> BandComplex:
        out = BandComplex(self.label, tuple(self.degrees))
        for d in self.degrees:
            basis = list(self.basis(d))
            if shuffle is not None:
                shuffle(basis)
            out.basis[d] = tuple(basis)
        index = {d: {tag: i for i, tag in enumerate(out.basis[d])} for d in self.degrees}
        for d in self.degrees[:-1]:
            cols = []
            for tag in out.basis[d]:
                image = self.apply(d, self.materialize(d, tag))
                col: dict = {}
                self.decompose(d + 1, image, col, index[d + 1])
                cols.append(col)
            out.matrices[d] = RationalMatrix.from_columns(len(out.basis[d + 1]), cols)
        for d in self.degrees[:-2]:
            if not out.matrices[d + 1].matmul(out.matrices[d]).is_zero():
                raise AssertionError(f"differentials fail to compose to zero at degree {d}")
        for d in self.degrees:
            mat = out.matrices.get(d)
            out.ranks[d] = mat.rank() if mat is not None else 0
        for i, d in enumerate(self.degrees):
            below = out.ranks[self.degrees[i - 1]] if i else 0
            kernel = len(out.basis[d]) - out.ranks[d]
            out.dims[d] = kernel - below
            if out.dims[d] < 0:
                raise AssertionError("negative cohomology dimension")
        return out

    def decompose(self, degree, value, col, index):
        raise NotImplementedError


class _DeRhamModel(_Model):
    def __init__(self, chart: Chart, max_freq: int):
        if chart.kind is not ChartKind.TORUS:
            raise UnsupportedScenarioError("de Rham band model requires a real torus")
        self.chart = chart
        self.max_freq = max_freq
        self.label = f"de-rham/{chart}"
        self.degrees = tuple(range(chart.nslots + 2))
        self._modes = _modes(chart.nvars, max_freq)

    def basis(self, degree):
        return [("F", k, idx) for k in self._modes
                for idx in _index_sets(self.chart.nslots, degree)]

    def materialize(self, degree, tag):
        _, k, idx = tag
        return _wave_form(self.chart, k, idx)

    def apply(self, degree, value):
        return ext_d(value)

    def decompose(self, degree, value, col, index):
        self.decompose_form("F", value, col, index)


class _PairModel(_Model):
    """Pair complex for the differential induced by a constant field."""

    def __init__(self, chart: Chart, x: VectorField, max_freq: int):
        if chart.kind is not ChartKind.TORUS:
            raise UnsupportedScenarioError("pair band model requires a real torus")
        _check_constant(x)
        self.chart = chart
        self.x = x
        self.max_freq = max_freq
        self.label = f"pair/{chart}"
        self.degrees = tuple(range(chart.nslots + 3))
        self._modes = _modes(chart.nvars, max_freq)

    def basis(self, degree):
        first = [("F", k, idx) for k in self._modes
                 for idx in _index_sets(self.chart.nslots, degree)]
        second = [("S", k, idx) for k in self._modes
                  for idx in _index_sets(self.chart.nslots, degree - 1)]
        return first + second

    def materialize(self, degree, tag):
        side, k, idx = tag
        base = zero_pair(self.chart, degree)
        if side == "F":
            return PairForm(_wave_form(self.chart, k, idx), base.second)
        return PairForm(base.first, _wave_form(self.chart, k, idx))

    def apply(self, degree, value):
        return pair_d(self.x, value)

    def decompose(self, degree, value, col, index):
        self.decompose_form("F", value.first, col, index)
        self.decompose_form("S", value.second, col, index)


class _PairEtaModel(_PairModel):
    """Pair complex for the differential twisted by a closed 1-form."""

    def __init__(self, chart: Chart, eta: Form, max_freq: int):
        if not ext_d(eta).is_zero:
            raise UnsupportedScenarioError(
                "the twisted pair differential mixes frequencies unless the "
                "1-form is closed; refusing to report approximate dimensions")
        from .exterior import constant_field
        super().__init__(chart, constant_field(chart, [0] * chart.nslots), max_freq)
        self.eta = eta
        self.label = f"pair-eta/{chart}"

    def apply(self, degree, value):
        return pair_d_lichnerowicz(self.eta, value)


class _RelativeModel(_Model):
    """Relative pair complex over an integer-linear torus map."""

    def __init__(self, cmap: ChartMap, x: VectorField, max_freq: int):
        if cmap.matrix is None or cmap.source.kind is not ChartKind.TORUS:
            raise UnsupportedScenarioError("relative band model requires a torus map")
        _check_constant(x)
        if x.chart != cmap.source:
            raise UnsupportedScenarioError("the vector field must live on the map's source")
        self.cmap = cmap
        self.x = x
        self.max_freq = max_freq
        self.label = f"relative/{cmap.source}->{cmap.target}"
        top = max(cmap.source.nslots, cmap.target.nslots)
        self.degrees = tuple(range(top + 3))
        self._target_modes = _modes(cmap.target.nvars, max_freq)
        transpose = list(zip(*cmap.matrix))
        pulled = {tuple(sum(r * v for r, v in zip(row, k)) for row in transpose)
                  for k in self._target_modes}
        source_modes = set(_modes(cmap.source.nvars, max_freq)) | pulled
        self._source_modes = sorted(source_modes)

    def basis(self, degree):
        first = [("F", k, idx) for k in self._target_modes
                 for idx in _index_sets(self.cmap.target.nslots, degree)]
        second = [("S", k, idx) for k in self._source_modes
                  for idx in _index_sets(self.cmap.source.nslots, degree - 1)]
        return first + second

    def materialize(self, degree, tag):
        from .relative import RelPairForm
        side, k, idx = tag
        if side == "F":
            return RelPairForm(self.cmap, _wave_form(self.cmap.target, k, idx),
                               zero_form(self.cmap.source, degree - 1))
        return RelPairForm(self.cmap, zero_form(self.cmap.target, degree),
                           _wave_form(self.cmap.source, k, idx))

    def apply(self, degree, value):
        from .relative import rel_d
        return rel_d(self.x, value)

    def decompose(self, degree, value, col, index):
        self.decompose_form("F", value.first, col, index)
        self.decompose_form("S", value.second, col, index)


class _PrimedEtaModel(_Model):
    """Primed relative complex over a torus map, twisted by a closed 1-form.

    The first slot lives on the map's source, the second on its target; with
    a closed twisting form the differential decouples into (d, -d), which is
    the only case that stays inside a band.
    """

    def __init__(self, cmap: ChartMap, eta: Form, max_freq: int):
        if cmap.matrix is None or cmap.source.kind is not ChartKind.TORUS:
            raise UnsupportedScenarioError("primed band model requires a torus map")
        if eta.chart != cmap.target:
            raise UnsupportedScenarioError("the twisting form must live on the target")
        if not ext_d(eta).is_zero:
            raise UnsupportedScenarioError(
                "the twisted relative differential mixes frequencies unless the "
                "1-form is closed; refusing to report approximate dimensions")
        self.cmap = cmap
        self.eta = eta
        self.max_freq = max_freq
        self.label = f"primed/{cmap.source}->{cmap.target}"
        top = max(cmap.source.nslots, cmap.target.nslots)
        self.degrees = tuple(range(top + 3))
        self._first_modes = _modes(cmap.source.nvars, max_freq)
        self._second_modes = _modes(cmap.target.nvars, max_freq)

    def basis(self, degree):
        first = [("F", k, idx) for k in self._first_modes
                 for idx in _index_sets(self.cmap.source.nslots, degree)]
        second = [("S", k, idx) for k in self._second_modes
                  for idx in _index_sets(self.cmap.target.nslots, degree - 1)]
        return first + second

    def materialize(self, degree, tag):
        from .relative import RelPairForm
        side, k, idx = tag
        if side == "F":
            return RelPairForm(self.cmap, _wave_form(self.cmap.source, k, idx),
                               zero_form(self.cmap.target, degree - 1), primed=True)
        return RelPairForm(self.cmap, zero_form(self.cmap.source, degree),
                           _wave_form(self.cmap.target, k, idx), primed=True)

    def apply(self, degree, value):
        from .relative import rel_d_lichnerowicz
        return rel_d_lichnerowicz(self.eta, value)

    def decompose(self, degree, value, col, index):
        self.decompose_form("F", value.first, col, index)
        self.decompose_form("S", value.second, col, index)


class _DolbeaultModel(_Model):
    """Fixed-p pair complex for the dbar operator on a flat complex torus."""

    def __init__(self, chart: Chart, x: VectorField, p: int, max_freq: int):
        if chart.kind is not ChartKind.TORUS_COMPLEX:
            raise UnsupportedScenarioError("dbar band model requires a complex torus")
        _check_constant(x)
        if not x.is_holomorphic():
            raise UnsupportedScenarioError("dbar band model requires a holomorphic field")
        self.chart = chart
        self.x = x
        self.p = p
        self.max_freq = max_freq
        self.label = f"dolbeault/{chart}/p={p}"
        self.degrees = tuple(range(chart.dim + 3))
        self._modes = _modes(chart.nvars, max_freq)

    def _sets(self, q):
        n = self.chart.dim
        if q < 0 or self.p > n or q > n:
            return []
        holo = itertools.combinations(range(n), self.p)
        anti = list(itertools.combinations(range(n, 2 * n), q))
        return [h + a for h in holo for a in anti]

    def basis(self, q):
        first = [("F", k, idx) for k in self._modes for idx in self._sets(q)]
        second = [("S", k, idx) for k in self._modes for idx in self._sets(q - 1)]
        return first + second

    def materialize(self, q, tag):
        side, k, idx = tag
        form = _wave_form(self.chart, k, idx)
        if side == "F":
            return PairBigradedForm(
                BigradedForm(form, self.p, q),
                BigradedForm(zero_form(self.chart, self.p + q - 1), self.p, q - 1))
        return PairBigradedForm(
            BigradedForm(zero_form(self.chart, self.p + q), self.p, q),
            BigradedForm(form, self.p, q - 1))

    def apply(self, q, value):
        return dbar_pair(self.x, value)

    def decompose(self, q, value, col, index):
        self.decompose_form("F", value.first.form, col, index)
        self.decompose_form("S", value.second.form, col, index)


# -- public builders ---------------------------------------------------------


def de_rham_complex(chart: Chart, max_freq: int, shuffle=None) -> BandComplex:
    return _DeRhamModel(chart, max_freq).assemble(shuffle)


def pair_complex(chart: Chart, x: VectorField, max_freq: int, shuffle=None) -> BandComplex:
    return _PairModel(chart, x, max_freq).assemble(shuffle)


def pair_eta_complex(chart: Chart, eta: Form, max_freq: int, shuffle=None) -> BandComplex:
    return _PairEtaModel(chart, eta, max_freq).assemble(shuffle)


def relative_complex(cmap: ChartMap, x: VectorField, max_freq: int,
                     shuffle=None) -> BandComplex:
    return _RelativeModel(cmap, x, max_freq).assemble(shuffle)


def primed_eta_complex(cmap: ChartMap, eta: Form, max_freq: int,
                       shuffle=None) -> BandComplex:
    return _PrimedEtaModel(cmap, eta, max_freq).assemble(shuffle)


def primed_predicted_dims(n_source: int, n_target: int) -> list:
    """Dims of the primed relative complex: C(n_src, p) + C(n_tgt, p-1)."""
    top = max(n_source, n_target)
    return [_binom(n_source, p) + _binom(n_target, p - 1) for p in range(top + 3)]


def dolbeault_complex(chart: Chart, x: VectorField, p: int, max_freq: int,
                      shuffle=None) -> BandComplex:
    return _DolbeaultModel(chart, x, p, max_freq).assemble(shuffle)


def pair_predicted_dims(n: int) -> list:
    """b_p + b_{p-1} for the n-torus, degrees 0..n+2."""
    return [_binom(n, p) + _binom(n, p - 1) for p in range(n + 3)]


def relative_predicted_dims(n_target: int, n_source: int) -> list:
    top = max(n_target, n_source)
    return [_binom(n_target, p) + _binom(n_source, p - 1) for p in range(top + 3)]


def dolbeault_predicted_dims(n: int, p: int) -> list:
    """C(n,p) * (C(n,q) + C(n,q-1)) over q = 0..n+2."""
    return [_binom(n, p) * (_binom(n, q) + _binom(n, q - 1)) for q in range(n + 3)]


# -- harmonic kernels ---------------------------------------------------------


@dataclass
class HarmonicKernel:
    """Kernels of the pair Laplacian and of (pair_d, pair_codiff) jointly."""

    degree: int
    max_freq: int
    dim_laplacian: int
    dim_joint: int
    laplacian_vectors: list
    joint_vectors: list
    witness: str = None

    @property
    def kernels_equal(self) -> bool:
        return self.dim_laplacian == self.dim_joint


def _operator_matrix(model: _Model, src_degree: int, dst_degree: int, op):
    src = model.basis(src_degree)
    dst = model.basis(dst_degree)
    index = {tag: i for i, tag in enumerate(dst)}
    cols = []
    for tag in src:
        col: dict = {}
        model.decompose(dst_degree, op(model.materialize(src_degree, tag)), col, index)
        cols.append(col)
    return RationalMatrix.from_columns(len(dst), cols), src


def _closed_form_matrix(model: _PairModel, degree: int, sign: int) -> RationalMatrix:
    """The pair Laplacian's closed form on the degree-p band: blockdiag over
    the slot degrees q = p, p-1 of delta_(q+1) d_q + d_(q-1) delta_q
    + sign * L_q L_q, from single-form matrices of ext_d, codiff and lie."""
    derham = _DeRhamModel(model.chart, model.max_freq)
    u = model.x
    index = {tag: i for i, tag in enumerate(model.basis(degree))}
    entries = {}

    def mat(src, dst, op):
        return _operator_matrix(derham, src, dst, op)[0]

    for side, q in (("F", degree), ("S", degree - 1)):
        lie_q = mat(q, q, lambda a: lie(u, a))
        lie_sq = lie_q.matmul(lie_q)
        if sign < 0:
            lie_sq.entries = {key: -v for key, v in lie_sq.entries.items()}
        block = mat(q + 1, q, codiff).matmul(mat(q, q + 1, ext_d)).add(
            mat(q - 1, q, ext_d).matmul(mat(q, q - 1, codiff))).add(lie_sq)
        pos = [index[(side, k, idx)] for _, k, idx in derham.basis(q)]
        for (r, c), v in block.entries.items():
            entries[(pos[r], pos[c])] = v
    return RationalMatrix(len(index), len(index), entries)


def _laplacian_matrices(model: _PairModel, degree: int, cod, sign: int, message: str):
    """Lap = Cod_(p+1) D_p + D_(p-1) Cod_p by exact sparse matmul, from the
    first-order band matrices of pair_d (D) and the codifferential `cod`
    (Cod).  Lap is compared entry for entry with its closed form, once per
    matrix; a mismatch raises AssertionError(message).  Returns (Lap, D_p,
    Cod_p, basis of degree p)."""
    u = model.x

    def d(a):
        return pair_d(u, a)

    def c(a):
        return cod(u, a)

    d_mat, basis = _operator_matrix(model, degree, degree + 1, d)
    cod_mat, _ = _operator_matrix(model, degree, degree - 1, c)
    lap = _operator_matrix(model, degree + 1, degree, c)[0].matmul(d_mat).add(
        _operator_matrix(model, degree - 1, degree, d)[0].matmul(cod_mat))
    if lap != _closed_form_matrix(model, degree, sign):
        raise AssertionError(message)
    return lap, d_mat, cod_mat, basis


def harmonic_kernel(chart: Chart, u: VectorField, degree: int, max_freq: int) -> HarmonicKernel:
    """Compute ker of the pair Laplacian and ker pair_d  intersect  ker pair_codiff.

    The Laplacian matrix is pair_codiff . pair_d + pair_d . pair_codiff,
    multiplied out from the band matrices of the two first-order operators
    and checked once against the closed form (componentwise Laplacian plus
    the squared Lie derivative).  The two kernels agree exactly when no
    nonzero band mode k satisfies |k|^2 = <k, U>^2; the comparison verdict
    is part of the result rather than an assumption.
    """
    model = _PairModel(chart, u, max_freq)
    lap, d_mat, cod_mat, basis = _laplacian_matrices(
        model, degree, pair_codiff, 1,
        "pair Laplacian composite disagrees with its closed form")
    lap_kernel = lap.kernel_basis()
    joint_kernel = d_mat.stack(cod_mat).kernel_basis()
    witness = None
    if len(lap_kernel) != len(joint_kernel):
        joint_cols = RationalMatrix.from_columns(len(basis), list(joint_kernel))
        base_rank = joint_cols.rank()
        for vec in lap_kernel:
            trial = RationalMatrix.from_columns(len(basis), list(joint_kernel) + [vec])
            if trial.rank() > base_rank:
                witness = _render_vector(model, degree, basis, vec)
                break
    return HarmonicKernel(degree, max_freq, len(lap_kernel), len(joint_kernel),
                          lap_kernel, joint_kernel, witness)


def _render_vector(model: _PairModel, degree: int, basis, vec) -> str:
    total = zero_pair(model.chart, degree)
    for col, coeff in vec.items():
        total = total + model.materialize(degree, basis[col]) * coeff
    return str(total)


def corrected_laplacian_kernel_dim(chart: Chart, u: VectorField, degree: int,
                                   max_freq: int) -> int:
    """Kernel dimension of the pair Laplacian built from the sign-corrected
    adjoint pair_codiff_skew (closed form: Laplacian minus the squared Lie
    derivative); equals the cohomology dimension in each degree."""
    model = _PairModel(chart, u, max_freq)
    lap = _laplacian_matrices(
        model, degree, pair_codiff_skew, -1,
        "corrected pair Laplacian disagrees with its closed form")[0]
    return lap.kernel_dim()


def lichnerowicz_kernel_dim(chart: Chart, w: Form, degree: int, max_freq: int) -> int:
    """Kernel dimension of the twisted Laplacian d_w delta_w + delta_w d_w
    on the band of single forms; empty for a unit parallel 1-form since the
    operator shifts every Laplacian eigenvalue up by |w|^2 > 0."""
    from .exterior import lichnerowicz_lap

    model = _DeRhamModel(chart, max_freq)
    matrix, _basis = _operator_matrix(model, degree, degree,
                                      lambda a: lichnerowicz_lap(w, a))
    return matrix.kernel_dim()

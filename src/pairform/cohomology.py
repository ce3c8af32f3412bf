"""Band-limited cochain complexes on tori with exact cohomology dimensions.

Constant vector fields and integer-linear torus maps preserve Fourier modes,
so the span of all monomial forms with frequencies bounded in sup norm is a
finite-dimensional subcomplex that splits off as a direct summand.  Its
cohomology therefore equals the full answer in every degree, and all ranks
are computed exactly over Q(i).

Band matrices are assembled from per-mode symbols.  Every band operator
sends a basis form e(k) dx^I to e(k') sum_J c_J(k) dx^J, where k' is k or,
through a torus map with integer matrix A, A^T k, and c_J(k) is a closed
form in the integers k and I: i k_j for d, i<k, X> for L_X, a minor of A for
the pullback, the coefficients w_j of a parallel 1-form for w^ and i_(w#).
`_symbol` writes one column down from those integers, so no operator is
applied symbolically here: the harmonic and Lichnerowicz Laplacians are
products of first-order band matrices, and witnesses are written from their
basis tags.  The symbolic reference that the tests compare every matrix
against lives in the test suite.

Operators that mix frequencies (a pair differential twisted by a non-closed
1-form) escape every finite band; such scenarios are rejected rather than
approximated.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, field
from math import comb as _math_comb

from .charts import Chart, ChartKind, ChartMismatchError
from .exterior import Form, VectorField, ext_d, require_parallel_one_form, zero_form
from .linalg import RationalMatrix
from .pair import PairForm
from .pair import pair_d  # noqa: F401  unused; perfbench/selftest.py checks its tracer binding
from .rationals import ZERO, from_parts
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


def _constant_coeffs(x: VectorField) -> tuple:
    """Frame coefficients of a constant field; any other field mixes modes."""
    if not x.is_constant():
        raise UnsupportedScenarioError(
            "band scenarios require constant vector fields (modes must not mix)")
    return tuple(c.constant_value() for c in x.components)


def _det(rows) -> int:
    """Determinant of a small square integer matrix (Laplace expansion)."""
    if not rows:
        return 1
    return sum((-1) ** j * v * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, v in enumerate(rows[0]) if v)


# -- per-mode symbols ----------------------------------------------------------

# An operator is a tuple of symbol blocks (source side, target side, sign,
# kind).  Side "F" holds the degree-p part of a basis element, side "S" the
# degree-(p-1) part; each block reads like the operator's formula.  The blocks
# leaving one side go to distinct sides, so no two blocks meet in one entry.
_DE_RHAM_D = (("F", "F", 1, "d"),)
_WEDGE, _CODIFF, _INTERIOR = ((("F", "F", 1, kind),)
                               for kind in ("wedge", "codiff", "interior"))
_PAIR_D = (("F", "F", 1, "d"), ("F", "S", 1, "lie"), ("S", "S", -1, "d"))
_UNCOUPLED_D = (("F", "F", 1, "d"), ("S", "S", -1, "d"))   # closed twisting form
_REL_D = (("F", "F", 1, "d"), ("F", "S", 1, "pullback"), ("S", "S", -1, "d"))
_DBAR_PAIR = (("F", "F", 1, "dbar"), ("F", "S", 1, "lie"), ("S", "S", -1, "dbar"))
# pair_codiff (delta phi + L_U psi, -delta psi) and its sign-corrected adjoint
_PAIR_CODIFF = (("F", "F", 1, "codiff"), ("S", "F", 1, "lie"), ("S", "S", -1, "codiff"))
_PAIR_CODIFF_SKEW = (("F", "F", 1, "codiff"), ("S", "F", -1, "lie"),
                     ("S", "S", -1, "codiff"))


def _sigma(chart: Chart, k, j: int, sign: int = 1):
    """sign * sigma_j(k), where wave(k).wirtinger(j) = sigma_j(k) * wave(k):
    i*k_j on a real torus; (i*k_x + k_y)/2 on a dz slot and (i*k_x - k_y)/2
    on a dzb slot of a complex torus."""
    if not chart.is_complex:
        return from_parts(0, sign * k[j])
    n = chart.dim
    kx, ky = k[j % n], k[n + j % n]
    return from_parts(sign * (-ky if j >= n else ky), sign * kx, 2)


def _lie_symbol(coeffs, chart: Chart, k, sign: int = 1):
    """sign * lambda(k), where L_X e(k) = lambda(k) e(k) and lambda(k) =
    sum_j X_j sigma_j(k) for the constant field with frame coefficients
    `coeffs`."""
    total = ZERO
    for j, x in enumerate(coeffs):
        if x:
            total = total + x * _sigma(chart, k, j, sign)
    return total


def _symbol(model: "_Model", op, tag) -> list:
    """The column of operator `op` at basis tag (side, k, idx), as (row tag,
    coefficient) pairs computed from the integers k and idx alone.

    A block (src, dst, sign, kind) whose source is the tag's side sends
    e(k) dx^I on the source slot to `sign` times
      d        sum over slots j not in I of +-sigma_j(k) e(k) dx^(I + j),
               the sign that of moving dx_j to its place in dx^I;
      dbar     the same over the antiholomorphic slots j only;
      wedge    the same with w_j in place of sigma_j(k) (w^, w = sum w_j dx_j);
      codiff   sum_r (-1)^(r+1) sigma_(i_r)(k) e(k) dx^(I - i_r) (real torus);
      interior sum_r (-1)^r w_(i_r) e(k) dx^(I - i_r) (i_(w#), real torus);
      lie      lambda(k) e(k) dx^I on the target slot;
      pullback L_X f^*: sum_J minor(A; I, J) lambda(A^T k) e(A^T k) dx^J on
               the map's source, A the map's matrix.
    Here X or w has the constant frame coefficients `model.coeffs`.  Zero
    coefficients are left out, as decomposing a symbolic image would.
    """
    side, k, idx = tag
    out = []
    for src, dst, sign, kind in op:
        if src != side:
            continue
        chart = model.charts[src]
        if kind == "lie":
            lam = _lie_symbol(model.coeffs, chart, k, sign)
            if lam:
                out.append(((dst, k, idx), lam))
        elif kind == "pullback":
            pulled = model.pull(k)
            lam = _lie_symbol(model.coeffs, model.charts[dst], pulled, sign)
            if lam:
                out += [((dst, pulled, j), lam * minor)
                        for j, minor in model.minors[idx]]
        elif kind == "codiff":
            for r, j in enumerate(idx):
                c = _sigma(chart, k, j, sign if r % 2 else -sign)
                if c:
                    out.append(((dst, k, idx[:r] + idx[r + 1:]), c))
        elif kind == "interior":
            for r, j in enumerate(idx):
                w = model.coeffs[j]
                if w:
                    out.append(((dst, k, idx[:r] + idx[r + 1:]),
                                w * (-sign if r % 2 else sign)))
        elif kind == "wedge":
            for j, w in enumerate(model.coeffs):
                pos = bisect_left(idx, j)
                if w and not (pos < len(idx) and idx[pos] == j):
                    out.append(((dst, k, idx[:pos] + (j,) + idx[pos:]),
                                w * (-sign if pos % 2 else sign)))
        else:
            for j in range(chart.dim if kind == "dbar" else 0, chart.nslots):
                pos = bisect_left(idx, j)
                if pos < len(idx) and idx[pos] == j:
                    continue
                c = _sigma(chart, k, j, -sign if pos % 2 else sign)
                if c:
                    out.append(((dst, k, idx[:pos] + (j,) + idx[pos:]), c))
    return out


def _symbol_matrix(model: "_Model", op, src_basis, dst_index: dict) -> RationalMatrix:
    """Matrix of `op` from the basis `src_basis` into the basis indexed by
    `dst_index`, one `_symbol` column per basis tag."""
    cols = []
    for tag in src_basis:
        col = {}
        for row, c in _symbol(model, op, tag):
            if row not in dst_index:
                raise UnsupportedScenarioError(
                    f"band-closure violation: mode {row[1]} leaves the band")
            col[dst_index[row]] = c
        cols.append(col)
    return RationalMatrix.from_columns(len(dst_index), cols)


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


_SHIFT = {"F": 0, "S": 1}


class _Model:
    """A band complex on one or two slots, as the data `_symbol` reads.

    A basis tag (side, k, idx) is the form e(k) dx^idx on the chart
    `charts[side]`, with k in `modes[side]`: side "F" in the complex's
    degree p, side "S" in degree p-1.  Each subclass checks its inputs in
    `__init__` and sets `label`, `degrees`, `charts`, `modes`, `op` (the
    differential as symbol blocks) and, when a block needs them, the constant
    frame coefficients `coeffs` of the field or 1-form, and for a pullback
    `minors` and `pull`; `assemble` builds every matrix from `_symbol`."""

    degrees: tuple
    charts: dict
    modes: dict
    op: tuple

    def sets(self, side, degree):
        """The slot-index tuples of the side's forms of this degree."""
        return _index_sets(self.charts[side].nslots, degree)

    def basis(self, degree):
        return [(side, k, idx) for side in self.charts for k in self.modes[side]
                for idx in self.sets(side, degree - _SHIFT[side])]

    def assemble(self, shuffle=None) -> BandComplex:
        out = BandComplex(self.label, tuple(self.degrees))
        for d in self.degrees:
            basis = list(self.basis(d))
            if shuffle is not None:
                shuffle(basis)
            out.basis[d] = tuple(basis)
        index = {d: {tag: i for i, tag in enumerate(out.basis[d])} for d in self.degrees}
        for d in self.degrees[:-1]:
            out.matrices[d] = _symbol_matrix(self, self.op, out.basis[d], index[d + 1])
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


class _DeRhamModel(_Model):
    """The de Rham complex of a real torus; with a 1-form `w`, also the
    coefficients of w for the wedge and interior symbols."""

    def __init__(self, chart: Chart, max_freq: int, w: Form = None):
        if chart.kind is not ChartKind.TORUS:
            raise UnsupportedScenarioError("de Rham band model requires a real torus")
        if w is not None:
            if w.chart != chart:
                raise ChartMismatchError(f"the 1-form lives on {w.chart}, not on {chart}")
            require_parallel_one_form(w)
            self.coeffs = tuple(w.component((j,)).constant_value()
                                for j in range(chart.nslots))
        self.label = f"de-rham/{chart}"
        self.op = _DE_RHAM_D
        self.degrees = tuple(range(chart.nslots + 2))
        self.charts = {"F": chart}
        self.modes = {"F": _modes(chart.nvars, max_freq)}


class _PairModel(_Model):
    """Pair complex for the differential induced by a constant field."""

    def __init__(self, chart: Chart, x: VectorField, max_freq: int):
        if chart.kind is not ChartKind.TORUS:
            raise UnsupportedScenarioError("pair band model requires a real torus")
        self.coeffs = _constant_coeffs(x)
        self.label = f"pair/{chart}"
        self.op = _PAIR_D
        self.degrees = tuple(range(chart.nslots + 3))
        self.charts = {"F": chart, "S": chart}
        modes = _modes(chart.nvars, max_freq)
        self.modes = {"F": modes, "S": modes}


class _PairEtaModel(_Model):
    """Pair complex for the differential twisted by a closed 1-form; with
    d eta = 0 the differential is (d phi, -d psi)."""

    def __init__(self, chart: Chart, eta: Form, max_freq: int):
        if eta.chart != chart:
            raise ChartMismatchError(f"the twisting form lives on {eta.chart}, not {chart}")
        if eta.degree != 1:
            raise ValueError("twisting form must be a 1-form")
        if not ext_d(eta).is_zero:
            raise UnsupportedScenarioError(
                "the twisted pair differential mixes frequencies unless the "
                "1-form is closed; refusing to report approximate dimensions")
        if chart.kind is not ChartKind.TORUS:
            raise UnsupportedScenarioError("pair band model requires a real torus")
        self.label = f"pair-eta/{chart}"
        self.op = _UNCOUPLED_D
        self.degrees = tuple(range(chart.nslots + 3))
        self.charts = {"F": chart, "S": chart}
        modes = _modes(chart.nvars, max_freq)
        self.modes = {"F": modes, "S": modes}


class _RelativeModel(_Model):
    """Relative pair complex over an integer-linear torus map."""

    def __init__(self, cmap: ChartMap, x: VectorField, max_freq: int):
        if cmap.matrix is None or cmap.source.kind is not ChartKind.TORUS:
            raise UnsupportedScenarioError("relative band model requires a torus map")
        self.coeffs = _constant_coeffs(x)
        if x.chart != cmap.source:
            raise UnsupportedScenarioError("the vector field must live on the map's source")
        self.label = f"relative/{cmap.source}->{cmap.target}"
        self.op = _REL_D
        top = max(cmap.source.nslots, cmap.target.nslots)
        self.degrees = tuple(range(top + 3))
        target_modes = _modes(cmap.target.nvars, max_freq)
        self._transpose = list(zip(*cmap.matrix))
        source_modes = set(_modes(cmap.source.nvars, max_freq))
        source_modes |= {self.pull(k) for k in target_modes}
        self.charts = {"F": cmap.target, "S": cmap.source}
        self.modes = {"F": target_modes, "S": sorted(source_modes)}
        # target index set I -> [(J, det A[I, J])] over the source index sets
        # J of the same size with a nonzero minor
        self.minors = {}
        for p in range(cmap.target.nslots + 1):
            for tgt in _index_sets(cmap.target.nslots, p):
                minors = ((src, _det([[cmap.matrix[t][s] for s in src] for t in tgt]))
                          for src in _index_sets(cmap.source.nslots, p))
                self.minors[tgt] = [(src, m) for src, m in minors if m]

    def pull(self, k) -> tuple:
        """The source mode A^T k of the target mode k."""
        return tuple(sum(r * v for r, v in zip(row, k)) for row in self._transpose)


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
        if eta.degree != 1:
            raise ChartMismatchError("eta must be a 1-form on the map's target")
        if not ext_d(eta).is_zero:
            raise UnsupportedScenarioError(
                "the twisted relative differential mixes frequencies unless the "
                "1-form is closed; refusing to report approximate dimensions")
        self.label = f"primed/{cmap.source}->{cmap.target}"
        self.op = _UNCOUPLED_D
        top = max(cmap.source.nslots, cmap.target.nslots)
        self.degrees = tuple(range(top + 3))
        self.charts = {"F": cmap.source, "S": cmap.target}
        self.modes = {side: _modes(chart.nvars, max_freq)
                      for side, chart in self.charts.items()}


class _DolbeaultModel(_Model):
    """Fixed-p pair complex for the dbar operator on a flat complex torus."""

    def __init__(self, chart: Chart, x: VectorField, p: int, max_freq: int):
        if chart.kind is not ChartKind.TORUS_COMPLEX:
            raise UnsupportedScenarioError("dbar band model requires a complex torus")
        self.coeffs = _constant_coeffs(x)
        if not x.is_holomorphic():
            raise UnsupportedScenarioError("dbar band model requires a holomorphic field")
        self.p = p
        self.label = f"dolbeault/{chart}/p={p}"
        self.op = _DBAR_PAIR
        self.degrees = tuple(range(chart.dim + 3))
        self.charts = {"F": chart, "S": chart}
        modes = _modes(chart.nvars, max_freq)
        self.modes = {"F": modes, "S": modes}

    def sets(self, side, q):
        n = self.charts[side].dim
        if q < 0 or self.p > n or q > n:
            return []
        holo = itertools.combinations(range(n), self.p)
        anti = list(itertools.combinations(range(n, 2 * n), q))
        return [h + a for h in holo for a in anti]


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


def _closed_form_matrix(model: _PairModel, degree: int, sign: int) -> RationalMatrix:
    """The pair Laplacian's closed form on the degree-p band: blockdiag over
    the slot degrees q = p, p-1 of delta_(q+1) d_q + d_(q-1) delta_q
    + sign * L_q L_q, each factor a single-form matrix built from the
    symbols of d, codiff and lie on the first slot."""
    index = {tag: i for i, tag in enumerate(model.basis(degree))}
    entries = {}

    def single(q):
        return [("F", k, idx) for k in model.modes["F"] for idx in model.sets("F", q)]

    def mat(src, dst, kind):
        dst_index = {tag: i for i, tag in enumerate(single(dst))}
        return _symbol_matrix(model, (("F", "F", 1, kind),), single(src), dst_index)

    for side, q in (("F", degree), ("S", degree - 1)):
        lie_q = mat(q, q, "lie")
        lie_sq = lie_q.matmul(lie_q)
        if sign < 0:
            lie_sq.entries = {key: -v for key, v in lie_sq.entries.items()}
        block = mat(q + 1, q, "codiff").matmul(mat(q, q + 1, "d")).add(
            mat(q - 1, q, "d").matmul(mat(q, q - 1, "codiff"))).add(lie_sq)
        pos = [index[(side, k, idx)] for _, k, idx in single(q)]
        for (r, c), v in block.entries.items():
            entries[(pos[r], pos[c])] = v
    return RationalMatrix(len(index), len(index), entries)


def _anticommutator(model: _Model, degree: int, d_ops, cod_ops):
    """Lap = Cod_(p+1) D_p + D_(p-1) Cod_p by exact sparse matmul.  D and Cod
    are first-order band matrices, each the sum of one `_symbol` matrix per
    operator in `d_ops` or `cod_ops` (`_symbol_matrix` assigns entries, so
    operators whose blocks meet in one entry are built apart and added).
    Returns (Lap, D_p, Cod_p, basis of degree p)."""
    basis = {p: model.basis(p) for p in (degree - 1, degree, degree + 1)}
    index = {p: {tag: i for i, tag in enumerate(b)} for p, b in basis.items()}

    def mat(src, dst, ops):
        out, *rest = (_symbol_matrix(model, op, basis[src], index[dst]) for op in ops)
        for other in rest:
            out = out.add(other)
        return out

    d_mat = mat(degree, degree + 1, d_ops)
    cod_mat = mat(degree, degree - 1, cod_ops)
    lap = mat(degree + 1, degree, cod_ops).matmul(d_mat).add(
        mat(degree - 1, degree, d_ops).matmul(cod_mat))
    return lap, d_mat, cod_mat, basis[degree]


def _laplacian_matrices(model: _PairModel, degree: int, cod, sign: int, message: str):
    """The anticommutator of pair_d and the codifferential whose symbol
    blocks are `cod`, compared entry for entry with its closed form, once
    per matrix; a mismatch raises AssertionError(message)."""
    out = _anticommutator(model, degree, (model.op,), (cod,))
    if out[0] != _closed_form_matrix(model, degree, sign):
        raise AssertionError(message)
    return out


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
        model, degree, _PAIR_CODIFF, 1,
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
    """The pair form sum_i vec[i] * basis[i], written down from the tags."""
    chart = model.charts["F"]
    slots = {"F": zero_form(chart, degree), "S": zero_form(chart, degree - 1)}
    for col, coeff in vec.items():
        side, k, idx = basis[col]
        slots[side] = slots[side] + _wave_form(chart, k, idx) * coeff
    return str(PairForm(slots["F"], slots["S"]))


def corrected_laplacian_kernel_dim(chart: Chart, u: VectorField, degree: int,
                                   max_freq: int) -> int:
    """Kernel dimension of the pair Laplacian built from the sign-corrected
    adjoint pair_codiff_skew (closed form: Laplacian minus the squared Lie
    derivative); equals the cohomology dimension in each degree."""
    model = _PairModel(chart, u, max_freq)
    lap = _laplacian_matrices(
        model, degree, _PAIR_CODIFF_SKEW, -1,
        "corrected pair Laplacian disagrees with its closed form")[0]
    return lap.kernel_dim()


def _lichnerowicz_matrix(chart: Chart, w: Form, degree: int, max_freq: int) -> RationalMatrix:
    """The twisted Laplacian C_w D_w + D_w C_w on the degree-p band of single
    forms, D_w = d + w^ and C_w = delta + i_(w#); `w` is checked first."""
    model = _DeRhamModel(chart, max_freq, w)
    return _anticommutator(model, degree, (_DE_RHAM_D, _WEDGE), (_CODIFF, _INTERIOR))[0]


def lichnerowicz_kernel_dim(chart: Chart, w: Form, degree: int, max_freq: int) -> int:
    """Kernel dimension of the twisted Laplacian d_w delta_w + delta_w d_w
    on the band of single forms; empty for a unit parallel 1-form since the
    operator shifts every Laplacian eigenvalue up by |w|^2 > 0."""
    return _lichnerowicz_matrix(chart, w, degree, max_freq).kernel_dim()

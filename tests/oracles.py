"""Independent oracles used by the test suite.

Nothing here shares a code path with the library operators: scalars are
evaluated numerically, permutation signs are counted directly, the Lie
derivative uses the coordinate formula instead of the homotopy formula,
ranks are recomputed with plain Gauss-Jordan elimination over the field, and
a pullback is a chain of wedges with the pulled-back coframes, one slot at a
time, with no per-map memo (`wedge_chain_pullback`), and a torus map's
coframes are worked out from its real matrix on the axes
(`torus_coframe_pullback`), not taken from the library.

The band reference (`SymbolicBand`) is the other side of the band matrices:
it applies the library's symbolic operators to materialized basis forms and
decomposes the images again, and shares no code with the per-mode symbols
(`cohomology._symbol`) that the library assembles its matrices from.  The
library writes each operator once for every mode, as a matrix of linear
forms in k (`cohomology._parts`), each coefficient written down as its
linear form (`cohomology._forms`).  `sampled_forms` reads those forms off
each coefficient's values at the modes 0 and e_i (`symbol_values`, from
`sigma_values` and `lam_value`) instead; `ModeBlock` builds a block's
matrices at its own modes, reading every symbol coefficient there, and is
the per-mode reference that the linear forms are compared with off 0 and
e_i.  The library never builds a global band
matrix; `reassemble` and `band_matrix` put the per-block Z[i] matrices
back together on a global basis, so that they can be compared with the
symbolic reference entry for entry.

The library reads its Laplacian kernels off a certificate: each Laplacian
is checked to be a known multiple of the identity on every mode, and its
kernel is then the modes where that multiple vanishes.  `all_blocks_harmonic`
and `all_blocks_kernel_dim` are the elimination this replaces: they multiply
out the Laplacian on every block of the band and take its kernel there.
The library checks each certified identity on the coefficients of a
quadratic in the mode k, and writes each closed form straight down as its
coefficients (`cohomology._closed`).  `point_set_certify` and
`point_set_dd_failure` check the identity on its values at the
1 + 2n + C(n, 2) modes 0, +-e_i and e_i + e_j instead, which also fix a
quadratic; `sampled_coefficients` reads a quadratic's coefficients off
those values, the reference for `_closed` on the values `homotopy_value`
and `closed_value` compute from the per-mode symbols.

The library eliminates no band block: it checks that the differential
vanishes on the block of every side at mode 0 and fills every other rank
from column counts.  `blocks` splits a model into the finest blocks its
differential keeps (one per mode, and over a torus map one source mode with
every target mode k whose A^T k equals it), and `eliminated_ranks` ranks
each of them by elimination instead.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Callable

from pairform.charts import ChartKind
from pairform.cohomology import (
    HarmonicKernel,
    UnsupportedScenarioError,
    _PAIR_CODIFF,
    _composed,
    _de_rham_model,
    _dolbeault_model,
    _pair_eta_model,
    _pair_model,
    _primed_eta_model,
    _relative_model,
    _sigma_forms,
    _unit_modes,
)
from pairform.dolbeault import dbar_pair
from pairform.exterior import (
    Form,
    VectorField,
    coframe,
    ext_d,
    scalar_form,
    wedge,
    zero_form,
)
from pairform.linalg import RationalMatrix, zi_kernel, zi_matmul, zi_rank
from pairform.pair import PairForm, pair_d, pair_d_lichnerowicz
from pairform.rationals import ONE, ZERO, GaussianRational, from_parts, gq
from pairform.relative import RelPairForm, rel_d, rel_d_lichnerowicz
from pairform.scalar import ScalarExpr, const, wave

from helpers import zero_pair


def to_complex(c: GaussianRational) -> complex:
    return float(c.re) + 1j * float(c.im)


def eval_scalar(s, point) -> complex:
    """Evaluate at a real point (angles on tori; complex charts take the
    2n real coordinates x1..xn, y1..yn)."""
    chart = s.chart
    if chart.kind is ChartKind.AFFINE_COMPLEX:
        n = chart.dim
        zs = [point[j] + 1j * point[n + j] for j in range(n)]
        values = zs + [z.conjugate() for z in zs]
    else:
        values = list(point)
    total = 0j
    for alpha, k, c in s.terms:
        term = to_complex(c)
        for j, a in enumerate(alpha):
            term *= values[j] ** a
        if any(k):
            term *= cmath.exp(1j * sum(kk * x for kk, x in zip(k, point)))
        total += term
    return total


SAMPLE_POINTS = {
    1: [(0.7,), (-1.3,), (2.1,)],
    2: [(0.7, -1.3), (1.9, 0.4), (-0.6, 2.2)],
    3: [(0.7, -1.3, 1.9), (0.3, 2.1, -0.8), (-1.1, 0.5, 1.7)],
    4: [(0.7, -1.3, 1.9, 0.4), (0.3, 2.1, -0.8, 1.2), (-1.1, 0.5, 1.7, -0.9)],
}


def points_for(chart):
    return SAMPLE_POINTS[chart.nvars]


def scalars_close(a, b, tol=1e-9) -> bool:
    return all(abs(eval_scalar(a, p) - eval_scalar(b, p)) < tol
               for p in points_for(a.chart))


def perm_sign(seq) -> int:
    """Sign of the permutation sorting `seq`, 0 if entries repeat."""
    if len(set(seq)) != len(seq):
        return 0
    inversions = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
                     if seq[i] > seq[j])
    return -1 if inversions % 2 else 1


def leibniz_det(rows) -> GaussianRational:
    """Determinant of a square Q(i) matrix as the signed sum over permutations."""
    total = ZERO
    for perm in itertools.permutations(range(len(rows))):
        term = gq(perm_sign(perm))
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + term
    return total


def canonical_scalar_faults(s) -> list:
    """Every way `s` breaks canonical form, checked entry by entry without the
    library's own predicate: terms strictly increasing in (alpha, k), so
    sorted and merged; coefficients nonzero and in lowest terms; int vectors
    of the chart's length, non-negative exponents, and only the species the
    chart allows.  An empty list means canonical."""
    chart, faults = s.chart, []
    if type(s.terms) is not tuple:
        faults.append("terms is not a tuple")
    keys = [(alpha, k) for alpha, k, _ in s.terms]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        faults.append(f"keys not strictly increasing: {keys}")
    for term in s.terms:
        alpha, k, c = term
        if type(term) is not tuple or type(alpha) is not tuple or type(k) is not tuple:
            faults.append(f"term {term} is not made of tuples")
        if type(c) is not GaussianRational or c == ZERO or c.d <= 0 or \
                math.gcd(c.a, c.b, c.d) != 1:
            faults.append(f"coefficient {c!r} is zero or not canonical")
        if len(alpha) != chart.nvars or len(k) != chart.nvars or \
                any(type(v) is not int for v in alpha + k):
            faults.append(f"key {alpha}/{k} does not fit {chart}")
        elif any(v < 0 for v in alpha) or any(alpha if chart.is_torus else k):
            faults.append(f"key {alpha}/{k} has a species {chart} does not allow")
    return faults


def canonical_form_faults(f) -> list:
    """As `canonical_scalar_faults`, for a form: index sets strictly
    increasing, each a strictly increasing tuple of `degree` int slots of
    the chart, each carrying a nonzero canonical scalar on the same chart."""
    faults = []
    if type(f.components) is not tuple:
        faults.append("components is not a tuple")
    idxs = [idx for idx, _ in f.components]
    if any(a >= b for a, b in zip(idxs, idxs[1:])):
        faults.append(f"index sets not strictly increasing: {idxs}")
    for idx, s in f.components:
        if type(idx) is not tuple or len(idx) != f.degree or \
                any(type(j) is not int or not 0 <= j < f.chart.nslots for j in idx) or \
                list(idx) != sorted(set(idx)):
            faults.append(f"bad index set {idx} for degree {f.degree}")
        if type(s) is not ScalarExpr or s.chart != f.chart or not s.terms:
            faults.append(f"component {idx} is zero or off the chart")
        else:
            faults += canonical_scalar_faults(s)
    return faults


def coordinate_lie(x: VectorField, a: Form) -> Form:
    """Lie derivative by the coordinate formula
    (L_X a)_I = X(a_I) + sum_r sum_j (e_{I_r} X^j) a_{I with r -> j}."""
    chart = a.chart
    if a.degree < 0 or a.degree > chart.nslots:
        return Form(chart, a.degree, ())
    out = []
    for idx in itertools.combinations(range(chart.nslots), a.degree):
        total = x.apply(a.component(idx))
        for r in range(a.degree):
            for j in range(chart.nslots):
                coef = x.components[j].wirtinger(idx[r])
                if coef.is_zero:
                    continue
                replaced = idx[:r] + (j,) + idx[r + 1:]
                sign = perm_sign(replaced)
                if sign:
                    total = total + a.component(tuple(sorted(replaced))) * coef * sign
        if not total.is_zero:
            out.append((idx, total))
    return Form(chart, a.degree, tuple(out))


def plain_compose(s: ScalarExpr, cmap) -> ScalarExpr:
    """s o f by substituting each variable's image, power by power, and
    adding the terms as scalars; no memo of the map is read."""
    if cmap.matrix is not None:
        return s.compose(cmap)
    images = cmap.variable_images()
    out = ScalarExpr(cmap.source, ())
    for alpha, _k, c in s.terms:
        term = const(cmap.source, c)
        for j, a in enumerate(alpha):
            term = term * images[j].power(a)
        out = out + term
    return out


def torus_coframe_pullback(cmap, slot: int) -> Form:
    """f*(dx_slot) for a torus map with real matrix A, from the axes: the
    row sum_k A[slot][k] dx_k on a real torus.  On a complex torus
    dz_t = dx_t + i dy_t and dzb_t = dx_t - i dy_t pull back through the rows
    t and n_t + t of A on the source axes (x_1..x_n, y_1..y_n), each axis
    re-expressed as dx_k = (dw_k + dwb_k)/2 and dy_k = -(i/2)(dw_k - dwb_k);
    nothing assumes the map is complex-linear."""
    src, tgt = cmap.source, cmap.target
    if not tgt.is_complex:
        return sum((coframe(src, k) * m for k, m in enumerate(cmap.matrix[slot])),
                   zero_form(src, 1))
    ns, nt = src.dim, tgt.dim
    axes = [(coframe(src, k) + coframe(src, ns + k)) * gq("1/2") for k in range(ns)] + \
        [(coframe(src, k) - coframe(src, ns + k)) * gq(0, "-1/2") for k in range(ns)]
    t, i = slot % nt, gq(0, -1 if slot >= nt else 1)
    return sum((axis * (gq(cmap.matrix[t][k]) + i * cmap.matrix[nt + t][k])
                for k, axis in enumerate(axes)), zero_form(src, 1))


def wedge_chain_pullback(cmap, a: Form) -> Form:
    """f*a as the sum over components of (s o f) ^ f*dx^(i_1) ^ ... ^ f*dx^(i_p),
    one wedge per slot, each piece added as a form; each f*dx_j is d of the
    slot's image on an affine chart and `torus_coframe_pullback` on a torus."""
    coframes = {}
    out = Form(cmap.source, a.degree, ())
    for idx, s in a.components:
        piece = scalar_form(plain_compose(s, cmap))
        for j in idx:
            if j not in coframes:
                coframes[j] = ext_d(scalar_form(cmap.variable_images()[j])) \
                    if cmap.matrix is None else torus_coframe_pullback(cmap, j)
            piece = wedge(piece, coframes[j])
        out = out + piece
    return out


def gauss_rank(matrix) -> int:
    """Plain Gauss-Jordan rank over Q(i) on a dense copy (no Bareiss, no blocks)."""
    rows = [[matrix.entries.get((r, c)) for c in range(matrix.ncols)]
            for r in range(matrix.nrows)]
    rows = [[0 if v is None else v for v in row] for row in rows]
    rank = 0
    for c in range(matrix.ncols):
        pivot = None
        for r in range(rank, matrix.nrows):
            if rows[r][c]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        head = rows[rank][c]
        rows[rank] = [v / head if v else v for v in rows[rank]]
        for r in range(matrix.nrows):
            if r != rank and rows[r][c]:
                f = rows[r][c]
                rows[r] = [v - f * w if w or v else v
                           for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def kernel_oracle(matrix) -> dict:
    """The right kernel by plain Gauss-Jordan elimination over Q(i) on a
    dense copy: for each non-pivot column j, the kernel vector that is 1 at j
    and 0 at every other non-pivot column, as {j: {col: value}} of its
    nonzero entries."""
    rows = [[matrix.entries.get((r, c), ZERO) for c in range(matrix.ncols)]
            for r in range(matrix.nrows)]
    pivots = []
    for c in range(matrix.ncols):
        pivot = next((r for r in range(len(pivots), len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        top = len(pivots)
        rows[top], rows[pivot] = rows[pivot], rows[top]
        head = rows[top][c]
        rows[top] = [v / head for v in rows[top]]
        for r in range(len(rows)):
            if r != top and rows[r][c]:
                f = rows[r][c]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[top])]
        pivots.append(c)
    out = {}
    for j in range(matrix.ncols):
        if j not in pivots:
            vec = {c: -rows[r][j] for r, c in enumerate(pivots) if rows[r][j]}
            vec[j] = ONE
            out[j] = dict(sorted(vec.items()))
    return out


def laplace_eigenvalue(k) -> int:
    """|k|^2, the flat-torus Laplacian eigenvalue of the mode e^{i<k,x>}."""
    return sum(v * v for v in k)


# -- symbolic band reference -------------------------------------------------

_SHIFT = {"F": 0, "S": 1}


@dataclass
class SymbolicBand:
    """A band model's complex applied symbolically.  A basis tag (side, k,
    idx) is materialized as e(k) dx^idx on its side's slot and zero forms on
    the others, wrapped into the complex's own value type; `apply` is the
    library's symbolic differential on that type, and `unwrap` returns the
    slot forms, in the order of `model.charts`, for decomposing an image."""

    model: object
    wrap: Callable      # (degree, *slot forms) -> value
    unwrap: Callable    # value -> slot forms
    apply: Callable     # value -> its differential
    offset: int = 0     # form degree of the "F" slot minus the complex's degree

    def materialize(self, degree, tag):
        side, k, idx = tag
        return self.wrap(degree, *(
            Form(chart, len(idx), ((idx, wave(chart, k)),)) if s == side
            else zero_form(chart, degree + self.offset - _SHIFT[s])
            for s, chart in self.model.charts.items()))

    def decompose(self, value, col: dict, index: dict):
        for side, form in zip(self.model.charts, self.unwrap(value)):
            zeros = form.chart.zeros
            for idx, s in form.components:
                for alpha, k, c in s.terms:
                    if alpha != zeros:
                        raise UnsupportedScenarioError(
                            "polynomial coefficient escaped the torus basis")
                    tag = (side, k, idx)
                    if tag not in index:
                        raise UnsupportedScenarioError(
                            f"band-closure violation: mode {k} leaves the band")
                    col[index[tag]] = col.get(index[tag], ZERO) + c


def _slots(value):
    return value.first, value.second


def de_rham_band(chart, max_freq, w=None):
    return SymbolicBand(_de_rham_model(chart, max_freq, w), lambda d, form: form,
                        lambda value: (value,), ext_d)


def pair_band(chart, x, max_freq):
    return SymbolicBand(_pair_model(chart, x, max_freq), lambda d, a, b: PairForm(a, b),
                        _slots, lambda value: pair_d(x, value))


def pair_eta_band(chart, eta, max_freq):
    return SymbolicBand(_pair_eta_model(chart, eta, max_freq),
                        lambda d, a, b: PairForm(a, b), _slots,
                        lambda value: pair_d_lichnerowicz(eta, value))


def relative_band(cmap, x, max_freq):
    return SymbolicBand(_relative_model(cmap, x, max_freq),
                        lambda d, a, b: RelPairForm(cmap, a, b), _slots,
                        lambda value: rel_d(x, value))


def primed_band(cmap, eta, max_freq):
    return SymbolicBand(_primed_eta_model(cmap, eta, max_freq),
                        lambda d, a, b: RelPairForm(cmap, a, b, primed=True), _slots,
                        lambda value: rel_d_lichnerowicz(eta, value))


def dolbeault_band(chart, x, p, max_freq):
    return SymbolicBand(_dolbeault_model(chart, x, p, max_freq),
                        lambda q, a, b: PairForm(a, b), _slots,
                        lambda value: dbar_pair(x, value), offset=p)


def operator_matrix(band: SymbolicBand, src_degree: int, dst_degree: int, op=None):
    """Reference matrix of the symbolic operator `op` (the band's
    differential by default) and the source basis: each basis form is
    materialized, `op` is applied to it and the image decomposed again."""
    op = op or band.apply
    src = band.model.basis(src_degree)
    dst = band.model.basis(dst_degree)
    index = {tag: i for i, tag in enumerate(dst)}
    cols = []
    for tag in src:
        col: dict = {}
        band.decompose(op(band.materialize(src_degree, tag)), col, index)
        cols.append(col)
    return RationalMatrix.from_columns(len(dst), cols), src


def render_vector(band: SymbolicBand, degree: int, basis, vec) -> str:
    """The pair form sum_i vec[i] * basis[i], built from materialized forms."""
    total = zero_pair(band.model.charts["F"], degree)
    for col, coeff in vec.items():
        total = total + band.materialize(degree, basis[col]) * coeff
    return str(total)


# -- the band matrices mode by mode ------------------------------------------


def sigma_values(model, side, k) -> list:
    """sigma_j(k) times `model.scale` over the slots j of the side's chart,
    as int pairs, where wave(k).wirtinger(j) = sigma_j(k) * wave(k): i k_j on
    a real torus; (i k_x + k_y)/2 on a dz slot and (i k_x - k_y)/2 on a dzb
    slot of a complex torus, whose scale doubles."""
    chart, u = model.charts[side], model.unit
    if not chart.is_complex:
        return [(0, u * v) for v in k]
    n = chart.dim
    return [((-u if j >= n else u) * k[n + j % n], u * k[j % n]) for j in range(chart.nslots)]


def lam_value(model, k) -> tuple:
    """lambda(k) = sum_j X_j sigma_j(k) times `model.scale`, as an int pair,
    for the field with frame coefficients `model.coeffs` on side "S"."""
    re = im = 0
    for x, (s, t) in zip(model.coeffs, sigma_values(model, "S", k)):
        re, im = re + (x.a * s - x.b * t) // x.d, im + (x.a * t + x.b * s) // x.d
    return re, im


def symbol_values(model, side, kind: str, k) -> tuple:
    """(k', c) of a symbol block of `kind` leaving `side` at mode k: its
    target mode k' and its coefficients c_j (`cohomology._symbol`) times
    `model.scale`, indexed by j, as int pairs."""
    if kind == "pullback":
        return model.pull(k), (lam_value(model, model.pull(k)),)
    if kind in ("lie", "wedge", "interior"):
        return k, (lam_value(model, k),) if kind == "lie" else model.scaled_coeffs
    sigma = sigma_values(model, side, k)
    return k, [(a, -b) for a, b in sigma] if kind == "dbar*" else sigma


def linear(values) -> dict:
    """The linear form {i: (re, im)} in k (k_0 = 1), zero coefficients left
    out, of an affine c(k) given at 0, e_1, ..., e_n as int pairs."""
    (a, b), *units = values
    terms = [(a, b)] + [(x - a, y - b) for x, y in units]
    return {i: term for i, term in enumerate(terms) if term != (0, 0)}


def symbol_forms(model, side, kind: str, rows=None) -> list:
    """The c_j (`cohomology._symbol`) of a symbol block of `kind` leaving
    `side`, times `model.scale`, as linear forms in the side's own mode,
    indexed by j, written down with the field's numbers: sigma_j (conjugated
    for dbar*), lambda, lambda(A^T k) for the pullback, A^T e_i being the
    rows of the map's matrix `rows`, and the constants w_j, empty where
    w_j = 0."""
    if kind in ("lie", "pullback"):
        return [model.lam_form if kind == "lie" else _composed(model.lam_form, rows)]
    if kind in ("wedge", "interior"):
        return [{0: w} if w != (0, 0) else {} for w in model.scaled_coeffs]
    return [{i: (a * model.unit, b * model.unit) for i, (a, b) in form.items()}
            for form in _sigma_forms(model.charts[side], kind == "dbar*")]


def sampled_forms(model, modes, side, dst_side, kind: str) -> tuple:
    """(inside, forms, k'(0)) as `cohomology._forms` gives them, read off
    the symbol's values at the point set `modes` of 0 and e_i instead: each
    c_j at each point's own mode of `side` (`symbol_values`), and its
    `linear` form through those n + 1 values."""
    read = [symbol_values(model, side, kind, k) for k in modes[side]]
    inside = dst_side in modes and all(k == m for (k, _), m in zip(read, modes[dst_side]))
    return inside, [linear(c) for c in zip(*(c for _, c in read))], read[0][0]


class ModeBlock:
    """A block {side: [mode]} of a library model whose matrices are
    evaluated at its own modes: the per-mode reference for the linear forms
    in k (`cohomology._parts`) that the library certifies and reads its
    kernels from."""

    def __init__(self, model, modes: dict):
        self.model, self.modes, self._matrices = model, modes, {}

    def tags(self, degree) -> list:
        """The block's basis tags of this degree, in the global basis order."""
        return self.model.basis(degree, self.modes)

    def index(self, degree) -> dict:
        """The position in `tags(degree)` of the first tag of each (side, k)."""
        index = {}
        for i, (side, k, _) in enumerate(self.tags(degree)):
            index.setdefault((side, k), i)
        return index

    def matrix(self, op, src: int, dst: int) -> list:
        """The block of operator `op` from degree `src` to degree `dst`, as a
        Z[i] column matrix with entries times `model.scale`: one column per
        tag, each symbol coefficient read (`symbol_values`) at the tag's
        own mode and written at the rows of the model's `stencil`; built
        once per (op, src, dst)."""
        key = op, src, dst
        if key in self._matrices:
            return self._matrices[key]
        model = self.model
        index = self.index(dst)
        cols = []
        for side, modes in self.modes.items():
            q = src - _SHIFT[side]
            for k in modes:
                # per symbol block: its first row, sign, coefficients c
                # indexed by j, target mode and stencil
                blocks = []
                for from_side, dst_side, sign, kind in op:
                    if from_side == side:
                        row_k, coefs = symbol_values(model, side, kind, k)
                        blocks.append((index.get((dst_side, row_k)), sign, coefs, row_k,
                                       model.stencil(side, kind, q)))
                for i in range(model.size(src, {side: [k]})):
                    col = {}
                    for start, sign, coefs, row_k, stencil in blocks:
                        for pos, s, j in stencil[i]:
                            a, b = coefs[j]
                            if a or b:
                                if start is None or pos is None:
                                    raise UnsupportedScenarioError(
                                        f"band-closure violation: mode {row_k} leaves the band")
                                c, e = col.pop(start + pos, (0, 0))
                                c, e = c + sign * s * a, e + sign * s * b
                                if c or e:
                                    col[start + pos] = c, e
                    cols.append(col)
        self._matrices[key] = cols
        return cols


def mode_block(model, k) -> ModeBlock:
    """The block of mode k on every side of a model whose operators keep modes."""
    return ModeBlock(model, {side: [k] for side in model.charts})


def stacked(block, degree: int, d_op, cod_op) -> list:
    """[D_p ; Cod_p] on one block: the columns of D_p over those of Cod_p."""
    shift = len(block.tags(degree + 1))
    return [{**up, **{r + shift: v for r, v in low.items()}}
            for up, low in zip(block.matrix(d_op, degree, degree + 1),
                               block.matrix(cod_op, degree, degree - 1))]


# -- the model's blocks, each eliminated ----------------------------------------


def block_key(model, side, k):
    """The block of mode k on `side`: operators that keep modes give one
    block per mode; over a torus map a target mode k (on the model's
    `target_side`) joins the block of its source mode A^T k."""
    return model.pull(k) if side == getattr(model, "target_side", None) else k


def blocks(model) -> list:
    """The model's blocks by `block_key`, in the order of their first mode
    in the basis."""
    groups = {}
    for side in model.charts:
        for k in model.modes[side]:
            groups.setdefault(block_key(model, side, k), {}).setdefault(side, []).append(k)
    return [ModeBlock(model, modes) for modes in groups.values()]


def eliminated_ranks(model) -> dict:
    """The ranks of the model's differential by degree, summed over its
    `blocks` by Bareiss elimination, with d.d = 0 checked on every block."""
    ranks = dict.fromkeys(model.degrees, 0)
    failed = set()                     # the degrees with d.d != 0 in some block
    for block in blocks(model):
        mats = [block.matrix(model.op, d, d + 1) for d in model.degrees[:-1]]
        failed.update(d for d, low, high in zip(model.degrees, mats, mats[1:])
                      if any(zi_matmul(high, low)))
        for d, mat in zip(model.degrees, mats):
            ranks[d] += zi_rank(mat)
    if failed:
        raise AssertionError(f"differentials fail to compose to zero at degree {min(failed)}")
    return ranks


# -- per-block library matrices on a global basis -----------------------------


def reassemble(pieces, src_basis, dst_basis, scale: int) -> RationalMatrix:
    """The matrix on the global bases `src_basis` -> `dst_basis` made of
    per-block Z[i] matrices, each given as (column tags, row tags, columns)
    with entries times `scale`; no two blocks may write one entry."""
    cols = {tag: i for i, tag in enumerate(src_basis)}
    rows = {tag: i for i, tag in enumerate(dst_basis)}
    out = RationalMatrix(len(rows), len(cols))
    for col_tags, row_tags, mat in pieces:
        assert len(mat) == len(col_tags)
        for c, col in enumerate(mat):
            for r, (a, b) in col.items():
                key = (rows[row_tags[r]], cols[col_tags[c]])
                assert key not in out.entries
                out.entries[key] = from_parts(a, b, scale)
    return out


def band_matrix(model, op, src_degree, dst_degree, parts=None, src_basis=None,
                dst_basis=None) -> RationalMatrix:
    """The library's block matrices of the operator `op` (symbol blocks) from
    `src_degree` to `dst_degree`, put back together on the global bases
    (the model's by default).  The blocks `parts` (the model's `blocks` by
    default) must partition both bases."""
    parts = blocks(model) if parts is None else parts
    src_basis = model.basis(src_degree) if src_basis is None else src_basis
    dst_basis = model.basis(dst_degree) if dst_basis is None else dst_basis
    for degree, basis in ((src_degree, src_basis), (dst_degree, dst_basis)):
        assert sorted(tag for b in parts for tag in b.tags(degree)) == sorted(basis)
    return reassemble([(b.tags(src_degree), b.tags(dst_degree),
                        b.matrix(op, src_degree, dst_degree)) for b in parts],
                      src_basis, dst_basis, model.scale)


# -- the certificate on its values at the quadratic points --------------------


def quadratic_points(nvars: int) -> list:
    """The modes 0, +-e_i and e_i + e_j (i < j).  A polynomial of degree <= 2
    in k is fixed by its values there (they give its constant, linear,
    square and cross terms in turn), so it vanishes on every mode if it
    vanishes on these 1 + 2n + C(n, 2)."""
    units = [tuple(int(i == j) for j in range(nvars)) for i in range(nvars)]
    return ([(0,) * nvars] + [k for e in units for k in (e, tuple(-v for v in e))]
            + [tuple(a + b for a, b in zip(e, f)) for e, f in itertools.combinations(units, 2)])


def sampled_coefficients(value, nvars: int) -> dict:
    """The nonzero coefficients q_ab, a <= b, of k_a k_b (k_0 = 1), keyed
    like `cohomology._closed`, of the quadratic q equal to value (int pairs)
    at 0, +-e_i and e_i + e_j: 2 q_0i = v(e_i) - v(-e_i),
    2 q_ii = v(e_i) + v(-e_i) - 2 v(0) and
    q_ij = v(e_i + e_j) - v(e_i) - v(e_j) + v(0).  The halving must be
    exact: a quadratic with Z[i] coefficients is expected."""
    units = _unit_modes(nvars)
    at = [value(k) for k in units]
    doubled = {(0, 0): (2 * at[0][0], 2 * at[0][1])}
    for i in range(1, nvars + 1):
        minus = value(tuple(-x for x in units[i]))
        doubled[0, i] = tuple(p - m for p, m in zip(at[i], minus))
        doubled[i, i] = tuple(p + m - 2 * z for p, m, z in zip(at[i], minus, at[0]))
    for i, j in itertools.combinations(range(1, nvars + 1), 2):
        both = value(tuple(x + y for x, y in zip(units[i], units[j])))
        doubled[i, j] = tuple(2 * (s - a - b + z)
                              for s, a, b, z in zip(both, at[i], at[j], at[0]))
    assert all(x % 2 == 0 for c in doubled.values() for x in c), doubled
    return {key: (a // 2, b // 2) for key, (a, b) in doubled.items() if (a, b) != (0, 0)}


def homotopy_value(model, k, side="F") -> int:
    """t(k) in D H + H D = t(k) I on `side`, times scale^2, from the model's
    own sigma_j(k): |sigma_j(k)|^2 over the slots j that the homotopy
    contracts, every slot of a real torus and the antiholomorphic ones of a
    complex torus; zero only at k = 0."""
    chart = model.charts[side]
    return sum(a * a + b * b
               for a, b in sigma_values(model, side, k)[chart.dim if chart.is_complex else 0:])


def closed_value(model, k, sign: int) -> tuple:
    """The pair Laplacian's closed form at mode k, times scale^2: the
    componentwise Laplacian |k|^2 plus `sign` times the squared Lie symbol
    lambda(k)^2, as an int pair."""
    la, lb = lam_value(model, k)
    return homotopy_value(model, k) + sign * (la * la - lb * lb), sign * 2 * la * lb


def anticommutator(block, degree: int, d_op, cod_op) -> list:
    """Cod_(p+1) D_p + D_(p-1) Cod_p on one block, as the exact Z[i] product
    [Cod_(p+1) | D_(p-1)] . [D_p ; Cod_p] of first-order block matrices
    (entries times scale^2)."""
    left = block.matrix(cod_op, degree + 1, degree) + block.matrix(d_op, degree - 1, degree)
    return zi_matmul(left, stacked(block, degree, d_op, cod_op))


def _scalar_matrix(size: int, value) -> list:
    """value times the size x size identity, as a Z[i] column matrix."""
    return [{c: value} if value != (0, 0) else {} for c in range(size)]


def point_set_dd_failure(model):
    """The lowest degree where D.D != 0 on a mode block of `quadratic_points`,
    D the model's differential; None if there is none."""
    failed = []
    for k in quadratic_points(model.charts["F"].nvars):
        block = mode_block(model, k)
        mats = [block.matrix(model.op, d, d + 1) for d in model.degrees[:-1]]
        failed += [d for d, low, high in zip(model.degrees, mats, mats[1:])
                   if any(zi_matmul(high, low))]
    return min(failed, default=None)


def point_set_certify(model, d_op, h_op, value, degrees):
    """The lowest of `degrees` where D H + H D != value(k) I on a mode block
    of `quadratic_points`, D and H the operators with symbol blocks `d_op`
    and `h_op` and value(k) an int pair times scale^2; None if there is
    none.  Both sides are polynomials of degree <= 2 in k when every block
    entry is affine in k, so the identity then holds on every mode."""
    points = {k: mode_block(model, k) for k in quadratic_points(model.charts["F"].nvars)}
    for d in degrees:
        for k, block in points.items():
            if anticommutator(block, d, d_op, h_op) != \
                    _scalar_matrix(len(block.tags(d)), value(k)):
                return d
    return None


# -- Laplacian kernels by elimination on every block --------------------------


def _block_kernel(mat, glob) -> list:
    """`zi_kernel` of a block matrix on the global columns `glob`, as (first
    global column of the vector's group, vector)."""
    return [(glob[first], {glob[c]: v for c, v in vec.items()})
            for first, vectors in zi_kernel(mat) for vec in vectors]


def all_blocks_harmonic(band: SymbolicBand, degree: int, max_freq: int) -> HarmonicKernel:
    """`harmonic_kernel` with no certificate: on every block of the band the
    pair Laplacian is multiplied out from the first-order block matrices and
    its kernel taken, the joint kernel is taken on [pair_d ; pair_codiff],
    and the witness is the first Laplacian kernel vector that grows the rank
    of its block's joint kernel."""
    model = band.model
    basis = model.basis(degree)
    index = {tag: i for i, tag in enumerate(basis)}
    lap, joint = [], []
    for block in blocks(model):
        glob = [index[tag] for tag in block.tags(degree)]
        block_joint = _block_kernel(stacked(block, degree, model.op, _PAIR_CODIFF), glob)
        joint += block_joint
        span = [vec for _, vec in block_joint]
        mat = anticommutator(block, degree, model.op, _PAIR_CODIFF)
        lap += [(first, vec, span) for first, vec in _block_kernel(mat, glob)]
    lap.sort(key=lambda entry: entry[0])
    joint.sort(key=lambda entry: entry[0])
    witness = None
    if len(lap) != len(joint):
        witness = next((render_vector(band, degree, basis, vec) for _, vec, span in lap
                        if RationalMatrix.from_columns(len(basis), span + [vec]).rank()
                        > len(span)), None)
    return HarmonicKernel(degree, max_freq, len(lap), len(joint), [vec for _, vec, _ in lap],
                          [vec for _, vec in joint], witness)


def all_blocks_kernel_dim(model, degree: int, d_op, cod_op) -> int:
    """The kernel dimension of the anticommutator of the operators with
    symbol blocks `d_op` and `cod_op`, summed over `zi_kernel` on every
    block of the model."""
    return sum(len(vectors) for block in blocks(model)
               for _, vectors in zi_kernel(anticommutator(block, degree, d_op, cod_op)))

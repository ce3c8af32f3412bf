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
`_symbol` writes the part of a column that does not depend on k down from
the index set, once per process for each chart, kind and degree
(`_stencil`), and no operator is applied symbolically here.  The symbolic
reference, and the same matrices evaluated mode by mode, live in the tests.

So every band matrix is block-diagonal.  A block is a mode dict
{side: [mode]}: one mode k on every side, over a torus map a target mode k
with its source mode A^T k, or one side's mode alone.  The basis is laid out
by sides in model order, then modes, then index sets.  `_Model.starts`
counts it in closed form, from each side's mode count and each degree's
index-set widths, and `harmonic_kernel` places a mode's columns by its rank
in the band's cube; nothing lists the band to count or place it.  Only
`_Model.basis` lists tags, for a block or, when a `BandComplex.basis`
sequence is read, for a whole degree.  A point set, each of its sides'
modes at k = 0, e_1, ..., e_n, is named by the tuple of its sides and made
by `_Model.points`, and `_parts` writes an operator's block on it once for
every mode and field, a Z[i] column matrix (see `linalg`) of linear forms
(`_forms`) in 1, k_1, ..., k_n, Lambda for lambda and W_j for w_j; at
Lambda = lambda(k) scale and W_j = w_j scale it is the band matrix times
the model's one denominator `scale` (`_at`).

`_certify` checks D H + H D = q I with one product of such matrices per
degree, [D ; H] read as its two row blocks (`_row_blocks`) and never
stacked, whose entries are quadratic forms, against q's coefficients,
written straight down (`_closed`): a polynomial identity in (k, Lambda, W),
so it holds on every mode of every band and for every field.  Every band
model declares a contracting homotopy H (the codifferential, or dbar*, on
each slot; the Koszul complex's) with q = |k|^2, certified on both slots at
once or, over a torus map, on each side alone (`_Model.certificate`).  With
d.d = 0 checked the same way, and the differential checked to have no
constant term (it vanishes on the block of every side at mode 0), no block
is eliminated: that block's columns are the cohomology, and every other
rank is filled from column counts.  The pair, corrected pair and
Lichnerowicz Laplacians, certified against |k|^2 + Lambda^2,
|k|^2 - Lambda^2 and |k|^2 + sum W_j^2, are zero on the modes where q, with
the field's numbers put in, vanishes and invertible on the others, so their
kernels are read off those modes, where only the joint kernel of the linear
[pair_d ; pair_codiff] is taken, once per line through 0 (`_ray`).  No
global matrix is built.

No verdict depends on a field value.  Each is kept once it holds, in a
bounded process-wide memo (`_Memo`, `_CERTIFIED`), and so are the formal
matrices (`_PARTS`); every key starts with `_Model.key`, all that point sets
and symbol blocks depend on and never a field value or the band, and each
model counts its band per degree once (`_Model.size`).  A warm call, on a
chart, map and degree already certified, makes no point set, writes no
matrix and takes no product of linear forms: it checks its inputs, a
builder fills its ranks with their exactness checks, and `harmonic_kernel`
evaluates [pair_d ; pair_codiff]'s row blocks and takes one `zi_kernel` per
resonant line and renders its witness.

Operators that mix frequencies (a pair differential twisted by a non-closed
1-form) escape every finite band; such scenarios are rejected rather than
approximated.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from math import comb as _math_comb

from .charts import Chart, ChartKind, ChartMismatchError, bidegree_index_sets
from .exterior import Form, VectorField, _pulled_coframe, ext_d, require_parallel_one_form
from .linalg import zi_kernel
from .pair import pair_d  # noqa: F401  unused; perfbench/selftest.py checks its tracer binding
from .rationals import ONE
from .scalar import ChartMap, wave


class _cached(cached_property):
    """`cached_property` without the lock it takes on every first read
    before Python 3.12, a cost paid on each of the models a band call
    builds; none is shared between threads."""

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.attrname] = self.func(obj)
        return value


def _binom(n: int, k: int) -> int:
    return _math_comb(n, k) if 0 <= k <= n else 0


class UnsupportedScenarioError(Exception):
    """The requested computation cannot be carried out exactly on a band."""


def _require_natural(name: str, value) -> None:
    """Refuse a band, degree or p `value` that is not a non-negative int; a
    float, a string or a bool (as `ChartMap` refuses them) would run another
    scenario or fail deep inside it."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")


def _cube(nvars: int, max_freq: int):
    """The modes |k_i| <= max_freq in sorted order, streamed, not listed."""
    return itertools.product(range(-max_freq, max_freq + 1), repeat=nvars)


def _rank(k, max_freq: int) -> int:
    """The position of the mode k in the sorted `_cube`: the mixed-radix
    number sum_i (k_i + N) (2N + 1)^(n - 1 - i), N = max_freq."""
    out = 0
    for v in k:
        out = out * (2 * max_freq + 1) + v + max_freq
    return out


@lru_cache(maxsize=None)
def _sets(chart: Chart, p, q: int) -> tuple:
    """The slot-index tuples of the forms of degree q on `chart`, of
    bidegree (p, q) when p is not None; listed once per process."""
    if p is not None:
        return tuple(bidegree_index_sets(chart, p, q))
    return tuple(itertools.combinations(range(chart.nslots), q)) if q >= 0 else ()


def _constant_coeffs(x: VectorField, chart: Chart) -> tuple:
    """Frame coefficients of a constant field on `chart`; any other field
    mixes modes."""
    if x.chart != chart:
        raise ChartMismatchError(f"the vector field lives on {x.chart}, not {chart}")
    if not x.is_constant():
        raise UnsupportedScenarioError(
            "band scenarios require constant vector fields (modes must not mix)")
    return tuple(c.constant_value() for c in x.components)


def _closed_one_form(eta: Form, chart: Chart, name: str) -> None:
    """Refuse a twisting form that is not a closed 1-form on `chart`; the
    twisted `name` differential of any other mixes frequencies."""
    if eta.chart != chart:
        raise ChartMismatchError(f"the twisting form lives on {eta.chart}, not {chart}")
    if eta.degree != 1:
        raise ValueError("twisting form must be a 1-form")
    if not ext_d(eta).is_zero:
        raise UnsupportedScenarioError(
            f"the twisted {name} differential mixes frequencies unless the "
            "1-form is closed; refusing to report approximate dimensions")


# -- per-mode symbols ----------------------------------------------------------

# An operator is a tuple of symbol blocks (source side, target side, sign,
# kind).  Side "F" holds the degree-p part of a basis element, side "S" the
# degree-(p-1) part; each block reads like the operator's formula.  Entries
# that two symbol blocks of one operator write to are added.
_DE_RHAM_D = (("F", "F", 1, "d"),)
_WEDGE, _CODIFF, _INTERIOR = ((("F", "F", 1, kind),)
                               for kind in ("wedge", "codiff", "interior"))
_TWISTED_D = _DE_RHAM_D + _WEDGE                 # d + w^
_TWISTED_CODIFF = _CODIFF + _INTERIOR            # delta + i_(w#)
_PAIR_D = (("F", "F", 1, "d"), ("F", "S", 1, "lie"), ("S", "S", -1, "d"))
_UNCOUPLED_D = (("F", "F", 1, "d"), ("S", "S", -1, "d"))   # closed twisting form
_REL_D = (("F", "F", 1, "d"), ("F", "S", 1, "pullback"), ("S", "S", -1, "d"))
_DBAR_PAIR = (("F", "F", 1, "dbar"), ("F", "S", 1, "lie"), ("S", "S", -1, "dbar"))
# pair_codiff (delta phi + L_U psi, -delta psi) and its sign-corrected adjoint
_PAIR_CODIFF = (("F", "F", 1, "codiff"), ("S", "F", 1, "lie"), ("S", "S", -1, "codiff"))
_PAIR_CODIFF_SKEW = (("F", "F", 1, "codiff"), ("S", "F", -1, "lie"),
                     ("S", "S", -1, "codiff"))
# contracting homotopies diag(delta, -delta) of the pair complexes and
# diag(dbar*, -dbar*) of the Dolbeault pair complex
_PAIR_HOMOTOPY = (("F", "F", 1, "codiff"), ("S", "S", -1, "codiff"))
_DBAR_HOMOTOPY = (("F", "F", 1, "dbar*"), ("S", "S", -1, "dbar*"))


@lru_cache(maxsize=None)
def _sigma_forms(chart: Chart, conjugate=False) -> list:
    """sigma_j(k), doubled on a complex torus and conjugated for dbar*,
    where wave(k).wirtinger(j) = sigma_j(k) * wave(k), as linear forms
    {i: (re, im)} in (1, k_1, ..., k_n) over the slots j: i k_j on a real
    torus; i k_x + k_y on a dz slot and i k_x - k_y on a dzb slot of a
    complex torus, (x, y) the slot's pair of axes; listed once per process."""
    im = -1 if conjugate else 1
    if not chart.is_complex:
        return [{j + 1: (0, im)} for j in range(chart.nslots)]
    n = chart.dim
    return [{j % n + 1: (0, im), n + j % n + 1: (-1 if j >= n else 1, 0)}
            for j in range(chart.nslots)]


def _composed(form: dict, columns) -> dict:
    """The linear form f(M k) in (1, k_1, ..., k_n), zero coefficients left
    out, of a linear form f in (1, m_1, ..., m_r), M the integer matrix
    whose columns M e_i are `columns`."""
    out = {0: form[0]} if 0 in form else {}
    for i, column in enumerate(columns, 1):
        re = sum(a * column[t - 1] for t, (a, _) in form.items() if t)
        im = sum(b * column[t - 1] for t, (_, b) in form.items() if t)
        if re or im:
            out[i] = re, im
    return out


# the form degree a symbol block of each kind adds to its source's
_STEP = {"d": 1, "dbar": 1, "wedge": 1, "codiff": -1, "dbar*": -1, "interior": -1, "lie": 0,
         "pullback": 0}


def _symbol(chart: Chart, kind: str, idx) -> list:
    """The symbol of a block of `kind`, sign 1, at the basis forms
    e(k) dx^idx on `chart`, for every mode k at once: the terms (J, s, j)
    with which the block sends e(k) dx^I to the sum of s * c_j(k) e(k) dx^J
    (j is 0 where there is one c only):
      d        J = I + j over the slots j not in I, c_j = sigma_j(k), s the
               sign of moving dx_j to its place in dx^I;
      dbar     the same over the antiholomorphic slots j only;
      wedge    the same with c_j = w_j (w^, w = sum w_j dx_j);
      codiff   J = I - i_r, s = (-1)^(r+1), c = sigma_(i_r)(k) and j = i_r
               (real torus);
      dbar*    J = I - i_r over the antiholomorphic slots i_r only,
               s = (-1)^r, c = conj(sigma_(i_r)(k)) and j = i_r;
      interior J = I - i_r, s = (-1)^r, c = w_(i_r) (i_(w#), real torus);
      lie      J = I, s = 1, c = lambda(k).
    X or w has a model's constant frame coefficients.  The pullback
    L_X f^*, the one kind a chart does not fix, sends e(k) dx^I to
    e(A^T k) sum_J minor(A; I, J) lambda(A^T k) dx^J over the source index
    sets J, A the map's matrix; its terms are the model's
    (`_Model.minors`), read off the pulled-back coframes
    f^*(dx^I) = sum_J minor(A; I, J) dx^J that the map keeps
    (`exterior._pulled_coframe`), and A^T k is the map's `ChartMap.pull`.

    Every c(k) above is linear in k (sigma_j, lambda) or constant (w_j, the
    minors), so a one-mode block matrix is linear in (1, k, Lambda, W) on a
    basis that does not depend on k (`_forms`): a model may declare a
    `homotopy`, and a Laplacian may be certified, only if every symbol kind
    of its operators is affine in k.
    """
    if kind == "lie":
        return [(idx, 1, 0)]
    if kind in ("codiff", "dbar*", "interior"):
        first = chart.dim if kind == "dbar*" else 0
        return [(idx[:r] + idx[r + 1:], 1 if (r % 2) == (kind == "codiff") else -1, j)
                for r, j in enumerate(idx) if j >= first]
    terms = []
    for j in range(chart.dim if kind == "dbar" else 0, chart.nslots):
        pos = bisect_left(idx, j)
        if not (pos < len(idx) and idx[pos] == j):
            terms.append((idx[:pos] + (j,) + idx[pos:], -1 if pos % 2 else 1, j))
    return terms


@lru_cache(maxsize=None)
def _stencil(chart: Chart, p, kind: str, q: int) -> tuple:
    """`_symbol` of `kind` at every index set of `_sets(chart, p, q)`, each
    J replaced by its position in the target's index sets (None if it has
    none); derived once per process for each chart, p, kind and degree."""
    at = {J: i for i, J in enumerate(_sets(chart, p, q + _STEP[kind]))}
    return tuple(tuple((at.get(J), s, j) for J, s, j in _symbol(chart, kind, idx))
                 for idx in _sets(chart, p, q))


@dataclass
class BandComplex:
    """Exact dimensions of a band complex on an ordered monomial basis;
    `basis` maps each degree to its tags (`_Tags`), whose len() is the
    degree's closed-form size."""

    label: str
    degrees: tuple
    basis: dict = field(default_factory=dict)
    ranks: dict = field(default_factory=dict)
    dims: dict = field(default_factory=dict)

    def dim_vector(self) -> list:
        return [self.dims[d] for d in self.degrees]


class _Tags(Sequence):
    """The basis tags of one degree of a model, as `tuple(model.basis(degree))`:
    its len() is the closed-form `size`, and the tags are listed only when
    they are iterated, indexed, compared or printed."""

    def __init__(self, model: "_Model", degree: int):
        self._model, self._degree = model, degree

    @_cached
    def _tags(self) -> tuple:
        return tuple(self._model.basis(self._degree))

    def __len__(self) -> int:
        return self._model.size(self._degree)

    def __getitem__(self, i):
        return self._tags[i]

    def __iter__(self):
        return iter(self._tags)

    def __eq__(self, other) -> bool:
        return self._tags == (other._tags if isinstance(other, _Tags) else other)

    def __hash__(self) -> int:
        return hash(self._tags)

    def __repr__(self) -> str:
        return repr(self._tags)


_SHIFT = {"F": 0, "S": 1}


@lru_cache(maxsize=None)
def _widths(charts: tuple, p, degrees: tuple) -> dict:
    """degree -> {side: number of its index sets} over `degrees`, for the
    (side, chart) pairs `charts`; no side has an index set in any other
    degree of a model.  Built once per process for each layout."""
    return {d: {side: len(_sets(chart, p, d - _SHIFT[side])) for side, chart in charts}
            for d in degrees}


@lru_cache(maxsize=None)
def _unit_modes(nvars: int) -> tuple:
    """The modes 0, e_1, ..., e_n."""
    return tuple(tuple(int(i == j) for j in range(nvars)) for i in range(-1, nvars))


def _value(coefficients: dict, k) -> tuple:
    """q(k), as an int pair, for the quadratic q with `coefficients`."""
    k, re, im = (1,) + tuple(k), 0, 0
    for (i, j), (a, b) in coefficients.items():
        re, im = re + a * k[i] * k[j], im + b * k[i] * k[j]
    return re, im


def _forms(model: "_Model", modes: dict, side, dst_side, kind: str) -> tuple:
    """(inside, forms, k'(0)) of a symbol block of `kind` from `side` to
    `dst_side` on the point set `modes`: whether its target mode k' is the
    mode of `dst_side` at every point, its c_j (`_symbol`) as formal linear
    forms, Lambda (index n + 1) for lambda, W_j (n + 2 + j) for w_j and
    sigma_j (unit 1) composed with M, the side's mode M k (A^T on a map's
    source side), and k' at 0."""
    ks = modes[side]
    n = len(ks) - 1
    targets = tuple(map(model.pull, ks)) if kind == "pullback" else ks
    inside = modes.get(dst_side) == targets
    if kind in ("lie", "pullback"):
        return inside, [{n + 1: (1, 0)}], targets[0]
    if kind in ("wedge", "interior"):
        return inside, [{n + 2 + j: (1, 0)} for j in range(model.charts[side].nslots)], targets[0]
    forms = _sigma_forms(model.charts[side], kind == "dbar*")
    if ks != _unit_modes(n):
        forms = [_composed(form, ks[1:]) for form in forms]
    return inside, forms, targets[0]


# the most entries a `_Memo` holds; a torus map's rows are in its keys
_MEMO_LIMIT = 512


class _Memo(dict):
    """A process-wide memo, emptied when full before it takes one more."""

    def __setitem__(self, key, value):
        if len(self) >= _MEMO_LIMIT:
            self.clear()
        super().__setitem__(key, value)


# (model.key, sides, op, src, dst) -> `_parts`; no key or entry of any memo
# holds a field value
_PARTS = _Memo()
# the keys of the certificates that hold (`certified_ranks`, `_resonant`)
_CERTIFIED = _Memo()


def _parts(model: "_Model", sides: tuple, op, src: int, dst: int) -> list:
    """The matrix of `op` from degree `src` to `dst` for every mode and field
    on the point set of `sides`: formal linear forms, each symbol block's
    `_forms` at the rows of its `stencil`, two blocks' entries added.  Built,
    with its point set (`_Model.points`), once per `model.key`, sides and
    (op, src, dst) while `_PARTS` holds it."""
    key = model.key, sides, op, src, dst
    cols = _PARTS.get(key)
    if cols is None:
        modes, cols = model.points(sides), []
        # the first row of each side in the block at k = 0
        starts = model.starts(dst, {side: ks[:1] for side, ks in modes.items()})
        for side in sides:
            q = src - _SHIFT[side]
            # per symbol block: its first row, sign, `_forms` and stencil
            blocks = [(starts.get(dst_side), sign, *_forms(model, modes, side, dst_side, kind),
                       model.stencil(side, kind, q))
                      for from_side, dst_side, sign, kind in op if from_side == side]
            for c in range(model.widths(src)[side]):
                flat = {}         # (row, i) -> coefficient of variable i
                for start, sign, inside, forms, row_k, stencil in blocks:
                    for pos, s, j in stencil[c]:
                        if start is None or pos is None or not inside:
                            raise UnsupportedScenarioError(
                                f"band-closure violation: mode {row_k} leaves the band")
                        s *= sign
                        for i, (a, b) in forms[j].items():
                            x, y = flat.get((start + pos, i), (0, 0))
                            flat[start + pos, i] = x + s * a, y + s * b
                col = {}
                for (r, i), v in flat.items():
                    if v != (0, 0):
                        col.setdefault(r, {})[i] = v
                cols.append(col)
        _PARTS[key] = cols
    return cols


def _row_blocks(model: "_Model", sides: tuple, degree: int, d_op, cod_op) -> tuple:
    """[D_p ; Cod_p] on the point set of `sides` as its row blocks
    (`_parts`, first row): D_p's from row 0 and Cod_p's from D_p's row
    count, the `widths` in degree p + 1 of those sides; the two are never
    stacked into one matrix."""
    return ((_parts(model, sides, d_op, degree, degree + 1), 0),
            (_parts(model, sides, cod_op, degree, degree - 1),
             sum(map(model.widths(degree + 1).get, sides))))


def _at(point, *blocks) -> list:
    """The Z[i] column matrix M(point) of a matrix M of `_parts` forms
    given as its row `blocks` (forms, first row), which share their
    columns, `point` giving each variable's value as an int pair (the
    first is 1)."""
    out = [{} for _ in blocks[0][0]]
    for parts, first in blocks:
        for column, col in zip(out, parts):
            for r, form in col.items():
                re = im = 0
                for i, (a, b) in form.items():
                    x, y = point[i]
                    re, im = re + a * x - b * y, im + a * y + b * x
                if re or im:
                    column[first + r] = re, im
    return out


def _homogeneous(parts: list, nvars: int) -> bool:
    """Whether the forms of `parts`, k having `nvars` entries, are in k and
    Lambda only: M(t k) = t M(k)."""
    return all(0 < i <= nvars + 1 for col in parts for form in col.values() for i in form)


def _product(left: list, right) -> list:
    """L R for two matrices of `_parts` forms, R given as its row blocks
    (forms, first row), which share their columns, the rows of R indexing
    the columns of `left`: per column {row: quadratic form}, keyed (a, b),
    a <= b, for variables a and b (0 is 1); cancelled coefficients are kept."""
    out = [{} for _ in right[0][0]]
    for parts, first in right:
        for acc, col in zip(out, parts):
            for mid, g in col.items():
                for r, f in left[first + mid].items():
                    entry = acc.setdefault(r, {})
                    for a, (fa, fb) in f.items():
                        for b, (ga, gb) in g.items():
                            key = (a, b) if a <= b else (b, a)
                            x, y = entry.get(key, (0, 0))
                            entry[key] = x + fa * ga - fb * gb, y + fa * gb + fb * ga
    return out


def _closed(nvars: int, unit=1, squares=()) -> dict:
    """The nonzero coefficients, keyed like `_product`'s entries, of
    q = unit^2 |k|^2 + the sum of s f^2 over (s, f) in `squares`: t(k) scale^2,
    the sum of |sigma_j(k)|^2 unit^2 over the slots a homotopy contracts (a
    real torus's, a complex torus's dzb), plus squares of linear forms f:
    Lambda or a W_j, or with the field's numbers `lam_form` or w_j scale."""
    out = {(i, i): (unit ** 2, 0) for i in range(1, nvars + 1)}
    for s, form in squares:
        for (a, (fa, fb)), (b, (ga, gb)) in itertools.product(form.items(), repeat=2):
            x, y = out.get((min(a, b), max(a, b)), (0, 0))
            out[min(a, b), max(a, b)] = x + s * (fa * ga - fb * gb), y + s * (fa * gb + fb * ga)
    return {key: c for key, c in out.items() if c != (0, 0)}


def _parts_hold(left: list, right, coefficients: dict) -> bool:
    """Whether L R = q I as polynomials, L and R given by their linear
    forms (`_parts`; R by its row blocks, as `_product` reads them) and q
    by its nonzero `coefficients` (`_closed`): the quadratic form of each
    diagonal entry of the one `_product` is `coefficients`, and that of
    every other entry vanishes."""
    for c, col in enumerate(_product(left, right)):
        diagonal = col.pop(c, {})
        if any(v != (0, 0) for entry in col.values() for v in entry.values()) or \
                {key: v for key, v in diagonal.items() if v != (0, 0)} != coefficients:
            return False
    return True


def _certify(model: "_Model", sides: tuple, d_op, h_op, coefficients: dict, degrees):
    """The lowest of `degrees` where D H + H D = [H | D] . [D ; H] is not
    q I (`_parts_hold`), D and H with symbol blocks `d_op` and `h_op`, q
    with formal `coefficients` (`_closed`), on the point set of `sides`;
    None if none.  One product of linear forms is taken per degree, [D ; H]
    read as its `_row_blocks`."""
    parts = partial(_parts, model, sides)
    return next((d for d in degrees if not _parts_hold(
        parts(h_op, d + 1, d) + parts(d_op, d - 1, d),
        _row_blocks(model, sides, d, d_op, h_op), coefficients)), None)


class _Model:
    """A band complex on one or two slots, as the data `_parts` reads.

    A basis tag (side, k, idx) is the form e(k) dx^idx on the chart
    `charts[side]`, with k in `modes[side]`: side "F" in the complex's
    degree p, side "S" in degree p-1.  The band is held as numbers, not as
    lists: `max_freq` and each side's mode `counts`, (2N+1)^n plus the side's
    `outside` modes (over a map, the source modes A^T k off the source
    cube).  `starts` counts the tags of a mode dict in closed form, from
    those counts and each degree's `widths`; `basis` lists them in layout
    order.  `modes` lists each side's modes on first read, which only
    `basis` of the whole band, the tests and the oracles do.

    One maker per complex (`_de_rham_model`, `_pair_model`,
    `_pair_eta_model`, `_relative_model`, `_primed_eta_model`,
    `_dolbeault_model`) checks its inputs and passes the `label`, the
    sides' `charts`, `op` (the differential as symbol blocks), its
    contracting `homotopy` and, when a block needs them, the constant frame
    coefficients `coeffs` of the field or 1-form, for bidegree (p, q) index
    sets `p`, and for a torus map `cmap` with the `target_side` its target
    lies on.  The rest follows from those: the mode `counts`, the `degrees`
    0..top+s, s the number of sides and top the largest slot count (the
    complex dimension under p), over a map its `pull`, and with a pullback
    block the source side's `outside` modes and the pullback's `minors`.
    Its `key`, p, the charts by side, the map's matrix and `target_side`,
    fixes every point set and symbol block, and starts every memo key.
    `certified_ranks` reads the ranks off the formal `_parts` of
    `certificate`'s point sets."""

    outside: dict = {}

    def __init__(self, label: str, charts: dict, max_freq: int, op, homotopy, coeffs=(),
                 p=None, cmap: ChartMap = None, target_side=None):
        _require_natural("max_freq", max_freq)
        self.label, self.charts, self.max_freq = label, charts, max_freq
        self.op, self.homotopy, self.coeffs, self.p = op, homotopy, coeffs, p
        self.target_side = target_side
        self.key = p, tuple(charts.items()), cmap.matrix if cmap else None, target_side
        self.counts, top = {}, 0
        for side, chart in charts.items():
            self.counts[side] = (2 * max_freq + 1) ** chart.nvars
            top = max(top, chart.nslots if p is None else chart.dim)
        self.degrees = tuple(range(top + 1 + len(charts)))
        if cmap is None:
            return
        self.pull = cmap.pull
        for _, source, _, kind in op:
            if kind == "pullback":
                # the source side holds its cube and A^T of the target cube:
                # the distinct A^T k off its cube
                self.outside = {source: cmap.off_cube(max_freq)}
                self.counts[source] += len(self.outside[source])
                # degree q -> per target index set I of degree q the terms
                # (position of J, det A[I, J], 0) over the source index sets J
                # of degree q with a nonzero minor, read off f*(dx^I) = sum_J
                # det A[I, J] dx^J: the pullback's `stencil`
                self.minors = {}
                for q in range(cmap.target.nslots + 1):
                    at = {J: i for i, J in enumerate(_sets(cmap.source, None, q))}
                    self.minors[q] = tuple(
                        tuple((at[J], s.constant_value().a, 0)
                              for J, s in _pulled_coframe(cmap, tgt).components)
                        for tgt in _sets(cmap.target, None, q))

    @_cached
    def modes(self) -> dict:
        """Each side's band modes in sorted order, its cube with its
        `outside` modes, listed on first read."""
        return {side: sorted([*_cube(chart.nvars, self.max_freq), *self.outside.get(side, ())])
                for side, chart in self.charts.items()}

    @_cached
    def _width_table(self) -> dict:
        """The `_widths` table of this model's layout."""
        return _widths(tuple(self.charts.items()), self.p, self.degrees)

    def widths(self, degree) -> dict:
        """Each side's number of index sets in this degree, its columns per
        mode; read from a table built once per process (`_widths`)."""
        return self._width_table.get(degree) or dict.fromkeys(self.charts, 0)

    def stencil(self, side, kind: str, q: int) -> tuple:
        """Per index set of `side` in form degree q, the terms (row, s, j) of
        a symbol block of `kind` leaving it: the chart's `_stencil`, or a
        pullback's `minors`."""
        if kind == "pullback":
            return self.minors.get(q, ())
        return _stencil(self.charts[side], self.p, kind, q)

    def basis(self, degree, modes=None) -> list:
        """The basis tags of this degree whose modes are in `modes`, a dict
        {side: [mode]} (the whole band by default), in layout order: sides
        in model order, then modes, then index sets."""
        modes = self.modes if modes is None else modes
        return [(side, k, idx) for side, chart in self.charts.items() if side in modes
                for sets in [_sets(chart, self.p, degree - _SHIFT[side])]
                for k in modes[side] for idx in sets]

    def starts(self, degree, modes=None) -> dict:
        """The position of each side's first tag in `basis(degree, modes)`,
        and under None the number of its tags: closed-form, the mode counts
        (`counts`, or those of `modes`) times the `widths`, nothing listed."""
        counts = self.counts if modes is None else {side: len(m) for side, m in modes.items()}
        out, at = {}, 0
        for side, width in self.widths(degree).items():
            if side in counts:
                out[side] = at
                at += counts[side] * width
        out[None] = at
        return out

    @_cached
    def _sizes(self) -> dict:
        """degree -> the number of tags of the whole band, counted once per model."""
        return {d: sum(self.counts[side] * width for side, width in widths.items())
                for d, widths in self._width_table.items()}

    def size(self, degree, modes=None) -> int:
        """The number of tags in `basis(degree, modes)`; the whole band's is
        read from `_sizes` (0 in a degree with no index sets)."""
        return self._sizes.get(degree, 0) if modes is None else self.starts(degree, modes)[None]

    @_cached
    def unit(self) -> int:
        """The lcm of the denominators of `coeffs`, so unit * coeffs is in Z[i]."""
        return math.lcm(*(x.d for x in self.coeffs))

    @_cached
    def scale(self) -> int:
        """The one denominator of the model: block entries are the band
        matrices' entries times `scale`, which is `unit`, doubled on a
        complex torus for the 1/2 of sigma_j."""
        return self.unit * (2 if self.charts["F"].is_complex else 1)

    @_cached
    def scaled_coeffs(self) -> tuple:
        """`coeffs` times `scale`, as Z[i] int pairs."""
        return tuple((x.a * (self.scale // x.d), x.b * (self.scale // x.d))
                     for x in self.coeffs)

    @_cached
    def lam_form(self) -> dict:
        """What Lambda stands for, lambda(k) scale as a linear form in Z[i],
        where L_X e(k) = lambda(k) e(k) for the constant field X with frame
        coefficients `coeffs`: the sum of unit X_j times the doubled sigma_j
        (`_sigma_forms`), X on the chart of side "S" of every Lie symbol."""
        out = {}
        for x, sigma in zip(self.coeffs, _sigma_forms(self.charts["S"])):
            a, b = x.a * self.unit // x.d, x.b * self.unit // x.d
            for i, (s, t) in sigma.items():
                re, im = out.get(i, (0, 0))
                out[i] = re + a * s - b * t, im + a * t + b * s
        return {i: c for i, c in sorted(out.items()) if c != (0, 0)}

    def points(self, sides: tuple) -> dict:
        """The point set named by `sides`: {side: its modes at k = 0, e_1,
        ..., e_n}, `_unit_modes` on each side, but over a map with both
        sides the target's with their source modes A^T k."""
        target = self.target_side
        if target is None or len(sides) == 1:
            return {side: _unit_modes(self.charts[side].nvars) for side in sides}
        units = _unit_modes(self.charts[target].nvars)
        return {side: units if side == target else tuple(map(self.pull, units))
                for side in sides}

    def certificate(self) -> tuple:
        """The point sets of `certified_ranks`, each named by its sides
        (`points`): those D.D = 0 is checked on, the first led by the zero
        block, and (sides, D, side) per piece with D H + H D = t(k) I, t the
        side's (`_closed`); without a map every side's unit modes serve both.

        Over an integer-linear torus map A, its target on `target_side`, `op`
        is diag(d, -d) plus at most a cross block from the target side to the
        source side, lambda(A^T k) times a minor of A at the target mode k
        (L_X f^*; none in the primed complex), so the mapping cone of that
        cross map.  A cone of acyclic complexes is acyclic (Weibel, An
        Introduction to Homological Algebra, 1.5), so each side's homotopy is
        certified alone, and the zero block Z, where D vanishes, holds all the
        cohomology.  That is exact: the cross symbol is 0 where A^T k = 0, so Z
        splits off as a direct summand, and every other column lies in a cone
        of the two sides at nonzero modes or in a de Rham piece at a target
        mode k != 0 in ker A^T, both acyclic.  So D.D = 0 is checked on the
        blocks of a target mode k of `_unit_modes` with its source mode A^T k
        (affine in k; the first is Z) and on the source side's own blocks, and
        each side's diagonal part of `op` with its part of `homotopy` on the
        side's own blocks."""
        sides, target = tuple(self.charts), self.target_side
        if target is None:
            return [sides], [(sides, self.op, "F")]
        diagonal = tuple(block for block in self.op if block[0] == block[1])
        (source,) = set(sides) - {target}
        return [sides, (source,)], [((side,), diagonal, side) for side in sides]

    def certified_ranks(self) -> dict:
        """The ranks of the model for every band and field: D.D = 0
        (`_parts_hold`) and D H + H D = t(k) I (`_certify`) hold on
        `certificate`'s point sets, and D has no term of degree 0 in k and
        Lambda (a W_j is constant), so it is zero on the zero block Z, every
        side at mode 0; Z splits off with rank 0, and every other column lies
        in an acyclic summand, where r_q = c_q - r_(q-1), c_q the columns
        outside Z.  The checks run on the first use of (`key`, op, homotopy)
        (`_CERTIFIED`); the fill, on every call, must be exact: no r_q < 0,
        none past the top."""
        key = self.key, self.op, self.homotopy
        if key not in _CERTIFIED:
            checked, pieces = self.certificate()
            failed = []
            for sides in checked:
                parts = [_parts(self, sides, self.op, d, d + 1) for d in self.degrees[:-1]]
                failed += [d for d, low, high in zip(self.degrees, parts, parts[1:])
                           if not _parts_hold(high, ((low, 0),), {})]
            if failed:
                raise AssertionError(
                    f"differentials fail to compose to zero at degree {min(failed)}")
            # the first point set's modes k are the target's over a map
            nvars = self.charts[self.target_side or "F"].nvars
            if not all(_homogeneous(_parts(self, checked[0], self.op, d, d + 1), nvars)
                       for d in self.degrees[:-1]):
                raise AssertionError("differential does not vanish at mode 0")
            broken = [_certify(self, sides, d_op, self.homotopy,
                               _closed(self.charts[side].nvars), self.degrees[:-1])
                      for sides, d_op, side in pieces]
            broken = min((d for d in broken if d is not None), default=None)
            if broken is not None:
                raise AssertionError(
                    f"contracting homotopy disagrees with its closed form at degree {broken}")
            _CERTIFIED[key] = True
        ranks, rank = {}, 0
        for d in self.degrees:
            rank = ranks[d] = self.size(d) - sum(self.widths(d).values()) - rank
            if rank < 0 or (d == self.degrees[-1] and rank):
                raise AssertionError(f"band outside mode 0 is not acyclic at degree {d}")
        return ranks

    def assemble(self) -> BandComplex:
        ranks = self.certified_ranks()
        below = [0] + [ranks[d] for d in self.degrees[:-1]]
        dims = {d: self.size(d) - ranks[d] - r for d, r in zip(self.degrees, below)}
        if any(dim < 0 for dim in dims.values()):
            raise AssertionError("negative cohomology dimension")
        return BandComplex(self.label, tuple(self.degrees),
                           {d: _Tags(self, d) for d in self.degrees}, ranks, dims)


def _de_rham_model(chart: Chart, max_freq: int, w: Form = None) -> _Model:
    """The de Rham complex of a real torus; with a 1-form `w`, also the
    coefficients of w for the wedge and interior symbols."""
    if chart.kind is not ChartKind.TORUS:
        raise UnsupportedScenarioError("de Rham band model requires a real torus")
    coeffs = ()
    if w is not None:
        if w.chart != chart:
            raise ChartMismatchError(f"the 1-form lives on {w.chart}, not on {chart}")
        require_parallel_one_form(w)
        coeffs = tuple(w.component((j,)).constant_value() for j in range(chart.nslots))
    return _Model(f"de-rham/{chart}", {"F": chart}, max_freq, _DE_RHAM_D, _CODIFF, coeffs)


def _pair_model(chart: Chart, x: VectorField, max_freq: int) -> _Model:
    """Pair complex for the differential induced by a constant field."""
    if chart.kind is not ChartKind.TORUS:
        raise UnsupportedScenarioError("pair band model requires a real torus")
    return _Model(f"pair/{chart}", {"F": chart, "S": chart}, max_freq, _PAIR_D, _PAIR_HOMOTOPY,
                  _constant_coeffs(x, chart))


def _pair_eta_model(chart: Chart, eta: Form, max_freq: int) -> _Model:
    """Pair complex for the differential twisted by a closed 1-form; with
    d eta = 0 the differential is (d phi, -d psi)."""
    _closed_one_form(eta, chart, "pair")
    if chart.kind is not ChartKind.TORUS:
        raise UnsupportedScenarioError("pair band model requires a real torus")
    return _Model(f"pair-eta/{chart}", {"F": chart, "S": chart}, max_freq, _UNCOUPLED_D,
                  _PAIR_HOMOTOPY)


def _require_torus_map(cmap: ChartMap, name: str) -> None:
    """Refuse a map the `name` band model cannot follow mode by mode."""
    if cmap.matrix is None or cmap.source.kind is not ChartKind.TORUS:
        raise UnsupportedScenarioError(f"{name} band model requires a torus map")


def _relative_model(cmap: ChartMap, x: VectorField, max_freq: int) -> _Model:
    """Relative pair complex over an integer-linear torus map, its target
    on side "F"."""
    _require_torus_map(cmap, "relative")
    return _Model(f"relative/{cmap.source}->{cmap.target}", {"F": cmap.target, "S": cmap.source},
                  max_freq, _REL_D, _PAIR_HOMOTOPY, _constant_coeffs(x, cmap.source),
                  cmap=cmap, target_side="F")


def _primed_eta_model(cmap: ChartMap, eta: Form, max_freq: int) -> _Model:
    """Primed relative complex over a torus map, twisted by a closed 1-form.

    The first slot lives on the map's source, the second on its target; with a
    closed twisting form the differential decouples into (d, -d), the only
    case that stays inside a band."""
    _require_torus_map(cmap, "primed")
    _closed_one_form(eta, cmap.target, "relative")
    return _Model(f"primed/{cmap.source}->{cmap.target}", {"F": cmap.source, "S": cmap.target},
                  max_freq, _UNCOUPLED_D, _PAIR_HOMOTOPY, cmap=cmap, target_side="S")


def _dolbeault_model(chart: Chart, x: VectorField, p: int, max_freq: int) -> _Model:
    """Fixed-p pair complex for the dbar operator on a flat complex torus."""
    _require_natural("p", p)
    if chart.kind is not ChartKind.TORUS_COMPLEX:
        raise UnsupportedScenarioError("dbar band model requires a complex torus")
    coeffs = _constant_coeffs(x, chart)
    if not x.is_holomorphic():
        raise UnsupportedScenarioError("dbar band model requires a holomorphic field")
    return _Model(f"dolbeault/{chart}/p={p}", {"F": chart, "S": chart}, max_freq, _DBAR_PAIR,
                  _DBAR_HOMOTOPY, coeffs, p)


# -- public builders ---------------------------------------------------------


def de_rham_complex(chart: Chart, max_freq: int) -> BandComplex:
    return _de_rham_model(chart, max_freq).assemble()


def pair_complex(chart: Chart, x: VectorField, max_freq: int) -> BandComplex:
    return _pair_model(chart, x, max_freq).assemble()


def pair_eta_complex(chart: Chart, eta: Form, max_freq: int) -> BandComplex:
    return _pair_eta_model(chart, eta, max_freq).assemble()


def relative_complex(cmap: ChartMap, x: VectorField, max_freq: int) -> BandComplex:
    return _relative_model(cmap, x, max_freq).assemble()


def primed_eta_complex(cmap: ChartMap, eta: Form, max_freq: int) -> BandComplex:
    return _primed_eta_model(cmap, eta, max_freq).assemble()


def primed_predicted_dims(n_source: int, n_target: int) -> list:
    """Dims of the primed relative complex: C(n_src, p) + C(n_tgt, p-1)."""
    return relative_predicted_dims(n_source, n_target)


def dolbeault_complex(chart: Chart, x: VectorField, p: int, max_freq: int) -> BandComplex:
    return _dolbeault_model(chart, x, p, max_freq).assemble()


def pair_predicted_dims(n: int) -> list:
    """b_p + b_{p-1} for the n-torus, degrees 0..n+2."""
    return relative_predicted_dims(n, n)


def relative_predicted_dims(n_target: int, n_source: int) -> list:
    """C(n_tgt, p) + C(n_src, p-1) over p = 0..max(n_tgt, n_src)+2."""
    top = max(n_target, n_source)
    return [_binom(n_target, p) + _binom(n_source, p - 1) for p in range(top + 3)]


def dolbeault_predicted_dims(n: int, p: int) -> list:
    """C(n,p) * (C(n,q) + C(n,q-1)) over q = 0..n+2."""
    return [_binom(n, p) * dim for dim in relative_predicted_dims(n, n)]


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


@lru_cache(maxsize=16)
def _zeros(nvars: int, max_freq: int, unit: int, squares: tuple) -> tuple:
    """The band modes where `_closed(nvars, unit, squares)` vanishes, each
    square's linear form given as its items; a few closed forms and bands
    are kept, so kernels that alternate bands or fields scan each once."""
    closed = _closed(nvars, unit, [(s, dict(form)) for s, form in squares])
    return tuple(k for k in _cube(nvars, max_freq) if _value(closed, k) == (0, 0))


def _resonant(model: _Model, degree: int, d_op, cod_op, message: str, lam_sign=None,
              joint=False) -> tuple:
    """The band modes k of `model` where q(k) = 0 (`_zeros`, the field's
    numbers put in), once `_certify` has found Cod D + D Cod = q I at
    `degree` on every side's unit modes, q formal: |k|^2 + lam_sign
    Lambda^2 or, if lam_sign is None, |k|^2 + sum W_j^2
    (AssertionError(message) if not), and for a `joint` kernel both row
    blocks of [D ; Cod] `_homogeneous`.  That Laplacian is zero there and
    invertible elsewhere, where both kernels are empty.  The checks run on
    the first use of the verdict's key, `model.key` with the operators,
    closed form and degree."""
    n = model.charts["F"].nvars
    # (sign, formal f, f of the field's numbers) per square s f^2 of q
    if lam_sign is None:
        squares = [(1, {n + 2 + j: (1, 0)}, {0: w}) for j, w in enumerate(model.scaled_coeffs)]
    else:
        squares = [(lam_sign, {n + 1: (1, 0)}, model.lam_form)]
    key = model.key, d_op, cod_op, lam_sign, joint, degree
    if key not in _CERTIFIED:
        sides = tuple(model.charts)
        formal = _closed(n, 1, [(s, f) for s, f, _ in squares])
        if _certify(model, sides, d_op, cod_op, formal, (degree,)) is not None:
            raise AssertionError(message)
        if joint and not all(_homogeneous(parts, n) for parts, _ in
                             _row_blocks(model, sides, degree, d_op, cod_op)):
            raise AssertionError("[pair_d ; pair_codiff] is not homogeneous in the mode")
        _CERTIFIED[key] = True
    return _zeros(n, model.max_freq, model.unit,
                  tuple((s, tuple(g.items())) for s, _, g in squares))


def _ray(k) -> tuple:
    """The mode k != 0 over the gcd of its entries, first nonzero entry > 0."""
    g = math.gcd(*k)
    return tuple(v // (g if next(filter(None, k)) > 0 else -g) for v in k)


def harmonic_kernel(chart: Chart, u: VectorField, degree: int, max_freq: int) -> HarmonicKernel:
    """Compute ker of the pair Laplacian and ker pair_d  intersect  ker pair_codiff.

    The Laplacian is pair_codiff . pair_d + pair_d . pair_codiff, a product of
    the linear matrices (`_parts`) of the two first-order operators.  It is
    certified against its closed form (componentwise Laplacian plus the
    squared Lie derivative) on every mode at once, so its kernel is every basis
    column of the modes where the closed form vanishes (`_resonant`), and the
    joint kernel is taken on those modes only, on M = [pair_d ; pair_codiff],
    read as its two `_row_blocks` and certified `_homogeneous`: M(0) = 0,
    and `zi_kernel` (pivots set by nonzero entries, vectors 1 at a non-pivot
    column) is the same on a line through 0, so M is eliminated once per
    line, at its `_ray`.  Both kernels are in
    global basis order, each block's columns placed by its side's `starts`
    and its mode's `_rank`.  They agree exactly when no nonzero band mode k
    has |k|^2 = <k, U>^2; the verdict is part of the result, and the witness
    is the first Laplacian kernel column outside the joint kernel.

    A warm call, on a chart and degree already certified, reads the
    verdict and M's row blocks back from their memos.  It still checks its
    inputs, places the resonant modes' columns, runs one `zi_kernel` per
    resonant line of its own field and renders its witness.
    """
    _require_natural("degree", degree)
    model = _pair_model(chart, u, max_freq)
    modes = _resonant(model, degree, _PAIR_D, _PAIR_CODIFF,
                      "pair Laplacian composite disagrees with its closed form", 1, True)
    start, widths = model.starts(degree), model.widths(degree)
    lap, joint, live, rays = [], [], set(), {}
    for k in modes:
        # each side's columns of mode k follow its columns of the modes before k
        rank = _rank(k, max_freq)
        glob = [start[side] + rank * width + j
                for side, width in widths.items() for j in range(width)]
        lap += [(g, k, c) for c, g in enumerate(glob)]
        if any(k):
            rays.setdefault(_ray(k), []).append(glob)
        else:
            joint += [(g, {g: ONE}) for g in glob]   # M(0) = 0
    rows = _row_blocks(model, tuple(model.charts), degree, _PAIR_D, _PAIR_CODIFF) if rays else ()
    for ray, globs in rays.items():
        # at unit ray and Lambda = lambda(ray) scale, the forms are scale M(ray)
        lam = tuple(sum(c[t] * ray[i - 1] for i, c in model.lam_form.items()) for t in (0, 1))
        m = _at([(1, 0)] + [(model.unit * v, 0) for v in ray] + [lam], *rows)
        # (first column of the vector's group, vector) per kernel vector
        kernel = [(first, vec) for first, vectors in zi_kernel(m) for vec in vectors]
        for glob in globs:
            joint += [(glob[first], {glob[c]: v for c, v in vec.items()}) for first, vec in kernel]
            live.update(g for g, col in zip(glob, m) if col)
    lap.sort(key=lambda entry: entry[0])
    joint.sort(key=lambda entry: entry[0])
    witness = next((_render_vector(model, model.basis(degree, dict.fromkeys(model.charts, [k]))[c])
                    for g, k, c in lap if g in live), None)
    return HarmonicKernel(degree, max_freq, len(lap), len(joint), [{g: ONE} for g, *_ in lap],
                          [vec for _, vec in joint], witness)


def _render_vector(model: _Model, tag) -> str:
    """The pair form of the basis tag (side, k, idx), written down from it."""
    chart, (side, k, idx) = model.charts["F"], tag
    form = Form(chart, len(idx), ((tuple(idx), wave(chart, k) * ONE),))
    # the other component is zero, which prints as 0 (`PairForm.__str__`)
    return f"({form} | 0)" if side == "F" else f"(0 | {form})"


def corrected_laplacian_kernel_dim(chart: Chart, u: VectorField, degree: int,
                                   max_freq: int) -> int:
    """Kernel dimension of the pair Laplacian built from the sign-corrected
    adjoint pair_codiff_skew (closed form: Laplacian minus the squared Lie
    derivative); equals the cohomology dimension in each degree.  Certified
    like `harmonic_kernel`, and read off the `_resonant` modes."""
    _require_natural("degree", degree)
    model = _pair_model(chart, u, max_freq)
    return len(_resonant(model, degree, _PAIR_D, _PAIR_CODIFF_SKEW,
                         "corrected pair Laplacian disagrees with its closed form", -1)) \
        * sum(model.widths(degree).values())


def lichnerowicz_kernel_dim(chart: Chart, w: Form, degree: int, max_freq: int) -> int:
    """Kernel dimension of the twisted Laplacian C_w D_w + D_w C_w on the band
    of single forms, D_w = d + w^ and C_w = delta + i_(w#); `w` is checked
    first.  Its closed form is (|k|^2 + <w, w>) I with the bilinear <w, w> =
    sum_j w_j^2, certified like `harmonic_kernel` and read off the `_resonant`
    modes: empty for a real w != 0, and for w = i v those on |k| = |v|."""
    _require_natural("degree", degree)
    model = _de_rham_model(chart, max_freq, w)
    return len(_resonant(model, degree, _TWISTED_D, _TWISTED_CODIFF,
                         "Lichnerowicz Laplacian disagrees with its closed form")) \
        * sum(model.widths(degree).values())

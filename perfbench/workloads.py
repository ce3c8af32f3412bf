"""Seeded workloads over pairform's public API, each with exact expected outputs.

A workload is a fixed list of items; one pass runs every item once, in order.
The seed only chooses the inputs (fields, maps, twisting forms, identity-suite
seeds); the sizes are fixed, and the band inputs are drawn from families of
similar cost.  Different seeds still do somewhat different work: the random
expressions of the identity suites differ (``rationals.mul.calls`` of one
``identities`` pass is 228753 on seed 1 and 215772 on seed 2), and so do the
entries of the band matrices (``bands``: 428868 and 437034).  A spread taken
over seeds includes this variation of the inputs.

- ``identities``: identity fuzzing of all 15 laws on all five charts.  It
  drives rationals, scalar, exterior, pair, relative and dolbeault with
  multi-term coefficients and pullbacks, and never reaches linalg or
  cohomology: the bypass workload for linear-algebra and assembly changes.
- ``bands``: one cohomology call per item, on single-term scalars.  The band
  builders are nearly all band assembly (symbolic apply on single-mode basis
  forms, decompose, the d.d=0 check, Bareiss ranks).  The harmonic kernels
  (Laplacian, corrected Laplacian, Lichnerowicz) use second-order operators,
  ``pair_laplacian`` with its closed-form assertion and ``kernel_basis``
  instead of ``rank`` alone, with no d.d=0 check; resonant fields make the
  witness search run.

Every item calls the library through a module attribute at call time, so the
tracer's wrappers see the call.  Expected values come from closed forms:
the library's ``*_predicted_dims`` tables for the band builders and this
module's own mode counting for the harmonic kernels.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import partial
from math import comb
from typing import Any, Callable

import checkout

checkout.require_pairform()

from pairform import cohomology, suites  # noqa: E402
from pairform.charts import torus, torus_complex  # noqa: E402
from pairform.dolbeault import holomorphic_field  # noqa: E402
from pairform.exterior import coframe, constant_field, zero_form  # noqa: E402
from pairform.rationals import gq  # noqa: E402
from pairform.scalar import ChartMap, const  # noqa: E402


@dataclass
class Item:
    """One call into the library and the exact check of its output."""

    name: str
    call: Callable[[], Any]
    observe: Callable[[Any], Any]
    expected: Any
    work: Callable[[Any], int]


MATRIX_COLUMNS = "matrix-cols"


@dataclass
class Workload:
    name: str
    unit: str
    items: list


def _b(n: int, k: int) -> int:
    return comb(n, k) if 0 <= k <= n else 0


def _modes(n: int, max_freq: int):
    return itertools.product(range(-max_freq, max_freq + 1), repeat=n)


def _constant(value: int, _result) -> int:
    return value


# -- identities -----------------------------------------------------------------

IDENTITY_CHARTS = ("t2", "t3", "r2", "c2", "tc1")
IDENTITY_TRIALS = 40


def _identity_call(seed: int, key: str):
    return suites.identity_suite(seed, 1, [key])


def _verdicts(checks) -> tuple:
    return tuple(sorted({c.verdict for c in checks}))


def identities(seed: int) -> Workload:
    rng = random.Random(f"identities/{seed}")
    items = []
    for _ in range(IDENTITY_TRIALS):
        s = rng.getrandbits(32)
        for key in IDENTITY_CHARTS:
            items.append(Item(f"identity_suite({s}, 1, [{key!r}])",
                              partial(_identity_call, s, key), _verdicts, ("pass",), len))
    return Workload("identities", "law-trials", items)


# -- bands ----------------------------------------------------------------------


def _axes_values(rng, n: int, values) -> list:
    """A length-n integer vector with one seeded nonzero per entry of `values`."""
    out = [0] * n
    for axis, v in zip(rng.sample(range(n), len(values)), values):
        out[axis] = v * rng.choice((1, -1))
    return out


def _field(rng, chart, nonzero: int):
    vals = [rng.choice((1, 2)) for _ in range(nonzero)]
    return constant_field(chart, _axes_values(rng, chart.nslots, vals))


def _closed_one_form(rng, chart):
    coeffs = _axes_values(rng, chart.nslots, [rng.choice((1, 2)) for _ in range(2)])
    eta = zero_form(chart, 1)
    for j, c in enumerate(coeffs):
        if c:
            eta = eta + coframe(chart, j) * c
    return eta


def _gl2z(rng) -> tuple:
    """A shear of GL(2, Z); every member has the same relative-band size."""
    a = rng.choice((1, -1))
    rows = [[1, a], [0, 1]] if rng.random() < 0.5 else [[1, 0], [a, 1]]
    for r in range(2):
        if rng.random() < 0.5:
            rows[r] = [-v for v in rows[r]]
    return tuple(tuple(r) for r in rows)


def _dims(out) -> list:
    return out.dim_vector()


def _basis_cols(out) -> int:
    return sum(len(b) for b in out.basis.values())


def _call(fn: str, *args):
    """Look the builder up at call time, so that the tracer's wrapper runs."""
    return getattr(cohomology, fn)(*args)


def _band_item(name, fn, args, expected) -> Item:
    return Item(f"{fn}({name})", partial(_call, fn, *args), _dims, list(expected),
                _basis_cols)


def _builder_items(rng) -> list:
    t1, t2, t3, t4, tc2 = torus(1), torus(2), torus(3), torus(4), torus_complex(2)
    units = [gq(1), gq(-1), gq(0, 1), gq(0, -1)]
    holo = holomorphic_field(tc2, tuple(const(tc2, rng.choice(units)) for _ in range(2)))
    axis = rng.randrange(2)
    embed_rows = tuple((int(i == axis),) for i in range(2))
    axis = rng.randrange(2)
    project_rows = (tuple(int(j == axis) for j in range(2)),)
    items = [
        _band_item("T4, N=1", "pair_complex", (t4, _field(rng, t4, 2), 1),
                   cohomology.pair_predicted_dims(4)),
        _band_item("T3, N=2", "pair_complex", (t3, _field(rng, t3, 2), 2),
                   cohomology.pair_predicted_dims(3)),
        _band_item("TC2, p=1, N=1", "dolbeault_complex", (tc2, holo, 1, 1),
                   cohomology.dolbeault_predicted_dims(2, 1)),
        _band_item("GL(2,Z), N=3", "relative_complex",
                   (ChartMap(t2, t2, matrix=_gl2z(rng)), _field(rng, t2, 2), 3),
                   cohomology.relative_predicted_dims(2, 2)),
        _band_item("doubling T1, N=2", "relative_complex",
                   (ChartMap(t1, t1, matrix=((rng.choice((2, -2)),),)),
                    _field(rng, t1, 1), 2),
                   cohomology.relative_predicted_dims(1, 1)),
        _band_item("embed T1->T2, N=2", "relative_complex",
                   (ChartMap(t1, t2, matrix=embed_rows), _field(rng, t1, 1), 2),
                   cohomology.relative_predicted_dims(2, 1)),
        _band_item("project T2->T1, N=2", "relative_complex",
                   (ChartMap(t2, t1, matrix=project_rows), _field(rng, t2, 1), 2),
                   cohomology.relative_predicted_dims(1, 2)),
        _band_item("T3, closed eta, N=2", "pair_eta_complex",
                   (t3, _closed_one_form(rng, t3), 2), cohomology.pair_predicted_dims(3)),
        _band_item("GL(2,Z), closed eta, N=2", "primed_eta_complex",
                   (ChartMap(t2, t2, matrix=_gl2z(rng)), _closed_one_form(rng, t2), 2),
                   cohomology.primed_predicted_dims(2, 2)),
    ]
    return items


# -- harmonic -------------------------------------------------------------------


def resonant_modes(u, max_freq: int) -> int:
    """Band modes k with |k|^2 = <k, U>^2 (k = 0 included)."""
    return sum(1 for k in _modes(len(u), max_freq)
               if sum(a * a for a in k) == sum(a * b for a, b in zip(k, u)) ** 2)


def modes_of_norm(norm2: int, n: int, max_freq: int) -> int:
    return sum(1 for k in _modes(n, max_freq) if sum(a * a for a in k) == norm2)


def _kernel_dims(result) -> tuple:
    return result.dim_laplacian, result.dim_joint <= result.dim_laplacian


def _identity(value):
    return value


def _harmonic_items(rng) -> list:
    """Fields come in two fixed shapes per torus.  Resonant: one +-1 and one
    +-2 component, so every mode on the +-1 axis is resonant.  Quiet: two +-2
    components, which leave only k = 0 resonant in these bands."""
    items = []
    for n, max_freq in ((2, 2), (3, 1)):
        chart = torus(n)
        modes = (2 * max_freq + 1) ** n
        for u in (_axes_values(rng, n, (1, 2)), _axes_values(rng, n, (2, 2))):
            resonant = resonant_modes(u, max_freq)
            for p in range(n + 2):
                betti = _b(n, p) + _b(n, p - 1)
                items.append(Item(
                    f"harmonic_kernel(T{n}, U={tuple(u)}, p={p}, N={max_freq})",
                    partial(_call, "harmonic_kernel", chart, constant_field(chart, u), p,
                            max_freq),
                    _kernel_dims, (resonant * betti, True),
                    partial(_constant, 3 * modes * betti)))
    t2, modes = torus(2), 25
    u = _axes_values(rng, 2, (1, 2))
    for p in range(4):
        betti = _b(2, p) + _b(2, p - 1)
        items.append(Item(
            f"corrected_laplacian_kernel_dim(T2, U={tuple(u)}, p={p}, N=2)",
            partial(_call, "corrected_laplacian_kernel_dim", t2, constant_field(t2, u), p, 2),
            _identity, betti, partial(_constant, modes * betti)))
    # w = i v is parallel with <w, w> = -|v|^2, so the twisted Laplacian
    # vanishes exactly on the modes with |k|^2 = |v|^2
    v = _axes_values(rng, 2, (rng.choice((1, 2)), rng.choice((1, 2))))
    w = coframe(t2, 0) * gq(0, v[0]) + coframe(t2, 1) * gq(0, v[1])
    on_sphere = modes_of_norm(v[0] ** 2 + v[1] ** 2, 2, 2)
    for p in range(3):
        items.append(Item(
            f"lichnerowicz_kernel_dim(T2, w=i*{tuple(v)}, p={p}, N=2)",
            partial(_call, "lichnerowicz_kernel_dim", t2, w, p, 2), _identity,
            on_sphere * _b(2, p), partial(_constant, modes * _b(2, p))))
    return items


def bands(seed: int) -> Workload:
    """Band builders (work: basis columns over all degrees) and harmonic
    kernels (work: columns of every operator matrix they assemble)."""
    rng = random.Random(f"bands/{seed}")
    return Workload("bands", MATRIX_COLUMNS, _builder_items(rng) + _harmonic_items(rng))


WORKLOADS = {"identities": identities, "bands": bands}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)

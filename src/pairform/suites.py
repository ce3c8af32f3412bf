"""Check suites: seeded identity fuzzing, symplectic and harmonic scenarios,
and cohomology dimension tables with their predicted values.

Each suite returns plain Check/Table records; the command line wraps them in
a Report.  Two harmonic checks document known discrepancies in the theory
they exercise (see the module docstring of `pair`): they are emitted with
their raw verdicts and an explanatory witness rather than being skipped.

A randomized check stops at its first witness: `_search` runs a trial up to
a fixed count per chart and stops that chart at the first trial that returns
a witness, while the charts after it still run; the check reports the last
failing chart's witness through `_check`.  Band tables are built only by
`_table_from`, and `band_tables` turns a band the model refuses into an
`unsupported` check.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .charts import affine, affine_complex, torus, torus_complex
from .cohomology import (
    UnsupportedScenarioError,
    corrected_laplacian_kernel_dim,
    dolbeault_complex,
    dolbeault_predicted_dims,
    harmonic_kernel,
    lichnerowicz_kernel_dim,
    pair_complex,
    pair_eta_complex,
    pair_predicted_dims,
    primed_eta_complex,
    relative_complex,
    relative_predicted_dims,
)
from .dolbeault import dbar_pair, dbar_pair_rel, holomorphic_field
from .exterior import (
    Form,
    VectorField,
    bracket,
    codiff,
    coframe,
    constant_field,
    ext_d,
    hamiltonian_field,
    interior,
    laplacian,
    lichnerowicz_lap,
    lie,
    one_form_norm2,
    pushforward,
    scalar_form,
    sharp,
    wedge,
    zero_form,
)
from .pair import (
    PairForm,
    pair_codiff,
    pair_codiff_skew,
    pair_d,
    pair_d_lichnerowicz,
    pair_inner,
    pair_interior,
    pair_laplacian,
    pair_lie,
    pair_pullback,
    pair_wedge,
)
from .randgen import (
    random_automorphism,
    random_bigraded,
    random_commuting_fields,
    random_field,
    random_form,
    random_holomorphic_field,
    random_pair,
    random_pair_bigraded,
    random_scalar,
)
from .rationals import gq
from .relative import RelPairForm, rel_d, rel_d_lichnerowicz
from .report import FAIL, PASS, UNSUPPORTED, Check, Table, passed
from .scalar import ChartMap, const, coordinate, identity_map, sin_wave, wave
from .scalar import zero as scalar_zero

CHART_KEYS = {
    "r2": affine(2),
    "t2": torus(2),
    "t3": torus(3),
    "c2": affine_complex(2),
    "tc1": torus_complex(1),
}

REAL_CHARTS = ("t2", "t3", "r2")
COMPLEX_CHARTS = ("c2", "tc1")


def _search(trial, count, charts):
    """Run `trial(chart)` up to `count` times per chart and stop that chart at
    its first witness; the charts after a failing one still run, and the last
    failing chart's witness is returned (None when every trial passes)."""
    witness = None
    for chart in charts:
        for _ in range(count):
            found = trial(chart)
            if found is not None:
                witness = found
                break
    return witness


def _check(check_id, anchor, witness) -> Check:
    return Check(check_id, anchor, passed(witness is None), witness)


# -- identity suite -----------------------------------------------------------
# A law shared by several operators takes the operator as its first argument.
# The law tables pass it through a lambda, which reads this module's binding
# at each call, so an operator rebound here (as perfbench/tracer.py does to
# count calls) is the one every law runs.


def _law_squared(op, rng, chart):
    x = random_field(rng, chart)
    a = random_pair(rng, chart, rng.randint(0, min(chart.nslots, 3)))
    out = op(x, op(x, a))
    return None if out.is_zero else f"X={x}, a={a} -> {out}"


def _law_antiderivation(op, rng, chart):
    x = random_field(rng, chart)
    p = rng.randint(0, 2)
    a = random_pair(rng, chart, p)
    b = random_pair(rng, chart, rng.randint(0, 2))
    sign = -1 if p % 2 else 1
    lhs = op(x, pair_wedge(a, b))
    rhs = pair_wedge(op(x, a), b) + pair_wedge(a, op(x, b)) * sign
    return None if lhs == rhs else f"X={x}, a={a}, b={b}"


def _law_pair_lie_derivation(rng, chart):
    x = random_field(rng, chart)
    a = random_pair(rng, chart, rng.randint(0, 2))
    b = random_pair(rng, chart, rng.randint(0, 2))
    lhs = pair_lie(x, pair_wedge(a, b))
    rhs = pair_wedge(pair_lie(x, a), b) + pair_wedge(a, pair_lie(x, b))
    return None if lhs == rhs else f"X={x}, a={a}, b={b}"


def _law_lie_bracket(op, rng, chart):
    """[L_X, op_Y] = op_[X,Y]."""
    x, y = random_field(rng, chart), random_field(rng, chart)
    a = random_pair(rng, chart, rng.randint(0, 2))
    lhs = pair_lie(x, op(y, a)) - op(y, pair_lie(x, a))
    rhs = op(bracket(x, y), a)
    return None if lhs == rhs else f"X={x}, Y={y}, a={a}"


def _law_cartan_homotopy_self(rng, chart):
    x = random_field(rng, chart)
    a = random_pair(rng, chart, rng.randint(0, 2))
    da, lie_a = pair_d(x, a), pair_lie(x, a)
    homotopy = pair_d(x, pair_interior(x, a)) + pair_interior(x, da)
    if homotopy != lie_a:
        return f"X={x}, a={a}"
    comm = pair_lie(x, da) - pair_d(x, lie_a)
    return None if comm.is_zero else f"commutator: X={x}, a={a}"


def _law_cartan_homotopy_commuting(rng, chart):
    x, y = random_commuting_fields(rng, chart)
    a = random_pair(rng, chart, rng.randint(0, 2))
    da, lie_a = pair_d(x, a), pair_lie(y, a)
    homotopy = pair_d(x, pair_interior(y, a)) + pair_interior(y, da)
    if homotopy != lie_a:
        return f"X={x}, Y={y}, a={a}"
    comm = pair_lie(y, da) - pair_d(x, lie_a)
    return None if comm.is_zero else f"commutator: X={x}, Y={y}, a={a}"


def _law_pair_pullback_naturality(rng, chart):
    cmap = random_automorphism(rng, chart)
    x = random_field(rng, chart, constant=not chart.is_torus)
    fx = pushforward(cmap, x)
    a = random_pair(rng, chart, rng.randint(0, 2))
    pulled = pair_pullback(cmap, a)
    if pair_d(x, pulled) != pair_pullback(cmap, pair_d(fx, a)):
        return f"d-naturality: map={cmap.matrix or '[affine]'}, a={a}"
    if pair_pullback(cmap, pair_interior(fx, a)) != pair_interior(x, pulled):
        return f"contraction-naturality: a={a}"
    if pair_pullback(cmap, pair_lie(fx, a)) != pair_lie(x, pulled):
        return f"lie-naturality: a={a}"
    return None


def _law_pair_d_twisted_squared(rng, chart):
    eta = random_form(rng, chart, 1)
    a = random_pair(rng, chart, rng.randint(0, 3))
    out = pair_d_lichnerowicz(eta, pair_d_lichnerowicz(eta, a))
    return None if out.is_zero else f"eta={eta}, a={a}"


def _relative_map(rng, chart) -> ChartMap:
    # exact thresholds: no 53-bit draw of random() lies between 3/10 and the
    # float nearest to it, so each draw decides as against that float
    if rng.random() < Fraction(3, 10):
        if chart.is_torus:
            rows = [[2 if i == j == 0 else (1 if i == j else 0)
                     for j in range(chart.nvars)] for i in range(chart.nvars)]
            return ChartMap(chart, chart, matrix=tuple(tuple(r) for r in rows))
        comps = [coordinate(chart, 0).power(2)] + \
            [coordinate(chart, j) for j in range(1, chart.dim if chart.is_complex
                                                 else chart.nvars)]
        return ChartMap(chart, chart, components=tuple(comps))
    return random_automorphism(rng, chart)


def _law_rel_d_squared(rng, chart):
    cmap = _relative_map(rng, chart)
    x = random_field(rng, chart, constant=not chart.is_torus)
    p = rng.randint(0, 3)
    a = RelPairForm(cmap, random_form(rng, chart, p),
                    random_form(rng, chart, p - 1))
    out = rel_d(x, rel_d(x, a))
    return None if out.is_zero else f"map={cmap.matrix or '[affine]'}, a={a}"


def _law_rel_d_twisted_squared(rng, chart):
    cmap = _relative_map(rng, chart)
    eta = random_form(rng, chart, 1)
    p = rng.randint(0, 3)
    a = RelPairForm(cmap, random_form(rng, chart, p),
                    random_form(rng, chart, p - 1), primed=True)
    out = rel_d_lichnerowicz(eta, rel_d_lichnerowicz(eta, a))
    return None if out.is_zero else f"eta={eta}, a={a}"


def _law_dbar_pair_squared(rng, chart):
    x = random_holomorphic_field(rng, chart)
    n = chart.dim
    a = random_pair_bigraded(rng, chart, rng.randint(0, n), rng.randint(0, n))
    out = dbar_pair(x, dbar_pair(x, a))
    return None if out.is_zero else f"X={x}, a={a}"


def _law_dbar_pair_rel_squared(rng, chart):
    if chart.is_torus:
        n = chart.dim
        rows = [[0] * (2 * n) for _ in range(2 * n)]
        for j in range(n):  # multiplication by 1 + i
            rows[j][j], rows[j][n + j] = 1, -1
            rows[n + j][j], rows[n + j][n + j] = 1, 1
        cmap = ChartMap(chart, chart, matrix=tuple(tuple(r) for r in rows))
    else:
        comps = [coordinate(chart, 0).power(2)] + \
            [coordinate(chart, j) for j in range(1, chart.dim)]
        cmap = ChartMap(chart, chart, components=tuple(comps))
    if rng.random() < Fraction(1, 2):
        cmap = identity_map(chart)
    x = random_holomorphic_field(rng, chart)
    n = chart.dim
    p, q = rng.randint(0, n), rng.randint(0, n)
    a = RelPairForm(cmap, random_bigraded(rng, chart, p, q),
                    random_bigraded(rng, chart, p, q - 1))
    out = dbar_pair_rel(x, dbar_pair_rel(x, a))
    return None if out.is_zero else f"X={x}, a={a}"


_REAL_LAWS = [
    ("pair-d-squared", lambda rng, chart: _law_squared(pair_d, rng, chart)),
    ("pair-interior-squared", lambda rng, chart: _law_squared(pair_interior, rng, chart)),
    ("pair-d-antiderivation", lambda rng, chart: _law_antiderivation(pair_d, rng, chart)),
    ("pair-interior-antiderivation",
     lambda rng, chart: _law_antiderivation(pair_interior, rng, chart)),
    ("pair-lie-derivation", _law_pair_lie_derivation),
    ("pair-lie-bracket", lambda rng, chart: _law_lie_bracket(pair_lie, rng, chart)),
    ("pair-lie-interior-bracket",
     lambda rng, chart: _law_lie_bracket(pair_interior, rng, chart)),
    ("cartan-homotopy-self", _law_cartan_homotopy_self),
    ("cartan-homotopy-commuting", _law_cartan_homotopy_commuting),
    ("pair-pullback-naturality", _law_pair_pullback_naturality),
    ("pair-d-twisted-squared", _law_pair_d_twisted_squared),
    ("rel-d-squared", _law_rel_d_squared),
    ("rel-d-twisted-squared", _law_rel_d_twisted_squared),
]

_COMPLEX_LAWS = [
    ("dbar-pair-squared", _law_dbar_pair_squared),
    ("dbar-pair-rel-squared", _law_dbar_pair_rel_squared),
]


def identity_suite(seed: int, trials: int, chart_keys=None):
    """Run every algebraic identity `trials` times per chart."""
    checks = []
    selected = chart_keys or (REAL_CHARTS + COMPLEX_CHARTS)
    for key in selected:
        chart = CHART_KEYS[key]
        laws = _COMPLEX_LAWS if chart.is_complex else _REAL_LAWS
        for law_name, law in laws:
            rng = random.Random(f"{seed}/{law_name}/{key}")
            witness = _search(lambda c: law(rng, c), trials, (chart,))
            checks.append(_check(f"identity/{law_name}/{key}", law_name, witness))
    return checks


# -- symplectic suite ----------------------------------------------------------


def _symplectic_data(n: int):
    chart = affine(2 * n)
    omega = zero_form(chart, 2)
    theta = zero_form(chart, 1)
    for i in range(n):
        omega = omega + wedge(coframe(chart, i), coframe(chart, n + i))
        theta = theta + wedge(scalar_form(coordinate(chart, i)), coframe(chart, n + i))
    xi_comps = [coordinate(chart, i) for i in range(n)] + \
        [scalar_zero(chart) for _ in range(n)]
    xi = VectorField(chart, tuple(xi_comps))
    return chart, omega, theta, xi


def symplectic_suite(seed: int):
    checks = []
    rng = random.Random(seed)
    for n in (1, 2):
        chart, omega, theta, xi = _symplectic_data(n)
        tag = f"r{2 * n}"
        checks.append(Check(
            f"symplectic/liouville-contraction/{tag}", "liouville-contraction",
            passed(interior(xi, omega) == theta)))
        checks.append(Check(
            f"symplectic/liouville-lie/{tag}", "liouville-lie",
            passed(lie(xi, omega) == omega)))
        liouville_pair = PairForm(omega, theta)
        checks.append(Check(
            f"symplectic/liouville-pair-closed/{tag}", "liouville-pair-closed",
            passed(pair_d(xi, liouville_pair).is_zero)))

        witnesses = []
        x1, y1 = coordinate(chart, 0), coordinate(chart, n)
        for f in (x1 * y1, x1.power(2)):
            primitive = PairForm(theta + ext_d(scalar_form(f)),
                                 scalar_form(xi.apply(f)))
            image = pair_d(xi, primitive)
            if image != liouville_pair:
                witnesses.append(f"f={f}: image {image}")
        checks.append(_check(
            f"symplectic/liouville-class-vanishing/{tag}", "liouville-class-vanishing",
            "; ".join(witnesses) or None))

        def hamiltonian_pair_closed(chart):
            poly = random_scalar(rng, chart, max_terms=2, max_degree=2)
            ham = hamiltonian_field(omega, scalar_form(poly))
            closed_theta = ext_d(scalar_form(random_scalar(rng, chart))) + \
                random_form(rng, chart, 1, max_degree=0)
            out = pair_d(ham, PairForm(omega, closed_theta))
            return None if out.is_zero else f"f={poly}: {out}"
        checks.append(_check(
            f"symplectic/symplectic-pair-closed/{tag}", "symplectic-pair-closed",
            _search(hamiltonian_pair_closed, 20, (chart,))))

        f_form = scalar_form(x1)
        ham = hamiltonian_field(omega, f_form)
        h_prime = x1
        ok = ham.apply(h_prime).is_zero
        lhs = -pair_d(ham, PairForm(f_form, zero_form(chart, -1)))
        rhs = pair_interior(ham, PairForm(omega, ext_d(scalar_form(h_prime))))
        checks.append(Check(
            f"symplectic/hamilton-type-equation/{tag}", "hamilton-type-equation",
            passed(ok and lhs == rhs),
            None if ok else f"X h' = {ham.apply(h_prime)}"))

        solve_witness = None
        half = gq("1/2")
        for f in (x1, (x1.power(2) + y1.power(2)) * half, x1 * y1):
            ham = hamiltonian_field(omega, scalar_form(f))
            if interior(ham, omega) != -ext_d(scalar_form(f)):
                solve_witness = f"f={f}"
                break
        checks.append(_check(
            f"symplectic/hamiltonian-solve/{tag}", "hamiltonian-solve", solve_witness))
    return checks


# -- harmonic suite --------------------------------------------------------------


def _int_field(rng, chart) -> VectorField:
    comps = [rng.randint(-2, 2) for _ in range(chart.nslots)]
    if not any(comps):
        comps[0] = 1
    return constant_field(chart, comps)


def harmonic_suite(seed: int, trials: int, max_freq: int = 2):
    checks = []
    rng = random.Random(seed)
    t2, t3 = CHART_KEYS["t2"], CHART_KEYS["t3"]

    def closed_form(chart):
        u = _int_field(rng, chart)
        a = random_pair(rng, chart, rng.randint(0, chart.nslots + 1))
        composite = pair_codiff(u, pair_d(u, a)) + pair_d(u, pair_codiff(u, a))
        expected = PairForm(laplacian(a.first) + lie(u, lie(u, a.first)),
                            laplacian(a.second) + lie(u, lie(u, a.second)))
        return None if composite == expected else f"U={u}, a={a}"
    checks.append(_check("harmonic/pair-laplacian-closed-form", "pair-laplacian-closed-form",
                         _search(closed_form, trials // 2 + 1, (t2, t3))))

    unit_forms = [coframe(t2, 0),
                  coframe(t2, 0) * gq("3/5") + coframe(t2, 1) * gq("4/5")]
    for label, w in zip(("dx", "3/5dx+4/5dy"), unit_forms):
        u = sharp(w)
        anti_witness = commute_witness = None
        for _ in range(trials):
            a = random_form(rng, t2, rng.randint(0, 2))
            if lie(u, a) != -(codiff(wedge(w, a)) + wedge(w, codiff(a))):
                anti_witness = f"a={a}"
                break
            if codiff(lie(u, a)) != lie(u, codiff(a)):
                commute_witness = f"a={a}"
                break
        checks.append(_check(f"harmonic/killing-anticommutator/{label}",
                             "killing-anticommutator", anti_witness))
        checks.append(_check(f"harmonic/killing-codiff-commute/{label}",
                             "killing-codiff-commute", commute_witness))

        def unit(chart):
            a = random_form(rng, chart, rng.randint(0, 2))
            return None if lichnerowicz_lap(w, a) == laplacian(a) + a else f"w={w}, a={a}"
        checks.append(_check(f"harmonic/lichnerowicz-laplacian-unit/{label}",
                             "lichnerowicz-laplacian-unit",
                             _search(unit, trials // 2 + 1, (t2,))))

    empty_kernel = all(lichnerowicz_kernel_dim(t2, unit_forms[0], degree, 1) == 0
                       for degree in (0, 1, 2))
    checks.append(Check("harmonic/lichnerowicz-kernel-empty/dx",
                        "lichnerowicz-kernel-empty", passed(empty_kernel)))

    w2 = coframe(t2, 0) * 2

    def norm(chart):
        a = random_form(rng, chart, rng.randint(0, 2))
        expected = laplacian(a) + a * one_form_norm2(w2)
        return None if lichnerowicz_lap(w2, a) == expected else f"a={a}"
    checks.append(_check("harmonic/lichnerowicz-laplacian-norm/2dx",
                         "lichnerowicz-laplacian-norm", _search(norm, trials // 2 + 1, (t2,))))

    def self_adjoint(chart):
        u = _int_field(rng, chart)
        p = rng.randint(0, chart.nslots + 1)
        a, b = random_pair(rng, chart, p), random_pair(rng, chart, p)
        symmetric = pair_inner(pair_laplacian(u, a), b) == pair_inner(a, pair_laplacian(u, b))
        return None if symmetric else f"U={u}, a={a}, b={b}"
    checks.append(_check("harmonic/pair-laplacian-self-adjoint", "pair-laplacian-self-adjoint",
                         _search(self_adjoint, trials // 2 + 1, (t2, t3))))

    def constant_harmonic(chart):
        u = _int_field(rng, chart)
        p = rng.randint(0, chart.nslots)
        a = PairForm(random_form(rng, chart, p, max_freq=0),
                     random_form(rng, chart, p - 1, max_freq=0))
        return None if pair_laplacian(u, a).is_zero else f"U={u}, a={a}"
    checks.append(_check("harmonic/constant-pairs-harmonic", "constant-pairs-harmonic",
                         _search(constant_harmonic, trials // 4 + 1, (t2, t3))))

    t1 = torus(1)
    kg_witness = None
    for m in range(3):
        for mp in range(3):
            a = PairForm(scalar_form(wave(t1, (m,))), zero_form(t1, -1))
            u = constant_field(t1, (mp,))
            harmonic = pair_laplacian(u, a).is_zero
            if harmonic != (m * m == mp * mp * m * m):
                kg_witness = f"m={m}, m'={mp}"
    sinx = PairForm(scalar_form(sin_wave(t2, (1, 0))), zero_form(t2, -1))
    if not pair_laplacian(constant_field(t2, (1, 0)), sinx).is_zero:
        kg_witness = "U=d/dx should annihilate (sin x1, 0)"
    if pair_laplacian(constant_field(t2, (0, 1)), sinx) != sinx:
        kg_witness = "U=d/dy should fix (sin x1, 0)"
    checks.append(_check("harmonic/klein-gordon-eigenvalues", "klein-gordon-eigenvalues",
                         kg_witness))

    # documented discrepancy 1: the codifferential is only adjoint to the
    # pair differential after flipping the sign of its Lie term
    raw_witness = None
    raw_counterexamples = 0
    skew_witness = None
    for chart in (t2, t3):
        for _ in range(trials // 2 + 1):
            u = _int_field(rng, chart)
            p = rng.randint(1, chart.nslots)
            a = random_pair(rng, chart, p - 1)
            b = random_pair(rng, chart, p)
            lhs = pair_inner(pair_d(u, a), b)
            if lhs != pair_inner(a, pair_codiff_skew(u, b)):
                skew_witness = f"U={u}, a={a}, b={b}"
            defined_rhs = pair_inner(a, pair_codiff(u, b))
            if lhs != defined_rhs:
                raw_counterexamples += 1
                if lie(u, a.first).is_zero:
                    # only the Lie term can break adjointness
                    skew_witness = f"discrepancy in the Lie-free part: a={a}"
                if raw_witness is None:
                    raw_witness = (f"U={u}, a={a}, b={b}: "
                                   f"<<d a, b>> = {lhs} but <<a, cod b>> = {defined_rhs}")
    # deterministic witness so the discrepancy can never be sampled away
    u = constant_field(t2, (1, 0))
    a = PairForm(scalar_form(wave(t2, (1, 0))), zero_form(t2, -1))
    b = PairForm(zero_form(t2, 1), scalar_form(wave(t2, (1, 0))))
    lhs = pair_inner(pair_d(u, a), b)
    if lhs != pair_inner(a, pair_codiff(u, b)):
        raw_counterexamples += 1
        if raw_witness is None:
            raw_witness = (f"U={u}, a={a}, b={b}: "
                           f"{lhs} vs {pair_inner(a, pair_codiff(u, b))}")
    checks.append(_check("harmonic/adjointness-sign-corrected",
                         "codifferential-adjointness-sign-corrected", skew_witness))
    checks.append(Check(
        "harmonic/adjointness-as-defined", "codifferential-adjointness-as-defined",
        FAIL if raw_counterexamples else PASS,
        raw_witness or "no counterexample found (unexpected)"))

    # the sign-corrected adjoint recovers a working harmonic theory: the
    # kernel of its Laplacian has exactly the cohomology dimensions
    hodge_witness = None
    for chart, coeffs in ((t2, (1, 0)), (t2, (1, 2))):
        u = constant_field(chart, coeffs)
        n = chart.dim
        for degree in range(n + 2):
            got = corrected_laplacian_kernel_dim(chart, u, degree, 1)
            want = pair_predicted_dims(n)[degree]
            if got != want:
                hodge_witness = f"U={coeffs}, p={degree}: dim {got} vs {want}"
                break
    checks.append(_check("harmonic/corrected-laplacian-hodge-theory",
                         "corrected-laplacian-hodge-theory", hodge_witness))

    # documented discrepancy 2: the Laplacian kernel can exceed the joint
    # kernel of the differential and codifferential at resonant band modes
    scenarios = [
        (torus(1), (1,), (0, 1)),
        (t2, (1, 0), (0, 1, 2)),
        (t2, (1, 2), (0, 1)),
        (t2, (2, 0), (0, 1, 2)),
        (t3, (1, 0, 0), (0, 2)),
    ]
    bands = sorted({1, max_freq})
    for chart, coeffs, degrees in scenarios:
        u = constant_field(chart, coeffs)
        resonant = {n_band: _resonant_count(chart.dim, coeffs, n_band) for n_band in bands}
        for degree in degrees:
            for n_band in bands:
                result = harmonic_kernel(chart, u, degree, n_band)
                label = f"T{chart.dim}-U={coeffs}-p={degree}-N={n_band}"
                predicted = resonant[n_band] * pair_predicted_dims(chart.dim)[degree]
                checks.append(Check(
                    f"harmonic/kernel-oracle/{label}", "harmonic-kernel-oracle",
                    passed(result.dim_laplacian == predicted
                           and result.dim_joint <= result.dim_laplacian),
                    None if result.dim_laplacian == predicted else
                    f"dim {result.dim_laplacian} vs predicted {predicted}"))
                info = (f"dim ker Laplacian = {result.dim_laplacian}, "
                        f"dim (ker d  and  ker cod) = {result.dim_joint}")
                if result.witness:
                    info += f"; Laplacian-harmonic but not jointly closed: {result.witness}"
                checks.append(Check(
                    f"harmonic/kernel-equality/{label}", "harmonic-kernel-equality",
                    passed(result.kernels_equal),
                    None if result.kernels_equal else info))
    return checks


def _resonant_count(n, coeffs, max_freq):
    count = 0
    for k in itertools.product(range(-max_freq, max_freq + 1), repeat=n):
        drift = sum(ki * ci for ki, ci in zip(k, coeffs))
        if sum(ki * ki for ki in k) == drift * drift:
            count += 1
    return count


# -- cohomology suites -------------------------------------------------------------


def _table_from(complex_out, name, predicted):
    dims = complex_out.dim_vector()
    return Table(name, list(complex_out.degrees), dims, predicted,
                 passed(dims == predicted))


def band_tables(check_id, anchor, name, build, bands, predicted):
    """Tables `name/N=<band>` of `build(band)` for each band; a band the
    model refuses becomes an unsupported check `check_id/N=<band>`."""
    checks, tables = [], []
    for max_freq in bands:
        try:
            out = build(max_freq)
        except UnsupportedScenarioError as exc:
            checks.append(Check(f"{check_id}/N={max_freq}", anchor, UNSUPPORTED, str(exc)))
            continue
        tables.append(_table_from(out, f"{name}/N={max_freq}", predicted))
    return checks, tables


def cohomology_suite(dims=(1, 2, 3), bands=(1, 2), eta=None):
    checks = []
    tables = []
    for n in dims:
        chart = torus(n)
        fields = [[1] + [0] * (n - 1)]
        if n >= 2:
            fields.append([1, 2] + [0] * (n - 2))
        predicted = pair_predicted_dims(n)
        dims_seen = []
        for coeffs in fields:
            x = constant_field(chart, coeffs)
            for max_freq in bands:
                out = pair_complex(chart, x, max_freq)
                name = f"pair/T{n}/X={tuple(coeffs)}/N={max_freq}"
                tables.append(_table_from(out, name, predicted))
                dims_seen.append(out.dim_vector())
        # one dim vector over every field and band: field-independent and band-stable
        same = len({tuple(v) for v in dims_seen}) == 1
        checks.append(Check(f"cohomology/dims-match/T{n}", "pair-cohomology-dimensions",
                            passed(all(v == predicted for v in dims_seen))))
        checks.append(Check(
            f"cohomology/field-independent/T{n}", "transfer-invariance", passed(same)))
        checks.append(Check(f"cohomology/band-stable/T{n}", "plumbing", passed(same)))
        sym = all(predicted[p] == predicted[n + 1 - p] for p in range(n + 2))
        got_sym = all(dims_seen[0][p] == dims_seen[0][n + 1 - p] for p in range(n + 2))
        checks.append(Check(f"cohomology/poincare-symmetry/T{n}", "poincare-duality",
                            passed(sym and got_sym)))
        checks.append(Check(f"cohomology/vanishing-above-top/T{n}",
                            "vanishing-above-top-degree",
                            passed(dims_seen[0][n + 2] == 0)))
    if eta is not None:
        eta_check, eta_table = _eta_check(eta)
        checks.append(eta_check)
        if eta_table is not None:
            tables.append(eta_table)
    return checks, tables


def _eta_check(eta: Form):
    chart = eta.chart
    try:
        out = pair_eta_complex(chart, eta, 1)
    except UnsupportedScenarioError as exc:
        return Check("cohomology/eta-table", "twisted-pair-cohomology",
                     UNSUPPORTED, str(exc)), None
    table = _table_from(out, f"pair-eta/T{chart.dim}/N=1", pair_predicted_dims(chart.dim))
    check = Check("cohomology/eta-table", "twisted-pair-cohomology", table.verdict,
                  None if table.verdict == PASS else f"dims {table.dims}")
    return check, table


def relative_suite(bands=(1,)):
    checks = []
    tables = []
    t1, t2 = torus(1), torus(2)
    scenarios = [
        ("id/T1", identity_map(t1), (1,), True),
        ("doubling/T1", ChartMap(t1, t1, matrix=((2,),)), (1,), False),
        ("id/T2", identity_map(t2), (1, 0), True),
        ("gl2z/T2", ChartMap(t2, t2, matrix=((1, 1), (0, 1))), (1, 2), False),
        ("embed/T1-T2", ChartMap(t1, t2, matrix=((1,), (0,))), (1,), False),
        ("project/T2-T1", ChartMap(t2, t1, matrix=((1, 0),)), (0, 1), False),
    ]
    for name, cmap, coeffs, is_identity in scenarios:
        x = constant_field(cmap.source, coeffs)
        predicted = relative_predicted_dims(cmap.target.dim, cmap.source.dim)
        for max_freq in bands:
            out = relative_complex(cmap, x, max_freq)
            tables.append(_table_from(out, f"relative/{name}/N={max_freq}", predicted))
        if is_identity:
            rel = relative_complex(cmap, x, 1).dim_vector()
            direct = pair_complex(cmap.source, x, 1).dim_vector()
            checks.append(Check(f"relative/identity-reduction/{name}",
                                "relative-identity-reduction", passed(rel == direct)))
        if cmap.is_invertible:
            # the two relative complexes over f and its inverse have the same
            # underlying spaces; their computed dimensions must agree
            primed = primed_eta_complex(cmap.inverse(), eta_on_target(cmap), 1)
            unprimed = relative_complex(cmap, x, 1)
            checks.append(Check(
                f"relative/inverse-map-dimensions/{name}",
                "relative-inverse-map-dimensions",
                passed(primed.dim_vector() == unprimed.dim_vector())))
    checks.append(Check("relative/dims-match", "relative-cohomology-dimensions",
                        passed(all(t.verdict == PASS for t in tables))))
    return checks, tables


def eta_on_target(cmap: ChartMap) -> Form:
    """A closed twisting 1-form on the target of the inverse map."""
    return coframe(cmap.source, 0) * 2


def dolbeault_suite(bands=(1,)):
    checks = []
    tables = []
    chart = torus_complex(1)
    x = holomorphic_field(chart, (const(chart, 1),))
    dims_by_p = {}
    for p in (0, 1):
        predicted = dolbeault_predicted_dims(1, p)
        for max_freq in bands:
            out = dolbeault_complex(chart, x, p, max_freq)
            tables.append(_table_from(out, f"dolbeault/TC1/p={p}/N={max_freq}", predicted))
            dims_by_p[p] = out.dim_vector()
    serre = all(dims_by_p[p][q] == dims_by_p[1 - p][2 - q]
                for p in (0, 1) for q in range(3))
    checks.append(Check("dolbeault/serre-symmetry", "serre-duality-symmetry",
                        passed(serre)))
    checks.append(Check("dolbeault/dims-match", "dolbeault-pair-dimensions",
                        passed(all(t.verdict == PASS for t in tables))))
    checks.append(_holomorphic_convention_check())
    return checks, tables


def _holomorphic_convention_check() -> Check:
    """Record which action a holomorphic field takes in the pair operator.

    On the discriminating input (zb dz, 0) the Lie term vanishes for the
    (1,0)-part field but not for the full real field; the operator here is
    built on the (1,0)-part, matching L_X phi = del(i_X phi) for closed phi.
    """
    chart = affine_complex(1)
    x = holomorphic_field(chart, (const(chart, 1),))
    zb_dz = wedge(scalar_form(coordinate(chart, 1)), coframe(chart, 0))
    a = PairForm(zb_dz, zero_form(chart, 0))
    out = dbar_pair(x, a)
    one_zero_part_acts = out.second.is_zero
    real_field = VectorField(chart, (const(chart, 1), const(chart, 1)))
    real_lie = lie(real_field, zb_dz)
    real_field_would_differ = not real_lie.is_zero
    return Check("dolbeault/holomorphic-action-is-1-0-part",
                 "holomorphic-field-convention",
                 passed(one_zero_part_acts and real_field_would_differ))

"""Golden-file pins: the report schema, check ids and the rendering grammar
must not drift across refactors."""

import json
from pathlib import Path

from pairform.charts import affine, affine_complex, torus
from pairform.cli import run
from pairform.exterior import coframe, scalar_form, wedge
from pairform.pair import PairForm
from pairform.rationals import gq
from pairform.scalar import coordinate, sin_wave, wave

from helpers import from_form

GOLDEN = Path(__file__).parent / "golden"


def _fake_clock():
    ticks = iter(range(1000))
    return lambda: next(ticks) * 0.001


def test_cohomology_report_matches_golden_file():
    scenario = {"name": "cohomology/T1", "kind": "cohomology", "seed": 42,
                "trials": 100, "bands": [1], "dim": 1}
    report = run(scenario, clock=_fake_clock())
    expected = json.loads((GOLDEN / "cohomology_t1.json").read_text())
    assert report.to_dict() == expected


def test_harmonic_report_matches_golden_file():
    """Pins the two documented-discrepancy witnesses, the rendered
    "Laplacian-harmonic but not jointly closed" witnesses and the
    Lichnerowicz checks of the default harmonic scenario."""
    from pairform.cli import build_parser, scenario_from_args

    scenario = scenario_from_args(build_parser().parse_args(["harmonic"]))
    report = run(scenario, clock=_fake_clock())
    expected = json.loads((GOLDEN / "harmonic.json").read_text())
    assert report.to_dict() == expected


def test_harmonic_report_over_a_wider_band_matches_golden_file_byte_for_byte():
    """Pins `harmonic --max-freq 3`, whose kernel checks alternate between
    the bands N = 1 and N = 3 inside each degree."""
    from pairform.cli import build_parser, scenario_from_args

    argv = ["harmonic", "--max-freq", "3"]
    scenario = scenario_from_args(build_parser().parse_args(argv))
    report = run(scenario, clock=_fake_clock())
    assert report.to_json() + "\n" == (GOLDEN / "harmonic_n3.json").read_text()


def test_identity_report_matches_golden_file_byte_for_byte():
    """Pins the identity suite's check ids, verdicts and witnesses on a
    40-trial seed-3 run, as rendered to JSON."""
    from pairform.cli import build_parser, scenario_from_args

    argv = ["identities", "--trials", "40", "--seed", "3"]
    scenario = scenario_from_args(build_parser().parse_args(argv))
    report = run(scenario, clock=_fake_clock())
    assert report.to_json() + "\n" == (GOLDEN / "identities_seed3.json").read_text()


def test_scalar_rendering_golden():
    r2, t2, c1 = affine(2), torus(2), affine_complex(1)
    cases = [
        (coordinate(r2, 0).power(2) * gq("3/2"), "3/2*x1^2"),
        (coordinate(r2, 0) * coordinate(r2, 1) * gq(-1), "-1*x1*x2"),
        (wave(t2, (1, -1)), "e(1,-1)"),
        (wave(t2, (0, 2)) * gq(1, 2), "(1+2i)*e(0,2)"),
        (sin_wave(t2, (1, 0)), "1/2i*e(-1,0) + -1/2i*e(1,0)"),
        (coordinate(c1, 0) * coordinate(c1, 1), "z1*zb1"),
    ]
    for value, text in cases:
        assert str(value) == text


def test_form_and_pair_rendering_golden():
    t2 = torus(2)
    form = wedge(scalar_form(wave(t2, (1, 0))), coframe(t2, 1))
    assert str(form) == "(e(1,0))*dx[2]"
    vol = wedge(coframe(t2, 0), coframe(t2, 1))
    assert str(vol) == "(1)*dx[1]^dx[2]"
    pair = PairForm(vol, coframe(t2, 0) * gq("-1/2"))
    assert str(pair) == "((1)*dx[1]^dx[2] | (-1/2)*dx[1])"
    assert str(from_form(coframe(t2, 0)).second) == "0"


def test_form_parsing_handles_unsorted_and_repeated_bases():
    from pairform.exterior import parse_form

    t2 = torus(2)
    swapped = parse_form(t2, "dx[2]^dx[1]")
    assert swapped == wedge(coframe(t2, 0), coframe(t2, 1)) * -1
    assert parse_form(t2, "dx[1]^dx[1]").is_zero

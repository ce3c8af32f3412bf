import json

import pytest

from pairform.cli import build_parser, main, run, scenario_from_args
from pairform.linalg import RationalMatrix
from pairform.rationals import ONE


def _scenario(argv):
    return scenario_from_args(build_parser().parse_args(argv))


def _fake_clock():
    ticks = iter(range(1000))
    return lambda: next(ticks) * 0.001


def test_identities_exit_zero(capsys):
    code = main(["identities", "--trials", "5", "--chart", "t2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "pair-d-squared" in out


def test_json_report_schema(capsys):
    code = main(["cohomology", "--dim", "1", "--max-freq", "1", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"version", "scenario", "checks", "tables", "elapsed_ms"}
    for check in payload["checks"]:
        assert set(check) <= {"id", "anchor", "verdict", "witness"}
        assert check["verdict"] in ("pass", "fail", "unsupported")
    for table in payload["tables"]:
        assert set(table) == {"name", "degrees", "dims", "predicted", "verdict"}
    ids = [c["id"] for c in payload["checks"]]
    assert len(ids) == len(set(ids))


def test_byte_identical_reports_for_identical_inputs():
    scenario = _scenario(["cohomology", "--dim", "2", "--max-freq", "1"])
    first = run(scenario, clock=_fake_clock()).to_json()
    second = run(scenario, clock=_fake_clock()).to_json()
    assert first == second


def test_identity_suite_deterministic_across_runs():
    scenario = _scenario(["identities", "--trials", "3"])
    first = run(scenario, clock=_fake_clock()).to_json()
    second = run(scenario, clock=_fake_clock()).to_json()
    assert first == second


def test_unsupported_eta_does_not_fail_run(capsys):
    code = main(["cohomology", "--dim", "2", "--max-freq", "1",
                 "--eta", "(e(1,0))*dx[2]"])
    out = capsys.readouterr().out
    assert code == 0
    assert "skip" in out and "mixes frequencies" in out


def test_supported_eta_table(capsys):
    code = main(["cohomology", "--dim", "2", "--max-freq", "1", "--eta", "3*dx[1]"])
    assert code == 0
    assert "eta-table" in capsys.readouterr().out


def test_harmonic_documents_discrepancies(capsys):
    code = main(["harmonic", "--trials", "10", "--max-freq", "1"])
    out = capsys.readouterr().out
    assert code == 1  # raw verdicts of the two documented discrepancies
    assert "adjointness-as-defined" in out
    assert "adjointness-sign-corrected" in out
    assert "kernel-equality" in out
    assert "witness" in out


def test_bad_field_literal_is_usage_error(capsys):
    code = main(["cohomology", "--dim", "2", "--field", "not a scalar @@",
                 "--max-freq", "1"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_bad_matrix_is_usage_error():
    assert main(["relative", "--map", "1,2;3"]) == 2


def test_custom_field_and_map(capsys):
    code = main(["cohomology", "--dim", "2", "--field", "1; 2", "--max-freq", "1"])
    assert code == 0
    assert "X=[1; 2]" in capsys.readouterr().out
    code = main(["relative", "--map", "2", "--max-freq", "1"])
    assert code == 0


def test_out_writes_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["symplectic", "--out", str(path)])
    capsys.readouterr()
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["scenario"]["kind"] == "symplectic"
    assert all(c["verdict"] == "pass" for c in payload["checks"])


def test_nonconstant_custom_field_reported_unsupported(capsys):
    for argv, skipped in (
            (["cohomology", "--dim", "2", "--field", "e(1,0); 0", "--max-freq", "1"],
             ["cohomology/custom-field/N=1"]),
            (["relative", "--map", "2", "--field", "e(1)", "--max-freq", "2"],
             ["relative/custom-map/N=1", "relative/custom-map/N=2"])):
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0
        assert [line.split()[1] for line in out.splitlines()
                if line.startswith("[skip]")] == skipped


@pytest.mark.parametrize("argv, message", [
    (["cohomology", "--max-freq", "0"], "--max-freq must be at least 1, got 0"),
    (["harmonic", "--max-freq", "0"], "--max-freq must be at least 1, got 0"),
    (["dolbeault", "--max-freq", "0"], "--max-freq must be at least 1, got 0"),
    (["identities", "--trials", "0"], "--trials must be at least 1, got 0"),
    (["identities", "--trials", "-1"], "--trials must be at least 1, got -1"),
    (["cohomology", "--dim", "0"], "--dim must be at least 1, got 0"),
    (["relative", "--map", ""], "--map must not be empty"),
    (["cohomology", "--dim", "2", "--field", "1; 0", "--eta", "3*dx[1]"],
     "--eta cannot be combined with --field"),
    (["cohomology", "--dim", "2", "--eta", "dx[1]^dx[2]"], "twisting form must be a 1-form"),
    (["cohomology", "--dim", "2", "--eta", "3"], "twisting form must be a 1-form"),
])
def test_rejected_input_is_usage_error(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


_IGNORED = "it applies to: "


@pytest.mark.parametrize("argv", [
    ["cohomology", "--chart", "t2"],
    ["relative", "--chart", "t2"],
    ["dolbeault", "--chart", "t2"],
    ["symplectic", "--chart", "t2"],
    ["harmonic", "--chart", "t2"],
    ["identities", "--dim", "2"],
    ["relative", "--dim", "2"],
    ["dolbeault", "--dim", "5"],
    ["symplectic", "--dim", "7"],
    ["harmonic", "--dim", "2"],
    ["identities", "--eta", "dx[1]"],
    ["relative", "--eta", "dx[1]"],
    ["dolbeault", "--eta", "dx[1]"],
    ["symplectic", "--eta", "dx[1]"],
    ["harmonic", "--eta", "dx[1]"],
    ["identities", "--map", "1,0;0,1"],
    ["cohomology", "--map", "1,0;0,1"],
    ["dolbeault", "--map", "1,0;0,1"],
    ["symplectic", "--map", "1,0;0,1"],
    ["harmonic", "--map", "1,0;0,1"],
    ["identities", "--field", "1; 0"],
    ["dolbeault", "--field", "1; 0"],
    ["symplectic", "--field", "1; 0"],
    ["harmonic", "--field", "1; 0"],
    ["relative", "--field", "1; 0"],
    ["all", "--field", "1; 0"],
    ["cohomology", "--seed", "9"],
    ["relative", "--seed", "9"],
    ["dolbeault", "--seed", "9"],
    ["cohomology", "--trials", "5"],
    ["relative", "--trials", "5"],
    ["dolbeault", "--trials", "5"],
    ["symplectic", "--trials", "5"],
    ["identities", "--max-freq", "1"],
    ["symplectic", "--max-freq", "1"],
])
def test_option_ignored_by_kind_is_usage_error(argv, capsys):
    kind, flag = argv[0], argv[1]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} is not used by '{kind}'; {_IGNORED}")


def test_recorded_but_unused_options_are_rejected(capsys):
    argv = ["cohomology", "--dim", "1", "--max-freq", "1", "--trials", "5", "--seed", "9",
            "--json"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --seed is not used by 'cohomology'; ")


@pytest.mark.parametrize("argv, where", [
    (["dolbeault", "--max-freq", "2"], "'dolbeault'"),
    (["relative", "--max-freq", "2"], "'relative' without --map"),
])
def test_max_freq_beyond_a_one_band_suite_is_usage_error(argv, where, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: --max-freq is not used by {where} beyond 1: "
                            "it runs the band N=1 only, got 2\n")


def test_max_freq_means_bands_one_to_n(capsys):
    assert main(["cohomology", "--dim", "1", "--max-freq", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["scenario"]["bands"] == [1, 2, 3]
    n3 = [t for t in payload["tables"] if t["name"].endswith("/N=3")]
    assert [t["name"] for t in n3] == ["pair/T1/X=(1,)/N=3"]
    assert n3[0]["dims"] == n3[0]["predicted"] == [1, 2, 1, 0]


def test_harmonic_suite_receives_max_freq(monkeypatch):
    from pairform import cli

    received = []
    monkeypatch.setattr(cli, "harmonic_suite",
                        lambda seed, trials, max_freq: received.append(max_freq) or ([], []))
    assert main(["harmonic", "--max-freq", "3"]) == 0
    assert received == [3]


@pytest.mark.parametrize("kind", ["identities", "cohomology", "relative", "dolbeault",
                                  "symplectic", "harmonic", "all"])
def test_defaults_fill_the_scenario(kind):
    scenario = _scenario([kind])
    assert (scenario["seed"], scenario["trials"], scenario["bands"]) == (42, 100, [1, 2])


@pytest.mark.parametrize("argv", [
    ["identities", "--chart", "t2", "--trials", "1"],
    ["all", "--chart", "t2", "--dim", "1", "--trials", "1", "--max-freq", "1"],
    ["cohomology", "--dim", "1", "--max-freq", "1"],
    ["all", "--dim", "1", "--trials", "1", "--max-freq", "1"],
    ["cohomology", "--dim", "2", "--eta", "3*dx[1]", "--max-freq", "1"],
    ["all", "--dim", "2", "--eta", "3*dx[1]", "--trials", "1", "--max-freq", "1"],
    ["relative", "--map", "2", "--max-freq", "1"],
    ["all", "--map", "2", "--dim", "1", "--trials", "1", "--max-freq", "1"],
    ["cohomology", "--dim", "1", "--field", "1", "--max-freq", "1"],
    ["relative", "--map", "2", "--field", "1", "--max-freq", "1"],
    ["all", "--map", "2", "--field", "1", "--dim", "1", "--trials", "1", "--max-freq", "1"],
    ["dolbeault", "--max-freq", "1"],
    ["symplectic", "--seed", "3"],
    ["harmonic", "--seed", "3", "--trials", "2", "--max-freq", "1"],
])
def test_option_used_by_kind_still_runs(argv, capsys):
    # `all` and `harmonic` exit 1 on the harmonic suite's documented-discrepancy checks
    assert main(argv) == (1 if argv[0] in ("all", "harmonic") else 0)
    assert capsys.readouterr().err == ""


def test_internal_invariant_failure_exits_3(monkeypatch, capsys):
    def nonzero_matmul(self, other):
        out = RationalMatrix(self.nrows, other.ncols)
        out.entries[(0, 0)] = ONE
        return out

    monkeypatch.setattr(RationalMatrix, "matmul", nonzero_matmul)
    assert main(["cohomology", "--dim", "1", "--max-freq", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal invariant failed: ")
    assert "compose to zero" in captured.err


def test_flipped_codifferential_sign_exits_3(monkeypatch, capsys):
    from pairform import cohomology

    # pair_codiff's symbol blocks with the sign of L_U psi flipped
    flipped = (("F", "F", 1, "codiff"), ("S", "F", -1, "lie"), ("S", "S", -1, "codiff"))
    monkeypatch.setattr(cohomology, "_PAIR_CODIFF", flipped)
    assert main(["harmonic", "--max-freq", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("internal invariant failed: "
                            "pair Laplacian composite disagrees with its closed form\n")

"""End-to-end command dispatch, exit codes, and artifact determinism."""

import json
import tracemalloc

import pytest

from gnlab.cli import main


def run(tmp_path, *argv):
    return main(list(argv) + ["--out", str(tmp_path)])


def read_report(tmp_path):
    return json.loads((tmp_path / "report.json").read_text())


class TestParams:
    def test_preset_solves_p12(self, tmp_path):
        assert run(tmp_path, "params", "--preset", "l12",
                   "--deterministic") == 0
        rep = read_report(tmp_path)
        assert rep["result"]["p"] == "12"
        assert rep["result"]["residual"] == "0"
        assert rep["command"] == "params"

    def test_explicit_tuple_matches_preset(self, tmp_path):
        assert run(tmp_path, "params", "--ks", "0,1,2", "--j", "2", "--m",
                   "3", "--q", "2", "--r", "inf", "--theta", "0.5",
                   "--deterministic") == 0
        rep = read_report(tmp_path)
        assert rep["result"]["p"] == "12"

    def test_incomplete_tuple_is_parameter_error(self, tmp_path):
        assert run(tmp_path, "params", "--j", "2") == 2

    @pytest.mark.parametrize("q,theta", [("banana", "0.5"), ("2", "1/0")])
    def test_malformed_number_is_parameter_error(self, tmp_path, q, theta):
        assert run(tmp_path, "params", "--ks", "0,1,2", "--j", "2", "--m",
                   "3", "--q", q, "--theta", theta) == 2

    @pytest.mark.parametrize("command", ["params", "cover"])
    def test_l6_preset_refuses_k_zero(self, tmp_path, command):
        # k = 0 is outside the l6 family; it must not run as k = 1
        assert run(tmp_path, command, "--preset", "l6", "--k", "0",
                   "--deterministic") == 2
        assert not (tmp_path / "report.json").exists()


class TestEnvelope:
    def test_report_carries_config_and_seed(self, tmp_path):
        assert run(tmp_path, "check", "generalized", "--preset", "l12",
                   "--N", "1025", "--seed", "42", "--deterministic") == 0
        rep = read_report(tmp_path)
        for key in ("tool", "version", "command", "config", "grid_n",
                    "seed", "tolerances", "result"):
            assert key in rep
        assert rep["seed"] == 42
        assert rep["grid_n"] == 1025
        assert "timestamp" not in rep

    def test_timestamp_present_without_deterministic_flag(self, tmp_path):
        assert run(tmp_path, "check", "generalized", "--preset", "l12",
                   "--N", "513") == 0
        assert "timestamp" in read_report(tmp_path)

    def test_env_seed_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GNLAB_SEED", "777")
        assert run(tmp_path, "check", "generalized", "--preset", "l12",
                   "--N", "513", "--deterministic") == 0
        assert read_report(tmp_path)["seed"] == 777


class TestDeterminism:
    def test_same_config_byte_identical(self, tmp_path):
        args = ("check", "generalized", "--preset", "l12", "--N", "1025",
                "--deterministic")
        assert run(tmp_path, *args) == 0
        first = (tmp_path / "report.json").read_bytes()
        assert run(tmp_path, *args) == 0
        second = (tmp_path / "report.json").read_bytes()
        assert first == second


class TestCheckKinds:
    @pytest.mark.parametrize("kind", ["generalized", "bounded", "localized"])
    def test_kinds_run_on_bump(self, tmp_path, kind):
        assert run(tmp_path, "check", kind, "--preset", "l12",
                   "--N", "1025", "--deterministic") == 0

    def test_special_constants(self, tmp_path):
        assert run(tmp_path, "check", "special", "--function", "bumpchi",
                   "--N", "1025", "--no-fractional", "--deterministic") == 0
        rows = read_report(tmp_path)["result"]
        assert rows[0]["function"] == "bumpchi"
        assert rows[0]["ratio_half"] is None

    def test_malformed_omega_is_parameter_error(self, tmp_path):
        assert run(tmp_path, "check", "localized", "--preset", "l12",
                   "--N", "257", "--omega", "a,b") == 2

    def test_open_problem(self, tmp_path):
        assert run(tmp_path, "check", "open-problem", "--function", "all",
                   "--ks", "0,1", "--q", "2", "--N", "513",
                   "--deterministic") == 0


class TestCover:
    def test_writes_csv(self, tmp_path):
        assert run(tmp_path, "cover", "--preset", "l12", "--function",
                   "bumpchi", "--N", "2049", "--e-resolution", "513",
                   "--deterministic") == 0
        text = (tmp_path / "cover.csv").read_text()
        header, *rows = text.strip().split("\n")
        assert header.split(",")[:3] == ["function", "center", "radius"]
        assert rows
        assert "\r" not in text


class TestEstimate:
    def test_search_report(self, tmp_path):
        assert run(tmp_path, "estimate", "--target", "ratio4", "--restarts",
                   "2", "--budget", "40", "--dimension", "8", "--search-N",
                   "513", "--report-N", "1025", "--deterministic") == 0
        rep = read_report(tmp_path)
        assert rep["result"]["ratio"] > 0
        assert "entries" in rep["result"]["trace"]

    def test_ratio_half_search_grid_off_stride(self, tmp_path):
        assert run(tmp_path, "estimate", "--target", "ratio-half",
                   "--restarts", "1", "--budget", "1", "--search-N",
                   "2051") == 2

    def test_sweep_csv(self, tmp_path):
        assert run(tmp_path, "estimate", "--sweep-l6", "1,2", "--restarts",
                   "1", "--budget", "30", "--dimension", "8", "--search-N",
                   "513", "--report-N", "1025", "--deterministic") == 0
        text = (tmp_path / "sweep.csv").read_text()
        assert text.splitlines()[0].startswith("target,")


class TestControl:
    def test_formula(self, tmp_path):
        assert run(tmp_path, "control", "formula", "--p", "3", "--law",
                   "triple", "--eps-value", "1e-2", "--steps", "4096",
                   "--deterministic") == 0
        assert read_report(tmp_path)["result"]["residual"] < 1e-4

    def test_scaling_writes_csv(self, tmp_path):
        assert run(tmp_path, "control", "scaling", "--p", "7", "--a", "0.3",
                   "--eps", "1e-4:1e-2:3", "--steps", "4096",
                   "--deterministic") == 0
        text = (tmp_path / "scaling.csv").read_text()
        assert text.splitlines()[0] == "eps,x4,sign"

    def test_scaling_requires_eps(self, tmp_path):
        assert run(tmp_path, "control", "scaling", "--p", "7") == 2

    def test_malformed_eps_range(self, tmp_path):
        assert run(tmp_path, "control", "scaling", "--p", "7", "--eps",
                   "banana") == 2

    def test_obstruction_pass_and_fail_codes(self, tmp_path):
        assert run(tmp_path, "control", "obstruction", "--p", "12", "--eta",
                   "0.8", "--trials", "30", "--steps", "2048", "--seed", "7",
                   "--deterministic") == 0
        # the exact budget boundary admits a violating draw: exit 1
        assert run(tmp_path, "control", "obstruction", "--p", "12", "--eta",
                   "1.0", "--trials", "70", "--steps", "2048", "--seed", "7",
                   "--deterministic") == 1

    def test_malformed_or_missing_samples_file(self, tmp_path):
        samples = tmp_path / "w.txt"
        assert run(tmp_path, "control", "integrate", "--law", "grid",
                   "--samples", str(samples)) == 2
        samples.write_text("0 1 x 1 0\n")
        assert run(tmp_path, "control", "integrate", "--law", "grid",
                   "--samples", str(samples)) == 2

    def test_budget_violation_is_parameter_error(self, tmp_path):
        assert run(tmp_path, "control", "obstruction", "--p", "13", "--T",
                   "2.0", "--eta", "1.0") == 2

    def test_p1(self, tmp_path):
        assert run(tmp_path, "control", "p1", "--steps", "1024",
                   "--deterministic") == 0
        assert read_report(tmp_path)["result"]["passed"] is True


class TestCorpus:
    def test_list(self, tmp_path):
        assert run(tmp_path, "corpus", "list", "--deterministic") == 0
        rows = read_report(tmp_path)["result"]
        assert len(rows) == 7
        assert {r["name"] for r in rows} >= {"bumpchi", "splinebump"}

    def test_emit_csv(self, tmp_path):
        assert run(tmp_path, "corpus", "emit", "--function", "bumpchi",
                   "--N", "257", "--m", "2", "--deterministic") == 0
        lines = (tmp_path / "corpus.csv").read_text().splitlines()
        assert lines[0] == "x,d0,d1,d2"
        assert len(lines) == 258


@pytest.mark.parametrize("argv", [
    ["estimate", "--target", "ratio4", "--search-N", "-5"],
    ["estimate", "--target", "ratio4", "--report-N", "-3"],
    ["estimate", "--target", "ratio4", "--dimension", "100000",
     "--restarts", "1", "--budget", "5", "--search-N", "5"],
    ["control", "scaling", "--eps", "1e-3:1e-2:3", "--steps", "-1"],
    ["control", "obstruction", "--p", "12", "--trials", "2", "--steps", "-2"],
    ["control", "p1", "--steps", "-4"],
    ["corpus", "emit", "--m", "-1"],
], ids=["search-N", "report-N", "dimension", "scaling-steps",
        "obstruction-steps", "p1-steps", "emit-m"])
def test_out_of_range_sizes_are_refused(tmp_path, argv):
    assert run(tmp_path, *argv) == 2


@pytest.mark.parametrize("argv", [
    ["estimate", "--target", "ratio4", "--tol", "nan"],
    ["estimate", "--target", "ratio4", "--tol", "inf"],
    ["estimate", "--target", "ratio4", "--tol", "-1"],
    ["cover", "--preset", "l12", "--N", "513", "--threshold", "nan"],
    ["cover", "--preset", "l12", "--N", "513", "--threshold", "1.0"],
    ["cover", "--preset", "l12", "--N", "513", "--threshold", "1.5"],
    ["control", "scaling", "--p", "7", "--a", "nan", "--eps", "1e-4:1e-2:3"],
    ["control", "scaling", "--p", "7", "--a", "inf", "--eps", "1e-4:1e-2:3"],
    ["control", "integrate", "--p", "3", "--T", "inf"],
    ["control", "formula", "--p", "3", "--T", "inf"],
    ["control", "scaling", "--p", "7", "--a", "0.3", "--eps", "1e-4:1e-2:3",
     "--T", "inf"],
    ["control", "obstruction", "--p", "12", "--T", "inf", "--eta", "0.8",
     "--trials", "2"],
    ["control", "p1", "--T", "inf"],
], ids=["tol-nan", "tol-inf", "tol-negative", "threshold-nan",
        "threshold-one", "threshold-above-one", "scaling-a-nan",
        "scaling-a-inf", "integrate-T-inf", "formula-T-inf", "scaling-T-inf",
        "obstruction-T-inf", "p1-T-inf"])
def test_non_finite_or_vacuous_floats_are_refused(tmp_path, argv):
    """Refused before a report with bare NaN/Infinity or an empty cover
    can be written."""
    assert run(tmp_path, *argv, "--deterministic") == 2
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("argv", [
    ["control", "obstruction", "--p", "12", "--T", "1", "--eta", "0.8",
     "--trials", "100000"],
    ["control", "scaling", "--p", "7", "--a", "0.3", "--eps", "1e-4:1e-2:3",
     "--steps", "200000000"],
    ["control", "p1", "--steps", "300000000"],
], ids=["obstruction-trials", "scaling-steps", "p1-steps"])
def test_oversized_control_runs_are_refused_up_front(tmp_path, capsys, argv):
    """The chain's footprint (gigabytes here) is refused with its cost in
    bytes before any of it is allocated."""
    tracemalloc.start()
    try:
        code = run(tmp_path, *argv, "--deterministic")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 2 ** 24
    assert "bytes" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


class TestDispatch:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 2

    def test_version_flag(self, capsys):
        # the dispatcher converts argparse's exit into a return code
        assert main(["--version"]) == 0
        assert "gnlab" in capsys.readouterr().out

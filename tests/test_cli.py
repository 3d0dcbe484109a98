"""End-to-end command dispatch, exit codes, and artifact determinism."""

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import gnlab.cli as cli_module
import gnlab.control as ct
import gnlab.extremal as ex
import gnlab.funcspace as fs
from gnlab.cli import build_parser, main


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
        assert rep["result"]["grid"] == {"a": 0.0, "b": 1.0, "n": 1025,
                                         "provenance": "exact"}
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

    @pytest.mark.parametrize("argv", [
        ["generalized", "--preset", "l12", "--N", "4096"],
        ["special", "--N", "1024"],
        ["open-problem", "--N", "2"],
        ["localized", "--preset", "l12", "--N", "257", "--omega", "0.2,nan"],
        ["localized", "--preset", "l12", "--N", "257", "--omega", "0.5,1.5"],
        ["localized", "--preset", "l12", "--N", "257", "--omega", "0.6,0.4"],
        ["bounded", "--preset", "l12", "--N", "257", "--omega",
         "0.1,0.2,0.3"],
        ["bounded", "--preset", "l12", "--N", "257", "--omega", "-0.1,0.5"],
        # generalized reads no subinterval, so an --omega would be ignored
        ["generalized", "--preset", "l12", "--N", "129", "--omega",
         "0.2,0.4"],
    ], ids=["generalized-even-N", "special-even-N", "open-problem-N-two",
            "localized-omega-nan", "localized-omega-past-grid",
            "localized-omega-reversed", "bounded-omega-three-ends",
            "bounded-omega-below-grid", "generalized-omega"])
    def test_grid_and_omega_are_refused_before_sampling(self, tmp_path,
                                                        monkeypatch, argv):
        def sample_corpus(*args):
            raise AssertionError("the corpus was sampled")
        monkeypatch.setattr(fs, "sample_corpus", sample_corpus)
        assert run(tmp_path, "check", *argv, "--deterministic") == 2
        assert not (tmp_path / "report.json").exists()

    def test_open_problem(self, tmp_path):
        assert run(tmp_path, "check", "open-problem", "--function", "all",
                   "--ks", "0,1", "--q", "2", "--N", "513",
                   "--deterministic") == 0

    @pytest.mark.parametrize("argv", [
        ["open-problem", "--N", "513", "--q"],
        ["bounded", "--preset", "l12", "--N", "513", "--s"],
    ], ids=["open-problem-q", "bounded-s"])
    def test_exponent_flags_take_text_and_floats_alike(self, tmp_path, argv):
        results = []
        for value in ("3/2", "1.5"):
            out = tmp_path / value.replace("/", "_")
            assert run(out, "check", *argv, value, "--deterministic") == 0
            results.append(read_report(out)["result"])
        assert results[0] == results[1]


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

    @pytest.mark.parametrize("argv", [
        ["--target", "ratio4", "--mode", "corpus"],
        ["--sweep-l6", "1", "--target", "ratio4"],
        ["--sweep-l6", "1", "--preset", "l12"],
        ["--target", "ratio4", "--preset", "l12"]],
        ids=["corpus-mode-without-sweep", "sweep-and-target",
             "sweep-and-preset", "target-and-preset"])
    def test_one_target_source(self, tmp_path, capsys, monkeypatch, argv):
        """A flag that another would silently override is refused before
        any search starts, and so are the retired --sweep-l6 and --mode,
        which are no longer a target source or a search mode."""
        def no_work(*args, **kwargs):
            raise AssertionError("started work for a refused command")

        monkeypatch.setattr(cli_module.ex, "estimate_constant", no_work)
        assert run(tmp_path, "estimate", *argv, "--restarts", "1",
                   "--budget", "20") == 2
        assert "--" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("argv, flag", [
    (["params", "--preset", "l12", "--ks", "0,1", "--j", "1"], "--ks"),
    (["params", "--preset", "l6", "--theta", "1/3"], "--theta"),
    (["check", "generalized", "--preset", "l12", "--N", "129", "--q", "2"],
     "--q"),
    (["cover", "--preset", "l12", "--m", "3"], "--m"),
    (["estimate", "--preset", "l6", "--p", "6"], "--p"),
    (["estimate", "--target", "ratio4", "--ks", "0,1", "--j", "1", "--m",
      "2", "--p", "6"], "--ks"),
    (["estimate", "--target", "ratio6", "--theta", "0.5"], "--theta"),
    (["params", "--preset", "l12", "--k", "3"], "--k"),
    (["params", "--preset", "l12", "--r", "2"], "--r"),
    (["estimate", "--target", "ratio4", "--k", "2"], "--k"),
    (["check", "generalized", "--ks", "0,1,2", "--j", "2", "--m", "3", "--q",
      "2", "--theta", "1/2", "--k", "2"], "--k"),
], ids=["params-preset-ks-j", "params-preset-theta", "check-preset-q",
        "cover-preset-m", "estimate-preset-p", "target-and-tuple",
        "target-and-theta", "l12-and-k", "preset-and-r", "target-and-k",
        "tuple-and-k"])
def test_a_preset_or_target_refuses_the_tuple_flags_it_overrides(
        tmp_path, capsys, monkeypatch, argv, flag):
    """--ks, --j, --m, --p, --q, --r and --theta beside --preset or
    --target, and --k beside anything but --preset l6, would be silently
    overridden: the run exits 2 naming them before any corpus is sampled
    or search started."""
    def no_work(*args, **kwargs):
        raise AssertionError("started work for a refused command")

    monkeypatch.setattr(cli_module.ex, "estimate_constant", no_work)
    monkeypatch.setattr(fs, "sample_corpus", no_work)
    assert run(tmp_path, *argv, "--deterministic") == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("argv, flag", [
    (["check", "special", "--preset", "l12", "--m", "3", "--N", "257",
      "--no-fractional", "--omega", "0.2,0.4", "--k0", "3"], "--preset"),
    (["check", "open-problem", "--preset", "l6", "--theta", "0.5", "--N",
      "257"], "--theta"),
    (["check", "open-problem", "--k", "2", "--N", "257"], "--k"),
    (["control", "p1", "--p", "3", "--steps", "256"], "--p"),
    (["control", "obstruction", "--p", "12", "--law", "zero", "--trials",
      "2", "--steps", "256"], "--law"),
    (["control", "scaling", "--p", "7", "--eps", "1e-4:1e-2:3", "--eta",
      "0.5", "--steps", "256"], "--eta"),
    (["corpus", "list", "--N", "5"], "--N"),
    # a prefix of a flag its kind does take is not read as that flag
    (["check", "special", "--N", "129", "--s", "1"], "--s"),
    (["estimate", "--target", "ratio4", "--dim", "8"], "--dim"),
], ids=["special-tuple-omega-k0", "open-problem-preset-theta",
        "open-problem-k", "p1-p", "obstruction-law", "scaling-eta",
        "list-N", "special-s-prefix", "estimate-dim-prefix"])
def test_a_flag_its_kind_does_not_read_is_refused(tmp_path, capsys,
                                                  monkeypatch, argv, flag):
    """Each kind takes only the flags it reads: any other exits 2, named
    as an unrecognized argument, before any corpus is sampled, chain
    integrated or search started."""
    def no_work(*args, **kwargs):
        raise AssertionError("started work for a refused command")

    monkeypatch.setattr(fs, "sample_corpus", no_work)
    monkeypatch.setattr(ct, "integrate", no_work)
    monkeypatch.setattr(ex, "estimate_constant", no_work)
    assert run(tmp_path, *argv, "--deterministic") == 2
    err = capsys.readouterr().err
    assert flag in err.split("unrecognized arguments:")[1].split()
    assert not (tmp_path / "report.json").exists()


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

    def test_emit_rows_are_the_sampled_floats(self, tmp_path):
        assert run(tmp_path, "corpus", "emit", "--function", "splinebump",
                   "--N", "33", "--m", "3", "--deterministic") == 0
        u = fs.sample(fs.corpus_function("splinebump"), (0.0, 1.0), 33, 3)
        want = [",".join(["x", "d0", "d1", "d2", "d3"])] + [
            ",".join(str(v) for v in [u.grid[i]] + [row[i] for row in u.stack])
            for i in range(33)]
        assert (tmp_path / "corpus.csv").read_text().splitlines() == want

    def test_emit_all_is_an_unknown_function(self, tmp_path):
        assert run(tmp_path, "corpus", "emit", "--function", "all") == 2

    def test_oversized_emit_is_refused_with_its_cost(self, tmp_path, capsys):
        # the stack to order 3 and 20 working arrays of 300000001 values
        assert run(tmp_path, "corpus", "emit", "--N", "300000001",
                   "--deterministic") == 2
        assert capsys.readouterr().err == (
            "gnlab: 1 sampled stack(s) to order 3 on 300000001 nodes needs "
            f"{8 * 300000001 * 24} bytes, above the {2 ** 30}-byte cap\n")
        assert not (tmp_path / "corpus.csv").exists()
        assert not (tmp_path / "report.json").exists()


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
    # ControlSystem's rule for p and T holds for scaling and obstruction too
    ["control", "scaling", "--p", "0", "--a", "0.3", "--eps", "1e-4:1e-2:3"],
    ["control", "scaling", "--p", "-3", "--a", "0.3", "--eps", "1e-4:1e-2:3"],
    ["control", "obstruction", "--p", "12", "--T", "0", "--eta", "0.8",
     "--trials", "2"],
    # the law's epsilon and the --eps bounds follow the finite-real rule
    ["control", "integrate", "--eps-value", "inf"],
    ["control", "formula", "--eps-value", "inf"],
    ["control", "scaling", "--p", "7", "--a", "0.3", "--eps", "1e-2:inf:3"],
], ids=["tol-nan", "tol-inf", "tol-negative", "threshold-nan",
        "threshold-one", "threshold-above-one", "scaling-a-nan",
        "scaling-a-inf", "integrate-T-inf", "formula-T-inf", "scaling-T-inf",
        "obstruction-T-inf", "p1-T-inf", "scaling-p-zero",
        "scaling-p-negative", "obstruction-T-zero", "integrate-eps-inf",
        "formula-eps-inf", "scaling-eps-bound-inf"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_or_vacuous_floats_are_refused(tmp_path, argv):
    """Refused before a report with bare NaN/Infinity or an empty cover
    can be written, and before any arithmetic on the value warns."""
    assert run(tmp_path, *argv, "--deterministic") == 2
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("env,argv", [
    ("abc", ["params", "--preset", "l12"]),
    ("1.5", ["params", "--preset", "l12"]),
    ("-5", ["control", "p1", "--steps", "64"]),
    (None, ["control", "p1", "--steps", "64", "--seed", "-5"]),
    (None, ["estimate", "--target", "ratio4", "--restarts", "1",
            "--budget", "5", "--seed", "-5"]),
    (None, ["control", "obstruction", "--p", "12", "--trials", "2",
            "--steps", "64", "--seed", "-5"]),
], ids=["env-text", "env-fraction", "env-negative", "p1-negative",
        "estimate-negative", "obstruction-negative"])
def test_seed_that_is_not_a_nonnegative_integer_is_refused(
        tmp_path, monkeypatch, env, argv):
    """--seed and $GNLAB_SEED follow one rule: an integer >= 0."""
    if env is None:
        monkeypatch.delenv("GNLAB_SEED", raising=False)
    else:
        monkeypatch.setenv("GNLAB_SEED", env)
    assert run(tmp_path, *argv, "--deterministic") == 2
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("argv", [
    # one block of 2 million trials' chains: the controls are never whole
    ["control", "obstruction", "--p", "12", "--T", "1", "--eta", "0.8",
     "--trials", "2000000"],
    ["control", "scaling", "--p", "7", "--a", "0.3", "--eps", "1e-4:1e-2:3",
     "--steps", "200000000"],
    ["control", "p1", "--steps", "300000000"],
    ["control", "scaling", "--p", "7", "--a", "0.3",
     "--eps", "1e-4:1e-2:1000000000"],
    ["check", "special", "--N", "300000001", "--no-fractional"],
    ["cover", "--preset", "l12", "--N", "300000001"],
    ["corpus", "emit", "--N", "300000001"],
], ids=["obstruction-trials", "scaling-steps", "p1-steps", "scaling-eps-count",
        "check-N", "cover-N", "emit-N"])
def test_oversized_control_runs_are_refused_up_front(tmp_path, capsys, argv):
    """The footprint of a chain, a sampled corpus or a cover (gigabytes
    here) is refused with its cost in bytes before any of it is
    allocated."""
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


def test_check_all_streams_the_corpus(tmp_path):
    """`check --function all` samples, evaluates and drops one corpus
    function at a time: on 65537 nodes its traced peak stays below two
    stacks to order 3 (the one read and its working arrays: 1.9 stacks
    traced; the next is sampled only once the one read is dropped), not
    the seven a held corpus takes."""
    n = 65537
    tracemalloc.start()
    try:
        code = run(tmp_path, "check", "generalized", "--preset", "l12",
                   "--N", str(n), "--function", "all", "--deterministic")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len(read_report(tmp_path)["result"]) == 7
    assert peak < 2 * (8 * 4 * n)


def test_streamed_check_needs_the_cap_for_one_stack_not_seven(
        tmp_path, monkeypatch, capsys):
    """A streamed corpus is admitted under a cap of one stack's cost, which
    the seven held stacks exceed; a cap one byte below refuses it before
    anything is sampled."""
    n, argv = 257, ["check", "special", "--N", "257", "--function", "all",
                    "--deterministic"]
    streamed = fs.sampled_bytes(n, 2)
    monkeypatch.setattr(fs, "BYTES_CAP", streamed)
    assert run(tmp_path, *argv) == 0
    assert len(read_report(tmp_path)["result"]) == 7

    def sample(*args):
        raise AssertionError("sampled before the cap was checked")

    monkeypatch.setattr(fs, "sample", sample)
    monkeypatch.setattr(fs, "BYTES_CAP", streamed - 1)
    capsys.readouterr()
    assert run(tmp_path / "capped", *argv) == 2
    assert capsys.readouterr().err == (
        f"gnlab: 7 sampled stack(s) to order 2 on {n} nodes needs "
        f"{streamed} bytes, above the {fs.BYTES_CAP}-byte cap\n")
    assert not (tmp_path / "capped" / "report.json").exists()


def test_oversized_restart_count_is_refused_with_its_cost(tmp_path, capsys):
    """The restarts run in lockstep, every simplex held at once: a count
    above the byte cap is refused with its cost before any start is
    built."""
    tracemalloc.start()
    try:
        code = run(tmp_path, "estimate", "--target", "ratio4", "--restarts",
                   "300000000", "--budget", "1", "--deterministic")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 2 ** 24
    # dimension 16: 17 points of 3 * 16 + 16 words, and 128 words, per run
    assert (f"300000000 Nelder-Mead restarts in dimension 16 needs "
            f"{8 * 300000000 * (17 * 64 + 128)} bytes, above the "
            f"{2 ** 30}-byte cap") in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("argv", [
    ["cover", "--preset", "l12", "--N", "8193"],
    ["cover", "--preset", "l12", "--N", "8193", "--function", "all"],
    ["check", "generalized", "--preset", "l12", "--N", "8193",
     "--function", "all"],
    ["check", "special", "--N", "8193", "--no-fractional", "--function", "all"],
    # the highest order; at 8193 nodes the command's fixed allocations
    # (about 0.3 MB) are a tenth of its whole footprint
    ["corpus", "emit", "--function", "sinebump3", "--N", "16385", "--m", "8"],
    # README's 65537-node report grid: the winner's stack, and the factors
    ["estimate", "--target", "ratio4", "--restarts", "2", "--budget", "20"],
    ["estimate", "--target", "ratio6", "--restarts", "2", "--budget", "20"],
    # the search basis's build is the peak: a large l12 grid with a small
    # report grid, and a ratio-half grid
    ["estimate", "--preset", "l12", "--restarts", "1", "--budget", "5",
     "--search-N", "16385", "--report-N", "257"],
    ["estimate", "--target", "ratio-half", "--dimension", "8",
     "--search-N", "4097", "--restarts", "1", "--budget", "5"],
], ids=["cover", "cover-all", "check-generalized", "check-special",
        "corpus-emit", "estimate-ratio4", "estimate-ratio6",
        "estimate-l12-basis", "estimate-ratio-half-basis"])
def test_footprint_formulas_bound_the_traced_peak(tmp_path, capsys,
                                                  monkeypatch, argv):
    """A run's footprint formula is at least its traced peak: with the cap
    set to that peak, the same run is refused up front."""
    tracemalloc.start()
    try:
        assert run(tmp_path, *argv, "--deterministic") == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    monkeypatch.setattr(fs, "BYTES_CAP", peak)
    assert run(tmp_path / "capped", *argv, "--deterministic") == 2
    assert "bytes" in capsys.readouterr().err
    assert not (tmp_path / "capped" / "report.json").exists()


def _parsers(parser):
    """parser and every subparser below it, at any depth."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


def test_readme_names_only_real_flags():
    """Every --flag in README's "Command line" section is an option of the
    parser or of one of its subparsers, at any depth, so the text names no
    removed flag."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"--[a-zA-Z][a-zA-Z0-9-]*", section))
    options = set()
    for parser in _parsers(build_parser()):
        options.update(parser._option_string_actions)
    assert len(named) > 20  # the section was found
    assert named <= options, sorted(named - options)


def test_documented_commands_parse():
    """Each `gnlab ...` line of README's Command-line sh block, and each
    gnlab command that CI's bare-venv and numpy-floor steps write out,
    parses: no documented command names a flag its kind does not take."""
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    block = readme.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1]
    readme_lines = [line for line in block.split("```", 1)[0].splitlines()
                    if line.startswith("gnlab ")]
    ci = (root / ".github" / "workflows" / "tier1.yml").read_text()
    ci_lines = re.findall(r'^ *(?:"[^"\s]*/)?gnlab"? ([a-z].*)$', ci, re.M)
    assert len(readme_lines) >= 9 and len(ci_lines) >= 5  # both were found
    refused = []
    for line in readme_lines + ci_lines:
        argv = shlex.split(line, comments=True)
        if argv[0] == "gnlab":
            argv = argv[1:]
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            refused.append(line)
    assert not refused


class TestDispatch:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 2

    def test_version_flag(self, capsys):
        # the dispatcher converts argparse's exit into a return code
        assert main(["--version"]) == 0
        assert "gnlab" in capsys.readouterr().out


def test_commands_run_without_scipy(tmp_path):
    """numpy is the only runtime dependency: a fresh interpreter imports
    the command line and runs a command without loading scipy."""
    script = (
        "import sys\n"
        "import gnlab.cli as cli\n"
        "code = cli.main(['params', '--preset', 'l12', '--deterministic',\n"
        "                 '--out', sys.argv[1]])\n"
        "loaded = sorted(m for m in sys.modules\n"
        "                if m == 'scipy' or m.startswith('scipy.'))\n"
        "print(code, loaded)\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(cli_module.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "0 []"

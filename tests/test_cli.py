"""End-to-end tests for the command-line interface and its exit-code contract."""

import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import polyscore
from polyscore import cli
from polyscore.cli import build_parser, main
from polyscore.errors import PolyscoreError
from polyscore.expfam import ParamVector, family_grid, param_to_json
from polyscore.hardness import default_params
from polyscore.polybasis import enumerate_basis
from polyscore.reports import BoundCheck, canonical_json
from polyscore.sampler import SampleSet, sample_exact_separable, save_samples


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict(text: str) -> dict:
    """The document, refusing the NaN and Infinity literals that strict JSON has no room for."""
    def refuse(literal):
        raise AssertionError(f"non-finite literal {literal} in the document")
    return json.loads(text, parse_constant=refuse)


def strip_meta(text: str) -> dict:
    doc = json.loads(text)
    doc.pop("meta")
    return doc


@pytest.fixture(scope="module")
def gaussian_samples(tmp_path_factory):
    # theta* = 1 at d = 1 is the N(0.5, 0.5) member
    basis = enumerate_basis(1, 1)
    p = ParamVector(basis, np.array([1.0]), 1.0)
    s = sample_exact_separable(p, 100_000, seed=1001)
    path = tmp_path_factory.mktemp("cli") / "gauss.txt"
    save_samples(s, str(path))
    return str(path)


@pytest.fixture(scope="module")
def theta_file(tmp_path_factory):
    basis = enumerate_basis(1, 1)
    p = ParamVector(basis, np.array([1.0]), 1.0)
    path = tmp_path_factory.mktemp("cli") / "theta.json"
    path.write_text(json.dumps(param_to_json(p)))
    return str(path)


class TestBasis:
    def test_text_listing(self, capsys):
        code, out, _ = run(capsys, ["basis", "--n", "2", "--d", "3"])
        lines = out.strip().splitlines()
        assert code == 0
        assert len(lines) == 10 and lines[-1] == "M=10"
        assert lines[0] == "x1" and lines[1] == "x2"

    def test_json_listing(self, capsys):
        code, out, _ = run(capsys, ["basis", "--n", "2", "--d", "3", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        rep = doc["report"]
        assert rep["n"] == 2 and rep["d"] == 3 and rep["M"] == 10
        assert len(rep["indices"]) == 9
        assert rep["indices"][0] == [1, 0]
        assert set(doc) == {"config", "report", "meta"}

    def test_even_degree_usage_error(self, capsys):
        code, _, err = run(capsys, ["basis", "--n", "2", "--d", "2"])
        assert code == 2 and "odd" in err

    def test_unknown_flag(self, capsys):
        # the parser is reused, so a refused call must leave the next one as it would be alone
        valid = ["basis", "--n", "2", "--d", "3"]
        alone = run(capsys, valid)
        code, _, _ = run(capsys, valid + ["--frobnicate"])
        assert code == 2
        assert run(capsys, valid) == alone

    def test_missing_required(self, capsys):
        code, _, _ = run(capsys, ["basis", "--n", "2"])
        assert code == 2


class TestFit:
    def test_sm_gaussian(self, capsys, gaussian_samples):
        code, out, _ = run(
            capsys,
            ["fit", "--estimator", "sm", "--samples", gaussian_samples, "--n", "1", "--d", "1"],
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["report"]["theta_hat"][0] - 1.0) < 0.05
        assert doc["report"]["estimator"] == "SM"
        assert doc["config"]["command"] == "fit"

    def test_mle_gaussian_to_file(self, capsys, gaussian_samples, tmp_path):
        out_path = tmp_path / "fit.json"
        code, out, _ = run(
            capsys,
            [
                "fit", "--estimator", "mle", "--samples", gaussian_samples,
                "--n", "1", "--d", "1", "--B", "1", "--out", str(out_path),
            ],
        )
        assert code == 0 and out == ""
        doc = json.loads(out_path.read_text())
        assert abs(doc["report"]["theta_hat"][0] - 1.0) < 0.05

    def test_missing_samples_file(self, capsys):
        code, _, err = run(
            capsys, ["fit", "--estimator", "sm", "--samples", "nope.txt", "--n", "1", "--d", "1"]
        )
        assert code == 1 and "not found" in err

    def test_dimension_mismatch(self, capsys, gaussian_samples):
        code, _, err = run(
            capsys,
            ["fit", "--estimator", "sm", "--samples", gaussian_samples, "--n", "2", "--d", "1"],
        )
        assert code == 2 and "n=1" in err

    def test_singular_gram_exit(self, capsys, tmp_path):
        s = SampleSet(1, 50, np.zeros((50, 1)), seed=0, provenance={"kind": "test"})
        path = tmp_path / "zeros.txt"
        save_samples(s, str(path))
        code, _, err = run(
            capsys, ["fit", "--estimator", "sm", "--samples", str(path), "--n", "1", "--d", "3"]
        )
        assert code == 3 and "singular" in err

    def test_coarse_grid_exit(self, capsys, gaussian_samples):
        code, _, err = run(
            capsys,
            [
                "fit", "--estimator", "mle", "--samples", gaussian_samples,
                "--n", "1", "--d", "1", "--radius", "2.0", "--points-per-axis", "10",
            ],
        )
        assert code == 3 and "grid" in err

    def test_nonconvergence_exit(self, capsys, tmp_path):
        rng = np.random.default_rng(3)
        s = SampleSet(1, 200, rng.normal(0.0, 0.7, (200, 1)), seed=3, provenance={"kind": "t"})
        path = tmp_path / "g.txt"
        save_samples(s, str(path))
        code, _, err = run(
            capsys,
            [
                "fit", "--estimator", "mle", "--samples", str(path),
                "--n", "1", "--d", "1", "--tol", "1e-15",
            ],
        )
        assert code == 4

    def test_partial_grid_flags(self, capsys, gaussian_samples):
        code, _, err = run(
            capsys,
            [
                "fit", "--estimator", "mle", "--samples", gaussian_samples,
                "--n", "1", "--d", "1", "--radius", "4.0",
            ],
        )
        assert code == 2 and "together" in err


def fixture_path(name: str) -> str:
    return str(resources.files("polyscore").joinpath("testdata", f"{name}.cnf"))


class TestEncode:
    CNF = fixture_path("clause1")

    def test_explicit_couplings(self, capsys):
        code, out, _ = run(
            capsys, ["encode", "--cnf", self.CNF, "--alpha", "1", "--beta", "0"]
        )
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["terms"]["2,2,2"] == -1.0
        assert rep["terms"]["1,0,0"] == 2.0
        assert rep["B"] == 64.0 and rep["m"] == 1 and rep["n"] == 3

    def test_mode_fills_prescription(self, capsys):
        code, out, _ = run(capsys, ["encode", "--cnf", self.CNF, "--mode", "zeroth"])
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["alpha"] == 8.0  # 2 (n + 1) at n = 3
        assert doc["report"]["prescription"] == {"mode": "zeroth", "scale": 1.0}

    def test_explicit_pair_wins_over_mode(self, capsys):
        code, out, _ = run(
            capsys, ["encode", "--cnf", self.CNF, "--mode", "zeroth", "--alpha", "1", "--beta", "2"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["alpha"] == 1.0 and doc["report"]["beta"] == 2.0
        assert doc["report"]["prescription"] is None
        assert (doc["config"]["alpha"], doc["config"]["beta"], doc["config"]["mode"]) == (1.0, 2.0, "zeroth")

    def test_malformed_dimacs(self, capsys, tmp_path):
        bad = tmp_path / "bad.cnf"
        bad.write_text("p cnf 3 1\n1 2 0\n")
        code, _, err = run(capsys, ["encode", "--cnf", str(bad), "--alpha", "1", "--beta", "1"])
        assert code == 1 and "malformed DIMACS" in err

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, ["encode", "--cnf", "missing.cnf", "--alpha", "1", "--beta", "1"])
        assert code == 1

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", ["--alpha", "--beta"])
    def test_non_finite_couplings_exit_2_without_a_document(self, capsys, tmp_path, flag, bad):
        couplings = {"--alpha": "1", "--beta": "2", flag: bad}
        out = tmp_path / "encode.json"
        argv = ["encode", "--cnf", fixture_path("uniq3"), "--out", str(out)]
        code, stdout, err = run(capsys, argv + [f"{k}={v}" for k, v in couplings.items()])
        assert code == 2 and "finite" in err
        assert stdout == "" and not out.exists()

    def test_overflowing_couplings_exit_2_without_a_document(self, capsys, tmp_path):
        # finite couplings whose energy is not: B and the coefficients overflow, and inf - inf is NaN
        out = tmp_path / "encode.json"
        code, stdout, err = run(capsys, ["encode", "--cnf", fixture_path("unsat8"), "--alpha", "1e308",
                                         "--beta", "1e308", "--out", str(out)])
        assert code == 2 and "finite" in err and err.startswith("error: ") and err.count("\n") == 1
        assert stdout == "" and not out.exists()

    def test_coupling_flags_validated(self, capsys):
        code, _, err = run(capsys, ["encode", "--cnf", self.CNF, "--alpha", "1"])
        assert code == 2 and "together" in err
        code, _, err = run(capsys, ["encode", "--cnf", self.CNF])
        assert code == 2


class TestVerify:
    def test_polybasis_suite(self, capsys):
        code, out, _ = run(capsys, ["verify", "--suite", "polybasis", "--seed", "3"])
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["all_hold"]
        assert len(rep["suites"]["polybasis"]["checks"]) == 21

    def test_bounds_suite(self, capsys):
        code, out, _ = run(
            capsys, ["verify", "--suite", "bounds", "--n", "1", "--d", "3", "--B", "1", "--seed", "7"]
        )
        assert code == 0
        rep = json.loads(out)["report"]["suites"]["bounds"]
        assert rep["all_hold"] and rep["spectrum"]["lambda_min"] > 0

    def test_corrupt_fisher_fails(self, capsys):
        code, out, _ = run(
            capsys,
            ["verify", "--suite", "bounds", "--n", "1", "--d", "3", "--corrupt", "fisher"],
        )
        assert code == 3
        assert not json.loads(out)["report"]["all_hold"]

    def test_gate_failure_exits_numerical(self, capsys):
        # README's contract: a failed quadrature gate is a numerical failure
        code, out, err = run(
            capsys,
            ["verify", "--suite", "bounds", "--n", "1", "--d", "3", "--radius", "3",
             "--points-per-axis", "12"],
        )
        assert code == 3 and out == ""
        assert "quadrature gate failed" in err

    def test_corrupt_fisher_writes_null_gamma(self, capsys):
        # the corrupted lambda_min is negative, where the gamma bound does not apply
        code, out, _ = run(capsys, ["verify", "--suite", "bounds", "--n", "2", "--d", "3", "--seed", "3",
                                    "--corrupt", "fisher"])
        assert code == 3
        spectrum = strict(out)["report"]["suites"]["bounds"]["spectrum"]
        assert spectrum["lambda_min"] < 0 and spectrum["gamma_bound"] is None

    def test_unknown_corruption(self, capsys):
        code, _, err = run(
            capsys, ["verify", "--suite", "bounds", "--n", "1", "--d", "3", "--corrupt", "junk"]
        )
        assert code == 2

    def test_suite_all_gives_lone_points_to_hardness(self, capsys):
        # the hardness suite reads --points-per-axis alone; under all, the
        # bounds suite then keeps its family grid
        clause1 = ["--cnf", fixture_path("clause1"), "--points-per-axis", "165"]
        code, out, _ = run(capsys, ["verify", "--suite", "all", *clause1])
        assert code == 0
        suites = json.loads(out)["report"]["suites"]
        assert suites["bounds"]["grid"] == family_grid(enumerate_basis(1, 3), 1.0).spec()
        _, alone, _ = run(capsys, ["verify", "--suite", "hardness", *clause1])
        assert suites["hardness"] == json.loads(alone)["report"]["suites"]["hardness"]
        # the pair rule still holds for the bounds suite on its own and with --radius
        code, _, err = run(capsys, ["verify", "--suite", "bounds", "--points-per-axis", "165"])
        assert code == 2 and "together" in err
        code, _, err = run(capsys, ["verify", "--suite", "all", "--radius", "3", "--points-per-axis", "12"])
        assert code == 3 and "quadrature gate failed" in err

    def test_hardness_suite_uniq3(self, capsys):
        code, out, _ = run(
            capsys,
            ["verify", "--suite", "hardness", "--cnf", fixture_path("uniq3")],
        )
        assert code == 0
        rep = json.loads(out)["report"]["suites"]["hardness"]
        assert rep["all_hold"]
        assert rep["sections"]["mean_sign"]["recovered"] == [1, 1, 1]
        assert rep["sections"]["roots"]["holds"]
        assert rep["sections"]["orthant"]["mass_on_satisfying_orthants"] >= 0.5
        assert "zgap" not in rep["sections"]  # needs the fixture pair


class TestStudy:
    def test_sm_slope(self, capsys, theta_file):
        code, out, _ = run(
            capsys,
            [
                "study", "--estimator", "sm", "--theta-file", theta_file,
                "--Ns", "100,1000", "--trials", "3", "--seed", "5",
            ],
        )
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["estimators"]["SM"]["slope"] < 0

    def test_single_trial_warning(self, capsys, theta_file):
        code, out, _ = run(
            capsys,
            [
                "study", "--estimator", "sm", "--theta-file", theta_file,
                "--Ns", "100,1000", "--trials", "1", "--seed", "5",
            ],
        )
        assert code == 0
        assert any("wide" in note for note in json.loads(out)["report"]["notes"])

    def test_single_size_slope_is_null(self, capsys, theta_file):
        code, out, _ = run(capsys, ["study", "--estimator", "sm", "--theta-file", theta_file,
                                    "--Ns", "50", "--trials", "1"])
        assert code == 0
        rep = strict(out)["report"]
        assert rep["estimators"]["SM"]["slope"] is None
        assert any("two sample sizes" in note for note in rep["notes"])

    def test_csv_output(self, capsys, theta_file, tmp_path):
        out_path = tmp_path / "rows.csv"
        code, _, _ = run(
            capsys,
            [
                "study", "--estimator", "both", "--theta-file", theta_file,
                "--Ns", "100,1000", "--trials", "2", "--seed", "5",
                "--format", "csv", "--out", str(out_path),
            ],
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "estimator,n,d,B,N,trial,error_sq,wall_time_s"
        assert len(lines) == 1 + 2 * 2 * 2  # estimators x Ns x trials

    def test_bad_Ns(self, capsys, theta_file):
        code, _, err = run(
            capsys,
            ["study", "--estimator", "sm", "--theta-file", theta_file, "--Ns", "abc", "--trials", "1"],
        )
        assert code == 2

    def test_missing_theta_file(self, capsys):
        code, _, _ = run(
            capsys, ["study", "--estimator", "sm", "--theta-file", "nope.json", "--Ns", "100"]
        )
        assert code == 1

    def test_malformed_theta_file(self, capsys, tmp_path):
        path = tmp_path / "theta.json"
        path.write_text('{"n": 1, "d": 1}')
        code, _, err = run(
            capsys, ["study", "--estimator", "sm", "--theta-file", str(path), "--Ns", "100"]
        )
        assert code == 1 and "cannot parse theta file" in err


@pytest.fixture(scope="module")
def bad_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("bad")
    (root / "bad.cnf").write_text("p cnf 3 1\n1 2 0\n")
    (root / "theta4.json").write_text(json.dumps({"n": 4, "d": 1, "B": 1.0, "theta": [0.1] * 4}))
    return {"cnf": str(root / "bad.cnf"), "theta4": str(root / "theta4.json")}


MLE_FIT = ["fit", "--estimator", "mle", "--samples", "{samples}", "--n", "1", "--d", "1"]
SM_STUDY = ["study", "--estimator", "sm", "--theta-file", "{theta}"]
BOUNDS_N1_D3 = ["verify", "--suite", "bounds", "--n", "1", "--d", "3"]


class TestExitCodes:
    """Each failure exits with the code README documents and one error line."""

    @pytest.mark.parametrize(
        "argv, expect",
        [
            (SM_STUDY + ["--Ns", "10,20", "--trials", "0"], 2),
            (SM_STUDY + ["--Ns", "20,10", "--trials", "2"], 2),
            (SM_STUDY + ["--Ns", "0,5", "--trials", "1"], 2),
            (MLE_FIT + ["--radius", "-1", "--points-per-axis", "10"], 2),
            (MLE_FIT + ["--radius", "4"], 2),
            (["verify", "--suite", "bounds", "--n", "4", "--d", "1"], 2),
            (["study", "--estimator", "mle", "--theta-file", "{theta4}", "--Ns", "10,20",
              "--trials", "1"], 2),
            (["verify", "--suite", "bounds", "--n", "1", "--d", "1", "--radius", "1e200",
              "--points-per-axis", "12"], 3),
            (MLE_FIT + ["--radius", "1e200", "--points-per-axis", "12"], 3),
            (["verify", "--suite", "hardness", "--cnf", "{cnf}"], 1),
            (["verify", "--suite", "polybasis", "--seed", "-1"], 2),
            (["verify", "--suite", "hardness", "--seed", "-1"], 2),
            (["verify", "--suite", "polybasis", "--seed", str(1 << 64)], 2),
            (["verify", "--suite", "hardness", "--points-per-axis", "0"], 2),
            (["verify", "--suite", "hardness", "--alpha", "1"], 2),
            # boxes whose radius search would reach |x| where |x|^(d + 1) overflows doubles
            (BOUNDS_N1_D3 + ["--B", "1e200"], 2),
            (MLE_FIT + ["--B", "1e200"], 2),
            (MLE_FIT[:-1] + ["3", "--B", "1e200"], 2),
            (MLE_FIT + ["--B", "1e308"], 2),
        ],
        ids=["study-zero-trials", "study-decreasing-Ns", "study-zero-N", "fit-negative-radius",
             "fit-radius-without-points", "verify-n4", "study-mle-n4", "verify-underflow",
             "fit-underflow", "verify-malformed-cnf", "verify-polybasis-negative-seed",
             "verify-hardness-negative-seed", "verify-polybasis-seed-2^64",
             "verify-hardness-zero-points", "verify-hardness-alpha-without-beta",
             "verify-envelope-overflow", "fit-envelope-overflow", "fit-d3-envelope-overflow",
             "fit-envelope-overflow-1e308"],
    )
    def test_documented_exit_code(self, capsys, argv, expect, theta_file, gaussian_samples,
                                  bad_inputs):
        files = {"theta": theta_file, "samples": gaussian_samples, **bad_inputs}
        code, out, err = run(capsys, [a.format(**files) for a in argv])
        assert code == expect
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    @pytest.mark.parametrize("argv", [MLE_FIT[:-1] + ["3", "--points-per-axis", "100", "--radius"],
                                      BOUNDS_N1_D3 + ["--points-per-axis", "100", "--radius"],
                                      BOUNDS_N1_D3 + ["--B"], MLE_FIT[:-1] + ["3", "--tol"]],
                             ids=["fit-radius", "verify-radius", "verify-B", "fit-tol"])
    def test_non_finite_flag_exits_2(self, capsys, argv, bad, gaussian_samples):
        code, out, err = run(capsys, [a.format(samples=gaussian_samples) for a in argv] + [bad])
        assert code == 2
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    def test_box_whose_width_overflows_exits_2(self, capsys):
        code, out, err = run(capsys, BOUNDS_N1_D3 + ["--B", "1e308"])
        assert code == 2 and "2B" in err
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_readme_lists_each_error_class_with_its_exit_code():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = [line for line in readme.splitlines() if re.match(r"\| \d \|", line)]
    classes, todo = [], [PolyscoreError]
    while todo:
        subs = todo.pop().__subclasses__()
        classes += subs
        todo += subs
    assert len(classes) == 7
    for cls in classes:
        listed = [int(row.split("|")[1]) for row in rows if f"`{cls.__name__}`" in row]
        assert listed == [cls.exit_code], cls.__name__


HARDNESS_165 = ["verify", "--suite", "hardness", "--cnf", fixture_path("clause1"),
                "--points-per-axis", "165"]


def _resolved_fit_grid():
    return family_grid(enumerate_basis(1, 1), 1.0).spec()


class TestConfigRule:
    """config is every parsed flag except --out, updated with the command's resolved values."""

    @pytest.mark.parametrize(
        "argv, resolved",
        [
            (["basis", "--n", "2", "--d", "3", "--format", "json"], lambda: {}),
            (["fit", "--estimator", "sm", "--samples", "{samples}", "--n", "1", "--d", "1"],
             lambda: {"grid": None}),
            (MLE_FIT, lambda: {"grid": _resolved_fit_grid()}),
            (["encode", "--cnf", fixture_path("clause1"), "--mode", "zeroth", "--scale", "0.5"],
             lambda: {"alpha": 4.0, "beta": default_params(3, 1, "zeroth", 0.5).beta}),
            (["verify", "--suite", "bounds", "--n", "1", "--d", "3", "--seed", "7"], lambda: {}),
            (HARDNESS_165, lambda: {}),
            (SM_STUDY + ["--Ns", "100,200", "--trials", "2"],
             lambda: {"Ns": [100, 200], "family": {"n": 1, "d": 1, "B": 1.0}}),
        ],
        ids=["basis", "fit-sm", "fit-mle", "encode", "verify-bounds", "verify-hardness", "study"],
    )
    def test_config_is_parsed_flags_plus_resolved(self, capsys, tmp_path, argv, resolved,
                                                  theta_file, gaussian_samples):
        argv = [a.format(samples=gaussian_samples, theta=theta_file) for a in argv]
        out_path = tmp_path / "doc.json"
        code, _, _ = run(capsys, argv + ["--out", str(out_path)])
        assert code == 0
        flags = vars(build_parser().parse_args(argv))
        del flags["out"]
        expected = json.loads(json.dumps({**flags, **resolved()}))
        assert json.loads(out_path.read_text())["config"] == expected

    def test_hardness_config_records_points_per_axis(self, capsys):
        docs = []
        for points in ("165", "200"):
            argv = HARDNESS_165[:-1] + [points]
            code, out, _ = run(capsys, argv)
            assert code == 0
            docs.append(json.loads(out))
        assert docs[0]["config"] != docs[1]["config"]
        assert [d["config"]["points_per_axis"] for d in docs] == [165, 200]


class TestParserReuse:
    """main builds its parser once per process, and no call leaves state for the next."""

    def test_two_calls_build_one_parser(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        argv = ["basis", "--n", "1", "--d", "3"]
        run(capsys, argv)
        built.clear()
        assert run(capsys, argv)[0] == 0
        assert built == [] and build_parser() is build_parser()

    def test_a_given_flag_does_not_carry_over(self, capsys, tmp_path, gaussian_samples):
        argv = ["fit", "--estimator", "sm", "--samples", gaussian_samples, "--n", "1", "--d", "1"]
        tols = []
        for extra in (["--tol", "1e-8"], []):
            out_path = tmp_path / "fit.json"
            code, _, _ = run(capsys, argv + extra + ["--out", str(out_path)])
            assert code == 0
            tols.append(json.loads(out_path.read_text())["config"]["tol"])
        assert tols == [1e-8, 1e-6]  # the second call gets --tol's default

    def test_help_exits_zero(self, capsys):
        for argv in (["--help"], ["fit", "--help"], ["--help"]):
            code, out, _ = run(capsys, argv)
            assert code == 0 and out.startswith("usage: polyscore")

    def test_commands_are_looked_up_at_call_time(self, capsys, monkeypatch):
        argv = ["basis", "--n", "1", "--d", "3", "--format", "json"]
        assert run(capsys, argv)[0] == 0  # the parser is built and cached
        seen = []
        original = cli.cmd_basis

        def wrapper(args):
            seen.append(args.command)
            return original(args)

        monkeypatch.setattr(cli, "cmd_basis", wrapper)
        code, out, _ = run(capsys, argv)
        assert code == 0 and seen == ["basis"]
        assert json.loads(out)["report"]["M"] == 4


class TestDeterminism:
    def test_verify_polybasis_byte_identical(self, capsys):
        _, out1, _ = run(capsys, ["verify", "--suite", "polybasis", "--seed", "11"])
        _, out2, _ = run(capsys, ["verify", "--suite", "polybasis", "--seed", "11"])
        assert strip_meta(out1) == strip_meta(out2)
        assert json.dumps(strip_meta(out1), sort_keys=True) == json.dumps(
            strip_meta(out2), sort_keys=True
        )

    def test_study_byte_identical(self, capsys, theta_file):
        args = [
            "study", "--estimator", "sm", "--theta-file", theta_file,
            "--Ns", "100,1000", "--trials", "2", "--seed", "9",
        ]
        _, out1, _ = run(capsys, args)
        _, out2, _ = run(capsys, args)
        assert strip_meta(out1) == strip_meta(out2)

    def test_seed_changes_report(self, capsys, theta_file):
        args = ["study", "--estimator", "sm", "--theta-file", theta_file, "--Ns", "100", "--trials", "2"]
        _, out1, _ = run(capsys, args + ["--seed", "1"])
        _, out2, _ = run(capsys, args + ["--seed", "2"])
        assert strip_meta(out1) != strip_meta(out2)


def _to_jsonable(obj):
    """The copying conversion reports went through before ``reports.default``: the byte reference."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _to_jsonable(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _payload() -> dict:
    check = BoundCheck("c", np.float64(0.1), np.float32(0.3), np.bool_(True), note="n")
    return {
        "f64": np.float64(1 / 3), "f32": np.float32(0.1), "i64": np.int64(-7), "b": np.bool_(False),
        "matrix": np.array([[1.5, -0.0], [np.inf, -np.inf]]), "ints": np.arange(3),
        "nested": {"checks": [check, {"inner": check}]}, "pair": (1, np.float64(2.5)),
        "by_int": {1: "a", 2: np.int64(3)}, "nan": float("nan"), "neg_zero": -0.0,
        "inf": [float("inf"), -float("inf")], "none": None,
    }


class TestSerialization:
    """Reports go to JSON through one ``default`` hook, with the bytes of converting them first."""

    def test_canonical_json_bytes(self):
        want = json.dumps(_to_jsonable(_payload()), sort_keys=True, separators=(",", ":"))
        assert canonical_json(_payload()) == want

    def test_document_bytes(self, capsys, monkeypatch):
        # a document is strict JSON, so its payload is the finite part of _payload()
        payload = {**_payload(), "matrix": np.array([[1.5, -0.0], [2.0, -3.0]])}
        del payload["nan"], payload["inf"]
        monkeypatch.setattr(cli, "cmd_basis", lambda args: ({"given": (np.int64(1),)}, payload, 0))
        code, out, _ = run(capsys, ["basis", "--n", "1", "--d", "3"])
        assert code == 0
        flags = {"command": "basis", "n": 1, "d": 3, "format": "text", "given": (np.int64(1),)}
        doc = {"config": _to_jsonable(flags), "report": _to_jsonable(payload),
               "meta": json.loads(out)["meta"]}
        assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("bad", [float("nan"), np.inf, np.array([1.0, -np.inf])], ids=["nan", "inf", "array"])
    def test_non_finite_report_exits_3_without_a_document(self, capsys, monkeypatch, tmp_path, bad):
        monkeypatch.setattr(cli, "cmd_basis", lambda args: ({}, {"value": bad}, 0))
        out = tmp_path / "doc.json"
        code, stdout, err = run(capsys, ["basis", "--n", "1", "--d", "3", "--out", str(out)])
        assert code == 3 and not out.exists() and stdout == ""
        assert err.startswith("error: report is not strict JSON") and err.count("\n") == 1

    def test_zero_dimensional_array_is_its_scalar(self):
        with pytest.raises(TypeError):
            _to_jsonable({"a": np.array(1.5)})
        assert canonical_json({"a": np.array(1.5), "b": np.array(True)}) == '{"a":1.5,"b":true}'


class TestModuleEntryPoint:
    def test_python_m_polyscore_runs_the_cli(self):
        src = str(Path(polyscore.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        for module in ("polyscore", "polyscore.cli"):
            proc = subprocess.run(
                [sys.executable, "-m", module, "basis", "--n", "1", "--d", "3"],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.splitlines() == ["x1", "x1^2", "x1^3", "M=4"]
        proc = subprocess.run(
            [sys.executable, "-m", "polyscore", "basis", "--n", "1", "--d", "2"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2


class TestImportsNumpyOnly:
    def test_no_module_imports_scipy(self):
        # numpy is the package's one runtime dependency; scipy is a test oracle
        src = str(Path(polyscore.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = (
            "import importlib, pkgutil, sys, polyscore\n"
            "mods = [m.name for m in pkgutil.iter_modules(polyscore.__path__, 'polyscore.') "
            "if m.name != 'polyscore.__main__']\n"
            "for m in mods: importlib.import_module(m)\n"
            "assert 'polyscore.cli' in sys.modules, mods\n"
            "print('scipy' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]

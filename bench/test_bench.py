"""Each output check accepts a real output and rejects a corrupted one.

    python3 -m pytest bench/test_bench.py -q

The passing cases run the program at sizes a test can afford; the failing
cases perturb that output by a margin the check's tolerance must catch.
"""

import copy
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from polyscore import estimators, expfam, hardness, polybasis, sampler  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402


def _cli(tmp_path, argv, expect=0):
    op = workloads._cli_op("t", argv, tmp_path / "out.json", expect=expect)
    assert op["ok"], op["out"]["stderr"]
    return op["out"]["doc"]


# ---------------------------------------------------------------------------
# cnf-hardness


def test_roots_check():
    C = hardness.CnfFormula(5, ((1, -2, 3), (-1, 4, 5), (2, -3, -5), (-4, 1, 2), (3, 4, -1)))
    inst = hardness.encode(C, 1.0, 2.0)
    roots = hardness.verify_roots(inst)
    theta_max = float(np.max(np.abs(inst.theta.theta)))
    assert checks.check_roots(5, C.clauses, roots, theta_max, inst.B) == []
    assert checks.check_roots(5, C.clauses, {**roots, "n_sat": roots["n_sat"] + 1},
                              theta_max, inst.B)
    assert checks.check_roots(5, C.clauses, {**roots, "holds": False}, theta_max, inst.B)
    assert checks.check_roots(5, C.clauses, roots, inst.B * 1.01, inst.B)


def test_brute_force_count_matches_fixtures():
    for name, count in (("clause1", 7), ("uniq3", 1), ("unsat8", 0)):
        text = (HERE.parent / "src" / "polyscore" / "testdata" / f"{name}.cnf").read_text()
        assert len(reference.satisfying_vertices(3, workloads._dimacs_clauses(text))) == count


@pytest.fixture(scope="module")
def small_hardness_suite(tmp_path_factory):
    # couplings mild enough that a 72-point grid passes the gate
    alpha, beta, ppa = 0.1, 4.0, 72
    fixture = HERE.parent / "src" / "polyscore" / "testdata" / "clause1.cnf"
    doc = _cli(tmp_path_factory.mktemp("hardness"),
               ["verify", "--suite", "hardness", "--cnf", str(fixture), "--alpha", str(alpha),
                "--beta", str(beta), "--points-per-axis", str(ppa)])
    grid = hardness.hardness_grid(3, beta, points_per_axis=ppa)
    clauses = workloads._dimacs_clauses(fixture.read_text())
    return doc["report"], clauses, alpha, beta, grid


def test_hardness_suite_check_accepts_program_output(small_hardness_suite):
    report, clauses, alpha, beta, grid = small_hardness_suite
    assert checks.check_hardness_suite(report, clauses, alpha, beta, grid.axis_nodes,
                                       grid.axis_logw) == []


@pytest.mark.parametrize("path,delta", [
    (("orthant", "mass_on_satisfying_orthants"), -1e-7),
    (("orthant", "beta"), 1e-3),
    (("roots", "n_sat"), 1),
])
def test_hardness_suite_check_rejects(small_hardness_suite, path, delta):
    report, clauses, alpha, beta, grid = small_hardness_suite
    bad = copy.deepcopy(report)
    section = bad["suites"]["hardness"]["sections"][path[0]]
    section[path[1]] += delta
    assert checks.check_hardness_suite(bad, clauses, alpha, beta, grid.axis_nodes,
                                       grid.axis_logw)


def test_orthant_reference_is_all_mass_when_every_vertex_satisfies():
    grid = hardness.hardness_grid(3, 50.0, points_per_axis=60)
    V = reference.satisfying_vertices(3, [])
    mass = reference.cnf_orthant_mass(grid.axis_nodes, grid.axis_logw, [], 0.1, 50.0, V)
    assert mass == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# sm-study


@pytest.fixture(scope="module")
def coupled_member():
    basis = polybasis.enumerate_basis(2, 3)
    theta = np.random.default_rng(7).uniform(-0.5, 0.5, basis.size)
    return expfam.ParamVector(basis, theta, 1.0)


def test_study_check(tmp_path, coupled_member):
    theta_file = tmp_path / "theta.json"
    theta_file.write_text(json.dumps(expfam.param_to_json(coupled_member)))
    doc = _cli(tmp_path, ["study", "--estimator", "sm", "--theta-file", str(theta_file),
                          "--Ns", "50,100", "--trials", "1", "--seed", "3"])
    assert checks.check_study(doc, [50, 100], 1) == []
    sm = doc["report"]["estimators"]["SM"]
    bad_slope = copy.deepcopy(doc)
    bad_slope["report"]["estimators"]["SM"]["slope"] = sm["slope"] + 1e-6
    assert checks.check_study(bad_slope, [50, 100], 1)
    bad_median = copy.deepcopy(doc)
    bad_median["report"]["estimators"]["SM"]["medians"]["50"] *= 1.01
    assert checks.check_study(bad_median, [50, 100], 1)
    assert checks.check_study(doc, [50, 200], 1)


def test_sm_fit_check():
    basis = polybasis.enumerate_basis(1, 3)
    s = sampler.SampleSet(n=1, N=500, seed=0,
                          data=np.random.default_rng(4).normal(scale=0.8, size=(500, 1)))
    fit = estimators.fit_score_matching(s, basis)

    def loss(theta):
        return estimators.sm_loss(expfam.ParamVector(basis, theta, max(1.0, np.abs(theta).max())), s)

    steps = [sc * np.random.default_rng(5 + k).standard_normal(basis.size)
             for k, sc in enumerate((1e-3, 1e-2, 1e-1, 1.0) * 5)]
    probes = [loss(fit.theta_hat + st) for st in steps]
    assert checks.check_sm_fit(s.data, basis.degrees, 3, fit.theta_hat, loss(fit.theta_hat),
                               probes) == []
    moved = fit.theta_hat + np.array([1e-3, 0.0, 0.0])
    assert checks.check_sm_fit(s.data, basis.degrees, 3, moved, loss(fit.theta_hat), probes)
    assert checks.check_sm_fit(s.data, basis.degrees, 3, fit.theta_hat,
                               min(probes) + 1e-6, probes)


def test_mala_means_check(coupled_member):
    draws = sampler.sample_mala(coupled_member, 2000,
                                sampler.McmcConfig(burn_in=1000, thinning=2), 11)
    degrees = coupled_member.basis.degrees
    assert checks.check_mala_means(draws.data, degrees, 3, coupled_member.theta) == []
    assert checks.check_mala_means(draws.data + np.array([0.3, 0.0]), degrees, 3,
                                   coupled_member.theta)


def test_family_reference_matches_program_moments(coupled_member):
    grid = expfam.build_grid(2, 4.5, 200)
    ours = reference.family_mean_T(coupled_member.basis.degrees, 3, coupled_member.theta)
    assert np.allclose(ours, expfam.moments(coupled_member, grid).mean_T, atol=1e-9)


# ---------------------------------------------------------------------------
# mle-audit


def test_mle_check():
    basis = polybasis.enumerate_basis(1, 3)
    p = expfam.ParamVector(basis, np.array([0.3, -0.5, 0.2]), 1.0)
    s = sampler.sample_exact_separable(p, 1000, 3)
    fit = estimators.fit_mle(s, basis, expfam.family_grid(basis, 1.0))
    assert checks.check_mle(s.data, basis.degrees, 3, fit.theta_hat) == []
    assert checks.check_mle(s.data, basis.degrees, 3, fit.theta_hat + np.array([0, 1e-3, 0]))


def test_gaussian_point_check():
    assert checks.check_gaussian_point(0.5, 0.5 + 5e-7) == []
    assert checks.check_gaussian_point(0.5 + 2e-6, 0.5)
    assert checks.check_gaussian_point(0.5, 0.4999)


def test_audit_check(tmp_path):
    argv = ["verify", "--suite", "bounds", "--n", "1", "--d", "3", "--seed", "2"]
    doc = _cli(tmp_path, argv)
    assert checks.check_audit(doc, corrupt=False) == []
    assert checks.check_audit(doc, corrupt=True)
    flipped = copy.deepcopy(doc)
    flipped["report"]["suites"]["bounds"]["checks"][4]["holds"] = False
    assert checks.check_audit(flipped, corrupt=False)
    dropped = copy.deepcopy(doc)
    del dropped["report"]["suites"]["bounds"]["checks"][0]
    assert checks.check_audit(dropped, corrupt=False)
    corrupted = _cli(tmp_path, [*argv, "--corrupt", "fisher"], expect=3)
    assert checks.check_audit(corrupted, corrupt=True) == []
    assert checks.check_audit(corrupted, corrupt=False)


def test_rounds_identical_check():
    a = [{"name": "x", "ok": True, "out": {"v": 1.0}}]
    assert checks.check_rounds_identical([a, copy.deepcopy(a)]) == []
    assert checks.check_rounds_identical([a, [{"name": "x", "ok": True, "out": {"v": 2.0}}]])


# ---------------------------------------------------------------------------
# tracer and the benchmark's declaration


def test_tracer_wraps_every_binding_and_restores(coupled_member):
    original = expfam.quad_log_integral
    tr = Tracer()
    tr.install()
    try:
        assert hardness.quad_log_integral is expfam.quad_log_integral is not original
        assert estimators.moments is expfam.moments
        at_setup = tr.snapshot()
        t0 = time.perf_counter()
        sampler.sample_mala(coupled_member, 100, sampler.McmcConfig(burn_in=50, thinning=2), 1)
        basis = polybasis.enumerate_basis(1, 1)
        s = sampler.sample_exact_separable(expfam.ParamVector(basis, np.array([0.4]), 1.0), 500, 2)
        fit = estimators.fit_mle(s, basis, expfam.family_grid(basis, 1.0))
        elapsed = time.perf_counter() - t0
        m = tr.layer_metrics(at_setup, rounds=1)
    finally:
        tr.uninstall()
    assert expfam.quad_log_integral is original and hardness.quad_log_integral is original
    assert m["sampler.mala_steps"] == 50 + 100 * 2
    assert m["estimators.mle_iters"] == int(fit.notes[0].split("=")[1])
    assert m["estimators.mle_objective_evals"] >= m["estimators.mle_iters"] + 1
    assert m["expfam.moments_nodes_per_s.n1"] > 0 and m["expfam.logz_nodes_per_s.n3"] == 0
    table = tr.table()
    assert all(0 <= row["self_s"] <= row["total_s"] + 1e-9 for row in table.values())
    assert sum(row["self_s"] for row in table.values()) <= elapsed


def test_benchmark_json_lists_the_reported_metrics():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(LAYER_METRICS)
    assert sorted((m["name"], m["unit"]) for m in spec["end_to_end"]) == sorted(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.WORKLOADS)

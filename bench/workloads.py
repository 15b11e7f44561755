"""The three workloads: seeded inputs, one round of operations, output checks.

Every workload is three functions.  ``setup(seed, work)`` builds the inputs
from the seed and writes the files the CLI reads into ``work``; ``run``
performs one round of operations and returns one record per operation;
``check`` compares round one's records with `checks`.  Operations go through
``polyscore.cli.main`` with the argv a user would type wherever the CLI
offers them, and through the modules' public functions otherwise.  Modules
are reached through attribute lookups at call time so a tracer installed
after import sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

import polyscore
from polyscore import cli, estimators, expfam, fisher, hardness, polybasis, sampler

import checks
import reference


def _op(name: str, ok: bool, out: dict) -> dict:
    return {"name": name, "ok": bool(ok), "out": out}


def _cli_op(name: str, argv: list[str], out_path: Path, expect: int = 0) -> dict:
    """Run the CLI; the op succeeds when the exit code is the documented one."""
    out_path.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--out", str(out_path)])
    doc = json.loads(out_path.read_text()) if out_path.exists() else None
    if doc is not None:
        doc.pop("meta")
    return _op(name, code == expect, {"argv": argv, "exit": code, "doc": doc,
                                      "stderr": err.getvalue()})


# ---------------------------------------------------------------------------
# cnf-hardness: the reduction pipeline of claim (1)

FORMULA_NS = range(3, 13)
SUITE_FIXTURE = "clause1"
SUITE_POINTS_PER_AXIS = 165
SUITE_SCALE = 0.01  # the CLI's default, so it is not passed on the command line


def _dimacs_clauses(text: str) -> list[tuple[int, ...]]:
    body = [ln for ln in text.splitlines() if ln.strip() and ln.strip()[0] not in "cp%"]
    tokens = [int(t) for ln in body for t in ln.split()]
    clauses, cur = [], []
    for t in tokens:
        if t == 0:
            clauses.append(tuple(cur))
            cur = []
        else:
            cur.append(t)
    return clauses


def cnf_setup(seed: int, work: Path) -> dict:
    rng = np.random.default_rng([seed, 1])
    formulas = []
    for n in FORMULA_NS:
        for m in (2 * n, 10 * n):
            clauses = tuple(
                tuple(int(v * s) for v, s in zip(rng.choice(n, 3, replace=False) + 1,
                                                  rng.choice((-1, 1), 3)))
                for _ in range(m)
            )
            formulas.append(hardness.CnfFormula(n, clauses))
    fixture = Path(polyscore.__file__).parent / "testdata" / f"{SUITE_FIXTURE}.cnf"
    return {
        "seed": seed,
        "formulas": formulas,
        "fixture_clauses": _dimacs_clauses(fixture.read_text()),
        "suite_argv": ["verify", "--suite", "hardness", "--cnf", str(fixture),
                       "--points-per-axis", str(SUITE_POINTS_PER_AXIS), "--seed", str(seed)],
        "suite_out": work / "hardness.json",
    }


def cnf_run(inp: dict) -> list[dict]:
    ops = []
    for k, C in enumerate(inp["formulas"]):
        inst = hardness.encode(C, 1.0, 2.0)
        rep = hardness.verify_roots(inst, seed=inp["seed"] + k)
        ops.append(_op("encode+verify_roots", True, {
            "n": C.n, "clauses": [list(c) for c in C.clauses], "roots": rep,
            "theta_max": float(np.max(np.abs(inst.theta.theta))), "B": inst.B,
        }))
    ops.append(_cli_op("verify-hardness", inp["suite_argv"], inp["suite_out"]))
    return ops


def cnf_check(inp: dict, ops: list[dict]) -> list[str]:
    problems = []
    for op in ops[:-1]:
        o = op["out"]
        problems += checks.check_roots(o["n"], o["clauses"], o["roots"], o["theta_max"], o["B"])
    suite = ops[-1]
    if suite["ok"]:
        # the suite's grid, rebuilt from the couplings the check expects
        alpha, beta = reference.sampling_couplings(3, SUITE_SCALE)
        grid = hardness.hardness_grid(3, beta, points_per_axis=SUITE_POINTS_PER_AXIS)
        problems += checks.check_hardness_suite(
            suite["out"]["doc"]["report"], inp["fixture_clauses"], alpha, beta,
            grid.axis_nodes, grid.axis_logw)
    return problems


# ---------------------------------------------------------------------------
# sm-study: the partition-function-free pipeline of claim (3)

SM_MEMBERS = 3
SM_THETA_HALF_WIDTH = 0.5
# Small Ns keep the study's cost in the fixed burn-in and pilot (3000 steps a
# trial), so the automatic thinning, which varies with the member, moves it little.
STUDY_NS = [100, 200]
STUDY_TRIALS = 2
SM_DRAWS = 3000
SM_PROBES = 50
PROBE_SCALES = (1e-3, 1e-2, 1e-1, 1.0)


def sm_setup(seed: int, work: Path) -> dict:
    rng = np.random.default_rng([seed, 2])
    basis = polybasis.enumerate_basis(2, 3)
    members = []
    for j in range(SM_MEMBERS):
        obj = {"n": 2, "d": 3, "B": 1.0,
               "theta": rng.uniform(-SM_THETA_HALF_WIDTH, SM_THETA_HALF_WIDTH, basis.size).tolist()}
        theta_file = work / f"theta{j}.json"
        theta_file.write_text(json.dumps(obj))
        members.append({
            "param": expfam.param_from_json(obj),
            "theta_file": theta_file,
            "study_seed": int(rng.integers(0, 2**31)),
            "mala_seed": int(rng.integers(0, 2**31)),
            "probes": [PROBE_SCALES[i % 4] * rng.standard_normal(basis.size)
                       for i in range(SM_PROBES)],
            "samples_file": work / f"draws{j}.txt",
            "out": work / f"sm{j}.json",
        })
    return {"basis": basis, "members": members}


def sm_run(inp: dict) -> list[dict]:
    ops = []
    basis = inp["basis"]
    for mem in inp["members"]:
        ops.append(_cli_op("study", [
            "study", "--estimator", "sm", "--theta-file", str(mem["theta_file"]),
            "--Ns", ",".join(map(str, STUDY_NS)), "--trials", str(STUDY_TRIALS),
            "--seed", str(mem["study_seed"])], mem["out"]))
        draws = sampler.sample_mala(mem["param"], SM_DRAWS,
                                    sampler.McmcConfig(burn_in=2000, thinning=2), mem["mala_seed"])
        sampler.save_samples(draws, mem["samples_file"])
        ops.append(_op("sample_mala", True, {"draws": draws.data.tolist()}))
        fit = _cli_op("fit-sm", ["fit", "--estimator", "sm", "--samples",
                                 str(mem["samples_file"]), "--n", "2", "--d", "3"], mem["out"])
        ops.append(fit)
        if not fit["ok"]:
            continue
        theta_hat = np.asarray(fit["out"]["doc"]["report"]["theta_hat"])

        def loss(theta):
            box = max(1.0, float(np.max(np.abs(theta))))
            return estimators.sm_loss(expfam.ParamVector(basis, theta, box), draws)

        ops.append(_op("sm_loss", True, {
            "fit": loss(theta_hat), "probes": [loss(theta_hat + s) for s in mem["probes"]]}))
    return ops


def sm_check(inp: dict, ops: list[dict]) -> list[str]:
    problems = []
    degrees = inp["basis"].degrees
    by_member = iter(ops)
    for mem in inp["members"]:
        study, draws, fit = next(by_member), next(by_member), next(by_member)
        if study["ok"]:
            problems += checks.check_study(study["out"]["doc"], STUDY_NS, STUDY_TRIALS)
        X = np.asarray(draws["out"]["draws"])
        problems += checks.check_mala_means(X, degrees, 3, mem["param"].theta)
        if fit["ok"]:
            losses = next(by_member)["out"]
            problems += checks.check_sm_fit(X, degrees, 3, fit["out"]["doc"]["report"]["theta_hat"],
                                            losses["fit"], losses["probes"])
    return problems


# ---------------------------------------------------------------------------
# mle-audit: the quadrature MLE and spectral audits of claim (2)

MLE_MEMBERS = ((1, 1, 1.0), (1, 3, 1.0), (2, 1, 1.0))
MLE_DRAWS = 2000
# criterion 5's (n, d, B) combinations
AUDIT_MEMBERS = ((1, 1, 1.0), (1, 3, 1.0), (2, 1, 1.0), (2, 3, 1.0), (1, 1, 2.0),
                 (1, 3, 2.0), (2, 1, 2.0), (2, 3, 2.0), (1, 3, 2.0), (2, 3, 1.0))
# The coupled n = 2, d = 3 fit takes hundreds of iterations, and how many
# depends on the member, so its member and draws are fixed: a seeded one
# would make the round's wall time follow the seed.  The n = 3 member is
# fixed for the same reason and because some seeded members need a finer
# grid than 64 points per axis to pass the gate.
COUPLED_SEED = 2306
N3_ARGV = ["verify", "--suite", "bounds", "--n", "3", "--d", "3", "--radius", "4.5",
           "--points-per-axis", "64", "--seed", "0"]
# fails today: the ascent stalls at the noise floor and raises NonConvergenceError
STALLING_FIT = ["fit", "--estimator", "mle", "--n", "1", "--d", "3", "--radius", "5",
                "--points-per-axis", "240", "--tol", "1e-8"]
# fails today: the gate failure exits 2 (usage) instead of 3 (numerical)
GATE_FAILURE_ARGV = ["verify", "--suite", "bounds", "--n", "1", "--d", "3", "--radius", "3",
                     "--points-per-axis", "12"]


def _save(s, path: Path) -> dict:
    sampler.save_samples(s, path)
    return {"file": path, "X": s.data}


def mle_setup(seed: int, work: Path) -> dict:
    rng = np.random.default_rng([seed, 3])
    fits = []
    for j, (n, d, B) in enumerate(MLE_MEMBERS):
        basis = polybasis.enumerate_basis(n, d)
        p = expfam.ParamVector(basis, rng.uniform(-B, B, basis.size), B)
        s = sampler.sample_exact_separable(p, MLE_DRAWS, int(rng.integers(0, 2**31)))
        argv = ["fit", "--estimator", "mle", "--n", str(n), "--d", str(d), "--B", str(B)]
        fits.append({"argv": argv, "d": d, "degrees": basis.degrees, **_save(s, work / f"mle{j}.txt")})
    basis = polybasis.enumerate_basis(2, 3)
    theta = np.random.default_rng(COUPLED_SEED).uniform(-0.5, 0.5, basis.size)
    s = sampler.sample_mala(expfam.ParamVector(basis, theta, 1.0), MLE_DRAWS,
                            sampler.McmcConfig(burn_in=2000), COUPLED_SEED)
    fits.append({"argv": ["fit", "--estimator", "mle", "--n", "2", "--d", "3", "--B", "1.0"],
                 "d": 3, "degrees": basis.degrees, **_save(s, work / "mle-coupled.txt")})
    hess = sampler.SampleSet(n=1, N=300, seed=0,
                             data=np.random.default_rng(15).normal(scale=0.5, size=(300, 1)))
    stalling = {"argv": STALLING_FIT, "d": 3, "degrees": polybasis.enumerate_basis(1, 3).degrees,
                **_save(hess, work / "mle-stalling.txt")}
    audit_seeds = [int(s) for s in rng.integers(0, 2**31, size=len(AUDIT_MEMBERS) + 1)]
    audits = [["verify", "--suite", "bounds", "--n", str(n), "--d", str(d), "--B", str(B),
               "--seed", str(s)] for (n, d, B), s in zip(AUDIT_MEMBERS, audit_seeds)]
    corrupt = ["verify", "--suite", "bounds", "--n", "2", "--d", "3", "--B", "1.0",
               "--seed", str(audit_seeds[-1]), "--corrupt", "fisher"]
    return {"fits": fits, "stalling": stalling, "audits": audits, "corrupt": corrupt,
            "out": work / "mle.json"}


def mle_run(inp: dict) -> list[dict]:
    out = inp["out"]
    ops = [_cli_op("fit-mle", [*f["argv"], "--samples", str(f["file"])], out)
           for f in [*inp["fits"], inp["stalling"]]]
    ops += [_cli_op("audit", argv, out) for argv in inp["audits"]]
    ops.append(_cli_op("audit-corrupt", inp["corrupt"], out, expect=3))
    ops.append(_cli_op("audit-n3", N3_ARGV, out))
    ops.append(_cli_op("audit-gate-failure", GATE_FAILURE_ARGV, out, expect=3))
    p0 = expfam.zero_params(1, 1)
    grid = expfam.family_grid(p0.basis, 1.0)
    info = fisher.fisher_info(p0, grid)
    c_p = fisher.restricted_poincare(info, fisher.gram_matrix(p0, grid))
    ops.append(_op("gaussian-point", True, {"fisher": float(info[0, 0]), "C_P": float(c_p)}))
    return ops


def mle_check(inp: dict, ops: list[dict]) -> list[str]:
    problems = []
    fits = [*inp["fits"], inp["stalling"]]
    for f, op in zip(fits, ops):
        if op["ok"]:
            problems += checks.check_mle(f["X"], f["degrees"], f["d"],
                                         op["out"]["doc"]["report"]["theta_hat"])
    for op in ops[len(fits):]:
        if not op["ok"]:
            continue
        if op["name"] in ("audit", "audit-n3"):
            problems += checks.check_audit(op["out"]["doc"], corrupt=False)
        elif op["name"] == "audit-corrupt":
            problems += checks.check_audit(op["out"]["doc"], corrupt=True)
        elif op["name"] == "gaussian-point":
            problems += checks.check_gaussian_point(op["out"]["fisher"], op["out"]["C_P"])
    return problems


WORKLOADS = {
    "cnf-hardness": (cnf_setup, cnf_run, cnf_check),
    "sm-study": (sm_setup, sm_run, sm_check),
    "mle-audit": (mle_setup, mle_run, mle_check),
}

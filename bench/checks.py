"""Output checks; each returns a list of problems, empty when the output is right.

The checks take plain data (reports as parsed JSON, arrays) so the tests in
``test_bench.py`` can hand them corrupted outputs and see them refuse.
"""

from __future__ import annotations

import json
import math

import numpy as np

import reference

# |t| bound for MALA sample means against quadrature means, 19 degrees of
# freedom: a correct sampler exceeds it with probability ~1e-5 per statistic
MALA_Z_BOUND = 6.0
ORTHANT_TOL = 1e-9
MLE_MOMENT_TOL = 1e-5
GAUSSIAN_TOL = 1e-6
SEVEN_CHECKS = (
    "i_lambda_max_ub", "ii_mean_T_ub", "iii_laplacian_ub", "iv_lambda_min_pos",
    "v_variance_lb", "vi_variance_identity", "vii_poincare_cond",
)


def check_roots(n: int, clauses, roots: dict, theta_max: float, B: float) -> list[str]:
    """verify_roots against an exhaustive count, and the coefficient box."""
    problems = []
    n_sat = len(reference.satisfying_vertices(n, clauses))
    if roots["n_sat"] != n_sat:
        problems.append(f"n={n} m={len(clauses)}: n_sat {roots['n_sat']} != brute force {n_sat}")
    if not roots["holds"]:
        problems.append(f"n={n} m={len(clauses)}: verify_roots did not certify the formula")
    if not theta_max <= B:
        problems.append(f"n={n} m={len(clauses)}: max|theta| {theta_max} > B {B}")
    return problems


def check_hardness_suite(report: dict, clauses, alpha: float, beta: float,
                         axis_nodes, axis_logw) -> list[str]:
    """Roots count, couplings and orthant mass of `verify --suite hardness` on n = 3."""
    problems = []
    suite = report["suites"]["hardness"]
    if not suite["all_hold"]:
        problems.append("hardness suite: a check does not hold")
    sat = reference.satisfying_vertices(3, clauses)
    if suite["sections"]["roots"]["n_sat"] != len(sat):
        problems.append(f"hardness suite: n_sat {suite['sections']['roots']['n_sat']} != {len(sat)}")
    orth = suite["sections"]["orthant"]
    if not (math.isclose(orth["alpha"], alpha, rel_tol=1e-12)
            and math.isclose(orth["beta"], beta, rel_tol=1e-12)):
        problems.append(f"orthant couplings ({orth['alpha']}, {orth['beta']}) != ({alpha}, {beta})")
    mass = reference.cnf_orthant_mass(axis_nodes, axis_logw, clauses, alpha, beta, sat)
    if not abs(orth["mass_on_satisfying_orthants"] - mass) <= ORTHANT_TOL:
        problems.append(
            f"orthant mass {orth['mass_on_satisfying_orthants']!r} != reference {mass!r}")
    return problems


def check_study(report: dict, Ns: list[int], trials: int) -> list[str]:
    """Echoed sizes, positive medians, and the slope as the fit of those medians."""
    problems = []
    sm = report["report"]["estimators"]["SM"]
    if sm["Ns"] != Ns or sm["trials"] != trials:
        problems.append(f"study ran Ns={sm['Ns']} trials={sm['trials']}, asked {Ns} x {trials}")
    med = [sm["medians"].get(str(N), math.nan) for N in Ns]
    if not all(math.isfinite(v) and v > 0 for v in med):
        problems.append(f"study medians not finite and positive: {med}")
        return problems
    slope = float(np.polyfit(np.log(Ns), np.log(med), 1)[0])
    if not math.isclose(sm["slope"], slope, rel_tol=1e-9, abs_tol=1e-12):
        problems.append(f"study slope {sm['slope']!r} != fit of its medians {slope!r}")
    return problems


def check_sm_fit(X, degrees, d: int, theta_hat, fit_loss: float, probe_losses) -> list[str]:
    """theta_hat solves the normal equations and no probe has a lower sm_loss."""
    problems = []
    ours = reference.sm_fit(np.asarray(X), np.asarray(degrees), d)
    theta_hat = np.asarray(theta_hat)
    err = float(np.max(np.abs(theta_hat - ours)))
    if not err <= 1e-6 * (1.0 + float(np.max(np.abs(ours)))):
        problems.append(f"SM fit differs from the reference solve by {err:.3e}")
    worst = float(np.min(np.asarray(probe_losses) - fit_loss))
    if not worst >= -1e-9:
        problems.append(f"a probe's sm_loss is {-worst:.3e} below the fit's")
    return problems


def check_mala_means(draws, degrees, d: int, theta) -> list[str]:
    """Sample means of T within MALA_Z_BOUND batch standard errors of quadrature."""
    degrees = np.asarray(degrees)
    T = reference.monomials(np.asarray(draws), degrees)
    z = reference.batch_mean_z(T, reference.family_mean_T(degrees, d, theta))
    if not float(z.max()) <= MALA_Z_BOUND:
        return [f"MALA mean of T[{int(z.argmax())}] is {float(z.max()):.2f} standard errors off"]
    return []


def check_mle(X, degrees, d: int, theta_hat) -> list[str]:
    """A converged MLE matches moments: E_hat[T] = E_theta_hat[T]."""
    degrees = np.asarray(degrees)
    emp = reference.monomials(np.asarray(X), degrees).mean(axis=0)
    model = reference.family_mean_T(degrees, d, theta_hat)
    gap = float(np.max(np.abs(emp - model)))
    if not gap <= MLE_MOMENT_TOL * max(1.0, float(np.max(np.abs(emp)))):
        return [f"MLE (n={degrees.shape[1]}, d={d}) misses the empirical moments by {gap:.3e}"]
    return []


def check_gaussian_point(fisher: float, c_p: float) -> list[str]:
    """At d = 1, n = 1, theta = 0 both constants equal 1/2."""
    problems = []
    for name, v in (("Fisher information", fisher), ("restricted Poincare constant", c_p)):
        if not abs(v - 0.5) <= GAUSSIAN_TOL:
            problems.append(f"{name} at the Gaussian point is {v!r}, not 1/2")
    return problems


def check_audit(report: dict, corrupt: bool) -> list[str]:
    """All seven audit checks hold; under corrupt='fisher', check (iv) fails."""
    suite = report["report"]["suites"]["bounds"]
    checks = {c["name"]: c["holds"] for c in suite["checks"]}
    missing = [c for c in SEVEN_CHECKS if c not in checks]
    if missing:
        return [f"audit lacks checks {missing}"]
    label = f"audit n={suite['family']['n']} d={suite['family']['d']} B={suite['family']['B']}"
    if corrupt:
        return [] if not checks["iv_lambda_min_pos"] else [f"{label}: corrupted Fisher passed (iv)"]
    failing = [name for name, holds in checks.items() if not holds]
    return [f"{label}: checks fail: {failing}"] if failing else []


def check_rounds_identical(rounds: list[list[dict]]) -> list[str]:
    """Same inputs, same seed: every round's outputs are byte-identical."""
    first = [json.dumps(op, sort_keys=True) for op in rounds[0]]
    for k, ops in enumerate(rounds[1:], start=2):
        if [json.dumps(op, sort_keys=True) for op in ops] != first:
            return [f"round {k} outputs differ from round 1"]
    return []

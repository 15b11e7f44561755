"""Desk-scale acceptance gate, one test per criterion.

Each criterion runs through a pure runner returning ``(passed, report)``
where the report holds only deterministic values (no wall times, no
timestamps).  The last test reruns criteria 1-8 with identical seeds and
requires byte-identical canonical JSON, so anything nondeterministic that
sneaks into a report fails the gate.  Stated time budgets are generous
ceilings for a desk machine and are asserted alongside the numerical checks.

Run ``pytest tests/test_acceptance.py -v -s`` to see the one-line verdicts.
"""

import time

import numpy as np

from polyscore.estimators import (
    convergence_study,
    fit_score_matching,
    sm_loss,
)
from polyscore.expfam import (
    ParamVector,
    family_grid,
    random_params,
    verify_1d_moment_bound,
    verify_int_concentration,
    zero_params,
)
from polyscore.fisher import (
    fisher_info,
    gamma_bound,
    gram_matrix,
    restricted_poincare,
    sm_moment_inputs,
    verify_bounds,
)
from polyscore.hardness import (
    default_params,
    encode,
    load_fixture,
    mean_sign_experiment,
    orthant_mass,
    pad_with_duplicates,
    random_formula,
    verify_roots,
    zgap_experiment,
)
from polyscore.polybasis import (
    PolyCoeffs,
    check_mon_l2_bound,
    enumerate_basis,
    from_legendre,
    graded_indices,
    legendre_indices,
    sample_stats,
    to_legendre,
)
from polyscore.reports import canonical_json
from polyscore.sampler import SampleSet, sample_exact_separable


def run_criterion_1(seed=101):
    """Closed-form score matching: global optimality plus normal-equation residual.

    50 random data sets at n <= 2, d = 3, N = 1000; the fitted loss must not
    exceed the loss at any of 100 random probe parameters, and the residual of
    the normal equations must stay below 1e-8 * (1 + ||theta_hat||).
    """
    rng = np.random.default_rng(seed)
    probe_scales = (1e-3, 1e-2, 1e-1, 1.0)
    worst_resid = 0.0
    worst_margin = np.inf
    for i in range(50):
        n = 1 + i % 2
        basis = enumerate_basis(n, 3)
        data = rng.normal(scale=0.8, size=(1000, n))
        s = SampleSet(n=n, N=1000, data=data, seed=seed + i)
        fit = fit_score_matching(s, basis)
        st = sample_stats(basis, s.data)
        resid = float(np.linalg.norm(st.gram @ fit.theta_hat + st.sm_linear))
        worst_resid = max(worst_resid, resid / (1.0 + float(np.linalg.norm(fit.theta_hat))))
        for j in range(100):
            step = probe_scales[j % 4] * rng.standard_normal(basis.size)
            theta_p = fit.theta_hat + step
            probe = ParamVector(basis, theta_p, max(1.0, float(np.max(np.abs(theta_p)))))
            worst_margin = min(worst_margin, sm_loss(probe, s) - fit.loss)
    passed = worst_resid <= 1e-8 and worst_margin >= -1e-9
    report = {
        "instances": 50,
        "probes_per_instance": 100,
        "worst_relative_residual": worst_resid,
        "worst_probe_margin": float(worst_margin),
    }
    return passed, report


def run_criterion_2(seed=11):
    """1/N rate in the Gaussian subfamily for both estimators.

    d = 1, n = 1, theta* = 1: the log-log slope of the median squared error
    over N in {1e2, 1e3, 1e4, 1e5} must land in [-1.3, -0.7] for SM and MLE,
    and the SM/MLE error ratio must stay at or below 10 at every N.
    """
    basis = enumerate_basis(1, 1)
    p_star = ParamVector(basis, np.array([1.0]), 1.0)
    Ns = (100, 1_000, 10_000, 100_000)
    sm = convergence_study(p_star, Ns, trials=20, estimator="SM", seed=seed)
    mle = convergence_study(p_star, Ns, trials=20, estimator="MLE", seed=seed)
    ratios = {N: sm.medians[N] / mle.medians[N] for N in Ns}
    slopes_ok = -1.3 <= sm.slope <= -0.7 and -1.3 <= mle.slope <= -0.7
    ratios_ok = all(r <= 10.0 for r in ratios.values())
    report = {
        "Ns": list(Ns),
        "trials": 20,
        "sm_slope": sm.slope,
        "mle_slope": mle.slope,
        "sm_medians": {str(N): sm.medians[N] for N in Ns},
        "mle_medians": {str(N): mle.medians[N] for N in Ns},
        "sm_over_mle_ratio": {str(N): float(ratios[N]) for N in Ns},
    }
    return slopes_ok and ratios_ok, report


def run_criterion_3(seed=303):
    """Fisher information and restricted Poincare constant at known values.

    At d = 1, n = 1, theta = 0 the base measure is exp(-x^2), so the Fisher
    information and the restricted Poincare constant both equal 1/2 exactly;
    quadrature must reproduce them to 1e-6.  The spectral cap on C_P must
    then hold for 20 random members at d = 3, n = 1, B = 1.
    """
    basis1 = enumerate_basis(1, 1)
    grid1 = family_grid(basis1, 1.0)
    p0 = zero_params(1, 1)
    fisher_err = abs(float(fisher_info(p0, grid1)[0, 0]) - 0.5)
    c_p0 = restricted_poincare(fisher_info(p0, grid1), gram_matrix(p0, grid1))
    poincare_err = abs(c_p0 - 0.5)

    basis3 = enumerate_basis(1, 3)
    grid3 = family_grid(basis3, 1.0)
    members = []
    for k in range(20):
        p = random_params(1, 3, 1.0, seed=seed + k)
        rep = verify_bounds(p, grid3, seed=seed + k)
        (vii,) = [c for c in rep.checks if c.name == "vii_poincare_cond"]
        members.append({"C_P": vii.lhs, "cap": vii.rhs, "holds": vii.holds})
    vii_ok = all(entry["holds"] for entry in members)
    passed = fisher_err <= 1e-6 and poincare_err <= 1e-6 and vii_ok
    report = {
        "fisher_error_at_zero": fisher_err,
        "poincare_error_at_zero": poincare_err,
        "poincare_cap_members": members,
    }
    return passed, report


def run_criterion_4(seed=404):
    """Scaled empirical covariance of the SM estimator against gamma_bound.

    200 exact-sampler trials at d = 3, n = 1, N = 1e4 and a fixed random
    theta*: the operator norm of N * Cov(theta_hat) must not exceed the
    quadrature-moment gamma bound.
    """
    trials, N = 200, 10_000
    basis = enumerate_basis(1, 3)
    p_star = random_params(1, 3, 1.0, seed=seed)
    grid = family_grid(basis, 1.0)
    I = fisher_info(p_star, grid)
    C_P = restricted_poincare(I, gram_matrix(p_star, grid))
    lam_min = float(np.linalg.eigvalsh(I)[0])
    gamma = gamma_bound(p_star, C_P, lam_min, sm_moment_inputs(p_star, grid))
    fits = np.empty((trials, basis.size))
    for t in range(trials):
        s = sample_exact_separable(p_star, N, seed=seed * 1000 + t)
        fits[t] = fit_score_matching(s, basis).theta_hat
    cov = np.atleast_2d(np.cov(fits.T, ddof=1))
    scaled_opnorm = float(N) * float(np.max(np.abs(np.linalg.eigvalsh(cov))))
    passed = scaled_opnorm <= gamma
    report = {
        "trials": trials,
        "N": N,
        "scaled_cov_opnorm": scaled_opnorm,
        "gamma_bound": gamma,
        "slack_factor": gamma / scaled_opnorm,
    }
    return passed, report


def run_criterion_5(seed=505):
    """Full spectral audit for ten random family members.

    Checks (i)-(vii) must all hold at n <= 2, d in {1, 3}, B in {1, 2}.
    """
    combos = [
        (1, 1, 1.0), (1, 3, 1.0), (2, 1, 1.0), (2, 3, 1.0),
        (1, 1, 2.0), (1, 3, 2.0), (2, 1, 2.0), (2, 3, 2.0),
        (1, 3, 2.0), (2, 3, 1.0),
    ]
    members = []
    for i, (n, d, B) in enumerate(combos):
        p = random_params(n, d, B, seed=seed + i)
        rep = verify_bounds(p, family_grid(p.basis, B), seed=seed + i)
        members.append({
            "n": n, "d": d, "B": B,
            "all_hold": rep.all_hold,
            "lambda_min": rep.lambda_min,
            "C_P": rep.C_P,
        })
    passed = all(m["all_hold"] for m in members)
    return passed, {"members": members}


def run_criterion_6(seed=606):
    """Monomial-vs-L2 norm inequality and Legendre round trip.

    ||f||_m^2 <= C(n+d, d) (4e)^d ||f||_{L2}^2 for 1000 random polynomials
    with n <= 3, d <= 5; transforming to the Legendre basis and back must
    reproduce coefficients to 1e-9.
    """
    rng = np.random.default_rng(seed)
    holds = 0
    worst_ratio = 0.0
    for i in range(1000):
        n = 1 + i % 3
        d = 1 + i % 5
        idxs = graded_indices(n, d, min_total=0)
        f = PolyCoeffs.make(n, dict(zip(idxs, rng.standard_normal(len(idxs)))))
        check = check_mon_l2_bound(f, n, d)
        holds += bool(check.holds)
        worst_ratio = max(worst_ratio, check.lhs / check.rhs)
    roundtrip_err = 0.0
    for n, d in ((1, 5), (2, 4), (3, 5)):
        c = rng.standard_normal(len(legendre_indices(n, d)))
        back = to_legendre(from_legendre(c, n, d), d)
        roundtrip_err = max(roundtrip_err, float(np.max(np.abs(back - c))))
    passed = holds == 1000 and roundtrip_err <= 1e-9
    report = {
        "polynomials": 1000,
        "bound_holds": holds,
        "worst_norm_ratio": worst_ratio,
        "legendre_roundtrip_error": roundtrip_err,
    }
    return passed, report


def run_criterion_7(seed=707):
    """CNF reduction: exact roots, coefficient box, and the three experiments.

    verify_roots must certify 100 random formulas with n <= 12 by exhaustive
    vertex scan, every encoding must respect |theta| <= 64 m alpha + 2 beta,
    and at the prescribed couplings the partition-gap separation, sign
    recovery, and satisfying-orthant mass must all hold on the n = 3 fixtures.
    """
    rng = np.random.default_rng(seed)
    roots_ok = True
    worst_box_ratio = 0.0
    for k in range(100):
        n = 3 + k % 10
        m = int(rng.integers(1, 10 * n + 1))
        C = random_formula(n, m, seed=seed + k)
        inst = encode(C, 1.0, 2.0)
        rep = verify_roots(inst, seed=seed + k)
        roots_ok = roots_ok and rep["holds"]
        coeff_max = float(np.max(np.abs(inst.theta.theta)))
        worst_box_ratio = max(worst_box_ratio, coeff_max / inst.B)
    box_ok = worst_box_ratio <= 1.0

    sat8 = pad_with_duplicates(load_fixture("uniq3"), 8)
    unsat8 = load_fixture("unsat8")
    pz = default_params(3, 8, "zeroth")
    zrep = zgap_experiment(sat8, unsat8, pz.alpha, pz.beta)

    uniq3 = load_fixture("uniq3")
    pf = default_params(3, uniq3.m, "first")
    srep = mean_sign_experiment(uniq3, pf.alpha, pf.beta)
    sign_ok = srep["checks"][0].holds and srep["min_margin"] >= 1.0 / 20.0

    clause1 = load_fixture("clause1")
    po = default_params(3, clause1.m, "sampling")
    orep = orthant_mass(clause1, po.alpha, po.beta)
    mass_ok = orep["checks"][0].holds and orep["mass_on_satisfying_orthants"] >= 0.5

    passed = roots_ok and box_ok and zrep["separated"] and sign_ok and mass_ok
    report = {
        "random_formulas": 100,
        "roots_certified": roots_ok,
        "worst_coeff_to_box_ratio": worst_box_ratio,
        "zgap": {
            "gap": zrep["gap"],
            "threshold": zrep["threshold"],
            "separated": zrep["separated"],
        },
        "mean_sign": {
            "recovered": srep["recovered"],
            "min_margin": srep["min_margin"],
        },
        "orthant_mass": orep["mass_on_satisfying_orthants"],
    }
    return passed, report


def run_criterion_8(seed=None):
    """Integral concentration at three admissible triples plus moment caps.

    Each (beta, r, m) satisfies beta > 150, 6/beta < r < 0.04, and
    beta >= 40 r^-2 log(4m/r); the k <= 8 well moments must obey E[x^k] <= 2^k.
    """
    triples = ((2.2e5, 0.03, 1), (2.0e5, 0.035, 2), (6.5e5, 0.02, 3))
    conc = [verify_int_concentration(beta, r, m) for beta, r, m in triples]
    mom = verify_1d_moment_bound(350.0)
    passed = all(c.holds for c in conc) and all(c.holds for c in mom)
    report = {
        "triples": [list(t) for t in triples],
        "concentration": conc,
        "moment_beta": 350.0,
        "moment_checks": mom,
    }
    return passed, report


_RUNNERS = {
    1: run_criterion_1,
    2: run_criterion_2,
    3: run_criterion_3,
    4: run_criterion_4,
    5: run_criterion_5,
    6: run_criterion_6,
    7: run_criterion_7,
    8: run_criterion_8,
}

# canonical JSON of each report from the first pass, consumed by criterion 9
_FIRST_PASS: dict[int, str] = {}


def _verdict(k, passed, detail, report):
    _FIRST_PASS[k] = canonical_json(report)
    print(f"ACCEPTANCE {k}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {k} failed: {detail}"


def test_criterion_1_score_matching_closed_form():
    t0 = time.perf_counter()
    passed, rep = run_criterion_1()
    dt = time.perf_counter() - t0
    _verdict(
        1,
        passed and dt < 60.0,
        f"worst residual ratio {rep['worst_relative_residual']:.2e}, "
        f"worst probe margin {rep['worst_probe_margin']:.2e}, {dt:.1f}s",
        rep,
    )


def test_criterion_2_one_over_n_rate():
    t0 = time.perf_counter()
    passed, rep = run_criterion_2()
    dt = time.perf_counter() - t0
    _verdict(
        2,
        passed and dt < 300.0,
        f"SM slope {rep['sm_slope']:.3f}, MLE slope {rep['mle_slope']:.3f}, "
        f"max ratio {max(rep['sm_over_mle_ratio'].values()):.2f}, {dt:.1f}s",
        rep,
    )


def test_criterion_3_fisher_and_poincare():
    t0 = time.perf_counter()
    passed, rep = run_criterion_3()
    dt = time.perf_counter() - t0
    _verdict(
        3,
        passed and dt < 120.0,
        f"fisher err {rep['fisher_error_at_zero']:.1e}, "
        f"poincare err {rep['poincare_error_at_zero']:.1e}, "
        f"20/20 caps hold, {dt:.1f}s",
        rep,
    )


def test_criterion_4_covariance_vs_gamma():
    t0 = time.perf_counter()
    passed, rep = run_criterion_4()
    dt = time.perf_counter() - t0
    _verdict(
        4,
        passed and dt < 600.0,
        f"N*cov opnorm {rep['scaled_cov_opnorm']:.3f} <= gamma "
        f"{rep['gamma_bound']:.3f}, {dt:.1f}s",
        rep,
    )


def test_criterion_5_spectral_audits():
    t0 = time.perf_counter()
    passed, rep = run_criterion_5()
    dt = time.perf_counter() - t0
    n_hold = sum(m["all_hold"] for m in rep["members"])
    _verdict(5, passed and dt < 300.0, f"{n_hold}/10 members hold, {dt:.1f}s", rep)


def test_criterion_6_norm_inequality():
    t0 = time.perf_counter()
    passed, rep = run_criterion_6()
    dt = time.perf_counter() - t0
    _verdict(
        6,
        passed and dt < 60.0,
        f"{rep['bound_holds']}/1000 bounds hold, "
        f"roundtrip err {rep['legendre_roundtrip_error']:.1e}, {dt:.1f}s",
        rep,
    )


def test_criterion_7_cnf_reduction():
    t0 = time.perf_counter()
    passed, rep = run_criterion_7()
    dt = time.perf_counter() - t0
    _verdict(
        7,
        passed and dt < 900.0,
        f"roots {rep['roots_certified']}, gap {rep['zgap']['gap']:.1f} > "
        f"{rep['zgap']['threshold']:.3f}, margin {rep['mean_sign']['min_margin']:.3f}, "
        f"mass {rep['orthant_mass']:.4f}, {dt:.1f}s",
        rep,
    )


def test_criterion_8_integral_concentration():
    t0 = time.perf_counter()
    passed, rep = run_criterion_8()
    dt = time.perf_counter() - t0
    _verdict(8, passed and dt < 60.0, f"3 triples + k<=8 moments hold, {dt:.1f}s", rep)


def test_criterion_9_determinism():
    """Rerunning criteria 1-8 with identical seeds reproduces every report byte for byte."""
    mismatched = []
    for k in sorted(_RUNNERS):
        first = _FIRST_PASS.get(k)
        if first is None:
            first = canonical_json(_RUNNERS[k]()[1])
        second = canonical_json(_RUNNERS[k]()[1])
        if first != second:
            mismatched.append(k)
    passed = not mismatched
    detail = "byte-identical reports for criteria 1-8" if passed else f"mismatch in {mismatched}"
    print(f"ACCEPTANCE 9: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, detail

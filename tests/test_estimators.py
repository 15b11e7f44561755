"""Tests for the score-matching and MLE fits and the rate studies."""

import math

import numpy as np
import pytest

from polyscore.estimators import (
    FitReport,
    NonConvergenceError,
    SingularGramError,
    StudyResult,
    _median,
    convergence_study,
    fit_mle,
    fit_score_matching,
    mle_loss_and_grad,
    sm_loss,
    study_csv,
)
from polyscore import estimators, expfam
from polyscore.expfam import (
    GridConvergenceError,
    ParamVector,
    build_grid,
    family_grid,
    random_params,
    zero_params,
)
from polyscore.fisher import fisher_info
from polyscore.polybasis import enumerate_basis, sample_stats
from polyscore.sampler import SampleSet, sample_exact_separable

LOG_SQRT_PI = 0.5 * math.log(math.pi)


def _samples(values, n=1):
    data = np.asarray(values, dtype=float).reshape(-1, n)
    return SampleSet(n=n, N=len(data), data=data, seed=0)


def _gaussian_theta_star(B=1.0):
    basis = enumerate_basis(1, 1)
    return ParamVector(basis, np.array([1.0]), B)


@pytest.mark.parametrize("entry", [
    sm_loss,
    lambda p, s: fit_score_matching(s, p.basis),
    lambda p, s: fit_mle(s, p.basis, build_grid(2, 5.0, 50)),
    fisher_info,
], ids=["sm_loss", "fit_score_matching", "fit_mle", "fisher_info"])
def test_dimension_mismatch(entry):
    # every entry point reads the sample through SampleSet.stats, which refuses the basis
    with pytest.raises(ValueError, match="sample dimension 1 != basis dimension 2"):
        entry(zero_params(2, 1), _samples([0.0]))


class TestScoreMatchingClosedForm:
    def test_symmetric_pair_gives_zero(self):
        # d = 1: theta_hat = 2 * sample mean
        basis = enumerate_basis(1, 1)
        report = fit_score_matching(_samples([-0.7, 0.7]), basis)
        assert report.theta_hat[0] == pytest.approx(0.0, abs=1e-12)

    def test_three_point_hand_value(self):
        basis = enumerate_basis(1, 1)
        report = fit_score_matching(_samples([0.5, 1.0, 1.5]), basis)
        assert report.theta_hat[0] == pytest.approx(2.0, abs=1e-12)
        assert report.estimator == "SM"
        assert report.N == 3
        assert report.gram_condition >= 1.0

    def test_gaussian_recovery(self):
        # theta* = 1 makes p = N(1/2, 1/2); theta_hat = 2 * mean -> theta*
        p_star = _gaussian_theta_star()
        s = sample_exact_separable(p_star, 100_000, seed=1001)
        report = fit_score_matching(s, p_star.basis)
        assert abs(report.theta_hat[0] - 1.0) <= 0.05
        assert report.theta_hat[0] == pytest.approx(2.0 * s.data.mean(), abs=1e-12)

    def test_normal_equations_residual(self):
        basis = enumerate_basis(2, 3)
        rng = np.random.default_rng(8)
        s = SampleSet(n=2, N=500, data=rng.normal(scale=0.8, size=(500, 2)), seed=0)
        report = fit_score_matching(s, basis)
        st = sample_stats(basis, s.data)
        resid = np.linalg.norm(st.gram @ report.theta_hat + st.sm_linear)
        assert resid <= 1e-8 * (1 + np.linalg.norm(report.theta_hat))

    def test_minimizes_loss_against_probes(self):
        rng = np.random.default_rng(99)
        for trial in range(10):
            n = 1 + trial % 2
            basis = enumerate_basis(n, 3)
            data = rng.normal(scale=0.7, size=(200, n))
            s = SampleSet(n=n, N=200, data=data, seed=0)
            report = fit_score_matching(s, basis)
            best = sm_loss(ParamVector(basis, report.theta_hat, max(1.0, np.max(np.abs(report.theta_hat)))), s)
            for _ in range(20):
                probe = rng.uniform(-1, 1, basis.size)
                assert best <= sm_loss(ParamVector(basis, probe, 1.0), s) + 1e-9

    def test_degenerate_sample_names_null_monomials(self):
        # a single sample at 0 identifies only the linear direction
        basis = enumerate_basis(1, 3)
        with pytest.raises(SingularGramError) as err:
            fit_score_matching(_samples([0.0]), basis)
        assert "x1^2" in str(err.value) and "x1^3" in str(err.value)

    def test_empty_sample_rejected(self):
        basis = enumerate_basis(1, 1)
        with pytest.raises(ValueError, match="at least one"):
            fit_score_matching(SampleSet(n=1, N=0, data=np.zeros((0, 1)), seed=0), basis)

    def test_rank_deficient_but_consistent_uses_ridge(self):
        # the pair {-1, +1} at d = 3 gives a rank-2 Gram matrix, but the
        # right-hand side stays in its range: by hand, G = [[1,0,3],[0,4,0],
        # [3,0,9]] and b = (0,-6,0), so the minimizer is (0, 3/2, 0)
        basis = enumerate_basis(1, 3)
        report = fit_score_matching(_samples([-1.0, 1.0]), basis)
        assert np.allclose(report.theta_hat, [0.0, 1.5, 0.0], atol=1e-6)
        assert any("ridge" in note for note in report.notes)


class TestSmLoss:
    def test_hand_value_at_origin(self):
        # trace term -2, score zero at the origin
        p = zero_params(1, 1)
        assert sm_loss(p, _samples([0.0])) == pytest.approx(-2.0)

    def test_quadratic_along_segments(self):
        basis = enumerate_basis(2, 3)
        rng = np.random.default_rng(12)
        s = SampleSet(n=2, N=100, data=rng.normal(scale=0.6, size=(100, 2)), seed=0)
        for _ in range(5):
            th0 = rng.uniform(-0.5, 0.5, basis.size)
            delta = rng.uniform(-1, 1, basis.size)
            ts = np.linspace(-1, 1, 7)
            vals = [
                sm_loss(ParamVector(basis, th0 + t * delta, 2.0), s) for t in ts
            ]
            coeffs = np.polyfit(ts, vals, 2)
            resid = np.abs(np.polyval(coeffs, ts) - vals).max()
            assert resid <= 1e-9


class TestMleLossAndGrad:
    def test_loss_at_origin_sample(self):
        p = zero_params(1, 1)
        grid = build_grid(1, 6.0, 200)
        loss, grad = mle_loss_and_grad(p, _samples([0.0]), grid)
        assert loss == pytest.approx(-LOG_SQRT_PI, abs=1e-10)
        assert grad[0] == pytest.approx(0.0, abs=1e-12)

    def test_grad_matches_finite_differences(self):
        basis = enumerate_basis(1, 3)
        theta = np.array([0.4, -0.3, 0.2])
        grid = build_grid(1, 5.0, 240)
        rng = np.random.default_rng(5)
        s = SampleSet(n=1, N=50, data=rng.normal(scale=0.5, size=(50, 1)), seed=0)
        _, grad = mle_loss_and_grad(ParamVector(basis, theta, 1.0), s, grid)
        h = 1e-5
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            lp, _ = mle_loss_and_grad(ParamVector(basis, theta + e, 1.0), s, grid)
            lm, _ = mle_loss_and_grad(ParamVector(basis, theta - e, 1.0), s, grid)
            fd = (lp - lm) / (2 * h)
            assert grad[k] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_population_stationarity(self):
        # at theta* with N = 10^6 exact draws the gradient nearly vanishes
        p_star = _gaussian_theta_star()
        s = sample_exact_separable(p_star, 1_000_000, seed=2024)
        grid = build_grid(1, 7.0, 240)
        _, grad = mle_loss_and_grad(p_star, s, grid)
        assert np.linalg.norm(grad) <= 0.01

    def test_convergence_gate_fires(self):
        p = zero_params(1, 1)
        with pytest.raises(GridConvergenceError, match="gate"):
            mle_loss_and_grad(p, _samples([0.0]), build_grid(1, 6.0, 10))


class TestFitMle:
    def test_gaussian_matches_moment_matching(self):
        p_star = _gaussian_theta_star()
        s = sample_exact_separable(p_star, 100_000, seed=303)
        grid = family_grid(p_star.basis, 1.0)
        report = fit_mle(s, p_star.basis, grid, tol=1e-7)
        assert report.theta_hat[0] == pytest.approx(2.0 * s.data.mean(), abs=1e-6)
        assert report.estimator == "MLE"
        assert any(note.startswith("iterations=") for note in report.notes)

    def test_init_independence(self):
        # well-conditioned Gaussian subfamily: optima from different starts
        # agree to 10 tol (the condition number here is essentially 1)
        p_star = _gaussian_theta_star()
        s = sample_exact_separable(p_star, 2000, seed=404)
        grid = family_grid(p_star.basis, 1.0)
        tol = 1e-6
        a = fit_mle(s, p_star.basis, grid, init=None, tol=tol)
        b = fit_mle(s, p_star.basis, grid, init=np.array([0.8]), tol=tol)
        assert np.max(np.abs(a.theta_hat - b.theta_hat)) <= 10 * tol

    def test_concavity_along_segments(self):
        basis = enumerate_basis(1, 3)
        rng = np.random.default_rng(14)
        s = SampleSet(n=1, N=100, data=rng.normal(scale=0.5, size=(100, 1)), seed=0)
        grid = build_grid(1, 5.0, 240)
        for _ in range(3):
            th0 = rng.uniform(-0.3, 0.3, 3)
            delta = rng.uniform(-1, 1, 3)
            ts = np.linspace(-0.5, 0.5, 9)
            vals = np.array([
                mle_loss_and_grad(ParamVector(basis, th0 + t * delta, 1.0), s, grid)[0]
                for t in ts
            ])
            second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
            assert np.all(second <= 1e-8)

    def test_hessian_negative_semidefinite(self):
        basis = enumerate_basis(1, 3)
        rng = np.random.default_rng(15)
        s = SampleSet(n=1, N=300, data=rng.normal(scale=0.5, size=(300, 1)), seed=0)
        grid = build_grid(1, 5.0, 240)
        report = fit_mle(s, basis, grid, tol=1e-8)
        h = 1e-4
        H = np.zeros((3, 3))
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            _, gp = mle_loss_and_grad(ParamVector(basis, report.theta_hat + e, 2.0), s, grid)
            _, gm = mle_loss_and_grad(ParamVector(basis, report.theta_hat - e, 2.0), s, grid)
            H[i] = (gp - gm) / (2 * h)
        H = 0.5 * (H + H.T)
        assert np.linalg.eigvalsh(H).max() <= 1e-6

    def test_newton_reaches_tight_tol_on_coupled_member(self):
        # n = 2, d = 3 couples the coordinates; Newton steps on the Fisher
        # matrix reach 1e-9 in a handful of iterations
        basis = enumerate_basis(2, 3)
        rng = np.random.default_rng(21)
        s = SampleSet(n=2, N=500, data=rng.normal(scale=0.7, size=(500, 2)), seed=0)
        grid = build_grid(2, 4.5, 100)
        report = fit_mle(s, basis, grid, tol=1e-9)
        iterations = int(report.notes[0].split("=")[1])
        assert iterations <= 20
        box = max(1.0, float(np.max(np.abs(report.theta_hat))))
        _, grad = mle_loss_and_grad(ParamVector(basis, report.theta_hat, box), s, grid)
        assert np.max(np.abs(grad)) <= 1e-9

    def test_tol_below_rounding_bound_refused(self):
        basis = enumerate_basis(1, 1)
        s = _samples(np.random.default_rng(3).normal(0.0, 0.7, 200))
        with pytest.raises(NonConvergenceError, match="rounding bound"):
            fit_mle(s, basis, build_grid(1, 6.0, 200), tol=1e-15)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tol_refused(self, tol):
        s = _samples(np.random.default_rng(3).normal(0.0, 0.7, 200))
        with pytest.raises(ValueError, match="finite"):
            fit_mle(s, enumerate_basis(1, 1), build_grid(1, 6.0, 200), tol=tol)

    def test_gate_checked_at_start(self):
        basis = enumerate_basis(1, 1)
        with pytest.raises(GridConvergenceError):
            fit_mle(_samples([0.1, -0.2]), basis, build_grid(1, 6.0, 10))

    def test_one_coarse_pass_per_objective_and_two_doubled(self, monkeypatch):
        # the start's gate rides its objective pass, the optimum's reuses that
        # iterate's log Z: only the two doubled-grid passes are extra
        passes, evals = [], []
        quad, mom = expfam.poly_quadrature, estimators.moments
        monkeypatch.setattr(expfam, "poly_quadrature", lambda grid, *a, **k: passes.append(grid) or quad(grid, *a, **k))
        monkeypatch.setattr(estimators, "moments", lambda *a, **k: evals.append(1) or mom(*a, **k))
        s = sample_exact_separable(_gaussian_theta_star(), 2000, seed=404)
        grid = family_grid(enumerate_basis(1, 1), 1.0)
        passes.clear()
        report = fit_mle(s, enumerate_basis(1, 1), grid, tol=1e-6)
        assert int(report.notes[0].split("=")[1]) >= 1
        assert sum(g is grid for g in passes) == len(evals)
        assert len(passes) - len(evals) == 2


class TestFitReport:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="finite"):
            FitReport(
                theta_hat=np.array([np.nan]), loss=0.0, estimator="SM",
                gram_condition=1.0, N=1,
            )
        with pytest.raises(ValueError, match="gram_condition"):
            FitReport(
                theta_hat=np.array([0.0]), loss=0.0, estimator="SM",
                gram_condition=0.5, N=1,
            )


class TestConvergenceStudy:
    def test_sm_rate(self):
        p_star = _gaussian_theta_star()
        result = convergence_study(
            p_star, [100, 1000, 10_000, 100_000], trials=20, estimator="SM", seed=11
        )
        assert -1.3 <= result.slope <= -0.7
        assert result.medians[100_000] < result.medians[100]
        assert len(result.rows) == 80

    def test_mle_runs_and_matches_sm_scale(self):
        p_star = _gaussian_theta_star()
        sm = convergence_study(p_star, [100, 1000], trials=5, estimator="SM", seed=6)
        mle = convergence_study(p_star, [100, 1000], trials=5, estimator="MLE", seed=6)
        for N in (100, 1000):
            ratio = sm.medians[N] / mle.medians[N]
            assert 0.1 <= ratio <= 10.0

    @pytest.mark.parametrize("trials", [1, 3, 4])
    def test_medians_are_numpys(self, trials):
        result = convergence_study(_gaussian_theta_star(), [50, 100], trials=trials, estimator="SM", seed=4)
        for N in (50, 100):
            want = np.median([r["error_sq"] for r in result.rows if r["N"] == N])
            assert np.float64(result.medians[N]).tobytes() == want.tobytes()

    def test_median_of_awkward_values(self):
        rng = np.random.default_rng(2)
        for size in (1, 2, 5, 6, 40, 41):
            for v in (rng.normal(size=size) * 1e300, rng.uniform(size=size), np.full(size, 0.1)):
                assert np.float64(_median(list(v))).tobytes() == np.median(v).tobytes()
        assert math.isnan(_median([1.0, math.nan, 2.0])) and math.isnan(np.median([1.0, math.nan, 2.0]))
        assert _median([0.1, 0.2]) == np.median([0.1, 0.2]) == (0.1 + 0.2) / 2

    def test_trials_zero_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            convergence_study(_gaussian_theta_star(), [100], trials=0)

    def test_ns_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            convergence_study(_gaussian_theta_star(), [100, 100], trials=1)

    def test_csv_format(self):
        p_star = _gaussian_theta_star()
        result = convergence_study(p_star, [50, 100], trials=2, estimator="SM", seed=1)
        text = study_csv(result)
        lines = text.strip().splitlines()
        assert lines[0] == "estimator,n,d,B,N,trial,error_sq,wall_time_s"
        assert len(lines) == 1 + 4

    def test_csv_of_two_results_is_one_table(self):
        def result(estimator, errors):
            rows = [{"estimator": estimator, "n": 1, "d": 1, "B": 1.0, "N": 10, "trial": k,
                     "error_sq": e, "wall_time_s": 0.5} for k, e in enumerate(errors)]
            return StudyResult(estimator, 1, 1, 1.0, (10,), len(rows), rows, {10: errors[0]}, math.nan)

        lines = study_csv(result("SM", [0.25, 0.5]), result("MLE", [0.125])).splitlines()
        assert lines == [
            "estimator,n,d,B,N,trial,error_sq,wall_time_s",
            "SM,1,1,1.0,10,0,0.25,0.5",
            "SM,1,1,1.0,10,1,0.5,0.5",
            "MLE,1,1,1.0,10,0,0.125,0.5",
        ]

    def test_deterministic_given_seed(self):
        p_star = _gaussian_theta_star()
        a = convergence_study(p_star, [50, 100], trials=3, estimator="SM", seed=9)
        b = convergence_study(p_star, [50, 100], trials=3, estimator="SM", seed=9)
        assert [r["error_sq"] for r in a.rows] == [r["error_sq"] for r in b.rows]

    @pytest.mark.parametrize("Ns", [[-3, 5], [0, 5]])
    def test_sizes_below_one_refused_before_any_draw(self, monkeypatch, Ns):
        calls = []
        monkeypatch.setattr(estimators, "sample_exact_separable", lambda *a: calls.append("exact"))
        monkeypatch.setattr(estimators, "sample_mala_ensemble", lambda *a: calls.append("mala"))
        with pytest.raises(ValueError, match=f"sample sizes must be >= 1, got {Ns[0]}"):
            convergence_study(_gaussian_theta_star(), Ns, trials=2)
        assert calls == []

    def test_exact_sampler_errors_are_not_rerouted(self, monkeypatch):
        # a separable member goes to the exact sampler on its split alone; an
        # error there reaches the caller instead of starting MALA chains
        calls = []

        def exact(*a):
            raise ValueError("exact sampler failed")

        monkeypatch.setattr(estimators, "sample_exact_separable", exact)
        monkeypatch.setattr(estimators, "sample_mala_ensemble", lambda *a: calls.append("mala"))
        with pytest.raises(ValueError, match="exact sampler failed"):
            convergence_study(_gaussian_theta_star(), [5, 10], trials=1)
        assert calls == []

    def test_coupled_member_goes_to_mala(self, monkeypatch):
        class Routed(Exception):
            pass

        def exact(*a):
            raise AssertionError("a coupled member reached the exact sampler")

        def mala(*a):
            raise Routed

        monkeypatch.setattr(estimators, "sample_exact_separable", exact)
        monkeypatch.setattr(estimators, "sample_mala_ensemble", mala)
        with pytest.raises(Routed):
            convergence_study(random_params(2, 3, 1.0, 0), [5, 10], trials=1)

    def test_coupled_member_ensemble_deterministic(self):
        # a coupled member's trials are one MALA ensemble: rows repeat exactly,
        # wall times aside, and no two trials share draws
        p_star = random_params(2, 3, 1.0, 0)
        a, b = (convergence_study(p_star, [100, 200], trials=2, estimator="SM", seed=4) for _ in range(2))

        def strip(rows):
            return [{k: v for k, v in r.items() if k != "wall_time_s"} for r in rows]

        assert strip(a.rows) == strip(b.rows) and a.slope == b.slope
        assert len({r["error_sq"] for r in a.rows}) == 4
        assert all(r["wall_time_s"] > 0 for r in a.rows)

"""Tests for Fisher information, the Poincare constant, and the bound audit."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import linalg

from polyscore import expfam, fisher
from polyscore.errors import NumericalError
from polyscore.expfam import (
    GridConvergenceError,
    ParamVector,
    build_grid,
    log_unnormalized_density,
    quad_expectation,
    random_params,
    zero_params,
)
from polyscore.fisher import (
    SpectralReport,
    _jt_pass,
    _lambda_max,
    clip_spectrum,
    fisher_info,
    gamma_bound,
    gram_matrix,
    regularity_preflight,
    restricted_poincare,
    sm_moment_inputs,
    verify_bounds,
)
from polyscore.polybasis import PolyCoeffs, enumerate_basis, eval_jacobian, eval_laplacian, eval_suffstats
from polyscore.reports import default
from polyscore.sampler import SampleSet, sample_exact_separable


class TestFisherInfo:
    def test_gaussian_scalar(self):
        I = fisher_info(zero_params(1, 1), build_grid(1, 6.0, 200))
        assert I.shape == (1, 1)
        assert I[0, 0] == pytest.approx(0.5, abs=1e-10)

    def test_product_gaussian_diagonal(self):
        I = fisher_info(zero_params(2, 1), build_grid(2, 6.0, 200))
        assert np.allclose(I, np.diag([0.5, 0.5]), atol=1e-10)

    def test_symmetric_and_psd(self):
        p = random_params(1, 3, 1.0, seed=44)
        I = fisher_info(p, build_grid(1, 5.0, 240))
        assert np.array_equal(I, I.T)
        assert np.linalg.eigvalsh(I).min() >= -1e-10

    def test_sample_path_matches_grid(self):
        p = ParamVector(enumerate_basis(1, 1), np.array([1.0]), 1.0)
        grid_I = fisher_info(p, build_grid(1, 7.0, 200))
        s = sample_exact_separable(p, 1_000_000, seed=555)
        samp_I = fisher_info(p, s)
        # Var of the empirical variance of a Gaussian: 2 sigma^4 / N
        se = math.sqrt(2 * 0.5**2 / s.N)
        assert abs(samp_I[0, 0] - grid_I[0, 0]) < 3 * se

    def test_grid_gate(self):
        # a gate failure is a numerical failure (CLI exit 3), not a usage error
        with pytest.raises(GridConvergenceError, match="gate"):
            fisher_info(zero_params(1, 1), build_grid(1, 6.0, 10))


class TestGridGathers:
    def test_gram_and_laplacian_match_per_node_quadrature_n3(self):
        # the gathered statistics against integrands evaluated node by node
        p = random_params(3, 3, 1.0, seed=0)
        grid = build_grid(3, 4.5, 20)

        def jt_gram(X):
            J = eval_jacobian(p.basis, X)
            return np.einsum("ski,sli->skl", J, J)

        def lap2(X):
            L = eval_laplacian(p.basis, X)
            return np.sum(L * L, axis=1)

        _, (G, l2) = quad_expectation(
            grid, lambda X: log_unnormalized_density(p, X), [jt_gram, lap2]
        )
        got = gram_matrix(p, grid)
        assert np.max(np.abs(got - G)) <= 1e-12 * np.max(np.abs(G))
        assert sm_moment_inputs(p, grid)["E_dT2"] == pytest.approx(float(l2), rel=1e-12)

    @pytest.mark.parametrize(
        "n, grid", [(1, build_grid(1, 5.0, 240)), (2, build_grid(2, 4.0, 80)), (3, build_grid(3, 4.5, 20))]
    )
    def test_field_pass_matches_per_node_quadrature(self, n, grid):
        # op-norm(JT)^4 node by node with eigvalsh, |grad log h|^4 and check
        # (vi)'s <w, T> moments, against the slab fields and their reducer;
        # the n = 3 grid fails the gate, so the gated preflight reads the
        # same fields on one that passes it
        p = random_params(n, 3, 1.0, seed=70 + n)
        W = np.random.default_rng(n).standard_normal((5, p.basis.size))

        def opnorm4(X):
            J = eval_jacobian(p.basis, X)
            return np.linalg.eigvalsh(np.einsum("ski,skj->sij", J, J))[:, -1] ** 2

        def gradlogh4(X):
            return (16.0 * np.sum(X**6, axis=1)) ** 2

        def wt_and_square(X):
            Y = eval_suffstats(p.basis, X) @ W.T
            return np.hstack([Y, Y * Y])

        _, (m4, g4, wt) = quad_expectation(
            grid, lambda X: log_unnormalized_density(p, X), [opnorm4, gradlogh4, wt_and_square]
        )
        g2 = PolyCoeffs.from_arrays(n, 6 * np.eye(n, dtype=np.int64), np.full(n, 16.0))
        _, got_in, got = _jt_pass(p, grid, PolyCoeffs.stack([g2, PolyCoeffs.from_arrays(n, p.basis.degrees, W.T)]))
        assert got_in["E_opJT4"] == pytest.approx(float(m4), rel=1e-12)
        assert got[6] == pytest.approx(float(g4), rel=1e-12)
        got_wt = np.delete(got, [0, 6])
        assert np.max(np.abs(got_wt - wt)) <= 1e-12 * np.max(np.abs(wt))
        assert sm_moment_inputs(p, grid)["E_opJT4"] == pytest.approx(float(m4), rel=1e-12)
        fine = build_grid(3, 4.5, 80) if n == 3 else grid
        pre = regularity_preflight(p, fine)
        _, fine_in, (_, fine_g4) = _jt_pass(p, fine, g2)
        assert pre["E_opJT4"] == pytest.approx(fine_in["E_opJT4"], rel=1e-12)
        assert pre["E_gradlogh4"] == pytest.approx(float(fine_g4), rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_sample_opnorm_matches_spectral_norm(self, n):
        # the row mean of op-norm(JT)^4, the largest singular value of JT
        p = random_params(n, 3, 1.0, seed=80 + n)
        X = np.random.default_rng(n).normal(size=(300, n))
        want = np.mean(np.linalg.norm(eval_jacobian(p.basis, X), ord=2, axis=(1, 2)) ** 4)
        got = sm_moment_inputs(p, SampleSet(n=n, N=len(X), seed=0, data=X))["E_opJT4"]
        assert got == pytest.approx(float(want), rel=1e-12)

    def test_grid_dimension_mismatch(self):
        p = random_params(2, 3, 1.0, seed=0)
        for fn in (sm_moment_inputs, regularity_preflight):
            with pytest.raises(ValueError, match="grid dimension 3 != polynomial dimension 2"):
                fn(p, build_grid(3, 4.5, 12))

    def test_no_per_node_pass(self, monkeypatch):
        # the audit and the preflight integrate on slabs only
        def per_node(*args, **kwargs):
            raise AssertionError("per-node quadrature called")

        monkeypatch.setattr(expfam, "quad_expectation", per_node)
        monkeypatch.setattr(expfam.QuadratureGrid, "iter_chunks", per_node)
        p = random_params(3, 3, 1.0, seed=0)
        assert verify_bounds(p, build_grid(3, 4.5, 64)).all_hold
        out = regularity_preflight(p, build_grid(3, 4.5, 64))
        assert all(math.isfinite(v) for v in out.values())


def _psd(n: int, eigenvalues, rotation) -> np.ndarray:
    Q, _ = np.linalg.qr(np.asarray(rotation, dtype=float).reshape(n, n))
    A = (Q * np.asarray(eigenvalues, dtype=float)) @ Q.T
    return 0.5 * (A + A.T)


class TestLambdaMax:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 3),
        eigenvalues=st.lists(st.floats(0.0, 1e3), min_size=3, max_size=3),
        rotation=st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9),
        shape=st.sampled_from(["generic", "zero", "identity", "rank1", "top_pair", "bottom_pair"]),
    )
    @example(n=3, eigenvalues=[2.0, 2.0, 1.0], rotation=[0.3, -0.7, 0.2, 0.9, 0.1, -0.4, 0.5, 0.6, 0.8],
             shape="top_pair")
    def test_matches_eigvalsh(self, n, eigenvalues, rotation, shape):
        lam = np.sort(eigenvalues)[3 - n:]
        if shape == "zero":
            lam[:] = 0.0
        elif shape == "identity":
            lam[:] = lam[-1]
        elif shape == "rank1":
            lam[:-1] = 0.0
        elif shape == "top_pair":
            lam[-2:] = lam[-1]
        elif shape == "bottom_pair":
            lam[:2] = lam[0]
        A = _psd(n, lam, rotation[: n * n])
        got = _lambda_max(n, A[np.triu_indices(n)])
        assert abs(got - np.linalg.eigvalsh(A)[-1]) <= 1e-13 * np.linalg.norm(A, 2)

    def test_broadcasts_over_trailing_axes(self):
        rng = np.random.default_rng(4)
        mats = [_psd(3, rng.random(3), rng.standard_normal(9)) for _ in range(6)]
        upper = np.stack([A[np.triu_indices(3)] for A in mats], axis=-1).reshape(6, 2, 3)
        want = np.array([np.linalg.eigvalsh(A)[-1] for A in mats]).reshape(2, 3)
        assert np.allclose(_lambda_max(3, upper), want, rtol=1e-13, atol=0.0)


class TestRestrictedPoincare:
    def test_equal_forms_give_one(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(4, 4))
        spd = A @ A.T + 4 * np.eye(4)
        assert restricted_poincare(spd, spd) == pytest.approx(1.0, abs=1e-10)

    def test_gaussian_value(self):
        # d=1, n=1, theta=0: I = 1/2 and G = E[1] = 1, so C_P = 1/2
        p = zero_params(1, 1)
        grid = build_grid(1, 6.0, 200)
        I = fisher_info(p, grid)
        G = gram_matrix(p, grid)
        assert G[0, 0] == pytest.approx(1.0, abs=1e-10)
        assert restricted_poincare(I, G) == pytest.approx(0.5, abs=1e-6)

    def test_homogeneity(self):
        p = random_params(1, 3, 1.0, seed=8)
        grid = build_grid(1, 5.0, 240)
        I = fisher_info(p, grid)
        G = gram_matrix(p, grid)
        c = restricted_poincare(I, G)
        assert restricted_poincare(4.0 * I, G) == pytest.approx(4.0 * c, rel=1e-10)

    def test_witness_achieves_the_ratio(self):
        p = random_params(1, 3, 1.0, seed=9)
        grid = build_grid(1, 5.0, 240)
        I = fisher_info(p, grid)
        G = gram_matrix(p, grid)
        c, w = restricted_poincare(I, G, return_witness=True)
        ratio = float(w @ I @ w) / float(w @ G @ w)
        assert abs(ratio - c) <= 1e-8 * max(1.0, c)

    def test_random_vectors_satisfy_inequality(self):
        p = random_params(2, 3, 1.0, seed=10)
        grid = build_grid(2, 4.0, 160)
        I = fisher_info(p, grid)
        G = gram_matrix(p, grid)
        c = restricted_poincare(I, G)
        rng = np.random.default_rng(0)
        for _ in range(100):
            w = rng.standard_normal(len(I))
            assert float(w @ I @ w) <= c * float(w @ G @ w) * (1 + 1e-10)

    @pytest.mark.parametrize("i,n,d,B", [(3, 2, 3, 1.0), (7, 2, 3, 2.0)])
    def test_matches_scipy_pencil_on_criterion_5_members(self, i, n, d, B):
        # criterion 5's members 3 and 7; LAPACK's generalized sygvd is the reference
        p = random_params(n, d, B, seed=505 + i)
        grid = expfam.family_grid(p.basis, B)
        I, G = fisher_info(p, grid), gram_matrix(p, grid)
        c, w = restricted_poincare(I, G, return_witness=True)
        assert c == pytest.approx(linalg.eigh(I, G)[0][-1], rel=1e-10)
        assert float(w @ G @ w) == pytest.approx(1.0, rel=1e-10)
        assert float(w @ I @ w) == pytest.approx(c, rel=1e-10)

    def test_singular_gram_error_names_directions(self):
        basis = enumerate_basis(1, 3)
        G = np.diag([1.0, 0.0, 0.0])
        I = np.eye(3)
        with pytest.raises(NumericalError, match=r"x1\^2"):
            restricted_poincare(I, G, basis=basis)

    def test_indefinite_gram_rejected(self):
        with pytest.raises(NumericalError, match="singular"):
            restricted_poincare(np.eye(2), np.diag([1.0, -1.0]))


class TestGammaBound:
    def test_zero_theta_reduction(self):
        p = zero_params(1, 3)
        mom_in = {"E_opJT4": 123.0, "E_dT2": 7.0}
        expect = 2.0 * 0.8**2 * 7.0 / 0.3**2
        assert gamma_bound(p, 0.8, 0.3, mom_in) == pytest.approx(expect)

    def test_linear_case_hand_value(self):
        # d=1: JT is the identity, so op-norm^4 = 1 and the Laplacian vanishes
        p = ParamVector(enumerate_basis(1, 1), np.array([1.0]), 1.0)
        grid = build_grid(1, 7.0, 200)
        mom_in = sm_moment_inputs(p, grid)
        assert mom_in["E_opJT4"] == pytest.approx(1.0, abs=1e-12)
        assert mom_in["E_dT2"] == pytest.approx(0.0, abs=1e-12)
        got = gamma_bound(p, 0.5, 0.5, mom_in)
        assert got == pytest.approx(2.0 * 0.25 * 1.0 / 0.25, rel=1e-10)

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError, match="lambda_min"):
            gamma_bound(zero_params(1, 1), 1.0, 0.0, {"E_opJT4": 1.0, "E_dT2": 0.0})

    def test_covariance_dominated_on_gaussian(self):
        # quick desk version of the covariance comparison: N Cov(theta_hat)
        # for the Gaussian subfamily is about 4 Var(x) = 2, well under gamma
        from polyscore.estimators import fit_score_matching

        p = ParamVector(enumerate_basis(1, 1), np.array([1.0]), 1.0)
        grid = build_grid(1, 7.0, 200)
        I = fisher_info(p, grid)
        G = gram_matrix(p, grid)
        c = restricted_poincare(I, G)
        gamma = gamma_bound(p, c, float(np.linalg.eigvalsh(I)[0]), sm_moment_inputs(p, grid))
        N = 4000
        ests = []
        for t in range(60):
            s = sample_exact_separable(p, N, seed=7000 + t)
            ests.append(fit_score_matching(s, p.basis).theta_hat)
        cov = np.cov(np.array(ests).T, ddof=1).reshape(1, 1)
        assert N * cov[0, 0] <= gamma


class TestClipPolicy:
    def test_clips_tiny_negatives(self):
        w, note = clip_spectrum(np.array([-5e-11, 0.2, 1.0]))
        assert w[0] == 0.0 and note is not None and "clipped" in note

    def test_no_note_when_clean(self):
        w, note = clip_spectrum(np.array([0.1, 1.0]))
        assert note is None

    def test_rejects_real_negatives(self):
        with pytest.raises(NumericalError, match="refusing to clip"):
            clip_spectrum(np.array([-1e-9, 1.0]))


def _check_v_reference(p: ParamVector, I: np.ndarray, seed: int):
    """Check (v) as a loop over its 100 polynomials, each drawn in turn: (lhs, rhs, holds, log-margin)."""
    rng = np.random.default_rng(seed)
    log_den = fisher._log_var_lb_denominator(p.n, p.d, p.B)
    worst_margin, worst, ok = math.inf, (0.0, 0.0), True
    for _ in range(100):
        wvec = rng.standard_normal(p.basis.size)
        log_lhs = 2.0 * math.log(math.sqrt(sum(c * c for c in wvec.tolist()))) - log_den
        var = float(wvec @ I @ wvec)
        if var <= 0:
            return math.exp(log_lhs), var, False, -math.inf
        margin = math.log(var) - log_lhs
        if margin < worst_margin:
            worst_margin = margin
            worst = (math.exp(log_lhs) if log_lhs > -745.0 else 0.0, var)
        ok = ok and margin >= 0
    return *worst, ok, worst_margin


class TestVerifyBounds:
    def test_gaussian_all_hold(self):
        report = verify_bounds(zero_params(1, 1), build_grid(1, 6.0, 200))
        assert len(report.checks) == 7
        assert report.all_hold, [c for c in report.checks if not c.holds]
        assert report.lambda_min == pytest.approx(0.5, abs=1e-8)
        assert report.C_P == pytest.approx(0.5, abs=1e-6)
        for c in report.checks:
            assert math.isfinite(c.lhs)

    @pytest.mark.parametrize("B, seed", [(1.0, 0), (2.0, 473556262), (2.0, 5)])
    def test_d1_variance_check_reports_the_first_polynomial(self, B, seed):
        # at d = 1 every check (v) margin is Var(w x) / |w|^2 over the same
        # bound, one number up to rounding: the report must name polynomial 0
        p = zero_params(1, 1) if B == 1.0 else random_params(1, 1, B, seed=seed)
        check = verify_bounds(p, expfam.family_grid(p.basis, B), seed=seed).checks[4]
        w0 = np.random.default_rng(seed).standard_normal((100, 1))[0, 0]
        assert check.name == "v_variance_lb" and check.holds
        want = math.exp(math.log(w0 * w0) - fisher._log_var_lb_denominator(1, 1, B))
        assert math.isclose(check.lhs, want, rel_tol=1e-12, abs_tol=0.0)

    def test_random_cubic_member_holds(self):
        p = random_params(1, 3, 1.0, seed=60)
        report = verify_bounds(p, build_grid(1, 5.0, 240), seed=1)
        assert report.all_hold, [c for c in report.checks if not c.holds]
        assert report.gamma_bound > 0

    def test_two_dim_member_holds(self):
        p = random_params(2, 3, 1.0, seed=61)
        report = verify_bounds(p, build_grid(2, 4.0, 160), seed=2)
        assert report.all_hold, [c for c in report.checks if not c.holds]

    def test_field_blocks_bound_the_audit_peak(self):
        # the n = 2, d = 1 audit keeps most of its family grid's 200^2 nodes;
        # its 8 fields in one (8, K, K) piece peaked near 4.2 MB, in row blocks
        # of 2^16 values near 1.4 MB
        p = random_params(2, 1, 1.0, seed=3)
        grid = expfam.family_grid(p.basis, 1.0)
        want = verify_bounds(p, grid, seed=0)  # warms the cached rules and field tables
        tracemalloc.start()
        try:
            got = verify_bounds(p, grid, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 2 * 2**20

    def test_corrupt_fisher_fails_iv(self):
        report = verify_bounds(zero_params(1, 1), build_grid(1, 6.0, 200), corrupt="fisher")
        by_name = {c.name: c for c in report.checks}
        assert not by_name["iv_lambda_min_pos"].holds
        assert "fault injection" in by_name["iv_lambda_min_pos"].note
        assert report.lambda_min < 0

    def test_lambda_min_clipped_to_zero_leaves_vii_cap_and_gamma_undefined(self, monkeypatch):
        # a spectrum clipped to 0 has no conditioning cap and no gamma bound: both are None,
        # which a report writes as null, not as Infinity
        monkeypatch.setattr(fisher, "clip_spectrum", lambda w: (np.concatenate([[0.0], w[1:]]), "clipped"))
        report = verify_bounds(random_params(1, 3, 1.0, seed=60), build_grid(1, 5.0, 240), seed=1)
        vii = {c.name: c for c in report.checks}["vii_poincare_cond"]
        assert report.lambda_min == 0.0 and report.gamma_bound is None
        assert vii.rhs is None and not vii.holds
        json.dumps(report, default=default, allow_nan=False)

    def test_corrupt_fisher_fails_vi_too(self):
        # (vi) integrates Var(<w, T>) apart from the Fisher matrix it checks
        p = random_params(2, 3, 1.0, seed=61)
        report = verify_bounds(p, build_grid(2, 4.0, 160), seed=2, corrupt="fisher")
        by_name = {c.name: c for c in report.checks}
        assert not by_name["iv_lambda_min_pos"].holds
        assert not by_name["vi_variance_identity"].holds

    @pytest.mark.parametrize("corrupt, seed", [(None, 2), ("fisher", 0)])
    def test_variance_lb_matches_per_polynomial_loop(self, corrupt, seed):
        # corrupted, the variances at draws 2, 3, 5, .. are <= 0 and a later
        # one is the most negative; the first is the one reported
        p = random_params(2, 3, 1.0, seed=61)
        grid = build_grid(2, 4.0, 160)
        I = fisher_info(p, grid)
        if corrupt:
            w, V = np.linalg.eigh(I)
            I = (V * np.sort(np.concatenate([-w[-1:], w[:-1]]))) @ V.T
        lhs, rhs, holds, margin = _check_v_reference(p, I, seed)
        assert holds == (corrupt is None)
        report = verify_bounds(p, grid, corrupt=corrupt, seed=seed)
        (v,) = [c for c in report.checks if c.name == "v_variance_lb"]
        assert v.lhs == pytest.approx(lhs, rel=1e-14) and v.rhs == pytest.approx(rhs, rel=1e-14)
        assert v.holds == holds and v.note.endswith(f"worst log-margin {margin:.3g}")

    def test_one_gated_pass(self, monkeypatch):
        # every statistic and field rides the coarse pass; the gate adds the doubled grid's log Z
        calls = []
        real = expfam.poly_quadrature

        def counted(*args, **kwargs):
            calls.append(args[0].points_per_axis)
            return real(*args, **kwargs)

        monkeypatch.setattr(expfam, "poly_quadrature", counted)
        monkeypatch.setattr(fisher, "poly_quadrature", counted)
        verify_bounds(random_params(2, 3, 1.0, seed=61), build_grid(2, 4.0, 160), seed=2)
        assert calls == [160, 320]

    def test_unknown_corruption_rejected(self):
        with pytest.raises(ValueError, match="corruption"):
            verify_bounds(zero_params(1, 1), build_grid(1, 6.0, 200), corrupt="gram")

    def test_deterministic(self):
        p = random_params(1, 3, 1.0, seed=62)
        grid = build_grid(1, 5.0, 240)
        a = verify_bounds(p, grid, seed=5)
        b = verify_bounds(p, grid, seed=5)
        assert a.C_P == b.C_P and a.gamma_bound == b.gamma_bound
        assert [(c.lhs, c.rhs, c.holds) for c in a.checks] == [
            (c.lhs, c.rhs, c.holds) for c in b.checks
        ]


class TestRegularityPreflight:
    def test_finite_on_desk_member(self):
        p = random_params(1, 3, 1.0, seed=63)
        out = regularity_preflight(p, build_grid(1, 5.0, 240))
        assert set(out) == {"E_opJT4", "E_dT2", "E_gradlogh4"}
        assert all(math.isfinite(v) and v >= 0 for v in out.values())

    def test_coarse_grid_fails_the_gate(self):
        # on 10 points E_gradlogh4 reads 17.1 against 2197 on 240; the
        # doubling gate refuses it, as it does for fisher_info
        p = random_params(1, 3, 1.0, seed=63)
        with pytest.raises(GridConvergenceError, match="gate"):
            regularity_preflight(p, build_grid(1, 5.0, 10))
        with pytest.raises(GridConvergenceError, match="gate"):
            fisher_info(p, build_grid(1, 5.0, 10))


class TestSpectralReport:
    def test_order_enforced(self):
        with pytest.raises(ValueError, match="exceeds"):
            SpectralReport(lambda_min=2.0, lambda_max=1.0, C_P=1.0, gamma_bound=1.0)

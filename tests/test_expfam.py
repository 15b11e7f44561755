"""Tests for the density family and the tensor quadrature oracle."""

import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, special

from polyscore import expfam
from polyscore.errors import NumericalError
from polyscore.expfam import (
    DEFAULT_POINTS_PER_AXIS,
    SCREEN_MARGIN,
    GridConvergenceError,
    ParamVector,
    auto_radius,
    build_grid,
    family_grid,
    family_radius,
    gated_quadrature,
    log_partition,
    log_unnormalized_density,
    moment_bound,
    moments,
    param_from_json,
    param_to_json,
    poly_quadrature,
    quad_expectation,
    quad_log_integral,
    random_params,
    score,
    tail_radius,
    verify_1d_moment_bound,
    verify_int_concentration,
    zero_params,
)
from polyscore.expfam import _dense, _leggauss, _split_separable, _well_moments
from polyscore.hardness import (
    default_params,
    encode,
    hardness_grid,
    load_fixture,
    satisfying_assignments,
)
from polyscore.polybasis import MonomialBasis, PolyCoeffs, enumerate_basis, eval_jacobian, eval_suffstats

LOG_SQRT_PI = 0.5 * math.log(math.pi)


class TestParamVector:
    def test_zero_params(self):
        p = zero_params(2, 3)
        assert p.n == 2 and p.d == 3 and p.B == 1.0
        assert p.theta.shape == (9,)
        assert not p.theta.any()

    def test_random_params_in_box(self):
        p = random_params(2, 3, 2.0, seed=11)
        assert np.max(np.abs(p.theta)) <= 2.0

    def test_random_params_seeded(self):
        a = random_params(1, 3, 1.0, seed=5)
        b = random_params(1, 3, 1.0, seed=5)
        assert np.array_equal(a.theta, b.theta)

    def test_box_violation_rejected(self):
        basis = enumerate_basis(1, 1)
        with pytest.raises(ValueError, match="outside the box"):
            ParamVector(basis, np.array([1.5]), 1.0)

    def test_bad_shape_rejected(self):
        basis = enumerate_basis(1, 3)
        with pytest.raises(ValueError, match="shape"):
            ParamVector(basis, np.zeros(2), 1.0)

    def test_small_B_rejected(self):
        basis = enumerate_basis(1, 1)
        with pytest.raises(ValueError, match="B >= 1"):
            ParamVector(basis, np.zeros(1), 0.5)

    @pytest.mark.parametrize("B", [math.nan, math.inf])
    def test_nonfinite_B_rejected(self, B):
        with pytest.raises(ValueError, match="finite"):
            ParamVector(enumerate_basis(1, 1), np.zeros(1), B)

    @pytest.mark.parametrize("B", [math.nan, math.inf, 1e308])
    def test_random_params_refuses_a_box_without_a_finite_width(self, B):
        with pytest.raises(ValueError, match="2B"):
            random_params(1, 3, B, seed=0)

    @pytest.mark.parametrize("radius", [math.nan, math.inf])
    def test_build_grid_refuses_a_radius_not_finite_and_positive(self, radius):
        with pytest.raises(ValueError, match="finite and positive"):
            build_grid(1, radius, 100)

    def test_nonfinite_theta_rejected(self):
        basis = enumerate_basis(1, 1)
        with pytest.raises(ValueError, match="finite"):
            ParamVector(basis, np.array([np.nan]), 1.0)

    def test_theta_read_only(self):
        p = zero_params(1, 1)
        with pytest.raises(ValueError):
            p.theta[0] = 5.0

    def test_json_round_trip(self):
        p = random_params(2, 3, 2.0, seed=7)
        q = param_from_json(param_to_json(p))
        assert q.n == p.n and q.d == p.d and q.B == p.B
        assert np.array_equal(q.theta, p.theta)


class TestDensityAndScore:
    def test_log_density_base_measure_only(self):
        # theta = 0 leaves just log h(x) = -x^{d+1}
        p = zero_params(1, 1)
        assert log_unnormalized_density(p, [2.0]) == pytest.approx(-4.0)
        assert log_unnormalized_density(p, [0.0]) == pytest.approx(0.0)

    def test_log_density_with_theta(self):
        basis = enumerate_basis(1, 1)
        p = ParamVector(basis, np.array([1.0]), 1.0)
        assert log_unnormalized_density(p, [2.0]) == pytest.approx(-2.0)

    def test_log_density_two_dim(self):
        p = zero_params(2, 3)
        assert log_unnormalized_density(p, [1.0, 2.0]) == pytest.approx(-17.0)

    def test_batch_matches_single(self):
        p = random_params(2, 3, 1.0, seed=3)
        X = np.random.default_rng(0).normal(size=(6, 2))
        batch = log_unnormalized_density(p, X)
        singles = [log_unnormalized_density(p, x) for x in X]
        assert np.allclose(batch, singles, rtol=0, atol=1e-14)
        assert np.allclose(score(p, X), [score(p, x) for x in X], atol=1e-14)

    def test_score_frozen_values(self):
        p0 = zero_params(1, 1)
        assert score(p0, [3.0])[0] == pytest.approx(-6.0)
        basis = enumerate_basis(1, 1)
        p1 = ParamVector(basis, np.array([1.0]), 1.0)
        assert score(p1, [0.0])[0] == pytest.approx(1.0)

    def test_score_matches_finite_differences(self):
        p = random_params(2, 3, 1.0, seed=9)
        x = np.array([0.4, -0.7])
        h = 1e-5
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (
                log_unnormalized_density(p, x + e) - log_unnormalized_density(p, x - e)
            ) / (2 * h)
            assert score(p, x)[i] == pytest.approx(fd, abs=1e-6)

    def test_nonfinite_point_rejected(self):
        p = zero_params(1, 1)
        with pytest.raises(ValueError, match="finite"):
            log_unnormalized_density(p, [np.nan])
        with pytest.raises(ValueError, match="finite"):
            score(p, [np.inf])


def _check_against_definitions(p, X):
    """Density and score on a batch X and on each row alone, against their definitions.

    The tolerance is 1e-12 of the sum of the terms' magnitudes, the scale at
    which any summation order may round.
    """
    D = p.d + 1
    T, J = eval_suffstats(p.basis, X), eval_jacobian(p.basis, X)
    want = -np.sum(X**D, axis=1) + T @ p.theta
    scale = np.sum(np.abs(X) ** D, axis=1) + np.abs(T) @ np.abs(p.theta)
    want_score = -D * X ** (D - 1) + np.einsum("ski,k->si", J, p.theta)
    score_scale = D * np.abs(X) ** (D - 1) + np.einsum("ski,k->si", np.abs(J), np.abs(p.theta))
    got, got_score = log_unnormalized_density(p, X), score(p, X)
    assert got.shape == (len(X),) and got_score.shape == X.shape
    assert np.all(np.abs(got - want) <= 1e-12 * scale)
    assert np.all(np.abs(got_score - want_score) <= 1e-12 * score_scale)
    for j, x in enumerate(X):
        one = log_unnormalized_density(p, x)
        assert isinstance(one, float)
        assert abs(one - got[j]) <= 1e-12 * scale[j]
        assert np.all(np.abs(score(p, x) - got_score[j]) <= 1e-12 * score_scale[j])


def _score_scale(p, X):
    """sum_k |c_k x^a_k| per score column, the scale at which the tables round."""
    st = p._score_terms
    return PolyCoeffs.from_arrays(p.n, st.degrees, np.abs(st.coeffs))(np.abs(X))


class TestSparseTermTable:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 5),
        d=st.sampled_from([1, 3]),
        zero_frac=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
        spread=st.sampled_from([0.1, 1.0, 4.0]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_matches_definitions(self, n, d, zero_frac, spread, seed):
        rng = np.random.default_rng(seed)
        basis = enumerate_basis(n, d)
        theta = rng.uniform(-2.0, 2.0, basis.size) * (rng.random(basis.size) >= zero_frac)
        p = ParamVector(basis, theta, 2.0)
        _check_against_definitions(p, spread * rng.standard_normal((7, n)))

    @pytest.mark.parametrize("n,d", [(1, 1), (1, 3), (3, 3), (5, 1)])
    def test_overflowing_rows_map_to_minus_inf(self, n, d):
        p = random_params(n, d, 1.0, seed=4)
        X = np.full((4, n), 0.5)
        X[1, 0] = 1e200
        X[3, -1] = -1e160
        vals = log_unnormalized_density(p, X)
        assert vals[1] == -np.inf and vals[3] == -np.inf
        assert np.all(np.isfinite(vals[[0, 2]])) and vals[0] == vals[2]
        assert log_unnormalized_density(p, X[1]) == -np.inf

    def test_sparse_hardness_member(self):
        # n = 10, d = 7: 43 of the 19,447 coefficients are nonzero, and the
        # coefficients are large, so the terms cancel near the wells
        from polyscore.hardness import CnfFormula, default_params, encode

        pp = default_params(10, 1, "sampling")
        p = encode(CnfFormula(10, ((1, 2, 3),)), pp.alpha, pp.beta).theta
        assert np.count_nonzero(p.theta) == 43
        rng = np.random.default_rng(3)
        X = np.vstack([np.sign(rng.standard_normal((4, 10))) + 0.05 * rng.standard_normal((4, 10)),
                       rng.uniform(-1.5, 1.5, (3, 10))])
        _check_against_definitions(p, X)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_with_score_reads_the_same_evaluation(self, n):
        p = random_params(n, 3, 1.0, seed=n)
        X = np.random.default_rng(n).normal(size=(6, n))
        X[2, 0] = 1e200  # far out: the value overflows and becomes -inf
        vals, grad = log_unnormalized_density(p, X, with_score=True)
        assert vals[2] == -np.inf and np.isfinite(vals[[0, 1, 3, 4, 5]]).all()
        assert np.array_equal(vals, log_unnormalized_density(p, X))
        # score reads the score-only table; where the value is finite the two
        # tables agree to rounding, 1e-15 of the score terms' magnitudes
        rows = [0, 1, 3, 4, 5]
        assert np.all(np.abs(score(p, X[rows]) - grad[rows]) <= 1e-15 * _score_scale(p, X[rows]))
        one, one_grad = log_unnormalized_density(p, X[0], with_score=True)
        assert isinstance(one, float) and one == log_unnormalized_density(p, X[0])
        assert one_grad.shape == (n,)
        assert np.all(np.abs(score(p, X[0]) - one_grad) <= 1e-15 * _score_scale(p, X[:1])[0])
        X[4, -1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            log_unnormalized_density(p, X, with_score=True)

    def test_score_is_finite_in_the_overflow_band(self):
        # x1^4 overflows at 1e80 while the score's -4 x1^3 does not; the joint
        # [log p | score] table would multiply that infinite power by 0
        p = random_params(2, 3, 1.0, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = score(p, [1e80, 0.5])
            batch = score(p, np.array([[1e80, 0.5], [0.5, -2e90]]))
        assert np.isfinite(g).all() and np.isfinite(batch).all()
        assert g[0] == pytest.approx(-4e240, rel=1e-12) and batch[0] == pytest.approx(g, rel=1e-15)
        assert batch[1, 1] == pytest.approx(-4 * (-2e90) ** 3, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_table_stacks_the_density_and_its_partials(self, n, d):
        # against the table written term by term: column 0 holds theta's rows
        # and -x_i^{d+1}, column 1 + i each term c x^a's a_i c x^(a - e_i)
        basis, eye = enumerate_basis(n, d), np.eye(n, dtype=np.int64)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            p = ParamVector(basis, rng.uniform(-1.0, 1.0, basis.size) * (rng.random(basis.size) < 0.7), 1.0)
            deg = np.vstack([basis.degrees, (d + 1) * eye])
            coef = np.concatenate([p.theta, -np.ones(n)])
            k, i = np.nonzero(deg)
            table = np.zeros((len(deg) + len(k), n + 1))
            table[: len(deg), 0] = coef
            table[len(deg) + np.arange(len(k)), 1 + i] = deg[k, i] * coef[k]
            want = PolyCoeffs.from_arrays(n, np.vstack([deg, deg[k] - eye[i]]), table)
            assert p._terms == want
            assert p._score_terms == PolyCoeffs.from_arrays(n, want.degrees, want.coeffs[:, 1:])
            assert p.log_density == PolyCoeffs.from_arrays(n, want.degrees, want.coeffs[:, 0])

    def test_table_is_cached_on_the_member(self):
        p = random_params(2, 3, 1.0, seed=1)
        score(p, [0.1, 0.2])
        assert p._terms is p._terms and p._score_terms is p._score_terms


RULE_ORDERS = [1, 2, 3, 7, 57, 96, 97, 486, 800, 2048]


class TestLegendreRule:
    """The Newton-built Gauss-Legendre rule against the eigenvalue methods and its defining property."""

    @pytest.mark.parametrize("k", RULE_ORDERS)
    def test_matches_eigenvalue_oracles(self, k):
        u, w = _leggauss(k)
        for ref_u, ref_w in (special.roots_legendre(k), np.polynomial.legendre.leggauss(k)):
            assert np.abs(u - ref_u).max() <= 4e-16
            assert np.abs(w - ref_w).max() <= 1e-12

    @pytest.mark.parametrize("k", RULE_ORDERS)
    def test_integrates_legendre_polynomials(self, k):
        # sum w P_m(x) = 2 delta_m0 for every m <= 2k - 1, P_m by the recurrence
        u, w = _leggauss(k)
        prev, p = np.ones(k), u.copy()
        errors = [abs(w.sum() - 2.0), abs(w @ u)]
        for m in range(1, 2 * k - 1):
            prev, p = p, ((2 * m + 1) * u * p - m * prev) / (m + 1)
            errors.append(abs(w @ p))
        assert len(errors) == 2 * k
        assert max(errors) <= 1e-14

    @pytest.mark.parametrize("k", RULE_ORDERS)
    def test_mirror_symmetric_cached_read_only(self, k):
        u, w = _leggauss(k)
        assert u.shape == w.shape == (k,)
        assert np.array_equal(u, -u[::-1]) and np.array_equal(w, w[::-1])
        assert np.all(np.diff(u) > 0)
        if k % 2:
            assert u[k // 2] == 0.0 and math.copysign(1.0, u[k // 2]) == 1.0
        assert _leggauss(k) is _leggauss(k)
        assert not u.flags.writeable and not w.flags.writeable

    def test_closed_forms(self):
        u, w = _leggauss(1)
        assert u.tolist() == [0.0] and w.tolist() == [2.0]
        u, w = _leggauss(2)
        np.testing.assert_allclose(u, [-1 / math.sqrt(3), 1 / math.sqrt(3)], rtol=2e-16)
        np.testing.assert_allclose(w, [1.0, 1.0], rtol=5e-16)


class TestBuildGrid:
    def test_weights_sum_to_box_length(self):
        for grid in (
            build_grid(1, 3.0, 64),
            build_grid(1, 2.0, 200, refine_near=[1.0], refine_width=0.1),
            build_grid(2, 5.0, 40),
        ):
            assert np.exp(grid.axis_logw).sum() == pytest.approx(2 * grid.radius, rel=1e-12)

    def test_node_count_is_exact(self):
        for ppa in (50, 97, 200):
            grid = build_grid(1, 2.0, ppa, refine_near=[-1.0, 1.0], refine_width=0.05)
            assert grid.axis_nodes.size == ppa
            assert grid.total_nodes == ppa

    def test_nodes_inside_box(self):
        grid = build_grid(1, 2.0, 120, refine_near=[1.0], refine_width=0.2)
        assert np.all(np.abs(grid.axis_nodes) < 2.0)
        assert np.all(np.diff(grid.axis_nodes) > 0)

    def test_refine_panel_layout(self):
        # width 0.1 well: a dedicated panel [0.95, 1.05] plus nested guards
        grid = build_grid(1, 2.0, 200, refine_near=[1.0], refine_width=0.1)
        expected = [
            (-2.0, 0.2),
            (0.2, 0.8),
            (0.8, 0.95),
            (0.95, 1.05),
            (1.05, 1.2),
            (1.2, 1.8),
            (1.8, 2.0),
        ]
        assert len(grid.panels) == len(expected)
        assert np.allclose(np.array(grid.panels), np.array(expected), atol=1e-12)

    def test_narrow_refine_resolves_sharp_well(self):
        # beta = 1e6 squeezes the wells to width ~1e-3; the plain rule misses
        # them entirely while the refined rule nails the two-spike integral
        beta = 1.0e6
        w = min(1.0, 1.0 / math.sqrt(beta))

        def logf(X):
            x = X[:, 0]
            return -beta * (1.0 - x * x) ** 2

        refined = build_grid(1, 2.0, 300, refine_near=[-1.0, 1.0], refine_width=w)
        got = quad_log_integral(refined, logf)
        # each well contributes ~ integral exp(-4 beta t^2) dt = sqrt(pi/(4 beta))
        expected = math.log(2.0) + 0.5 * math.log(math.pi / (4 * beta))
        assert got == pytest.approx(expected, abs=1e-4)

    def test_dimension_limits(self):
        with pytest.raises(ValueError, match="1 <= n <= 3"):
            build_grid(4, 2.0, 50)
        with pytest.raises(ValueError, match="1 <= n <= 3"):
            build_grid(0, 2.0, 50)
        with pytest.raises(ValueError, match="1 <= n <= 3"):
            family_grid(enumerate_basis(4, 1), 1.0)

    def test_radius_must_be_positive(self):
        with pytest.raises(ValueError, match="radius"):
            build_grid(1, 0.0, 50)

    def test_too_few_points_for_panels(self):
        with pytest.raises(ValueError, match="too small"):
            build_grid(1, 2.0, 20, refine_near=[1.0], refine_width=0.1)

    def test_single_panel_integrates_polynomials_exactly(self):
        grid = build_grid(1, 1.0, 6)
        X, logw = next(grid.iter_chunks())
        val = float(np.exp(logw) @ X[:, 0] ** 4)
        assert val == pytest.approx(2.0 / 5.0, rel=1e-14)

    def test_iter_chunks_partition(self):
        grid = build_grid(2, 3.0, 300)
        sizes = [len(X) for X, _ in grid.iter_chunks()]
        assert sum(sizes) == 300**2
        assert sizes[:-1] == [1 << 16] * (len(sizes) - 1) and len(sizes) > 1

    def test_doubled_grid(self):
        grid = build_grid(1, 2.0, 100, refine_near=[1.0], refine_width=0.1)
        dbl = grid.doubled()
        assert dbl.points_per_axis == 200
        assert dbl.radius == grid.radius
        assert dbl.panels == grid.panels


class TestLogPartition:
    def test_gaussian(self):
        p = zero_params(1, 1)
        assert log_partition(p, build_grid(1, 6.0, 200)) == pytest.approx(
            LOG_SQRT_PI, abs=1e-12
        )

    def test_quartic(self):
        # integral of exp(-x^4) over the line is 2 Gamma(5/4)
        p = zero_params(1, 3)
        expected = math.log(2.0) + math.lgamma(1.25)
        assert log_partition(p, build_grid(1, 5.0, 200)) == pytest.approx(expected, abs=1e-12)

    def test_two_dim_factorizes(self):
        p = zero_params(2, 1)
        assert log_partition(p, build_grid(2, 6.0, 200)) == pytest.approx(
            2 * LOG_SQRT_PI, abs=1e-11
        )

    def test_shifted_gaussian(self):
        # integral exp(-x^2 + x) = sqrt(pi) exp(1/4)
        basis = enumerate_basis(1, 1)
        p = ParamVector(basis, np.array([1.0]), 1.0)
        assert log_partition(p, build_grid(1, 7.0, 200)) == pytest.approx(
            LOG_SQRT_PI + 0.25, abs=1e-12
        )

    def test_grid_dimension_mismatch(self):
        p = zero_params(2, 1)
        with pytest.raises(ValueError, match="dimension"):
            log_partition(p, build_grid(1, 5.0, 50))

    def test_underflow_everywhere_raises(self):
        grid = build_grid(1, 2.0, 50)
        with pytest.raises(NumericalError, match="underflow"):
            quad_log_integral(grid, lambda X: np.full(len(X), -np.inf))

    def test_non_finite_log_values_carry_no_mass(self):
        # NaN and +inf log values get zero weight, the rule poly_quadrature
        # applies to powers that overflow far out; the grid's second node
        # chunk (first-axis nodes from index 218 on) is non-finite throughout
        grid = build_grid(2, 3.0, 300)
        edge = grid.axis_nodes[218]

        def logf(fill):
            def f(X):
                vals = -np.sum(X**2, axis=1)
                vals[(X[:, 0] >= edge) | (np.abs(X[:, 1] - 0.5) < 0.3)] = fill
                return vals
            return f

        X, logw = map(np.concatenate, zip(*grid.iter_chunks()))
        ok = np.isfinite(logf(np.nan)(X))
        want = math.log(np.sum(np.exp(logw[ok] - np.sum(X[ok] ** 2, axis=1))))
        zero_mass = quad_log_integral(grid, logf(-np.inf))
        assert zero_mass == pytest.approx(want, rel=1e-13)
        for fill in (np.nan, np.inf):
            assert quad_log_integral(grid, logf(fill)) == zero_mass

    def test_quad_expectation_gaussian_variance(self):
        p = zero_params(1, 1)
        grid = build_grid(1, 6.0, 200)
        logz, (var,) = quad_expectation(
            grid,
            lambda X: log_unnormalized_density(p, X),
            [lambda X: X[:, 0] ** 2],
        )
        assert logz == pytest.approx(LOG_SQRT_PI, abs=1e-12)
        assert float(var) == pytest.approx(0.5, abs=1e-12)


class TestMoments:
    def test_gaussian_moments(self):
        p = zero_params(1, 1)
        mom = moments(p, build_grid(1, 6.0, 200))
        assert mom.mean_T[0] == pytest.approx(0.0, abs=1e-14)
        assert mom.second_T[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert mom.log_partition == pytest.approx(LOG_SQRT_PI, abs=1e-12)

    def test_mean_is_log_partition_gradient(self):
        basis = enumerate_basis(1, 3)
        theta = np.array([0.3, -0.2, 0.1])
        grid = build_grid(1, 5.0, 240)
        mean = moments(ParamVector(basis, theta, 1.0), grid).mean_T
        h = 1e-5
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            fd = (
                log_partition(ParamVector(basis, theta + e, 1.0), grid)
                - log_partition(ParamVector(basis, theta - e, 1.0), grid)
            ) / (2 * h)
            assert mean[k] == pytest.approx(fd, abs=1e-7)

    def test_second_moment_symmetric_psd(self):
        p = random_params(2, 3, 1.0, seed=21)
        mom = moments(p, build_grid(2, 4.0, 120))
        assert np.array_equal(mom.second_T, mom.second_T.T)
        cov = mom.second_T - np.outer(mom.mean_T, mom.mean_T)
        assert np.linalg.eigvalsh(cov).min() > 0

    def test_against_direct_tensor_sum(self):
        # independent reduction: dense meshgrid + plain numpy sums, no
        # chunking, no log-space tricks, monomials straight from exponents
        basis = enumerate_basis(2, 3)
        theta = np.random.default_rng(17).uniform(-1, 1, basis.size)
        p = ParamVector(basis, theta, 1.0)
        grid = build_grid(2, 4.0, 80)
        g1, g2 = np.meshgrid(grid.axis_nodes, grid.axis_nodes, indexing="ij")
        X = np.column_stack([g1.ravel(), g2.ravel()])
        w = np.exp(np.add.outer(grid.axis_logw, grid.axis_logw)).ravel()
        T = np.prod(X[:, None, :] ** basis.degrees[None, :, :], axis=2)
        dens = w * np.exp(-np.sum(X**4, axis=1) + T @ theta)
        Z = dens.sum()
        mom = moments(p, grid)
        assert mom.log_partition == pytest.approx(math.log(Z), rel=1e-12)
        assert np.allclose(mom.mean_T, dens @ T / Z, rtol=1e-10, atol=1e-13)
        assert np.allclose(mom.second_T, (T * dens[:, None]).T @ T / Z, rtol=1e-10, atol=1e-13)

    def test_bitwise_deterministic(self):
        p = random_params(2, 3, 1.0, seed=33)
        grid = build_grid(2, 4.0, 300)
        a = moments(p, grid)
        b = moments(p, grid)
        assert np.array_equal(a.mean_T, b.mean_T)
        assert np.array_equal(a.second_T, b.second_T)
        assert a.log_partition == b.log_partition


class TestConvergenceGate:
    def test_fine_grid_passes(self):
        out, delta = gated_quadrature(build_grid(1, 6.0, 120), zero_params(1, 1).log_density)
        assert out.log_integral == pytest.approx(LOG_SQRT_PI, abs=1e-12) and delta < 1e-10

    def test_coarse_grid_fails(self):
        with pytest.raises(GridConvergenceError, match="gate"):
            gated_quadrature(build_grid(1, 6.0, 10), zero_params(1, 1).log_density)

    def test_gate_returns_the_coarse_pass(self):
        p = random_params(2, 3, 1.0, seed=8)
        grid = build_grid(2, 4.0, 120)
        out, delta = gated_quadrature(grid, p.log_density, order=2)
        again = poly_quadrature(grid, p.log_density, order=2)
        assert out.log_integral == again.log_integral
        assert np.array_equal(out.moments, again.moments)
        fine = poly_quadrature(grid.doubled(), p.log_density)
        assert delta == abs(fine.log_integral - again.log_integral)


def pointwise(p: ParamVector, grid, fns=()):
    """The chunked callable path: per-node log density and integrands."""
    return quad_expectation(grid, lambda X: log_unnormalized_density(p, X), list(fns))


# points per axis and radius of a small grid for each dimension
SMALL_GRIDS = {1: (48, 5.0), 2: (24, 4.5), 3: (12, 4.0)}


class TestPolyQuadrature:
    """The sum-factorised oracle against the pointwise callable path."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        n=st.sampled_from([1, 2, 3]),
        d=st.sampled_from([1, 3]),
        B=st.floats(1.0, 2.0),
        seed=st.integers(0, 2**31 - 1),
        extra_points=st.integers(0, 8),
    )
    def test_agrees_with_pointwise_path(self, n, d, B, seed, extra_points):
        p = random_params(n, d, B, seed)
        points, radius = SMALL_GRIDS[n]
        grid = build_grid(n, radius, points + extra_points)

        def T(X):
            return eval_suffstats(p.basis, X)

        logz, (mean_T, second_T) = pointwise(
            p, grid, [T, lambda X: T(X)[:, :, None] * T(X)[:, None, :]]
        )
        assert quad_log_integral(grid, lambda X: log_unnormalized_density(p, X)) == logz
        mom = moments(p, grid)
        assert mom.log_partition == pytest.approx(logz, rel=1e-12)
        assert log_partition(p, grid) == pytest.approx(logz, rel=1e-12)
        for got, ref in ((mom.mean_T, mean_T), (mom.second_T, second_T)):
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    def test_power_moments(self):
        # E[x^e] of the product density exp(-x1^2 - x2^2) is a product of
        # Gaussian moments: E[x^2] = 1/2, E[x^4] = 3/4, odd moments vanish
        out = poly_quadrature(build_grid(2, 7.0, 160), zero_params(2, 1).log_density, order=4)
        assert out.moments.shape == (5, 5)
        assert out.moments[0, 0] == 1.0
        gauss = np.array([1.0, 0.0, 0.5, 0.0, 0.75])
        np.testing.assert_allclose(out.moments, np.outer(gauss, gauss), atol=1e-12)
        assert out.log_integral == pytest.approx(2 * LOG_SQRT_PI, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_orthant_mass_counts_each_node_once(self, n):
        # an odd count on a panel symmetric about 0 puts nodes on the
        # coordinate planes; they belong to every orthant that touches them
        p = random_params(n, 3, 1.0, seed=n)
        grid = build_grid(n, 3.0, SMALL_GRIDS[n][0] + 1)
        assert np.any(grid.axis_nodes == 0.0)
        V = np.array([[1.0] * n, [-1.0] * n, [1.0] + [-1.0] * (n - 1)])

        def union(X):
            return np.any(np.all(X[:, None, :] * V[None] >= 0.0, axis=2), axis=1).astype(float)

        _, (mass,) = pointwise(p, grid, [union])
        out = poly_quadrature(grid, p.log_density, orthants=V)
        assert out.orthant_mass == pytest.approx(float(mass), abs=1e-14)
        assert poly_quadrature(grid, p.log_density).orthant_mass == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_fields_ride_the_pass(self, n):
        # fields x^e, e in {0, 1, 2}^n, summed linearly reproduce the power
        # moments; |x_1| = sqrt(x_1^2) through a nonlinear reducer matches
        # the pointwise path; the pass's own results do not move, but for
        # rounding at n = 1, where the member is separable and only the pass
        # with fields takes the sweep
        p = random_params(n, 3, 1.0, seed=10 + n)
        grid = build_grid(n, *SMALL_GRIDS[n][::-1])
        F = PolyCoeffs.from_arrays(n, list(itertools.product(range(3), repeat=n)), np.eye(3**n))

        def reduce(V, E):
            V = V.reshape(len(V), -1)
            return np.concatenate([V @ E.ravel(), [np.sqrt(np.abs(V[3 ** (n - 1) * 2])) @ E.ravel()]])

        plain = poly_quadrature(grid, p.log_density, order=2)
        out = poly_quadrature(grid, p.log_density, order=2, fields=(F, reduce))
        assert plain.field_means is None
        if n == 1:
            assert_close_to(out.log_integral, plain.log_integral)
            assert_close_to(out.moments, plain.moments)
        else:
            assert out.log_integral == plain.log_integral
            assert np.array_equal(out.moments, plain.moments)
        np.testing.assert_allclose(out.field_means[:-1], plain.moments.ravel(), rtol=1e-13, atol=1e-15)
        _, (abs_x1,) = pointwise(p, grid, [lambda X: np.abs(X[:, 0])])
        assert out.field_means[-1] == pytest.approx(float(abs_x1), rel=1e-13)

    def test_overflow_everywhere_raises_like_pointwise(self):
        # on a box this wide every node's powers overflow: zero density at
        # every node, which both paths and both routes report as underflow;
        # the member takes the sweep, the other two the product route, and
        # x_1^50 overflows even in extended precision, so no node of axis 1
        # has a finite log value
        grid = build_grid(2, 1e103, 60)
        for f in (
            random_params(2, 3, 1.0, seed=4).log_density,
            zero_params(2, 3).log_density,
            PolyCoeffs.from_arrays(2, [[50, 0], [0, 4]], [-1.0, -1.0]),
        ):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(NumericalError, match="underflow"):
                    quad_log_integral(grid, f)
                with pytest.raises(NumericalError, match="underflow"):
                    poly_quadrature(grid, f)

    def test_rejections(self):
        grid = build_grid(2, 3.0, 12)
        p = random_params(2, 1, 1.0, seed=0)
        with pytest.raises(ValueError, match="grid dimension 2 != polynomial dimension 3"):
            poly_quadrature(grid, zero_params(3, 1).log_density)
        with pytest.raises(ValueError, match="one polynomial"):
            poly_quadrature(grid, p._terms)
        with pytest.raises(ValueError, match="order"):
            poly_quadrature(grid, p.log_density, order=-1)
        with pytest.raises(ValueError, match="fields must be the columns"):
            poly_quadrature(grid, p.log_density, fields=(zero_params(3, 1)._terms, np.sum))
        with pytest.raises(ValueError, match="fields must be the columns"):
            poly_quadrature(grid, p.log_density, fields=(p.log_density, np.sum))


def split_reference(grid, f, fns=()):
    """Per-node quadrature of every grid node, the log density split as the slab pass splits it.

    The constant and the per-axis parts come from ``_split_separable`` and
    the mixed terms are evaluated node by node, so this path and
    :func:`poly_quadrature` differ only in the nodes screening skips and in
    rounding.  (Hardness couplings cancel to 1e-10 in a plain per-node
    evaluation of the energy.)
    """
    const, parts, mixed = _split_separable(grid, f)
    axis_parts = [part - grid.axis_logw for part in parts]  # iter_chunks adds the weights

    def logf(X):
        idx = [np.searchsorted(grid.axis_nodes, X[:, i]) for i in range(grid.n)]
        return sum(a[j] for a, j in zip(axis_parts, idx)) + mixed(X)

    logz, means = quad_expectation(grid, logf, list(fns))
    return const + logz, means


def power_table(n: int, order: int):
    """x -> x^e for every e in {0..order}^n, the layout of ``PolyIntegral.moments``."""
    def f(X):
        out = np.ones((len(X),) + (order + 1,) * n)
        for i in range(n):
            shape = (len(X),) + (1,) * i + (order + 1,) + (1,) * (n - 1 - i)
            out = out * np.vander(X[:, i], order + 1, increasing=True).reshape(shape)
        return out
    return f


def assert_close_to(got, want):
    """Within 1e-14 (1 + |want|) entrywise."""
    got, want = np.asarray(got), np.asarray(want)
    assert np.all(np.abs(got - want) <= 1e-14 * (1.0 + np.abs(want)))


class TestScreening:
    """Screened slab passes against the per-node sum over every node."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("B", [1.0, 2.0])
    def test_members_agree_with_every_node(self, n, B):
        p = random_params(n, 3, B, seed=20 + n)
        points, radius = {1: (48, 5.0), 2: (24, 4.5), 3: (16, 4.0)}[n]
        grid = build_grid(n, radius, points)
        T = PolyCoeffs.from_arrays(n, p.basis.degrees, np.eye(p.basis.size))

        def reduce(V, E):
            Y = V.reshape(len(V), -1)
            return np.concatenate([Y @ E.ravel(), Y * Y @ E.ravel()])

        def t_and_square(X):
            Y = eval_suffstats(p.basis, X)
            return np.hstack([Y, Y * Y])

        out = poly_quadrature(grid, p.log_density, order=2 * p.d, fields=(T, reduce))
        logz, (mom, fields) = split_reference(grid, p.log_density, [power_table(n, 2 * p.d), t_and_square])
        assert out.nodes < grid.total_nodes
        assert out.log_integral == pytest.approx(logz, rel=1e-14)
        assert_close_to(out.moments, mom)
        assert_close_to(out.field_means, fields)

    @pytest.mark.parametrize("name, mode", [("clause1", "sampling"), ("uniq3", "first"), ("unsat8", "zeroth")])
    def test_fixtures_agree_with_every_node(self, name, mode):
        # the orthants of the satisfying vertices and of the falsifying ones
        C = load_fixture(name)
        pp = default_params(3, C.m, mode, scale=0.01)
        f = encode(C, pp.alpha, pp.beta).log_density
        grid = hardness_grid(3, pp.beta, points_per_axis=60)
        sat = satisfying_assignments(C)
        for orthants in (sat, [v for v in itertools.product((-1, 1), repeat=3) if v not in sat]):
            V = np.asarray(orthants, dtype=float).reshape(-1, 3)

            def union(X):
                return np.any(np.all(X[:, None, :] * V[None] >= 0.0, axis=2), axis=1).astype(float)

            out = poly_quadrature(grid, f, order=2, orthants=orthants)
            logz, (mom, mass) = split_reference(grid, f, [power_table(3, 2), union])
            assert out.nodes < 0.1 * grid.total_nodes
            assert out.log_integral == pytest.approx(logz, rel=1e-14)
            assert out.orthant_mass == pytest.approx(float(mass), rel=1e-14)
            assert_close_to(out.moments, mom)

    def test_suite_pass_evaluates_few_nodes(self):
        # the clause1 orthant pass of `verify --suite hardness` at 165 points,
        # and the gate's doubled pass
        C = load_fixture("clause1")
        pp = default_params(3, C.m, "sampling", scale=0.01)
        f = encode(C, pp.alpha, pp.beta).log_density
        grid = hardness_grid(3, pp.beta, points_per_axis=165)
        for g in (grid, grid.doubled()):
            out = poly_quadrature(g, f, orthants=satisfying_assignments(C))
            assert out.nodes < 0.15 * g.total_nodes

    @pytest.mark.parametrize("name", ["clause1", "uniq3", "unsat8"])
    def test_slab_tensor_holds_only_mixed_rows(self, name):
        # the wells' pure powers (up to x_i^8) are added per axis; the slab
        # GEMMs read only the clauses' products, at most x_i^2 on each axis
        C = load_fixture(name)
        pp = default_params(3, C.m, "first", scale=0.01)
        f = encode(C, pp.alpha, pp.beta).log_density
        assert _dense(f).shape == (9, 9, 9)
        assert _dense(f.by_axis[2]).shape == (3, 3, 3)

    def test_separable_member_has_no_mixed_rows(self):
        p = random_params(3, 3, 1.0, seed=0)
        assert _dense(p.log_density.by_axis[2]).shape == (3, 3, 3)  # x_i^2 x_j at most, of 5^3
        theta = np.where(np.count_nonzero(p.basis.degrees, axis=1) > 1, 0.0, p.theta)
        mixed = ParamVector(p.basis, theta, p.B).log_density.by_axis[2]
        assert mixed.degrees.shape == (0, 3) and _dense(mixed).shape == (1, 1, 1)

    @staticmethod
    def pass_agrees_with_every_node(monkeypatch, grid, f, powers=power_table(3, 2)):
        """An n = 3 order-2 orthant pass against the per-node reference, at the tolerances above.

        Returns the pass and, for each slab's ``_LogSum.weights`` call, the
        running max before and after it and whether the slab was skipped.
        """
        V = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0]])

        def union(X):
            return np.any(np.all(X[:, None, :] * V[None] >= 0.0, axis=2), axis=1).astype(float)

        slabs, weights = [], expfam._LogSum.weights

        def spy(self, block, offset=0.0):
            before = self.m
            E = weights(self, block, offset)
            slabs.append((before, self.m, E is None))
            return E

        monkeypatch.setattr(expfam._LogSum, "weights", spy)
        out = poly_quadrature(grid, f, order=2, orthants=V)
        monkeypatch.undo()
        logz, (mom, mass) = split_reference(grid, f, [powers, union])
        assert out.log_integral == pytest.approx(logz, rel=1e-14)
        assert_close_to(out.moments, mom)
        assert_close_to(out.orthant_mass, mass)
        return out, slabs

    def test_rising_maximum_agrees_with_every_node(self, monkeypatch):
        # 3 x_1 + 3 x_1^3 - x_1^4 peaks near x_1 = 2.55, past the box's edge at
        # 2.5, so nearly every slab raises the log-sum-exp's maximum and
        # rescales the sums through the pre-shifted block's offset
        basis = enumerate_basis(3, 3)
        theta = np.random.default_rng(5).uniform(-0.3, 0.3, basis.size)
        rows = [tuple(r) for r in basis.degrees]
        theta[rows.index((1, 0, 0))] = theta[rows.index((3, 0, 0))] = 3.0
        f = ParamVector(basis, theta, 3.0).log_density
        _, slabs = self.pass_agrees_with_every_node(monkeypatch, build_grid(3, 2.5, 16), f)
        rises = sum(after > before for before, after, _ in slabs)
        assert len(slabs) >= 12 and rises >= len(slabs) - 2

    def test_overflowing_slabs_agree_with_every_node(self, monkeypatch):
        # on panels out to 2e77, x_i^4 overflows past 1.16e77 (those indices
        # are screened out) and the mixed row's x_1^6 past 2.6e51: the amgm
        # bound overflows there too, so those slabs are kept, every value in
        # them is non-finite and they are skipped; on the other slabs the far
        # x_2 and x_3 nodes read nan or -inf and get zero weight
        f = PolyCoeffs.from_arrays(3, [[4, 0, 0], [0, 4, 0], [0, 0, 4], [6, 2, 0], [1, 1, 1]], [-1.0, -1.0, -1.0, -1.0, 0.5])
        R = 2e77
        grid = expfam._panel_rule(3, R, 30, ((-R, -1e60), (-1e60, -4.0), (-4.0, 4.0), (4.0, 1e60), (1e60, R)))

        def powers(X):  # nodes past 1e50 have zero weight; x = 0 there keeps their power table finite
            return power_table(3, 2)(np.where(np.abs(X) < 1e50, X, 0.0))

        with np.errstate(over="ignore", invalid="ignore"):
            assert np.any(grid.axis_nodes**4 == math.inf)
            out, slabs = self.pass_agrees_with_every_node(monkeypatch, grid, f, powers)
        assert out.nodes < grid.total_nodes
        assert sum(skipped for *_, skipped in slabs) >= 8 and not all(skipped for *_, skipped in slabs)

    def test_unscreened_members_count_every_node(self):
        # a d = 1 member is a Gaussian with no mixed term; at the box's edge
        # it is down by about e^-49, inside the margin, so every node stays
        p = random_params(2, 1, 1.0, seed=0)
        grid = build_grid(2, 7.0, 40)
        assert poly_quadrature(grid, p.log_density).nodes == grid.total_nodes


class TestProductRoute:
    """Log densities without mixed rows, integrated axis by axis."""

    @staticmethod
    def members(n):
        p = random_params(n, 3, 1.0, seed=40 + n)
        theta = np.where(np.count_nonzero(p.basis.degrees, axis=1) > 1, 0.0, p.theta)
        return [zero_params(n, 3), random_params(n, 1, 1.0, seed=n), ParamVector(p.basis, theta, p.B)]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_separable_members_agree_with_every_node(self, n):
        # odd point counts on one panel symmetric about 0 put nodes at 0
        points, radius = {1: (49, 5.0), 2: (25, 4.5), 3: (13, 4.0)}[n]
        grid = build_grid(n, radius, points)
        assert np.any(grid.axis_nodes == 0.0)
        V = np.array([[1.0] * n, [-1.0] * n, [1.0] + [-1.0] * (n - 1)])

        def union(X):
            return np.any(np.all(X[:, None, :] * V[None] >= 0.0, axis=2), axis=1).astype(float)

        for p in self.members(n):
            f = p.log_density
            assert f.by_axis[2].degrees.shape == (0, n)
            out = poly_quadrature(grid, f, order=2 * p.d)
            logz, (mom, mass) = split_reference(grid, f, [power_table(n, 2 * p.d), union])
            assert out.nodes == grid.total_nodes
            assert out.moments[(0,) * n] == 1.0
            assert out.log_integral == pytest.approx(logz, rel=1e-14)
            assert_close_to(out.moments, mom)
            assert poly_quadrature(grid, f, orthants=V).orthant_mass == pytest.approx(float(mass), abs=1e-14)

    @pytest.mark.parametrize("n", [2, 3])
    def test_agrees_with_the_sweep(self, n):
        # one mixed row of coefficient 1e-30 sends the same density through the slab sweep
        grid = build_grid(n, 4.5, 25)
        tiny = PolyCoeffs.from_arrays(n, [[1, 1] + [0] * (n - 2)], [1e-30])
        for p in self.members(n):
            out = poly_quadrature(grid, p.log_density, order=2 * p.d)
            coupled = p.log_density + tiny
            assert coupled.by_axis[2].degrees.shape == (1, n)
            swept = poly_quadrature(grid, coupled, order=2 * p.d)
            assert abs(out.log_integral - swept.log_integral) <= 1e-14 * (1.0 + abs(swept.log_integral))
            assert_close_to(out.moments, swept.moments)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_fields_and_orthants_take_the_sweep(self, n, monkeypatch):
        # a separable pass with fields or orthants is one screened sweep and
        # no product pass; it agrees with the plain pass, which is the product route
        p = self.members(n)[2]
        grid = build_grid(n, 4.0, 16)
        F = PolyCoeffs.from_arrays(n, np.eye(n, dtype=np.int64), np.eye(n))

        def reduce(V, E):
            return V.reshape(len(V), -1) @ E.ravel()

        def refuse(*args):
            raise AssertionError("the pass took the product route")

        plain = poly_quadrature(grid, p.log_density, order=2)
        sweeps, sweep = [], expfam._sweep
        monkeypatch.setattr(expfam, "_sweep", lambda *args: sweeps.append(args) or sweep(*args))
        monkeypatch.setattr(expfam, "_product", refuse)
        for kw in ({"fields": (F, reduce)}, {"orthants": [[1.0] * n]}):
            sweeps.clear()
            out = poly_quadrature(grid, p.log_density, order=2, **kw)
            assert len(sweeps) == 1 and out.nodes < plain.nodes == grid.total_nodes
            assert abs(out.log_integral - plain.log_integral) <= 1e-14 * abs(plain.log_integral)
            assert_close_to(out.moments, plain.moments)
            if "fields" in kw:
                first = [out.moments[tuple(e)] for e in np.eye(n, dtype=int)]
                np.testing.assert_allclose(out.field_means, first, rtol=1e-13, atol=1e-15)

    def test_plain_passes_make_no_sweep(self, monkeypatch):
        # the passes of a separable member's MLE objective and audit moments
        def refuse(*args):
            raise AssertionError("a plain separable pass took the sweep")

        monkeypatch.setattr(expfam, "_sweep", refuse)
        for n in (1, 2, 3):
            for p in self.members(n):
                grid = family_grid(p.basis, p.B)
                moments(p, grid, check=True)
                log_partition(p, grid)

    def test_log_z_is_independent_of_the_order(self):
        # the weight sum is e's own sum, not the first entry of a power-table
        # product whose rounding follows the table's width; on the sweep it is
        # each slab's order-0 product 1^t E 1, not the corner of the slab GEMM
        coupled = [random_params(n, d, 1.0, seed) for n in (2, 3) for d in (3, 5) for seed in range(4)]
        for p in [q for n in (1, 2, 3) for q in self.members(n)] + coupled:
            grid = family_grid(p.basis, p.B)
            passes = [poly_quadrature(grid, p.log_density, order=k) for k in (0, 1, 2, 2 * p.d)]
            logz = {out.log_integral for out in passes}
            assert len(logz) == 1 and type(logz.pop()) is float
            assert all(out.moments[(0,) * p.n] == 1.0 for out in passes)
        p = random_params(1, 1, 1.0, seed=1)
        grid = family_grid(p.basis, p.B)
        assert moments(p, grid, check=True).log_partition == log_partition(p, grid)

    def test_no_work_grows_with_the_node_count(self):
        # 2000 points per axis at n = 3 is 8e9 nodes; the product route sums 3 x 2000
        grid = build_grid(3, 7.0, 2000)
        out = poly_quadrature(grid, zero_params(3, 1).log_density, order=2)
        assert out.nodes == grid.total_nodes == 8 * 10**9
        assert out.log_integral == pytest.approx(3 * LOG_SQRT_PI, abs=4e-15)
        assert out.moments[2, 0, 0] == pytest.approx(0.5, abs=1e-15)


class TestRadiusSelection:
    def test_auto_radius_gaussian(self):
        p = zero_params(1, 1)
        R = auto_radius(p)
        assert 2.0 <= R <= tail_radius(1, 1, 1.0)
        assert log_partition(p, build_grid(1, R, 200)) == pytest.approx(
            LOG_SQRT_PI, abs=1e-9
        )

    def test_default_grid_accurate(self):
        p = zero_params(1, 1)
        grid = build_grid(1, auto_radius(p), DEFAULT_POINTS_PER_AXIS[1])
        assert log_partition(p, grid) == pytest.approx(LOG_SQRT_PI, abs=1e-9)

    def test_family_grid_covers_corners(self):
        basis = enumerate_basis(1, 3)
        grid = family_grid(basis, 1.0)
        corner = ParamVector(basis, np.ones(3), 1.0)
        oracle, _ = integrate.quad(
            lambda x: math.exp(-(x**4) + x + x * x + x**3), -np.inf, np.inf
        )
        assert log_partition(corner, grid) == pytest.approx(math.log(oracle), abs=1e-8)

    def test_family_radius_at_least_single(self):
        basis = enumerate_basis(1, 3)
        assert family_radius(basis, 1.0) >= auto_radius(zero_params(1, 3))

    def test_family_radius_is_memoized(self, monkeypatch):
        # a repeat call, with an equal basis built afresh, reads the cache
        family_radius.cache_clear()
        calls, real = [], expfam.auto_radius
        monkeypatch.setattr(expfam, "auto_radius", lambda p: calls.append(p) or real(p))
        first = family_radius(enumerate_basis(2, 3), 1.5)
        assert len(calls) == 1
        assert family_radius(MonomialBasis(2, 3), 1.5) is first
        assert len(calls) == 1


def envelope_radius_reference(p: ParamVector) -> float:
    """The R at which auto_radius's log-space bound crosses e^-SCREEN_MARGIN, by quad and brentq.

    With u_i the weighted AM-GM bound of theta's rows (written out here
    afresh) and U_i, L_i = -t^{d+1} +- u_i(t), every integral over t >= 0 of
    e^{U_i} or e^{L_i} is taken as a shifted exponential: its log is the
    integrand's largest log value on the range plus the log of quad's
    integral of exp(log value - that), so nothing underflows at large B.
    """
    n, d = p.n, p.d
    g = np.zeros((n, d + 1))  # g[i, t]: the coefficient of |x_i|^t in u_i
    for a, c in zip(p.basis.degrees, p.theta):
        g[:, a.sum()] += abs(c) * a / a.sum()

    def log_integral(i, sign, lo):
        def f(t):
            return -(t ** (d + 1)) + sign * np.polyval(g[i, ::-1], t)

        ts = np.linspace(lo, lo + 100.0, 20001)
        top = float(ts[np.argmax(f(ts))])
        shift = f(top)
        hi = optimize.brentq(lambda t: f(t) - shift + 800.0, top + 1e-9, 1e4)  # e^-800 of the top past hi
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            val, _ = integrate.quad(lambda t: math.exp(f(t) - shift), lo, hi, points=[top] if top > lo else None,
                                    limit=200, epsabs=0.0, epsrel=1e-12)
        return shift + math.log(val)

    upper = [log_integral(i, 1.0, 0.0) for i in range(n)]
    lower = [log_integral(i, -1.0, 0.0) for i in range(n)]

    def log_bound(R):
        tails = [log_integral(i, 1.0, R) - upper[i] for i in range(n)]
        return np.logaddexp.reduce(tails) + sum(upper) - sum(lower)

    return optimize.brentq(lambda R: log_bound(R) + SCREEN_MARGIN, 0.5, 100.0, xtol=1e-10)


class TestEnvelopeRadius:
    """auto_radius and family_radius from the separable AM-GM envelope."""

    @pytest.mark.parametrize(
        "p",
        [
            ParamVector(enumerate_basis(1, 3), np.full(3, 10.0), 10.0),
            ParamVector(enumerate_basis(1, 3), np.full(3, 50.0), 50.0),
            random_params(2, 3, 1.0, seed=0),
            random_params(2, 1, 2.0, seed=1),
            random_params(3, 3, 1.0, seed=2),
        ],
        ids=["n1-B10", "n1-B50", "n2-d3", "n2-d1-B2", "n3-d3"],
    )
    def test_matches_the_log_space_bound(self, p):
        # the rule's nodes sit at or just past the crossing (measured: 0.15% to
        # 0.83% past it); a bound summed as exp underflows and lands far short
        # of it, at 10.1 for B = 10 and 38.8 for B = 50
        ref = envelope_radius_reference(p)
        assert ref * (1 - 1e-3) <= auto_radius(p) <= ref * 1.02

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 3, 5])
    @pytest.mark.parametrize("B", [1.0, 2.0])
    def test_members_lie_within_the_box_radius(self, n, d, B):
        basis = enumerate_basis(n, d)
        box = family_radius(basis, B)
        assert auto_radius(ParamVector(basis, np.full(basis.size, -B), B)) == box
        for seed in range(4):
            assert auto_radius(random_params(n, d, B, seed)) <= box

    @pytest.mark.parametrize("n, points", [(1, 800), (2, 200), (3, 80)])
    def test_mass_outside_the_box_is_negligible(self, n, points):
        p = random_params(n, 3, 1.0, seed=40 + n)
        R = auto_radius(p)
        _, (outside,) = quad_expectation(
            build_grid(n, 2.0 * R, points),
            lambda X: log_unnormalized_density(p, X),
            [lambda X: (np.abs(X) > R).any(axis=1).astype(float)],
        )
        assert outside <= 1e-15

    def test_no_quadrature_pass(self, monkeypatch):
        def refuse(*args, **kw):
            raise AssertionError("the radius ran a quadrature pass")

        monkeypatch.setattr(expfam, "poly_quadrature", refuse)
        monkeypatch.setattr(expfam, "build_grid", refuse)
        assert auto_radius(random_params(3, 3, 1.0, seed=0)) <= family_radius(enumerate_basis(3, 3), 1.0)


class TestFieldBlocks:
    def test_blocks_match_one_whole_slab_reduction(self, monkeypatch):
        # an n = 2, d = 1 member keeps most of the 200^2 nodes of its family
        # grid in its one slab; its 8 fields reach the reducer in blocks of at
        # most 2^16 values
        p = random_params(2, 1, 1.0, seed=3)
        grid = family_grid(p.basis, 1.0)
        F = PolyCoeffs.from_arrays(2, list(itertools.product(range(3), repeat=2))[1:], np.eye(8))
        shapes = []

        def reduce(V, E):
            shapes.append(V.shape)
            Y = V.reshape(len(V), -1)
            return np.concatenate([Y @ E.ravel(), np.sqrt(np.abs(Y)) @ E.ravel()])

        blocked = poly_quadrature(grid, p.log_density, fields=(F, reduce))
        assert len(shapes) > 1 and all(math.prod(s) <= 2**16 for s in shapes)
        monkeypatch.setattr(expfam, "row_blocks", lambda total, width: iter([slice(0, total)]))
        shapes.clear()
        whole = poly_quadrature(grid, p.log_density, fields=(F, reduce))
        assert len(shapes) == 1 and math.prod(shapes[0][1:]) == blocked.nodes
        np.testing.assert_allclose(blocked.field_means, whole.field_means, rtol=1e-13, atol=0.0)

    def test_scalar_reducer_keeps_its_shape(self):
        # at n = 3 the running max rises across slabs, so the sums are
        # rescaled: E.sum() summed and normalized is the weight sum, 1
        F = PolyCoeffs.from_arrays(3, np.eye(3, dtype=np.int64), np.eye(3))
        grid = build_grid(3, 4.5, 32)
        for seed in range(3):
            p = random_params(3, 3, 1.0, seed)
            scalar = poly_quadrature(grid, p.log_density, fields=(F, lambda V, E: E.sum())).field_means
            one = poly_quadrature(grid, p.log_density, fields=(F, lambda V, E: np.array([E.sum()]))).field_means
            assert scalar.shape == () and one.shape == (1,)
            assert abs(scalar - 1.0) <= 1e-12 and abs(one[0] - 1.0) <= 1e-12


class TestTailAndMomentBounds:
    def test_tail_radius_frozen(self):
        assert tail_radius(1, 1, 1.0) == 32.0
        assert tail_radius(2, 3, 1.0) == 1280.0

    def test_tail_radius_monotone_in_B(self):
        assert tail_radius(2, 3, 2.0) == 2 * tail_radius(2, 3, 1.0)

    def test_moment_bound_frozen(self):
        assert moment_bound(2, 1, 1, 1.0) == 128.0

    def test_moment_bound_factorial_branch(self):
        # ell = 9, n = d = B = 1: 2 * 9^9 beats 2^9 * 2^19
        assert moment_bound(9, 1, 1, 1.0) == 2.0 * 9.0**9

    def test_moment_bound_rejects_bad_order(self):
        with pytest.raises(ValueError):
            moment_bound(0, 1, 1, 1.0)

    def test_moment_bound_dominates_quadrature(self):
        p = zero_params(1, 3)
        grid = build_grid(1, 4.0, 200)
        _, (m2,) = quad_expectation(
            grid,
            lambda X: log_unnormalized_density(p, X),
            [lambda X: X[:, 0] ** 2],
        )
        assert float(m2) < moment_bound(2, 1, 3, 1.0)


def _quadpack_well(beta, lo, hi, k):
    val, _ = integrate.quad(
        lambda x: x**k * math.exp(-(x**8) - beta * (1.0 - x * x) ** 2),
        lo, hi, points=[1.0] if lo < 1.0 < hi else None, limit=500, epsabs=0.0, epsrel=1e-13,
    )
    return val


def _jittered(rule):
    """The panel rule with log weights off by 1e-9 log2(points): each doubling moves the rule."""

    def rule_jittered(n, radius, points_per_axis, panels):
        grid = rule(n, radius, points_per_axis, panels)
        return dataclasses.replace(grid, axis_logw=grid.axis_logw + 1e-9 * math.log2(points_per_axis))

    return rule_jittered


class TestWellConcentration:
    def test_valid_triples_hold(self):
        for beta, r, m in ((2.2e5, 0.03, 1), (2.0e5, 0.035, 2), (6.5e5, 0.02, 3)):
            chk = verify_int_concentration(beta, r, m)
            assert chk.holds, chk
            assert chk.lhs > 0 and chk.lhs <= chk.rhs

    def test_rejects_small_beta(self):
        with pytest.raises(ValueError, match="beta > 150"):
            verify_int_concentration(100.0, 0.03, 1)

    def test_rejects_window_out_of_range(self):
        with pytest.raises(ValueError, match="r in"):
            verify_int_concentration(2.2e5, 0.05, 1)
        with pytest.raises(ValueError, match="r in"):
            verify_int_concentration(2.2e5, 1e-6, 1)

    def test_rejects_beta_below_window_threshold(self):
        # r = 0.03, m = 1 needs beta >= 40 r^-2 log(4/r) ~ 2.17e5
        with pytest.raises(ValueError, match="40 r"):
            verify_int_concentration(1.8e5, 0.03, 1)

    def test_moment_lemma_holds(self):
        checks = verify_1d_moment_bound(350.0)
        assert len(checks) == 8
        for k, chk in enumerate(checks, start=1):
            assert chk.holds
            assert 0 < chk.lhs <= chk.rhs
            assert chk.name == f"well_moment_k{k}"

    @pytest.mark.parametrize("beta,r", [(2.2e5, 0.03), (2.0e5, 0.035), (6.5e5, 0.02)])
    def test_well_moments_match_quadpack(self, beta, r):
        # criterion 8's windows and totals, against QUADPACK told where the well is
        for lo, hi in ((1.0 - r, 1.0 + r), (0.0, 3.0)):
            got = _well_moments(beta, lo, hi)
            assert got.shape == (1,)
            assert got[0] == pytest.approx(_quadpack_well(beta, lo, hi, 0), rel=1e-10)

    def test_well_moments_match_quadpack_k_le_8(self):
        got = _well_moments(350.0, 0.0, 3.0, 8)
        want = [_quadpack_well(350.0, 0.0, 3.0, k) for k in range(9)]
        assert got == pytest.approx(want, rel=1e-10)

    def test_well_moments_cap_the_doubling(self, monkeypatch):
        # a rule that never settles reaches the node cap and fails the gate
        import polyscore.expfam as expfam

        monkeypatch.setattr(expfam, "_panel_rule", _jittered(expfam._panel_rule))
        with pytest.raises(GridConvergenceError, match="2\\^12"):
            _well_moments(350.0, 0.0, 3.0)

    def test_moment_lemma_precondition(self):
        with pytest.raises(ValueError, match="160 log 8"):
            verify_1d_moment_bound(300.0)

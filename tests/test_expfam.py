"""Tests for the density family and the tensor quadrature oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from polyscore.errors import NumericalError
from polyscore.expfam import (
    GATE_TOL,
    GridConvergenceError,
    ParamVector,
    auto_radius,
    build_grid,
    default_grid,
    family_grid,
    family_radius,
    gated_log_partition,
    gated_quadrature,
    log_density_tensor,
    log_partition,
    log_unnormalized_density,
    member_coeffs,
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
from polyscore.polybasis import enumerate_basis, eval_jacobian, eval_suffstats

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

    def test_table_is_cached_on_the_member(self):
        p = random_params(2, 3, 1.0, seed=1)
        score(p, [0.1, 0.2])
        assert p._terms is p._terms


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
        with pytest.raises(ValueError, match="1 <= n <= 3"):
            default_grid(zero_params(4, 1))

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
        _, delta = gated_quadrature(build_grid(1, 6.0, 120), member_coeffs(zero_params(1, 1)))
        assert delta < 1e-10

    def test_coarse_grid_fails(self):
        with pytest.raises(GridConvergenceError, match="gate"):
            gated_quadrature(build_grid(1, 6.0, 10), member_coeffs(zero_params(1, 1)))

    def test_gated_log_partition_raises_past_the_gate(self):
        p = zero_params(1, 1)
        with pytest.raises(GridConvergenceError, match="gate"):
            gated_log_partition(p, build_grid(1, 6.0, 10))
        logz, delta = gated_log_partition(p, build_grid(1, 6.0, 120))
        assert logz == pytest.approx(LOG_SQRT_PI, abs=1e-12) and delta < GATE_TOL

    def test_gate_returns_the_coarse_pass(self):
        p = random_params(2, 3, 1.0, seed=8)
        grid = build_grid(2, 4.0, 120)
        out, delta = gated_quadrature(grid, member_coeffs(p), order=2)
        again = poly_quadrature(grid, member_coeffs(p), order=2)
        assert out.log_integral == again.log_integral
        assert np.array_equal(out.moments, again.moments)
        fine = poly_quadrature(grid.doubled(), member_coeffs(p))
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
        out = poly_quadrature(build_grid(2, 7.0, 160), member_coeffs(zero_params(2, 1)), order=4)
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
        out = poly_quadrature(grid, member_coeffs(p), orthants=V)
        assert out.orthant_mass == pytest.approx(float(mass), abs=1e-14)
        assert poly_quadrature(grid, member_coeffs(p)).orthant_mass == 0.0

    def test_overflow_everywhere_raises_like_pointwise(self):
        # on a box this wide every node's powers overflow: zero density at
        # every node, which both paths report as underflow
        p = random_params(2, 3, 1.0, seed=4)
        grid = build_grid(2, 1e103, 60)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="underflow"):
                pointwise(p, grid)
            with pytest.raises(NumericalError, match="underflow"):
                poly_quadrature(grid, member_coeffs(p))

    def test_rejections(self):
        grid = build_grid(2, 3.0, 12)
        with pytest.raises(ValueError, match="does not fit"):
            poly_quadrature(grid, np.zeros((3, 3, 3)))
        with pytest.raises(ValueError, match="order"):
            poly_quadrature(grid, np.zeros((3, 3)), order=-1)
        with pytest.raises(ValueError, match="exponents"):
            log_density_tensor(2, [[5, 0]], [1.0], 4)


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
        assert log_partition(p, default_grid(p)) == pytest.approx(LOG_SQRT_PI, abs=1e-9)

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

    def test_moment_lemma_precondition(self):
        with pytest.raises(ValueError, match="160 log 8"):
            verify_1d_moment_bound(300.0)
        with pytest.raises(ValueError, match="k_max"):
            verify_1d_moment_bound(350.0, k_max=9)

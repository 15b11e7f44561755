"""Tests for the exact and MALA samplers and their diagnostics."""

import math

import numpy as np
import pytest

from polyscore.expfam import ParamVector, auto_radius, build_grid, moments, random_params, zero_params
from polyscore.polybasis import enumerate_basis
from polyscore.sampler import (
    DivergenceError,
    McmcConfig,
    SampleSet,
    diagnostics,
    load_samples,
    sample_exact_separable,
    sample_mala,
    save_samples,
)


def _separable_params(seed, n=1, d=3, B=1.0):
    """Random theta with every monomial on a single coordinate."""
    basis = enumerate_basis(n, d)
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-B, B, basis.size)
    theta[np.count_nonzero(basis.degrees, axis=1) > 1] = 0.0
    return ParamVector(basis, theta, B)


class TestSampleSet:
    def test_shape_checked(self):
        with pytest.raises(ValueError, match="shape"):
            SampleSet(n=2, N=3, data=np.zeros((3, 1)), seed=0)

    def test_finite_checked(self):
        with pytest.raises(ValueError, match="finite"):
            SampleSet(n=1, N=1, data=np.array([[np.inf]]), seed=0)

    def test_data_read_only(self):
        s = SampleSet(n=1, N=2, data=np.zeros((2, 1)), seed=0)
        with pytest.raises(ValueError):
            s.data[0, 0] = 1.0


class TestMcmcConfig:
    def test_defaults(self):
        cfg = McmcConfig()
        assert cfg.burn_in == 10_000
        assert cfg.thinning is None

    def test_validation(self):
        with pytest.raises(ValueError):
            McmcConfig(step_size=0.0)
        with pytest.raises(ValueError):
            McmcConfig(burn_in=-1)
        with pytest.raises(ValueError):
            McmcConfig(thinning=0)
        with pytest.raises(ValueError):
            McmcConfig(chains=0)


class TestExactSampler:
    def test_gaussian_mean(self):
        # theta = 0, d = 1 is N(0, 1/2): mean within 4 standard errors
        s = sample_exact_separable(zero_params(1, 1), 100_000, seed=101)
        assert abs(s.data.mean()) < 4 * math.sqrt(0.5 / 100_000)

    def test_gaussian_variance(self):
        s = sample_exact_separable(zero_params(1, 1), 100_000, seed=102)
        assert s.data.var() == pytest.approx(0.5, abs=0.01)

    def test_coupled_theta_rejected(self):
        basis = enumerate_basis(2, 3)
        theta = np.zeros(basis.size)
        theta[list(basis.indices).index((1, 1))] = 0.5
        with pytest.raises(ValueError, match=r"x1\*x2"):
            sample_exact_separable(ParamVector(basis, theta, 1.0), 10, seed=0)

    def test_deterministic(self):
        p = _separable_params(7, n=2)
        a = sample_exact_separable(p, 500, seed=42)
        b = sample_exact_separable(p, 500, seed=42)
        assert np.array_equal(a.data, b.data)
        assert a.provenance == b.provenance

    def test_seed_changes_output(self):
        p = _separable_params(7, n=2)
        a = sample_exact_separable(p, 500, seed=1)
        b = sample_exact_separable(p, 500, seed=2)
        assert not np.array_equal(a.data, b.data)

    def test_marginals_match_quadrature(self):
        p = _separable_params(19, n=2, d=3)
        s = sample_exact_separable(p, 50_000, seed=5)
        basis1 = enumerate_basis(1, 3)
        for i in range(2):
            theta1 = np.zeros(3)
            for row, v in zip(p.basis.degrees, p.theta):
                if v and row[i]:
                    theta1[row[i] - 1] = v
            p1 = ParamVector(basis1, theta1, 1.0)
            mom = moments(p1, build_grid(1, auto_radius(p1), 400))
            mean, var = mom.mean_T[0], mom.second_T[0, 0] - mom.mean_T[0] ** 2
            se = math.sqrt(var / s.N)
            assert abs(s.data[:, i].mean() - mean) < 4 * se

    def test_ks_against_quadrature_cdf(self):
        # 1% KS critical value at N = 10^4; seeds fixed so the test is exact
        N = 10_000
        crit = 1.6276 / math.sqrt(N)
        basis1 = enumerate_basis(1, 3)
        for k in range(10):
            p = ParamVector(basis1, np.random.default_rng(300 + k).uniform(-1, 1, 3), 1.0)
            s = sample_exact_separable(p, N, seed=900 + k)
            R = auto_radius(p) * 1.5
            xs = np.linspace(-R, R, 200_001)
            logf = -xs**4 + p.theta[0] * xs + p.theta[1] * xs**2 + p.theta[2] * xs**3
            pdf = np.exp(logf - logf.max())
            cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(xs))])
            cdf /= cdf[-1]
            F = np.interp(np.sort(s.data[:, 0]), xs, cdf)
            i = np.arange(1, N + 1)
            ks = max(np.max(np.abs(F - i / N)), np.max(np.abs(F - (i - 1) / N)))
            assert ks < crit, f"theta draw {k}: KS {ks:.5f} >= {crit:.5f}"


class TestMala:
    def test_gaussian_variance(self):
        # stationary variance of N(0, 1/2) within 3 standard errors
        p = zero_params(1, 1)
        cfg = McmcConfig(burn_in=3000)
        s = sample_mala(p, 20_000, cfg, seed=11)
        x = s.data[:, 0]
        ess = s.provenance["parameters"]["ess"][0]
        se = (x**2).std(ddof=1) / math.sqrt(ess)
        assert abs(x.var() - 0.5) < 3 * se
        rate = s.provenance["parameters"]["acceptance_rate"][0]
        assert 0.3 < rate < 0.85

    def test_second_moment_matches_quadrature(self):
        p = zero_params(2, 3)
        mom = moments(p, build_grid(2, 4.0, 200))
        idx = list(p.basis.indices).index((2, 0))
        cfg = McmcConfig(burn_in=3000)
        s = sample_mala(p, 20_000, cfg, seed=23)
        x2 = s.data[:, 0] ** 2
        ess = s.provenance["parameters"]["ess"][0]
        se = x2.std(ddof=1) / math.sqrt(ess)
        assert abs(x2.mean() - mom.mean_T[idx]) < 3 * se

    def test_symmetric_mean(self):
        p = zero_params(2, 3)
        cfg = McmcConfig(burn_in=3000)
        s = sample_mala(p, 20_000, cfg, seed=31)
        for i in range(2):
            ess = s.provenance["parameters"]["ess"][i]
            se = s.data[:, i].std(ddof=1) / math.sqrt(ess)
            assert abs(s.data[:, i].mean()) < 3 * se

    def test_deterministic(self):
        p = zero_params(2, 3)
        cfg = McmcConfig(burn_in=300, thinning=2)
        a = sample_mala(p, 400, cfg, seed=5)
        b = sample_mala(p, 400, cfg, seed=5)
        assert np.array_equal(a.data, b.data)
        assert a.provenance == b.provenance

    def test_chains_partition_draws(self):
        p = zero_params(1, 1)
        cfg = McmcConfig(burn_in=200, thinning=1, chains=3)
        s = sample_mala(p, 1001, cfg, seed=9)
        assert s.N == 1001 and s.data.shape == (1001, 1)
        assert len(s.provenance["parameters"]["acceptance_rate"]) == 3

    def test_explicit_thinning_recorded(self):
        p = zero_params(1, 1)
        cfg = McmcConfig(burn_in=100, thinning=3)
        s = sample_mala(p, 200, cfg, seed=2)
        assert s.provenance["parameters"]["thinning"] == [3]
        assert s.provenance["parameters"]["target_accept"] == 0.574

    def test_auto_thinning_controls_autocorrelation(self):
        # the coupled member mixes x2 slower than x1: thinning from x1 alone
        # left x2's lag-1 autocorrelation near 0.7
        cfg = McmcConfig(burn_in=2000)
        for p, N in ((zero_params(1, 1), 4000), (random_params(2, 3, 1.0, 0), 2000)):
            s = sample_mala(p, N, cfg, seed=77)
            for i in range(p.n):
                x = s.data[:, i] - s.data[:, i].mean()
                rho1 = float(x[1:] @ x[:-1] / (x @ x))
                assert rho1 < 0.5, (p.n, i, rho1)

    def test_divergent_start_reported(self):
        p = zero_params(1, 3)
        cfg = McmcConfig(burn_in=10, thinning=1)
        with pytest.raises(DivergenceError, match="not finite"):
            sample_mala(p, 10, cfg, seed=0, x0=np.array([1e200]))


class TestDiagnostics:
    def test_exact_sampler_clean(self):
        p = zero_params(1, 1)
        s = sample_exact_separable(p, 20_000, seed=61)
        report = diagnostics(s, p, build_grid(1, 6.0, 200))
        assert report["max_z"] < 4.0
        assert report["N"] == 20_000

    def test_empty_sample_rejected(self):
        s = SampleSet(n=1, N=0, data=np.zeros((0, 1)), seed=0)
        with pytest.raises(ValueError, match="empty"):
            diagnostics(s, zero_params(1, 1), build_grid(1, 6.0, 50))

    def test_wrong_theta_flagged(self):
        # samples from theta = 0, diagnosed against theta = 1: mean shifts by 1/2
        basis = enumerate_basis(1, 1)
        s = sample_exact_separable(zero_params(1, 1), 20_000, seed=71)
        shifted = ParamVector(basis, np.array([1.0]), 1.0)
        report = diagnostics(s, shifted, build_grid(1, 6.0, 200))
        assert report["max_z"] > 10.0

    def test_dimension_mismatch(self):
        s = sample_exact_separable(zero_params(1, 1), 100, seed=0)
        with pytest.raises(ValueError, match="dimensions"):
            diagnostics(s, zero_params(2, 1), build_grid(2, 6.0, 50))


class TestFileFormat:
    def test_round_trip_exact(self, tmp_path):
        p = _separable_params(3, n=2)
        s = sample_exact_separable(p, 250, seed=13)
        path = tmp_path / "draws.txt"
        save_samples(s, path)
        loaded = load_samples(path)
        assert loaded.n == 2 and loaded.N == 250 and loaded.seed == 13
        assert np.array_equal(loaded.data, s.data)

    def test_header_written(self, tmp_path):
        s = SampleSet(n=1, N=2, data=np.array([[0.5], [1.5]]), seed=7)
        path = tmp_path / "d.txt"
        save_samples(s, path)
        assert path.read_text().splitlines()[0] == "polyscore-samples v1 n=1 N=2 seed=7"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("something else\n0.0\n")
        with pytest.raises(ValueError, match="not a polyscore-samples"):
            load_samples(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("polyscore-samples v1 n=1 N=3 seed=0\n0.0\n1.0\n")
        with pytest.raises(ValueError, match="promises"):
            load_samples(path)

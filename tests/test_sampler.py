"""Tests for the exact and MALA samplers and their diagnostics."""

import copy
import math

import numpy as np
import pytest

from polyscore import expfam, sampler
from polyscore.expfam import ParamVector, auto_radius, build_grid, moments, random_params, zero_params
from polyscore.polybasis import PolyCoeffs, enumerate_basis, sample_stats
from polyscore.sampler import (
    DivergenceError,
    McmcConfig,
    SampleSet,
    diagnostics,
    load_samples,
    sample_exact_separable,
    sample_mala,
    sample_mala_ensemble,
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

    def test_stats_cached_per_basis_outside_equality(self):
        data = np.random.default_rng(4).normal(size=(50, 2))
        s = SampleSet(n=2, N=50, data=data, seed=0)
        bare, shown = copy.copy(s), repr(s)
        object.__setattr__(bare, "_stats", {})
        basis = enumerate_basis(2, 3)
        st = s.stats(basis)
        assert s.stats(basis) is st and s.stats(enumerate_basis(2, 1)) is not st
        fresh = sample_stats(basis, data)
        assert all(np.array_equal(getattr(st, f), getattr(fresh, f)) for f in vars(fresh))
        assert s == bare and repr(s) == shown


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

    def test_one_radius_for_every_coordinate(self, monkeypatch):
        calls = []

        def counted(q):
            calls.append(q)
            return auto_radius(q)

        monkeypatch.setattr(sampler, "auto_radius", counted)
        p = _separable_params(7, n=3)
        s = sample_exact_separable(p, 100, seed=1)
        assert calls == [p]
        assert s.provenance["parameters"]["radius"] == auto_radius(p)
        assert np.abs(s.data).max() <= auto_radius(p)

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
        with pytest.raises(DivergenceError, match="not finite"):
            sample_mala(p, 10, McmcConfig(burn_in=10, thinning=1, chains=3), seed=0, x0=np.array([1e200]))


class TestLockstep:
    def test_finished_chains_leave_the_batch(self, monkeypatch):
        # one density call per step on the live rows, plus one on the starts:
        # 3 + 3 burn_in + sum_j N_j thin rows exactly
        rows = []
        density = sampler.log_unnormalized_density

        def counted(p, x, **kw):
            rows.append(len(x))
            return density(p, x, **kw)

        monkeypatch.setattr(sampler, "log_unnormalized_density", counted)
        burn_in, thin = 40, 3
        s = sample_mala(random_params(2, 3, 1.0, 0), 10, McmcConfig(burn_in=burn_in, thinning=thin, chains=3), 5)
        assert s.N == 10  # per chain 4, 3, 3
        assert sum(rows) == 3 + 3 * burn_in + 10 * thin
        assert rows[0] == 3 and rows[-1] == 1 and rows == sorted(rows, reverse=True)

    def test_one_table_evaluation_per_step(self, monkeypatch):
        # density and score of a step come from one evaluation of the member's
        # term table: no score call, no second table evaluation
        calls = {"density": 0, "table": 0}
        density, table = sampler.log_unnormalized_density, PolyCoeffs.__call__

        def counted_density(p, x, **kw):
            calls["density"] += 1
            return density(p, x, **kw)

        def counted_table(f, x):
            calls["table"] += 1
            return table(f, x)

        def no_score(p, x):
            raise AssertionError("score called by the chains")

        monkeypatch.setattr(sampler, "log_unnormalized_density", counted_density)
        monkeypatch.setattr(PolyCoeffs, "__call__", counted_table)
        monkeypatch.setattr(expfam, "score", no_score)
        monkeypatch.setattr(sampler, "score", no_score, raising=False)
        burn_in, thin = 40, 3
        s = sample_mala(random_params(2, 3, 1.0, 0), 10, McmcConfig(burn_in=burn_in, thinning=thin, chains=2), 5)
        assert s.N == 10  # 5 per chain
        assert calls["density"] == 1 + burn_in + 5 * thin and calls["table"] == calls["density"]

    def test_coupled_chains_pass_diagnostics(self):
        # the z bound of the exact sampler's diagnostics test
        p = random_params(2, 3, 1.0, 0)
        s = sample_mala(p, 20_000, McmcConfig(burn_in=2000, chains=4), seed=0)
        assert len(s.provenance["parameters"]["thinning"]) == 4
        assert diagnostics(s, p, build_grid(2, auto_radius(p), 200))["max_z"] < 4.0

    def test_ensemble_deterministic_with_distinct_chains(self):
        p = random_params(2, 3, 1.0, 0)
        cfg = McmcConfig(burn_in=200, thinning=2)
        a = sample_mala_ensemble(p, [30, 60, 60], [11, 12, 13], cfg)
        b = sample_mala_ensemble(p, [30, 60, 60], [11, 12, 13], cfg)
        assert [s.N for s in a] == [30, 60, 60] and [s.seed for s in a] == [11, 12, 13]
        assert all(np.array_equal(x.data, y.data) and x.provenance == y.provenance for x, y in zip(a, b))
        assert not np.array_equal(a[1].data, a[2].data)


@pytest.mark.parametrize(
    "draw",
    [
        lambda p: sample_mala(p, -3, McmcConfig(burn_in=10), 0),
        lambda p: sample_mala_ensemble(p, [-3, 2], [0, 1], McmcConfig(burn_in=10)),
        lambda p: sample_exact_separable(p, -3, 0),
    ],
    ids=["mala", "ensemble", "exact"],
)
def test_negative_sample_size_refused_before_any_step(monkeypatch, draw):
    def untouched(*args, **kw):
        raise AssertionError("sampler worked before refusing the size")

    monkeypatch.setattr(sampler, "log_unnormalized_density", untouched)
    monkeypatch.setattr(sampler, "auto_radius", untouched)
    with pytest.raises(ValueError, match="sample size must be >= 0, got -3"):
        draw(random_params(1, 1, 1.0, 0))


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
        # one draw has no standard error: refused, not reported as nan
        s = SampleSet(n=1, N=1, data=np.zeros((1, 1)), seed=0)
        with pytest.raises(ValueError, match="at least two draws"):
            diagnostics(s, zero_params(1, 1), build_grid(1, 6.0, 50))

    def test_wrong_theta_flagged(self):
        # samples from theta = 0, diagnosed against theta = 1: mean shifts by 1/2
        basis = enumerate_basis(1, 1)
        s = sample_exact_separable(zero_params(1, 1), 20_000, seed=71)
        shifted = ParamVector(basis, np.array([1.0]), 1.0)
        report = diagnostics(s, shifted, build_grid(1, 6.0, 200))
        assert report["max_z"] > 10.0

    def test_autocorrelated_mala_draws_scaled_by_ess(self):
        # thinning=1 keeps strongly autocorrelated draws of a correct member:
        # the plain standard error puts max_z at about 7, past the bound
        p = random_params(2, 3, 1.0, 0)
        s = sample_mala(p, 4000, McmcConfig(burn_in=500, thinning=1), seed=3)
        assert min(s.provenance["parameters"]["ess"]) < s.N / 4
        grid = build_grid(2, auto_radius(p), 200)
        plain = SampleSet(n=2, N=s.N, data=s.data, seed=3)  # no MALA provenance
        assert diagnostics(plain, p, grid)["max_z"] > 4.0
        assert diagnostics(s, p, grid)["max_z"] < 4.0

    def test_wrong_theta_flagged_under_mala(self):
        p = random_params(2, 3, 1.0, 0)
        s = sample_mala(p, 4000, McmcConfig(burn_in=500, thinning=1), seed=3)
        theta = p.theta.copy()
        theta[0] += 0.5
        shifted = ParamVector(p.basis, theta, 1.5)
        assert diagnostics(s, shifted, build_grid(2, auto_radius(shifted), 200))["max_z"] > 6.0

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

    @pytest.mark.parametrize("n, N", [(1, 0), (3, 0), (1, 7), (2, 3000), (4, 250)])
    def test_bytes_match_savetxt(self, tmp_path, n, N):
        data = np.random.default_rng(n * N).normal(size=(N, n)) * 10.0 ** np.arange(-150, 150, 300 / n)
        if N:
            data[0, 0], data[-1, -1] = -0.0, 1e-300
        s = SampleSet(n=n, N=N, data=data, seed=3)
        path = tmp_path / "d.txt"
        save_samples(s, path)
        want = tmp_path / "want.txt"
        np.savetxt(want, s.data, fmt="%.17g", header=f"polyscore-samples v1 n={n} N={N} seed=3", comments="")
        assert path.read_bytes() == want.read_bytes()
        if N == 0:
            assert path.read_bytes() == f"polyscore-samples v1 n={n} N=0 seed=3\n".encode()
        else:
            lines = path.read_bytes().split(b"\n")
            assert lines[1].split()[0] == b"-0" and lines[-2].split()[-1] == b"1e-300" and lines[-1] == b""

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

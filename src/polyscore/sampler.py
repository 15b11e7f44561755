"""Samplers for the density family.

Two routes.  When theta has no cross-coordinate monomials the density is a
product of one-dimensional densities and we sample each coordinate exactly by
inverse CDF on a dense grid.  Otherwise we run a Metropolis-adjusted Langevin
chain whose drift is the score, which never needs the partition function.

All randomness flows through counter-based Philox generators keyed by
(seed, stream index), so output is bit-identical across runs; coordinate i
of the exact sampler and chain j of MALA each own their stream.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DivergenceError, InputError
from .expfam import ParamVector, auto_radius, log_unnormalized_density, moments, score
from .polybasis import enumerate_basis, eval_suffstats, format_monomial, row_mean

__all__ = [
    "SampleSet",
    "McmcConfig",
    "DivergenceError",
    "sample_exact_separable",
    "sample_mala",
    "diagnostics",
    "save_samples",
    "load_samples",
]

_HEADER_RE = re.compile(r"^polyscore-samples v1 n=(\d+) N=(\d+) seed=(\d+)\s*$")


@dataclass(frozen=True)
class SampleSet:
    n: int
    N: int
    data: np.ndarray
    seed: int
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.shape != (self.N, self.n):
            raise ValueError(f"data shape {data.shape} != ({self.N}, {self.n})")
        if not np.all(np.isfinite(data)):
            raise ValueError("sample data must be finite")
        data = data.copy()
        data.setflags(write=False)
        object.__setattr__(self, "data", data)


@dataclass(frozen=True)
class McmcConfig:
    step_size: float = 0.5
    burn_in: int = 10_000
    thinning: int | None = None  # None: pick it so every coordinate's lag-1 autocorr < 0.5
    chains: int = 1

    def __post_init__(self):
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if self.thinning is not None and self.thinning < 1:
            raise ValueError("thinning must be >= 1")
        if self.chains < 1:
            raise ValueError("chains must be >= 1")


def _stream(seed: int, stream: int) -> np.random.Generator:
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


# ---------------------------------------------------------------------------
# exact sampling in the separable case

_EXACT_GRID_NODES = 8192


def _split_separable(p: ParamVector) -> list[np.ndarray]:
    """Per-coordinate 1-D coefficient vectors (length d), or raise."""
    out = [np.zeros(p.d) for _ in range(p.n)]
    bad = [
        format_monomial(row)
        for row, v in zip(p.basis.degrees, p.theta)
        if v != 0.0 and np.count_nonzero(row) > 1
    ]
    if bad:
        raise ValueError(f"theta couples coordinates via {', '.join(bad)}; exact sampler needs a separable theta")
    for row, v in zip(p.basis.degrees, p.theta):
        if v == 0.0:
            continue
        i = int(np.nonzero(row)[0][0])
        out[i][int(row[i]) - 1] += v
    return out


def sample_exact_separable(p: ParamVector, N: int, seed: int) -> SampleSet:
    """Inverse-CDF draws, coordinate by coordinate, for product-form theta."""
    coord_thetas = _split_separable(p)
    basis1 = enumerate_basis(1, p.d)
    cols = []
    radii = []
    for i, theta1 in enumerate(coord_thetas):
        p1 = ParamVector(basis1, theta1, p.B)
        R = auto_radius(p1)
        radii.append(R)
        nodes = np.linspace(-R, R, _EXACT_GRID_NODES)
        logf = log_unnormalized_density(p1, nodes[:, None])
        pdf = np.exp(logf - np.max(logf))
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(nodes))])
        cdf /= cdf[-1]
        u = _stream(seed, i).random(N)
        cols.append(np.interp(u, cdf, nodes))
    data = np.column_stack(cols)
    return SampleSet(
        n=p.n,
        N=N,
        data=data,
        seed=seed,
        provenance={
            "kind": "exact",
            "parameters": {"grid_nodes": _EXACT_GRID_NODES, "radius": [float(r) for r in radii]},
        },
    )


# ---------------------------------------------------------------------------
# MALA

_PILOT_STEPS = 1000
_MAX_THIN = 64
_TARGET_ACCEPT = 0.574  # the acceptance rate optimal for MALA (Roberts and Rosenthal 1998)


def _autocorr(x: np.ndarray) -> np.ndarray:
    x = x - x.mean()
    if not x.any():
        return np.concatenate([[1.0], np.zeros(len(x) - 1)])
    f = np.fft.rfft(x, 2 * len(x))
    acf = np.fft.irfft(f * np.conj(f))[: len(x)]
    return acf / acf[0]


def _geyer_ess(x: np.ndarray) -> float:
    """Initial-positive-sequence effective sample size of a scalar trace."""
    n = len(x)
    if n < 4 or np.allclose(x, x[0]):
        return float(n)
    rho = _autocorr(x)
    s = 0.0
    for k in range(n // 2):
        g = rho[2 * k] + (rho[2 * k + 1] if 2 * k + 1 < n else 0.0)
        if k > 0 and g <= 0:
            break
        s += g
    return n / max(2.0 * s - 1.0, 1.0)


def _decorrelation_lag(x: np.ndarray) -> int:
    """Smallest lag, at most _MAX_THIN, at which the autocorrelation of x is below 0.5.

    The pilot estimate rho_k must clear 0.5 by two of its Bartlett standard
    errors, sqrt((1 + 2 sum_{j<k} rho_j^2) / len(x)); without that margin a
    short pilot picks, about half the time, a lag whose true autocorrelation
    sits at 0.5.
    """
    rho = _autocorr(x)[: _MAX_THIN + 1]
    prior = np.cumsum(rho[:-1] ** 2) - 1.0  # sum_{j<k} rho_j^2 at lag k
    se = np.sqrt((1.0 + 2.0 * prior) / len(x))
    below = np.nonzero(rho[1:] + 2.0 * se < 0.5)[0]
    return int(below[0]) + 1 if below.size else _MAX_THIN


class _Chain:
    """One MALA chain; all its randomness comes from its own stream."""

    def __init__(self, p: ParamVector, rng: np.random.Generator, step: float, x0: np.ndarray):
        self.p = p
        self.rng = rng
        self.step = step
        self.x = np.asarray(x0, dtype=float)
        self.logp = float(log_unnormalized_density(p, self.x))
        if not math.isfinite(self.logp):
            raise DivergenceError(f"chain energy is not finite at the starting point {x0}")
        self.grad = score(p, self.x)
        self.accepted = 0
        self.proposed = 0

    def advance(self) -> float:
        """One MALA step; returns the acceptance probability of the proposal."""
        eps = self.step
        h = 0.5 * eps * eps
        noise = self.rng.standard_normal(self.p.n)
        y = self.x + h * self.grad + eps * noise
        logp_y = log_unnormalized_density(self.p, y)
        if math.isfinite(logp_y):
            grad_y = score(self.p, y)
            # log q(x | y) - log q(y | x); the forward residual y - x - h grad is eps * noise
            bwd = self.x - y - h * grad_y
            log_alpha = logp_y - self.logp + 0.5 * (noise @ noise) - (bwd @ bwd) / (4.0 * h)
        else:
            log_alpha = -math.inf
        self.proposed += 1
        u = self.rng.random()
        if math.log(u if u > 0 else 5e-324) < log_alpha:
            self.x, self.logp, self.grad = y, logp_y, grad_y
            self.accepted += 1
        return math.exp(min(log_alpha, 0.0))


def sample_mala(
    p: ParamVector,
    N: int,
    config: McmcConfig,
    seed: int,
    x0: np.ndarray | None = None,
) -> SampleSet:
    """Metropolis-adjusted Langevin draws targeting p.

    Step size is tuned toward an acceptance rate of 0.574 by Robbins-Monro
    during burn-in and then frozen.  If config.thinning is None, a pilot
    segment sets the thinning from the slowest coordinate: the largest, over
    coordinates, of the first lag at which the pilot autocorrelation is below
    0.5 by two standard errors, so every coordinate's lag-1 autocorrelation
    of the draws is below 0.5.
    """
    per_chain = [N // config.chains + (1 if j < N % config.chains else 0) for j in range(config.chains)]
    blocks = []
    steps, rates, thins = [], [], []
    ess = np.zeros(p.n)
    for j, N_j in enumerate(per_chain):
        rng = _stream(seed, j)
        start = np.asarray(x0, dtype=float) if x0 is not None else 0.5 * rng.standard_normal(p.n)
        chain = _Chain(p, rng, config.step_size, start)
        log_step = math.log(config.step_size)
        for t in range(1, config.burn_in + 1):
            alpha = chain.advance()
            log_step += t**-0.6 * (alpha - _TARGET_ACCEPT)
            chain.step = min(max(math.exp(log_step), 1e-12), 1e3)
        thin = config.thinning
        if thin is None:
            pilot = np.empty((_PILOT_STEPS, p.n))
            for t in range(_PILOT_STEPS):
                chain.advance()
                pilot[t] = chain.x
            thin = max(_decorrelation_lag(pilot[:, i]) for i in range(p.n))
        chain.accepted = chain.proposed = 0
        draws = np.empty((N_j, p.n))
        for k in range(N_j):
            for _ in range(thin):
                chain.advance()
            draws[k] = chain.x
        blocks.append(draws)
        steps.append(chain.step)
        rates.append(chain.accepted / max(chain.proposed, 1))
        thins.append(thin)
        if N_j:
            ess += np.array([_geyer_ess(draws[:, i]) for i in range(p.n)])
    data = np.vstack(blocks)
    return SampleSet(
        n=p.n,
        N=N,
        data=data,
        seed=seed,
        provenance={
            "kind": "mcmc",
            "parameters": {
                "step_size": steps,
                "burn_in": config.burn_in,
                "thinning": thins,
                "target_accept": _TARGET_ACCEPT,
                "chains": config.chains,
                "acceptance_rate": rates,
                "ess": [float(e) for e in ess],
            },
        },
    )


# ---------------------------------------------------------------------------
# diagnostics against the quadrature oracle


def diagnostics(s: SampleSet, p: ParamVector, grid) -> dict:
    """Max standardized discrepancy between sample and quadrature moments.

    Z-scores use the sample standard error, so a clean sampler should stay
    within a few units regardless of the statistic's scale.
    """
    if s.N < 2:
        kind = "an empty sample set" if s.N == 0 else "a single draw"
        raise ValueError(f"diagnostics need at least two draws for a standard error, got {kind}")
    if s.n != p.n or grid.n != s.n:
        raise ValueError("sample, parameter, and grid dimensions must agree")
    mom = moments(p, grid)
    T = eval_suffstats(p.basis, s.data)
    names = p.basis.monomial_names()

    emp_mean = T.mean(axis=0)
    se_mean = np.maximum(T.std(axis=0, ddof=1) / math.sqrt(s.N), 1e-15)
    z_mean = np.abs(emp_mean - mom.mean_T) / se_mean

    def products(Tb):
        prods = Tb[:, :, None] * Tb[:, None, :]
        return np.stack([prods, prods * prods], axis=1)

    emp_second, mean_sq = row_mean(products, T, 2 * p.basis.size**2)
    var_second = np.maximum(mean_sq - emp_second**2, 0.0) * s.N / (s.N - 1)
    se_second = np.maximum(np.sqrt(var_second / s.N), 1e-15)
    z_second = np.abs(emp_second - mom.second_T) / se_second

    i = int(np.argmax(z_mean))
    j, k = np.unravel_index(int(np.argmax(z_second)), z_second.shape)
    if z_mean[i] >= z_second[j, k]:
        worst = names[i]
    else:
        worst = f"{names[j]} * {names[k]}"
    return {
        "n": s.n,
        "N": s.N,
        "max_z_mean": float(z_mean[i]),
        "max_z_second": float(z_second[j, k]),
        "max_z": float(max(z_mean[i], z_second[j, k])),
        "worst_stat": worst,
    }


# ---------------------------------------------------------------------------
# file format


def save_samples(s: SampleSet, path) -> None:
    header = f"polyscore-samples v1 n={s.n} N={s.N} seed={s.seed}"
    np.savetxt(path, s.data, fmt="%.17g", header=header, comments="")


def load_samples(path) -> SampleSet:
    """Read a samples file; a missing or malformed one raises InputError."""
    try:
        with open(path) as fh:
            first = fh.readline()
        m = _HEADER_RE.match(first)
        if not m:
            raise ValueError(f"{path}: not a polyscore-samples v1 file (header {first!r})")
        n, N, seed = (int(g) for g in m.groups())
        data = np.loadtxt(path, skiprows=1, ndmin=2)
        if N == 0:
            data = data.reshape(0, n)
        if data.shape != (N, n):
            raise ValueError(f"{path}: header promises ({N}, {n}) but data is {data.shape}")
        return SampleSet(n=n, N=N, data=data, seed=seed, provenance={"kind": "file", "parameters": {"path": str(Path(path))}})
    except FileNotFoundError:
        raise InputError(f"samples file not found: {path}") from None
    except ValueError as e:
        raise InputError(f"cannot load samples: {e}") from e

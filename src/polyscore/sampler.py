"""Samplers for the density family.

Two routes.  When theta has no cross-coordinate monomials the density is a
product of one-dimensional densities and we sample each coordinate by
inverse CDF: a trapezoid-rule CDF on 8,192 equispaced nodes, inverted by
linear interpolation, so the draws are exact up to that rule's error.
Otherwise we run Metropolis-adjusted Langevin chains whose drift is the
score, which never needs the partition function.
The chains of one call (``sample_mala``'s, or a study's trials through
``sample_mala_ensemble``) advance in lock-step as one (C, n) array, so a
step evaluates the density and score of all live chains in one batch.

All randomness flows through counter-based Philox generators keyed by
(seed, stream index), so output is bit-identical across runs; coordinate i
of the exact sampler and each MALA chain own their stream.  :func:`_stream`
is the package's one constructor of such a generator (``hardness`` and the
CLI draw from stream 0 of their seed), and it refuses a seed the key cannot hold.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DivergenceError, InputError
from .expfam import ParamVector, auto_radius, log_unnormalized_density, moments
from .polybasis import FamilyStats, MonomialBasis, eval_suffstats, format_monomial, sample_stats

__all__ = [
    "SampleSet",
    "McmcConfig",
    "DivergenceError",
    "sample_exact_separable",
    "sample_mala",
    "sample_mala_ensemble",
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
    _stats: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.shape != (self.N, self.n):
            raise ValueError(f"data shape {data.shape} != ({self.N}, {self.n})")
        if not np.all(np.isfinite(data)):
            raise ValueError("sample data must be finite")
        data = data.copy()
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    def stats(self, basis: MonomialBasis) -> FamilyStats:
        """``sample_stats(basis, data)``, computed once per (n, d) and kept.

        Every estimator and audit reads a sample through here, so this is
        where a basis of another dimension is refused.
        """
        if basis.n != self.n:
            raise ValueError(f"sample dimension {self.n} != basis dimension {basis.n}")
        key = (basis.n, basis.d)
        if key not in self._stats:
            self._stats[key] = sample_stats(basis, self.data)
        return self._stats[key]


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
    """The Philox generator keyed by (seed, stream); a seed outside [0, 2^64) raises ValueError."""
    if not 0 <= seed < 1 << 64:
        raise ValueError("seed must be a nonnegative integer below 2^64")
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def _check_sizes(Ns) -> None:
    """Refuse a negative sample size before any step or radius search; N = 0 draws nothing."""
    for N in Ns:
        if N < 0:
            raise ValueError(f"sample size must be >= 0, got {N}")


# ---------------------------------------------------------------------------
# exact sampling in the separable case

_EXACT_GRID_NODES = 8192


def sample_exact_separable(p: ParamVector, N: int, seed: int) -> SampleSet:
    """Inverse-CDF draws, coordinate by coordinate, for product-form theta.

    Not exact: coordinate i's CDF is the trapezoid rule, on 8,192 equispaced
    nodes of [-R, R], of exp(lines[i]), its pure powers in
    ``log_density.by_axis`` (base term included), inverted by linear
    interpolation; R = ``auto_radius(p)``, one radius for every coordinate.
    A member with mixed terms couples coordinates, and raises.
    """
    _check_sizes([N])
    _, lines, mixed = p.log_density.by_axis
    if len(mixed.degrees):
        bad = ", ".join(map(format_monomial, mixed.degrees))
        raise ValueError(f"theta couples coordinates via {bad}; exact sampler needs a separable theta")
    R = auto_radius(p)
    nodes = np.linspace(-R, R, _EXACT_GRID_NODES)
    cols = []
    for i, logf in enumerate(lines @ np.vander(nodes, lines.shape[1], increasing=True).T):
        pdf = np.exp(logf - np.max(logf))
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(nodes))])
        cdf /= cdf[-1]
        cols.append(np.interp(_stream(seed, i).random(N), cdf, nodes))
    return SampleSet(n=p.n, N=N, data=np.column_stack(cols), seed=seed, provenance={"kind": "exact", "parameters": {
        "grid_nodes": _EXACT_GRID_NODES, "radius": R,
        "cdf": "trapezoid rule on grid_nodes equispaced nodes, inverted by linear interpolation"}})


# ---------------------------------------------------------------------------
# MALA

_PILOT_STEPS = 1000
_MAX_THIN = 64
_TARGET_ACCEPT = 0.574  # the acceptance rate optimal for MALA (Roberts and Rosenthal 1998)
_BLOCK = 1024  # steps of noise a chain draws from its stream at a time


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


def _tuning(log_eps: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """eps = exp(log_eps) clipped to [1e-12, 1e3], h = eps^2 / 2, and 1 / (4h) from column 0."""
    e = np.minimum(np.maximum(np.exp(log_eps), 1e-12), 1e3)
    h = 0.5 * e * e
    return e, h, 0.25 / h[:, 0]


def _lockstep(p: ParamVector, counts, streams, config: McmcConfig, x0=None) -> list[tuple]:
    """MALA chains advanced in lock-step as one (C, n) state; chain c draws counts[c] points.

    Chain c owns _stream(*streams[c]): it starts at x0, or at half a
    standard normal from it, and takes its noise from it alone, _BLOCK steps
    at a time (normals, then uniforms).  All chains run burn-in and pilot;
    then chain c takes counts[c] * thin_c steps and leaves the batch, so a
    step makes one log_unnormalized_density call, density and score from one
    term-table evaluation, on the live rows.  Returns per chain (draws, step
    size, acceptance rate, thinning).
    """
    C, n, rngs = len(streams), p.n, [_stream(*key) for key in streams]
    x = np.array([np.asarray(x0, dtype=float) if x0 is not None else 0.5 * r.standard_normal(n) for r in rngs])
    logp, grad = log_unnormalized_density(p, x, with_score=True)
    if not np.isfinite(logp).all():
        raise DivergenceError(f"chain energy is not finite at the starting point {x[np.isfinite(logp).argmin()]}")
    state = np.column_stack([x, logp, grad, x])  # x | log p | score | proposal mean; one copy accepts
    chain, log_eps, accepted = np.arange(C), np.full(C, math.log(config.step_size)), np.zeros(C)  # chain per row
    block, at = (), _BLOCK  # the live rows' noise, and its next unused step

    def run(left, adapt=False):
        """Take left[c] more steps on chain c; yields (steps before, rows' chains, states) per segment."""
        nonlocal state, chain, block, at
        done = 0
        while done < left[chain].max(initial=0):
            live = left[chain] > done  # a chain with all its steps leaves the batch
            state, chain, block = state[live], chain[live], tuple(b[:, live] for b in block)
            if at == _BLOCK:
                z = np.stack([rngs[c].standard_normal((_BLOCK, n)) for c in chain], axis=1)
                u = np.stack([rngs[c].random(_BLOCK) for c in chain], axis=1)
                half_zz = 0.5 * np.vecdot(z, z)
                block, at = (z, half_zz, np.log1p(-u) - half_zz), 0
            seg = min(_BLOCK - at, int(left[chain].min()) - done)
            z, half_zz, w = (b[at : at + seg] for b in block)
            le = log_eps[chain, None].repeat(n, axis=1)  # full rows multiply faster than broadcast columns
            e, h, q = _tuning(le)
            ez, prop = e * z, np.empty_like(state)
            states, oks = np.empty((seg, len(chain), n)), np.empty((seg, len(chain)), dtype=bool)
            (x, logp, grad, mu), (y, logp_y, grad_y, mu_y) = (
                (a[:, :n], a[:, n], a[:, n + 1 : 2 * n + 1], a[:, 2 * n + 1 :]) for a in (state, prop))
            np.add(x, h * grad, out=mu)
            with np.errstate(over="ignore", invalid="ignore"):  # a far-out proposal's score may overflow
                for i in range(seg):
                    np.add(mu, e * z[i] if adapt else ez[i], out=y)
                    logp_y[:], grad_y[:] = log_unnormalized_density(p, y, with_score=True)
                    np.multiply(h, grad_y, out=mu_y)
                    mu_y += y
                    # log q(x | y) - log q(y | x) = |z|^2 / 2 - |x - mu_y|^2 / (4h); w holds log u - |z|^2 / 2
                    r = x - mu_y
                    log_alpha = logp_y - logp
                    log_alpha -= q * np.vecdot(r, r)
                    ok = oks[i] = w[i] < log_alpha
                    np.copyto(state, prop, where=ok[:, None])
                    if adapt:  # Robbins-Monro toward _TARGET_ACCEPT; a nan log_alpha counts as 0
                        alpha = np.fmax(np.exp(np.minimum(log_alpha + half_zz[i], 0.0)), 0.0)
                        le += (done + i + 1) ** -0.6 * (alpha - _TARGET_ACCEPT)[:, None]
                        e, h, q = _tuning(le)
                        np.add(x, h * grad, out=mu)
                    else:
                        states[i] = x
            log_eps[chain] = le[:, 0]
            accepted[chain] += oks.sum(axis=0)
            yield done, chain, states
            at, done = at + seg, done + seg

    list(run(np.full(C, config.burn_in), adapt=True))  # burn-in tunes the step sizes and keeps no states
    thin = np.full(C, config.thinning or 1)
    if config.thinning is None:
        pilot = np.concatenate([states for _, _, states in run(np.full(C, _PILOT_STEPS))])
        thin = np.array([max(_decorrelation_lag(pilot[:, c, i]) for i in range(n)) for c in range(C)])
    accepted[:] = 0
    draws = [[np.empty((0, n))] for _ in range(C)]
    for before, rows, states in run(np.asarray(counts) * thin):
        for r, c in enumerate(rows):  # chain c keeps the states after each multiple of thin_c steps
            draws[c].append(states[(-before - 1) % thin[c] :: thin[c], r])
    eps = _tuning(log_eps[:, None])[0][:, 0]
    return [(np.concatenate(draws[c]), float(eps[c]), accepted[c] / max(counts[c] * thin[c], 1), int(thin[c]))
            for c in range(C)]


def _mcmc_set(p: ParamVector, config: McmcConfig, seed: int, chains: list[tuple]) -> SampleSet:
    """One SampleSet from chains of :func:`_lockstep`, with their tuning and the ESS summed over chains."""
    data = np.vstack([c[0] for c in chains])
    ess = [sum(_geyer_ess(c[0][:, i]) for c in chains if len(c[0])) for i in range(p.n)]
    steps, rates, thins = ([c[k] for c in chains] for k in (1, 2, 3))
    return SampleSet(n=p.n, N=len(data), data=data, seed=seed, provenance={"kind": "mcmc", "parameters": {
        "step_size": steps, "burn_in": config.burn_in, "thinning": thins, "target_accept": _TARGET_ACCEPT,
        "chains": len(chains), "acceptance_rate": [float(r) for r in rates], "ess": [float(e) for e in ess],
    }})


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
    of the draws is below 0.5.  The config.chains chains, chain j on stream
    (seed, j), advance in lock-step (:func:`_lockstep`).
    """
    _check_sizes([N])
    per_chain = [N // config.chains + (1 if j < N % config.chains else 0) for j in range(config.chains)]
    return _mcmc_set(p, config, seed, _lockstep(p, per_chain, [(seed, j) for j in range(config.chains)], config, x0))


def sample_mala_ensemble(p: ParamVector, Ns, seeds, config: McmcConfig) -> list[SampleSet]:
    """One one-chain sample per (N, seed), all the chains in lock-step; chain j on stream (seeds[j], 0)."""
    if len(Ns) != len(seeds):
        raise ValueError(f"{len(Ns)} sample sizes but {len(seeds)} seeds")
    _check_sizes(Ns)
    chains = _lockstep(p, list(Ns), [(s, 0) for s in seeds], config)
    return [_mcmc_set(p, config, s, [c]) for s, c in zip(seeds, chains)]


# ---------------------------------------------------------------------------
# diagnostics against the quadrature oracle


def diagnostics(s: SampleSet, p: ParamVector, grid) -> dict:
    """Max standardized discrepancy between sample and quadrature moments.

    Z-scores use the sample standard error, so a clean sampler should stay
    within a few units regardless of the statistic's scale.  MALA draws are
    autocorrelated: their errors are taken at the provenance's smallest
    per-coordinate ESS, not at N, the plain ones times sqrt(N / min ESS).
    """
    if s.N < 2:
        kind = "an empty sample set" if s.N == 0 else "a single draw"
        raise ValueError(f"diagnostics need at least two draws for a standard error, got {kind}")
    if s.n != p.n or grid.n != s.n:
        raise ValueError("sample, parameter, and grid dimensions must agree")
    mom = moments(p, grid)
    T = eval_suffstats(p.basis, s.data)
    names = p.basis.monomial_names()

    n_eff = min(s.provenance["parameters"]["ess"]) if s.provenance.get("kind") == "mcmc" else s.N

    emp_mean = T.mean(axis=0)
    se_mean = np.maximum(T.std(axis=0, ddof=1) / math.sqrt(n_eff), 1e-15)
    z_mean = np.abs(emp_mean - mom.mean_T) / se_mean

    # E[T_k T_l] and E[T_k^2 T_l^2] as two products over the draws
    T2 = T * T
    emp_second, mean_sq = T.T @ T / s.N, T2.T @ T2 / s.N
    var_second = np.maximum(mean_sq - emp_second**2, 0.0) * s.N / (s.N - 1)
    se_second = np.maximum(np.sqrt(var_second / n_eff), 1e-15)
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
    """Write the header line, then one row of ``%.17g`` values per sample: the bytes of
    ``np.savetxt(path, s.data, fmt="%.17g", header=header, comments="")``, formatted in one
    operation instead of one per row."""
    header = f"polyscore-samples v1 n={s.n} N={s.N} seed={s.seed}"
    row = " ".join(["%.17g"] * s.n) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n" + row * len(s.data) % tuple(s.data.ravel().tolist()))


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

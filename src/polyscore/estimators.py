"""Score-matching and maximum-likelihood estimators, plus rate studies.

Score matching minimizes the empirical Hyvarinen objective, which is
quadratic in theta, so the fit is a single linear solve of the normal
equations.  Because the family carries the base measure
h(x) = exp(-sum x_i^{d+1}), the gradient of the objective picks up a cross
term E[(JT) grad log h] alongside E[Laplacian T]; we solve the full system so
the returned theta is the exact minimizer of sm_loss (this is checked in the
tests against generic quadratic minimization).

The MLE is projected gradient ascent with backtracking on the concave
log-likelihood; the partition function and its gradient come from the
quadrature oracle, which restricts MLE to n <= 3.
"""

from __future__ import annotations

import csv
import io
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg

from .expfam import (
    ParamVector,
    QuadratureGrid,
    family_grid,
    gated_log_partition,
    log_unnormalized_density,
    moments,
    score,
)
from .polybasis import MonomialBasis, eval_jacobian, eval_laplacian, eval_suffstats
from .sampler import McmcConfig, SampleSet, sample_exact_separable, sample_mala

__all__ = [
    "FitReport",
    "SingularGramError",
    "NonConvergenceError",
    "fit_score_matching",
    "sm_loss",
    "mle_loss_and_grad",
    "fit_mle",
    "StudyResult",
    "convergence_study",
    "study_csv",
]

_SAMPLE_CHUNK = 1 << 16
_RESIDUAL_TOL = 1e-8
_MLE_MAX_ITER = 10_000


class SingularGramError(RuntimeError):
    """The score-matching Gram matrix is singular beyond ridge rescue."""


class NonConvergenceError(RuntimeError):
    """The MLE ascent hit its iteration cap before reaching tolerance."""


@dataclass(frozen=True)
class FitReport:
    theta_hat: np.ndarray
    loss: float
    estimator: str
    gram_condition: float
    N: int
    wall_time: float
    notes: list[str] = field(default_factory=list)

    def __post_init__(self):
        theta = np.asarray(self.theta_hat, dtype=float)
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta_hat must be finite")
        if not self.gram_condition >= 1.0:
            raise ValueError(f"gram_condition must be >= 1, got {self.gram_condition}")
        theta = theta.copy()
        theta.setflags(write=False)
        object.__setattr__(self, "theta_hat", theta)


def _check_dims(s: SampleSet, basis: MonomialBasis):
    if s.n != basis.n:
        raise ValueError(f"sample dimension {s.n} != basis dimension {basis.n}")


def _grad_log_h(X: np.ndarray, d: int) -> np.ndarray:
    return -(d + 1) * X**d


def _laplacian_log_h(X: np.ndarray, d: int) -> np.ndarray:
    if d == 1:
        return np.full(len(X), -2.0 * X.shape[1])
    return -(d + 1) * d * np.sum(X ** (d - 1), axis=1)


def _normal_equations(s: SampleSet, basis: MonomialBasis) -> tuple[np.ndarray, np.ndarray]:
    """G = E[(JT)(JT)^t] and b = E[Laplacian T + (JT) grad log h]."""
    M1 = basis.size
    G = np.zeros((M1, M1))
    bsum = np.zeros(M1)
    for lo in range(0, s.N, _SAMPLE_CHUNK):
        X = s.data[lo : lo + _SAMPLE_CHUNK]
        J = eval_jacobian(basis, X)
        G += np.einsum("ski,sli->kl", J, J)
        bsum += eval_laplacian(basis, X).sum(axis=0)
        bsum += np.einsum("ski,si->k", J, _grad_log_h(X, basis.d))
    return G / s.N, bsum / s.N


def fit_score_matching(s: SampleSet, basis: MonomialBasis) -> FitReport:
    """Closed-form score-matching fit: solve G theta = -b.

    Plain Cholesky first; if the Gram matrix is not positive definite, retry
    with ridge 1e-10 tr(G)/(M-1).  A right-hand side with weight on the null
    space of G means the objective is unbounded below along those monomial
    directions, which no ridge can fix honestly, so that case is an error.
    """
    if s.N < 1:
        raise ValueError("need at least one sample")
    _check_dims(s, basis)
    t0 = time.perf_counter()
    G, b = _normal_equations(s, basis)
    notes = []
    theta = None
    try:
        theta = -linalg.cho_solve(linalg.cho_factor(G), b)
        cond = float(np.linalg.cond(G))
    except linalg.LinAlgError:
        w, V = np.linalg.eigh(G)
        null = w <= max(float(w[-1]), 0.0) * 1e-12
        if np.linalg.norm(V[:, null].T @ b) > _RESIDUAL_TOL * (1.0 + np.linalg.norm(b)):
            names = np.array(basis.monomial_names())
            loud = sorted(set(names[np.any(np.abs(V[:, null]) > 1e-8, axis=1)]))
            raise SingularGramError(
                "Gram matrix singular beyond ridge rescue; "
                f"the data leave these monomial directions unidentified: {', '.join(loud)}"
            ) from None
        lam = 1e-10 * float(np.trace(G)) / basis.size
        theta = -linalg.cho_solve(linalg.cho_factor(G + lam * np.eye(basis.size)), b)
        cond = float(np.linalg.cond(G + lam * np.eye(basis.size)))
        notes.append(f"ridge rescue applied, lambda={lam:.3e}")
    resid = np.linalg.norm(G @ theta + b)
    if resid > _RESIDUAL_TOL * (1.0 + np.linalg.norm(theta)):
        raise SingularGramError(
            f"normal equations residual {resid:.3e} exceeds tolerance; Gram matrix too ill-conditioned"
        )
    B = max(1.0, float(np.max(np.abs(theta))))
    loss = sm_loss(ParamVector(basis, theta, B), s)
    return FitReport(
        theta_hat=theta,
        loss=loss,
        estimator="SM",
        gram_condition=max(cond, 1.0),
        N=s.N,
        wall_time=time.perf_counter() - t0,
        notes=notes,
    )


def sm_loss(p: ParamVector, s: SampleSet) -> float:
    """Empirical E[trace Hessian log p + 1/2 |grad log p|^2]; Z-free."""
    _check_dims(s, p.basis)
    total = 0.0
    for lo in range(0, s.N, _SAMPLE_CHUNK):
        X = s.data[lo : lo + _SAMPLE_CHUNK]
        trace = _laplacian_log_h(X, p.d) + eval_laplacian(p.basis, X) @ p.theta
        total += float(np.sum(trace + 0.5 * np.sum(score(p, X) ** 2, axis=1)))
    return total / s.N


# ---------------------------------------------------------------------------
# maximum likelihood


def _empirical_parts(s: SampleSet, basis: MonomialBasis) -> tuple[float, np.ndarray]:
    mean_logh = 0.0
    mean_T = np.zeros(basis.size)
    for lo in range(0, s.N, _SAMPLE_CHUNK):
        X = s.data[lo : lo + _SAMPLE_CHUNK]
        mean_logh += float(np.sum(-np.sum(X ** (basis.d + 1), axis=1)))
        mean_T += eval_suffstats(basis, X).sum(axis=0)
    return mean_logh / s.N, mean_T / s.N


def mle_loss_and_grad(
    p: ParamVector, s: SampleSet, grid: QuadratureGrid, check: bool = True
) -> tuple[float, np.ndarray]:
    """Average log-likelihood and its theta-gradient E_hat[T] - E_theta[T]."""
    _check_dims(s, p.basis)
    if check:
        gated_log_partition(p, grid)
    mean_logh, emp_T = _empirical_parts(s, p.basis)
    mom = moments(p, grid)
    loss = mean_logh + float(p.theta @ emp_T) - mom.log_partition
    return loss, emp_T - mom.mean_T


def _as_member(basis: MonomialBasis, theta: np.ndarray) -> ParamVector:
    # ascent iterates are unconstrained; give them whatever box they need
    return ParamVector(basis, theta, max(1.0, float(np.max(np.abs(theta)))))


def fit_mle(
    s: SampleSet,
    basis: MonomialBasis,
    grid: QuadratureGrid,
    init: np.ndarray | None = None,
    tol: float = 1e-6,
) -> FitReport:
    """Gradient ascent with Armijo backtracking on the concave likelihood.

    Concavity (the Hessian is minus the Fisher information) makes the optimum
    unique and independent of init; iterations stop when the gradient's sup
    norm is at most tol.  The quadrature gate is checked at the start and at
    the returned optimum, so an under-resolved grid fails loudly rather than
    silently biasing the fit.
    """
    if s.N < 1:
        raise ValueError("need at least one sample")
    _check_dims(s, basis)
    t0 = time.perf_counter()
    theta = np.zeros(basis.size) if init is None else np.asarray(init, dtype=float).copy()
    gated_log_partition(_as_member(basis, theta), grid)
    mean_logh, emp_T = _empirical_parts(s, basis)

    def objective(th: np.ndarray) -> tuple[float, np.ndarray]:
        mom = moments(_as_member(basis, th), grid)
        loss = mean_logh + float(th @ emp_T) - mom.log_partition
        return loss, emp_T - mom.mean_T

    loss, grad = objective(theta)
    step = 1.0
    notes = []
    for it in range(1, _MLE_MAX_ITER + 1):
        if np.max(np.abs(grad)) <= tol:
            notes.append(f"iterations={it - 1}")
            break
        step = min(step * 2.0, 1.0)
        while True:
            cand = theta + step * grad
            if np.array_equal(cand, theta):
                raise NonConvergenceError(
                    f"updates below float resolution with gradient {np.max(np.abs(grad)):.3e} > tol {tol:.1e}"
                )
            cand_loss, cand_grad = objective(cand)
            if cand_loss >= loss + 1e-4 * step * float(grad @ grad):
                theta, loss, grad = cand, cand_loss, cand_grad
                break
            step *= 0.5
            if step < 1e-16:
                raise NonConvergenceError(
                    f"line search stalled at iteration {it} with gradient {np.max(np.abs(grad)):.3e}"
                )
    else:
        raise NonConvergenceError(
            f"no convergence in {_MLE_MAX_ITER} iterations; gradient still {np.max(np.abs(grad)):.3e}"
        )
    gated_log_partition(_as_member(basis, theta), grid)
    return FitReport(
        theta_hat=theta,
        loss=loss,
        estimator="MLE",
        gram_condition=1.0,
        N=s.N,
        wall_time=time.perf_counter() - t0,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# convergence studies


@dataclass(frozen=True)
class StudyResult:
    estimator: str
    n: int
    d: int
    B: float
    Ns: tuple[int, ...]
    trials: int
    rows: list[dict]
    medians: dict[int, float]
    slope: float


def study_csv(result: StudyResult) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(
        buf, fieldnames=["estimator", "n", "d", "B", "N", "trial", "error_sq", "wall_time_s"]
    )
    writer.writeheader()
    for row in result.rows:
        writer.writerow(row)
    return buf.getvalue()


def _draw(theta_star: ParamVector, N: int, seed: int) -> SampleSet:
    try:
        return sample_exact_separable(theta_star, N, seed)
    except ValueError:
        cfg = McmcConfig(burn_in=2000)
        return sample_mala(theta_star, N, cfg, seed)


def _one_trial(theta_star, N, trial, seed, estimator, grid):
    t0 = time.perf_counter()
    s = _draw(theta_star, N, seed)
    if estimator == "SM":
        report = fit_score_matching(s, theta_star.basis)
    else:
        report = fit_mle(s, theta_star.basis, grid, tol=1e-6)
    err = float(np.sum((report.theta_hat - theta_star.theta) ** 2))
    return {
        "estimator": estimator,
        "n": theta_star.n,
        "d": theta_star.d,
        "B": theta_star.B,
        "N": N,
        "trial": trial,
        "error_sq": err,
        "wall_time_s": time.perf_counter() - t0,
    }


def convergence_study(
    theta_star: ParamVector,
    Ns: list[int],
    trials: int,
    estimator: str = "SM",
    seed: int = 0,
    grid: QuadratureGrid | None = None,
) -> StudyResult:
    """Median squared error against N, with the log-log rate slope.

    Per-trial seeds are spawned from one seed sequence, so results do not
    depend on the execution order; POLYSCORE_THREADS > 1 runs trials in a
    thread pool.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if len(Ns) < 1 or any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise ValueError("Ns must be strictly increasing")
    if estimator not in ("SM", "MLE"):
        raise ValueError(f"unknown estimator {estimator!r}")
    if estimator == "MLE" and grid is None:
        grid = family_grid(theta_star.basis, theta_star.B)
    jobs = []
    ss = np.random.SeedSequence(seed)
    children = ss.spawn(len(Ns) * trials)
    for a, N in enumerate(Ns):
        for t in range(trials):
            child_seed = int(children[a * trials + t].generate_state(1, dtype=np.uint64)[0] >> 1)
            jobs.append((theta_star, N, t, child_seed, estimator, grid))
    threads = int(os.environ.get("POLYSCORE_THREADS", "1"))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(lambda args: _one_trial(*args), jobs))
    else:
        rows = [_one_trial(*args) for args in jobs]
    medians = {
        N: float(np.median([r["error_sq"] for r in rows if r["N"] == N])) for N in Ns
    }
    if len(Ns) >= 2:
        slope = float(
            np.polyfit(np.log(list(medians.keys())), np.log(list(medians.values())), 1)[0]
        )
    else:
        slope = math.nan
    return StudyResult(
        estimator=estimator,
        n=theta_star.n,
        d=theta_star.d,
        B=theta_star.B,
        Ns=tuple(Ns),
        trials=trials,
        rows=rows,
        medians=medians,
        slope=slope,
    )

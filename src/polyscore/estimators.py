"""Score-matching and maximum-likelihood estimators, plus rate studies.

Both estimators are statistics plus one solve: ``polybasis.sample_stats``
reads the sample once, and the MLE adds the quadrature oracle's ``moments``.

Score matching minimizes the empirical Hyvarinen objective, which is
quadratic in theta: c + b . theta + theta^t G theta / 2 with G the Gram
matrix of the Jacobian and b = E[Laplacian T + (JT) grad log h], the cross
term coming from the base measure h(x) = exp(-sum x_i^{d+1}).  The fit
solves G theta = -b, the exact minimizer of sm_loss (checked in the tests
against generic quadratic minimization).

The MLE is damped Newton ascent on the concave log-likelihood, whose Hessian
is minus the Fisher information from the same ``moments`` pass as the
gradient; the partition function comes from the quadrature oracle, which
restricts MLE to n <= 3.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg

from .errors import NonConvergenceError, SingularGramError
from .expfam import (
    ParamVector,
    QuadratureGrid,
    family_grid,
    gated_log_partition,
    moments,
)
from .polybasis import FamilyStats, MonomialBasis, sample_stats
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

_RESIDUAL_TOL = 1e-8
_MLE_MAX_ITER = 10_000


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
    st = sample_stats(basis, s.data)
    G, b = st.gram, st.sm_linear
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
    return FitReport(
        theta_hat=theta,
        loss=_quadratic_loss(st, theta),
        estimator="SM",
        gram_condition=max(cond, 1.0),
        N=s.N,
        wall_time=time.perf_counter() - t0,
        notes=notes,
    )


def _quadratic_loss(st: FamilyStats, theta: np.ndarray) -> float:
    return st.sm_const + float(st.sm_linear @ theta) + 0.5 * float(theta @ st.gram @ theta)


def sm_loss(p: ParamVector, s: SampleSet) -> float:
    """Empirical E[trace Hessian log p + 1/2 |grad log p|^2]; Z-free."""
    _check_dims(s, p.basis)
    return _quadratic_loss(sample_stats(p.basis, s.data), p.theta)


# ---------------------------------------------------------------------------
# maximum likelihood


def _mle_objective(p: ParamVector, emp: FamilyStats, grid: QuadratureGrid, check: bool = False):
    """Average log-likelihood, its gradient and minus its Hessian, the Fisher matrix."""
    mom = moments(p, grid, check)
    loss = emp.mean_log_h + float(p.theta @ emp.mean_T) - mom.log_partition
    return loss, emp.mean_T - mom.mean_T, mom.fisher


def mle_loss_and_grad(
    p: ParamVector, s: SampleSet, grid: QuadratureGrid, check: bool = True
) -> tuple[float, np.ndarray]:
    """Average log-likelihood and its theta-gradient E_hat[T] - E_theta[T]."""
    _check_dims(s, p.basis)
    return _mle_objective(p, sample_stats(p.basis, s.data), grid, check)[:2]


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
    """Damped Newton ascent with Armijo backtracking on the concave likelihood.

    The Hessian is minus the Fisher information, so each step solves
    I step = grad (gradient steps where I is not numerically positive
    definite) and halves the step until the Armijo condition holds.
    Concavity makes the optimum unique and independent of init; iterations
    stop when the gradient's sup norm is at most tol.  A tol below the
    gradient's rounding bound eps (N + nodes) max(1, max|E_hat[T]|) cannot
    be certified and is refused up front.  The quadrature gate is checked at
    the start and at the returned optimum, so an under-resolved grid fails
    loudly rather than silently biasing the fit.
    """
    if s.N < 1:
        raise ValueError("need at least one sample")
    _check_dims(s, basis)
    t0 = time.perf_counter()
    theta = np.zeros(basis.size) if init is None else np.asarray(init, dtype=float).copy()
    gated_log_partition(_as_member(basis, theta), grid)
    emp = sample_stats(basis, s.data)
    floor = np.finfo(float).eps * (s.N + grid.total_nodes) * max(1.0, float(np.max(np.abs(emp.mean_T))))
    if tol < floor:
        raise NonConvergenceError(
            f"tol {tol:.1e} is below the gradient's rounding bound {floor:.1e}; it cannot be certified"
        )
    loss, grad, info = _mle_objective(_as_member(basis, theta), emp, grid)
    notes = []
    for it in range(1, _MLE_MAX_ITER + 1):
        if np.max(np.abs(grad)) <= tol:
            notes.append(f"iterations={it - 1}")
            break
        try:
            direction = linalg.cho_solve(linalg.cho_factor(info), grad)
        except linalg.LinAlgError:
            direction = grad
        step = 1.0
        while True:
            cand = theta + step * direction
            if step < 1e-16 or np.array_equal(cand, theta):
                raise NonConvergenceError(
                    f"line search stalled at iteration {it} with gradient {np.max(np.abs(grad)):.3e} > tol {tol:.1e}"
                )
            cand_loss, cand_grad, cand_info = _mle_objective(_as_member(basis, cand), emp, grid)
            if cand_loss >= loss + 1e-4 * step * float(grad @ direction):
                theta, loss, grad, info = cand, cand_loss, cand_grad, cand_info
                break
            step *= 0.5
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
    depend on the order the trials run in.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if len(Ns) < 1 or any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise ValueError("Ns must be strictly increasing")
    if estimator not in ("SM", "MLE"):
        raise ValueError(f"unknown estimator {estimator!r}")
    if estimator == "MLE" and grid is None:
        grid = family_grid(theta_star.basis, theta_star.B)
    children = iter(np.random.SeedSequence(seed).spawn(len(Ns) * trials))
    rows = []
    for N in Ns:
        for t in range(trials):
            child_seed = int(next(children).generate_state(1, dtype=np.uint64)[0] >> 1)
            rows.append(_one_trial(theta_star, N, t, child_seed, estimator, grid))
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

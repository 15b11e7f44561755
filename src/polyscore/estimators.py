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

from .errors import NonConvergenceError, SingularGramError
from .expfam import (
    ParamVector,
    QuadratureGrid,
    doubling_gate,
    family_grid,
    moments,
)
from .polybasis import FamilyStats, MonomialBasis, _null_space
from .sampler import McmcConfig, SampleSet, sample_exact_separable, sample_mala_ensemble

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


def _cho_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A^-1 b by Cholesky; np.linalg.LinAlgError when A is not positive definite."""
    L = np.linalg.cholesky(A)
    return np.linalg.solve(L.T, np.linalg.solve(L, b))


def fit_score_matching(s: SampleSet, basis: MonomialBasis) -> FitReport:
    """Closed-form score-matching fit: solve G theta = -b.

    Plain Cholesky first; if the Gram matrix is not positive definite, retry
    with ridge 1e-10 tr(G)/(M-1).  A right-hand side with weight on the null
    space of G means the objective is unbounded below along those monomial
    directions, which no ridge can fix honestly, so that case is an error.
    """
    if s.N < 1:
        raise ValueError("need at least one sample")
    st = s.stats(basis)
    G, b = st.gram, st.sm_linear
    notes = []
    theta = None
    try:
        theta = -_cho_solve(G, b)
        cond = float(np.linalg.cond(G))
    except np.linalg.LinAlgError:
        _, V, null, dirs = _null_space(G, basis.monomial_names())
        if np.linalg.norm(V[:, null].T @ b) > _RESIDUAL_TOL * (1.0 + np.linalg.norm(b)):
            raise SingularGramError(
                "Gram matrix singular beyond ridge rescue; "
                f"the data leave these monomial directions unidentified: {dirs}"
            ) from None
        lam = 1e-10 * float(np.trace(G)) / basis.size
        theta = -_cho_solve(G + lam * np.eye(basis.size), b)
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
        notes=notes,
    )


def _quadratic_loss(st: FamilyStats, theta: np.ndarray) -> float:
    return st.sm_const + float(st.sm_linear @ theta) + 0.5 * float(theta @ st.gram @ theta)


def sm_loss(p: ParamVector, s: SampleSet) -> float:
    """Empirical E[trace Hessian log p + 1/2 |grad log p|^2]; Z-free."""
    return _quadratic_loss(s.stats(p.basis), p.theta)


# ---------------------------------------------------------------------------
# maximum likelihood


def _mle_objective(p: ParamVector, emp: FamilyStats, grid: QuadratureGrid, check: bool = False):
    """Average log-likelihood, its gradient, and the moments: mom.fisher is minus its Hessian."""
    mom = moments(p, grid, check)
    loss = emp.mean_log_h + float(p.theta @ emp.mean_T) - mom.log_partition
    return loss, emp.mean_T - mom.mean_T, mom


def mle_loss_and_grad(p: ParamVector, s: SampleSet, grid: QuadratureGrid) -> tuple[float, np.ndarray]:
    """Average log-likelihood and its theta-gradient E_hat[T] - E_theta[T], behind the quadrature gate."""
    return _mle_objective(p, s.stats(p.basis), grid, check=True)[:2]


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
    be certified and is refused up front, and a tol that is not finite (a
    NaN one compares false with every bound) with ValueError.  The
    quadrature gate is checked at the start and at the returned optimum, so
    an under-resolved grid fails loudly rather than silently biasing the
    fit; the start's check rides its objective pass, and the optimum's
    reuses that iterate's log Z, so each adds only the doubled grid's pass.
    """
    if s.N < 1:
        raise ValueError("need at least one sample")
    if not math.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol}")
    theta = np.zeros(basis.size) if init is None else np.asarray(init, dtype=float).copy()
    emp = s.stats(basis)
    loss, grad, mom = _mle_objective(_as_member(basis, theta), emp, grid, check=True)
    floor = np.finfo(float).eps * (s.N + grid.total_nodes) * max(1.0, float(np.max(np.abs(emp.mean_T))))
    if tol < floor:
        raise NonConvergenceError(
            f"tol {tol:.1e} is below the gradient's rounding bound {floor:.1e}; it cannot be certified"
        )
    notes = []
    for it in range(1, _MLE_MAX_ITER + 1):
        if np.max(np.abs(grad)) <= tol:
            notes.append(f"iterations={it - 1}")
            break
        try:
            direction = _cho_solve(mom.fisher, grad)
        except np.linalg.LinAlgError:
            direction = grad
        step = 1.0
        while True:
            cand = theta + step * direction
            if step < 1e-16 or np.array_equal(cand, theta):
                raise NonConvergenceError(
                    f"line search stalled at iteration {it} with gradient {np.max(np.abs(grad)):.3e} > tol {tol:.1e}"
                )
            cand_loss, cand_grad, cand_mom = _mle_objective(_as_member(basis, cand), emp, grid)
            if cand_loss >= loss + 1e-4 * step * float(grad @ direction):
                theta, loss, grad, mom = cand, cand_loss, cand_grad, cand_mom
                break
            step *= 0.5
    else:
        raise NonConvergenceError(
            f"no convergence in {_MLE_MAX_ITER} iterations; gradient still {np.max(np.abs(grad)):.3e}"
        )
    if it > 1:  # the start point passed the gate with its first pass
        doubling_gate(grid, _as_member(basis, theta).log_density, mom.log_partition)
    return FitReport(
        theta_hat=theta,
        loss=loss,
        estimator="MLE",
        gram_condition=1.0,
        N=s.N,
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
    slope: float | None  # None below two sample sizes, where no rate is defined


def study_csv(*results: StudyResult) -> str:
    """One CSV table: a header, then each result's rows in turn."""
    buf = io.StringIO()
    writer = csv.DictWriter(
        buf, fieldnames=["estimator", "n", "d", "B", "N", "trial", "error_sq", "wall_time_s"]
    )
    writer.writeheader()
    for result in results:
        writer.writerows(result.rows)
    return buf.getvalue()


def _trial_samples(theta_star: ParamVector, Ns: list[int], seeds: list[int]):
    """(sample, draw seconds) per trial.

    A separable member, one without mixed terms, gets exact draws one trial
    at a time; a coupled member's trials are one MALA ensemble, whose time
    they share equally.
    """
    if len(theta_star.log_density.by_axis[2].degrees):
        t0 = time.perf_counter()
        samples = sample_mala_ensemble(theta_star, Ns, seeds, McmcConfig(burn_in=2000))
        share = (time.perf_counter() - t0) / len(samples)
        yield from ((s, share) for s in samples)
        return
    for N, seed in zip(Ns, seeds):
        t0 = time.perf_counter()
        yield sample_exact_separable(theta_star, N, seed), time.perf_counter() - t0


def _one_trial(theta_star, s, trial, estimator, grid, draw_s):
    t0 = time.perf_counter()
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
        "N": s.N,
        "trial": trial,
        "error_sq": err,
        "wall_time_s": draw_s + time.perf_counter() - t0,
    }


def _median(values: list[float]) -> float:
    """``np.median`` of floats without the numpy.ma import of its first call: the middle
    value, or the middle pair's (a + b) / 2, np.mean's bits; NaN if any value is NaN."""
    v = sorted(values)
    if any(map(math.isnan, v)):
        return math.nan
    h = len(v) // 2
    return v[h] if len(v) % 2 else (v[h - 1] + v[h]) / 2


def convergence_study(
    theta_star: ParamVector,
    Ns: list[int],
    trials: int,
    estimator: str = "SM",
    seed: int = 0,
) -> StudyResult:
    """Median squared error against N, with the log-log rate slope.

    Per-trial seeds are spawned from one seed sequence, so results do not
    depend on the order the trials run in.  A row's wall_time_s is its fit
    time plus its draw time; a coupled member's trials are drawn first, as
    one MALA ensemble, and each row gets an equal share of its time.  MLE
    fits run on the member's :func:`~polyscore.expfam.family_grid`.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if len(Ns) < 1 or any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise ValueError("Ns must be strictly increasing")
    if Ns[0] < 1:
        raise ValueError(f"sample sizes must be >= 1, got {Ns[0]}")
    if estimator not in ("SM", "MLE"):
        raise ValueError(f"unknown estimator {estimator!r}")
    grid = family_grid(theta_star.basis, theta_star.B) if estimator == "MLE" else None
    seeds = [int(c.generate_state(1, dtype=np.uint64)[0] >> 1)
             for c in np.random.SeedSequence(seed).spawn(len(Ns) * trials)]
    samples = _trial_samples(theta_star, [N for N in Ns for _ in range(trials)], seeds)
    rows = [_one_trial(theta_star, s, k % trials, estimator, grid, draw_s) for k, (s, draw_s) in enumerate(samples)]
    medians = {N: _median([r["error_sq"] for r in rows if r["N"] == N]) for N in Ns}
    slope = None
    if len(Ns) >= 2:
        slope = float(
            np.polyfit(np.log(list(medians.keys())), np.log(list(medians.values())), 1)[0]
        )
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

"""Computations the checks compare the program's outputs against.

Nothing here calls polyscore: satisfying assignments come from an exhaustive
scan, the CNF energy from the clause product form ``(x_i -+ 1)^2`` and
``(1 - x_i^2)^2`` rather than the expanded polynomial, family moments from a
tensor Gauss-Legendre rule of our own, and score-matching fits from the
normal equations written out directly.  Multi-index rows (the basis order)
are the one thing taken from the program, because theta is only meaningful
in its coordinates.
"""

from __future__ import annotations

import math

import numpy as np


def satisfying_vertices(n: int, clauses) -> np.ndarray:
    """All v in {-1, 1}^n that satisfy every clause, by exhaustive scan."""
    codes = np.arange(1 << n)
    V = 1 - 2 * ((codes[:, None] >> np.arange(n)) & 1)
    sat = np.ones(len(V), dtype=bool)
    for clause in clauses:
        lits = np.asarray(clause)
        sat &= (V[:, np.abs(lits) - 1] * np.sign(lits) > 0).any(axis=1)
    return V[sat]


def sampling_couplings(n: int, scale: float) -> tuple[float, float]:
    """The paper's sampling-regime couplings (alpha, beta), times scale."""
    alpha = 2.0 * (n + 1)
    beta = 32400.0 * n * math.log(13 * n * math.sqrt(5 * n))
    return alpha * scale, beta * scale


def cnf_orthant_mass(axis_nodes, axis_logw, clauses, alpha, beta, sat_vertices) -> float:
    """Mass of the satisfying orthants under h(x) exp(-alpha H - beta G), n = 3.

    Log-sum-exp over the tensor grid given by per-axis nodes and log
    weights, in slabs along the first axis; the energy is built from the
    clause products, never from expanded coefficients.
    """
    x = np.asarray(axis_nodes, dtype=float)
    lw = np.asarray(axis_logw, dtype=float)
    axes = [x[:, None, None], x[None, :, None], x[None, None, :]]
    lw12 = lw[None, :, None] + lw[None, None, :]
    m, z, z_sat = -math.inf, 0.0, 0.0
    for lo in range(0, len(x), 16):
        sl = slice(lo, lo + 16)
        X = [axes[0][sl], axes[1], axes[2]]
        H = 0.0
        for clause in clauses:
            term = 1.0
            for lit in clause:
                term = term * (X[abs(lit) - 1] - np.sign(lit)) ** 2
            H = H + term
        G = sum((1.0 - Xi**2) ** 2 for Xi in X)
        ell = lw[sl, None, None] + lw12 - sum(Xi**8 for Xi in X) - alpha * H - beta * G
        hit = np.zeros(ell.shape, dtype=bool)
        for v in sat_vertices:
            hit |= (X[0] * v[0] >= 0) & (X[1] * v[1] >= 0) & (X[2] * v[2] >= 0)
        m_c = float(ell.max())
        if m_c > m:
            z *= math.exp(m - m_c)
            z_sat *= math.exp(m - m_c)
            m = m_c
        w = np.exp(ell - m)
        z += float(w.sum())
        z_sat += float(w[hit].sum())
    return z_sat / z


# ---------------------------------------------------------------------------
# the polynomial family, in the program's multi-index coordinates


def monomials(X: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """T(x): column k is prod_i x_i ** degrees[k, i]."""
    return np.prod(X[:, None, :] ** degrees[None, :, :], axis=2)


def jacobian(X: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """(N, M, n): d T_k / d x_i."""
    N, n = X.shape
    J = np.empty((N, len(degrees), n))
    for i in range(n):
        lowered = degrees.copy()
        lowered[:, i] = np.maximum(lowered[:, i] - 1, 0)
        J[:, :, i] = degrees[:, i] * monomials(X, lowered)
    return J


def laplacian(X: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """(N, M): sum_i d^2 T_k / d x_i^2."""
    L = np.zeros((len(X), len(degrees)))
    for i in range(X.shape[1]):
        c = degrees[:, i]
        lowered = degrees.copy()
        lowered[:, i] = np.maximum(lowered[:, i] - 2, 0)
        L += c * (c - 1) * monomials(X, lowered)
    return L


def family_mean_T(degrees: np.ndarray, d: int, theta, radius: float = 7.0,
                  panels: int = 28, per_panel: int = 20) -> np.ndarray:
    """E_theta[T] by a composite tensor Gauss-Legendre rule on [-radius, radius]^n."""
    u, w = np.polynomial.legendre.leggauss(per_panel)
    edges = np.linspace(-radius, radius, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    x = (mid[:, None] + half[:, None] * u).ravel()
    logw = np.log((half[:, None] * w).ravel())
    n = degrees.shape[1]
    mesh = np.meshgrid(*([x] * n), indexing="ij")
    X = np.column_stack([g.ravel() for g in mesh])
    LW = sum(g.ravel() for g in np.meshgrid(*([logw] * n), indexing="ij"))
    T = monomials(X, degrees)
    ell = LW - np.sum(X ** (d + 1), axis=1) + T @ np.asarray(theta, dtype=float)
    wts = np.exp(ell - ell.max())
    return (wts @ T) / wts.sum()


def sm_fit(X: np.ndarray, degrees: np.ndarray, d: int) -> np.ndarray:
    """Score-matching minimizer: solve E[J J^t] theta = -E[Lap T + J grad log h]."""
    J = jacobian(X, degrees)
    grad_log_h = -(d + 1) * X**d
    G = np.einsum("ski,sli->kl", J, J) / len(X)
    b = (laplacian(X, degrees).sum(axis=0) + np.einsum("ski,si->k", J, grad_log_h)) / len(X)
    return -np.linalg.solve(G, b)


def batch_mean_z(T: np.ndarray, reference: np.ndarray, batches: int = 20) -> np.ndarray:
    """|mean(T) - reference| in units of the batch-means standard error.

    Batch means absorb the autocorrelation of a Markov chain's output, so
    the score is on the scale of a t statistic with batches - 1 degrees of
    freedom whatever the chain's mixing time.
    """
    usable = len(T) - len(T) % batches
    bm = T[:usable].reshape(batches, -1, T.shape[1]).mean(axis=1)
    se = bm.std(axis=0, ddof=1) / math.sqrt(batches)
    return np.abs(T[:usable].mean(axis=0) - reference) / np.maximum(se, 1e-300)

"""The density family, its score, and the tensor quadrature oracle.

Members are densities on R^n of the form

    p_theta(x) = h(x) exp(<theta, T(x)>) / Z_theta,
    h(x) = exp(-sum_i x_i^{d+1}),

where T stacks the monomials of degree 1..d (graded-lex order, see
``polybasis``), d is odd, and theta lives in the sup-norm box of radius B.
The partition function Z_theta is computed by composite tensor-product
Gauss-Legendre quadrature, restricted to n <= 3 where the tensor rule is an
auditable ground truth.  All density work is done in log space; integrals are
accumulated with a streaming log-sum-exp so that inverse temperatures up to
1e7 in the hardness experiments stay inside double range.

Polynomial log densities go through one sum-factorised oracle,
:func:`poly_quadrature` (Orszag 1980): on the slab x_1 = t_a of the tensor
grid the log density is the matrix product P_2 C(t_a) P_3^t of per-axis power
tables and the slab's coefficient matrix, so no grid point is ever formed and
the working set is one K x K slab.  The same pass returns the power moments
E[x^e] up to a requested order; :func:`moments` takes them to order 2d, which
determines E[T], E[T T^t], the Jacobian Gram matrix, the score-matching terms
and E|Lap T|^2 (``polybasis.family_stats``).  Only integrands that are not
polynomials, such as ``fisher``'s largest eigenvalue of (JT)^t(JT), stream
node chunks through :func:`quad_expectation`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy import integrate

from .errors import GridConvergenceError, InputError, NumericalError
from .polybasis import (
    FamilyStats,
    MonomialBasis,
    _monomials_from_table,
    _power_table,
    enumerate_basis,
    family_stats,
    moment_degrees,
    row_blocks,
)
from .reports import BoundCheck

__all__ = [
    "ParamVector",
    "QuadratureGrid",
    "zero_params",
    "random_params",
    "param_to_json",
    "param_from_json",
    "load_param",
    "log_unnormalized_density",
    "score",
    "build_grid",
    "GATE_TOL",
    "GridConvergenceError",
    "PolyIntegral",
    "log_density_tensor",
    "member_coeffs",
    "poly_quadrature",
    "gated_quadrature",
    "gated_log_partition",
    "log_partition",
    "Moments",
    "moments",
    "quad_log_integral",
    "quad_expectation",
    "auto_radius",
    "family_radius",
    "default_grid",
    "family_grid",
    "tail_radius",
    "moment_bound",
    "verify_int_concentration",
    "verify_1d_moment_bound",
    "DEFAULT_POINTS_PER_AXIS",
]

# Grid resolution defaults by dimension; chosen so that doubling
# points_per_axis moves log_partition by less than 1e-8 on desk-scale members.
DEFAULT_POINTS_PER_AXIS = {1: 400, 2: 200, 3: 120}

# Quadrature convergence gate: doubling points_per_axis may move log Z by
# less than this.
GATE_TOL = 1e-8


@dataclass(frozen=True)
class ParamVector:
    """A family member: coefficient vector theta on basis, box radius B."""

    basis: MonomialBasis
    theta: np.ndarray
    B: float

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        if theta.shape != (self.basis.size,):
            raise ValueError(
                f"theta has shape {theta.shape}, basis needs ({self.basis.size},)"
            )
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta must be finite")
        if self.B < 1:
            raise ValueError(f"box radius must satisfy B >= 1, got {self.B}")
        if theta.size and np.max(np.abs(theta)) > self.B * (1 + 1e-9):
            raise ValueError(
                f"theta outside the box: max|theta| = {np.max(np.abs(theta))} > B = {self.B}"
            )
        theta = theta.copy()
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)

    @property
    def n(self) -> int:
        return self.basis.n

    @property
    def d(self) -> int:
        return self.basis.d

    @cached_property
    def _terms(self) -> tuple[_Terms, _Terms]:
        """The sparse term tables of the log density and the score, built on first use."""
        return _term_table(self)


def zero_params(n: int, d: int, B: float = 1.0) -> ParamVector:
    basis = enumerate_basis(n, d)
    return ParamVector(basis, np.zeros(basis.size), B)


def random_params(n: int, d: int, B: float, seed: int) -> ParamVector:
    """theta drawn uniformly from the box of radius B."""
    basis = enumerate_basis(n, d)
    rng = np.random.default_rng(seed)
    return ParamVector(basis, rng.uniform(-B, B, size=basis.size), B)


def param_to_json(p: ParamVector) -> dict:
    return {"n": p.n, "d": p.d, "B": p.B, "theta": [float(v) for v in p.theta]}


def param_from_json(obj: dict) -> ParamVector:
    basis = enumerate_basis(int(obj["n"]), int(obj["d"]))
    return ParamVector(basis, np.asarray(obj["theta"], dtype=float), float(obj["B"]))


def load_param(path) -> ParamVector:
    """Read a member from a JSON file; a malformed one raises InputError."""
    try:
        return param_from_json(json.loads(Path(path).read_text()))
    except (ValueError, KeyError, TypeError) as e:
        raise InputError(f"cannot parse theta file {path}: {e}") from e


# ---------------------------------------------------------------------------
# density and score


@dataclass(frozen=True)
class _Terms:
    """A sparse polynomial sum_k x^deg[k] coef[k]; coef (K,) or (K, n) for a vector of them.

    One power table, one gather per axis and one matvec per call.  A single
    point builds its power table with one cumprod, a batch with the
    repeated-multiply :func:`polybasis._power_table`; both multiply the
    same factors in the same order.
    """

    deg: np.ndarray  # (K, n) exponent rows
    coef: np.ndarray
    cols: tuple[np.ndarray, ...]  # per axis i: flat index i (dmax + 1) + deg[:, i]
    dmax: int

    @classmethod
    def make(cls, deg: np.ndarray, coef: np.ndarray) -> "_Terms":
        dmax = int(deg.max())
        cols = tuple(i * (dmax + 1) + deg[:, i] for i in range(deg.shape[1]))
        return cls(deg, coef, cols, dmax)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if x.ndim == 1:
            P = x.repeat(self.dmax + 1)
            P[:: self.dmax + 1] = 1.0  # row i of P.reshape(n, -1) is 1, x_i, .., x_i
            np.cumprod(P.reshape(len(x), -1), axis=1, out=P.reshape(len(x), -1))
            mono = P[self.cols[0]]
            for c in self.cols[1:]:
                mono = mono * P[c]
        else:
            mono = _monomials_from_table(_power_table(x, self.dmax), self.deg)
        return mono @ self.coef


def _term_table(p: ParamVector) -> tuple[_Terms, _Terms]:
    """(log h + <theta, T>, its gradient in x) as sparse term tables.

    The value terms are theta's nonzero entries and the n base terms
    -x_i^{d+1}.  A term c x^a contributes a_i c x^(a - e_i) to gradient
    component i; terms sharing an exponent share a row, and no (row,
    component) pair is hit twice, so every gradient coefficient is exact.
    """
    n, eye = p.n, np.eye(p.n, dtype=np.int64)
    keep = p.theta != 0.0
    deg = np.vstack([p.basis.degrees[keep], (p.d + 1) * eye])
    coef = np.concatenate([p.theta[keep], -np.ones(n)])
    k, i = np.nonzero(deg)
    grad_deg, row = np.unique(deg[k] - eye[i], axis=0, return_inverse=True)
    grad_coef = np.zeros((len(grad_deg), n))
    grad_coef[row.ravel(), i] = deg[k, i] * coef[k]
    return _Terms.make(deg, coef), _Terms.make(grad_deg, grad_coef)


def _check_points(p: ParamVector, x) -> np.ndarray:
    """x as one point (n,) or a batch (N, n) of finite values."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim > 2 or arr.shape[-1] != p.n:
        raise ValueError(f"points of shape {arr.shape} do not fit n={p.n}")
    if not np.isfinite(arr).all():
        raise ValueError("points must be finite")
    return arr


def log_unnormalized_density(p: ParamVector, x) -> np.ndarray | float:
    """log h(x) + <theta, T(x)>; the log partition is deliberately excluded."""
    arr = _check_points(p, x)
    # points far enough out to overflow x^{d+1} have zero density; the base
    # measure's degree beats every statistic, so map any non-finite to -inf
    with np.errstate(over="ignore", invalid="ignore"):
        vals = p._terms[0](arr)
    if arr.ndim == 1:
        v = float(vals)
        return v if math.isfinite(v) else -math.inf
    return np.where(np.isfinite(vals), vals, -np.inf)


def score(p: ParamVector, x) -> np.ndarray:
    """Gradient in x of the log density; free of the partition function."""
    return p._terms[1](_check_points(p, x))


# ---------------------------------------------------------------------------
# quadrature grids


@lru_cache(maxsize=None)
def _leggauss(k: int) -> tuple[np.ndarray, np.ndarray]:
    u, w = np.polynomial.legendre.leggauss(k)
    u.setflags(write=False)
    w.setflags(write=False)
    return u, w


@dataclass(frozen=True)
class QuadratureGrid:
    """Composite tensor-product Gauss-Legendre rule on [-R, R]^n."""

    n: int
    radius: float
    points_per_axis: int
    axis_nodes: np.ndarray
    axis_logw: np.ndarray
    panels: tuple[tuple[float, float], ...]
    refine_near: tuple[float, ...]
    refine_width: float

    @property
    def total_nodes(self) -> int:
        return self.points_per_axis**self.n

    def iter_chunks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield (points (k, n), log weights (k,)) blocks of 2^16 nodes in a fixed order."""
        shape = (self.points_per_axis,) * self.n
        for rows in row_blocks(self.total_nodes, 16):
            axes = np.unravel_index(np.arange(rows.start, rows.stop), shape)
            X = np.column_stack([self.axis_nodes[ix] for ix in axes])
            logw = self.axis_logw[axes[0]].copy()
            for ix in axes[1:]:
                logw += self.axis_logw[ix]
            yield X, logw

    def doubled(self) -> "QuadratureGrid":
        return build_grid(
            self.n,
            self.radius,
            2 * self.points_per_axis,
            refine_near=self.refine_near or None,
            refine_width=self.refine_width,
        )

    def spec(self) -> dict:
        return {
            "R": self.radius,
            "points": self.points_per_axis,
            "panels": [list(p) for p in self.panels],
        }


def build_grid(
    n: int,
    radius: float,
    points_per_axis: int,
    refine_near: Sequence[float] | None = None,
    refine_width: float = 1.0,
) -> QuadratureGrid:
    """Composite Gauss-Legendre rule, optionally refined near given abscissae.

    Refinement inserts a panel of width ``refine_width`` centered at each
    listed point plus geometrically nested guard panels around it, so sharply
    peaked integrands (peak scale 1/sqrt(beta), pass refine_width =
    min(1, 1/sqrt(beta))) are resolved without exploding the node count.
    """
    if n < 1 or n > 3:
        raise ValueError(f"quadrature oracle supports 1 <= n <= 3, got n={n}")
    if radius <= 0:
        raise ValueError("radius must be positive")
    if refine_width <= 0:
        raise ValueError("refine_width must be positive")
    breaks = {-radius, radius}
    for a in refine_near or ():
        for off in (0.5 * refine_width, 2 * refine_width, 8 * refine_width, 32 * refine_width):
            for b in (a - off, a + off):
                if -radius < b < radius:
                    breaks.add(float(b))
    pts = sorted(breaks)
    merged = [pts[0]]
    for b in pts[1:]:
        if b - merged[-1] > 1e-9 * max(1.0, radius):
            merged.append(b)
    if merged[-1] != radius:
        merged[-1] = radius
    panels = tuple((merged[i], merged[i + 1]) for i in range(len(merged) - 1))
    P = len(panels)
    if points_per_axis < 3 * P:
        raise ValueError(
            f"points_per_axis={points_per_axis} too small for {P} panels (need >= {3 * P})"
        )
    counts = np.full(P, points_per_axis // P, dtype=int)
    widths = np.array([hi - lo for lo, hi in panels])
    for j in np.argsort(-widths, kind="stable")[: points_per_axis % P]:
        counts[j] += 1
    nodes, logw = [], []
    for (lo, hi), k in zip(panels, counts):
        u, w = _leggauss(int(k))
        half = 0.5 * (hi - lo)
        nodes.append(0.5 * (lo + hi) + half * u)
        logw.append(np.log(w * half))
    axis_nodes = np.concatenate(nodes)
    axis_logw = np.concatenate(logw)
    axis_nodes.setflags(write=False)
    axis_logw.setflags(write=False)
    return QuadratureGrid(
        n=n,
        radius=float(radius),
        points_per_axis=int(points_per_axis),
        axis_nodes=axis_nodes,
        axis_logw=axis_logw,
        panels=panels,
        refine_near=tuple(refine_near or ()),
        refine_width=float(refine_width),
    )


# ---------------------------------------------------------------------------
# streaming log-space reductions


class _LogSum:
    """Streaming log-sum-exp over blocks in a fixed order, so bitwise deterministic.

    Holds the running max m and sums kept scaled by exp(-m); callers add each
    block's weighted terms, the weight sum itself first in ``sums[0]``.
    """

    def __init__(self, *shapes):
        self.m = -math.inf
        self.sums = [np.zeros(s) for s in shapes]

    def weights(self, logvals: np.ndarray, offset: float = 0.0) -> np.ndarray | None:
        """exp(logvals + offset - m), written over logvals; None when all are zero.

        Raises m, and rescales the sums, when the block holds a larger value.
        A non-finite log value (a power that overflowed far out, where the
        base measure's degree wins) gets zero weight.
        """
        top = float(logvals.max())
        if not math.isfinite(top):
            logvals[~np.isfinite(logvals)] = -math.inf
            top = float(logvals.max())
            if top == -math.inf:
                return None
        if top + offset > self.m:
            scale = math.exp(self.m - (top + offset))
            for s in self.sums:
                s *= scale
            self.m = top + offset
        logvals -= self.m - offset
        return np.exp(logvals, out=logvals)

    def total(self) -> float:
        """The weight sum; raises when every weight underflowed to zero."""
        z = float(self.sums[0].flat[0])
        if not z > 0.0:
            raise NumericalError("integrand underflowed to zero at every grid node")
        return z


def quad_log_integral(grid: QuadratureGrid, logf: Callable[[np.ndarray], np.ndarray]) -> float:
    """log of integral of exp(logf) over the grid's box; nodes where logf is not finite add nothing."""
    return quad_expectation(grid, logf, [])[0]


def quad_expectation(
    grid: QuadratureGrid,
    logf: Callable[[np.ndarray], np.ndarray],
    fns: Sequence[Callable[[np.ndarray], np.ndarray]],
) -> tuple[float, list[np.ndarray]]:
    """(log integral, expectations of each fn under the normalized density)."""
    probe = np.zeros((1, grid.n))
    acc = _LogSum((), *(np.asarray(fn(probe)).shape[1:] for fn in fns))
    for X, logw in grid.iter_chunks():
        w = acc.weights(logw + logf(X))
        if w is None:
            continue
        acc.sums[0] += np.sum(w)
        for s, fn in zip(acc.sums[1:], fns):
            s += np.tensordot(w, np.asarray(fn(X), dtype=float), axes=(0, 0))
    z = acc.total()
    return acc.m + math.log(z), [s / z for s in acc.sums[1:]]


# ---------------------------------------------------------------------------
# sum-factorised quadrature of polynomial log densities


@dataclass(frozen=True)
class PolyIntegral:
    """One pass of :func:`poly_quadrature` over a grid.

    ``moments[e]`` is E[x^e] under the normalized density for every exponent
    tuple e in {0..order}^n, so ``moments[0, ..., 0] == 1``; ``orthant_mass``
    is the probability of the union of the requested closed orthants.
    """

    log_integral: float
    moments: np.ndarray
    orthant_mass: float


def log_density_tensor(n: int, exponents, coeffs, base_degree: int) -> np.ndarray:
    """Dense coefficients of sum_k c_k x^{a_k} - sum_i x_i^base_degree.

    Entry e of the (base_degree + 1,) * n result is the coefficient of x^e;
    repeated exponent rows add up.
    """
    exponents = np.asarray(exponents, dtype=np.int64).reshape(-1, n)
    if exponents.size and (exponents.min() < 0 or exponents.max() > base_degree):
        raise ValueError(f"exponents must lie in 0..{base_degree}")
    C = np.zeros((base_degree + 1,) * n)
    np.add.at(C, tuple(exponents.T), np.asarray(coeffs, dtype=float))
    C[tuple(base_degree * np.eye(n, dtype=np.int64))] -= 1.0
    return C


def member_coeffs(p: ParamVector) -> np.ndarray:
    """log h + <theta, T> as a dense (d + 2,)^n coefficient tensor."""
    return log_density_tensor(p.n, p.basis.degrees, p.theta, p.d + 1)


def _split_separable(grid: QuadratureGrid, C: np.ndarray) -> tuple[float, list[np.ndarray], np.ndarray]:
    """Split a log density into a constant, per-axis parts and mixed terms.

    Returns (c, [l_1, .., l_n], mixed) with log w(x) + log f(x) =
    c + sum_i l_i(x_i) + mixed(x) at every node, l_i holding axis i's log
    weights and pure powers of x_i less their largest value on the axis.
    Large couplings make the pure powers cancel to near 0 at the density's
    peaks (the hardness wells), so they are evaluated in extended precision
    where the platform has it and c takes the shifts; rounding then acts on
    the small shifted values only.
    """
    mixed = C.copy()
    const = np.longdouble(mixed[(0,) * grid.n])
    mixed[(0,) * grid.n] = 0.0
    powers = np.vander(grid.axis_nodes.astype(np.longdouble), C.shape[0], increasing=True)
    parts = []
    for i in range(grid.n):
        line = (0,) * i + (slice(None),) + (0,) * (grid.n - 1 - i)
        vals = powers @ mixed[line].astype(np.longdouble)
        mixed[line] = 0.0
        top = vals.max()
        const += top
        parts.append((vals - top).astype(float) + grid.axis_logw)
    return float(const), parts, mixed


# powers that overflow far out are zero density, handled below without warnings
@np.errstate(over="ignore", invalid="ignore")
def poly_quadrature(grid: QuadratureGrid, coeffs, order: int = 0, orthants=()) -> PolyIntegral:
    """Quadrature of exp(polynomial) over the grid, one slab at a time.

    ``coeffs`` is a dense tensor of shape (D + 1,) * n whose entry e is the
    coefficient of x^e in the log density (see :func:`log_density_tensor`).
    Grids with n < 3 get leading single-node axes at x = 0, so every grid is
    swept in slabs along its first axis: K slabs of K x K nodes at n = 3, one
    slab holding the whole grid at n <= 2.  On the slab x_1 = t_a the mixed
    terms of the log density are P_2 C(t_a) P_3^t, with P_i the axis power
    tables; the log weights and pure powers are added per axis (see
    :func:`_split_separable`), and a log-sum-exp streams over the slabs in a
    fixed order, which makes the result bitwise deterministic.  The working
    set is O(K^2) whatever n is.

    ``orthants`` lists sign vectors v; a node counts towards
    ``orthant_mass`` once if v_i x_i >= 0 for all i holds for any of them.
    """
    n = grid.n
    C = np.asarray(coeffs, dtype=float)
    if C.ndim != n or len(set(C.shape)) != 1:
        raise ValueError(f"coefficient tensor of shape {C.shape} does not fit an n={n} grid")
    if order < 0:
        raise ValueError(f"moment order must be >= 0, got {order}")
    signs = np.asarray(orthants, dtype=float).reshape(-1, n)
    const, parts, mixed = _split_separable(grid, C)
    pad = 3 - n
    origin = np.zeros(1)
    nodes = [origin] * pad + [grid.axis_nodes] * n
    parts = [origin] * pad + parts
    mixed = mixed.reshape((1,) * pad + mixed.shape)
    P = [np.vander(t, k, increasing=True) for t, k in zip(nodes, mixed.shape)]
    Q = [np.vander(t, 1 if i < pad else order + 1, increasing=True) for i, t in enumerate(nodes)]
    # hit[i][j, k]: node k of axis i lies on the closed side of orthant j
    hit = [(signs[:, i, None] * t >= 0.0).astype(float) for i, t in enumerate(nodes[pad:])]
    hit = [np.ones((len(signs), 1))] * pad + hit
    slab_mixed = np.tensordot(P[0], mixed, axes=1)  # C(t_a) for every slab a
    slab_parts = np.add.outer(parts[1], parts[2])
    # S sums w f x^e over all nodes, mass sums w f over the orthants' nodes
    acc = _LogSum([q.shape[1] for q in Q], ())
    S, mass = acc.sums
    for a, part in enumerate(parts[0]):
        L = P[1] @ slab_mixed[a] @ P[2].T
        L += slab_parts
        E = acc.weights(L, part)
        if E is None:
            continue
        S += np.multiply.outer(Q[0][a], Q[1].T @ E @ Q[2])
        active = hit[0][:, a] > 0.0
        if active.any():
            mass += float(E[hit[1][active].T @ hit[2][active] > 0.0].sum())
    z = acc.total()
    if not const > -math.inf:
        raise NumericalError("integrand underflowed to zero at every grid node")
    return PolyIntegral(
        log_integral=const + acc.m + math.log(z),
        moments=(S / z)[(0,) * pad],
        orthant_mass=float(mass / z),
    )


def gated_quadrature(
    grid: QuadratureGrid, coeffs, order: int = 0, orthants=()
) -> tuple[PolyIntegral, float]:
    """:func:`poly_quadrature` behind the grid-doubling gate.

    Returns the pass on ``grid`` and the doubling delta; raises
    :class:`GridConvergenceError` when doubling points_per_axis moves log Z
    by GATE_TOL or more.
    """
    coarse = poly_quadrature(grid, coeffs, order, orthants)
    delta = abs(poly_quadrature(grid.doubled(), coeffs).log_integral - coarse.log_integral)
    if not delta < GATE_TOL:
        raise GridConvergenceError(
            f"quadrature gate failed: doubling the grid moves log Z by {delta:.3e} "
            f"(tolerance {GATE_TOL:g}); refine the grid"
        )
    return coarse, delta


def _check_grid(p: ParamVector, grid: QuadratureGrid):
    if grid.n != p.n:
        raise ValueError(f"grid dimension {grid.n} != family dimension {p.n}")


def gated_log_partition(p: ParamVector, grid: QuadratureGrid) -> tuple[float, float]:
    """(log Z_theta, doubling delta); raises GridConvergenceError past the gate."""
    _check_grid(p, grid)
    out, delta = gated_quadrature(grid, member_coeffs(p))
    return out.log_integral, delta


def log_partition(p: ParamVector, grid: QuadratureGrid) -> float:
    """log Z_theta by composite Gauss-Legendre quadrature."""
    _check_grid(p, grid)
    return poly_quadrature(grid, member_coeffs(p)).log_integral


@dataclass(frozen=True)
class Moments(FamilyStats):
    """The family statistics under p_theta, plus log Z_theta."""

    log_partition: float


def moments(p: ParamVector, grid: QuadratureGrid) -> Moments:
    """Quadrature statistics under p_theta; mean_T = grad_theta log Z.

    One :func:`poly_quadrature` pass of order 2d gives the power moments
    E[x^e], |e| <= 2d, and every :class:`FamilyStats` field is gathered
    from them (see ``polybasis.family_stats``).
    """
    _check_grid(p, grid)
    out = poly_quadrature(grid, member_coeffs(p), order=2 * p.d)
    power = out.moments[tuple(moment_degrees(p.n, p.d).T)]
    stats = family_stats(p.basis, power)
    return Moments(**vars(stats), log_partition=out.log_integral)


# ---------------------------------------------------------------------------
# radius selection


_PROBE_POINTS = 96  # per axis at the start radius; node spacing stays fixed
_PROBE_START = 2.0
_PROBE_GROWTH = 1.5  # radius factor between probes
_PROBE_RTOL = 1e-12  # log Z agreement that ends the search


def auto_radius(p: ParamVector) -> float:
    """Smallest probe radius at which log Z has stopped changing.

    Grows the box geometrically until two consecutive radii agree to 1e-12;
    the base measure's exp(-x^{d+1}) tails make the remainder monotone, so
    agreement certifies the tail mass is below resolution.  Node spacing is
    held fixed as the box grows, otherwise resolution loss at large R mimics
    tail mass and the search overshoots.  Capped at the (astronomically
    loose) analytic tail radius.
    """
    cap = tail_radius(p.n, p.d, p.B)
    R = min(_PROBE_START, cap)
    prev = None
    while True:
        ppa = max(_PROBE_POINTS, math.ceil(_PROBE_POINTS * R / _PROBE_START))
        lz = log_partition(p, build_grid(p.n, R, ppa))
        if prev is not None and abs(lz - prev) <= _PROBE_RTOL * max(1.0, abs(lz)):
            return R
        prev = lz
        if R >= cap:
            return R
        R = min(R * _PROBE_GROWTH, cap)


def family_radius(basis: MonomialBasis, B: float) -> float:
    """Radius covering the whole box: probes theta = 0 and the +-B corners."""
    corners = [
        np.zeros(basis.size),
        np.full(basis.size, float(B)),
        np.full(basis.size, -float(B)),
    ]
    return max(auto_radius(ParamVector(basis, t, B)) for t in corners)


def default_grid(p: ParamVector, points_per_axis: int | None = None, radius: float | None = None) -> QuadratureGrid:
    """Grid sized for this member: auto radius, per-dimension default points."""
    if points_per_axis is None:
        # an n outside 1..3 gets build_grid's n-range error
        points_per_axis = DEFAULT_POINTS_PER_AXIS.get(p.n, 0)
    if radius is None:
        radius = auto_radius(p)
    return build_grid(p.n, radius, points_per_axis)


def family_grid(basis: MonomialBasis, B: float, points_per_axis: int | None = None) -> QuadratureGrid:
    """Grid valid across the whole parameter box (used by iterative fits)."""
    if points_per_axis is None:
        points_per_axis = DEFAULT_POINTS_PER_AXIS.get(basis.n, 0)
    return build_grid(basis.n, family_radius(basis, B), points_per_axis)


# ---------------------------------------------------------------------------
# analytic tail and moment bounds


def tail_radius(n: int, d: int, B: float) -> float:
    """Radius outside which the family keeps at most half its mass."""
    M = math.comb(n + d, d)
    return 2.0 ** (d + 3) * n * B * M


def moment_bound(ell: int, n: int, d: int, B: float) -> float:
    """Upper bound on E[x_i^ell] for any member of the (n, d, B) family."""
    if ell < 1:
        raise ValueError("moment order must be >= 1")
    M = math.comb(n + d, d)
    return max(2.0 * float(ell) ** ell, B**ell * float(M) ** ell * 2.0 ** (ell * (d + 1) + 1))


# ---------------------------------------------------------------------------
# 1-D well concentration (the scalar integrals behind the hardness analysis)


def _well_integral(beta: float, lo: float, hi: float, k: int = 0) -> float:
    """integral of x^k exp(-x^8 - beta (1-x^2)^2) over [lo, hi]."""

    def g(x):
        return x**k * math.exp(-(x**8) - beta * (1.0 - x * x) ** 2)

    inner = [t for t in (1.0,) if lo < t < hi]
    val, _ = integrate.quad(g, lo, hi, points=inner or None, limit=300, epsabs=0.0, epsrel=1e-11)
    return val


def verify_int_concentration(beta: float, r: float, m: int) -> BoundCheck:
    """Check that the positive-axis mass concentrates in [1-r, 1+r].

    Compares I = integral over (0, inf) of exp(-x^8 - beta(1-x^2)^2) against
    (1 + 1/m) times the same integral restricted to [1-r, 1+r].  Valid only
    in the parameter regime beta > 150, 6/beta < r < 0.04, and
    beta >= 40 r^-2 log(4m/r), where the inequality is a theorem.
    """
    if beta <= 150:
        raise ValueError(f"need beta > 150, got {beta}")
    if not (6.0 / beta < r < 0.04):
        raise ValueError(f"need r in (6/beta, 0.04) = ({6.0 / beta}, 0.04), got {r}")
    if m < 1:
        raise ValueError("m must be a positive integer")
    if beta < 40.0 * r**-2 * math.log(4.0 * m / r):
        raise ValueError(
            f"need beta >= 40 r^-2 log(4m/r) = {40.0 * r**-2 * math.log(4.0 * m / r):.6g}, got {beta}"
        )
    window = _well_integral(beta, 1.0 - r, 1.0 + r)
    # beyond 3, exp(-x^8) alone is below 1e-2800: identically zero in doubles
    total = _well_integral(beta, 0.0, 1.0 - r) + window + _well_integral(beta, 1.0 + r, 3.0)
    rhs = (1.0 + 1.0 / m) * window
    return BoundCheck(
        name="integral_concentration",
        lhs=total,
        rhs=rhs,
        holds=bool(total <= rhs),
        note=f"beta={beta:.6g}, r={r}, m={m}",
    )


def verify_1d_moment_bound(beta: float, k_max: int = 8) -> list[BoundCheck]:
    """Check integral x^k e^{-f} <= 2^k integral e^{-f} on (0, inf), k <= k_max."""
    if beta < 160.0 * math.log(8.0):
        raise ValueError(f"need beta >= 160 log 8 = {160.0 * math.log(8.0):.6g}, got {beta}")
    if not 1 <= k_max <= 8:
        raise ValueError("k_max must be in 1..8")

    def full(k):
        return (
            _well_integral(beta, 0.0, 0.5, k)
            + _well_integral(beta, 0.5, 1.5, k)
            + _well_integral(beta, 1.5, 3.0, k)
        )

    base = full(0)
    checks = []
    for k in range(1, k_max + 1):
        lhs = full(k)
        rhs = 2.0**k * base
        checks.append(
            BoundCheck(
                name=f"well_moment_k{k}",
                lhs=lhs,
                rhs=rhs,
                holds=bool(lhs <= rhs),
                note=f"beta={beta:.6g}",
            )
        )
    return checks

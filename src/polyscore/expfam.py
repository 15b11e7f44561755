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
1e7 in the hardness experiments stay inside double range.  Points reach the
density and the score through ``polybasis._as_batch``, the package's one
point-shape rule, plus a finiteness check.

Polynomial log densities, ``PolyCoeffs`` such as :attr:`ParamVector.log_density`,
go through one sum-factorised oracle, :func:`poly_quadrature` (Orszag 1980).
``PolyCoeffs.by_axis`` splits the log density into a constant, the pure
powers of each axis and the mixed terms that couple axes.  On the slab
x_1 = t_a of the tensor grid the mixed terms are the matrix product
P_2 C(t_a) P_3^t of per-axis power tables and the slab's coefficient matrix
(the mixed rows alone, laid out by :func:`_dense`), and the per-axis parts
join that product as two more columns, so one GEMM gives the slab's log
values, no grid point is ever formed and the working set is one K x K
buffer per pass.  A
certified separable bound, built from the same split, first drops the axis
indices whose nodes together carry under e^-50 of the integral.  A pass that
asks only for log Z and the moments of a log density without mixed terms is
a product over the axes and is integrated axis by axis instead, with no
slab and no screen; orthants and fields always take the sweep.  The axis
rules are Gauss-Legendre, built by Newton iteration in O(k) memory
(:func:`_leggauss`).
The box [-R, R]^n comes from the same bound applied to all of theta: 1-D
log-space integrals of its per-axis envelope certify the mass outside
(:func:`auto_radius`), and theta = B in every entry covers the whole box.
The same pass returns the power moments E[x^e] up to a requested order;
:func:`moments` takes them to order 2d and reads S = E[U U^t], U = (1, T),
which determines E[T], E[T T^t], the Jacobian Gram matrix, the SM terms and
E|Lap T|^2 (``polybasis.family_stats``).  Functions of polynomials,
such as ``fisher``'s largest eigenvalue of (JT)^t(JT), ride the same pass as
fields, the columns of one ``PolyCoeffs``: their slab values come from the
same GEMM chain and go to a reducer.  :func:`quad_expectation` streams node
chunks of any integrand.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import GridConvergenceError, InputError, NumericalError
from .polybasis import (
    FamilyStats,
    MonomialBasis,
    PolyCoeffs,
    _as_batch,
    enumerate_basis,
    family_stats,
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
    "poly_quadrature",
    "gated_quadrature",
    "doubling_gate",
    "log_partition",
    "Moments",
    "moments",
    "quad_log_integral",
    "quad_expectation",
    "auto_radius",
    "family_radius",
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

# Node screening: a pass skips the axis indices whose separable bound puts
# every node through them this far (in log) below the largest node term,
# less log N, so the N or fewer skipped nodes hold under e^-50 of the sum.
SCREEN_MARGIN = 50.0


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
        if not 1 <= self.B < math.inf:
            raise ValueError(f"box radius must be finite and satisfy B >= 1, got {self.B}")
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
    def log_density(self) -> PolyCoeffs:
        """log h + <theta, T>: theta's nonzero rows, then -x_i^{d+1}, already in graded-lex order."""
        keep = np.append(self.theta != 0.0, np.ones(self.n, dtype=bool))
        deg = np.vstack([self.basis.degrees, (self.d + 1) * np.eye(self.n, dtype=np.int64)])[keep]
        coef = np.append(self.theta, -np.ones(self.n))[keep]
        deg.setflags(write=False)
        coef.setflags(write=False)
        return PolyCoeffs(self.n, deg, coef)

    @cached_property
    def _score_terms(self) -> PolyCoeffs:
        """The score, a column per coordinate: the partials of :attr:`log_density`."""
        return PolyCoeffs.stack([self.log_density.partial(i) for i in range(self.n)])

    @cached_property
    def _terms(self) -> PolyCoeffs:
        """The [log density | score] table of n + 1 columns, for one evaluation of both."""
        return PolyCoeffs.stack([self.log_density, self._score_terms])


def zero_params(n: int, d: int) -> ParamVector:
    """theta = 0 in the box of radius 1: the base measure alone."""
    basis = enumerate_basis(n, d)
    return ParamVector(basis, np.zeros(basis.size), 1.0)


def random_params(n: int, d: int, B: float, seed: int) -> ParamVector:
    """theta drawn uniformly from the box of radius B; a B whose width 2B overflows is refused before drawing."""
    if not math.isfinite(2.0 * B):
        raise ValueError(f"box radius B = {B} has no finite width 2B to draw from")
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


def _check_finite(xb: np.ndarray) -> None:
    if np.count_nonzero(np.isfinite(xb)) < xb.size:  # faster than .all() on a few points
        raise ValueError("points must be finite")


def log_unnormalized_density(p: ParamVector, x, with_score: bool = False) -> np.ndarray | float | tuple:
    """log h(x) + <theta, T(x)>; the log partition is deliberately excluded.

    With ``with_score`` returns (values, score(p, x)), both read from one
    evaluation of the member's term table.
    """
    xb, single = _as_batch(x, p.n)
    with np.errstate(over="ignore", invalid="ignore"):
        table = p._terms(xb)
    vals = table[:, 0]
    # The base measure's -x_i^{d+1} makes every value at a non-finite point
    # non-finite, so the points need checking only then.  Finite points far
    # enough out to overflow x^{d+1} have zero density: the base measure's
    # degree beats every statistic, so their non-finite values become -inf.
    finite = np.isfinite(vals)
    if np.count_nonzero(finite) < vals.size:
        _check_finite(xb)
        vals[~finite] = -np.inf
    if single:
        vals, table = float(vals[0]), table[0]
    return (vals, table[..., 1:]) if with_score else vals


def score(p: ParamVector, x) -> np.ndarray:
    """Gradient in x of the log density; free of the partition function.

    The score-only table stays finite where x_i^{d+1} overflows but the score does not.
    """
    xb, single = _as_batch(x, p.n)
    _check_finite(xb)
    with np.errstate(over="ignore", invalid="ignore"):
        out = p._score_terms(xb)
    return out[0] if single else out


# ---------------------------------------------------------------------------
# quadrature grids


@lru_cache(maxsize=None)
def _leggauss(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k-point Gauss-Legendre rule on [-1, 1]: (nodes ascending, weights), cached and read-only.

    Newton's method on the three-term recurrence (m+1) P_{m+1} = (2m+1) x P_m
    - m P_{m-1} runs on the ceil(k/2) nonnegative roots at once, from
    Tricomi's asymptotic nodes (1 - 1/(8k^2) + 1/(8k^3)) cos(pi (4j-1)/(4k+2)),
    until no node moves by more than 1e-15 (three or four steps); the
    weights are 2/((1 - x^2) P_k'(x)^2), and the other half is the mirror
    image, so the rule is exactly symmetric and an odd k's middle node is
    exactly 0.0.  Each step costs O(k^2) time in O(k) memory.
    """
    h = (k + 1) // 2
    j = np.arange(1, k)
    a, b = (2.0 * j + 1.0) / (j + 1.0), j / (j + 1.0)
    x = (1.0 - 1.0 / (8.0 * k**2) + 1.0 / (8.0 * k**3)) * np.cos(
        math.pi * (4.0 * np.arange(1, h + 1) - 1.0) / (4.0 * k + 2.0)
    )  # descending
    if k % 2:
        x[-1] = 0.0  # the middle root: P_k(0) is exactly 0, so Newton leaves it there
    t = np.empty(h)
    for _ in range(20):
        prev, p = np.ones(h), x.copy()  # P_{m-1}, P_m at m = 1
        for am, bm in zip(a, b):
            np.multiply(x, p, out=t)
            t *= am
            prev *= bm
            np.subtract(t, prev, out=prev)
            prev, p = p, prev
        dp = k * (x * p - prev) / ((x - 1.0) * (x + 1.0))  # P_k'
        step = p / dp
        x -= step
        if np.abs(step).max() <= 1e-15:
            break
    else:
        raise NumericalError(f"Gauss-Legendre nodes at k={k} did not converge")
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp**2)
    u = np.concatenate([-x[: k // 2], x[::-1]])
    w = np.concatenate([w[: k // 2], w[::-1]])
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
        return _panel_rule(self.n, self.radius, 2 * self.points_per_axis, self.panels)

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

    Each listed point a adds the breaks a +- w/2, 2w, 8w and 32w (w =
    ``refine_width``) inside the box, then breaks are merged, so sharply
    peaked integrands (peak scale 1/sqrt(beta), pass refine_width =
    min(1, 1/sqrt(beta))) are resolved without exploding the node count.
    A panel need not be centred at a listed point: wells at +-1 with w = 1
    give the panels (0.5, 1.0) and (1.0, 1.5).
    """
    if n < 1 or n > 3:
        raise ValueError(f"quadrature oracle supports 1 <= n <= 3, got n={n}")
    if not 0 < radius < math.inf:
        raise ValueError(f"radius must be finite and positive, got {radius}")
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
    return _panel_rule(n, radius, points_per_axis, panels)


def _panel_rule(n: int, radius: float, points_per_axis: int, panels: tuple[tuple[float, float], ...]) -> QuadratureGrid:
    """``points_per_axis`` Gauss-Legendre nodes per axis shared out over the panels, the widest first."""
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
    )


# ---------------------------------------------------------------------------
# streaming log-space reductions


class _LogSum:
    """Streaming log-sum-exp over blocks in a fixed order, so bitwise deterministic.

    Holds the running max m and sums kept scaled by exp(-m); callers add each
    block's weighted terms, the weight sum itself first in ``sums[0]``.  This
    is the package's one rescale of running sums.
    """

    def __init__(self, *shapes):
        self.m = -math.inf
        self.sums = [np.zeros(s) for s in shapes]

    @property
    def shift(self) -> float:
        """The s a caller may subtract from a block before :meth:`weights`: m, or 0 before the first finite block."""
        return self.m if self.m > -math.inf else 0.0

    def weights(self, block: np.ndarray, offset: float = 0.0) -> np.ndarray | None:
        """exp(block + offset - m) for a block of log values less ``offset``, written over it; None when all are zero.

        Raises m, and rescales the sums, when the block holds a larger value.
        A block pre-shifted by ``offset = shift`` whose largest value did not
        raise m is exponentiated as it stands, with no subtraction.  A
        non-finite log value (a power that overflowed far out, where the base
        measure's degree wins) gets zero weight.
        """
        top = float(block.max())
        if not math.isfinite(top):
            block[~np.isfinite(block)] = -math.inf
            top = float(block.max())
            if top == -math.inf:
                return None
        if top + offset > self.m:
            scale = math.exp(self.m - (top + offset))
            for s in self.sums:
                s *= scale
            self.m = top + offset
        if self.m != offset:
            block -= self.m - offset
        return np.exp(block, out=block)

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
    is the probability of the union of the requested closed orthants;
    ``field_means`` the reducer's sums normalized, None without fields.
    ``nodes`` counts the grid nodes the pass evaluated: every node on the
    product route, the nodes that screening kept on the sweep.
    """

    log_integral: float
    moments: np.ndarray
    orthant_mass: float
    nodes: int
    field_means: np.ndarray | None = None


def _dense(f: PolyCoeffs) -> np.ndarray:
    """f's coefficients as the dense tensor the slab GEMMs read: a log density's mixed rows, or fields.

    Entry e of the (D + 1,) * n result, D the largest exponent of f, is the
    coefficient of x^e; a multi-column f gets its columns on a leading axis.
    """
    C = np.zeros(f.coeffs.shape[1:] + (int(f.degrees.max(initial=0)) + 1,) * f.n)
    C[(Ellipsis, *f.degrees.T)] = f.coeffs.T
    return C


def _split_separable(grid: QuadratureGrid, f: PolyCoeffs) -> tuple[float, list[np.ndarray], PolyCoeffs]:
    """Split a log density into a constant, per-axis parts and mixed terms.

    Returns (c, [l_1, .., l_n], mixed) with log w(x) + log f(x) =
    c + sum_i l_i(x_i) + mixed(x) at every node, l_i holding axis i's log
    weights and f's pure powers of x_i (:attr:`PolyCoeffs.by_axis`) less
    their largest value on the axis.
    Large couplings make the pure powers cancel to near 0 at the density's
    peaks (the hardness wells), so they are evaluated in extended precision
    where the platform has it and c takes the shifts; rounding then acts on
    the small shifted values only.
    """
    c, lines, mixed = f.by_axis
    const = np.longdouble(c)
    powers = np.vander(grid.axis_nodes.astype(np.longdouble), lines.shape[1], increasing=True)
    parts = []
    for line in lines:
        vals = powers @ line.astype(np.longdouble)
        top = vals.max()
        const += top
        parts.append((vals - top).astype(float) + grid.axis_logw)
    return float(const), parts, mixed


def _amgm(degrees: np.ndarray, coeffs: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The (n, len(r)) values m_i(r) at r >= 0 of the separable bound |sum_k c_k x^a_k| <= sum_i m_i(|x_i|).

    Weighted AM-GM bounds each row, |c x^a| <= |c| sum_i (a_i/|a|) |x_i|^|a|
    (rows of degree >= 1), so m_i is a polynomial in |x_i| with nonnegative
    coefficients, linear in the |c_k|.  A value that overflowed is inf.
    """
    s = degrees.sum(axis=1)
    w = np.abs(coeffs) / s
    g = np.array([np.bincount(s, a * w) for a in degrees.T])  # g[i, t]: the coefficient of |x_i|^t in m_i
    deg = np.flatnonzero(g.any(axis=0))  # an unused degree's overflowing |x|^deg times 0 would give nan
    with np.errstate(over="ignore"):
        m = (r[:, None] ** deg @ g[:, deg].T).T
    m[np.isnan(m)] = math.inf  # a power that overflowed times a zero coefficient
    return m


def _screen(grid: QuadratureGrid, parts: list[np.ndarray], mixed: PolyCoeffs) -> list[np.ndarray]:
    """The indices each axis keeps under the certified separable bound.

    :func:`_amgm` bounds the mixed terms, |mixed(x)| <= sum_i m_i(|x_i|).  A
    node's log value less the constant of :func:`_split_separable` then lies
    between sum_i V_i and sum_i U_i, with U_i = l_i + m_i and V_i = l_i - m_i
    at its indices.  L = sum_i max V_i is at most the log of the largest node
    term.  Index j of axis i is kept iff U_i[j] plus the other axes' largest
    U reaches L - SCREEN_MARGIN - log N, so each of the N or fewer skipped
    nodes is below e^(L - SCREEN_MARGIN - log N) and together they hold under
    e^-SCREEN_MARGIN of the sum.  The parts are finite or -inf (zero weight
    at every node), and an index whose l_i is -inf goes; an m_i that
    overflowed keeps its index.
    """
    n = grid.n
    m = _amgm(mixed.degrees, mixed.coeffs, np.abs(grid.axis_nodes))
    l = np.array(parts)
    upper = np.where(l > -math.inf, l + m, -math.inf)  # -inf + an overflowed m would be nan
    lower = l - m
    top = upper.max(axis=1)
    rest = np.where(np.eye(n, dtype=bool), 0.0, top).sum(axis=1)  # the other axes' largest U
    floor = lower.max(axis=1).sum() - SCREEN_MARGIN - n * math.log(grid.points_per_axis)
    return [np.flatnonzero(k) for k in (upper > -math.inf) & (upper + rest[:, None] >= floor)]


# powers that overflow far out are zero density, handled below without warnings
@np.errstate(over="ignore", invalid="ignore")
def poly_quadrature(grid: QuadratureGrid, f: PolyCoeffs, order: int = 0, orthants=(), fields=None) -> PolyIntegral:
    """Quadrature of exp(f) over the grid for a polynomial f, by one of two routes.

    The pass splits f by :attr:`PolyCoeffs.by_axis` into a constant, the
    pure powers of each axis and the mixed rows, those coupling two or more
    axes (see :func:`_split_separable`).  Without mixed rows exp(f) is a
    product over the axes and so are log Z and the moments: a pass that asks
    for nothing else takes the product route (:func:`_product`), which
    integrates each axis once, in O(nK) for K points per axis, and evaluates
    every node.  Every other pass, with mixed rows, orthants or fields, takes
    the slab sweep (:func:`_sweep`) over the nodes that :func:`_screen` keeps.

    The pass's rules are kept here, before either route runs: a per-axis log
    value that is not finite (a power that overflowed far out) becomes -inf,
    and a constant or axis with no finite value raises NumericalError.  Each
    route hands back a log scale c, a weight sum z and its other sums, all
    scaled by e^-c; the finish divides them by z, with log Z = c + log z.

    ``orthants`` lists sign vectors v; a node counts towards
    ``orthant_mass`` once if v_i x_i >= 0 for all i holds for any of them.

    ``fields`` is a pair (F, reduce): F is a PolyCoeffs of k columns, k more
    polynomials.  Their slab values P_2 F(t_a) P_3^t and the slab's weights
    go to ``reduce(V, E)`` in blocks of r rows, V (k, r, K) and E (r, K), r
    set by ``row_blocks`` for 2^16 values of V; the weighted sums (an array
    of fixed shape, additive over rows) stream through the sweep's
    log-sum-exp into ``field_means``.
    """
    n = grid.n
    if f.n != n:
        raise ValueError(f"grid dimension {n} != polynomial dimension {f.n}")
    if f.coeffs.ndim != 1:
        raise ValueError(f"need one polynomial, got coefficients {f.coeffs.shape}")
    if order < 0:
        raise ValueError(f"moment order must be >= 0, got {order}")
    if fields is not None and (fields[0].n != n or fields[0].coeffs.ndim != 2):
        raise ValueError(f"fields must be the columns of one PolyCoeffs in {n} variables, got n={fields[0].n}")
    signs = np.asarray(orthants, dtype=float).reshape(-1, n)
    const, parts, mixed = _split_separable(grid, f)
    parts = [np.where(np.isfinite(part), part, -math.inf) for part in parts]
    if not (const > -math.inf and all(part.max() > -math.inf for part in parts)):
        raise NumericalError("integrand underflowed to zero at every grid node")
    if len(mixed.degrees) or len(signs) or fields is not None:
        log_scale, z, S, mass, nodes, field_sums = _sweep(grid, const, parts, mixed, order, signs, fields)
    else:
        log_scale, z, S, mass, nodes, field_sums = _product(grid, const, parts, order)
    return PolyIntegral(
        log_integral=float(log_scale + math.log(z)),
        moments=S / z,
        orthant_mass=float(mass / z),
        nodes=nodes,
        field_means=None if field_sums is None else field_sums / z,
    )


def _product(grid: QuadratureGrid, const: float, parts: list[np.ndarray], order: int):
    """Log Z and the moments of a log density without mixed rows, axis by axis.

    With e_i = exp(l_i - max l_i) for axis i's part l_i, log Z = const +
    sum_i (max l_i + log sum e_i), whatever the order.  The moments are the
    outer product of m_i = Q_i^t e_i / (Q_i^t e_i)[0], Q_i the axis's power
    table, so ``moments[0, ..., 0]`` is exactly 1 and the weight sum is 1.
    No orthant was asked for, so the orthant mass is 0; every node counts.
    """
    Q = np.vander(grid.axis_nodes, order + 1, increasing=True)
    log_integral, moments = const, np.ones(())
    for part in parts:
        top = float(part.max())
        e = np.exp(part - top)
        s = Q.T @ e
        log_integral += top + math.log(e.sum())
        moments = np.multiply.outer(moments, s / s[0])
    return log_integral, 1.0, moments, 0.0, grid.total_nodes, None


def _sweep(grid: QuadratureGrid, const: float, parts: list[np.ndarray], mixed: PolyCoeffs, order: int, signs, fields):
    """The slab sweep of :func:`poly_quadrature` over the nodes :func:`_screen` keeps.

    Only the mixed rows are laid out as the dense tensor C (:func:`_dense`).
    Grids with n < 3 get leading single-node axes at x = 0, so every grid is
    swept in slabs along its first axis: K slabs of K x K nodes at n = 3, one
    slab holding the whole grid at n <= 2.  On the slab x_1 = t_a one GEMM
    writes the log values less the log-sum-exp's shift s into a K x K buffer
    made once per pass: [P_2 C(t_a) | l_2 + l_1(t_a) - s | 1] [P_3 | 1 | l_3]^t,
    with P_i the axis power tables up to the mixed rows' largest exponent and
    l_i the per-axis parts, log weights included.  :meth:`_LogSum.weights`
    turns the buffer into the slab's weights E in place, and the log-sum-exp
    streams over the slabs in a fixed order, which makes the result bitwise
    deterministic.  Each slab's weight sum is the order-0 product 1^t (E 1)
    whatever the order asked for, since the corner of Q_2^t E Q_3 rounds with
    the tables' width: log Z is the order-0 pass's bit for bit, and
    ``moments[0, ..., 0]`` is set to exactly 1.  The orthant mass is E's dot
    with the float mask of the orthants the slab touches.  Screening changes
    the sums by under e^-50 of their size; ``nodes`` reports how many nodes it
    leaves.  Every axis keeps at least the index of its largest lower bound,
    since every axis has a finite part.
    """
    keep = _screen(grid, parts, mixed)
    pad = 3 - grid.n
    origin = np.zeros(1)
    nodes = [origin] * pad + [grid.axis_nodes[k] for k in keep]
    parts = [origin] * pad + [part[k] for part, k in zip(parts, keep)]
    mixed = _dense(mixed)[(None,) * pad]
    P = [np.vander(t, k, increasing=True) for t, k in zip(nodes, mixed.shape)]
    Q = [np.vander(t, 1 if i < pad else order + 1, increasing=True) for i, t in enumerate(nodes)]
    # hit[i][j, k]: node k of axis i lies on the closed side of orthant j
    hit = [(signs[:, i, None] * t >= 0.0).astype(float) for i, t in enumerate(nodes[pad:])]
    hit = [np.ones((len(signs), 1))] * pad + hit
    # slab_masks[a]: the (K, K) float mask of the orthants that slab a's x_1 lies in, for the slabs in any;
    # slabs on the same side of every orthant share one
    masks, slab_masks = {}, {}
    for a in np.flatnonzero(hit[0].any(axis=0)).tolist():
        active = hit[0][:, a] > 0.0
        key = active.tobytes()
        if key not in masks:
            masks[key] = (hit[1][active].T @ hit[2][active] > 0.0).astype(float)
        slab_masks[a] = masks[key]
    slab_mixed = np.tensordot(P[0], mixed, axes=1)  # C(t_a) for every slab a
    D = mixed.shape[2]
    left = np.ones((len(nodes[1]), D + 2), order="F")  # [P_2 C(t_a) | l_2 + l_1(t_a) - s | 1]
    mixed_cols, part_col = left[:, :D], left[:, D]  # refilled per slab
    right = np.vstack([P[2].T, np.ones(len(nodes[2])), parts[2]])  # [P_3 | 1 | l_3]^t, contiguous for the GEMM
    L = np.empty((len(nodes[1]), len(nodes[2])))  # the slab's shifted log values, then its weights
    ones = [np.ones(len(t)) for t in nodes[1:]]
    # z sums w f over all nodes, S sums w f x^e, mass sums w f over the orthants' nodes
    acc = _LogSum((), [q.shape[1] for q in Q], ())
    z, S, mass = acc.sums
    if fields is not None:
        F, reduce = fields
        F = _dense(F)
        F = F.reshape(F.shape[:1] + (1,) * pad + F.shape[1:])
        PF = [np.vander(t, k, increasing=True) for t, k in zip(nodes, F.shape[1:])]
        slab_fields = np.tensordot(PF[0], F, axes=(1, 1))  # F(t_a) for every slab a
        acc.sums.append(np.zeros(()))  # the reducer's sums, shaped by its first output
    for a, part in enumerate(parts[0]):
        s = acc.shift
        np.matmul(P[1], slab_mixed[a], out=mixed_cols)
        np.add(parts[1], part - s, out=part_col)
        E = acc.weights(np.matmul(left, right, out=L), s)
        if E is None:
            continue
        z += ones[0] @ (E @ ones[1])
        if order:
            S += np.multiply.outer(Q[0][a], Q[1].T @ E @ Q[2])
        if a in slab_masks:
            mass += np.vdot(E, slab_masks[a])
        if fields is not None:  # in row blocks of 2^16 field values
            for rows in row_blocks(len(E), 16 * len(F) * E.shape[1]):
                # an ndarray even for a scalar reducer, so _LogSum rescales it in place
                acc.sums[3] = np.asarray(acc.sums[3] + reduce(PF[1][rows] @ slab_fields[a] @ PF[2].T, E[rows]))
    field_sums = acc.sums[3] if fields is not None else None
    S[0, 0, 0] = total = acc.total()  # so moments[0, ..., 0] is exactly 1
    return const + acc.m, total, S[(0,) * pad], mass, math.prod(len(k) for k in keep), field_sums


def gated_quadrature(
    grid: QuadratureGrid, f: PolyCoeffs, order: int = 0, orthants=(), fields=None
) -> tuple[PolyIntegral, float]:
    """:func:`poly_quadrature` behind the grid-doubling gate.

    Returns the pass on ``grid`` and the doubling delta; raises
    :class:`GridConvergenceError` when doubling points_per_axis moves log Z
    by GATE_TOL or more.  Fields ride the pass on ``grid`` only.
    """
    coarse = poly_quadrature(grid, f, order, orthants, fields)
    return coarse, doubling_gate(grid, f, coarse.log_integral)


def doubling_gate(grid: QuadratureGrid, f: PolyCoeffs, log_integral: float) -> float:
    """The gate for a pass on ``grid`` that gave ``log_integral``; integrates only the doubled grid.

    Returns the doubling delta; raises :class:`GridConvergenceError` when it
    is GATE_TOL or more.
    """
    delta = abs(poly_quadrature(grid.doubled(), f).log_integral - log_integral)
    if not delta < GATE_TOL:
        raise GridConvergenceError(
            f"quadrature gate failed: doubling the grid moves log Z by {delta:.3e} "
            f"(tolerance {GATE_TOL:g}); refine the grid"
        )
    return delta


def log_partition(p: ParamVector, grid: QuadratureGrid) -> float:
    """log Z_theta by composite Gauss-Legendre quadrature."""
    return poly_quadrature(grid, p.log_density).log_integral


@dataclass(frozen=True)
class Moments(FamilyStats):
    """The family statistics under p_theta, plus log Z_theta."""

    log_partition: float

    @classmethod
    def of(cls, p: ParamVector, out: PolyIntegral) -> "Moments":
        """Gather the statistics from a pass under p of moment order >= 2d: S[k, l] = moments[U_k + U_l]."""
        at = np.append(0, np.ravel_multi_index(tuple(p.basis.degrees.T), out.moments.shape))  # of x^U_k, U = (1, T)
        S = out.moments.take(at[:, None] + at)  # flat positions add, as no axis of U_k + U_l passes the order
        return cls(**vars(family_stats(p.basis, S)), log_partition=out.log_integral)


def moments(p: ParamVector, grid: QuadratureGrid, check: bool = False) -> Moments:
    """Quadrature statistics under p_theta; mean_T = grad_theta log Z.

    One :func:`poly_quadrature` pass of order 2d gives the power moments
    E[x^e], |e| <= 2d, the matrix S = E[U U^t] is read from them, and every
    :class:`FamilyStats` field from S (``polybasis.family_stats``).  With ``check`` that pass is
    the coarse pass of :func:`gated_quadrature`, so the gate costs only the
    doubled grid's log Z.
    """
    args = (grid, p.log_density, 2 * p.d)
    return Moments.of(p, gated_quadrature(*args)[0] if check else poly_quadrature(*args))


# ---------------------------------------------------------------------------
# radius selection


def auto_radius(p: ParamVector) -> float:
    """The smallest node R of one rule at which the separable envelope puts under e^-SCREEN_MARGIN outside [-R, R]^n.

    :func:`_amgm` bounds |<theta, T(x)>| by sum_i u_i(|x_i|), so with U_i, L_i
    = -t^{d+1} +- u_i(|t|) and tail_i(R) the integral of e^{U_i} over |t| >= R
    the mass outside is at most sum_i tail_i(R) / int e^{U_i} * prod_j int
    e^{U_j} / int e^{L_j}.  The integrands are even; each integral over t >= 0
    is taken in log space (sums of exp underflow into false certificates at
    large B) on the 800-point Gauss-Legendre rule on [0, T].  T depends on the
    box alone: with G the largest u_i(1) at theta = B in every entry, U_i <=
    -t^{d+1}/2 past T >= 2G, so every integral of e^{U_i} takes on
    e^{-T^{d+1}/2} for its part past T, and T^{d+1} >= 4 SCREEN_MARGIN keeps
    that small.  The box's u_i dominates a member's on the shared rule, so
    ``auto_radius(p) <= family_radius(p.basis, p.B)``.  Raises ValueError when
    T^{d+1} overflows, NumericalError when no node qualifies.
    """
    d, k = p.d, 2 * DEFAULT_POINTS_PER_AXIS[1]
    box = _amgm(p.basis.degrees, np.full(p.basis.size, float(p.B)), np.ones(1))
    T = max(2.0 * float(box.max()), (4.0 * SCREEN_MARGIN) ** (1.0 / (d + 1)))
    if not T < (np.finfo(float).max / 2) ** (1.0 / (d + 1)):  # then U_i, L_i and the tails stay finite
        raise ValueError(f"box radius B = {p.B:g} is too large: |x|^{d + 1} overflows doubles at |x| = {T:.3g}")
    x, w = _leggauss(k)
    t = 0.5 * T * (x + 1.0)
    base = np.log(0.5 * T * w) - t ** (d + 1)
    u = _amgm(p.basis.degrees, p.theta, t)
    # tail[i, j]: the log integral of e^{U_i} from node j on, past T included
    tail = np.logaddexp(np.logaddexp.accumulate((base + u)[:, ::-1], axis=1)[:, ::-1], -(T ** (d + 1)) / 2.0)
    lower = np.logaddexp.reduce(base - u, axis=1)
    bound = np.logaddexp.reduce(tail - tail[:, :1], axis=0) + (tail[:, 0] - lower).sum()
    ok = bound <= -SCREEN_MARGIN
    if not ok.any():
        raise NumericalError(f"no node of [0, {T:.6g}] bounds the mass outside the box by e^-{SCREEN_MARGIN:g}")
    return float(t[np.argmax(ok)])


@lru_cache(maxsize=None)
def family_radius(basis: MonomialBasis, B: float) -> float:
    """:func:`auto_radius` at theta = B in every entry, whose envelope dominates every member's of the box.

    Memoized on (basis, B): a basis hashes as its (n, d), and fits and audits
    of one box ask for the same radius again.
    """
    return auto_radius(ParamVector(basis, np.full(basis.size, float(B)), B))


def family_grid(basis: MonomialBasis, B: float) -> QuadratureGrid:
    """Grid valid across the whole parameter box (used by iterative fits), at the default points."""
    # an n outside 1..3 gets build_grid's n-range error
    return build_grid(basis.n, family_radius(basis, B), DEFAULT_POINTS_PER_AXIS.get(basis.n, 0))


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


def _well_moments(beta: float, lo: float, hi: float, k_max: int = 0) -> np.ndarray:
    """integral of x^k exp(-x^8 - beta (1-x^2)^2) over [lo, hi], for k = 0..k_max.

    Gauss-Legendre panels refined around the well at x = 1, doubled until no
    entry moves by more than 1e-11 of itself; :class:`GridConvergenceError`
    past 2^12 nodes.
    """
    centre = 0.5 * (lo + hi)
    grid = build_grid(1, 0.5 * (hi - lo), 64, refine_near=[1.0 - centre], refine_width=min(1.0, beta**-0.5))
    last = None
    while grid.points_per_axis <= 1 << 12:
        t = grid.axis_nodes + (centre - 1.0)  # x - 1: 1 - x^2 = -t(2 + t) keeps its digits at the well
        x = 1.0 + t
        f = np.exp(grid.axis_logw - x**8 - beta * (t * (2.0 + t)) ** 2)
        vals = np.vander(x, k_max + 1, increasing=True).T @ f
        if last is not None and np.all(np.abs(vals - last) <= 1e-11 * np.abs(vals)):
            return vals
        last, grid = vals, grid.doubled()
    raise GridConvergenceError(f"well moments at beta={beta:.6g} on [{lo}, {hi}] still move at 2^12 nodes")


@lru_cache(maxsize=None)
def verify_int_concentration(beta: float, r: float, m: int) -> BoundCheck:
    """Check that the positive-axis mass concentrates in [1-r, 1+r].

    Compares I = integral over (0, inf) of exp(-x^8 - beta(1-x^2)^2) against
    (1 + 1/m) times the same integral restricted to [1-r, 1+r].  Valid only
    in the parameter regime beta > 150, 6/beta < r < 0.04, and
    beta >= 40 r^-2 log(4m/r), where the inequality is a theorem.  The
    check does not depend on any member, so it is computed once per process.
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
    window = float(_well_moments(beta, 1.0 - r, 1.0 + r)[0])
    # beyond 3, exp(-x^8) alone is below 1e-2800: identically zero in doubles
    total = float(_well_moments(beta, 0.0, 3.0)[0])
    rhs = (1.0 + 1.0 / m) * window
    return BoundCheck("integral_concentration", total, rhs, total <= rhs, f"beta={beta:.6g}, r={r}, m={m}")


@lru_cache(maxsize=None)
def verify_1d_moment_bound(beta: float) -> tuple[BoundCheck, ...]:
    """Check integral x^k e^{-f} <= 2^k integral e^{-f} on (0, inf), k = 1..8.

    Computed once per process for each beta, like
    :func:`verify_int_concentration`.
    """
    if beta < 160.0 * math.log(8.0):
        raise ValueError(f"need beta >= 160 log 8 = {160.0 * math.log(8.0):.6g}, got {beta}")
    mom = _well_moments(beta, 0.0, 3.0, 8).tolist()
    caps = [2.0**k * mom[0] for k in range(9)]
    return tuple(
        BoundCheck(f"well_moment_k{k}", mom[k], caps[k], mom[k] <= caps[k], f"beta={beta:.6g}")
        for k in range(1, 9)
    )

"""Fisher information, the restricted Poincare constant, and bound audits.

The Fisher matrix here is the covariance of the sufficient statistics,
I(theta) = E[T T^t] - E[T] E[T]^t, computed either from the quadrature oracle
or from samples.  The restricted Poincare constant is the largest generalized
eigenvalue of the pencil (I, G) with G = E[(JT)(JT)^t]: for f = <w, T>,
Var f = w^t I w and E|grad f|^2 = w^t G w, so the Rayleigh quotient of the
pencil is exactly the variance-to-Dirichlet ratio the constant maximizes.

verify_bounds audits seven inequalities tying these quantities to explicit
functions of (n, d, B), from one gated slab pass and its eigen-solves; the
variance lower bound's denominator overflows doubles long before the desk
scale is left, so that check compares logs.

op-norm(JT)^4 = lambda_max((JT)^t(JT))^2 is not a polynomial, but the entries
of (JT)^t(JT) are, so on a grid they ride the quadrature pass as slab fields,
the columns of one ``PolyCoeffs``, and :func:`_lambda_max` reduces them in
closed form.  That pass (:func:`_jt_pass`) is of moment order 2d, so it also
gathers the family statistics from its moment matrix E[U U^t].  Check (vi)'s
<w, T> and the preflight's |grad log h|^2 ride as more columns, apart from
the ``family_stats`` gather that check audits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .errors import NumericalError
from .expfam import (
    Moments,
    ParamVector,
    QuadratureGrid,
    gated_quadrature,
    moments,
    poly_quadrature,
    tail_radius,
)
from .polybasis import FamilyStats, PolyCoeffs, _null_space, enumerate_basis, eval_jacobian, row_mean
from .reports import BoundCheck
from .sampler import SampleSet

__all__ = [
    "SpectralReport",
    "fisher_info",
    "gram_matrix",
    "restricted_poincare",
    "sm_moment_inputs",
    "regularity_preflight",
    "gamma_bound",
    "verify_bounds",
    "clip_spectrum",
]

_CLIP_TOL = 1e-10


@dataclass(frozen=True)
class SpectralReport:
    """Spectral summary of one family member plus the audited checks.

    lambda_min > 0 is deliberately not enforced here: deciding it is check
    (iv)'s job, and fault-injected reports must be representable.
    """

    lambda_min: float
    lambda_max: float
    C_P: float
    gamma_bound: float | None  # None when lambda_min <= 0, where the bound does not apply
    checks: list[BoundCheck] = field(default_factory=list)

    def __post_init__(self):
        if self.lambda_min > self.lambda_max:
            raise ValueError("lambda_min exceeds lambda_max")

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)


def clip_spectrum(w: np.ndarray) -> tuple[np.ndarray, str | None]:
    """Clip eigenvalues in [-1e-10, 0) to 0; anything more negative is a bug."""
    w = np.asarray(w, dtype=float)
    if w.min() < -_CLIP_TOL:
        raise NumericalError(
            f"eigenvalue {w.min():.3e} below -{_CLIP_TOL:.0e}: not quadrature roundoff, refusing to clip"
        )
    note = None
    if (w < 0).any():
        note = f"clipped {int((w < 0).sum())} eigenvalue(s) in [-{_CLIP_TOL:.0e}, 0) to 0"
        w = np.maximum(w, 0.0)
    return w, note


def _stats(p: ParamVector, source, check: bool) -> FamilyStats:
    """The family statistics under a SampleSet's rows or under p on a grid, gated with ``check``."""
    return source.stats(p.basis) if isinstance(source, SampleSet) else moments(p, source, check)


def fisher_info(p: ParamVector, source) -> np.ndarray:
    """Covariance of T under p, from a SampleSet or from a grid behind the doubling gate."""
    return _stats(p, source, check=True).fisher


def gram_matrix(p: ParamVector, source) -> np.ndarray:
    """E[(JT)(JT)^t] under p, from a grid (ungated) or a SampleSet."""
    return _stats(p, source, check=False).gram


def restricted_poincare(I: np.ndarray, G: np.ndarray, basis=None, return_witness: bool = False):
    """Largest generalized eigenvalue of the SPD pencil (I, G).

    With G = V diag(w) V^t, S = V diag(w)^-1/2 whitens G (S^t G S = 1), so
    the top eigenpair (C_P, u) of S^t I S gives the largest Rayleigh quotient
    max_v (v^t I v)/(v^t G v), attained at the witness v = S u, v^t G v = 1.
    """
    I = 0.5 * (np.asarray(I, float) + np.asarray(I, float).T)
    G = 0.5 * (np.asarray(G, float) + np.asarray(G, float).T)
    w, V, _, dirs = _null_space(G, None if basis is None else basis.monomial_names())
    if dirs is not None:
        raise NumericalError(f"gradient Gram matrix is singular along directions {dirs}")
    S = V / np.sqrt(w)
    vals, U = np.linalg.eigh(S.T @ I @ S)
    C_P = float(vals[-1])
    if return_witness:
        return C_P, S @ U[:, -1]
    return C_P


def _lambda_max(n: int, upper) -> np.ndarray:
    """Largest eigenvalue of PSD symmetric n x n matrices, n <= 3, in closed form.

    ``upper`` stacks the upper-triangle entries, row-major ((0, 0), (0, 1),
    .., (n-1, n-1)), on its first axis; the other axes broadcast.  n = 2 is
    the half trace plus a hypot.  n = 3 is O. K. Smith's trigonometric form
    (CACM 4(4), 1961): with q = tr A / 3, B = A - qI and p^2 = tr B^2 / 6,
    lambda_max = q + 2p cos(phi), where 3 phi in [0, pi] has cosine
    det B / (2 p^3).  The angle is taken by atan2 from det B / 2 and
    sqrt(disc / 108), where disc = prod_{i<j} (lambda_i - lambda_j)^2 is the
    Gram determinant of I, B and B^2.  That is 3 |u ^ w|^2, with u and w the
    coordinates of B and B^2 in an orthonormal basis of the traceless
    symmetric matrices, a sum of squares of 2 x 2 minors.  So the angle stays
    accurate where the top eigenvalues meet, where an acos of det B / (2 p^3)
    would lose half the digits.  A is scaled by 1/q first (every entry of a
    PSD matrix is at most 3q), so the degree-6 discriminant neither underflows
    nor overflows; both terms of lambda_max are then >= 0, so nothing cancels.
    """
    if n == 1:
        return upper[0]
    if n == 2:
        a, b, c = upper
        return 0.5 * (a + c) + np.hypot(0.5 * (a - c), b)
    a11, a12, a13, a22, a23, a33 = upper
    q = (a11 + a22 + a33) / 3.0
    inv = np.divide(1.0, q, out=np.zeros(np.shape(q)), where=q > 0.0)  # A = 0 stays 0
    b11, b22, b33 = (a11 - q) * inv, (a22 - q) * inv, (a33 - q) * inv
    a12, a13, a23 = a12 * inv, a13 * inv, a23 * inv
    s12, s13, s23 = a12 * a12, a13 * a13, a23 * a23
    c11, c22, c33 = b11 * b11 + s12 + s13, b22 * b22 + s12 + s23, b33 * b33 + s13 + s23
    # coordinates up to the basis norms 1/sqrt(2), 1/sqrt(6), sqrt(2) x 3,
    # which weight the squared minors below
    u = (b11 - b22, b11 + b22 - 2.0 * b33, a12, a13, a23)
    w = (c11 - c22, c11 + c22 - 2.0 * c33, (b11 + b22) * a12 + a13 * a23,
         (b11 + b33) * a13 + a12 * a23, (b22 + b33) * a23 + a12 * a13)

    def minor2(i, j):
        m = u[i] * w[j] - u[j] * w[i]
        return m * m

    wedge = (minor2(0, 1) / 12.0 + minor2(0, 2) + minor2(0, 3) + minor2(0, 4)
             + (minor2(1, 2) + minor2(1, 3) + minor2(1, 4)) / 3.0
             + 4.0 * (minor2(2, 3) + minor2(2, 4) + minor2(3, 4)))
    det = b11 * (b22 * b33 - s23) - a12 * (a12 * b33 - a23 * a13) + a13 * (a12 * a23 - b22 * a13)
    phi = np.arctan2(np.sqrt(wedge), 3.0 * det) / 3.0
    return q * (1.0 + 2.0 * np.sqrt((c11 + c22 + c33) / 6.0) * np.cos(phi))


def _opnorm4(basis, X: np.ndarray) -> np.ndarray:
    """op-norm(JT)^4 per row: lambda_max((JT)^t JT)^2, not a polynomial for n >= 2."""
    J = eval_jacobian(basis, X)
    return np.linalg.eigvalsh(np.einsum("ski,skj->sij", J, J))[:, -1] ** 2


@lru_cache(maxsize=None)
def _jtj_fields(n: int, d: int) -> PolyCoeffs:
    """Entries (i, j), i <= j, of (JT)^t(JT), a column each: sum_k a_ki a_kj x^(2 a_k - e_i - e_j)."""
    A, eye = enumerate_basis(n, d).degrees, np.eye(n, dtype=np.int64)
    pairs = [(A[:, i] * A[:, j], eye[i] + eye[j]) for i, j in zip(*np.triu_indices(n))]
    return PolyCoeffs.stack([PolyCoeffs.from_arrays(n, (2 * A - e)[c > 0], c[c > 0]) for c, e in pairs])


def _jt_pass(p: ParamVector, grid: QuadratureGrid, extra=None, check: bool = False):
    """One slab pass of moment order 2d under p, its fields (JT)^t(JT)'s entries and ``extra``'s columns.

    Returns the pass's :class:`Moments`, the SM moment inputs E[op-norm(JT)^4]
    and E[|Laplacian T|^2], and E[Y] then E[Y^2] for the extra fields Y.  With
    ``check`` the pass is the coarse pass of :func:`gated_quadrature`, so the
    gate costs only the doubled grid's log Z.
    """
    jtj = _jtj_fields(p.n, p.d)
    m = jtj.coeffs.shape[1]

    def reduce(V, E):
        e = E.ravel()
        lam = _lambda_max(p.n, V[:m]).ravel()
        Y = V[m:].reshape(len(V) - m, e.size)
        return np.concatenate([[lam * lam @ e], Y @ e, Y * Y @ e])

    fields = (jtj if extra is None else PolyCoeffs.stack([jtj, extra])), reduce
    args = (grid, p.log_density, 2 * p.d, (), fields)
    out = gated_quadrature(*args)[0] if check else poly_quadrature(*args)
    mom = Moments.of(p, out)
    return mom, {"E_opJT4": float(out.field_means[0]), "E_dT2": mom.lap_sq}, out.field_means[1:]


def sm_moment_inputs(p: ParamVector, source) -> dict:
    """E[op-norm(JT)^4] and E[|Laplacian T|^2] under p (ungated quadrature or samples)."""
    if isinstance(source, SampleSet):
        m4 = row_mean(partial(_opnorm4, p.basis), source.data, p.basis.size * p.n)
        return {"E_opJT4": float(m4), "E_dT2": source.stats(p.basis).lap_sq}
    return _jt_pass(p, source)[1]


def regularity_preflight(p: ParamVector, grid: QuadratureGrid) -> dict:
    """The SM covariance claim's moment conditions, from one gated quadrature pass."""
    # |grad log h|^2 = (d + 1)^2 sum_i x_i^{2d}; the reducer squares it
    n, d = p.n, p.d
    g2 = PolyCoeffs.from_arrays(n, 2 * d * np.eye(n, dtype=np.int64), np.full(n, (d + 1.0) ** 2))
    _, inputs, (_, g4) = _jt_pass(p, grid, g2, check=True)
    out = {**inputs, "E_gradlogh4": float(g4)}
    if not all(math.isfinite(v) for v in out.values()):
        raise NumericalError(f"regularity preflight found non-finite moments: {out}")
    return out


def gamma_bound(p: ParamVector, C_P: float, lambda_min: float, moment_inputs: dict) -> float:
    """2 C_P^2 (|theta|^2 E[op(JT)^4] + E[|Lap T|^2]) / lambda_min^2."""
    if lambda_min <= 0:
        raise ValueError(f"need lambda_min > 0, got {lambda_min}")
    th2 = float(p.theta @ p.theta)
    return (
        2.0
        * C_P**2
        * (th2 * moment_inputs["E_opJT4"] + moment_inputs["E_dT2"])
        / lambda_min**2
    )


# ---------------------------------------------------------------------------
# the seven-check audit


def _log_var_lb_denominator(n: int, d: int, B: float) -> float:
    """log of 2^{2d}(d+1)^{2d}(4e)^{d+1} M^{2d+3} R^{2d^2+2d} (n+B)^{2d}."""
    M = math.comb(n + d, d)
    R = tail_radius(n, d, B)
    return (
        2 * d * math.log(2.0)
        + 2 * d * math.log(d + 1.0)
        + (d + 1) * math.log(4.0 * math.e)
        + (2 * d + 3) * math.log(M)
        + (2 * d * d + 2 * d) * math.log(R)
        + 2 * d * math.log(n + B)
    )


_N_POLY = 100  # check (v)'s random polynomials
_TIE_RTOL = 1e-9  # check (v)'s margins this close to the worst count as tied with it


def verify_bounds(
    p: ParamVector,
    grid: QuadratureGrid,
    corrupt: str | None = None,
    seed: int = 0,
) -> SpectralReport:
    """Audit checks (i)-(vii) for one family member: one gated slab pass, then its eigen-solves.

    ``seed`` draws check (v)'s polynomials, then check (vi)'s w, before the
    pass; <w, T> rides it as fields (see :func:`_jt_pass`), so with the gate
    an audit makes two :func:`poly_quadrature` calls.

    corrupt="fisher" negates the largest Fisher eigenvalue before the audit,
    a fault injection that must surface as check (iv) failing (and normally
    drags (vii) down with it); anything else passed to corrupt is an error.
    """
    if corrupt not in (None, "fisher"):
        raise ValueError(f"unknown corruption {corrupt!r}")
    n, d, B = p.n, p.d, p.B
    M = math.comb(n + d, d)
    rng = np.random.default_rng(seed)
    W_v = rng.standard_normal((_N_POLY, p.basis.size))
    W = rng.standard_normal((5, p.basis.size))
    mom, inputs, wt_means = _jt_pass(p, grid, PolyCoeffs.from_arrays(n, p.basis.degrees, W.T), check=True)
    I = mom.fisher
    w, V = np.linalg.eigh(I)
    notes_iv = []
    if corrupt == "fisher":
        w = np.sort(np.concatenate([-w[-1:], w[:-1]]))
        I = (V * w) @ V.T
        notes_iv.append("fault injection: corrupt='fisher' negated the top eigenvalue")
    else:
        w, clip_note = clip_spectrum(w)
        if clip_note:
            notes_iv.append(clip_note)
    lam_min, lam_max = float(w[0]), float(w[-1])

    cap_i = B ** (2 * d) * float(M) ** (2 * d + 1) * 2.0 ** (2 * d * (d + 1) + 1)
    meanT2 = float(mom.mean_T @ mom.mean_T)
    cap_ii = B ** (2 * d) * float(M) ** (2 * d + 2) * 2.0 ** (2 * d * (d + 1) + 1)
    lap2 = mom.lap_sq
    cap_iii = d**4 * B ** (2 * d) * float(M) ** (2 * d + 1) * 2.0 ** (2 * d * (d + 1) + 1)

    checks = [
        BoundCheck("i_lambda_max_ub", lam_max, cap_i, lam_max <= cap_i),
        BoundCheck("ii_mean_T_ub", meanT2, cap_ii, meanT2 <= cap_ii),
        BoundCheck("iii_laplacian_ub", lap2, cap_iii, lap2 <= cap_iii),
        BoundCheck("iv_lambda_min_pos", 0.0, lam_min, lam_min > 0.0,
                   "; ".join(notes_iv) if notes_iv else "strict inequality"),
    ]

    # (v): explicit variance lower bound, worst log-margin over the random
    # polynomials; |w| is the monomial norm of <w, T>
    log_lhs = np.log(np.einsum("jk,jk->j", W_v, W_v)) - _log_var_lb_denominator(n, d, B)
    var = np.einsum("jk,kl,jl->j", W_v, I, W_v)
    margin = np.log(var, out=np.full(_N_POLY, -np.inf), where=var > 0) - log_lhs
    # the first polynomial within rounding of the worst: at d = 1 every margin
    # is the same number, and argmin alone would pick by rounding; a variance
    # <= 0 has margin -inf, and the first such wins
    j = int(np.argmax(np.isclose(margin, margin.min(), rtol=_TIE_RTOL, atol=0.0)))
    checks.append(
        BoundCheck("v_variance_lb", math.exp(log_lhs[j]), float(var[j]), bool(margin[j] >= 0),
                   f"{_N_POLY} random constant-free polynomials; worst log-margin {margin[j]:.3g}")
    )

    # (vi): Var(<w,T>) equals w^t I w, recomputed from the fields <w, T>
    var = wt_means[5:] - wt_means[:5] ** 2
    worst_diff = float(np.max(np.abs(var - np.einsum("jk,kl,jl->j", W, I, W))))
    checks.append(
        BoundCheck("vi_variance_identity", worst_diff, 1e-8, worst_diff <= 1e-8,
                   "max |scalar-quadrature Var - w^t I w| over 5 random w")
    )

    # (vii): Poincare conditioning bound
    C_P = restricted_poincare(I, mom.gram, basis=p.basis)
    cap_vii = (4.0 + 4.0 * meanT2) * lam_max / min(1.0, lam_min) if lam_min != 0 else None
    holds_vii = lam_min > 0 and C_P <= cap_vii
    checks.append(BoundCheck("vii_poincare_cond", C_P, cap_vii, holds_vii))

    gamma = gamma_bound(p, C_P, lam_min, inputs) if lam_min > 0 else None
    return SpectralReport(
        lambda_min=lam_min,
        lambda_max=lam_max,
        C_P=C_P,
        gamma_bound=gamma,
        checks=checks,
    )

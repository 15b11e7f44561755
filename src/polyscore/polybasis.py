"""Monomial bases on R^n, sparse polynomial arithmetic, and cube norms.

Everything downstream parametrizes log densities by their coefficients on the
monomials of total degree 1..d in n variables.  This module owns that
coordinate system: deterministic enumeration of the multi-indices, batched
evaluation of the monomial vector T(x) together with its Jacobian and
Laplacian, the map from the moment matrix E[U U^t], U the monomials of
degree <= d, to every expectation the estimators and audits use
(:class:`FamilyStats`), the package's one polynomial type
:class:`PolyCoeffs` (graded-lex exponent rows plus coefficient arrays,
behind the member's log density and score, the quadrature's integrands and
fields, the CNF energies and the Legendre code; its one evaluator gathers
monomials from a power table, and its partial derivatives give the score,
JT and Lap T), and the two polynomial norms (Euclidean norm of the
coefficient vector, L2 norm under the uniform measure on [-1,1]^n) together
with the comparison inequality between them.

Multi-indices are plain tuples of nonnegative ints.  The basis order is
graded lexicographic: ascending total degree, and within a degree block the
index whose leading variables carry the higher exponents comes first, so for
n=2, d=3 the order starts x1, x2, x1^2, x1*x2, x2^2, x1^3, ...
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .reports import BoundCheck

MultiIndex = tuple[int, ...]

__all__ = [
    "MultiIndex",
    "MonomialBasis",
    "PolyCoeffs",
    "enumerate_basis",
    "graded_rank",
    "support_rank",
    "eval_suffstats",
    "eval_jacobian",
    "eval_laplacian",
    "row_blocks",
    "row_mean",
    "FamilyStats",
    "family_stats",
    "sample_stats",
    "monomial_norm",
    "l2_cube_inner",
    "l2_cube_norm",
    "legendre_1d",
    "legendre_tensor",
    "legendre_indices",
    "to_legendre",
    "from_legendre",
    "check_mon_l2_bound",
    "format_monomial",
    "poly_to_json",
    "poly_from_json",
]


# ---------------------------------------------------------------------------
# multi-index enumeration


def _graded_array(n: int, d: int, min_total: int = 0) -> np.ndarray:
    """Exponent rows with min_total <= |e| <= d in graded-lex order, as an int64 array.

    Degree t in k + 1 variables is, for h = t down to 0, the head h followed
    by degree t - h in the last k variables: leading-heavy rows first.
    """
    rows = np.arange(d + 1, dtype=np.int64)[:, None]  # one variable: x^0 .. x^d
    for k in range(1, n):
        # in k variables the rows of degree t are rows[C(t - 1 + k, k) : C(t + k, k)]
        out, r = np.empty((math.comb(d + k + 1, k + 1), k + 1), dtype=np.int64), 0
        for t in range(d + 1):
            for h in range(t, -1, -1):
                rest = rows[math.comb(t - h - 1 + k, k) : math.comb(t - h + k, k)]
                out[r : r + len(rest), 0] = h
                out[r : r + len(rest), 1:] = rest
                r += len(rest)
        rows = out
    return rows[math.comb(min_total - 1 + n, n) :]


def graded_indices(n: int, d: int, min_total: int = 0) -> list[MultiIndex]:
    """Multi-indices with min_total <= |idx| <= d in graded-lex order."""
    return list(map(tuple, _graded_array(n, d, min_total).tolist()))


@dataclass(frozen=True)
class MonomialBasis:
    """The monomials of total degree 1..d in n variables, graded-lex ordered.

    ``degrees`` has one row per monomial; row k holds the exponent of each
    variable in the k-th sufficient statistic T_k.  The constant monomial is
    excluded, it is not an identifiable direction of the family.  A basis is
    its (n, d): equality and hashing are those of the pair, and the rows are
    built on first read, so a member that only needs ``size`` (an encoded
    CNF instance at n = 12, d = 7 has 50,387 rows) never holds them.
    """

    n: int
    d: int

    @cached_property
    def degrees(self) -> np.ndarray:
        """(size, n) int64 exponent rows, read-only."""
        degrees = _graded_array(self.n, self.d, min_total=1)
        degrees.setflags(write=False)
        return degrees

    @property
    def size(self) -> int:
        """Number of monomials, C(n+d, d) - 1."""
        return math.comb(self.n + self.d, self.d) - 1

    @property
    def indices(self) -> list[MultiIndex]:
        return [tuple(int(v) for v in row) for row in self.degrees]

    def monomial_names(self) -> list[str]:
        return [format_monomial(tuple(row)) for row in self.degrees]

    @cached_property
    def _T(self) -> "PolyCoeffs":
        """The sum of the monomials: at unit coefficients, its term k is T_k."""
        return PolyCoeffs.from_arrays(self.n, self.degrees, np.ones(self.size))

    @cached_property
    def _partials(self) -> tuple["PolyCoeffs", ...]:
        """d/dx_i of :attr:`_T`: terms d T_k / d x_i, a_ki > 0, in the order of k (lowering by e_i keeps it)."""
        return tuple(self._T.partial(i) for i in range(self.n))

    @cached_property
    def _second_partials(self) -> tuple["PolyCoeffs", ...]:
        """d^2/dx_i^2 of :attr:`_T`: terms d^2 T_k / d x_i^2, a_ki > 1, in the order of k."""
        return tuple(f.partial(i) for i, f in enumerate(self._partials))


@lru_cache(maxsize=None)
def _cached_basis(n: int, d: int) -> MonomialBasis:
    return MonomialBasis(n, d)


def graded_rank(degrees) -> np.ndarray:
    """Graded-lex position of each (N, n) exponent row: :func:`support_rank` with every position listed."""
    deg = np.asarray(degrees, dtype=np.int64)
    return support_rank(deg.shape[-1], np.broadcast_to(np.arange(deg.shape[-1]), deg.shape), deg)


def support_rank(n: int, positions, exponents) -> np.ndarray:
    """Position in graded-lex order, the constant at 0, of rows in n variables given by their support.

    Row r holds ``exponents[r]`` at the strictly ascending ``positions[r]``
    (0-based) and 0 elsewhere; a listed exponent may be 0.  Row k of
    ``enumerate_basis(n, d).degrees`` has rank k + 1 for every d, so the rank
    addresses a coefficient vector without listing the basis.  A row e ranks
    after every row of lower total degree, C(|e| + n - 1, n) of them, and
    after the rows of its own degree that agree with it before some position
    i and carry more there; with t_i the total of positions i.., there are
    C(t_i - e_i - 1 + k_i, k_i) of those, k_i = n - 1 - i.  Written with
    t_(i+1) = t_i - e_i, the rank is the sum over j = 0 .. n - 1 of
    C(t_j - 1 + k, k), k = n - j.  Between two listed positions t_j is
    constant, and by the hockey-stick identity sum_{k=a..b} C(t - 1 + k, k) =
    C(t + b, b) - C(t + a - 1, a - 1), so each stretch costs two reads of the
    cached int64 Pascal table: 2s reads for s listed positions, whatever n
    is.  A row whose largest read, C(|e| + n, n), passes int64 is summed in
    Python integers, and a rank past int64 raises OverflowError.
    """
    pos = np.asarray(positions, dtype=np.int64)
    exp = np.asarray(exponents, dtype=np.int64)
    if pos.ndim != 2 or pos.shape != exp.shape:
        raise ValueError(f"positions {pos.shape} and exponents {exp.shape} must be equal (N, s) arrays")
    N, s = pos.shape
    if N == 0 or s == 0:
        return np.zeros(N, dtype=np.int64)
    pos, exp = np.ascontiguousarray(pos.T), np.ascontiguousarray(exp.T)  # (s, N): one row per listed position
    if (pos[0] < 0).any() or (pos[-1] >= n).any() or (pos[1:] <= pos[:-1]).any():
        raise ValueError(f"positions must ascend strictly within 0..{n - 1}")
    if (exp < 0).any():
        raise ValueError("exponents must be nonnegative")
    # the constant t of each stretch: the total from its listed position on
    tails = np.cumsum(exp[::-1], axis=0)[::-1]
    # the stretch ending at listed position p sums k = a..b, a = n - p, b = n - 1 - (previous p) (n at the first)
    top = np.vstack([np.full((1, N), n), n - 1 - pos[:-1]])
    low = n - 1 - pos
    table = _pascal(1 << int(tails[0].max() + n).bit_length(), n + 1)
    upper = table.take((tails + top) * (n + 1) + top)  # C(t + b, b); low is a - 1
    rank = (upper - table.take((tails + low) * (n + 1) + low)).sum(axis=0)
    # C(|e| + n, n) is each row's largest read; past int64 the rank may still fit
    for r in np.flatnonzero(upper[0] < 0):
        exact = sum(math.comb(t + b, b) - math.comb(t + a, a)
                    for t, b, a in zip(tails[:, r].tolist(), top[:, r].tolist(), low[:, r].tolist()))
        if exact > np.iinfo(np.int64).max:
            raise OverflowError(f"graded rank {exact} of exponents {exp[:, r].tolist()} "
                                f"at positions {pos[:, r].tolist()} does not fit in int64")
        rank[r] = exact
    return rank


@lru_cache(maxsize=None)
def _pascal(rows: int, cols: int) -> np.ndarray:
    """C(v, k) for v < rows, k < cols as read-only int64, -1 where it exceeds int64."""
    big = np.iinfo(np.int64).max
    table = np.array([[c if c <= big else -1 for c in map(math.comb, [v] * cols, range(cols))]
                      for v in range(rows)], dtype=np.int64)
    table.setflags(write=False)
    return table


def enumerate_basis(n: int, d: int) -> MonomialBasis:
    """All multi-indices with 1 <= |idx| <= d, graded-lex ordered.

    d must be odd: the family's base measure exp(-sum x_i^{d+1}) is only
    integrable when d+1 is even.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    if d < 1 or d % 2 == 0:
        raise ValueError(f"degree must be odd and positive, got d={d}")
    return _cached_basis(n, d)


# ---------------------------------------------------------------------------
# batched evaluation of T, JT, Laplacian(T)


def _as_batch(x, n: int) -> tuple[np.ndarray, bool]:
    """Coerce x to shape (N, n); returns (batch, was_single_point)."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim == 1:
        if arr.shape[0] != n:
            raise ValueError(f"point has dimension {arr.shape[0]}, basis has n={n}")
        return arr.reshape(1, n), True
    if arr.ndim == 2:
        if arr.shape[1] != n:
            raise ValueError(f"points have dimension {arr.shape[1]}, basis has n={n}")
        return arr, False
    raise ValueError(f"expected a point or a batch of points, got shape {arr.shape}")


def eval_suffstats(basis: MonomialBasis, x) -> np.ndarray:
    """T(x): component for index idx equals prod_i x_i^{idx(i)}.

    Accepts a single point (shape (n,)) or a batch (shape (N, n)); the output
    has a matching leading shape.
    """
    xb, single = _as_batch(x, basis.n)
    T = np.asfortranarray(basis._T._monomials(xb))  # column-major: sums over the rows run pairwise
    return T[0] if single else T


def eval_jacobian(basis: MonomialBasis, x) -> np.ndarray:
    """JT(x), shape (M-1, n): entry (k, i) is d T_k / d x_i."""
    xb, single = _as_batch(x, basis.n)
    J = np.zeros((len(xb), basis.size, basis.n))
    for i, f in enumerate(basis._partials):
        J[:, basis.degrees[:, i] > 0, i] = f._monomials(xb) * f.coeffs
    return J[0] if single else J


def eval_laplacian(basis: MonomialBasis, x) -> np.ndarray:
    """Laplacian of each T_k: sum_i idx(i)(idx(i)-1) x^{idx - 2 e_i}, added up in axis order."""
    xb, single = _as_batch(x, basis.n)
    L = np.zeros((len(xb), basis.size))
    for i, f in enumerate(basis._second_partials):
        L[:, basis.degrees[:, i] > 1] += f._monomials(xb) * f.coeffs
    return L[0] if single else L


def row_blocks(total: int, width: int) -> Iterator[slice]:
    """Slices covering range(total) in order, each of at most 2^20 // width rows.

    The package's one chunk rule, for samples, grid nodes and hypercube
    vertices: with about ``width`` values per row, each temporary of a block
    stays near 8 MB, and fixed blocks keep streamed sums deterministic.
    """
    block = max(1, (1 << 20) // width)
    return (slice(lo, min(lo + block, total)) for lo in range(0, total, block))


def row_mean(fn, X: np.ndarray, width: int) -> np.ndarray:
    """Mean of fn over the rows of X; fn maps a block of rows to ``width`` values per row."""
    return sum(np.sum(fn(X[rows]), axis=0) for rows in row_blocks(len(X), width)) / len(X)


# ---------------------------------------------------------------------------
# family statistics as gathers from one moment matrix
#
# Every expectation the estimators and audits use is that of a fixed
# polynomial of degree <= 2d.  With U the monomials of degree <= d, the
# constant first, in graded-lex order (U = (1, T)), every exponent of degree
# <= 2d is the sum of two rows of U, so each expectation is a fixed linear
# combination of the entries of S[k, l] = E[U_k U_l].  _stats_plan lists the
# combinations once per (n, d); a grid (``expfam.moments``) or a sample
# (:func:`sample_stats`) supplies S.


@dataclass(frozen=True)
class FamilyStats:
    """Expectations of the family's polynomial statistics under one measure.

    T is the basis monomials, JT their Jacobian, h = exp(-sum x_i^{d+1}) the
    base measure.  The score-matching loss of theta under the measure is
    sm_const + sm_linear . theta + theta^t gram theta / 2 (Hyvarinen 2005).
    """

    mean_T: np.ndarray  # E[T]
    second_T: np.ndarray  # E[T T^t]
    gram: np.ndarray  # E[(JT)(JT)^t]
    sm_linear: np.ndarray  # E[Lap T + (JT) grad log h]
    sm_const: float  # E[Lap log h + |grad log h|^2 / 2]
    mean_log_h: float  # E[log h]
    lap_sq: float  # E|Lap T|^2

    @property
    def fisher(self) -> np.ndarray:
        """The covariance of T, E[T T^t] - E[T] E[T]^t: exactly symmetric, as both terms are."""
        return self.second_T - np.outer(self.mean_T, self.mean_T)


@lru_cache(maxsize=None)
def _stats_plan(n: int, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(out, at, coef): flat[j] = sum of coef * S.ravel()[at] where out == j; ``at`` reads S's upper triangle.

    flat holds the FamilyStats fields in order: mean_T (M values), second_T
    and gram (M^2 each, row-major), sm_linear (M), then the three scalars.
    Basis row k is row k + 1 of U, and a row of U lowered by e_i is again one:
    only those n shifted copies are ranked, and only nonzero terms are formed.
    """
    A = _cached_basis(n, d).degrees
    M, E, k = len(A), np.eye(n, dtype=np.int64), np.arange(len(A))
    gram, linear, scalars = M + M * M, M + 2 * M * M, 2 * M + 2 * M * M
    lower = np.zeros((n, M + 1), dtype=np.int64)  # lower[i, r]: the row of U_r - e_i, where U_ri > 0
    for i in range(n):
        lower[i, 1:][A[:, i] > 0] = graded_rank(A[A[:, i] > 0] - E[i])
    pure = {t: graded_rank(t * E) for t in (1, d - 1, d)}  # pure[t][i]: the row of x_i^t
    terms = []

    def term(j, r, s, c):  # the terms c S[r, s] of flat[j], broadcast together
        j, r, s, c = np.broadcast_arrays(j, r, s, np.asarray(c, dtype=float))
        terms.append((j.ravel(), (np.minimum(r, s) * (M + 1) + np.maximum(r, s)).ravel(), c.ravel()))

    term(k, 0, k + 1, 1.0)
    term(M + k[:, None] * M + k, k[:, None] + 1, k + 1, 1.0)
    for i in range(n):
        one, two = k[A[:, i] > 0], k[A[:, i] > 1]
        a, low = A[:, i], lower[i, one + 1]  # low: x^(a_k - e_i); below, x^(a_k - 2 e_i)
        term(gram + one[:, None] * M + one, low[:, None], low, a[one, None] * a[one])
        term(linear + two, 0, lower[i, lower[i, two + 1]], a[two] * (a[two] - 1))
        term(linear + one, low, pure[d][i], -(d + 1) * a[one])
        term(scalars, 0, pure[d - 1][i], -(d + 1) * d)
        term(scalars, pure[d][i], pure[d][i], 0.5 * (d + 1) ** 2)
        term(scalars + 1, pure[1][i], pure[d][i], -1.0)
        for j in range(n):
            both = k[(a > 1) & (A[:, j] > 1)]
            term(scalars + 2, lower[i, lower[i, both + 1]], lower[j, lower[j, both + 1]],
                 a[both] * (a[both] - 1) * A[both, j] * (A[both, j] - 1))
    plan = tuple(np.concatenate(parts) for parts in zip(*terms))
    for part in plan:
        part.setflags(write=False)
    return plan


def family_stats(basis: MonomialBasis, S) -> FamilyStats:
    """Gather :class:`FamilyStats` from S[k, l] = E[U_k U_l], U = (1, T), reading S's upper triangle."""
    S = np.asarray(S, dtype=float)
    if S.shape != (basis.size + 1,) * 2:
        raise ValueError(f"moments S of shape {S.shape} do not fit n={basis.n}, d={basis.d}")
    out, at, coef = _stats_plan(basis.n, basis.d)
    M1, q = basis.size, basis.size**2
    v = np.bincount(out, weights=coef * S.take(at), minlength=2 * M1 + 2 * q + 3)
    v.setflags(write=False)  # the fields are views of v; a SampleSet hands its cached stats to every caller
    return FamilyStats(
        v[:M1], v[M1 : M1 + q].reshape(M1, M1), v[M1 + q : M1 + 2 * q].reshape(M1, M1),
        v[M1 + 2 * q : -3], *map(float, v[-3:]),
    )


def sample_stats(basis: MonomialBasis, x) -> FamilyStats:
    """:class:`FamilyStats` of the empirical measure of the rows of x: S = U^t U / N, one product per row block."""
    xb, _ = _as_batch(x, basis.n)
    S = np.zeros((basis.size + 1,) * 2)
    for rows in row_blocks(len(xb), basis.size + 1):
        U = np.hstack([np.ones((rows.stop - rows.start, 1)), basis._T._monomials(xb[rows])])
        S += U.T @ U
    return family_stats(basis, S / len(xb))


def _null_space(G: np.ndarray, names: Sequence[str] | None) -> tuple[np.ndarray, np.ndarray, np.ndarray, str | None]:
    """(w, V, null, directions): eigh(G), the mask of its null eigenvalues, and the directions they load.

    An eigenvalue is null when it is at most 1e-12 of the largest, or the
    largest is not positive.  A direction is a row that some null
    eigenvector loads by more than 1e-8: its name from ``names``, sorted,
    or its index without names; they come comma-joined, None when no
    eigenvalue is null.
    """
    w, V = np.linalg.eigh(G)
    null = w <= max(float(w[-1]), 0.0) * 1e-12
    if not null.any():
        return w, V, null, None
    rows = np.flatnonzero(np.any(np.abs(V[:, null]) > 1e-8, axis=1))
    return w, V, null, ", ".join(sorted(names[k] for k in rows) if names is not None else map(str, rows))


def format_monomial(degrees: Iterable[int]) -> str:
    parts = []
    for i, e in enumerate(degrees):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    return "*".join(parts) if parts else "1"


# ---------------------------------------------------------------------------
# sparse polynomials


@dataclass(frozen=True, eq=False)
class PolyCoeffs:
    """Sparse polynomial sum_k coeffs[k] x^degrees[k], the package's one such type.

    ``degrees`` holds distinct (K, n) exponent rows in graded-lex order
    (:func:`graded_rank` strictly increasing) and ``coeffs`` their nonzero
    coefficients, shape (K,), or (K, k) for k polynomials sharing rows (made
    by :meth:`stack`), where a row is kept while any column is nonzero.
    Both arrays are read-only; build instances through :meth:`from_arrays`
    or :meth:`make`, which canonicalise.  Arithmetic returns new objects.
    Canonicalisation stores the rows' graded ranks as :attr:`rank`, so
    sums and scalar multiples of canonical polynomials are not ranked again.
    """

    n: int
    degrees: np.ndarray  # (K, n) int64
    coeffs: np.ndarray  # (K,) or (K, k) float

    @classmethod
    def from_arrays(cls, n: int, degrees, coeffs) -> "PolyCoeffs":
        """Canonicalise: sort rows by graded rank, add up repeated rows, drop zeros.

        Repeated rows are summed in their input order, starting from 0.  Rows
        already in strictly increasing rank skip the sort and the sums; adding
        0.0 there turns a -0.0 into 0.0 as the sums would.
        """
        if n < 1:
            raise ValueError(f"need n >= 1, got n={n}")
        deg = np.asarray(degrees, dtype=np.int64)
        deg = deg.reshape(0, n) if deg.size == 0 else deg
        coef = np.asarray(coeffs, dtype=float)
        if deg.ndim != 2 or deg.shape[1] != n or coef.shape[:1] != deg.shape[:1]:
            raise ValueError(f"exponent rows {deg.shape} and coefficients {coef.shape} do not fit n={n}")
        if deg.size and deg.min() < 0:
            raise ValueError("exponents must be nonnegative")
        return cls._ranked(n, deg, coef, graded_rank(deg))

    @classmethod
    def _ranked(cls, n: int, deg: np.ndarray, coef: np.ndarray, rank: np.ndarray) -> "PolyCoeffs":
        """:meth:`from_arrays` past its checks, for rows whose graded ranks are known; keeps them."""
        if (rank[1:] > rank[:-1]).all():
            coef = coef + 0.0
        else:
            rank, first, slot = np.unique(rank, return_index=True, return_inverse=True)
            summed = np.zeros((len(first),) + coef.shape[1:])
            np.add.at(summed, slot, coef)
            deg, coef = deg[first], summed
        keep = (coef != 0.0).any(axis=tuple(range(1, coef.ndim)))
        deg, coef, rank = deg[keep], coef[keep], rank[keep]
        for a in (deg, coef, rank):
            a.setflags(write=False)
        out = cls(n, deg, coef)
        out.__dict__["rank"] = rank  # fills the cached property
        return out

    @classmethod
    def make(cls, n: int, terms: Mapping[MultiIndex, float]) -> "PolyCoeffs":
        """From a map of exponent tuples to coefficients."""
        return cls.from_arrays(n, list(terms.keys()), list(terms.values()))

    @classmethod
    def zero(cls, n: int) -> "PolyCoeffs":
        return cls.from_arrays(n, np.zeros((0, n)), np.zeros(0))

    @classmethod
    def constant(cls, n: int, c: float) -> "PolyCoeffs":
        return cls.from_arrays(n, np.zeros((1, n)), [c])

    @classmethod
    def stack(cls, polys: Sequence["PolyCoeffs"]) -> "PolyCoeffs":
        """The polynomials' coefficient columns side by side, in order, on the union of their rows.

        A column's entries come from one polynomial's distinct rows, so each is copied exactly.
        """
        cols = [f.coeffs if f.coeffs.ndim == 2 else f.coeffs[:, None] for f in polys]
        rows, edges = np.cumsum([0] + [len(c) for c in cols]), np.cumsum([0] + [c.shape[1] for c in cols])
        table = np.zeros((rows[-1], edges[-1]))
        for c, r, k in zip(cols, rows, edges):
            table[r : r + len(c), k : k + c.shape[1]] = c
        return cls._ranked(polys[0].n, np.vstack([f.degrees for f in polys]), table,
                           np.concatenate([f.rank for f in polys]))

    @cached_property
    def rank(self) -> np.ndarray:
        """:func:`graded_rank` of ``degrees``, strictly increasing and read-only: stored by
        canonicalisation, computed on first read for an instance built directly."""
        rank = graded_rank(self.degrees)
        rank.setflags(write=False)
        return rank

    @property
    def terms(self) -> dict[MultiIndex, float]:
        """The polynomial as a fresh map from exponent tuple to coefficient."""
        return dict(zip(map(tuple, self.degrees.tolist()), self.coeffs.tolist()))

    @property
    def degree(self) -> int:
        return int(self.degrees[-1].sum()) if len(self.degrees) else 0

    @property
    def constant_term(self) -> float:
        return float(self.coeffs[0]) if len(self.degrees) and not self.degrees[0].any() else 0.0

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyCoeffs):
            return NotImplemented
        return (self.n == other.n and np.array_equal(self.degrees, other.degrees)
                and np.array_equal(self.coeffs, other.coeffs))

    def __add__(self, other: "PolyCoeffs") -> "PolyCoeffs":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return PolyCoeffs._ranked(
            self.n, np.vstack([self.degrees, other.degrees]), np.concatenate([self.coeffs, other.coeffs]),
            np.concatenate([self.rank, other.rank]),
        )

    def __neg__(self) -> "PolyCoeffs":
        return -1.0 * self

    def __sub__(self, other: "PolyCoeffs") -> "PolyCoeffs":
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, PolyCoeffs):
            return PolyCoeffs._ranked(self.n, self.degrees, float(other) * self.coeffs, self.rank)
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        degrees = self.degrees[:, None, :] + other.degrees[None, :, :]
        return PolyCoeffs.from_arrays(self.n, degrees.reshape(-1, self.n), np.outer(self.coeffs, other.coeffs).ravel())

    __rmul__ = __mul__

    def power(self, k: int) -> "PolyCoeffs":
        if k < 0:
            raise ValueError("negative power")
        out = PolyCoeffs.constant(self.n, 1.0)
        for _ in range(k):
            out = out * self
        return out

    def partial(self, i: int) -> "PolyCoeffs":
        """The partial derivative in x_i (0-based): c x^a becomes a_i c x^(a - e_i), column by column."""
        a = self.degrees[:, i]
        deg = self.degrees[a > 0] - np.eye(self.n, dtype=np.int64)[i]
        return PolyCoeffs.from_arrays(self.n, deg, (a[a > 0] * self.coeffs[a > 0].T).T)

    @cached_property
    def by_axis(self) -> tuple[float, np.ndarray, "PolyCoeffs"]:
        """(constant, lines, mixed) of a one-column polynomial, so that
        f(x) = constant + sum_i sum_k lines[i, k] x_i^k + mixed(x).

        ``lines`` (n, D + 1), D the largest exponent, holds each axis's pure
        powers (column 0 is zero); ``mixed`` the rows with two or more nonzero
        exponents, a subset of canonical rows and so canonical.
        """
        if self.coeffs.ndim != 1:
            raise ValueError(f"need one polynomial, got coefficients {self.coeffs.shape}")
        nonzero = self.degrees > 0
        axes = nonzero.sum(axis=1)
        k, i = np.nonzero(nonzero & (axes == 1)[:, None])  # row k is a pure power of axis i
        lines = np.zeros((self.n, int(self.degrees.max(initial=0)) + 1))
        lines[i, self.degrees[k, i]] = self.coeffs[k]
        deg, coef = self.degrees[axes >= 2], self.coeffs[axes >= 2]
        for a in (lines, deg, coef):
            a.setflags(write=False)
        return self.constant_term, lines, PolyCoeffs(self.n, deg, coef)

    @cached_property
    def _gather(self) -> tuple[int, np.ndarray]:
        """(dmax, cols), cols[j, k] the flat power-table index i (dmax + 1) + degrees[k, i]
        of row k's j-th nonzero axis i; past the row's last, 0, an entry 1.0."""
        dmax = int(self.degrees.max(initial=0))
        nonzero = self.degrees > 0
        k, i = np.nonzero(nonzero)  # row by row, axes ascending
        slot = np.cumsum(nonzero, axis=1)[k, i] - 1
        cols = np.zeros((max(int(slot.max(initial=0)) + 1, 1), len(self.degrees)), dtype=np.int64)
        cols[slot, k] = i * (dmax + 1) + self.degrees[k, i]
        return dmax, cols

    def _monomials(self, x: np.ndarray) -> np.ndarray:
        """The values x^degrees[k], shape (N, K), at a batch (N, n) of float points, unchecked.

        One power table, a cumulative product over (N, n, dmax + 1), then
        one flat gather per nonzero exponent of the fullest row; a row's
        nonzero factors multiply in axis order.
        """
        dmax, cols = self._gather
        P = x.repeat(dmax + 1, axis=1)
        P[:, :: dmax + 1] = 1.0
        table = P.reshape(len(x), self.n, dmax + 1)  # table[s, i] is 1, x_si, .., x_si
        np.multiply.accumulate(table, axis=2, out=table)
        mono = P.take(cols[0], axis=1)
        for c in cols[1:]:
            mono *= P.take(c, axis=1)
        return mono

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Values at a batch (N, n) of float points, unchecked: the monomials times the coefficients."""
        return self._monomials(x) @ self.coeffs

    def evaluate(self, x) -> np.ndarray | float:
        """Evaluate at a point (n,) or batch (N, n)."""
        xb, single = _as_batch(x, self.n)
        vals = self(xb)
        if single:
            return float(vals[0]) if vals.ndim == 1 else vals[0]
        return vals


def poly_to_json(f: PolyCoeffs) -> dict:
    """Serialize: comma-joined degree strings to coefficients, plus {n, d}."""
    terms = {",".join(str(e) for e in idx): c for idx, c in f.terms.items()}
    return {"n": f.n, "d": f.degree, "terms": dict(sorted(terms.items()))}


def poly_from_json(obj: Mapping) -> PolyCoeffs:
    terms = {
        tuple(int(tok) for tok in key.split(",")): float(c)
        for key, c in obj["terms"].items()
    }
    return PolyCoeffs.make(int(obj["n"]), terms)


# ---------------------------------------------------------------------------
# norms


def monomial_norm(f: PolyCoeffs) -> float:
    """Euclidean norm of the coefficient vector (constant term included)."""
    return math.sqrt(float(f.coeffs @ f.coeffs))


def l2_cube_inner(f: PolyCoeffs, g: PolyCoeffs) -> float:
    """E[f(x) g(x)] for x uniform on [-1,1]^n, via exact moments.

    E[x^k] = 1/(k+1) for even k and 0 for odd k, applied per coordinate to
    each product of terms: one moment matrix over the term pairs.
    """
    if f.n != g.n:
        raise ValueError("dimension mismatch")
    k = f.degrees[:, None, :] + g.degrees[None, :, :]
    moment = np.where(k % 2 == 0, 1.0 / (k + 1), 0.0).prod(axis=2)
    return float(f.coeffs @ moment @ g.coeffs)


def l2_cube_norm(f: PolyCoeffs) -> float:
    """L2 norm of f under the uniform probability measure on [-1,1]^n."""
    return math.sqrt(max(l2_cube_inner(f, f), 0.0))


# ---------------------------------------------------------------------------
# Legendre basis
#
# L_k is expanded from the closed product form
#     L_k(x) = 2^{-k} sum_j C(k,j)^2 (x-1)^{k-j} (x+1)^j .
# 'uniform' scales it to sqrt(2k+1) L_k, of unit L2 norm under the uniform
# probability measure on [-1,1] that l2_cube_norm uses, so the tensorized
# change of basis below gives sum b^2 = l2_cube_norm(f)^2 exactly.


@lru_cache(maxsize=None)
def legendre_1d(k: int, normalization: str = "none") -> PolyCoeffs:
    """Univariate Legendre polynomial L_k (optionally normalized)."""
    if k < 0:
        raise ValueError("negative Legendre degree")
    xm1 = PolyCoeffs.make(1, {(0,): -1.0, (1,): 1.0})
    xp1 = PolyCoeffs.make(1, {(0,): 1.0, (1,): 1.0})
    acc = PolyCoeffs.zero(1)
    for j in range(k + 1):
        acc = acc + float(math.comb(k, j) ** 2) * (xm1.power(k - j) * xp1.power(j))
    L = (0.5**k) * acc
    if normalization == "none":
        return L
    if normalization == "uniform":
        return math.sqrt(2 * k + 1) * L
    raise ValueError(f"unknown normalization {normalization!r}")


def _embed_axis(p1d: PolyCoeffs, n: int, axis: int) -> PolyCoeffs:
    degrees = np.insert(np.zeros((len(p1d.degrees), n - 1), dtype=np.int64), [axis], p1d.degrees, axis=1)
    return PolyCoeffs.from_arrays(n, degrees, p1d.coeffs)


@lru_cache(maxsize=None)
def legendre_tensor(index: MultiIndex) -> PolyCoeffs:
    """Product of per-axis 'uniform'-normalized Legendre factors for the given multi-index."""
    n = len(index)
    out = PolyCoeffs.constant(n, 1.0)
    for axis, k in enumerate(index):
        if k:  # the k=0 factor is 1
            out = out * _embed_axis(legendre_1d(k, "uniform"), n, axis)
    return out


def legendre_indices(n: int, d: int) -> list[MultiIndex]:
    """Index set of the degree-<=d tensor Legendre basis (constant included)."""
    return graded_indices(n, d, min_total=0)


def to_legendre(f: PolyCoeffs, d: int | None = None) -> np.ndarray:
    """Coefficients of f over the uniform-orthonormal tensor Legendre basis.

    Entry order follows legendre_indices(f.n, d).  Orthonormality gives the
    Parseval identity sum b^2 = l2_cube_norm(f)^2.
    """
    if d is None:
        d = f.degree
    if f.degree > d:
        raise ValueError(f"degree {f.degree} exceeds requested d={d}")
    return np.array(
        [l2_cube_inner(f, legendre_tensor(idx)) for idx in legendre_indices(f.n, d)]
    )


def from_legendre(coeffs, n: int, d: int) -> PolyCoeffs:
    """Inverse of to_legendre."""
    idx = legendre_indices(n, d)
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (len(idx),):
        raise ValueError(f"expected {len(idx)} coefficients, got shape {coeffs.shape}")
    parts = [legendre_tensor(ix) for ix in idx]
    return PolyCoeffs.from_arrays(
        n, np.vstack([t.degrees for t in parts]), np.concatenate([b * t.coeffs for b, t in zip(coeffs, parts)])
    )


# ---------------------------------------------------------------------------
# coefficient norm vs cube L2 norm


def check_mon_l2_bound(f: PolyCoeffs, n: int, d: int) -> BoundCheck:
    """Check monomial_norm(f)^2 <= C(n+d,d) (4e)^d l2_cube_norm(f)^2.

    The inequality is universal over polynomials of degree at most d, so
    ``holds`` should be true for every valid input.
    """
    if f.n != n:
        raise ValueError("dimension mismatch")
    if f.degree > d:
        raise ValueError(f"degree {f.degree} exceeds d={d}")
    lhs = monomial_norm(f) ** 2
    rhs = math.comb(n + d, d) * (4 * math.e) ** d * l2_cube_norm(f) ** 2
    return BoundCheck(
        name="monomial_vs_cube_l2",
        lhs=lhs,
        rhs=rhs,
        holds=bool(lhs <= rhs * (1 + 1e-12)),
    )

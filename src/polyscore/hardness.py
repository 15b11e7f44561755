"""3-CNF formulas compiled into members of the polynomial exponential family.

Each clause becomes a degree-6 polynomial that vanishes exactly on the
hypercube vertices satisfying it; a quartic double-well term pins the mass
of the density to the vertices of {-1, 1}^n.  The combined energy
``alpha * H_C + beta * G`` has degree 6, so its negation (minus the constant
term) is a coefficient vector of the degree-7 family, with box radius
``B = 64 * m * alpha + 2 * beta``.

The experiment routines (`zgap_experiment`, `mean_sign_experiment`,
`orthant_mass`) integrate the induced densities by quadrature and report
whether the construction's separation and concentration claims hold at the
supplied couplings.  Nothing is asserted silently: every claim lands in a
:class:`~polyscore.reports.BoundCheck` inside the returned report.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import InputError
from .expfam import (
    ParamVector,
    QuadratureGrid,
    build_grid,
    gated_quadrature,
    log_density_tensor,
    quad_log_integral,  # noqa: F401  re-exported; bench/test_bench.py checks its tracer patches it here
)
from .polybasis import MultiIndex, PolyCoeffs, enumerate_basis, graded_rank, poly_to_json, row_blocks
from .reports import BoundCheck

__all__ = [
    "CnfFormula",
    "EncodedInstance",
    "PrescribedParams",
    "parse_dimacs",
    "load_fixture",
    "pad_with_duplicates",
    "random_formula",
    "clause_poly",
    "formula_poly",
    "hypercube_poly",
    "encode",
    "encoded_to_json",
    "default_params",
    "satisfying_assignments",
    "verify_roots",
    "hardness_grid",
    "zgap_experiment",
    "mean_sign_experiment",
    "orthant_mass",
]

Clause = tuple[int, int, int]

# exhaustive vertex scans; 2^20 rows chunked is the practical ceiling
MAX_SCAN_VARS = 20


@dataclass(frozen=True)
class CnfFormula:
    """A 3-CNF formula; ``clauses[j]`` holds signed variable indices.

    Literal ``+i`` means variable ``x_i`` appears positively, ``-i``
    negatively (1-based).  Every clause must mention exactly three distinct
    variables.
    """

    n: int
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need n >= 1 variables, got n={self.n}")
        clauses = tuple(tuple(int(lit) for lit in c) for c in self.clauses)
        for j, c in enumerate(clauses):
            if len(c) != 3:
                raise ValueError(f"clause {j + 1} has {len(c)} literals, need exactly 3")
            if any(lit == 0 or abs(lit) > self.n for lit in c):
                raise ValueError(f"clause {j + 1} uses a variable outside 1..{self.n}: {c}")
            if len({abs(lit) for lit in c}) != 3:
                raise ValueError(f"clause {j + 1} repeats a variable: {c}")
        object.__setattr__(self, "clauses", clauses)

    @property
    def m(self) -> int:
        return len(self.clauses)


def parse_dimacs(text: str) -> CnfFormula:
    """Parse a DIMACS CNF body; a malformed one, or a clause CnfFormula refuses, raises InputError."""
    try:
        return _parse_dimacs(text)
    except ValueError as e:
        raise InputError(f"malformed DIMACS: {e}") from e


def _parse_dimacs(text: str) -> CnfFormula:
    header: tuple[int, int] | None = None
    tokens: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise ValueError("duplicate DIMACS header")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"malformed header line: {line!r}")
            try:
                header = (int(parts[2]), int(parts[3]))
            except ValueError:
                raise ValueError(f"malformed header line: {line!r}") from None
            continue
        if header is None:
            raise ValueError("missing 'p cnf <n> <m>' header before clauses")
        try:
            tokens.extend(int(t) for t in line.split())
        except ValueError:
            raise ValueError(f"non-integer token in clause line: {line!r}") from None
    if header is None:
        raise ValueError("missing 'p cnf <n> <m>' header")
    n, m = header
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for t in tokens:
        if t == 0:
            clauses.append(tuple(current))
            current = []
        else:
            current.append(t)
    if current:
        raise ValueError("last clause is not terminated by 0")
    if len(clauses) != m:
        raise ValueError(f"header declares {m} clauses, found {len(clauses)}")
    return CnfFormula(n, tuple(clauses))  # type: ignore[arg-type]


def load_fixture(name: str) -> CnfFormula:
    """Bundled CNF fixtures: ``clause1``, ``uniq3``, ``unsat8``."""
    path = resources.files("polyscore").joinpath("testdata", f"{name}.cnf")
    return parse_dimacs(path.read_text())


def pad_with_duplicates(C: CnfFormula, m: int) -> CnfFormula:
    """Repeat the first clause until the formula has ``m`` clauses.

    Duplicates leave the satisfying set unchanged; they only reweight the
    energy.  Used to bring a formula pair to a common clause count as the
    z-gap comparison requires.
    """
    if not C.clauses:
        raise ValueError("cannot pad a formula with no clauses")
    if m < C.m:
        raise ValueError(f"cannot pad down from m={C.m} to m={m}")
    return CnfFormula(C.n, C.clauses + (C.clauses[0],) * (m - C.m))


def random_formula(n: int, m: int, seed: int) -> CnfFormula:
    """Uniform random 3-CNF: each clause picks 3 distinct variables and signs."""
    if n < 3:
        raise ValueError(f"need n >= 3 to form clauses with distinct variables, got n={n}")
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    clauses = []
    for _ in range(m):
        vars_ = rng.choice(n, size=3, replace=False) + 1
        signs = rng.integers(0, 2, size=3) * 2 - 1
        clauses.append(tuple(int(v * s) for v, s in zip(vars_, signs)))
    return CnfFormula(n, tuple(clauses))


# ---------------------------------------------------------------------------
# clause and hypercube polynomials


def clause_poly(clause: Clause, n: int) -> PolyCoeffs:
    """Degree-6 polynomial vanishing exactly where the clause is satisfied.

    A positive literal on ``x_i`` contributes a factor ``(x_i - 1)^2``, a
    negative one ``(x_i + 1)^2``, so on the vertices the product is 64 at the
    single falsifying sign pattern and 0 everywhere else.
    """
    CnfFormula(n, (tuple(clause),))  # type: ignore[arg-type]  # reuse the literal checks
    out = PolyCoeffs.constant(n, 1.0)
    zero: MultiIndex = (0,) * n
    for lit in clause:
        e = tuple(1 if k == abs(lit) - 1 else 0 for k in range(n))
        factor = PolyCoeffs.make(n, {e: 1.0, zero: -1.0 if lit > 0 else 1.0})
        out = out * factor * factor
    return out


# exponents (e_1, e_2, e_3) of the 27 terms of a clause's product of three
# squared literal factors
_CLAUSE_EXPONENTS = np.array(list(itertools.product(range(3), repeat=3)), dtype=np.int64)


def _formula_terms(C: CnfFormula) -> tuple[np.ndarray, np.ndarray]:
    """H_C expanded: exponent rows in graded-lex order and integer coefficients.

    Each clause is the outer product of its literals' coefficient vectors,
    (x - s)^2 = 1 - 2 s x + x^2 for a literal of sign s; the 27 terms of
    every clause are summed by graded-lex rank in one scatter-add.
    """
    lits = np.array(C.clauses, dtype=np.int64).reshape(-1, 3)
    sign = np.sign(lits)
    factors = np.stack([np.ones_like(sign), -2 * sign, np.ones_like(sign)], axis=-1)
    E = _CLAUSE_EXPONENTS
    coeffs = factors[:, 0, E[:, 0]] * factors[:, 1, E[:, 1]] * factors[:, 2, E[:, 2]]
    expo = np.zeros((len(lits), len(E), C.n), dtype=np.int64)
    rows, terms = np.ogrid[: len(lits), : len(E)]
    for j in range(3):
        expo[rows, terms, np.abs(lits[:, j, None]) - 1] = E[:, j]
    expo = expo.reshape(-1, C.n)
    _, first, slot = np.unique(graded_rank(expo), return_index=True, return_inverse=True)
    ints = np.zeros(len(first), dtype=np.int64)
    np.add.at(ints, slot, coeffs.ravel())
    keep = ints != 0
    return expo[first[keep]], ints[keep]


def _poly_from_terms(n: int, degrees: np.ndarray, coeffs: np.ndarray) -> PolyCoeffs:
    return PolyCoeffs.make(n, dict(zip(map(tuple, degrees.tolist()), coeffs.tolist())))


def formula_poly(C: CnfFormula) -> PolyCoeffs:
    """Sum of the clause polynomials; zero exactly on satisfying vertices."""
    return _poly_from_terms(C.n, *_formula_terms(C))


def hypercube_poly(n: int) -> PolyCoeffs:
    """The vertex pinning term ``G(x) = sum_i (1 - x_i^2)^2``."""
    terms: dict[MultiIndex, float] = {(0,) * n: float(n)}
    for i in range(n):
        terms[tuple(2 if k == i else 0 for k in range(n))] = -2.0
        terms[tuple(4 if k == i else 0 for k in range(n))] = 1.0
    return PolyCoeffs.make(n, terms)


# ---------------------------------------------------------------------------
# encoding into the degree-7 family


@dataclass(frozen=True)
class EncodedInstance:
    """A formula compiled to a degree-7 family member.

    ``theta`` holds the negated non-constant coefficients of the energy
    ``alpha * H_C + beta * G``; the energy's constant term is recorded in
    ``dropped_constant``, so the formula density's log-partition equals
    ``log Z(theta) - dropped_constant``.  ``h_terms`` holds H_C expanded, as
    integer exponent rows and coefficients; :func:`verify_roots` certifies
    exactly these.
    """

    formula: CnfFormula
    alpha: float
    beta: float
    theta: ParamVector
    energy: PolyCoeffs
    dropped_constant: float
    h_terms: tuple[np.ndarray, np.ndarray]

    @property
    def n(self) -> int:
        return self.formula.n

    @property
    def m(self) -> int:
        return self.formula.m

    @property
    def B(self) -> float:
        return self.theta.B


def encode(C: CnfFormula, alpha: float, beta: float) -> EncodedInstance:
    """Compile ``alpha * H_C + beta * G`` into a family member of degree 7."""
    alpha = float(alpha)
    beta = float(beta)
    if alpha < 0 or beta < 0:
        raise ValueError(f"couplings must be nonnegative, got alpha={alpha}, beta={beta}")
    B = 64.0 * C.m * alpha + 2.0 * beta
    if B < 1.0:
        raise ValueError(
            f"couplings too small: box radius 64*m*alpha + 2*beta = {B} < 1"
        )
    h_terms = _formula_terms(C)
    energy = alpha * _poly_from_terms(C.n, *h_terms) + beta * hypercube_poly(C.n)
    degrees, coeffs = _term_arrays(energy)
    rank = graded_rank(degrees)
    basis = enumerate_basis(C.n, 7)
    theta = np.zeros(basis.size)
    theta[rank[rank > 0] - 1] = -coeffs[rank > 0]
    return EncodedInstance(
        C, alpha, beta, ParamVector(basis, theta, B), energy, energy.constant_term, h_terms
    )


def encoded_to_json(inst: EncodedInstance) -> dict:
    """Coefficient polynomial (negated energy, constant dropped) plus couplings."""
    theta_poly = PolyCoeffs.make(
        inst.n, {idx: -c for idx, c in inst.energy.terms.items() if sum(idx) > 0}
    )
    obj = poly_to_json(theta_poly)
    obj.update(
        {
            "alpha": inst.alpha,
            "beta": inst.beta,
            "B": inst.B,
            "m": inst.m,
            "n": inst.n,
            "dropped_constant": inst.dropped_constant,
        }
    )
    return obj


@dataclass(frozen=True)
class PrescribedParams:
    """A coupling pair with the regime and scale factor it came from."""

    alpha: float
    beta: float
    mode: str
    scale: float


def default_params(n: int, m: int, mode: str, scale: float = 1.0) -> PrescribedParams:
    """Coupling prescriptions for the three reduction regimes.

    ``scale`` multiplies both couplings; values below 1 give surrogate
    instances that keep the encoding's structure while keeping the partition
    function within reach of quadrature.  The clause budget ``m <= 10 n`` is
    what the prescriptions are stated for.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    if m < 0 or m > 10 * n:
        raise ValueError(f"prescriptions require 0 <= m <= 10n, got m={m} with n={n}")
    if not 0.0 < scale <= 1.0:
        raise ValueError(f"scale must lie in (0, 1], got {scale}")
    if mode == "zeroth":
        alpha = 2.0 * (n + 1)
        beta = 64800.0 * n * math.log(13 * n * math.sqrt(10 * n))
    elif mode == "first":
        alpha = 4.0 * n
        beta = 129600.0 * n * n * math.log(102 * n * n * math.sqrt(5))
    elif mode == "sampling":
        alpha = 2.0 * (n + 1)
        beta = 32400.0 * n * math.log(13 * n * math.sqrt(5 * n))
    else:
        raise ValueError(f"unknown mode {mode!r}, expected zeroth, first, or sampling")
    return PrescribedParams(alpha * scale, beta * scale, mode, float(scale))


# ---------------------------------------------------------------------------
# exhaustive vertex checks


def _iter_vertices(n: int, width: int):
    """Yield the vertices of {-1,1}^n in binary-counter order, in row blocks for ``width``."""
    shifts = np.arange(n - 1, -1, -1)
    for rows in row_blocks(1 << n, width):
        codes = np.arange(rows.start, rows.stop, dtype=np.int64)
        bits = (codes[:, None] >> shifts) & 1
        yield 2 * bits - 1


def _falsified_counts(C: CnfFormula, verts: np.ndarray) -> np.ndarray:
    """Falsified clauses per vertex: one (vertices, m, 3) gather, so callers size blocks by 3m."""
    lits = np.array(C.clauses, dtype=np.int64).reshape(C.m, 3)
    # a literal holds where its variable's sign matches its own; gathered as bools
    satisfied = ((verts > 0)[:, np.abs(lits) - 1] == (lits > 0)).any(axis=2)
    return C.m - satisfied.sum(axis=1)


def _check_scan_size(n: int):
    if n > MAX_SCAN_VARS:
        raise ValueError(f"exhaustive vertex scan capped at n <= {MAX_SCAN_VARS}, got n={n}")


def satisfying_assignments(C: CnfFormula) -> list[tuple[int, ...]]:
    """All vertices of {-1,1}^n satisfying the formula, by exhaustive scan."""
    _check_scan_size(C.n)
    out: list[tuple[int, ...]] = []
    for verts in _iter_vertices(C.n, max(3 * C.m, 1)):
        sat = _falsified_counts(C, verts) == 0
        out.extend(tuple(int(v) for v in row) for row in verts[sat])
    return out


def _term_arrays(f: PolyCoeffs) -> tuple[np.ndarray, np.ndarray]:
    degrees = np.array(list(f.terms.keys()), dtype=np.int64).reshape(len(f.terms), f.n)
    return degrees, np.array(list(f.terms.values()))


def _int_term_arrays(f: PolyCoeffs) -> tuple[np.ndarray, np.ndarray]:
    degrees, coeffs = _term_arrays(f)
    ints = np.rint(coeffs).astype(np.int64)
    if not np.array_equal(ints.astype(float), coeffs):
        raise ValueError("expected integer coefficients")
    return degrees, ints


def _vertex_values(degrees: np.ndarray, ints: np.ndarray, verts: np.ndarray) -> np.ndarray:
    # exact: at a vertex a monomial is (-1)^(number of odd exponents on -1 coords);
    # works on a (vertices, terms) matrix, so callers pass row blocks sized by the terms
    parity = ((verts < 0).astype(np.int64) @ (degrees % 2).T) & 1
    return (1 - 2 * parity) @ ints


def verify_roots(inst: EncodedInstance, n_random: int = 1000, seed: int = 0) -> dict:
    """Exhaustively certify the energy's zero set on the hypercube vertices.

    At every vertex the expanded polynomials must reproduce, in exact integer
    arithmetic, ``H_C(v) = 64 * (#falsified clauses)`` and ``G(v) = 0``; in
    particular the energy vanishes exactly at the satisfying assignments.
    Away from the vertices the energy must be strictly positive, probed at
    ``n_random`` uniform points of [-2, 2]^n.
    """
    C = inst.formula
    _check_scan_size(C.n)
    g_arrays = _int_term_arrays(hypercube_poly(C.n))
    n_sat = 0
    min_unsat_k = None
    vertex_identity = True
    roots_match = True
    # the (vertices, terms) matrices of _vertex_values and the (vertices, m, 3)
    # clause gather set the block size
    width = max(len(inst.h_terms[1]), len(g_arrays[1]), 3 * C.m)
    for verts in _iter_vertices(C.n, width):
        k = _falsified_counts(C, verts)
        hv = _vertex_values(*inst.h_terms, verts)
        gv = _vertex_values(*g_arrays, verts)
        vertex_identity &= bool(np.all(gv == 0) and np.all(hv == 64 * k))
        roots_match &= bool(np.all((hv == 0) == (k == 0)))
        n_sat += int(np.sum(k == 0))
        if np.any(k > 0):
            kmin = int(k[k > 0].min())
            min_unsat_k = kmin if min_unsat_k is None else min(min_unsat_k, kmin)
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    X = rng.uniform(-2.0, 2.0, size=(int(n_random), C.n))
    vals = inst.energy.evaluate(X)
    min_random = float(np.min(vals)) if len(vals) else math.inf
    holds = bool(vertex_identity and roots_match and min_random > 0.0)
    return {
        "n": C.n,
        "m": C.m,
        "alpha": inst.alpha,
        "beta": inst.beta,
        "vertices": 1 << C.n,
        "n_sat": n_sat,
        "vertex_identity": vertex_identity,
        "roots_match_satisfying_set": roots_match,
        "min_unsat_energy": None if min_unsat_k is None else 64.0 * inst.alpha * min_unsat_k,
        "n_random": int(n_random),
        "min_random_energy": min_random,
        "random_points_positive": bool(min_random > 0.0),
        "holds": holds,
    }


# ---------------------------------------------------------------------------
# quadrature experiments


def hardness_grid(
    n: int,
    beta: float,
    radius: float = 2.0,
    points_per_axis: int | None = None,
) -> QuadratureGrid:
    """Quadrature grid refined at the hypercube wells of width ~ 1/sqrt(beta)."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    if points_per_axis is None:
        if n not in (1, 2, 3):
            raise ValueError(f"quadrature experiments support 1 <= n <= 3, got n={n}")
        points_per_axis = {1: 480, 2: 260, 3: 180}[n]
    width = min(1.0, 1.0 / math.sqrt(beta))
    return build_grid(n, radius, points_per_axis, refine_near=[-1.0, 1.0], refine_width=width)


def _log_density_coeffs(inst: EncodedInstance) -> np.ndarray:
    """-energy - sum_i x_i^8 as a dense coefficient tensor.

    The energy's constant term stays in, so the log density is near 0 at
    the wells and log Z is the formula density's own.
    """
    degrees, coeffs = _term_arrays(inst.energy)
    return log_density_tensor(inst.n, degrees, -coeffs, inst.theta.d + 1)


def zgap_experiment(
    C_sat: CnfFormula,
    C_unsat: CnfFormula,
    alpha: float,
    beta: float,
    grid: QuadratureGrid | None = None,
) -> dict:
    """Compare the log-partition values of a satisfiable/unsatisfiable pair.

    Both formulas must share n and the clause count so the couplings weigh
    them identically.  The decision threshold is ``2 n log(1.16)``; whether
    the computed gap clears it is reported, never assumed.  Log-partition
    values refer to the formula density ``h(x) exp(-alpha H - beta G)``.
    """
    if C_sat.n != C_unsat.n:
        raise ValueError(f"formulas must share n, got {C_sat.n} and {C_unsat.n}")
    if C_sat.m != C_unsat.m:
        raise ValueError(
            f"formulas must share the clause count, got m={C_sat.m} and m={C_unsat.m}; "
            "pad_with_duplicates can equalize them"
        )
    n = C_sat.n
    inst_sat = encode(C_sat, alpha, beta)
    inst_unsat = encode(C_unsat, alpha, beta)
    if grid is None:
        grid = hardness_grid(n, beta)
    sat, delta_sat = gated_quadrature(grid, _log_density_coeffs(inst_sat))
    unsat, delta_unsat = gated_quadrature(grid, _log_density_coeffs(inst_unsat))
    logz_sat, logz_unsat = sat.log_integral, unsat.log_integral
    gap = logz_sat - logz_unsat
    threshold = 2.0 * n * math.log(1.16)
    separated = bool(gap > threshold)
    note = "holds means the gap exceeds the threshold" + (
        "" if separated else "; not separated at these couplings"
    )
    return {
        "n": n,
        "m": C_sat.m,
        "alpha": float(alpha),
        "beta": float(beta),
        "log_Z_sat": logz_sat,
        "log_Z_unsat": logz_unsat,
        "gap": gap,
        "threshold": threshold,
        "separated": separated,
        "grid_doubling_deltas": [delta_sat, delta_unsat],
        "checks": [BoundCheck("zgap_separation", threshold, gap, separated, note=note)],
    }


def mean_sign_experiment(
    C: CnfFormula,
    alpha: float,
    beta: float,
    grid: QuadratureGrid | None = None,
) -> dict:
    """Recover the unique satisfying assignment from coordinate means.

    Requires a uniquely satisfiable formula; the recovered assignment is
    ``sign(E[x_i])`` and each margin ``v*_i E[x_i]`` is checked against 1/20.
    """
    sols = satisfying_assignments(C)
    if len(sols) != 1:
        raise ValueError(f"need a uniquely satisfiable formula, found {len(sols)} solutions")
    v_star = sols[0]
    inst = encode(C, alpha, beta)
    if grid is None:
        grid = hardness_grid(C.n, beta)
    out, _ = gated_quadrature(grid, _log_density_coeffs(inst), order=1)
    mean_x = out.moments[tuple(np.eye(C.n, dtype=np.int64))]
    recovered = tuple(1 if t > 0 else -1 for t in mean_x)
    margins = np.asarray(v_star, dtype=float) * mean_x
    min_margin = float(margins.min())
    matches = recovered == v_star
    return {
        "n": C.n,
        "m": C.m,
        "alpha": float(alpha),
        "beta": float(beta),
        "target_vertex": list(v_star),
        "mean_x": [float(t) for t in mean_x],
        "recovered": list(recovered),
        "recovered_matches": bool(matches),
        "margins": [float(t) for t in margins],
        "min_margin": min_margin,
        "checks": [
            BoundCheck(
                "mean_sign_margin",
                1.0 / 20.0,
                min_margin,
                bool(matches and min_margin >= 1.0 / 20.0),
                note="holds means signs recover the satisfying assignment with margin >= 1/20",
            )
        ],
    }


def orthant_mass(
    C: CnfFormula,
    alpha: float,
    beta: float,
    grid: QuadratureGrid | None = None,
) -> dict:
    """Probability mass of the union of satisfying orthants.

    For a satisfiable formula the mass must reach 1/2; for an unsatisfiable
    one the union is empty, the mass is zero and the bound is vacuous.
    """
    sols = satisfying_assignments(C)
    inst = encode(C, alpha, beta)
    if grid is None:
        grid = hardness_grid(C.n, beta)
    out, _ = gated_quadrature(grid, _log_density_coeffs(inst), orthants=sols)
    mass = out.orthant_mass
    if sols:
        holds = mass >= 0.5
        note = "union of satisfying orthants"
    else:
        holds = True
        note = "no satisfying assignment, bound vacuous"
    return {
        "n": C.n,
        "m": C.m,
        "alpha": float(alpha),
        "beta": float(beta),
        "n_sat": len(sols),
        "mass_on_satisfying_orthants": mass,
        "asserted": bool(sols),
        "checks": [BoundCheck("satisfying_orthant_mass", 0.5, mass, bool(holds), note=note)],
    }

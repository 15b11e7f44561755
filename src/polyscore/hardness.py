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

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources

import numpy as np

from .errors import InputError
from .expfam import (
    ParamVector,
    QuadratureGrid,
    build_grid,
    gated_quadrature,
    quad_log_integral,  # noqa: F401  re-exported; bench/test_bench.py checks its tracer patches it here
)
from .polybasis import PolyCoeffs, enumerate_basis, graded_indices, poly_to_json, row_blocks, support_rank
from .reports import BoundCheck
from .sampler import _stream

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

# verify_roots tests its polynomial identities modulo the Mersenne prime
# 2^31 - 1, where a product of two residues stays below 2^62, inside int64
_MODULUS = (1 << 31) - 1

# seeded points of (Z / p)^n per identity: a false identity of degree <= 6
# passes one with chance <= 6 / p
_IDENTITY_POINTS = 3


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
    rng = _stream(seed, 0)
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
    single falsifying sign pattern and 0 everywhere else: the one-clause
    :func:`formula_poly`.
    """
    return formula_poly(CnfFormula(n, (tuple(clause),)))  # type: ignore[arg-type]


# exponents (e_1, e_2, e_3) of the 27 terms of a product of three squared
# literal factors, in graded-lex order: on three ascending variables each
# clause's terms then rank in ascending order
_CLAUSE_EXPONENTS = np.array([e for e in graded_indices(3, 6) if max(e) <= 2], dtype=np.int64)


def formula_poly(C: CnfFormula) -> PolyCoeffs:
    """Sum of the clause polynomials; zero exactly on satisfying vertices.

    Each clause is the outer product of its literals' coefficient vectors,
    (x - s)^2 = 1 - 2 s x + x^2 for a literal of sign s.  With its literals
    sorted by variable, its 27 terms are the rows of one fixed exponent
    table on those three positions, so each term is ranked from that support
    (:func:`~polyscore.polybasis.support_rank`) and no dense row is built
    for it.  One stable sort of the ranks groups equal terms,
    ``np.add.reduceat`` sums each group in input order, and only the
    distinct exponent rows are built.  The coefficients are integers, exact
    in double.
    """
    if not C.m:
        return PolyCoeffs.zero(C.n)
    lits = np.array(C.clauses, dtype=np.int64)
    lits = np.take_along_axis(lits, np.argsort(np.abs(lits), axis=1), axis=1)
    sign = np.sign(lits)
    factors = np.stack([np.ones_like(sign), -2 * sign, np.ones_like(sign)], axis=-1)
    E = _CLAUSE_EXPONENTS
    coeffs = factors[:, 0, E[:, 0]] * factors[:, 1, E[:, 1]] * factors[:, 2, E[:, 2]]
    pos = np.repeat(np.abs(lits) - 1, len(E), axis=0)
    expo = np.tile(E, (C.m, 1))
    rank = support_rank(C.n, pos, expo)
    by_rank = np.argsort(rank, kind="stable")
    rank = rank[by_rank]
    starts = np.flatnonzero(np.r_[True, rank[1:] != rank[:-1]])
    first = by_rank[starts]
    degrees = np.zeros((len(starts), C.n), dtype=np.int64)
    degrees.ravel()[pos[first] + np.arange(0, degrees.size, C.n)[:, None]] = expo[first]
    return PolyCoeffs._ranked(C.n, degrees, np.add.reduceat(coeffs.ravel()[by_rank], starts), rank[starts])


@lru_cache(maxsize=None)
def hypercube_poly(n: int) -> PolyCoeffs:
    """The vertex pinning term ``G(x) = sum_i (1 - x_i^2)^2``, built once per n and shared (read-only)."""
    eye = np.eye(n, dtype=np.int64)
    degrees = np.vstack([np.zeros((1, n), dtype=np.int64), 2 * eye, 4 * eye])
    return PolyCoeffs.from_arrays(n, degrees, np.concatenate([[n], np.full(n, -2.0), np.ones(n)]))


@lru_cache(maxsize=None)
def _hypercube_certificate(n: int) -> tuple[np.ndarray, bool]:
    """G's integer coefficients and whether G is 0 at every vertex, checked once per n.

    G is :func:`hypercube_poly`'s shared read-only polynomial, so its vertex
    check depends on n only; a G that were not integral raises here.
    """
    G = hypercube_poly(n)
    ints = _integer_coeffs(G)
    ints.setflags(write=False)
    return ints, not _vertex_values(G.degrees, ints, n).any()


# ---------------------------------------------------------------------------
# encoding into the degree-7 family


@dataclass(frozen=True)
class EncodedInstance:
    """A formula compiled to a degree-7 family member.

    ``energy`` is ``alpha * H_C + beta * G``.  ``theta``, built on first read,
    holds its negated non-constant coefficients and ``dropped_constant`` its
    constant term, so the formula density's log-partition equals
    ``log Z(theta) - dropped_constant``.  ``H`` is H_C expanded, with integer
    coefficients; :func:`verify_roots` certifies exactly these.
    """

    formula: CnfFormula
    alpha: float
    beta: float
    energy: PolyCoeffs
    H: PolyCoeffs

    @property
    def n(self) -> int:
        return self.formula.n

    @property
    def m(self) -> int:
        return self.formula.m

    @property
    def B(self) -> float:
        return 64.0 * self.m * self.alpha + 2.0 * self.beta

    @property
    def dropped_constant(self) -> float:
        return self.energy.constant_term

    @cached_property
    def theta(self) -> ParamVector:
        basis, rank = enumerate_basis(self.n, 7), self.energy.rank
        theta = np.zeros(basis.size)
        theta[rank[rank > 0] - 1] = -self.energy.coeffs[rank > 0]
        return ParamVector(basis, theta, self.B)

    @property
    def log_density(self) -> PolyCoeffs:
        """-energy - sum_i x_i^8, the energy's constant kept: near 0 at the wells, with the
        formula density's own log Z."""
        wells = PolyCoeffs.from_arrays(self.n, 8 * np.eye(self.n, dtype=np.int64), -np.ones(self.n))
        return -self.energy + wells


def _energy(alpha: float, H: PolyCoeffs, beta: float, G: PolyCoeffs) -> PolyCoeffs:
    """``alpha * H + beta * G`` in one canonicalisation, each coefficient summed as 0 + alpha h + beta g.

    Those are the sums the two products and the addition make, without the
    two intermediate polynomials; the rows are placed by H's and G's stored
    ranks, not ranked again.
    """
    return PolyCoeffs._ranked(
        H.n, np.vstack([H.degrees, G.degrees]), np.concatenate([alpha * H.coeffs, beta * G.coeffs]),
        np.concatenate([H.rank, G.rank]),
    )


def encode(C: CnfFormula, alpha: float, beta: float) -> EncodedInstance:
    """Compile ``alpha * H_C + beta * G`` into a family member of degree 7."""
    alpha, beta = float(alpha), float(beta)
    if not (0.0 <= alpha < math.inf and 0.0 <= beta < math.inf):
        raise ValueError(f"couplings must be finite and nonnegative, got alpha={alpha}, beta={beta}")
    H = formula_poly(C)
    with np.errstate(over="ignore", invalid="ignore"):  # an energy that overflows is refused below
        inst = EncodedInstance(C, alpha, beta, _energy(alpha, H, beta, hypercube_poly(C.n)), H)
    if not (math.isfinite(inst.B) and np.isfinite(inst.energy.coeffs).all()):
        raise ValueError(f"couplings alpha={alpha}, beta={beta} overflow the energy: its box radius "
                         f"or a coefficient is not finite")
    if inst.B < 1.0:
        raise ValueError(f"couplings too small: box radius 64*m*alpha + 2*beta = {inst.B} < 1")
    return inst


def encoded_to_json(inst: EncodedInstance) -> dict:
    """Coefficient polynomial (negated energy, constant dropped) plus couplings."""
    obj = poly_to_json(PolyCoeffs.constant(inst.n, inst.dropped_constant) - inst.energy)
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


def _vertices(codes: np.ndarray, n: int) -> np.ndarray:
    """The vertices of {-1,1}^n with the given binary codes: bit n - i is x_i, 1 for +1, 0 for -1."""
    return 2 * ((codes[:, None] >> np.arange(n - 1, -1, -1)) & 1) - 1


def _falsified_counts(C: CnfFormula) -> np.ndarray:
    """Falsified clauses at every vertex, int64, in code order (vertex c at entry c).

    A clause is false exactly at the codes whose bits under its three-bit
    mask (its variables) read its false pattern: 0 for ``+i``, 1 for ``-i``.
    Split a code into its high and low bits and that test is one test per
    half, so with F[j, h] and G[j, l] clause j's tests on the halves, the
    counts are F^T G: two tables of (clauses x 2^(n/2)) booleans and one
    product per block of clauses, exact in double since no count passes m.
    """
    n = C.n
    lits = np.array(C.clauses, dtype=np.int64).reshape(C.m, 3)
    bit = 1 << (n - np.abs(lits))  # x_i is bit n - i
    mask, false = bit.sum(axis=1)[:, None], (bit * (lits < 0)).sum(axis=1)[:, None]
    lo = n // 2
    high = np.arange(1 << (n - lo), dtype=np.int64) << lo
    low = np.arange(1 << lo, dtype=np.int64)
    k = np.zeros((len(high), len(low)))
    for rows in row_blocks(C.m, len(high)):
        F = ((high ^ false[rows]) & mask[rows]) >> lo == 0
        G = (low ^ false[rows]) & mask[rows] & (len(low) - 1) == 0
        k += F.T.astype(float) @ G.astype(float)
    return k.astype(np.int64).ravel()


def _check_scan_size(n: int):
    if n > MAX_SCAN_VARS:
        raise ValueError(f"exhaustive vertex scan capped at n <= {MAX_SCAN_VARS}, got n={n}")


def satisfying_assignments(C: CnfFormula) -> list[tuple[int, ...]]:
    """All vertices of {-1,1}^n satisfying the formula, in code order, by exhaustive scan."""
    _check_scan_size(C.n)
    codes = np.flatnonzero(_falsified_counts(C) == 0)
    out: list[tuple[int, ...]] = []
    for rows in row_blocks(len(codes), C.n):
        out.extend(map(tuple, _vertices(codes[rows], C.n).tolist()))
    return out


def _integer_coeffs(f: PolyCoeffs) -> np.ndarray:
    """f's coefficients as int64; any that is not an integer raises ValueError."""
    ints = np.rint(f.coeffs).astype(np.int64)
    if not np.array_equal(ints, f.coeffs):
        raise ValueError("expected integer coefficients")
    return ints


def _vertex_values(degrees: np.ndarray, ints: np.ndarray, n: int) -> np.ndarray:
    """Exact int64 values at the 2^n vertices, in code order (vertex c at entry c, as in :func:`_vertices`).

    At a vertex a monomial is (-1)^(number of its odd exponents on -1
    coordinates), so the values are the Walsh-Hadamard transform of the
    coefficients summed by odd-exponent mask (variable 1 the top bit), every
    partial sum bounded by sum |c|.  Each of the n butterfly passes reads the
    two contiguous halves of the array, whose entries differ in the top bit,
    and writes a + b and a - b interleaved: that moves the top bit to the
    bottom, so every bit takes one pass and after n passes the order is
    back.  The -1 coordinates of code c are its zero bits, so vertex c reads
    entry 2^n - 1 - c.
    """
    mask = (degrees % 2) @ (1 << np.arange(n - 1, -1, -1, dtype=np.int64))
    f = np.zeros(1 << n, dtype=np.int64)
    np.add.at(f, mask, ints)
    g = np.empty_like(f)
    half = len(f) // 2
    for _ in range(n):
        pairs = g.reshape(half, 2)
        np.add(f[:half], f[half:], out=pairs[:, 0])
        np.subtract(f[:half], f[half:], out=pairs[:, 1])
        f, g = g, f
    return f[::-1]


def _values_mod(f: PolyCoeffs, ints: np.ndarray, z: np.ndarray) -> np.ndarray:
    """f with integer coefficients ``ints`` mod :data:`_MODULUS` at each row of z.

    z holds residues in [0, p).  The residue powers are laid out as
    ``PolyCoeffs._monomials`` lays out its power table, and each term
    multiplies only the factors of its nonzero exponents (``f._gather``).
    Every product of two residues is reduced at once, so no int64
    intermediate exceeds 2^62, and the sum of the terms' residues stays
    below 2^63 for fewer than 2^32 terms.
    """
    p = _MODULUS
    dmax, cols = f._gather
    powers = np.ones((len(z), f.n, dmax + 1), dtype=np.int64)
    for e in range(1, dmax + 1):
        powers[..., e] = powers[..., e - 1] * z % p
    powers = powers.reshape(len(z), -1)  # column i (dmax + 1) + e holds z_i^e
    terms = ints % p
    for c in cols:
        terms = terms * powers.take(c, axis=1) % p
    return terms.sum(axis=1) % p  # cols has at least one row, so terms is (points, K)


def _clause_squares_mod(C: CnfFormula, z: np.ndarray) -> np.ndarray:
    """``sum_c prod_j (x_(v_j) - s_j)^2`` mod :data:`_MODULUS` at each row of z, read from the clauses.

    This is H_C as the clauses define it, a sum of squares; it shares no
    code with :func:`formula_poly`'s expansion.
    """
    p = _MODULUS
    lits = np.array(C.clauses, dtype=np.int64).reshape(C.m, 3)
    f = (z[:, np.abs(lits) - 1] - np.sign(lits)) % p  # (points, m, 3)
    f = f * f % p
    return (f[..., 0] * f[..., 1] % p * f[..., 2] % p).sum(axis=1) % p


def verify_roots(inst: EncodedInstance, seed: int = 0) -> dict:
    """Certify the energy's zero set: exactly the satisfying vertices, in exact arithmetic.

    At every vertex the expanded polynomials must reproduce, in exact integer
    arithmetic, ``H_C(v) = 64 * (#falsified clauses)`` and ``G(v) = 0``; in
    particular the energy vanishes exactly at the satisfying assignments.

    Off the vertices the energy is proved positive, not sampled.  The
    certificate checks three identities: the expanded integer ``H`` equals
    ``sum_c prod_j (x_(v_j) - s_j)^2``, read from the clauses; ``G`` equals
    ``sum_i (1 - x_i^2)^2``; and ``inst.energy`` is exactly the float
    expansion ``alpha * H + beta * G``.  Then H is a sum of squares, so
    ``H >= 0``, and G is positive off the vertices, so with alpha >= 0 and
    beta > 0 the energy is.  The two polynomial identities are
    Schwartz-Zippel tests modulo the prime p = 2^31 - 1 at
    ``_IDENTITY_POINTS`` points of (Z / p)^n drawn from stream 0 of
    ``seed``: both sides are evaluated in int64 with a reduction after every
    multiply.  A false identity has degree <= 6, so it passes one point with
    chance at most 6 / p.  The reduction is faithful because every
    coefficient of H - (sum of squares) is below p in magnitude: a clause's
    product has coefficients of magnitude <= 8, so the sum of squares' are
    <= 8m, and an H whose largest coefficient plus 8m reaches p is refused
    with a ValueError.

    At beta = 0 the energy is alpha * H_C, and a clause's term vanishes
    wherever one of its literals is exactly true: the energy of the lone
    clause (x1 or x2 or not x3) is zero on the whole face x1 = 1.  So at
    beta = 0 ``holds`` is false whatever the identities read, and the
    report's ``refused`` says why.
    """
    C = inst.formula
    _check_scan_size(C.n)
    H, G = inst.H, hypercube_poly(C.n)
    h_ints = _integer_coeffs(H)
    g_ints, g_vanishes = _hypercube_certificate(C.n)
    if np.abs(h_ints).max(initial=0) + 8 * C.m >= _MODULUS:
        raise ValueError(
            f"coefficients of H - (sum of clause squares) may reach the modulus {_MODULUS}: "
            f"max|H| = {np.abs(h_ints).max()}, m = {C.m}"
        )
    k = _falsified_counts(C)
    hv = _vertex_values(H.degrees, h_ints, C.n)
    vertex_identity = bool(g_vanishes and np.array_equal(hv, 64 * k))
    roots_match = bool(np.array_equal(hv == 0, k == 0))
    n_sat = int(np.count_nonzero(k == 0))
    min_unsat_k = int(k[k > 0].min()) if n_sat < len(k) else None
    z = _stream(seed, 0).integers(0, _MODULUS, size=(_IDENTITY_POINTS, C.n))
    h_identity = bool(np.array_equal(_values_mod(H, h_ints, z), _clause_squares_mod(C, z)))
    wells = (1 - z * z % _MODULUS) % _MODULUS  # 1 - x_i^2
    g_squares = (wells * wells % _MODULUS).sum(axis=1) % _MODULUS
    g_identity = bool(np.array_equal(_values_mod(G, g_ints, z), g_squares))
    energy_identity = bool(inst.energy == _energy(inst.alpha, H, inst.beta, G))
    positive = h_identity and g_identity and energy_identity and inst.alpha >= 0.0 and inst.beta > 0.0
    report = {
        "n": C.n,
        "m": C.m,
        "alpha": inst.alpha,
        "beta": inst.beta,
        "vertices": 1 << C.n,
        "n_sat": n_sat,
        "vertex_identity": vertex_identity,
        "roots_match_satisfying_set": roots_match,
        "min_unsat_energy": None if min_unsat_k is None else 64.0 * inst.alpha * min_unsat_k,
        "modulus": _MODULUS,
        "identity_points": _IDENTITY_POINTS,
        "H_identity": h_identity,
        "G_identity": g_identity,
        "energy_identity": energy_identity,
        "positive_off_vertices": positive,
        "holds": bool(vertex_identity and roots_match and positive),
    }
    if not inst.beta > 0.0:
        report["refused"] = (
            "beta = 0: the energy vanishes on whole faces of the cube, not only at vertices"
        )
    return report


# ---------------------------------------------------------------------------
# quadrature experiments


def hardness_grid(n: int, beta: float, points_per_axis: int | None = None) -> QuadratureGrid:
    """Quadrature grid on [-2, 2]^n refined at the hypercube wells of width ~ 1/sqrt(beta).

    Without ``points_per_axis`` it takes the per-dimension default for n <= 3.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if points_per_axis is None:
        if n not in (1, 2, 3):
            raise ValueError(f"quadrature experiments support 1 <= n <= 3, got n={n}")
        points_per_axis = {1: 480, 2: 260, 3: 180}[n]
    width = min(1.0, 1.0 / math.sqrt(beta))
    return build_grid(n, 2.0, points_per_axis, refine_near=[-1.0, 1.0], refine_width=width)


def _gated_passes(
    formulas: list[CnfFormula], alpha: float, beta: float, grid: QuadratureGrid | None, **pass_kw
) -> tuple[dict, list]:
    """Encode each formula at (alpha, beta) and run one gated pass of its density on ``grid``.

    Without a grid the passes share ``hardness_grid(n, beta)``.  Returns the
    report header the experiments share (n, m, alpha, beta of the first
    formula) and each pass's (result, doubling delta).
    """
    insts = [encode(C, alpha, beta) for C in formulas]
    C = formulas[0]
    if grid is None:
        grid = hardness_grid(C.n, beta)
    passes = [gated_quadrature(grid, inst.log_density, **pass_kw) for inst in insts]
    return {"n": C.n, "m": C.m, "alpha": float(alpha), "beta": float(beta)}, passes


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
    header, [(sat, delta_sat), (unsat, delta_unsat)] = _gated_passes([C_sat, C_unsat], alpha, beta, grid)
    logz_sat, logz_unsat = sat.log_integral, unsat.log_integral
    gap = logz_sat - logz_unsat
    threshold = 2.0 * C_sat.n * math.log(1.16)
    separated = bool(gap > threshold)
    note = "holds means the gap exceeds the threshold" + (
        "" if separated else "; not separated at these couplings"
    )
    return {
        **header,
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
    header, [(out, _)] = _gated_passes([C], alpha, beta, grid, order=1)
    mean_x = out.moments[tuple(np.eye(C.n, dtype=np.int64))]
    recovered = tuple(1 if t > 0 else -1 for t in mean_x)
    margins = np.asarray(v_star, dtype=float) * mean_x
    min_margin = float(margins.min())
    matches = recovered == v_star
    return {
        **header,
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
    header, [(out, _)] = _gated_passes([C], alpha, beta, grid, orthants=sols)
    mass = out.orthant_mass
    if sols:
        holds = mass >= 0.5
        note = "union of satisfying orthants"
    else:
        holds = True
        note = "no satisfying assignment, bound vacuous"
    return {
        **header,
        "n_sat": len(sols),
        "mass_on_satisfying_orthants": mass,
        "asserted": bool(sols),
        "checks": [BoundCheck("satisfying_orthant_mass", 0.5, mass, bool(holds), note=note)],
    }

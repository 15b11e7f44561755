"""Tests for the 3-CNF encoding and its separation/concentration experiments.

The quadrature experiments are cross-checked against a vertex-weight model
computed independently here: once the wells dominate, each vertex v carries
weight proportional to exp(-64 * alpha * k(v)) with k(v) the number of
falsified clauses, and well-shape corrections are O(alpha/beta) or smaller.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyscore.expfam import (
    GridConvergenceError,
    build_grid,
    log_unnormalized_density,
    poly_quadrature,
    quad_expectation,
    zero_params,
)
from polyscore.hardness import (
    CnfFormula,
    _falsified_counts,
    _iter_vertices,
    _log_density_coeffs,
    _vertex_values,
    clause_poly,
    default_params,
    encode,
    encoded_to_json,
    formula_poly,
    hardness_grid,
    hypercube_poly,
    load_fixture,
    mean_sign_experiment,
    orthant_mass,
    pad_with_duplicates,
    parse_dimacs,
    random_formula,
    satisfying_assignments,
    verify_roots,
    zgap_experiment,
)
from polyscore.polybasis import PolyCoeffs, poly_from_json
from polyscore.sampler import McmcConfig, sample_mala


def vertex_log_weight_sum(C: CnfFormula, alpha: float) -> float:
    """log sum over vertices of exp(-64 alpha k(v)), pure-Python reference."""
    total = 0.0
    for bits in itertools.product((-1, 1), repeat=C.n):
        k = sum(
            0 if any((bits[abs(lit) - 1] > 0) == (lit > 0) for lit in c) else 1
            for c in C.clauses
        )
        total += math.exp(-64.0 * alpha * k)
    return math.log(total)


def vertex_weights(C: CnfFormula, alpha: float):
    out = {}
    for bits in itertools.product((-1, 1), repeat=C.n):
        k = sum(
            0 if any((bits[abs(lit) - 1] > 0) == (lit > 0) for lit in c) else 1
            for c in C.clauses
        )
        out[bits] = math.exp(-64.0 * alpha * k)
    return out


def flip_literals(C: CnfFormula) -> CnfFormula:
    return CnfFormula(C.n, tuple(tuple(-lit for lit in c) for c in C.clauses))


class TestCnfFormula:
    def test_basic(self):
        C = CnfFormula(4, ((1, -2, 3), (2, 3, -4)))
        assert C.m == 2 and C.n == 4

    def test_empty_formula_allowed(self):
        assert CnfFormula(2, ()).m == 0

    def test_wrong_clause_length(self):
        with pytest.raises(ValueError, match="exactly 3"):
            CnfFormula(3, ((1, 2),))

    def test_repeated_variable(self):
        with pytest.raises(ValueError, match="repeats"):
            CnfFormula(3, ((1, -1, 2),))

    def test_variable_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            CnfFormula(3, ((1, 2, 4),))
        with pytest.raises(ValueError, match="outside"):
            CnfFormula(3, ((0, 1, 2),))

    def test_bad_n(self):
        with pytest.raises(ValueError, match="n >= 1"):
            CnfFormula(0, ())


class TestParseDimacs:
    def test_single_clause(self):
        C = parse_dimacs("c comment\np cnf 3 1\n1 2 -3 0\n")
        assert C.n == 3 and C.clauses == ((1, 2, -3),)

    def test_clause_spanning_lines(self):
        C = parse_dimacs("p cnf 3 1\n1 2\n-3 0\n")
        assert C.clauses == ((1, 2, -3),)

    def test_missing_header(self):
        with pytest.raises(ValueError, match="header"):
            parse_dimacs("1 2 3 0\n")

    def test_malformed_header(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_dimacs("p sat 3 1\n1 2 3 0\n")

    def test_duplicate_header(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_dimacs("p cnf 3 1\np cnf 3 1\n1 2 3 0\n")

    def test_unterminated_clause(self):
        with pytest.raises(ValueError, match="terminated"):
            parse_dimacs("p cnf 3 1\n1 2 3\n")

    def test_clause_count_mismatch(self):
        with pytest.raises(ValueError, match="declares 2"):
            parse_dimacs("p cnf 3 2\n1 2 3 0\n")

    def test_two_literal_clause_rejected(self):
        with pytest.raises(ValueError, match="2 literals"):
            parse_dimacs("p cnf 3 1\n1 2 0\n")

    def test_non_integer_token(self):
        with pytest.raises(ValueError, match="non-integer"):
            parse_dimacs("p cnf 3 1\n1 x 3 0\n")

    def test_fixtures_load(self):
        assert load_fixture("clause1").m == 1
        assert load_fixture("uniq3").m == 7
        assert load_fixture("unsat8").m == 8

    def test_pad_with_duplicates(self):
        C = pad_with_duplicates(load_fixture("uniq3"), 8)
        assert C.m == 8 and C.clauses[7] == C.clauses[0]
        assert satisfying_assignments(C) == [(1, 1, 1)]
        with pytest.raises(ValueError, match="pad down"):
            pad_with_duplicates(C, 3)
        with pytest.raises(ValueError, match="no clauses"):
            pad_with_duplicates(CnfFormula(3, ()), 2)


class TestClausePoly:
    def test_worked_example_coefficients(self):
        # (x1 - 1)^2 (x2 - 1)^2 (x3 + 1)^2
        f = clause_poly((1, 2, -3), 3)
        assert f.terms[(2, 2, 2)] == 1.0
        assert f.terms[(1, 0, 0)] == -2.0
        assert f.degree == 6 and len(f.terms) == 27

    def test_vertex_values(self):
        f = clause_poly((1, 2, -3), 3)
        assert f.evaluate(np.array([-1.0, -1.0, 1.0])) == 64.0
        for v in itertools.product((-1.0, 1.0), repeat=3):
            if v != (-1.0, -1.0, 1.0):
                assert f.evaluate(np.array(v)) == 0.0

    def test_coefficient_bound(self):
        rng = np.random.Generator(np.random.Philox(key=np.array([5, 0], dtype=np.uint64)))
        for _ in range(50):
            n = int(rng.integers(3, 9))
            vars_ = rng.choice(n, size=3, replace=False) + 1
            signs = rng.integers(0, 2, size=3) * 2 - 1
            f = clause_poly(tuple(int(v * s) for v, s in zip(vars_, signs)), n)
            assert max(abs(c) for c in f.terms.values()) <= 64.0

    def test_formula_poly_sums(self):
        C = load_fixture("uniq3")
        F = formula_poly(C)
        x = np.array([0.3, -0.7, 1.1])
        total = sum(clause_poly(c, 3).evaluate(x) for c in C.clauses)
        assert F.evaluate(x) == pytest.approx(total, rel=1e-12)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(3, 12), m=st.integers(0, 60), seed=st.integers(0, 2**31 - 1))
    def test_formula_poly_is_the_sum_of_clause_polys(self, n, m, seed):
        # integer coefficients: the scatter-add and the term-by-term sum agree exactly
        C = random_formula(n, m, seed)
        total = PolyCoeffs.zero(n)
        for c in C.clauses:
            total = total + clause_poly(c, n)
        assert dict(formula_poly(C).terms) == dict(total.terms)


class TestHypercubePoly:
    def test_terms(self):
        G = hypercube_poly(2)
        assert G.terms == {(0, 0): 2.0, (2, 0): -2.0, (4, 0): 1.0, (0, 2): -2.0, (0, 4): 1.0}

    def test_values(self):
        G = hypercube_poly(3)
        for v in itertools.product((-1.0, 1.0), repeat=3):
            assert G.evaluate(np.array(v)) == 0.0
        assert G.evaluate(np.zeros(3)) == 3.0

    def test_coefficient_bound(self):
        # non-constant coefficients only; the constant term never reaches theta
        for n in (1, 2, 5):
            G = hypercube_poly(n)
            assert max(abs(c) for idx, c in G.terms.items() if sum(idx) > 0) <= 2.0
            assert G.constant_term == float(n)


class TestEncode:
    def test_single_clause_theta(self):
        inst = encode(load_fixture("clause1"), 1.0, 0.0)
        names = inst.theta.basis.monomial_names()
        theta = dict(zip(names, inst.theta.theta))
        assert theta["x1^2*x2^2*x3^2"] == -1.0
        assert theta["x1"] == 2.0
        assert inst.B == 64.0
        assert inst.dropped_constant == 1.0

    def test_pinning_term_theta(self):
        inst = encode(CnfFormula(3, ()), 0.0, 1.0)
        theta = dict(zip(inst.theta.basis.monomial_names(), inst.theta.theta))
        for i in (1, 2, 3):
            assert theta[f"x{i}^2"] == 2.0
            assert theta[f"x{i}^4"] == -1.0
        assert inst.B == 2.0
        assert inst.dropped_constant == 3.0

    def test_log_density_identity(self):
        # the encoded member's log density differs from log h - F by exactly
        # the dropped constant, everywhere
        C = load_fixture("uniq3")
        inst = encode(C, 1.0, 1.0)
        assert inst.dropped_constant == 1.0 * C.m + 1.0 * C.n
        rng = np.random.Generator(np.random.Philox(key=np.array([9, 0], dtype=np.uint64)))
        X = rng.uniform(-2.0, 2.0, size=(100, 3))
        lhs = log_unnormalized_density(inst.theta, X)
        rhs = -np.sum(X**8, axis=1) - inst.energy.evaluate(X)
        assert np.max(np.abs(lhs - rhs - inst.dropped_constant)) <= 1e-8

    def test_box_bound_random_formulas(self):
        rng = np.random.Generator(np.random.Philox(key=np.array([21, 0], dtype=np.uint64)))
        for k in range(100):
            n = int(rng.integers(3, 7))
            m = int(rng.integers(1, 10 * n + 1))
            alpha = float(0.1 + 3.0 * rng.random())
            beta = float(1.0 + 10.0 * rng.random())
            inst = encode(random_formula(n, m, seed=500 + k), alpha, beta)
            assert inst.B == 64.0 * m * alpha + 2.0 * beta
            assert np.max(np.abs(inst.theta.theta)) <= inst.B

    def test_degree_is_seven(self):
        inst = encode(load_fixture("clause1"), 1.0, 1.0)
        assert inst.theta.basis.d == 7
        assert inst.energy.degree == 6

    def test_negative_couplings_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            encode(load_fixture("clause1"), -1.0, 1.0)

    def test_too_small_couplings_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            encode(CnfFormula(3, ()), 0.0, 0.1)

    def test_json(self):
        inst = encode(load_fixture("clause1"), 2.0, 3.0)
        obj = encoded_to_json(inst)
        assert obj["alpha"] == 2.0 and obj["beta"] == 3.0
        assert obj["B"] == 64.0 * 2.0 + 6.0
        assert obj["m"] == 1 and obj["n"] == 3
        assert obj["dropped_constant"] == inst.dropped_constant
        # the serialized polynomial is the coefficient vector itself
        back = poly_from_json(obj)
        expected = {idx: -c for idx, c in inst.energy.terms.items() if sum(idx) > 0}
        assert back.terms == expected
        theta = dict(zip(inst.theta.basis.indices, inst.theta.theta))
        assert all(theta[idx] == c for idx, c in back.terms.items())


class TestDefaultParams:
    # expected couplings recomputed from the prescriptions as log-sums
    FROZEN = {
        ("zeroth", 2): (6.0, 616372.7626538827),
        ("first", 2): (8.0, 3533407.2101140358),
        ("sampling", 2): (6.0, 285728.4126767991),
        ("zeroth", 3): (8.0, 1042792.7695051648),
        ("first", 3): (12.0, 8896035.226951307),
        ("sampling", 3): (8.0, 487709.43177736906),
    }

    def test_frozen_values(self):
        for (mode, n), (alpha, beta) in self.FROZEN.items():
            pp = default_params(n, 2 * n, mode)
            assert pp.alpha == pytest.approx(alpha, rel=1e-12)
            assert pp.beta == pytest.approx(beta, rel=1e-12)
            assert pp.mode == mode and pp.scale == 1.0

    def test_scale_multiplies_both(self):
        full = default_params(3, 8, "zeroth")
        tenth = default_params(3, 8, "zeroth", scale=0.1)
        assert tenth.alpha == pytest.approx(0.1 * full.alpha, rel=1e-15)
        assert tenth.beta == pytest.approx(0.1 * full.beta, rel=1e-15)
        assert tenth.scale == 0.1

    def test_rejections(self):
        with pytest.raises(ValueError, match="unknown mode"):
            default_params(3, 8, "second")
        with pytest.raises(ValueError, match="scale"):
            default_params(3, 8, "zeroth", scale=0.0)
        with pytest.raises(ValueError, match="scale"):
            default_params(3, 8, "zeroth", scale=1.5)
        with pytest.raises(ValueError, match="10n"):
            default_params(3, 31, "zeroth")
        with pytest.raises(ValueError, match="n >= 1"):
            default_params(0, 0, "zeroth")


class TestSatisfyingAssignments:
    def test_unique(self):
        assert satisfying_assignments(load_fixture("uniq3")) == [(1, 1, 1)]

    def test_unsat(self):
        assert satisfying_assignments(load_fixture("unsat8")) == []

    def test_single_clause(self):
        sols = satisfying_assignments(load_fixture("clause1"))
        assert len(sols) == 7 and (-1, -1, 1) not in sols

    def test_empty_formula(self):
        assert len(satisfying_assignments(CnfFormula(2, ()))) == 4

    def test_scan_cap(self):
        with pytest.raises(ValueError, match="capped"):
            satisfying_assignments(CnfFormula(21, ()))


def _falsified_by_definition(C, verts):
    # clause by clause: falsified where no literal's sign matches the vertex
    k = np.zeros(len(verts), dtype=np.int64)
    for c in C.clauses:
        k += np.all([verts[:, abs(lit) - 1] * np.sign(lit) < 0 for lit in c], axis=0)
    return k


class TestFalsifiedCounts:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(3, 9), m=st.integers(0, 60), seed=st.integers(0, 2**31 - 1))
    def test_random_formulas(self, n, m, seed):
        C = random_formula(n, m, seed)
        verts = np.vstack(list(_iter_vertices(n, 1)))
        assert np.array_equal(_falsified_counts(C, verts), _falsified_by_definition(C, verts))

    def test_empty_formula(self):
        verts = np.vstack(list(_iter_vertices(4, 1)))
        k = _falsified_counts(CnfFormula(4, ()), verts)
        assert k.shape == (16,) and not k.any()

    def test_blocks_of_a_large_formula(self):
        # blocks sized by the 3m gathered literals: n = 12, m = 120 spans several
        C = random_formula(12, 120, seed=9)
        blocks = list(_iter_vertices(12, 3 * C.m))
        assert len(blocks) > 1
        got = np.concatenate([_falsified_counts(C, v) for v in blocks])
        verts = np.vstack(blocks)
        assert len(verts) == 1 << 12
        assert np.array_equal(got, _falsified_by_definition(C, verts))


class TestVerifyRoots:
    def test_single_clause(self):
        inst = encode(load_fixture("clause1"), 2.5, 1.0)
        rep = verify_roots(inst, seed=3)
        assert rep["holds"] and rep["vertex_identity"] and rep["roots_match_satisfying_set"]
        assert rep["n_sat"] == 7 and rep["vertices"] == 8
        # the lone falsifying vertex sits at energy 64 * alpha
        assert rep["min_unsat_energy"] == 160.0
        assert rep["min_random_energy"] > 0.0

    def test_unsat_formula(self):
        rep = verify_roots(encode(load_fixture("unsat8"), 1.0, 1.0), seed=4)
        assert rep["holds"] and rep["n_sat"] == 0
        assert rep["min_unsat_energy"] == 64.0

    def test_unique_formula(self):
        rep = verify_roots(encode(load_fixture("uniq3"), 1.0, 1.0), seed=5)
        assert rep["holds"] and rep["n_sat"] == 1

    def test_empty_formula(self):
        rep = verify_roots(encode(CnfFormula(2, ()), 0.0, 2.0), seed=6)
        assert rep["holds"] and rep["n_sat"] == 4
        assert rep["min_unsat_energy"] is None

    def test_random_formulas(self):
        for k in range(20):
            n = 3 + k % 10
            m = min(10 * n, 5 + 3 * k)
            inst = encode(random_formula(n, m, seed=100 + k), 1.0, 5.0)
            assert verify_roots(inst, seed=k)["holds"]

    def test_deterministic(self):
        inst = encode(load_fixture("uniq3"), 1.0, 1.0)
        assert verify_roots(inst, seed=7) == verify_roots(inst, seed=7)

    def test_certifies_the_expanded_terms(self):
        # the certificate reads the instance's own expansion of H_C: one
        # wrong coefficient there breaks the vertex identity
        inst = encode(load_fixture("uniq3"), 1.0, 1.0)
        degrees, ints = inst.h_terms
        assert np.array_equal(ints, np.rint(ints)) and ints.dtype == np.int64
        bad = ints.copy()
        bad[0] += 1
        broken = dataclasses.replace(inst, h_terms=(degrees, bad))
        rep = verify_roots(broken, seed=7)
        assert not rep["vertex_identity"] and not rep["holds"]

    def test_vertex_values_in_row_blocks(self):
        # about a thousand terms of H put the 4096 vertices of n = 12 into
        # several row blocks; every value must stay the exact integer H(v)
        inst = encode(random_formula(12, 120, seed=9), 1.0, 2.0)
        degrees, ints = inst.h_terms
        blocks = list(_iter_vertices(12, len(ints)))
        assert len(blocks) > 1
        verts = np.vstack(blocks)
        assert len(verts) == 1 << 12
        got = np.concatenate([_vertex_values(degrees, ints, v) for v in blocks])
        want = formula_poly(inst.formula).evaluate(verts.astype(float))
        assert np.array_equal(got, np.rint(want).astype(np.int64))


class TestHardnessGrid:
    def test_refined_at_wells(self):
        g = hardness_grid(1, 1e4)
        assert g.n == 1 and len(g.axis_nodes) == 480
        assert g.refine_near == (-1.0, 1.0)
        assert g.refine_width == pytest.approx(1e-2)

    def test_width_capped_at_one(self):
        assert hardness_grid(1, 0.25).refine_width == 1.0

    def test_rejections(self):
        with pytest.raises(ValueError, match="beta"):
            hardness_grid(1, 0.0)
        with pytest.raises(ValueError, match="n <= 3"):
            hardness_grid(4, 100.0)


FIXTURE_MODES = (("clause1", "sampling"), ("uniq3", "first"), ("unsat8", "zeroth"))


class TestSlabOracleOnFixtures:
    """The hardness quadrature against the pointwise callable path."""

    @pytest.mark.parametrize("name,mode", FIXTURE_MODES)
    def test_matches_pointwise_path(self, name, mode):
        C = load_fixture(name)
        pp = default_params(3, C.m, mode, scale=0.01)
        inst = encode(C, pp.alpha, pp.beta)
        grid = hardness_grid(3, pp.beta, points_per_axis=60)
        sols = satisfying_assignments(C)
        fns = [lambda X: X]
        if sols:
            V = np.asarray(sols, dtype=float)
            fns.append(
                lambda X: np.any(np.all(X[:, None, :] * V[None] >= 0.0, axis=2), axis=1)
                .astype(float)
            )
        logz, outs = quad_expectation(
            grid, lambda X: -np.sum(X**8, axis=1) - inst.energy.evaluate(X), fns
        )
        out = poly_quadrature(grid, _log_density_coeffs(inst), order=1, orthants=sols)
        assert out.log_integral == pytest.approx(logz, abs=1e-10)
        np.testing.assert_allclose(out.moments[tuple(np.eye(3, dtype=int))], outs[0], atol=1e-11)
        assert out.orthant_mass == pytest.approx(float(outs[1]) if sols else 0.0, abs=1e-12)

    def test_coarse_grid_fails_the_gate(self):
        C = load_fixture("clause1")
        pp = default_params(3, C.m, "sampling", scale=0.01)
        with pytest.raises(GridConvergenceError, match="gate"):
            orthant_mass(C, pp.alpha, pp.beta, hardness_grid(3, pp.beta, points_per_axis=60))


class TestZgap:
    def test_fixture_pair_separates(self):
        C_sat = pad_with_duplicates(load_fixture("uniq3"), 8)
        C_unsat = load_fixture("unsat8")
        pp = default_params(3, 8, "zeroth", scale=0.01)
        rep = zgap_experiment(C_sat, C_unsat, pp.alpha, pp.beta)
        assert rep["separated"] and rep["checks"][0].holds
        assert rep["gap"] > rep["threshold"] == pytest.approx(6 * math.log(1.16))
        oracle = vertex_log_weight_sum(C_sat, pp.alpha) - vertex_log_weight_sum(
            C_unsat, pp.alpha
        )
        assert rep["gap"] == pytest.approx(oracle, abs=0.02)
        assert all(d < 1e-8 for d in rep["grid_doubling_deltas"])

    def test_tiny_scale_not_separated(self):
        C_sat = pad_with_duplicates(load_fixture("uniq3"), 8)
        C_unsat = load_fixture("unsat8")
        pp = default_params(3, 8, "zeroth", scale=0.001)
        rep = zgap_experiment(C_sat, C_unsat, pp.alpha, pp.beta)
        assert not rep["separated"] and not rep["checks"][0].holds
        assert "not separated" in rep["checks"][0].note
        oracle = vertex_log_weight_sum(C_sat, pp.alpha) - vertex_log_weight_sum(
            C_unsat, pp.alpha
        )
        assert rep["gap"] == pytest.approx(oracle, abs=0.02)

    def test_identical_formulas_gap_zero(self):
        C = CnfFormula(1, ())
        rep = zgap_experiment(C, C, 0.0, 60.0)
        assert rep["gap"] == 0.0 and not rep["separated"]

    def test_mismatched_m(self):
        with pytest.raises(ValueError, match="clause count"):
            zgap_experiment(load_fixture("uniq3"), load_fixture("unsat8"), 1.0, 100.0)

    def test_mismatched_n(self):
        with pytest.raises(ValueError, match="share n"):
            zgap_experiment(CnfFormula(2, ()), CnfFormula(3, ()), 0.0, 100.0)


class TestMeanSign:
    def test_unique_solution_recovered(self):
        C = load_fixture("uniq3")
        pp = default_params(3, 7, "first", scale=0.01)
        rep = mean_sign_experiment(C, pp.alpha, pp.beta)
        assert rep["recovered"] == [1, 1, 1] and rep["recovered_matches"]
        assert rep["min_margin"] >= 1.0 / 20.0 and rep["checks"][0].holds
        w = vertex_weights(C, pp.alpha)
        oracle = min(
            sum(v[i] * wt for v, wt in w.items()) / sum(w.values()) for i in range(3)
        )
        assert rep["min_margin"] == pytest.approx(oracle, abs=2e-3)

    def test_flipped_formula_recovers_flipped_vertex(self):
        C = flip_literals(load_fixture("uniq3"))
        assert satisfying_assignments(C) == [(-1, -1, -1)]
        pp = default_params(3, 7, "sampling", scale=0.01)
        rep = mean_sign_experiment(C, pp.alpha, pp.beta)
        assert rep["recovered"] == [-1, -1, -1] and rep["checks"][0].holds

    def test_multiple_solutions_rejected(self):
        with pytest.raises(ValueError, match="found 7"):
            mean_sign_experiment(load_fixture("clause1"), 1.0, 100.0)

    def test_unsatisfiable_rejected(self):
        with pytest.raises(ValueError, match="found 0"):
            mean_sign_experiment(load_fixture("unsat8"), 1.0, 100.0)


class TestOrthantMass:
    def test_single_clause_mass(self):
        C = load_fixture("clause1")
        pp = default_params(3, 1, "sampling", scale=0.01)
        rep = orthant_mass(C, pp.alpha, pp.beta)
        assert rep["asserted"] and rep["checks"][0].holds
        mass = rep["mass_on_satisfying_orthants"]
        assert mass >= 0.5
        w = vertex_weights(C, pp.alpha)
        sols = set(satisfying_assignments(C))
        oracle = sum(wt for v, wt in w.items() if v in sols) / sum(w.values())
        assert mass == pytest.approx(oracle, abs=1e-3)

    def test_unsat_vacuous(self):
        pp = default_params(3, 8, "sampling", scale=0.01)
        rep = orthant_mass(load_fixture("unsat8"), pp.alpha, pp.beta)
        assert rep["mass_on_satisfying_orthants"] == 0.0
        assert not rep["asserted"] and rep["checks"][0].holds
        assert "vacuous" in rep["checks"][0].note

    def test_empty_formula_full_mass(self):
        rep = orthant_mass(CnfFormula(1, ()), 0.0, 60.0)
        assert rep["n_sat"] == 2
        assert rep["mass_on_satisfying_orthants"] == pytest.approx(1.0, abs=1e-12)

    def test_free_density_orthants_symmetric(self):
        # no formula term at all: all four orthants carry equal mass
        p0 = zero_params(2, 3)
        grid = build_grid(2, 4.0, 64)
        fns = []
        for v in itertools.product((-1.0, 1.0), repeat=2):
            va = np.array(v)
            fns.append(lambda X, va=va: np.all(X * va >= 0.0, axis=1).astype(float))
        _, masses = quad_expectation(grid, lambda X: log_unnormalized_density(p0, X), fns)
        for m in masses:
            assert float(m) == pytest.approx(0.25, abs=1e-10)

    def test_off_hypercube_mass_monotone_in_beta(self):
        masses = []
        for beta in (50.0, 150.0, 450.0, 1350.0):
            inst = encode(CnfFormula(2, ()), 0.0, beta)
            grid = hardness_grid(2, beta, points_per_axis=120)

            def off_cube(X):
                r = np.abs(X)
                return ((r.min(axis=1) < 0.5) | (r.max(axis=1) > 1.5)).astype(float)

            _, (mass,) = quad_expectation(
                grid, lambda X: log_unnormalized_density(inst.theta, X), [off_cube]
            )
            masses.append(float(mass))
        assert all(a >= b for a, b in zip(masses, masses[1:]))
        assert masses[-1] < 1e-12


class TestOctantTrap:
    def test_mala_chain_stays_in_starting_octant(self):
        # at the prescribed sampling couplings the wells are so deep that a
        # chain started at a vertex never crosses a coordinate hyperplane
        pp = default_params(10, 1, "sampling")
        inst = encode(CnfFormula(10, ((1, 2, 3),)), pp.alpha, pp.beta)
        x0 = -np.ones(10)  # falsifies the clause: an unsatisfying octant
        cfg = McmcConfig(step_size=2e-4, burn_in=300, thinning=1)
        s = sample_mala(inst.theta, 1000, cfg, seed=77, x0=x0)
        assert np.all(np.sign(s.data) == -1.0)
        assert np.max(np.abs(np.abs(s.data) - 1.0)) < 0.05
        acc = s.provenance["parameters"]["acceptance_rate"][0]
        assert 0.2 < acc < 0.95

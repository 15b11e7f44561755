"""Tests for the monomial basis, sparse polynomials, norms, and Legendre basis."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyscore.estimators import sm_loss
from polyscore.expfam import ParamVector, build_grid, log_unnormalized_density, moments, random_params, score
from polyscore.fisher import fisher_info, gram_matrix, sm_moment_inputs
from polyscore.polybasis import (
    MonomialBasis,
    PolyCoeffs,
    _stats_plan,
    check_mon_l2_bound,
    enumerate_basis,
    eval_jacobian,
    eval_laplacian,
    eval_suffstats,
    family_stats,
    format_monomial,
    from_legendre,
    graded_indices,
    graded_rank,
    l2_cube_inner,
    l2_cube_norm,
    legendre_1d,
    legendre_indices,
    legendre_tensor,
    monomial_norm,
    poly_from_json,
    poly_to_json,
    row_blocks,
    sample_stats,
    support_rank,
    to_legendre,
)
from polyscore.sampler import SampleSet


class TestEnumerateBasis:
    def test_counts_match_binomial(self):
        # size comes from (n, d) alone and agrees with the rows built on first read
        for n in range(1, 7):
            for d in (1, 3, 5, 7):
                basis = enumerate_basis(n, d)
                assert basis.size == math.comb(n + d, d) - 1
                if n <= 4:
                    assert basis.size == len(basis.degrees)

    def test_basis_is_its_n_and_d(self):
        fresh = MonomialBasis(2, 3)
        assert "degrees" not in fresh.__dict__
        shared = enumerate_basis(2, 3)
        shared.degrees
        assert fresh == shared and hash(fresh) == hash(shared)
        assert fresh != MonomialBasis(2, 5) and fresh != MonomialBasis(3, 3)
        assert len({fresh, shared, MonomialBasis(2, 5)}) == 2
        assert "degrees" not in fresh.__dict__  # comparing built no rows
        assert np.array_equal(fresh.degrees, shared.degrees)
        assert not fresh.degrees.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            fresh.degrees = np.zeros((9, 2), dtype=np.int64)

    def test_graded_lex_order_n2(self):
        basis = enumerate_basis(2, 3)
        expected_prefix = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
        assert basis.indices[:5] == expected_prefix
        assert basis.size == 9

    def test_n2_d1_listing(self):
        assert enumerate_basis(2, 1).indices == [(1, 0), (0, 1)]

    def test_no_duplicates_no_constant(self):
        basis = enumerate_basis(3, 5)
        idx = basis.indices
        assert len(set(idx)) == len(idx)
        assert all(1 <= sum(ix) <= 5 for ix in idx)

    def test_even_degree_rejected(self):
        with pytest.raises(ValueError):
            enumerate_basis(2, 2)

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            enumerate_basis(0, 3)
        with pytest.raises(ValueError):
            enumerate_basis(2, 0)
        with pytest.raises(ValueError):
            enumerate_basis(2, -1)


class TestGradedRank:
    def test_ranks_follow_the_basis_order(self):
        for n in (1, 2, 3, 5, 12):
            for d in (1, 3, 7):
                basis = enumerate_basis(n, d)
                assert np.array_equal(graded_rank(basis.degrees), np.arange(1, basis.size + 1))

    def test_constant_and_cross_degree_rows(self):
        # rank does not depend on the basis degree a row is looked up in
        rows = np.array([[0, 0, 0], [0, 0, 1], [2, 2, 2], [0, 0, 6]])
        full = graded_indices(3, 6)
        assert graded_rank(rows).tolist() == [full.index(tuple(r)) for r in rows.tolist()]
        assert graded_rank(np.zeros((0, 3), dtype=int)).shape == (0,)

    @pytest.mark.parametrize("row", [[-1, 2], [0, -1]])
    def test_negative_exponent_refused(self, row):
        # summed unchecked, these rows get the ranks of x1^2 and x1
        with pytest.raises(ValueError, match="nonnegative"):
            graded_rank([row])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(1, 20), rows=st.integers(1, 6))
    def test_support_rank_is_the_rank_of_the_dense_row(self, data, n, rows):
        # 0-3 listed positions, or all n; a listed exponent may be 0
        s = n if data.draw(st.booleans()) else data.draw(st.integers(0, min(3, n)))
        support = st.sets(st.integers(0, n - 1), min_size=s, max_size=s).map(sorted)
        pos = np.array(data.draw(st.lists(support, min_size=rows, max_size=rows)), dtype=np.int64).reshape(rows, s)
        exp = np.array(data.draw(st.lists(st.integers(0, 7), min_size=rows * s, max_size=rows * s)),
                       dtype=np.int64).reshape(rows, s)
        dense = np.zeros((rows, n), dtype=np.int64)
        np.put_along_axis(dense, pos, exp, axis=1)
        # graded_rank's sum in Python integers
        exact = [sum(math.comb(sum(row[j:]) + n - j - 1, n - j) for j in range(n)) for row in dense.tolist()]
        if max(exact) > np.iinfo(np.int64).max:
            for rank in (lambda: support_rank(n, pos, exp), lambda: graded_rank(dense)):
                with pytest.raises(OverflowError):
                    rank()
        else:
            assert support_rank(n, pos, exp).tolist() == graded_rank(dense).tolist() == exact

    def test_support_rank_of_the_constant_and_of_overflowing_rows(self):
        assert support_rank(4, np.zeros((2, 0)), np.zeros((2, 0))).tolist() == [0, 0]
        assert support_rank(4, [[0, 3]], [[0, 0]]).tolist() == [0]
        assert support_rank(4, np.zeros((0, 2)), np.zeros((0, 2))).shape == (0,)
        # x1^64 in 20 variables ranks at C(83, 20) < 2^63, although the read C(84, 20) is past it
        first = np.zeros((1, 20), dtype=np.int64)
        first[0, 0] = 64
        assert support_rank(20, [[0]], [[64]]).tolist() == graded_rank(first).tolist() == [math.comb(83, 20)]
        # x1^40 in 40 variables ranks past C(79, 40) > 2^63
        big = np.zeros((1, 40), dtype=np.int64)
        big[0, 0] = 40
        for rank in (lambda: graded_rank(big), lambda: support_rank(40, [[0]], [[40]])):
            with pytest.raises(OverflowError):
                rank()
        # x20^64 in 20 variables ranks at 10,735,998,891,545,372,444 > 2^63, while every binomial of its sum fits
        last = np.zeros((1, 20), dtype=np.int64)
        last[0, 19] = 64
        for rank in (lambda: graded_rank(last), lambda: support_rank(20, [[19]], [[64]])):
            with pytest.raises(OverflowError):
                rank()

    @pytest.mark.parametrize("pos, exp", [([[1, 1]], [[1, 1]]), ([[2, 1]], [[1, 1]]), ([[0, 4]], [[1, 1]]),
                                          ([[-1, 2]], [[1, 1]]), ([[0, 1]], [[1, -1]]), ([[0, 1]], [[1]])])
    def test_support_rank_refuses_malformed_supports(self, pos, exp):
        with pytest.raises(ValueError):
            support_rank(4, pos, exp)


class TestGradedIndices:
    def test_matches_multiset_reference_up_to_n12_d7(self):
        # a degree-t monomial is a multiset of t variables; combinations with
        # replacement list them leading-heavy first, the graded-lex order
        for n in range(1, 13):
            want = []
            for t in range(8):
                picks = np.array(list(itertools.combinations_with_replacement(range(n), t)))
                want += map(tuple, (picks[:, :, None] == np.arange(n)).sum(axis=1).tolist())
            for d in range(8):
                assert graded_indices(n, d) == want[: math.comb(n + d, d)]
            assert graded_indices(n, 7, min_total=1) == want[1:]
            assert np.array_equal(graded_rank(np.array(want)), np.arange(len(want)))

    def test_empty_range(self):
        assert graded_indices(3, 2, min_total=3) == []


class TestEvaluation:
    def test_powers_of_two(self):
        basis = enumerate_basis(1, 3)
        np.testing.assert_allclose(eval_suffstats(basis, [2.0]), [2.0, 4.0, 8.0])

    def test_linear_stats(self):
        basis = enumerate_basis(2, 1)
        np.testing.assert_allclose(eval_suffstats(basis, [3.0, 4.0]), [3.0, 4.0])

    def test_sign_pattern_degree_two_block(self):
        basis = enumerate_basis(2, 3)
        vals = eval_suffstats(basis, [1.0, -1.0])
        np.testing.assert_allclose(vals[:5], [1.0, -1.0, 1.0, -1.0, 1.0])

    def test_batch_matches_single(self):
        basis = enumerate_basis(3, 3)
        rng = np.random.default_rng(5)
        X = rng.normal(size=(11, 3))
        batch = eval_suffstats(basis, X)
        for i in range(11):
            np.testing.assert_allclose(batch[i], eval_suffstats(basis, X[i]))

    def test_dimension_mismatch(self):
        basis = enumerate_basis(2, 1)
        with pytest.raises(ValueError):
            eval_suffstats(basis, [1.0, 2.0, 3.0])

    def test_jacobian_product_rule_row(self):
        basis = enumerate_basis(2, 3)
        J = eval_jacobian(basis, [3.0, 4.0])
        row = basis.indices.index((1, 1))
        np.testing.assert_allclose(J[row], [4.0, 3.0])

    def test_jacobian_power_rule_row(self):
        basis = enumerate_basis(2, 3)
        J = eval_jacobian(basis, [2.0, 0.0])
        row = basis.indices.index((3, 0))
        np.testing.assert_allclose(J[row], [12.0, 0.0])

    def test_jacobian_constant_for_linear_basis(self):
        basis = enumerate_basis(1, 1)
        for x in (-2.0, 0.0, 1.7):
            np.testing.assert_allclose(eval_jacobian(basis, [x]), [[1.0]])

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        h = 1e-6
        for n in (1, 2, 3):
            for d in (1, 3):
                basis = enumerate_basis(n, d)
                for _ in range(12):
                    x = rng.uniform(-1.5, 1.5, size=n)
                    J = eval_jacobian(basis, x)
                    for i in range(n):
                        e = np.zeros(n)
                        e[i] = h
                        fd = (eval_suffstats(basis, x + e) - eval_suffstats(basis, x - e)) / (2 * h)
                        np.testing.assert_allclose(J[:, i], fd, rtol=1e-6, atol=1e-7)

    def test_laplacian_cubic(self):
        basis = enumerate_basis(1, 3)
        L = eval_laplacian(basis, [2.0])
        assert L[basis.indices.index((3,))] == pytest.approx(12.0)

    def test_laplacian_cross_term_vanishes(self):
        basis = enumerate_basis(2, 3)
        rng = np.random.default_rng(3)
        row = basis.indices.index((1, 1))
        for _ in range(5):
            x = rng.normal(size=2)
            assert eval_laplacian(basis, x)[row] == 0.0

    def test_laplacian_zero_for_linear_basis(self):
        basis = enumerate_basis(2, 1)
        np.testing.assert_array_equal(eval_laplacian(basis, [0.3, -0.7]), [0.0, 0.0])

    def test_laplacian_matches_hessian_trace(self):
        rng = np.random.default_rng(23)
        h = 1e-4
        for n, d in ((1, 3), (2, 3), (3, 3)):
            basis = enumerate_basis(n, d)
            for _ in range(8):
                x = rng.uniform(-1.2, 1.2, size=n)
                lap = eval_laplacian(basis, x)
                trace = np.zeros(basis.size)
                for i in range(n):
                    e = np.zeros(n)
                    e[i] = h
                    trace += (
                        eval_suffstats(basis, x + e)
                        - 2 * eval_suffstats(basis, x)
                        + eval_suffstats(basis, x - e)
                    ) / h**2
                np.testing.assert_allclose(lap, trace, rtol=1e-5, atol=1e-4)

    def test_monomial_lipschitz_on_sup_ball(self):
        # |x^idx(u) - x^idx(v)| <= d R^{d-1} ||u - v||_inf on ||.||_inf <= R
        rng = np.random.default_rng(7)
        for R in (1.0, 2.0, 10.0):
            for _ in range(40):
                n = int(rng.integers(1, 4))
                d = int(rng.choice([1, 3, 5]))
                basis = enumerate_basis(n, d)
                u = rng.uniform(-R, R, size=n)
                v = rng.uniform(-R, R, size=n)
                gap = np.abs(eval_suffstats(basis, u) - eval_suffstats(basis, v))
                bound = d * R ** (d - 1) * np.max(np.abs(u - v))
                assert np.all(gap <= bound * (1 + 1e-12) + 1e-12)


def _full_power_product(X, dmax, degrees):
    """x^degrees[k] as the product over every axis of the power table's entries, 1.0 factors included."""
    P = np.ones((len(X), X.shape[1], dmax + 1))
    for e in range(1, dmax + 1):
        P[:, :, e] = P[:, :, e - 1] * X
    vals = P[:, 0, degrees[:, 0]]
    for i in range(1, degrees.shape[1]):
        vals *= P[:, i, degrees[:, i]]
    return vals


class TestPolyCoeffs:
    def test_zero_coefficients_dropped(self):
        f = PolyCoeffs.make(2, {(1, 0): 0.0, (0, 1): 2.0})
        assert (1, 0) not in f.terms
        assert f.terms == {(0, 1): 2.0}

    def test_degree_of_zero_poly(self):
        assert PolyCoeffs.zero(3).degree == 0

    def test_arithmetic_agrees_with_pointwise(self):
        rng = np.random.default_rng(11)
        idx_pool = graded_indices(2, 3)
        for _ in range(10):
            pick = rng.choice(len(idx_pool), size=4, replace=False)
            f = PolyCoeffs.make(2, {idx_pool[i]: rng.normal() for i in pick})
            pick = rng.choice(len(idx_pool), size=4, replace=False)
            g = PolyCoeffs.make(2, {idx_pool[i]: rng.normal() for i in pick})
            X = rng.normal(size=(7, 2))
            np.testing.assert_allclose((f + g).evaluate(X), f.evaluate(X) + g.evaluate(X))
            np.testing.assert_allclose(
                (f * g).evaluate(X), f.evaluate(X) * g.evaluate(X), rtol=1e-12, atol=1e-12
            )
            np.testing.assert_allclose(
                f.power(3).evaluate(X), f.evaluate(X) ** 3, rtol=1e-11, atol=1e-11
            )
            np.testing.assert_allclose((-2.5 * f).evaluate(X), -2.5 * f.evaluate(X))

    @pytest.mark.parametrize("N", [1, 4, 12, 1000])
    def test_gathers_only_the_support(self, N):
        # the n = 12 CNF energy's terms touch at most 3 variables: 3 gathers
        # instead of 12, with the bits of the full power-table product
        from polyscore.hardness import encode, random_formula

        f = encode(random_formula(12, 60, seed=3), 1.0, 2.0).energy
        dmax, cols = f._gather
        assert len(cols) == 3 and dmax == 4
        X = np.random.default_rng(N).uniform(-2.0, 2.0, (N, 12))
        # row-major like the gathers' product: the matvec's rounding follows the layout
        want = np.ascontiguousarray(_full_power_product(X, dmax, f.degrees)) @ f.coeffs
        assert np.array_equal(f(X), want)

    @pytest.mark.parametrize("stacked", [False, True])
    def test_call_is_the_whole_batch_product(self, stacked):
        # every batch is one product: each row rounds as in one row-major
        # product over the whole batch, whatever N and the BLAS thread count
        from polyscore.hardness import encode, random_formula

        f = encode(random_formula(12, 60, seed=3), 1.0, 2.0).energy
        F = PolyCoeffs.stack([f, f.partial(0), f.partial(7)]) if stacked else f
        dmax, _ = F._gather
        rng = np.random.default_rng(96)
        for N in (95, 96, 97, 193, 293, 20000):
            X = rng.uniform(-2.0, 2.0, (N, 12))
            want = np.ascontiguousarray(_full_power_product(X, dmax, F.degrees)) @ F.coeffs
            got = F(X)
            assert got.shape == want.shape and np.array_equal(got, want)

    def test_stacked_density_and_score_are_the_whole_batch_product(self):
        # the [log p | score] table of a (3, 5) member at 20,000 points
        p = random_params(3, 5, 1.0, 0)
        X = np.random.default_rng(0).uniform(-1.0, 1.0, (20000, 3))
        vals, S = log_unnormalized_density(p, X, with_score=True)
        want = p._terms._monomials(X) @ p._terms.coeffs
        assert np.array_equal(vals, want[:, 0]) and np.array_equal(S, want[:, 1:])

    @pytest.mark.parametrize("width", [None, 2])
    def test_canonical_input_skips_the_sort(self, width, monkeypatch):
        # rows in strictly increasing graded rank: no np.unique, and the same
        # object as the sorting path on the reversed rows, -0.0 made 0.0
        rows = np.vstack([np.zeros((1, 2), dtype=np.int64), enumerate_basis(2, 3).degrees])
        c = np.array([1.5, 0.0, -2.0, -0.0, 3.0, 0.25, 0.0, -1.0, 4.0, 0.5])
        c2 = np.array([0.0, 0.0, 1.0, -0.0, 0.0, 2.0, -0.0, -0.0, 0.0, 1.0])
        coeffs = c if width is None else np.stack([c, c2], axis=1)  # row 7 keeps a -0.0
        slow = PolyCoeffs.from_arrays(2, rows[::-1], coeffs[::-1])

        def no_sort(*args, **kwargs):
            raise AssertionError("canonical input was sorted")

        monkeypatch.setattr(np, "unique", no_sort)
        fast = PolyCoeffs.from_arrays(2, rows, coeffs)
        monkeypatch.undo()
        assert fast == slow
        assert fast.degrees.tobytes() == slow.degrees.tobytes()
        assert fast.coeffs.tobytes() == slow.coeffs.tobytes()
        assert fast.coeffs.shape[1:] == coeffs.shape[1:]
        assert not np.signbit(fast.coeffs[fast.coeffs == 0.0]).any()
        assert np.all((fast.coeffs != 0.0).reshape(len(fast.degrees), -1).any(axis=1))
        assert len(fast.degrees) == 7
        assert not fast.degrees.flags.writeable and not fast.coeffs.flags.writeable
        assert not np.shares_memory(fast.degrees, rows) and not np.shares_memory(fast.coeffs, coeffs)

    def test_unsorted_and_repeated_rows_are_still_summed(self):
        f = PolyCoeffs.from_arrays(2, [[1, 0], [0, 1], [1, 0], [0, 0]], [1.0, 2.0, 3.0, 4.0])
        assert f.degrees.tolist() == [[0, 0], [1, 0], [0, 1]] and f.coeffs.tolist() == [4.0, 4.0, 2.0]
        # sorted but repeated: ranks only weakly increase, so the rows are summed
        g = PolyCoeffs.from_arrays(2, [[0, 0], [1, 0], [1, 0], [0, 1]], [1.0, 2.0, -2.0, 5.0])
        assert g.degrees.tolist() == [[0, 0], [0, 1]] and g.coeffs.tolist() == [1.0, 5.0]

    def test_json_round_trip(self):
        f = PolyCoeffs.make(3, {(2, 0, 1): -0.75, (0, 0, 0): 3.0, (1, 1, 1): 1e-3})
        g = poly_from_json(poly_to_json(f))
        assert g.n == f.n
        assert g.terms == f.terms

    def test_format_monomial(self):
        assert format_monomial((2, 0, 1)) == "x1^2*x3"
        assert format_monomial((0, 0)) == "1"
        assert format_monomial((1,)) == "x1"


@st.composite
def _raw_terms(draw, n=None, width=None):
    """(n, rows, coeffs): up to 12 rows with exponents 0..4, repeats and zeros likely."""
    n = draw(st.integers(1, 4)) if n is None else n
    distinct = draw(st.lists(st.lists(st.integers(0, 4), min_size=n, max_size=n), min_size=1, max_size=12))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), max_size=12))
    coef = st.one_of(st.just(0.0), st.floats(-3.0, 3.0, allow_nan=False))
    shape = (len(picks),) if width is None else (len(picks), width)
    coeffs = np.array(draw(st.lists(coef, min_size=int(np.prod(shape)), max_size=int(np.prod(shape)))))
    rows = np.array([distinct[i] for i in picks], dtype=np.int64).reshape(len(picks), n)
    return n, rows, coeffs.reshape(shape)


def _points(n, seed):
    return np.random.default_rng(seed).uniform(-1.5, 1.5, (6, n))


def _abs_terms(f, X):
    """sum_k |c_k x^a_k| at each row of X: the scale of f's rounding error."""
    return PolyCoeffs.from_arrays(f.n, f.degrees, np.abs(f.coeffs))(np.abs(X))


class TestPolyCoeffsProperties:
    """The array-backed sparse polynomial against pointwise definitions."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(1, 3), seed=st.integers(0, 2**31 - 1))
    def test_partial_obeys_the_product_rule_and_differences(self, n, seed):
        rng = np.random.default_rng(seed)

        def integer_poly():
            k = int(rng.integers(0, 6))
            return PolyCoeffs.from_arrays(n, rng.integers(0, 4, (k, n)), rng.integers(-5, 6, k).astype(float))

        f, g, i = integer_poly(), integer_poly(), int(rng.integers(n))
        # integer coefficients keep both sides exact
        assert (f * g).partial(i) == f.partial(i) * g + f * g.partial(i)
        # the columns of a stack differentiate independently
        assert PolyCoeffs.stack([f, g]).partial(i) == PolyCoeffs.stack([f.partial(i), g.partial(i)])
        # central differences, to the scale of the terms near x
        X, h = rng.uniform(-1.5, 1.5, (5, n)), 1e-5
        e = h * np.eye(n)[i]
        fd = (f(X + e) - f(X - e)) / (2 * h)
        assert np.all(np.abs(f.partial(i)(X) - fd) <= 1e-6 * (1.0 + _abs_terms(f, np.abs(X) + h)))

    def test_stack_keeps_each_column(self):
        f = PolyCoeffs.make(2, {(1, 0): 2.0, (0, 3): -1.0})
        g = PolyCoeffs.make(2, {(1, 0): 5.0, (2, 2): 0.5})
        s = PolyCoeffs.stack([f, PolyCoeffs.stack([g, f])])
        assert s.coeffs.shape == (3, 3)
        for col, h in enumerate((f, g, f)):
            assert PolyCoeffs.from_arrays(2, s.degrees, s.coeffs[:, col]) == h
        X = np.random.default_rng(0).normal(size=(4, 2))
        np.testing.assert_allclose(s(X), np.column_stack([f(X), g(X), f(X)]), rtol=1e-14)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(raw=_raw_terms(), seed=st.integers(0, 2**31 - 1))
    def test_by_axis_splits_into_constant_lines_and_mixed(self, raw, seed):
        f = PolyCoeffs.from_arrays(*raw)
        const, lines, mixed = f.by_axis
        assert lines.shape == (f.n, int(f.degrees.max(initial=0)) + 1) and np.all(lines[:, 0] == 0.0)
        assert np.all(np.count_nonzero(mixed.degrees, axis=1) >= 2)
        assert (const != 0.0) + np.count_nonzero(lines) + len(mixed.degrees) == len(f.degrees)
        assert mixed == PolyCoeffs.from_arrays(f.n, mixed.degrees, mixed.coeffs)
        assert not (lines.flags.writeable or mixed.degrees.flags.writeable or mixed.coeffs.flags.writeable)
        X = _points(f.n, seed)
        pure = sum(np.vander(X[:, i], lines.shape[1], increasing=True) @ lines[i] for i in range(f.n))
        assert np.all(np.abs(const + pure + mixed(X) - f(X)) <= 1e-12 * _abs_terms(f, X))

    def test_by_axis_example(self):
        f = PolyCoeffs.make(2, {(0, 0): 3.0, (1, 0): 2.0, (0, 3): -1.0, (1, 1): 0.5, (2, 1): 4.0})
        const, lines, mixed = f.by_axis
        assert const == 3.0
        assert np.array_equal(lines, [[0.0, 2.0, 0.0, 0.0], [0.0, 0.0, 0.0, -1.0]])
        assert mixed.terms == {(1, 1): 0.5, (2, 1): 4.0}

    @pytest.mark.parametrize("n, d", [(1, 3), (2, 1), (2, 5), (3, 3), (4, 3)])
    def test_log_density_and_mixed_are_canonical(self, n, d):
        # both are built from row subsets without from_arrays
        rng = np.random.default_rng(10 * n + d)
        basis = enumerate_basis(n, d)
        theta = np.where(rng.random(basis.size) < 0.3, 0.0, rng.uniform(-1.0, 1.0, basis.size))
        f = ParamVector(basis, theta, 1.0).log_density
        for g in (f, f.by_axis[2]):
            assert g == PolyCoeffs.from_arrays(n, g.degrees, g.coeffs)

    def test_by_axis_refuses_several_columns(self):
        F = PolyCoeffs.stack([PolyCoeffs.make(2, {(1, 1): 1.0}), PolyCoeffs.make(2, {(2, 0): 1.0})])
        with pytest.raises(ValueError, match="need one polynomial"):
            F.by_axis

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(raw=_raw_terms(), seed=st.integers(0, 2**31 - 1))
    def test_canonical_form(self, raw, seed):
        n, rows, coeffs = raw
        f = PolyCoeffs.from_arrays(n, rows, coeffs)
        assert np.all(np.diff(graded_rank(f.degrees)) > 0)
        assert np.all(f.coeffs != 0.0)
        assert not f.degrees.flags.writeable and not f.coeffs.flags.writeable
        assert PolyCoeffs.make(n, f.terms) == f
        X = _points(n, seed)
        want = np.prod(X[:, None, :] ** rows[None], axis=2) @ coeffs
        scale = np.prod(np.abs(X[:, None, :]) ** rows[None], axis=2) @ np.abs(coeffs)
        assert np.all(np.abs(f.evaluate(X) - want) <= 1e-12 * scale)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), k=st.integers(0, 3), seed=st.integers(0, 2**31 - 1))
    def test_ring_operations_pointwise(self, data, k, seed):
        n, rows, coeffs = data.draw(_raw_terms())
        f = PolyCoeffs.from_arrays(n, rows, coeffs)
        g = PolyCoeffs.from_arrays(*data.draw(_raw_terms(n=n)))
        X = _points(n, seed)
        fx, gx, af, ag = f(X), g(X), _abs_terms(f, X), _abs_terms(g, X)
        assert np.all(np.abs((f + g)(X) - (fx + gx)) <= 1e-12 * (af + ag))
        assert np.all(np.abs((f - g)(X) - (fx - gx)) <= 1e-12 * (af + ag))
        assert np.all(np.abs((f * g)(X) - fx * gx) <= 1e-12 * af * ag)
        assert np.array_equal((-f)(X), -fx)
        assert np.all(np.abs((2.5 * f)(X) - 2.5 * fx) <= 1e-12 * 2.5 * af)
        assert np.all(np.abs(f.power(k)(X) - fx**k) <= 1e-12 * af**k)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(raw=_raw_terms(), seed=st.integers(0, 2**31 - 1))
    def test_single_point_matches_batch_row(self, raw, seed):
        f = PolyCoeffs.from_arrays(*raw)
        X = _points(f.n, seed)
        batch, scale = f.evaluate(X), _abs_terms(f, X)
        for j in range(len(X)):
            single = f.evaluate(X[j])
            assert isinstance(single, float)
            assert abs(single - batch[j]) <= 1e-12 * scale[j]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_l2_cube_inner_matches_pairwise_sum(self, data):
        n, rows, coeffs = data.draw(_raw_terms())
        f = PolyCoeffs.from_arrays(n, rows, coeffs)
        g = PolyCoeffs.from_arrays(*data.draw(_raw_terms(n=n)))
        want, scale = 0.0, 0.0
        for ia, ca in f.terms.items():
            for ib, cb in g.terms.items():
                prod = ca * cb
                for a, b in zip(ia, ib):
                    prod = 0.0 if (a + b) % 2 else prod / (a + b + 1)
                want += prod
                scale += abs(prod)
        assert abs(l2_cube_inner(f, g) - want) <= 1e-12 * scale

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_stored_rank_is_graded_rank(self, data):
        n, rows, coeffs = data.draw(_raw_terms())
        f = PolyCoeffs.from_arrays(n, rows, coeffs)
        g = PolyCoeffs.from_arrays(*data.draw(_raw_terms(n=n)))
        bare = PolyCoeffs(n, f.degrees, f.coeffs)
        assert "rank" not in bare.__dict__  # computed on first read
        made = [f, g, f + g, f - g, -f, 2.5 * f, 0.0 * f, f * g, f.partial(data.draw(st.integers(0, n - 1))),
                PolyCoeffs.stack([f, g]), PolyCoeffs.stack([f]), bare]
        for h in made:
            assert h.rank.dtype == np.int64 and not h.rank.flags.writeable
            assert np.array_equal(h.rank, graded_rank(h.degrees))
            assert h.rank is h.rank
        # sums, multiples and stacks placed by the stored ranks are the ones ranking afresh gives
        assert f + g == PolyCoeffs.from_arrays(n, np.vstack([f.degrees, g.degrees]), np.concatenate([f.coeffs, g.coeffs]))
        assert bare + g == f + g
        assert 2.5 * f == PolyCoeffs.from_arrays(n, f.degrees, 2.5 * f.coeffs)
        table = np.zeros((len(f.degrees) + len(g.degrees), 2))
        table[: len(f.degrees), 0], table[len(f.degrees) :, 1] = f.coeffs, g.coeffs
        assert PolyCoeffs.stack([f, g]) == PolyCoeffs.from_arrays(n, np.vstack([f.degrees, g.degrees]), table)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), seed=st.integers(0, 2**31 - 1))
    def test_shared_rows_match_scalar_columns(self, data, seed):
        width = data.draw(st.integers(1, 3))
        n, rows, coeffs = data.draw(_raw_terms(width=width))
        F = PolyCoeffs.from_arrays(n, rows, coeffs)
        assert F.coeffs.shape == (len(F.degrees), width)
        assert np.all((F.coeffs != 0.0).any(axis=1))
        X = _points(n, seed)
        vals, single = F(X), F.evaluate(X[0])
        assert vals.shape == (len(X), width) and single.shape == (width,)
        for j in range(width):
            f = PolyCoeffs.from_arrays(n, rows, coeffs[:, j])
            scale = _abs_terms(f, X)
            assert np.all(np.abs(vals[:, j] - f(X)) <= 1e-12 * scale)
            assert abs(single[j] - f.evaluate(X[0])) <= 1e-12 * scale[0]


class TestNorms:
    def test_monomial_norm_three_four_five(self):
        f = PolyCoeffs.make(2, {(1, 0): 3.0, (0, 1): 4.0})
        assert monomial_norm(f) == pytest.approx(5.0)

    def test_monomial_norm_zero(self):
        assert monomial_norm(PolyCoeffs.zero(2)) == 0.0

    def test_monomial_norm_unit_pair(self):
        f = PolyCoeffs.make(2, {(2, 1): 1.0, (0, 1): -1.0})
        assert monomial_norm(f) == pytest.approx(math.sqrt(2))

    def test_l2_cube_norm_linear(self):
        f = PolyCoeffs.make(1, {(1,): 1.0})
        assert l2_cube_norm(f) == pytest.approx(math.sqrt(1.0 / 3.0))

    def test_l2_cube_norm_constant(self):
        assert l2_cube_norm(PolyCoeffs.constant(2, 1.0)) == pytest.approx(1.0)

    def test_l2_cube_norm_cross_term(self):
        f = PolyCoeffs.make(2, {(1, 1): 1.0})
        assert l2_cube_norm(f) == pytest.approx(1.0 / 3.0)

    def test_inner_product_matches_quadrature(self):
        # independent oracle: tensor Gauss-Legendre, exact for these degrees
        rng = np.random.default_rng(29)
        nodes, weights = np.polynomial.legendre.leggauss(10)
        idx_pool = graded_indices(2, 4)
        for _ in range(10):
            pick = rng.choice(len(idx_pool), size=5, replace=False)
            f = PolyCoeffs.make(2, {idx_pool[i]: rng.normal() for i in pick})
            pick = rng.choice(len(idx_pool), size=5, replace=False)
            g = PolyCoeffs.make(2, {idx_pool[i]: rng.normal() for i in pick})
            X1, X2 = np.meshgrid(nodes, nodes, indexing="ij")
            P = np.column_stack([X1.ravel(), X2.ravel()])
            W = np.outer(weights, weights).ravel() / 4.0  # uniform probability
            quad = float(W @ (f.evaluate(P) * g.evaluate(P)))
            assert l2_cube_inner(f, g) == pytest.approx(quad, rel=1e-12, abs=1e-12)


class TestLegendre:
    def test_low_degrees_match_closed_forms(self):
        assert legendre_1d(0).terms == {(0,): 1.0}
        assert legendre_1d(1).terms == {(1,): 1.0}
        L2 = legendre_1d(2)
        assert L2.terms[(2,)] == pytest.approx(1.5)
        assert L2.terms[(0,)] == pytest.approx(-0.5)

    def test_matches_numpy_legendre_coefficients(self):
        for k in range(8):
            ours = legendre_1d(k)
            coeffs = np.zeros(k + 1)
            coeffs[k] = 1.0
            ref = np.polynomial.legendre.leg2poly(coeffs)
            for e, c in enumerate(ref):
                assert ours.terms.get((e,), 0.0) == pytest.approx(c, rel=1e-12, abs=1e-12)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            legendre_1d(-1)

    def test_uniform_orthonormality_univariate(self):
        polys = [legendre_1d(k, normalization="uniform") for k in range(8)]
        for j in range(8):
            for k in range(8):
                want = 1.0 if j == k else 0.0
                assert l2_cube_inner(polys[j], polys[k]) == pytest.approx(want, abs=1e-10)

    def test_uniform_orthonormality_tensor(self):
        idx = legendre_indices(2, 3)
        polys = [legendre_tensor(ix) for ix in idx]
        gram = np.array([[l2_cube_inner(p, q) for q in polys] for p in polys])
        np.testing.assert_allclose(gram, np.eye(len(idx)), atol=1e-10)

    def test_to_legendre_constant(self):
        b = to_legendre(PolyCoeffs.constant(2, 1.0), d=2)
        assert b[0] == pytest.approx(1.0)
        np.testing.assert_allclose(b[1:], 0.0, atol=1e-14)

    def test_to_legendre_linear(self):
        b = to_legendre(PolyCoeffs.make(1, {(1,): 1.0}), d=1)
        np.testing.assert_allclose(b, [0.0, 1.0 / math.sqrt(3)], atol=1e-14)

    def test_parseval_identity(self):
        rng = np.random.default_rng(31)
        idx_pool = graded_indices(2, 3)
        for _ in range(10):
            f = PolyCoeffs.make(2, {ix: rng.uniform(-1, 1) for ix in idx_pool})
            b = to_legendre(f, d=3)
            assert float(b @ b) == pytest.approx(l2_cube_norm(f) ** 2, abs=1e-10)

    def test_round_trip(self):
        rng = np.random.default_rng(37)
        for n, d in ((1, 5), (2, 4), (3, 3), (1, 7)):
            idx_pool = graded_indices(n, d)
            f = PolyCoeffs.make(n, {ix: rng.uniform(-1, 1) for ix in idx_pool})
            g = from_legendre(to_legendre(f, d=d), n, d)
            for ix in idx_pool:
                assert g.terms.get(ix, 0.0) == pytest.approx(f.terms.get(ix, 0.0), abs=1e-9)

    def test_degree_overflow_rejected(self):
        f = PolyCoeffs.make(1, {(3,): 1.0})
        with pytest.raises(ValueError):
            to_legendre(f, d=2)


class TestMonL2Bound:
    def test_linear_example(self):
        f = PolyCoeffs.make(1, {(1,): 1.0})
        report = check_mon_l2_bound(f, n=1, d=1)
        assert report.lhs == pytest.approx(1.0)
        assert report.rhs == pytest.approx(2 * 4 * math.e / 3.0)
        assert report.holds

    def test_zero_polynomial(self):
        assert check_mon_l2_bound(PolyCoeffs.zero(2), n=2, d=3).holds

    def test_random_polynomials(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            n = int(rng.integers(1, 4))
            d = int(rng.integers(1, 6))
            idx_pool = graded_indices(n, d)
            f = PolyCoeffs.make(n, {ix: rng.uniform(-1, 1) for ix in idx_pool})
            assert check_mon_l2_bound(f, n, d).holds

    def test_extremal_ratio_stays_below_bound(self):
        # The worst case over all f is 1/lambda_min of the cube moment Gram
        # of the monomials; verify that even the extremizer satisfies the
        # bound, which subsumes every randomized trial.
        def moment(k):
            return 0.0 if k % 2 else 1.0 / (k + 1)

        for n in (1, 2, 3):
            for d in (1, 2, 3, 4, 5):
                idx = graded_indices(n, d)
                K = len(idx)
                gram = np.empty((K, K))
                for a in range(K):
                    for b in range(K):
                        gram[a, b] = math.prod(
                            moment(idx[a][i] + idx[b][i]) for i in range(n)
                        )
                vals, vecs = np.linalg.eigh(gram)
                bound = math.comb(n + d, d) * (4 * math.e) ** d
                assert 1.0 / vals[0] <= bound
                f = PolyCoeffs.make(n, dict(zip(idx, vecs[:, 0])))
                assert check_mon_l2_bound(f, n, d).holds


# ---------------------------------------------------------------------------
# family statistics gathered from the moment matrix S = E[U U^t]


def _pointwise_stats(basis, X):
    """Every FamilyStats field by its per-point definition."""
    d = basis.d
    T = eval_suffstats(basis, X)
    J = eval_jacobian(basis, X)
    L = eval_laplacian(basis, X)
    grad_log_h = -(d + 1) * X**d
    lap_log_h = -(d + 1) * d * np.sum(X ** (d - 1), axis=1)
    return {
        "mean_T": T.mean(axis=0),
        "second_T": T.T @ T / len(X),
        "gram": np.einsum("ski,sli->kl", J, J) / len(X),
        "sm_linear": (L + np.einsum("ski,si->sk", J, grad_log_h)).mean(axis=0),
        "sm_const": float(np.mean(lap_log_h + 0.5 * np.sum(grad_log_h**2, axis=1))),
        "mean_log_h": float(np.mean(-np.sum(X ** (d + 1), axis=1))),
        "lap_sq": float(np.mean(np.sum(L * L, axis=1))),
    }


def _rel_err(got, want, scale=None) -> float:
    """Largest error relative to the largest entry of want (or of scale)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    ref = want if scale is None else np.asarray(scale, dtype=float)
    return float(np.max(np.abs(got - want))) / max(float(np.max(np.abs(ref))), 1e-300)


class TestFamilyStats:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 5),
        d=st.sampled_from([1, 3]),
        N=st.integers(1, 40),
        scale=st.floats(0.1, 2.0),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_gathers_match_pointwise_definitions(self, n, d, N, scale, seed):
        basis = enumerate_basis(n, d)
        rng = np.random.default_rng(seed)
        X = rng.normal(scale=scale, size=(N, n))
        theta = rng.uniform(-1.0, 1.0, basis.size)
        got = sample_stats(basis, X)
        want = _pointwise_stats(basis, X)
        for name, ref in want.items():
            assert _rel_err(getattr(got, name), ref) <= 1e-12, name
        # Hyvarinen's loss is quadratic in theta: c + b.theta + theta^t G theta / 2
        p = ParamVector(basis, theta, 1.0)
        s = SampleSet(n=n, N=N, data=X, seed=0)
        lap_log_p = -(d + 1) * d * np.sum(X ** (d - 1), axis=1) + eval_laplacian(basis, X) @ theta
        direct = float(np.mean(lap_log_p + 0.5 * np.sum(score(p, X) ** 2, axis=1)))
        assert _rel_err(sm_loss(p, s), direct) <= 1e-12
        # the covariance cancels to 0 at N = 1: measure it against E[T T^t]
        cov = want["second_T"] - np.outer(want["mean_T"], want["mean_T"])
        assert _rel_err(fisher_info(p, s), cov, scale=want["second_T"]) <= 1e-12
        assert _rel_err(gram_matrix(p, s), want["gram"]) <= 1e-12
        assert _rel_err(sm_moment_inputs(p, s)["E_dT2"], want["lap_sq"]) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_gathers_are_exactly_symmetric(self, n):
        # entries (k, l) and (l, k) gather the same terms in the same order,
        # and E[T] E[T]^t is an outer product, so no symmetrization is needed
        X = np.random.default_rng(n).normal(scale=0.8, size=(50, n))
        stats = [sample_stats(enumerate_basis(n, d), X) for d in (1, 3, 5)]
        if n <= 3:
            grid = build_grid(n, 4.0, {1: 48, 2: 24, 3: 12}[n])
            stats += [moments(random_params(n, d, 1.0, seed=n), grid) for d in (1, 3)]
        for got in stats:
            for M in (got.second_T, got.gram, got.fisher):
                assert np.array_equal(M, M.T)

    def test_row_blocks_cover_every_row_once(self):
        # at n = 5, d = 3 a block of degree-6 monomials holds 2269 rows
        basis = enumerate_basis(5, 3)
        X = np.random.default_rng(2).normal(scale=0.7, size=(5000, 5))
        got = sample_stats(basis, X)
        for name, ref in _pointwise_stats(basis, X).items():
            assert _rel_err(getattr(got, name), ref) <= 1e-12, name

    @pytest.mark.parametrize(
        "total, width",
        [(0, 16), (1000, 16), ((1 << 16) - 1, 16), (3 * (1 << 16) + 5, 16), (7, 1 << 21)],
    )
    def test_row_blocks_partition_in_order(self, total, width):
        blocks = list(row_blocks(total, width))
        assert [i for b in blocks for i in range(total)[b]] == list(range(total))
        assert all(b.stop - b.start == max(1, (1 << 20) // width) for b in blocks[:-1])
        assert all(0 < b.stop - b.start <= max(1, (1 << 20) // width) for b in blocks)

    def test_gaussian_hand_values(self):
        # n = 1, d = 1 under N(0, 1/2): U = (1, x), S = [[1, E x], [E x, E x^2]];
        # G = 1, b = -2 E[x] = 0, c = -2 + 2 E[x^2] = -1, E[log h] = -1/2, E|Lap T|^2 = 0
        basis = enumerate_basis(1, 1)
        st_ = family_stats(basis, np.array([[1.0, 0.0], [0.0, 0.5]]))
        assert st_.second_T[0, 0] == 0.5 and st_.gram[0, 0] == 1.0
        assert st_.sm_linear[0] == 0.0 and st_.sm_const == -1.0
        assert st_.mean_log_h == -0.5 and st_.lap_sq == 0.0
        assert st_.fisher[0, 0] == 0.5

    def test_plan_build_peaks_at_a_few_plans(self):
        # the plan ranks only the n shifted copies of the basis; ranking the (M^2, n)
        # exponent arrays of every pair peaked at about 84 times the plan's bytes at (14, 3)
        enumerate_basis(14, 3).degrees
        _stats_plan.cache_clear()
        tracemalloc.start()
        try:
            plan = _stats_plan(14, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            _stats_plan.cache_clear()
        assert len(plan[0]) == 665_462
        assert peak <= 4 * sum(a.nbytes for a in plan)

    def test_wrong_length_moment_vector_rejected(self):
        with pytest.raises(ValueError, match="do not fit"):
            family_stats(enumerate_basis(2, 3), np.ones((5, 5)))

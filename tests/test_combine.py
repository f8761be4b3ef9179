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


def masked_interpolate_reference(levels, values_lex, points):
    """Interpolant with a per-corner interior mask and no boundary padding."""
    levels = grid.as_levels(levels)
    d = len(levels)
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    m = pts.shape[0]
    cells = np.empty((m, d), dtype=np.int64)
    fracs = np.empty((m, d))
    for j, l in enumerate(levels):
        t = pts[:, j] * (1 << l)
        c = np.clip(np.floor(t).astype(np.int64), 0, (1 << l) - 1)
        cells[:, j] = c
        fracs[:, j] = t - c
    out = np.zeros(m)
    shape = values_lex.shape
    for corner in range(1 << d):
        bits = [(corner >> j) & 1 for j in range(d)]
        weight = np.ones(m)
        node = np.empty((m, d), dtype=np.int64)
        for j in range(d):
            weight *= fracs[:, j] if bits[j] else 1.0 - fracs[:, j]
            node[:, j] = cells[:, j] + bits[j]
        interior = np.ones(m, dtype=bool)
        for j, l in enumerate(levels):
            interior &= (node[:, j] >= 1) & (node[:, j] <= (1 << l) - 1)
        if not interior.any():
            continue
        flat = np.ravel_multi_index(
            [node[interior, j] - 1 for j in range(d)], shape)
        out[interior] += weight[interior] * values_lex.reshape(-1)[flat]
    return out


class TestInterpolation:
    @pytest.mark.parametrize("levels", [
        (1,), (3,), (20,), (2, 5), (3, 2, 4), (2, 2, 2, 3), (1, 1, 1, 4),
        (2,) * 6])
    def test_bitwise_equal_to_masked_reference(self, levels):
        d = len(levels)
        rng = np.random.default_rng(len(levels) + sum(levels))
        vals = rng.standard_normal(grid.interior_shape(levels))
        fine = max(levels)
        aligned = rng.integers(0, (1 << fine) + 1, size=(3000, d)) / 2.0**fine
        aligned[:d, :] = np.eye(d)  # the faces x_j = 1 ...
        aligned[d:2 * d, :] = 1.0 - np.eye(d)  # ... and x_j = 0
        for pts in (rng.uniform(size=(3000, d)), aligned,
                    rng.uniform(size=(1, d))):
            got = combine.multilinear_interpolate(levels, vals, pts)
            want = masked_interpolate_reference(levels, vals, pts)
            assert got.tobytes() == want.tobytes()

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

    @pytest.mark.parametrize("vals", [np.ones((5, 5)), np.ones(9)],
                             ids=["wrong-shape", "flat"])
    def test_bad_value_shape_raises(self, vals):
        pts = [[0.5, 0.5], [0.25, 0.75]]
        with pytest.raises(ValueError, match=r"levels \(2, 2\)"):
            combine.multilinear_interpolate((2, 2), vals, pts)
        with pytest.raises(ValueError, match=r"levels \(2, 2\)"):
            combine.CombinedSolution([(1, (2, 2), vals)])


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

    def test_bitwise_equal_to_masked_reference_sum(self):
        plan = combine.enumerate_plan(3, 5)
        rng = np.random.default_rng(3)
        terms = [(coeff, lv, rng.standard_normal(grid.interior_shape(lv)))
                 for _, coeff, _, lv in plan.terms()]
        ev = combine.CombinedSolution(terms)
        pts = rng.uniform(size=(500, 3))
        want = np.zeros(500)
        for coeff, lv, vals in terms:
            want += float(coeff) * masked_interpolate_reference(lv, vals, pts)
        for _ in range(2):  # the padded grids are reused, not rebuilt
            assert ev(pts).tobytes() == want.tobytes()

    @pytest.mark.parametrize("levels,pts", [
        ((3,), [[1.5]]), ((3,), [[-0.5]]), ((3,), [[0.5], [np.nan]]),
        ((2, 2), np.full((4, 3), 0.5)), ((2, 2), np.full((4, 1), 0.5))],
        ids=["above-one", "below-zero", "nan", "extra-column",
             "missing-column"])
    def test_rejects_points_it_cannot_evaluate(self, levels, pts):
        ev = combine.CombinedSolution(
            [(1, levels, np.ones(grid.interior_shape(levels)))])
        d = len(levels)
        with pytest.raises(ValueError, match=rf"\(m, {d}\) array with every "
                           r"coordinate finite and in \[0, 1\]"):
            ev(pts)
        # the corners of the closed cube still evaluate (to the boundary 0)
        assert np.array_equal(ev(np.array([[0.0] * d, [1.0] * d])), [0.0, 0.0])

    def test_rejects_terms_of_mixed_dimension(self):
        terms = [(1, lv, np.ones(grid.interior_shape(lv)))
                 for lv in [(2,), (2, 2)]]
        with pytest.raises(ValueError, match=r"terms mix dimensions \[1, 2\]"):
            combine.CombinedSolution(terms)

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

    def test_gamma_clamp_follows_partition_rule(self):
        # 1.5000001 is read as 3/2, so 2*gamma+1 = 4 = P fits exactly
        partial, notes = combine.solve_subproblem((4,), 4, gamma=1.5000001)
        assert notes == [] and partial.report.params["gamma"] == 1.5000001
        partial, notes = combine.solve_subproblem((4,), 4, gamma=2.0)
        assert notes == ["levels=(4,): gamma clamped 2.0 -> 0 (P=4)"]
        assert partial.report.params["gamma"] == 0.0

    def test_solver_failures_aggregated_with_level_vectors(self):
        plan = combine.enumerate_plan(2, 4)
        with pytest.raises(combine.CombinationError) as err:
            # zero iterations cannot converge; every subproblem must fail
            # and the aggregate error names the offending level vectors
            combine.run_combination(plan, seed=7, max_iters=0, method="pcg")
        assert "(1, 4)" in str(err.value) and "(4, 1)" in str(err.value)

    def test_programming_error_keeps_its_traceback(self, monkeypatch):
        def broken_assembly(*args, **kwargs):
            raise AssertionError("a grid was assembled")
        monkeypatch.setattr(grid, "assemble_laplacian", broken_assembly)
        with pytest.raises(AssertionError, match="a grid was assembled"):
            combine.run_combination(combine.enumerate_plan(2, 4))

    @pytest.mark.parametrize("setting,message", [
        (dict(max_iters=2.5), "max_iters must be an integer, got 2.5"),
        (dict(method="bogus"), "unknown method 'bogus'"),
        (dict(tolerance=-1), "tolerance must be finite and positive, got -1"),
        (dict(variant="bogus"), "unknown variant 'bogus'"),
        (dict(weighting="x"), "unknown weighting 'x'"),
        (dict(gamma=-0.5), "gamma must be finite and nonnegative, got -0.5"),
    ])
    def test_bad_setting_fails_before_the_first_grid(self, monkeypatch,
                                                     setting, message):
        def no_assembly(*args, **kwargs):
            raise AssertionError("a grid was assembled")
        monkeypatch.setattr(grid, "assemble_laplacian", no_assembly)
        with pytest.raises(ValueError, match=message):
            combine.run_combination(combine.enumerate_plan(2, 4), **setting)

    def test_each_level_vector_is_ordered_once(self):
        plan = combine.enumerate_plan(5, 6)
        terms = list(plan.terms())
        # more distinct grids than the ordering cache holds
        assert len({levels for *_, levels in terms}) > \
            grid.sfc_permutation.cache_info().maxsize
        grid.sfc_permutation.cache_clear()
        combine.run_combination(plan, seed=7)
        assert grid.sfc_permutation.cache_info().misses == len(terms)


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

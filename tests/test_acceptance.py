"""Acceptance suite; one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.  The expensive
criteria (6a, 6b, 8) dominate; the whole module takes on the order of
15 minutes on one core.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import test_schwarz as schwarz_oracles
from sfcdd import combine, grid, harness, krylov, schwarz, sfc
from sfcdd.coarse import build_coarse
from sfcdd.partition import build_partition, disjoint_partition


def check(num: str, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} - {detail}",
          flush=True)
    assert ok, f"criterion {num}: {detail}"


# the exact iteration counts of criteria 6a, 6b and 8, by case and method
PINNED = json.loads(Path(__file__).with_name("acceptance_counts.json")
                    .read_text(encoding="utf-8"))


def check_pinned(num: str, counts: dict) -> None:
    """Besides its bands, a criterion's counts equal the committed ones.

    A change that moves a count on purpose updates acceptance_counts.json
    and says which cases moved and why.
    """
    pinned = PINNED[num]
    moved = {case: (got, pinned.get(case)) for case, got in counts.items()
             if got != pinned.get(case)}
    check(f"{num} (pinned counts)", counts == pinned,
          f"{len(counts)} cases, moved (now, pinned): {moved}")


def model_runs(levels, p, gamma, q, methods, weighting="omega", seed=42):
    """Zero-solution model solves sharing one operator setup across methods."""
    A = grid.assemble_laplacian(levels)
    n = A.shape[0]
    A_hat, _, _ = grid.symmetrize_diag(A, np.zeros(n))
    part = build_partition(n, p, gamma)
    cs = build_coarse(part, A_hat, q)
    op = schwarz.setup(A_hat, part, cs,
                       schwarz.SchwarzConfig("balanced", weighting))
    x0 = krylov.initial_iterate(n, seed, A_hat)
    zero = np.zeros(n)
    out = {}
    for method in methods:
        cfg = krylov.SolverConfig(
            method=method, tolerance=1e-8,
            tolerance_kind="energy_error_reduction", seed=seed)
        out[method] = krylov.run(A_hat, zero, op, cfg, x0, exact=zero)
    return out


def test_criterion_1_uniform_weights_for_half_integer_gamma():
    grids = {1: (6,), 2: (3, 3), 3: (2, 2, 2)}
    checked = 0
    rejected = 0
    for d, levels in grids.items():
        n = grid.num_dofs(levels)
        for p in (4, 8, 16):
            for gamma in (0.5, 1.0, 1.5, 2.0):
                if 2 * gamma + 1 > p:
                    with pytest.raises(ValueError):
                        build_partition(n, p, gamma)
                    rejected += 1
                    continue
                part = build_partition(n, p, gamma)
                c = int(round(2 * gamma + 1))
                # the weights the operator applies: omega_i per entry, or
                # the D_i back to back
                for weighting in ("omega", "d_matrix"):
                    op = schwarz.setup(
                        grid.assemble_laplacian(levels), part, None,
                        schwarz.SchwarzConfig("one_level", weighting))
                    assert op._scale.shape == (c * n,), (d, p, gamma)
                    assert np.all(op._scale == 1.0 / c), (d, p, gamma)
                    assert op.symmetric, (d, p, gamma, weighting)
                checked += 1
    check("1", checked == 33 and rejected == 3,
          f"D_i = I/(2*gamma+1) exactly in {checked} configs, "
          f"{rejected} infeasible (2*gamma+1 > P) rejected")


def test_criterion_2_partition_balance_and_tiling():
    rng = np.random.default_rng(20)
    cases = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 5000))
        p = int(rng.integers(1, min(n, 64) + 1))
        ranges = disjoint_partition(n, p)
        sizes = [r.length for r in ranges]
        assert max(sizes) - min(sizes) <= 1
        pos = 0
        for r in ranges:
            assert r.start == pos
            pos += r.length
        assert pos == n
        cases += 1
    check("2", cases == 10_000,
          "10^4 random (N, P): size spread <= 1 and exact cover")


def test_criterion_3_sfc_bijectivity_adjacency_holder():
    scales = [(2, 8), (3, 5), (4, 4), (5, 3)]
    for d, n_max in scales:
        for n in range(1, n_max + 1):
            diag = sfc.curve_diagnostics(sfc.CurveConfig(d, n))
            assert diag["bijective"] and diag["adjacent"], (d, n)
    estimates = {}
    for d in range(2, 7):
        est = sfc.holder_estimate(sfc.CurveConfig(d, 4), 100_000, seed=d)
        assert est <= sfc.holder_bound(d), (d, est)
        estimates[d] = round(est, 3)
    check("3", True,
          f"exhaustive bijectivity+adjacency up to {scales}; "
          f"Holder estimates {estimates} below 2*sqrt(d+3)")


def test_criterion_4_operator_dense_oracle_equivalence():
    configs = []
    for levels, p in [((7,), 4), ((3, 4), 5)]:
        for variant in schwarz.VARIANTS:
            for weighting in schwarz.WEIGHTINGS:
                configs.append((levels, p, 0.5, variant, weighting))
    # non-half-integer gamma exercises the non-symmetric diagonal weighting
    configs.append(((7,), 4, 0.75, "balanced", "d_matrix"))
    configs.append(((3, 4), 5, 0.75, "additive_two_level", "d_matrix"))
    worst = 0.0
    n_sym = 0
    for levels, p, gamma, variant, weighting in configs:
        A, part, cs, op = schwarz_oracles.make_operator(
            levels, p, gamma, 4, variant, weighting)
        if cs is None:
            cs = build_coarse(part, A, 4)
        M = schwarz_oracles.dense_operator(op)
        oracle = schwarz_oracles.dense_oracle(A, part, cs, variant, weighting)
        worst = max(worst, float(np.abs(M - oracle).max()))
        assert np.abs(M - oracle).max() <= 1e-10, (levels, variant, weighting)
        if op.symmetric:
            asym = float(np.abs(M - M.T).max())
            assert asym <= 1e-12, (levels, variant, weighting, asym)
            n_sym += 1
    check("4", True,
          f"{len(configs)} variant x weighting configs match dense oracles "
          f"(max abs dev {worst:.1e}); {n_sym} symmetric ones pass "
          f"the 1e-12 symmetry test")


def test_criterion_5_richardson_rate_matches_eigen_oracle():
    rep = harness.run_model_solve(
        (8,), 4, 0.5, 16, method="richardson", variant="balanced",
        weighting="omega", seed=42)
    # the oracle: a dense eigensolve of C^-1 A for the same operator
    A = grid.assemble_laplacian((8,))
    n = A.shape[0]
    A_hat, _, _ = grid.symmetrize_diag(A, np.zeros(n))
    part = build_partition(n, 4, 0.5)
    op = schwarz.setup(A_hat, part, build_coarse(part, A_hat, 16),
                       schwarz.SchwarzConfig("balanced", "omega"))
    lam = np.real(np.linalg.eigvals(
        schwarz_oracles.dense_operator(op) @ A_hat.toarray()))
    assert rep.lambda_min == pytest.approx(lam.min(), rel=1e-6)
    assert rep.lambda_max == pytest.approx(lam.max(), rel=1e-6)
    kappa = lam.max() / lam.min()
    rho_star = 1.0 - 2.0 / (1.0 + kappa)
    hist = np.array(rep.energy_history)
    ratios = hist[1:] / hist[:-1]
    measured = float(np.exp(np.mean(np.log(ratios[-20:]))))
    ok = abs(measured - rho_star) <= 0.03
    check("5", ok,
          f"asymptotic contraction {measured:.4f} vs rho* {rho_star:.4f} "
          f"(kappa {kappa:.2f}, {rep.iterations} iterations)")


@pytest.mark.slow
def test_criterion_6a_weak_scaling_iteration_counts_d1():
    p_values = (16, 32, 64, 128, 256)
    pcg_all = {}
    rich_all = {}
    for s in (8, 10, 12):
        q = 2 ** (s - 4)
        for p in p_values:
            levels = (s + int(math.log2(p)),)
            reps = model_runs(levels, p, 0.5, q, ("pcg", "richardson"))
            pcg_all[(s, p)] = reps["pcg"].iterations
            rich_all[(s, p)] = reps["richardson"].iterations
        print(f"  S={s}: pcg {[pcg_all[(s, p)] for p in p_values]} "
              f"richardson {[rich_all[(s, p)] for p in p_values]}", flush=True)
    ok_pcg = all(v <= 29 + 5 for v in pcg_all.values())
    plateau = [v for (s, p), v in rich_all.items() if p >= 32]
    ok_rich = all(120 <= v <= 170 for v in plateau)
    spreads = {}
    for s in (8, 10, 12):
        vals = [rich_all[(s, p)] for p in p_values if p >= 32]
        spreads[s] = round((max(vals) - min(vals)) / min(vals), 3)
    ok_flat = all(v <= 0.15 for v in spreads.values())
    check("6a", ok_pcg and ok_rich and ok_flat,
          f"pcg max {max(pcg_all.values())} <= 34; richardson plateau "
          f"within 145+-25 (P >= 32), relative spreads {spreads}")
    check_pinned("6a", {f"S={s} P={p}": {"pcg": pcg_all[(s, p)],
                                         "richardson": rich_all[(s, p)]}
                        for s, p in pcg_all})


@pytest.mark.slow
def test_criterion_6b_weak_scaling_plateau_d6():
    context = {}
    counts = {}
    for p in (16, 32):
        reps = model_runs((2,) * 6, p, 0.5, 16, ("pcg", "richardson"))
        context[p] = (reps["richardson"].iterations, reps["pcg"].iterations)
        counts[f"l=2 P={p}"] = {m: r.iterations for m, r in reps.items()}
    # largest desk-feasible point: l=3 isotropic, N=117649, q=16 intact
    reps = model_runs((3,) * 6, 1024, 0.5, 16, ("pcg", "richardson"))
    rich, pcg = reps["richardson"].iterations, reps["pcg"].iterations
    counts["l=3 P=1024"] = {m: r.iterations for m, r in reps.items()}
    print(f"  d=6 context (N=729): {context}; plateau P=1024: "
          f"richardson {rich}, pcg {pcg}", flush=True)
    ok = (26 - 7 <= rich <= 26 + 7) and (16 - 4 <= pcg <= 16 + 4)
    check("6b", ok,
          f"d=6 plateau at P=1024: richardson {rich} in 26+-7, "
          f"pcg {pcg} in 16+-4")
    check_pinned("6b", counts)


def test_criterion_7_subdomain_totals_d1_to_d5():
    expected = {1: 1, 2: 59, 3: 1391, 4: 20889, 5: 237706}
    got = {d: combine.subdomain_count_total(d, 20, 1) for d in expected}
    consistent = all(
        combine.subdomain_count_total(d, 20, 7)
        == 7 * sum(p for _, _, p, _ in combine.enumerate_plan(d, 20, 1).terms())
        for d in range(1, 7)
    )
    check("7 (d=1..5)", got == expected and consistent,
          f"closed-form totals {got} match the reference values and equal "
          f"the plan sums for d <= 6")


@pytest.mark.xfail(
    strict=True,
    reason="the reference total 1754744 for d=6 equals the count formula "
    "evaluated at L=19, not L=20; the formula and brute-force plan "
    "enumeration agree on 2233216 at L=20, so the reference value is "
    "internally inconsistent",
)
def test_criterion_7_subdomain_total_d6_reference_value():
    got = combine.subdomain_count_total(6, 20, 1)
    print(f"\ncriterion 7 (d=6): FAIL expected - formula gives {got}, "
          f"reference table says 1754744 (= the formula at L=19); "
          f"known inconsistency in the reference value", flush=True)
    assert got == 1754744


def test_criterion_8_weighting_coincidence():
    results = {}
    for p in (16, 64, 256):
        levels = (8 + int(math.log2(p)),)
        for weighting in ("none", "omega", "d_matrix"):
            reps = model_runs(levels, p, 0.5, 16, ("pcg", "richardson"),
                              weighting=weighting)
            results[(p, weighting)] = (reps["richardson"].iterations,
                                       reps["pcg"].iterations)
    ok = True
    for p in (16, 64, 256):
        rich = {results[(p, w)][0] for w in ("none", "omega", "d_matrix")}
        pcg = [results[(p, w)][1] for w in ("none", "omega", "d_matrix")]
        print(f"  P={p}: richardson {sorted(rich)}, pcg {pcg}", flush=True)
        ok &= len(rich) == 1  # identical counts across scalings
        # omega and d_matrix weights are bitwise identical at gamma=1/2
        ok &= pcg[1] == pcg[2]
        # unweighted pcg may land one iteration off the stopping threshold
        ok &= abs(pcg[0] - pcg[1]) <= 1
    check("8", ok,
          "balanced richardson counts identical for unweighted/omega/D "
          "weightings at every P; pcg identical up to one stopping-threshold "
          "iteration")
    check_pinned("8", {f"P={p} {w}": {"pcg": pcg, "richardson": rich}
                       for (p, w), (rich, pcg) in results.items()})


def test_criterion_9_combination_convergence():
    errors = {}
    for level in range(4, 9):
        plan = combine.enumerate_plan(2, level)
        result = combine.run_combination(plan, gamma=0.5, variant="balanced",
                                         weighting="omega", method="pcg",
                                         seed=42)
        exact = grid.manufactured_poisson((level, level)).exact_solution
        mx, _ = combine.sampled_error(result.evaluator, exact, 2, level,
                                      2000, seed=42)
        errors[level] = mx
    vals = [errors[l] for l in range(4, 9)]
    monotone = all(a > b for a, b in zip(vals, vals[1:]))
    model = [math.log((2**l - 1) ** -2 * math.log(2**l - 1))
             for l in range(4, 9)]
    slope = float(np.polyfit(model, np.log(vals), 1)[0])

    # d=1: the single combination term is the full-grid solve itself
    plan1 = combine.enumerate_plan(1, 6)
    res1 = combine.run_combination(plan1, gamma=0.5, variant="balanced",
                                   weighting="omega", method="pcg", seed=42)
    partial, _ = combine.solve_subproblem((6,), 1, gamma=0.5,
                                          variant="balanced",
                                          weighting="omega", method="pcg",
                                          seed=42)
    exact1 = grid.manufactured_poisson((6,)).exact_solution
    nodes = grid.interior_points((6,))
    err_comb = np.abs(res1.evaluator(nodes) - exact1(nodes)).max()
    err_full = np.abs(
        combine.multilinear_interpolate((6,),
                                        grid.scatter_to_lex((6,),
                                                            partial.values),
                                        nodes)
        - exact1(nodes)).max()
    identical = err_comb == err_full
    check("9", monotone and abs(slope - 1.0) <= 0.5 and identical,
          f"d=2 errors {[f'{v:.2e}' for v in vals]} decrease monotonically, "
          f"fit exponent {slope:.3f} within 1+-0.5; d=1 combination error "
          f"equals the full-grid error exactly")


def test_criterion_10_full_grid_second_order():
    from sfcdd import linalg
    errors = []
    for l in (4, 5, 6):
        levels = (l, l)
        prob = grid.manufactured_poisson(levels)
        A = grid.assemble_laplacian(levels)
        b = grid.sample_on_grid(prob.rhs, levels)
        x = linalg.factorize(A).solve(b)
        u = grid.sample_on_grid(prob.exact_solution, levels)
        errors.append(float(np.abs(x - u).max()))
    ratios = [errors[i] / errors[i + 1] for i in range(2)]
    ok = all(abs(r - 4.0) <= 0.15 * 4.0 for r in ratios)
    check("10", ok,
          f"max-norm error ratios {[f'{r:.3f}' for r in ratios]} "
          f"within 4 +- 15%")

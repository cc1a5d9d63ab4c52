"""End-to-end acceptance gate.

Each test covers one shipped guarantee at its stated scale and prints a
single line

    ACCEPTANCE <n> <label>: PASS|FAIL (<measured detail>)

so the verdicts can be read off a captured run directly (pytest -s, or
the captured-output block of any failure).
"""

import dataclasses
import itertools
import json
import time

import numpy as np
import pytest

from mfglab.fbsde import (
    SolverConfig,
    lq_from_game,
    solve_adjoint,
    solve_lq_riccati,
    verify_sufficiency,
)
from mfglab.fixedpoint import (
    FixedPointConfig,
    solve_matching,
    truncated_solve,
    uncontrolled_flows,
)
from mfglab.hamiltonian import HamiltonianContext, minimize_controls, vi_residual
from mfglab.measures import (
    MeasureFlow,
    ParticleCloud,
    TimeGrid,
    flow_distance,
    resample,
    sliced_w2,
    wasserstein2_1d,
)
from mfglab.model import (
    COMPETITIVE,
    COOPERATIVE,
    GameSpec,
    StructuralFlags,
    builtin_game,
    gaussian_initial_law,
    builtin_library,
    measure_args,
    population_from_lq,
)
from mfglab.nagent import (
    MODE_COMPETITIVE,
    MODE_COOPERATIVE,
    MODE_MIXED_POPULATION,
    StructuralFlagError,
    chaos_rate,
    nash_gap,
)
from mfglab.rng import substream

from conftest import cached_equilibrium


def _verdict(num, label, ok, detail):
    line = "ACCEPTANCE %d %s: %s (%s)" % (
        num, label, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


def test_acceptance_01_riccati_slope():
    t0 = time.time()
    spec = builtin_game("lq-scalar")
    cfg = SolverConfig(n_steps=50, n_paths=4096)
    flows = uncontrolled_flows(spec, cfg.n_steps, cfg.n_paths, 0)
    sol = solve_adjoint(spec, 0, flows, cfg, seed=0)
    oracle = solve_lq_riccati(lq_from_game(spec), sol.grid)
    worst = 0.0
    for k, t in enumerate(sol.grid.times):
        slope = sol.field.linear_slope(k, sol.X[k])[0, 0]
        P = oracle.P_at(0, t)[0, 0]
        worst = max(worst, abs(slope - P) / max(1.0, abs(P)))
    elapsed = time.time() - t0
    ok = worst <= 2e-2 and elapsed <= 30.0
    _verdict(1, "riccati-slope", ok,
             "max knot rel err %.2e (tol 2e-02), %.1fs (cap 30s)"
             % (worst, elapsed))


def test_acceptance_02_two_population_means():
    report = cached_equilibrium("lq-2pop-competitive")
    spec = builtin_game("lq-2pop-competitive")
    grid = report.flows[0].grid
    oracle = solve_lq_riccati(lq_from_game(spec), grid)
    worst_ratio = 0.0
    for i in range(spec.n_populations):
        emp = np.array([c.points.mean(axis=0) for c in report.flows[i].clouds])
        target = oracle.means_on(grid, i)
        scale = float(np.abs(target).max())
        gap = float(np.abs(emp - target).max())
        worst_ratio = max(worst_ratio, gap / (3e-2 * (1.0 + scale)))
    ok = report.converged and report.iterations <= 30 and worst_ratio <= 1.0
    _verdict(2, "mean-coupled-equilibrium", ok,
             "sup-knot err at %.2f of budget 3e-2*(1+scale), "
             "%d iterations (cap 30)" % (worst_ratio, report.iterations))


def test_acceptance_03_sufficiency_all_builtins():
    t0 = time.time()
    worst = np.inf
    checked = 0
    all_ok = True
    for name in sorted(builtin_library()):
        spec = builtin_game(name)
        eq = cached_equilibrium(name)
        for i in range(spec.n_populations):
            rep = verify_sufficiency(spec, i, eq.solutions[i], eq.flows,
                                     n_deviations=16, seed=0, tol=2e-2)
            slack = rep.margins + 3.0 * rep.standard_errors + rep.tolerance
            worst = min(worst, float(slack.min()))
            all_ok = all_ok and rep.passed
            checked += 1
    elapsed = time.time() - t0
    ok = all_ok and elapsed <= 120.0
    _verdict(3, "deviation-convexity-gap", ok,
             "%d population checks, 16 deviations each, worst slack "
             "%+.3e, %.1fs (cap 120s)" % (checked, worst, elapsed))


def _vi_contexts(spec, i, rng, n, scale=2.0):
    pop = spec.populations[i]
    clouds = [ParticleCloud(rng.standard_normal((32, p.state_dim)))
              for p in spec.populations]
    mu, nus = measure_args(spec, i, clouds)
    X = scale * rng.standard_normal((n, pop.state_dim))
    Y = scale * rng.standard_normal((n, pop.state_dim))
    return mu, nus, X, Y


def test_acceptance_04_minimizer_bounds():
    batches = (
        ("lq-1pop", 0, 300),
        ("nonlq-box", 0, 300),
        ("mixed-opec", 0, 200),
        ("mixed-opec", 1, 200),
    )
    rng = substream(0, "acceptance-minimizer")
    t = 0.3
    worst_vi = 0.0
    worst_lip = -np.inf
    worst_growth = -np.inf
    total = 0
    for name, i, n in batches:
        spec = builtin_game(name)
        pop = spec.populations[i]
        lam = spec.constants.convexity_lambda
        mu, nus, X, Y = _vi_contexts(spec, i, rng, n)
        A = minimize_controls(spec, i, t, X, mu, nus, Y)
        for r in range(n):
            ctx = HamiltonianContext(spec=spec, population=i, t=t, x=X[r],
                                     mu=mu, nus=nus, y=Y[r])
            res = vi_residual(ctx, A[r], seed=7)
            worst_vi = max(
                worst_vi, res / (1e-8 * (1.0 + np.linalg.norm(A[r]))))
        b2 = np.asarray(pop.drift.b2(t, mu, nus))
        b2_norm = np.linalg.norm(b2, 2)
        X2 = 2.0 * rng.standard_normal((n, pop.state_dim))
        Y2 = 2.0 * rng.standard_normal((n, pop.state_dim))
        A2 = minimize_controls(spec, i, t, X2, mu, nus, Y2)
        grad_gap = np.linalg.norm(
            pop.cost.df_dalpha(t, X, mu, nus, A)
            - pop.cost.df_dalpha(t, X2, mu, nus, A), axis=1)
        lip_bound = (b2_norm * np.linalg.norm(Y - Y2, axis=1)
                     + grad_gap) / (2.0 * lam)
        lip_excess = np.linalg.norm(A - A2, axis=1) - lip_bound
        worst_lip = max(worst_lip, float(lip_excess.max()))
        beta = np.tile(pop.action_set.anchor_point, (n, 1))
        grad_beta = np.linalg.norm(
            pop.cost.df_dalpha(t, X, mu, nus, beta), axis=1)
        growth_bound = (b2_norm * np.linalg.norm(Y, axis=1)
                        + grad_beta) / lam
        growth_excess = np.linalg.norm(A - beta, axis=1) - growth_bound
        worst_growth = max(worst_growth, float(growth_excess.max()))
        total += n
    ok = worst_vi <= 1.0 and worst_lip <= 1e-9 and worst_growth <= 1e-9
    _verdict(4, "minimizer-bounds", ok,
             "%d contexts: VI residual at %.2e of budget, Lipschitz "
             "excess %+.1e, growth excess %+.1e (slack 1e-9)"
             % (total, worst_vi, worst_lip, worst_growth))


def test_acceptance_05_wasserstein_exactness():
    rng = substream(0, "acceptance-w2")
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        a = ParticleCloud(3.0 * rng.standard_normal((n, 1)))
        b = ParticleCloud(3.0 * rng.standard_normal((n, 1)))
        xs = a.points[:, 0]
        ys = b.points[:, 0]
        best = min(
            float(np.mean((xs - ys[list(perm)]) ** 2))
            for perm in itertools.permutations(range(n))
        )
        worst = max(worst, abs(wasserstein2_1d(a, b) - np.sqrt(best)))
    v = np.array([1.5, -0.7])
    a2 = ParticleCloud(np.tile(v, (8, 1)))
    b2 = ParticleCloud(np.zeros((8, 2)))
    est, slices = sliced_w2(a2, b2, n_projections=256, seed=5,
                            return_slices=True)
    target = 0.5 * float(v @ v)
    se = float(np.std(slices, ddof=1) / np.sqrt(len(slices)))
    sliced_gap = abs(est ** 2 - target)
    ok = worst <= 1e-12 and sliced_gap <= 3.0 * se
    _verdict(5, "wasserstein-exactness", ok,
             "200 brute-force pairs worst gap %.1e (tol 1e-12); "
             "point-mass slice gap %.3f vs 3SE %.3f"
             % (worst, sliced_gap, 3.0 * se))


def test_acceptance_06_chaos_rate():
    t0 = time.time()
    spec = builtin_game("lq-bimodal")
    eq = cached_equilibrium("lq-bimodal")
    report = chaos_rate(spec, eq, (64, 256, 1024, 4096), repetitions=32,
                        seed=0)
    elapsed = time.time() - t0
    slope = report.slopes[0]
    r2 = report.r_squared[0]
    ok = (-0.65 <= slope <= -0.35) and r2 >= 0.95 and elapsed <= 300.0
    _verdict(6, "chaos-rate", ok,
             "slope %.3f (band -0.5+-0.15), R^2 %.4f (floor 0.95), "
             "%.1fs (cap 300s)" % (slope, r2, elapsed))


def _ladder_reports():
    runs = (
        ("lq-1pop", MODE_COMPETITIVE),
        ("lq-2pop-cooperative", MODE_COOPERATIVE),
        ("mixed-opec", MODE_MIXED_POPULATION),
    )
    out = []
    for name, mode in runs:
        spec = builtin_game(name)
        eq = cached_equilibrium(name)
        out.append((name, mode, nash_gap(
            spec, eq, N_list=(64, 256, 1024), repetitions=8, seed=0,
            mode=mode)))
    return out


@pytest.fixture(scope="module")
def ladder_reports():
    return _ladder_reports()


def test_acceptance_07_cost_convergence(ladder_reports):
    details = []
    all_ok = True
    for name, mode, rep in ladder_reports:
        tgt = rep.population
        jmf = rep.meanfield_costs[tgt][0]
        gaps = []
        ses = []
        for n in rep.N_list:
            jn, se = rep.baseline_costs[n][tgt]
            gaps.append(abs(jn - jmf))
            ses.append(se)
        violations = 0
        ok = True
        for a in range(1, len(gaps)):
            if gaps[a] >= gaps[a - 1]:
                violations += 1
                if gaps[a] - gaps[a - 1] > ses[a] or violations > 1:
                    ok = False
        all_ok = all_ok and ok
        details.append("%s %s gaps %s%s" % (
            name, mode,
            "/".join("%.4f" % g for g in gaps),
            "" if ok else " NOT DECREASING"))
    _verdict(7, "cost-convergence", all_ok, "; ".join(details))


def test_acceptance_08_nash_floor(ladder_reports):
    details = []
    all_ok = True
    for name, mode, rep in ladder_reports:
        floor_ok = True
        null_ok = True
        for n in rep.N_list:
            total = rep.eps_bar_sum[n]
            if rep.min_gain(n) < -rep.kappa_by_N[n] * total - 1e-12:
                floor_ok = False
            g = rep.gains[(n, "null")]
            se = rep.gain_ses[(n, "null")]
            if abs(g) > 2.0 * se:
                null_ok = False
        kappas = [rep.kappa_by_N[n] for n in rep.N_list]
        floors = [rep.kappa_floor_by_N[n] for n in rep.N_list]
        if all(k > f for k, f in zip(kappas, floors)):
            lo, hi = min(kappas), max(kappas)
            stable = hi <= 2.0 * lo
            kappa_note = "kappa %.3f..%.3f%s" % (
                lo, hi, "" if stable else " UNSTABLE")
        else:
            stable = True
            kappa_note = "kappa statistically zero"
        ok = floor_ok and null_ok and stable
        all_ok = all_ok and ok
        details.append("%s %s (%s%s%s)" % (
            name, mode, kappa_note,
            "" if floor_ok else ", floor violated",
            "" if null_ok else ", null biased"))
    try:
        spec = builtin_game("mixed-opec")
        eq = cached_equilibrium("mixed-opec")
        nash_gap(spec, eq, N_list=(10 ** 9, 2 * 10 ** 9, 4 * 10 ** 9),
                 repetitions=8, seed=0, mode=MODE_COOPERATIVE)
        rejected = False
    except StructuralFlagError:
        rejected = True
    all_ok = all_ok and rejected
    details.append("intercept-coupled cooperative deviation %s" %
                   ("rejected" if rejected else "NOT rejected"))
    _verdict(8, "approximate-nash-floor", all_ok, "; ".join(details))


def _planner_twin_of_scalar():
    base = builtin_game("lq-scalar")
    pop = population_from_lq(
        base.populations[0].lq, COOPERATIVE, gaussian_initial_law([0.0], 1.0),
        initial_mean=[0.0], initial_cov=[[1.0]], label="planner",
    )
    return GameSpec(
        populations=(pop,), horizon=1.0, constants=base.constants,
        structural_flags=StructuralFlags(True, True, True, True),
        name="lq-scalar-planner",
    )


def _flows_equal(fa, fb):
    return all(
        np.array_equal(ca.points, cb.points)
        for ca, cb in zip(fa.clouds, fb.clouds)
    )


def _resampled(flow, seed):
    return MeasureFlow(
        flow.grid,
        [resample(c, len(c.points), seed=seed + 31 * k)
         for k, c in enumerate(flow.clouds)],
    )


def test_acceptance_09_reductions():
    cfg = FixedPointConfig(solver=SolverConfig(n_steps=50, n_paths=4096))
    # a) the own-law solver on a coupling-free planner model retraces the
    #    competitive solver step for step
    comp = cached_equilibrium("lq-scalar")
    coop = solve_matching(_planner_twin_of_scalar(), cfg, seed=0)
    a_ok = _flows_equal(comp.flows[0], coop.flows[0]) and (
        comp.costs == coop.costs)

    # b) truncation at a huge level never fires and never perturbs
    plain = cached_equilibrium("lq-1pop")
    capped = truncated_solve(builtin_game("lq-1pop"), 1e6, cfg, seed=0)
    b_ok = _flows_equal(plain.flows[0], capped.flows[0]) and all(
        not b for b in capped.truncation_binding)

    # c) mixed dispatch with the cartel's own-law terms removed matches
    #    the all-competitive twin distributionally
    opec = builtin_game("mixed-opec")
    stripped_lq = dataclasses.replace(
        opec.populations[0].lq,
        A_bar=np.zeros((1, 1)), S=np.zeros((1, 1)), G=np.zeros((1, 1)),
    )
    def rebuilt(kind, label, name):
        cartel = population_from_lq(
            stripped_lq, kind, gaussian_initial_law([1.5], 0.4),
            initial_mean=[1.5], initial_cov=[[0.16]], label=label,
        )
        return GameSpec(
            populations=(cartel, opec.populations[1]),
            horizon=opec.horizon, constants=opec.constants,
            structural_flags=StructuralFlags(True, True, True, True),
            name=name,
        )
    half = FixedPointConfig(solver=SolverConfig(n_steps=50, n_paths=2048))
    mixed = solve_matching(
        rebuilt(COOPERATIVE, "cartel", "opec-own-law-free"), half, seed=0)
    twin = solve_matching(
        rebuilt(COMPETITIVE, "cartel", "opec-all-competitive"), half, seed=0)
    worst_ratio = 0.0
    for i in range(2):
        dist = flow_distance(mixed.flows[i], twin.flows[i])
        noise = np.mean([
            flow_distance(_resampled(twin.flows[i], 100 + r),
                          _resampled(twin.flows[i], 500 + r))
            for r in range(4)
        ])
        worst_ratio = max(worst_ratio, dist / (3.0 * noise))
    c_ok = worst_ratio <= 1.0
    ok = a_ok and b_ok and c_ok
    _verdict(9, "reductions", ok,
             "planner twin bitwise %s; inactive truncation bitwise %s; "
             "mixed-vs-competitive flow distance at %.2f of 3x resampling "
             "noise" % (a_ok, b_ok, worst_ratio))


def _cli_config(kind, out_dir, extra=""):
    if kind == "validate":
        body = "experiment:\n  kind: validate\n  n_samples: 50\n"
        model = "lq-scalar"
    elif kind == "solve":
        body = ""
        model = "lq-1pop"
    elif kind == "chaos":
        body = ("experiment:\n  kind: chaos\n  sizes: [16, 32, 64]\n"
                "  repetitions: 2\n")
        model = "lq-1pop"
    elif kind == "nash":
        body = ("experiment:\n  kind: nash\n  sizes: [6, 8, 10]\n"
                "  repetitions: 2\n")
        model = "lq-1pop"
    else:
        body = ("experiment:\n  kind: truncation-study\n"
                "  levels: [1.0e+6, 0.5]\n")
        model = "lq-1pop"
    return (
        "model: %s\nseed: 0\noutput_dir: %s\n"
        "solver:\n  n_steps: 10\n  n_paths: 256\n" % (model, out_dir)
    ) + body + extra


def test_acceptance_10_cli_determinism(tmp_path):
    from mfglab.cli import main
    commands = ("validate", "solve", "chaos", "nash", "truncation-study")
    details = []
    all_ok = True
    for cmd in commands:
        out = tmp_path / cmd
        cfg_path = tmp_path / ("%s.yaml" % cmd)
        cfg_path.write_text(_cli_config(cmd, out))
        code1 = main([cmd, "--config", str(cfg_path), "--workers", "1"])
        snap = {
            p.name: p.read_bytes() for p in sorted(out.iterdir())
            if p.is_file()
        }
        code2 = main([cmd, "--config", str(cfg_path), "--workers", "8"])
        again = {
            p.name: p.read_bytes() for p in sorted(out.iterdir())
            if p.is_file()
        }
        same = (code1 == code2 == 0) and snap == again
        all_ok = all_ok and same
        details.append("%s %s (%d files)" % (
            cmd, "identical" if same else "DIFFERS", len(snap)))
    _verdict(10, "cli-determinism", all_ok, "; ".join(details))

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfglab.fbsde import (
    KnotRegression,
    PicardError,
    SolverConfig,
    _backward,
    _features,
    _path_costs,
    euler_scheme,
    lq_from_game,
    optimal_cost,
    solve_adjoint,
    solve_lq_riccati,
    solver_draws,
    verify_sufficiency,
)
from mfglab.fixedpoint import uncontrolled_flows
from mfglab.hamiltonian import (HamiltonianContext, dmu_hamiltonian,
                                dx_hamiltonian, minimize)
from mfglab.measures import (MeasureFlow, ParticleCloud, TimeGrid,
                             empirical_from_states)
from mfglab.model import (COOPERATIVE, builtin_game, gaussian_initial_law,
                          measure_args)
from mfglab.model import DiffusionCoefficients, PopulationLq
from mfglab.model import GameSpec, ModelConstants, StructuralFlags
from mfglab.model import population_from_lq


CFG = SolverConfig(n_steps=25, n_paths=2048)


def _scalar_setup(seed=0):
    spec = builtin_game("lq-scalar")
    flows = uncontrolled_flows(spec, CFG.n_steps, CFG.n_paths, seed)
    return spec, flows


def _final_measures(spec, i, sol, flows):
    """Per-knot (mu, nus) of a solve's final pass: the frozen flows, with
    the live cloud of sol.X[k] in a cooperative population's own slot."""
    measures = []
    for k, Xk in enumerate(sol.X):
        clouds = [flow.clouds[k] for flow in flows]
        if spec.populations[i].cooperation == COOPERATIVE:
            clouds[i] = ParticleCloud(Xk)
        measures.append(measure_args(spec, i, clouds))
    return measures


def _adjoint_values(spec, i, sol, flows):
    """Y (K + 1, n, d) and Z (K, n, d, d) of one backward pass along a
    solve's stored paths, on the Brownian increments that solve drew."""
    _, dW = solver_draws(spec, i, sol.X.shape[1], sol.grid, sol.seed)
    return _backward(spec, i, sol.grid, sol.X, dW,
                     _final_measures(spec, i, sol, flows), sol.field.degree,
                     lambda k, fit, Yk: None)


def test_field_slope_tracks_riccati():
    spec, flows = _scalar_setup()
    sol = solve_adjoint(spec, 0, flows, CFG, seed=0)
    grid = sol.grid
    oracle = solve_lq_riccati(lq_from_game(spec), grid)
    worst = 0.0
    for k, t in enumerate(grid.times):
        slope = sol.field.linear_slope(k, sol.X[k])[0, 0]
        P = oracle.P_at(0, t)[0, 0]
        worst = max(worst, abs(slope - P) / max(1.0, abs(P)))
    assert worst <= 5e-2


def test_adjoint_z_tracks_riccati_times_sigma():
    # constant sigma = 1 here, so the regressed Z should hover near P(t)
    spec, flows = _scalar_setup()
    sol = solve_adjoint(spec, 0, flows, CFG, seed=0)
    oracle = solve_lq_riccati(lq_from_game(spec), sol.grid)
    _, Z = _adjoint_values(spec, 0, sol, flows)
    for k in (0, 10, 20):
        z_mean = float(Z[k].mean())
        P = oracle.P_at(0, sol.grid.times[k])[0, 0]
        assert abs(z_mean - P) <= 0.15


def test_costs_match_lq_oracle():
    spec, flows = _scalar_setup()
    sol = solve_adjoint(spec, 0, flows, CFG, seed=0)
    est, se = optimal_cost(sol)
    oracle = solve_lq_riccati(lq_from_game(spec), sol.grid)
    assert abs(est - oracle.costs[0]) <= max(0.05, 4.0 * se)


def _planner_twin_of_scalar():
    base = builtin_game("lq-scalar")
    pop = population_from_lq(
        base.populations[0].lq, COOPERATIVE, gaussian_initial_law([0.0], 1.0),
        initial_mean=[0.0], initial_cov=[[1.0]], label="planner",
    )
    return GameSpec(
        populations=(pop,), horizon=1.0,
        constants=base.constants,
        structural_flags=StructuralFlags(True, True, True, True),
        name="lq-scalar-planner",
    )


def test_mkv_reduces_bitwise_without_measure_terms():
    comp_spec, flows = _scalar_setup()
    coop_spec = _planner_twin_of_scalar()
    a = solve_adjoint(comp_spec, 0, flows, CFG, seed=0)
    b = solve_adjoint(coop_spec, 0, flows, CFG, seed=0)
    assert np.array_equal(a.X, b.X)
    for ya, yb in zip(_adjoint_values(comp_spec, 0, a, flows),
                      _adjoint_values(coop_spec, 0, b, flows)):
        assert np.array_equal(ya, yb)
    assert np.array_equal(a.controls, b.controls)


def test_picard_failure_reports_history():
    spec, flows = _scalar_setup()
    cfg = SolverConfig(n_steps=25, n_paths=512, picard_tol=1e-16,
                       max_picard=2)
    with pytest.raises(PicardError) as err:
        solve_adjoint(spec, 0, flows, cfg, seed=0)
    assert len(err.value.history) == 2
    assert "stalled" in str(err.value)


def test_non_finite_field_change_stops_picard():
    # a terminal gradient that is NaN on the paths with x > 2 (about 2% of
    # them) makes NaN gaps, which a max starting from 0.0 would drop
    spec = builtin_game("lq-scalar")
    pop = spec.populations[0]
    base = pop.cost.dg_dx

    def dg_dx(x, mu, nus):
        out = np.array(base(x, mu, nus), dtype=float)
        out[x[:, 0] > 2.0] = np.nan
        return out

    cost = dataclasses.replace(pop.cost, dg_dx=dg_dx)
    bad = dataclasses.replace(
        spec, populations=(dataclasses.replace(pop, cost=cost),))
    cfg = SolverConfig(n_steps=10, n_paths=256)
    flows = uncontrolled_flows(bad, cfg.n_steps, cfg.n_paths, 0)
    with pytest.raises(PicardError) as err:
        solve_adjoint(bad, 0, flows, cfg, seed=0)
    assert "non-finite" in str(err.value)
    assert len(err.value.history) == 1
    assert np.isnan(err.value.history[0])


def test_warm_start_converges_at_least_as_fast():
    spec, flows = _scalar_setup()
    cold = solve_adjoint(spec, 0, flows, CFG, seed=0)
    warm = solve_adjoint(spec, 0, flows, CFG, seed=0,
                         initial_field=cold.field)
    assert len(warm.picard_history) <= len(cold.picard_history)


def test_flow_mismatch_rejected():
    spec, _ = _scalar_setup()
    bad = uncontrolled_flows(spec, 10, 64, 0)
    with pytest.raises(ValueError, match="time grid"):
        solve_adjoint(spec, 0, bad, CFG, seed=0)


def test_state_flow_shape():
    spec, flows = _scalar_setup()
    sol = solve_adjoint(spec, 0, flows, CFG, seed=0)
    flow = empirical_from_states(sol.grid, sol.X)
    assert len(flow.clouds) == CFG.n_steps + 1
    assert flow.clouds[0].points.shape == (CFG.n_paths, 1)
    assert np.array_equal(flow.clouds[0].points, sol.X[0])


def test_sufficiency_passes_on_solution():
    spec, flows = _scalar_setup()
    sol = solve_adjoint(spec, 0, flows, CFG, seed=0)
    report = verify_sufficiency(spec, 0, sol, flows, n_deviations=6, seed=0)
    assert report.passed
    assert report.margins.shape == (6,)
    assert np.all(report.standard_errors > 0)


def test_sufficiency_requires_matching_seed():
    spec, flows = _scalar_setup()
    sol = solve_adjoint(spec, 0, flows, CFG, seed=0)
    shifted = uncontrolled_flows(spec, CFG.n_steps, CFG.n_paths, 1)
    sol_other = solve_adjoint(spec, 0, shifted, CFG, seed=1)
    sol_other = sol_other.__class__(**{**sol_other.__dict__, "seed": 0})
    with pytest.raises(ValueError, match="seed"):
        verify_sufficiency(spec, 0, sol_other, shifted, n_deviations=2)


def _diffusive_planner():
    """2-d cooperative population whose diffusion has state-linear (s1)
    and own-mean-linear (s1_bar) parts, which no builtin sets."""
    lq = PopulationLq(
        A=[[-0.3, 0.2], [0.1, -0.4]], A_bar=[[0.2, -0.1], [0.05, 0.3]],
        B=[[1.0], [0.5]], sigma=[[0.5, 0.0], [0.2, 0.4]], R=[[1.0]],
        W=np.eye(2), Wg=np.eye(2), a=[0.1, -0.2],
    )
    pop = population_from_lq(lq, COOPERATIVE,
                             gaussian_initial_law([0.0, 0.0], 1.0), None, None)
    s1 = 0.1 * np.arange(8.0).reshape(2, 2, 2) - 0.3
    s1_bar = 0.05 * np.arange(8.0).reshape(2, 2, 2)[::-1] - 0.1
    diffusion = DiffusionCoefficients(
        s0=pop.diffusion.s0,
        s1=lambda t, mu, nus: s1,
        s1_bar=lambda t, nus: s1_bar,
    )
    spec = GameSpec(populations=(dataclasses.replace(pop, diffusion=diffusion),),
                    horizon=0.5, constants=ModelConstants(1.0, 0.5, 1.0))
    return spec, lq, s1, s1_bar


def test_euler_scheme_records_paths_controls_and_measures():
    # mixed-opec: population 0 is the cooperative cartel, 1 the fringe
    spec = builtin_game("mixed-opec")
    grid = TimeGrid(spec.horizon, 4)
    flows = uncontrolled_flows(spec, 4, 64, 0)
    xis, dWs = zip(*(solver_draws(spec, i, 32, grid, 1) for i in range(2)))
    anchors = [pop.action_set.anchor_point for pop in spec.populations]
    controls = [lambda k, t, X, mu, nus, a=a: np.tile(a, (len(X), 1))
                for a in anchors]
    for simulated, live in (((0, 1), False), ((0,), True)):
        for keep in (False, True):
            records = euler_scheme(spec, grid, simulated,
                                   [xis[j] for j in simulated],
                                   [dWs[j] for j in simulated],
                                   [controls[j] for j in simulated], flows,
                                   live=live, keep_controls=keep)
            assert len(records) == len(simulated)
            for j, rec in zip(simulated, records):
                assert rec.paths.shape == (5, 32, 1)
                assert np.array_equal(rec.paths[0], xis[j])
                if keep:
                    assert rec.controls.shape == (4, 32, 1)
                    assert np.all(rec.controls == anchors[j])
                else:
                    assert rec.controls is None
                assert len(rec.measures) == 5
                for k, (mu, nus) in enumerate(rec.measures):
                    if live:
                        assert np.array_equal(mu.points, rec.paths[k])
                    else:
                        assert mu is flows[j].clouds[k]
                    assert nus[0] is flows[1 - j].clouds[k]


def test_solution_costs_price_the_final_pass():
    spec = builtin_game("mixed-opec")
    cfg = SolverConfig(n_steps=10, n_paths=256)
    flows = uncontrolled_flows(spec, cfg.n_steps, cfg.n_paths, 0)
    for i in (0, 1):
        sol = solve_adjoint(spec, i, flows, cfg, seed=0)
        want = _path_costs(spec, i, sol.grid, sol.X, sol.controls,
                           _final_measures(spec, i, sol, flows))
        assert np.array_equal(sol.costs, want)
        assert optimal_cost(sol) == (
            float(want.mean()), float(want.std(ddof=1) / np.sqrt(256)))


def test_euler_step_with_state_and_mean_linear_diffusion():
    spec, lq, s1, s1_bar = _diffusive_planner()
    grid = TimeGrid(spec.horizon, 1)
    rng = np.random.default_rng(3)
    n = 5
    x = rng.standard_normal((n, 2))
    alpha = rng.standard_normal((n, 1))
    dW = rng.standard_normal((1, n, 2)) * np.sqrt(grid.dt)
    frozen = ParticleCloud(rng.standard_normal((7, 2)) + 1.0)
    flow = MeasureFlow(grid, [frozen, frozen])
    for live, m in ((True, x.mean(axis=0)), (False, frozen.mean)):
        (paths, _, _), = euler_scheme(spec, grid, (0,), [x], [dW],
                                      [lambda k, t, X, mu, nus: alpha],
                                      [flow], live=live)
        stepped = paths[-1]
        want = np.empty((n, 2))
        for p in range(n):
            for j in range(2):
                b = lq.a[j] + lq.B[j, 0] * alpha[p, 0]
                noise = 0.0
                for l in range(2):
                    b += lq.A[j, l] * x[p, l] + lq.A_bar[j, l] * m[l]
                    sig = lq.sigma[j, l]
                    for q in range(2):
                        sig += s1[j, l, q] * x[p, q] + s1_bar[j, l, q] * m[q]
                    noise += sig * dW[0, p, l]
                want[p, j] = x[p, j] + b * grid.dt + noise
        np.testing.assert_allclose(stepped, want, rtol=1e-12)


def test_backward_knot_is_the_context_hamiltonian():
    # one backward knot: Y = yhat + dt (dx H + dmu H), with both gradients
    # taken point by point through the context API
    spec, lq, s1, s1_bar = _diffusive_planner()
    grid = TimeGrid(spec.horizon, 2)
    n, degree, k = 64, 2, 0
    xi, dW = solver_draws(spec, 0, n, grid, seed=4)
    (X, _, measures), = euler_scheme(
        spec, grid, (0,), [xi], [dW],
        [lambda k, t, X, mu, nus: 0.3 * X[:, :1] - 0.1], live=True)
    Y, Z = _backward(spec, 0, grid, X, dW, measures, degree,
                     lambda k, fit, Yk: None)
    _, yhat = KnotRegression(X[k], degree).solve(Y[k + 1])
    t, (mu, nus) = grid.times[k], measures[k]
    points = [HamiltonianContext(spec=spec, population=0, t=t, x=X[k][p],
                                 mu=mu, nus=nus, y=yhat[p], z=Z[k][p])
              for p in range(n)]
    alpha = np.array([minimize(ctx) for ctx in points])
    copies = HamiltonianContext(spec=spec, population=0, t=t, x=X[k], mu=mu,
                                nus=nus, y=yhat)
    mean_y, mean_z = yhat.mean(axis=0), Z[k].mean(axis=0)
    dx = np.array([dx_hamiltonian(ctx, a) for ctx, a in zip(points, alpha)])
    dmu = np.array([dmu_hamiltonian(copies, alpha, X[k][p], mean_y, mean_z)
                    for p in range(n)])
    np.testing.assert_allclose(Y[k], yhat + grid.dt * (dx + dmu), rtol=1e-12)
    # the measure gradient holds the own-mean drift and diffusion terms and
    # the copy average of df_dmu
    df_dmu = spec.populations[0].cost.df_dmu(t, X[k], mu, nus, alpha, X[k])
    want = (lq.A_bar.T @ mean_y + np.einsum("jlm,jl->m", s1_bar, mean_z)
            + df_dmu.mean(axis=0))
    np.testing.assert_allclose(dmu, np.broadcast_to(want, dmu.shape),
                               rtol=1e-12)


def test_one_factorization_per_knot_and_no_lstsq_or_solve(monkeypatch):
    spec = builtin_game("lq-1pop")
    cfg = SolverConfig(n_steps=10, n_paths=512)
    flows = uncontrolled_flows(spec, cfg.n_steps, cfg.n_paths, 0)
    calls = {"svd": 0, "lstsq": 0, "solve": 0}

    def counted(name):
        orig = getattr(np.linalg, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)

        return call

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))
    sol = solve_adjoint(spec, 0, flows, cfg, seed=0)
    sweeps = len(sol.picard_history)
    assert sweeps >= 2
    # every Picard sweep factors knots 0..K once (knot K for the refit
    # only); the final forward pass factors none
    assert calls["svd"] == sweeps * (cfg.n_steps + 1)
    assert calls["lstsq"] == 0
    assert calls["solve"] == 0


def _knot_sample(rng, case, d, degree, n):
    if case == "two-valued":
        # x^2 is a combination of 1 and x, so the degree-2 basis has rank 2
        a = rng.uniform(-2.0, 2.0)
        X = np.where(rng.random((n, 1)) < 0.5, a, a + rng.uniform(0.5, 2.0))
        return X, 2, [True]
    X = rng.standard_normal((n, d))
    if case == "masked":
        X[:, -1] = rng.uniform(-3.0, 3.0)
        return X, degree, [True] * (d - 1) + [False]
    return X, degree, [True] * d


@settings(max_examples=150, deadline=None)
@given(case=st.sampled_from(["full", "masked", "two-valued"]),
       d=st.integers(1, 2), degree=st.integers(1, 3), n=st.integers(40, 400),
       m=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_knot_regression_matches_lstsq(case, d, degree, n, m, seed):
    if case == "masked":
        d = 2
    rng = np.random.default_rng(seed)
    X, degree, mask = _knot_sample(rng, case, d, degree, n)
    targets = rng.standard_normal((n, m)) + X[:, :1] ** 2
    fit = KnotRegression(X, degree)
    assert fit.mask.tolist() == mask
    F = _features(X, degree, fit.mask)
    beta_ref, _, rank, _ = np.linalg.lstsq(F, targets, rcond=None)
    assert rank == (2 if case == "two-valued" else F.shape[1])
    beta, fitted = fit.solve(targets)
    np.testing.assert_allclose(beta, beta_ref, rtol=1e-9,
                               atol=1e-9 * np.abs(beta_ref).max())
    fitted_ref = F @ beta_ref
    np.testing.assert_allclose(fitted, fitted_ref, rtol=1e-9,
                               atol=1e-9 * np.abs(fitted_ref).max())

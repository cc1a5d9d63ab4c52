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
from mfglab.hamiltonian import (dmu_hamiltonian_batch, dx_hamiltonian_batch,
                                minimize_controls)
from mfglab.measures import MeasureFlow, ParticleCloud, TimeGrid
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


def _backward_values(spec, i, grid, X, dW, measures, degree):
    """Y (K + 1, n, d) and Z (K, n, d, d) of one backward pass along paths X:
    Y as _backward hands it to the refit, and Z[k] refitted from Y[k + 1]
    on knot k's factorization as _backward fits it."""
    K, n, d = dW.shape
    Y = np.empty((K + 1, n, d))
    Z = np.empty((K, n, d, d))

    def keep(k, fit, Yk):
        Y[k] = Yk
        if k < K:
            ztarget = np.einsum("nj,nl->njl", Y[k + 1], dW[k])
            Z[k] = fit.solve(ztarget.reshape(n, d * d) / grid.dt)[1].reshape(
                n, d, d)

    _backward(spec, i, grid, X, dW, measures, degree, keep)
    return Y, Z


def _adjoint_values(spec, i, sol, flows):
    """Y and Z of one backward pass along a solve's stored paths, on the
    Brownian increments that solve drew."""
    _, dW = solver_draws(spec, i, sol.X.shape[1], sol.grid, sol.seed)
    return _backward_values(spec, i, sol.grid, sol.X, dW,
                            _final_measures(spec, i, sol, flows),
                            sol.field.degree)


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


def test_last_allowed_sweep_may_converge():
    spec = builtin_game("lq-2pop-cooperative")
    cfg = SolverConfig(n_steps=10, n_paths=512)
    flows = uncontrolled_flows(spec, cfg.n_steps, cfg.n_paths, 0)
    free = solve_adjoint(spec, 0, flows, cfg, seed=0)
    s = len(free.picard_history)
    assert s >= 2
    capped = solve_adjoint(
        spec, 0, flows, dataclasses.replace(cfg, max_picard=s), seed=0)
    assert capped.X.tobytes() == free.X.tobytes()
    assert capped.costs.tobytes() == free.costs.tobytes()
    with pytest.raises(PicardError) as err:
        solve_adjoint(spec, 0, flows,
                      dataclasses.replace(cfg, max_picard=s - 1), seed=0)
    assert len(err.value.history) == s - 1


def _with_nan_where_x_above_2(spec, name):
    """spec with its cost gradient name NaN on the rows with x > 2."""
    pop = spec.populations[0]
    base = getattr(pop.cost, name)

    def nan_above_2(*args):
        out = np.array(base(*args), dtype=float)
        x = args[1] if name == "df_dx" else args[0]
        out[x[:, 0] > 2.0] = np.nan
        return out

    cost = dataclasses.replace(pop.cost, **{name: nan_above_2})
    return dataclasses.replace(
        spec, populations=(dataclasses.replace(pop, cost=cost),))


def test_non_finite_field_change_stops_picard():
    # a running-cost gradient that is NaN on the paths with x > 2 (about 2%
    # of them) leaves the states finite but makes NaN gaps, which a max
    # starting from 0.0 would drop
    bad = _with_nan_where_x_above_2(builtin_game("lq-scalar"), "df_dx")
    cfg = SolverConfig(n_steps=10, n_paths=256)
    flows = uncontrolled_flows(bad, cfg.n_steps, cfg.n_paths, 0)
    with pytest.raises(PicardError) as err:
        solve_adjoint(bad, 0, flows, cfg, seed=0)
    assert "non-finite" in str(err.value)
    assert len(err.value.history) == 1
    assert np.isnan(err.value.history[0])


def test_non_finite_states_fail_at_their_knot():
    # a terminal gradient that is NaN on the paths with x > 2 makes the
    # cold field's feedback NaN there, so the first sweep's states turn NaN;
    # the backward pass stops at the first knot it factors, naming it
    bad = _with_nan_where_x_above_2(builtin_game("lq-scalar"), "dg_dx")
    cfg = SolverConfig(n_steps=10, n_paths=256)
    flows = uncontrolled_flows(bad, cfg.n_steps, cfg.n_paths, 0)
    with pytest.raises(np.linalg.LinAlgError, match=r"^knot 10, max \|state\| "
                       r"nan: non-finite features$"):
        solve_adjoint(bad, 0, flows, cfg, seed=0)


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
    flow = MeasureFlow(sol.grid, sol.X)
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
    flow = MeasureFlow(grid, [frozen.points, frozen.points])
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
    # taken point by point through one-row batches
    spec, lq, s1, s1_bar = _diffusive_planner()
    grid = TimeGrid(spec.horizon, 2)
    n, degree, k = 64, 2, 0
    xi, dW = solver_draws(spec, 0, n, grid, seed=4)
    (X, _, measures), = euler_scheme(
        spec, grid, (0,), [xi], [dW],
        [lambda k, t, X, mu, nus: 0.3 * X[:, :1] - 0.1], live=True)
    Y, Z = _backward_values(spec, 0, grid, X, dW, measures, degree)
    _, yhat = KnotRegression(X[k], degree).solve(Y[k + 1])
    t, (mu, nus) = grid.times[k], measures[k]
    rows = [slice(p, p + 1) for p in range(n)]
    alpha = np.concatenate([minimize_controls(spec, 0, t, X[k][r], mu, nus,
                                              yhat[r]) for r in rows])
    mean_y, mean_z = yhat.mean(axis=0), Z[k].mean(axis=0)
    dx = np.concatenate([
        dx_hamiltonian_batch(spec, 0, t, X[k][r], mu, nus, yhat[r], Z[k][r],
                             alpha[r]) for r in rows])
    dmu = np.concatenate([
        dmu_hamiltonian_batch(spec, 0, t, X[k], mu, nus, alpha, X[k][r],
                              mean_y, mean_z, np.zeros((1, 2))) for r in rows])
    np.testing.assert_allclose(Y[k], yhat + grid.dt * (dx + dmu), rtol=1e-12)
    # the measure gradient holds the own-mean drift and diffusion terms and
    # the copy average of df_dmu
    df_dmu = spec.populations[0].cost.df_dmu(t, X[k], mu, nus, alpha, X[k])
    want = (lq.A_bar.T @ mean_y + np.einsum("jlm,jl->m", s1_bar, mean_z)
            + df_dmu.mean(axis=0))
    np.testing.assert_allclose(dmu, np.broadcast_to(want, dmu.shape),
                               rtol=1e-12)


def test_dx_hamiltonian_is_the_state_gradient_of_the_full_hamiltonian():
    # the s1 . Z term of the state gradient included: a central difference
    # in x of b.y + tr(sigma(x)' z) + f, written out from the model data
    spec, lq, s1, s1_bar = _diffusive_planner()
    f = spec.populations[0].cost.f
    rng = np.random.default_rng(5)
    n, t = 8, 0.2
    X = rng.standard_normal((n, 2))
    Y = rng.standard_normal((n, 2))
    Z = rng.standard_normal((n, 2, 2))
    alpha = rng.standard_normal((n, 1))
    mu, nus = ParticleCloud(rng.standard_normal((16, 2)) + 0.5), ()
    m = mu.mean

    def full(Xs):
        b = lq.a + Xs @ lq.A.T + lq.A_bar @ m + alpha @ lq.B.T
        sigma = (lq.sigma + np.einsum("jlq,nq->njl", s1, Xs)
                 + np.einsum("jlq,q->jl", s1_bar, m))
        return (np.sum(b * Y, axis=1) + np.einsum("njl,njl->n", sigma, Z)
                + f(t, Xs, mu, nus, alpha))

    dx = dx_hamiltonian_batch(spec, 0, t, X, mu, nus, Y, Z, alpha)
    h = 1e-6
    for c in range(2):
        step = np.zeros(2)
        step[c] = h
        fd = (full(X + step) - full(X - step)) / (2 * h)
        np.testing.assert_allclose(dx[:, c], fd, rtol=1e-6, atol=1e-8)


def _count_linalg(monkeypatch, *names):
    """Live call counts of the named np.linalg functions."""
    calls = dict.fromkeys(names, 0)

    def counted(name):
        orig = getattr(np.linalg, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)

        return call

    for name in names:
        monkeypatch.setattr(np.linalg, name, counted(name))
    return calls


@pytest.mark.parametrize("case, solves_per_knot", [("lq-1pop", 1),
                                                    ("diffusive-planner", 2)])
def test_z_is_regressed_only_for_a_state_linear_diffusion(case,
                                                          solves_per_knot,
                                                          monkeypatch):
    # Z reaches the driver only through s1 or s1_bar: a game that sets
    # neither fits Y alone at each knot below K, and _diffusive_planner
    # (which sets both) fits Y and Z
    spec = (builtin_game(case) if case == "lq-1pop"
            else _diffusive_planner()[0])
    grid, n = TimeGrid(spec.horizon, 4), 64
    flows = uncontrolled_flows(spec, grid.n_steps, n, 0)
    xi, dW = solver_draws(spec, 0, n, grid, 1)
    live = spec.populations[0].cooperation == COOPERATIVE
    (X, _, measures), = euler_scheme(
        spec, grid, (0,), [xi], [dW],
        [lambda k, t, X, mu, nus: 0.3 * X[:, :1] - 0.1], flows, live=live)
    solve = KnotRegression.solve
    targets = []

    def counted(fit, Y):
        targets.append(Y.shape[1])
        return solve(fit, Y)

    monkeypatch.setattr(KnotRegression, "solve", counted)
    _backward(spec, 0, grid, X, dW, measures, 2, lambda k, fit, Yk: None)
    d = spec.populations[0].state_dim
    assert targets == [d, d * d][:solves_per_knot] * grid.n_steps


def test_one_factorization_per_knot_and_no_lstsq_or_solve(monkeypatch):
    spec = builtin_game("lq-1pop")
    cfg = SolverConfig(n_steps=10, n_paths=512)
    flows = uncontrolled_flows(spec, cfg.n_steps, cfg.n_paths, 0)
    calls = _count_linalg(monkeypatch, "cholesky", "svd", "lstsq", "solve")
    sol = solve_adjoint(spec, 0, flows, cfg, seed=0)
    sweeps = len(sol.picard_history)
    assert sweeps >= 2
    # every Picard sweep factors knots 0..K once (knot K for the refit
    # only), by Cholesky or by the SVD it falls back to; the final forward
    # pass factors none
    assert calls["cholesky"] + calls["svd"] == sweeps * (cfg.n_steps + 1)
    assert calls["lstsq"] == 0
    assert calls["solve"] == 0


@pytest.mark.parametrize("case", ["two-valued", "badly-scaled"])
def test_ill_conditioned_knots_take_the_svd_path(case, monkeypatch):
    # a two-valued knot's degree-2 Gram matrix is singular, and one at
    # states of order 1e-4 spans seven decades; both must fit as lstsq does
    calls = _count_linalg(monkeypatch, "cholesky", "svd")
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(40, 4097))
        if case == "two-valued":
            X, degree, _ = _knot_sample(rng, case, 1, 2, n)
        else:
            X, degree = 2e-4 * rng.standard_normal((n, 1)), 2
        targets = rng.standard_normal((n, 2)) + X ** 2
        fit = KnotRegression(X, degree)
        assert calls["svd"] == seed + 1
        beta_ref = np.linalg.lstsq(fit.F, targets, rcond=None)[0]
        beta, fitted = fit.solve(targets)
        np.testing.assert_allclose(beta, beta_ref, rtol=1e-9,
                                   atol=1e-9 * np.abs(beta_ref).max())
        fitted_ref = fit.F @ beta_ref
        np.testing.assert_allclose(fitted, fitted_ref, rtol=1e-9,
                                   atol=1e-9 * np.abs(fitted_ref).max())
    assert calls["cholesky"] == 200


def _knot_sample(rng, case, d, degree, n):
    """States X of one knot, the degree, and the rank of their features."""
    if case == "two-valued":
        # x^2 is a combination of 1 and x, so the degree-2 basis has rank 2
        a = rng.uniform(-2.0, 2.0)
        X = np.where(rng.random((n, 1)) < 0.5, a, a + rng.uniform(0.5, 2.0))
        return X, 2, 2
    X = rng.standard_normal((n, d))
    if case == "constant-coordinate":
        # d = 2: every monomial is a multiple of one in x_1 alone
        X[:, -1] = rng.uniform(-3.0, 3.0)
        return X, degree, degree + 1
    return X, degree, _features(X, degree).shape[1]


@settings(max_examples=150, deadline=None)
@given(case=st.sampled_from(["full", "constant-coordinate", "two-valued"]),
       d=st.integers(1, 2), degree=st.integers(1, 3), n=st.integers(40, 400),
       m=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_knot_regression_matches_lstsq(case, d, degree, n, m, seed):
    if case == "constant-coordinate":
        d = 2
    rng = np.random.default_rng(seed)
    X, degree, rank = _knot_sample(rng, case, d, degree, n)
    targets = rng.standard_normal((n, m)) + X[:, :1] ** 2
    fit = KnotRegression(X, degree)
    F = _features(X, degree)
    beta_ref, _, rank_ref, _ = np.linalg.lstsq(F, targets, rcond=None)
    assert rank_ref == rank
    beta, fitted = fit.solve(targets)
    np.testing.assert_allclose(beta, beta_ref, rtol=1e-9,
                               atol=1e-9 * np.abs(beta_ref).max())
    fitted_ref = F @ beta_ref
    np.testing.assert_allclose(fitted, fitted_ref, rtol=1e-9,
                               atol=1e-9 * np.abs(fitted_ref).max())

import dataclasses

import numpy as np
import pytest

from mfglab.fbsde import (
    PicardError,
    SolverConfig,
    euler_scheme,
    lq_from_game,
    optimal_cost,
    solve_adjoint,
    solve_adjoint_competitive,
    solve_adjoint_mkv,
    solve_lq_riccati,
    verify_sufficiency,
)
from mfglab.fixedpoint import uncontrolled_flows
from mfglab.measures import MeasureFlow, ParticleCloud, TimeGrid
from mfglab.model import COOPERATIVE, builtin_game, gaussian_initial_law
from mfglab.model import DiffusionCoefficients, PopulationLq
from mfglab.model import GameSpec, ModelConstants, StructuralFlags
from mfglab.model import population_from_lq


CFG = SolverConfig(n_steps=25, n_paths=2048)


def _scalar_setup(seed=0):
    spec = builtin_game("lq-scalar")
    flows = uncontrolled_flows(spec, CFG.n_steps, CFG.n_paths, seed)
    return spec, flows


def test_field_slope_tracks_riccati():
    spec, flows = _scalar_setup()
    sol = solve_adjoint_competitive(spec, 0, flows, CFG, seed=0)
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
    sol = solve_adjoint_competitive(spec, 0, flows, CFG, seed=0)
    oracle = solve_lq_riccati(lq_from_game(spec), sol.grid)
    for k in (0, 10, 20):
        z_mean = float(sol.Z[k].mean())
        P = oracle.P_at(0, sol.grid.times[k])[0, 0]
        assert abs(z_mean - P) <= 0.15


def test_costs_match_lq_oracle():
    spec, flows = _scalar_setup()
    sol = solve_adjoint_competitive(spec, 0, flows, CFG, seed=0)
    est, se = optimal_cost(spec, 0, sol, flows)
    oracle = solve_lq_riccati(lq_from_game(spec), sol.grid)
    assert abs(est - oracle.costs[0]) <= max(0.05, 4.0 * se)


def test_dispatcher_matches_mode_specific_solvers():
    spec, flows = _scalar_setup()
    a = solve_adjoint_competitive(spec, 0, flows, CFG, seed=0)
    b = solve_adjoint(spec, 0, flows, CFG, seed=0)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.Y, b.Y)
    assert np.array_equal(a.controls, b.controls)


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
    a = solve_adjoint_competitive(comp_spec, 0, flows, CFG, seed=0)
    b = solve_adjoint_mkv(coop_spec, 0, flows, CFG, seed=0)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.Y, b.Y)
    assert np.array_equal(a.Z, b.Z)
    assert np.array_equal(a.controls, b.controls)


def test_mode_guards():
    comp_spec, flows = _scalar_setup()
    coop_spec = _planner_twin_of_scalar()
    with pytest.raises(ValueError, match="competitive"):
        solve_adjoint_mkv(comp_spec, 0, flows, CFG, seed=0)
    with pytest.raises(ValueError, match="cooperative"):
        solve_adjoint_competitive(coop_spec, 0, flows, CFG, seed=0)


def test_picard_failure_reports_history():
    spec, flows = _scalar_setup()
    cfg = SolverConfig(n_steps=25, n_paths=512, picard_tol=1e-16,
                       max_picard=2)
    with pytest.raises(PicardError) as err:
        solve_adjoint_competitive(spec, 0, flows, cfg, seed=0)
    assert len(err.value.history) == 2
    assert "stalled" in str(err.value)


def test_warm_start_converges_at_least_as_fast():
    spec, flows = _scalar_setup()
    cold = solve_adjoint_competitive(spec, 0, flows, CFG, seed=0)
    warm = solve_adjoint_competitive(spec, 0, flows, CFG, seed=0,
                                     initial_field=cold.field)
    assert len(warm.picard_history) <= len(cold.picard_history)


def test_flow_mismatch_rejected():
    spec, _ = _scalar_setup()
    bad = uncontrolled_flows(spec, 10, 64, 0)
    with pytest.raises(ValueError, match="time grid"):
        solve_adjoint_competitive(spec, 0, bad, CFG, seed=0)


def test_state_flow_shape():
    spec, flows = _scalar_setup()
    sol = solve_adjoint_competitive(spec, 0, flows, CFG, seed=0)
    flow = sol.state_flow()
    assert len(flow.clouds) == CFG.n_steps + 1
    assert flow.clouds[0].points.shape == (CFG.n_paths, 1)
    assert np.array_equal(flow.clouds[0].points, sol.X[0])


def test_sufficiency_passes_on_solution():
    spec, flows = _scalar_setup()
    sol = solve_adjoint_competitive(spec, 0, flows, CFG, seed=0)
    report = verify_sufficiency(spec, 0, sol, flows, n_deviations=6, seed=0)
    assert report.passed
    assert report.margins.shape == (6,)
    assert np.all(report.standard_errors > 0)


def test_sufficiency_requires_matching_seed():
    spec, flows = _scalar_setup()
    sol = solve_adjoint_competitive(spec, 0, flows, CFG, seed=0)
    shifted = uncontrolled_flows(spec, CFG.n_steps, CFG.n_paths, 1)
    sol_other = solve_adjoint_competitive(spec, 0, shifted, CFG, seed=1)
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
        steps = euler_scheme(spec, grid, (0,), [x], [dW],
                             [lambda k, t, X, mu, nus: alpha], [flow],
                             live=live)
        stepped = [states[0] for _, states, _, _ in steps][-1]
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

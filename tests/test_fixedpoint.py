import dataclasses
import gc
import os
import runpy
import weakref

import numpy as np
import pytest

from mfglab import fixedpoint, measures
from mfglab.fbsde import (
    THETA_MIN,
    SolverConfig,
    lq_from_game,
    solve_lq_riccati,
)
from mfglab.fixedpoint import (
    FixedPointConfig,
    solve_matching,
    truncated_solve,
    uncontrolled_flows,
    write_history_csv,
)
from mfglab.hamiltonian import minimize_controls
from mfglab.measures import (MeasureFlow, ParticleCloud, flow_distance,
                             sliced_w2, wasserstein2_1d)
from mfglab.model import (COMPETITIVE, GameSpec, ModelConstants, _lq1,
                          builtin_game, gaussian_initial_law,
                          population_from_lq)

from conftest import cached_equilibrium, fp_config


SMALL = FixedPointConfig(solver=SolverConfig(n_steps=25, n_paths=1024))
MODELS = os.path.join(os.path.dirname(__file__), os.pardir, "mfgbench",
                      "models")


def test_two_population_means_track_ode_oracle():
    spec = builtin_game("lq-2pop-competitive")
    report = cached_equilibrium("lq-2pop-competitive", n_steps=25,
                                n_paths=2048)
    assert report.converged
    grid = report.flows[0].grid
    oracle = solve_lq_riccati(lq_from_game(spec), grid)
    for i in range(2):
        means = np.array([c.points.mean(axis=0) for c in report.flows[i].clouds])
        target = oracle.means_on(grid, i)
        scale = np.abs(target).max()
        gap = np.abs(means - target).max()
        assert gap <= 5e-2 * (1.0 + scale)


def test_decoupled_game_converges_in_two_iterations():
    # no measure coupling anywhere, so the update map is constant: the
    # first pass lands on the fixed point and the second confirms it
    report = cached_equilibrium("lq-scalar", n_steps=25, n_paths=1024)
    assert report.converged
    assert report.iterations <= 2
    single = builtin_game("lq-scalar")
    flows0 = uncontrolled_flows(single, 25, 1024, 0)
    from mfglab.fbsde import solve_adjoint
    sol = solve_adjoint(single, 0, flows0, SMALL.solver, seed=0)
    lone = MeasureFlow(sol.grid, sol.X)
    gaps = [
        wasserstein2_1d(report.flows[0].clouds[k], lone.clouds[k])
        for k in range(len(lone.clouds))
    ]
    assert max(gaps) <= 5e-2


def test_report_serializes_and_history_written(tmp_path):
    report = cached_equilibrium("lq-scalar", n_steps=25, n_paths=1024)
    d = report.to_dict()
    assert d["converged"] is True
    assert d["history"][0]["iteration"] == 1
    # too few iterations here for a decay-rate fit; the field stays present
    assert d["delta_ratio"] is None
    # a decoupled game converges before any secant step
    assert [row["contraction"] for row in d["history"]] == [None, None]
    path = tmp_path / "history.csv"
    write_history_csv(report, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "iteration,delta,theta,delta_pop0,cost_pop0,picard_pop0"
    assert len(lines) == report.iterations + 1


def test_contractive_delta_ratio():
    report = cached_equilibrium("lq-2pop-competitive", n_steps=25,
                                n_paths=2048)
    assert report.delta_ratio is not None
    assert report.delta_ratio < 1.0


def test_reported_flows_are_the_final_paths():
    report = cached_equilibrium("lq-2pop-competitive", n_steps=10,
                                n_paths=512)
    for flow, sol in zip(report.flows, report.solutions):
        assert flow.points.shape == sol.X.shape
        assert flow.points.tobytes() == sol.X.tobytes()


def test_nonconvergence_reported_not_raised():
    spec = builtin_game("lq-1pop")
    cfg = FixedPointConfig(solver=SolverConfig(n_steps=10, n_paths=256),
                           fp_tol=1e-9, max_iterations=3)
    report = solve_matching(spec, cfg, seed=0)
    assert not report.converged
    assert report.iterations == 3


@pytest.mark.parametrize("model", ["lq-2pop-competitive", "lq2d_mixed.py"])
def test_delta_is_the_paired_gap_and_bounds_flow_distance(model, monkeypatch):
    # each Phi output is recorded as its adjoint solve returns; iteration 1
    # compares with the uncontrolled flows, which come from the same draws
    if model.endswith(".py"):
        spec = runpy.run_path(os.path.join(MODELS, model))["make_game"]()
    else:
        spec = builtin_game(model)
    outputs, sliced_calls = [], []
    solve = fixedpoint.solve_adjoint

    def recording(*args, **kwargs):
        sol = solve(*args, **kwargs)
        outputs.append(MeasureFlow(sol.grid, sol.X))
        return sol

    def counting(*args, **kwargs):
        sliced_calls.append(1)
        return sliced_w2(*args, **kwargs)

    monkeypatch.setattr(fixedpoint, "solve_adjoint", recording)
    monkeypatch.setattr(measures, "sliced_w2", counting)
    cfg = FixedPointConfig(solver=SolverConfig(n_steps=10, n_paths=512))
    report = solve_matching(spec, cfg, seed=0)
    assert not sliced_calls
    m = spec.n_populations
    assert len(outputs) == m * report.iterations
    prev = uncontrolled_flows(spec, 10, 512, 0)
    for t, row in enumerate(report.history):
        now = outputs[m * t:m * (t + 1)]
        for i in range(m):
            paired = max(
                np.sqrt(np.mean(np.sum((a - b) ** 2, axis=1)))
                for a, b in zip(now[i].points, prev[i].points))
            assert row.deltas[i] == pytest.approx(paired, rel=1e-14, abs=0)
            # in d = 1 the two agree up to rounding where the pairing is
            # monotone at the worst knot
            assert row.deltas[i] >= flow_distance(now[i], prev[i]) * (1 - 1e-12)
        prev = now


def _anti_coordination(s):
    # lq-1pop's data with anti-coordination weights S = G = s and Wg = 3
    lq = _lq1(A=0.0, B=1.0, sigma=1.0, R=1.0, W=1.0, Wg=3.0, S=s, G=s)
    pop = population_from_lq(lq, COMPETITIVE, gaussian_initial_law([1.0], 0.5),
                             initial_mean=[1.0], initial_cov=[[0.25]])
    return GameSpec(populations=(pop,), horizon=1.0,
                    constants=ModelConstants(1.0, 0.5, 1.0), name="anti")


def test_state_blow_up_names_population_iteration_and_knot():
    # undamped in its first mixing, this game's states overflow in the
    # regression features before a secant step can damp them
    cfg = FixedPointConfig(solver=SolverConfig(n_steps=20, n_paths=1024),
                           theta=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match=r"population 0 at iteration "
                           r"\d+: knot \d+, max \|state\| "):
            solve_matching(_anti_coordination(-40.0), cfg, seed=0)


@pytest.mark.parametrize("s, theta, budget", [
    (-6.0, 0.5, 16),
    (-3.0, 0.5, 24),
    (-6.0, 1.0, 50),
])
def test_secant_step_damps_anti_coordination_games(s, theta, budget):
    # with a fixed weight of 0.5 these games took 16 and 24 iterations, and
    # with a fixed weight of 1 the s = -6 game overflowed at iteration 4
    cfg = FixedPointConfig(solver=SolverConfig(n_steps=20, n_paths=1024),
                           theta=theta)
    report = solve_matching(_anti_coordination(s), cfg, seed=0)
    assert report.converged
    assert report.iterations <= budget


def test_secant_step_alone_sets_theta():
    # this game's deltas rise three times in a row, where a stall rule
    # would cut the weight; the secant step alone must set it
    cfg = FixedPointConfig(solver=SolverConfig(n_steps=20, n_paths=1024),
                           theta=0.5)
    report = solve_matching(_anti_coordination(-6.0), cfg, seed=0)
    rows = report.history
    assert report.converged and len(rows) >= 4
    assert rows[0].theta == 0.5
    assert all(row.contraction is not None for row in rows[1:-1])
    for prev, row in zip(rows[1:-1], rows[2:]):
        j = prev.contraction - 1.0
        want = min(max(-1.0 / j, THETA_MIN), 1.0) if j < 0.0 else prev.theta
        assert row.theta == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("name", ["lq-1pop", "mixed-opec"])
def test_picard_weights_open_cold_at_damping_and_warm_at_the_last(name):
    report = cached_equilibrium(name)
    rows = report.to_dict()["history"]
    first = rows[0]["picard_dampings"]
    assert all(w[0] == report.config.solver.damping for w in first)
    if name == "lq-1pop":
        assert len(first[0]) <= 5  # 7 sweeps at a fixed weight of 0.5
    for prev, row in zip([None] + rows, rows):
        for i, weights in enumerate(row["picard_dampings"]):
            assert len(weights) == row["picard_iterations"][i]
            assert all(THETA_MIN <= w <= 1.0 for w in weights)
            if prev is not None:
                assert weights[0] == prev["picard_dampings"][i][-1]


def test_previous_solutions_released_before_next_solves(monkeypatch):
    # only the fields are read as warm starts, so the solutions and controls
    # of one iteration must be gone when the next iteration's solves begin;
    # the last paths of each population live on only as its last Phi
    # output's points, which the paired delta and the secant step read
    real = fixedpoint.solve_adjoint
    spec = builtin_game("lq-2pop-competitive")
    m = spec.n_populations
    sols, controls, paths, stale, last = [], [], [], [], [None]

    def tracked(spec, i, flows, *args, **kwargs):
        if flows is not last[0]:
            last[0] = flows
            gc.collect()
            stale.append(sum(r() is not None
                             for r in sols + controls + paths[:-m]))
        sol = real(spec, i, flows, *args, **kwargs)
        sols.append(weakref.ref(sol))
        controls.append(weakref.ref(sol.controls))
        paths.append(weakref.ref(sol.X))
        return sol

    monkeypatch.setattr(fixedpoint, "solve_adjoint", tracked)
    cfg = FixedPointConfig(solver=SolverConfig(n_steps=10, n_paths=512))
    report = solve_matching(spec, cfg, seed=0)
    assert report.iterations >= 3
    assert stale == [0] * report.iterations


def test_worker_count_does_not_change_results():
    spec = builtin_game("lq-2pop-competitive")
    cfg = FixedPointConfig(solver=SolverConfig(n_steps=10, n_paths=512))
    a = solve_matching(spec, cfg, seed=0, workers=1)
    b = solve_matching(spec, cfg, seed=0, workers=8)
    for i in range(2):
        for ca, cb in zip(a.flows[i].clouds, b.flows[i].clouds):
            assert np.array_equal(ca.points, cb.points)
    assert a.costs == b.costs
    slopes = [row.contraction for row in a.history]
    assert slopes == [row.contraction for row in b.history]
    assert slopes[0] is None and slopes[1] is not None


def test_truncation_at_huge_level_is_identity():
    spec = builtin_game("lq-1pop")
    cfg = FixedPointConfig(solver=SolverConfig(n_steps=10, n_paths=512))
    plain = solve_matching(spec, cfg, seed=0)
    capped = truncated_solve(spec, 1e6, cfg, seed=0)
    for ca, cb in zip(plain.flows[0].clouds, capped.flows[0].clouds):
        assert np.array_equal(ca.points, cb.points)
    assert all(not b for b in capped.truncation_binding)
    assert capped.truncation_level == 1e6
    assert capped.spec_name == spec.name


def test_truncation_at_tiny_level_binds_and_moves_the_flow():
    spec = builtin_game("lq-1pop")
    cfg = FixedPointConfig(solver=SolverConfig(n_steps=10, n_paths=512))
    plain = solve_matching(spec, cfg, seed=0)
    capped = truncated_solve(spec, 0.25, cfg, seed=0)
    assert any(b for b in capped.truncation_binding)
    gap = flow_distance(plain.flows[0], capped.flows[0])
    assert gap > 1e-3


def test_truncation_binding_counts_bound_clouds_of_the_input_flows():
    spec = builtin_game("lq-1pop")
    cfg = FixedPointConfig(solver=SolverConfig(n_steps=10, n_paths=512))
    # every input cloud has a second-moment scale near 1.1, so at 0.25
    # the one competitive population's own cloud binds at all 11 knots
    capped = truncated_solve(spec, 0.25, cfg, seed=0)
    assert capped.truncation_binding == [{str(k): 512 for k in range(11)}]
    # at a level inside the spread of those scales only some knots bind
    capped = truncated_solve(spec, 1.13, cfg, seed=0)
    scales = [np.sqrt(np.mean(c.points[:, 0] ** 2))
              for c in capped.input_flows[0].clouds]
    want = {str(k): 512 for k, m2 in enumerate(scales) if m2 > 1.13}
    assert 0 < len(want) < 11
    assert capped.truncation_binding == [want]


def test_truncation_reaches_both_minimizers():
    # lq-1pop's cost tilted by alpha * mean(mu): f, df_dalpha and the
    # closed form's quad_linear all read the own measure, which at level 1
    # truncates a cloud at 4.0 to one at 1.0
    spec = builtin_game("lq-1pop")
    pop = spec.populations[0]
    base = pop.cost

    def f(t, x, mu, nus, alpha):
        return base.f(t, x, mu, nus, alpha) + alpha @ mu.mean

    def df_dalpha(t, x, mu, nus, alpha):
        return base.df_dalpha(t, x, mu, nus, alpha) + mu.mean

    def quad_linear(t, x, mu, nus):
        return base.quad_linear(t, x, mu, nus) + mu.mean

    closed = dataclasses.replace(base, f=f, df_dalpha=df_dalpha,
                                 quad_linear=quad_linear)
    gradient = dataclasses.replace(closed, quadratic_in_alpha=False)
    cloud = ParticleCloud(np.full((8, 1), 4.0))
    zeros = np.zeros((8, 1))
    for cost in (closed, gradient):
        capped = fixedpoint._truncating_population(
            dataclasses.replace(pop, cost=cost), 1.0)
        game = dataclasses.replace(spec, populations=(capped,))
        alpha = minimize_controls(game, 0, 0.0, zeros, cloud, (), zeros)
        np.testing.assert_allclose(alpha, -1.0, rtol=1e-8)


def test_truncation_level_must_be_positive():
    spec = builtin_game("lq-1pop")
    with pytest.raises(ValueError, match="positive"):
        truncated_solve(spec, 0.0, SMALL, seed=0)
    with pytest.raises(ValueError, match="finite"):
        truncated_solve(spec, np.inf, SMALL, seed=0)


@pytest.mark.parametrize("level", [0.0, -1.0, np.nan, np.inf])
def test_truncation_level_refused_before_solving(monkeypatch, level):
    def refuse(*args, **kwargs):
        raise AssertionError("solved before checking the level")

    monkeypatch.setattr(fixedpoint, "solve_matching", refuse)
    with pytest.raises(ValueError, match="^level: must be positive and "
                       "finite, got %s$" % level):
        truncated_solve(builtin_game("lq-1pop"), level, SMALL, seed=0)


def test_config_validation():
    with pytest.raises(ValueError, match="theta"):
        FixedPointConfig(theta=0.0)


@pytest.mark.parametrize("make, field, value", [
    (SolverConfig, "max_picard", 0),
    (SolverConfig, "picard_tol", 0.0),
    (SolverConfig, "picard_tol", float("nan")),
    (SolverConfig, "picard_tol", float("inf")),
    (FixedPointConfig, "max_iterations", 0),
    (FixedPointConfig, "fp_tol", -1e-3),
    (FixedPointConfig, "fp_tol", float("nan")),
    (FixedPointConfig, "fp_tol", float("inf")),
])
def test_config_rejects_empty_budgets_and_unreachable_tolerances(make, field,
                                                                value):
    # an empty budget leaves no iterate to report, no change is ever
    # below a NaN or non-positive tolerance, and every one is below inf
    with pytest.raises(ValueError, match="^%s: " % field):
        make(**{field: value})

import gc
import weakref

import numpy as np
import pytest

from mfglab import fixedpoint
from mfglab.fbsde import SolverConfig, lq_from_game, solve_lq_riccati
from mfglab.fixedpoint import (
    FixedPointConfig,
    solve_matching,
    truncated_solve,
    uncontrolled_flows,
    write_history_csv,
)
from mfglab.measures import (empirical_from_states, flow_distance,
                             wasserstein2_1d)
from mfglab.model import (COMPETITIVE, GameSpec, ModelConstants, _lq1,
                          builtin_game, gaussian_initial_law,
                          population_from_lq)

from conftest import cached_equilibrium, fp_config


SMALL = FixedPointConfig(solver=SolverConfig(n_steps=25, n_paths=1024))


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
    lone = empirical_from_states(sol.grid, sol.X)
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


def test_nonconvergence_reported_not_raised():
    spec = builtin_game("lq-1pop")
    cfg = FixedPointConfig(solver=SolverConfig(n_steps=10, n_paths=256),
                           fp_tol=1e-9, max_iterations=3)
    report = solve_matching(spec, cfg, seed=0)
    assert not report.converged
    assert report.iterations == 3


def _anti_coordination(s):
    # lq-1pop's data with anti-coordination weights S = G = s and Wg = 3
    lq = _lq1(A=0.0, B=1.0, sigma=1.0, R=1.0, W=1.0, Wg=3.0, S=s, G=s)
    pop = population_from_lq(lq, COMPETITIVE, gaussian_initial_law([1.0], 0.5),
                             initial_mean=[1.0], initial_cov=[[0.25]])
    return GameSpec(populations=(pop,), horizon=1.0,
                    constants=ModelConstants(1.0, 0.5, 1.0), name="anti")


def test_state_blow_up_names_population_iteration_and_knot():
    # undamped with a fixed weight, the states overflow in the regression
    # features; resample mixing takes no secant step that could damp it
    cfg = FixedPointConfig(solver=SolverConfig(n_steps=20, n_paths=1024),
                           theta=1.0, mix="resample")
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match=r"population 0 at iteration "
                           r"\d+: knot \d+, max \|state\| "):
            solve_matching(_anti_coordination(-8.0), cfg, seed=0)


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


def test_previous_solutions_released_before_next_solves(monkeypatch):
    # only the fields are read as warm starts, so the paths and controls of
    # one iteration must be gone when the next iteration's solves begin
    real = fixedpoint.solve_adjoint
    refs, stale, last = [], [], [None]

    def tracked(spec, i, flows, *args, **kwargs):
        if flows is not last[0]:
            last[0] = flows
            gc.collect()
            stale.append(sum(r() is not None for r in refs))
        sol = real(spec, i, flows, *args, **kwargs)
        refs.extend((weakref.ref(sol.X), weakref.ref(sol.controls)))
        return sol

    monkeypatch.setattr(fixedpoint, "solve_adjoint", tracked)
    spec = builtin_game("lq-2pop-competitive")
    cfg = FixedPointConfig(solver=SolverConfig(n_steps=10, n_paths=512))
    report = solve_matching(spec, cfg, seed=0)
    assert report.iterations >= 3
    assert stale == [0] * report.iterations


def test_resample_mix_variant_converges():
    spec = builtin_game("lq-1pop")
    cfg = FixedPointConfig(solver=SolverConfig(n_steps=10, n_paths=512),
                           mix="resample")
    report = solve_matching(spec, cfg, seed=0)
    assert report.converged
    # no secant step and no halving here: every input mixed at theta0
    assert [row.theta for row in report.history] == [0.5] * report.iterations
    assert all(row.contraction is None for row in report.history)


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


def test_truncation_level_must_be_positive():
    spec = builtin_game("lq-1pop")
    with pytest.raises(ValueError, match="positive"):
        truncated_solve(spec, 0.0, SMALL, seed=0)


def test_config_validation():
    with pytest.raises(ValueError, match="mix"):
        FixedPointConfig(mix="geometric")
    with pytest.raises(ValueError, match="theta"):
        FixedPointConfig(theta=0.0)


def test_config_needs_a_projection():
    with pytest.raises(ValueError, match="n_projections"):
        FixedPointConfig(n_projections=0)


@pytest.mark.parametrize("make, field, value", [
    (SolverConfig, "max_picard", 0),
    (SolverConfig, "picard_tol", 0.0),
    (SolverConfig, "picard_tol", float("nan")),
    (FixedPointConfig, "max_iterations", 0),
    (FixedPointConfig, "fp_tol", -1e-3),
    (FixedPointConfig, "fp_tol", float("nan")),
])
def test_config_rejects_empty_budgets_and_unreachable_tolerances(make, field,
                                                                value):
    # an empty budget leaves no iterate to report, and no change is ever
    # below a NaN or non-positive tolerance
    with pytest.raises(ValueError, match=field):
        make(**{field: value})

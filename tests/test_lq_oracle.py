import dataclasses
import os
import runpy

import numpy as np
import pytest

from mfglab.fbsde import (
    LqSpec,
    RiccatiError,
    SolverConfig,
    lq_from_game,
    solve_adjoint,
    solve_lq_riccati,
)
from mfglab.fixedpoint import FixedPointConfig, solve_matching, uncontrolled_flows
from mfglab.measures import TimeGrid
from mfglab.model import COMPETITIVE, COOPERATIVE, builtin_game, population_from_lq
from mfglab.model import DiffusionCoefficients, PopulationLq
from mfglab.model import GameSpec, ModelConstants, StructuralFlags
from mfglab.model import gaussian_initial_law


def closed_form_P(t):
    """Hand-solved scalar Riccati for A=0, B=R=W=1, Wg=0.5, T=1.

    dP/dt = P^2 - 1 with P(1) = 1/2 has the logistic-in-exp solution
    P(t) = (3 - e^{2(t-1)}) / (3 + e^{2(t-1)}).
    """
    e = np.exp(2.0 * (t - 1.0))
    return (3.0 - e) / (3.0 + e)


def test_scalar_riccati_matches_closed_form():
    spec = builtin_game("lq-scalar")
    grid = TimeGrid(1.0, 50)
    sol = solve_lq_riccati(lq_from_game(spec), grid)
    worst = max(abs(sol.P_at(0, t)[0, 0] - closed_form_P(t))
                for t in grid.times)
    assert worst <= 1e-8


def test_riccati_refinement_order():
    spec = builtin_game("lq-scalar")
    grid = TimeGrid(1.0, 10)
    lq = lq_from_game(spec)
    err = {}
    for refine in (1, 8):
        sol = solve_lq_riccati(lq, grid, refine=refine)
        err[refine] = max(abs(sol.P_at(0, t)[0, 0] - closed_form_P(t))
                          for t in grid.times)
    # classical fourth-order convergence: 8x finer steps, >= 100x closer
    assert err[8] <= err[1] / 100.0


@pytest.mark.parametrize("refine", [0, 0.5, -1, 2.5])
def test_riccati_refuses_a_bad_refine(refine):
    lq = lq_from_game(builtin_game("lq-scalar"))
    with pytest.raises(ValueError, match=r"^refine: must be an integer >= 1, "
                       r"got %s$" % refine):
        solve_lq_riccati(lq, TimeGrid(1.0, 50), refine=refine)


def test_riccati_blow_up_raises():
    spec = builtin_game("lq-scalar")
    lq = lq_from_game(spec)
    bad_block = dataclasses.replace(lq.blocks[0], W=np.array([[-30.0]]))
    bad = LqSpec(blocks=(bad_block,), cooperation=lq.cooperation,
                 horizon=lq.horizon, init_mean=lq.init_mean,
                 init_cov=lq.init_cov,
                 convexity_lambda=lq.convexity_lambda)
    with pytest.raises(RiccatiError):
        solve_lq_riccati(bad, TimeGrid(1.0, 50))


def test_lqspec_rejects_weak_curvature():
    spec = builtin_game("lq-scalar")
    lq = lq_from_game(spec)
    soft = dataclasses.replace(lq.blocks[0], R=np.array([[0.5]]))
    with pytest.raises(ValueError, match="curvature"):
        LqSpec(blocks=(soft,), cooperation=lq.cooperation,
               horizon=lq.horizon, init_mean=lq.init_mean,
               init_cov=lq.init_cov, convexity_lambda=lq.convexity_lambda)


def test_lqspec_rejects_competitive_own_mean_drift():
    spec = builtin_game("lq-scalar")
    lq = lq_from_game(spec)
    drifty = dataclasses.replace(lq.blocks[0], A_bar=np.array([[0.3]]))
    with pytest.raises(ValueError, match="own-mean"):
        LqSpec(blocks=(drifty,), cooperation=(COMPETITIVE,),
               horizon=lq.horizon, init_mean=lq.init_mean,
               init_cov=lq.init_cov, convexity_lambda=lq.convexity_lambda)


@pytest.mark.parametrize("name", ["C", "S_bar", "G_bar"])
def test_lqspec_rejects_surplus_cross_blocks(name):
    # a cross block past the last other population used to be ignored
    lq = lq_from_game(builtin_game("lq-2pop-competitive"))
    surplus = dataclasses.replace(lq.blocks[1],
                                  **{name: (np.ones((1, 1)),) * 2})
    with pytest.raises(ValueError, match="^population 1 %s has 2 blocks "
                       "for 1 other populations$" % name):
        dataclasses.replace(lq, blocks=(lq.blocks[0], surplus))


def test_lqspec_rejects_mixed_state_dimensions():
    # used to fail inside the oracle with a numpy broadcasting error
    lq = lq_from_game(builtin_game("lq-2pop-competitive"))
    eye = np.eye(2)
    wide = PopulationLq(A=eye, B=eye, sigma=eye, R=eye, W=eye, Wg=eye)
    with pytest.raises(ValueError, match="^population 1 has state "
                       "dimension 2 but population 0 has 1;"):
        dataclasses.replace(lq, blocks=(lq.blocks[0], wide))


@pytest.mark.parametrize("field, value, message", [
    ("init_mean", (np.zeros(1),),
     r"population 1 init_mean: expected shape \(1,\), got no entry"),
    ("init_cov", (np.eye(1),),
     r"population 1 init_cov: expected shape \(1, 1\), got no entry"),
    ("init_cov", (np.eye(2), np.eye(1)),
     r"population 0 init_cov: expected shape \(1, 1\), got \(2, 2\)"),
    ("init_mean", (np.zeros(1),) * 3,
     r"init_mean has 3 entries for 2 populations"),
], ids=["short-mean", "short-cov", "wide-cov", "surplus-mean"])
def test_lqspec_rejects_malformed_initial_moments(field, value, message):
    # used to fail inside the oracle with numpy's matmul, index and
    # broadcast errors
    lq = lq_from_game(builtin_game("lq-2pop-competitive"))
    with pytest.raises(ValueError, match="^%s$" % message):
        dataclasses.replace(lq, **{field: value})


def test_lq_from_game_requires_metadata():
    with pytest.raises(ValueError):
        lq_from_game(builtin_game("nonlq-box"))


def test_two_population_oracle_self_consistency():
    spec = builtin_game("lq-2pop-competitive")
    grid = TimeGrid(1.0, 50)
    lq = lq_from_game(spec)
    coarse = solve_lq_riccati(lq, grid, refine=10)
    fine = solve_lq_riccati(lq, grid, refine=20)
    for i in range(2):
        gap = np.max(np.abs(coarse.means_on(grid, i) - fine.means_on(grid, i)))
        assert gap <= 1e-8
        # covariance stays symmetric nonnegative along the flow
        for cov in coarse.cov[i]:
            assert np.allclose(cov, cov.T)
            assert np.linalg.eigvalsh(cov).min() >= -1e-12
        assert np.isfinite(coarse.costs[i])


def _cooperative_recast_of_scalar():
    base = builtin_game("lq-scalar")
    lq_block = base.populations[0].lq
    pop = population_from_lq(
        lq_block, COOPERATIVE, gaussian_initial_law([0.0], 1.0),
        initial_mean=[0.0], initial_cov=[[1.0]], label="planner",
    )
    return GameSpec(
        populations=(pop,),
        horizon=1.0,
        constants=ModelConstants(lipschitz_L=1.0, convexity_lambda=0.5,
                                 growth_K=1.0),
        structural_flags=StructuralFlags(True, True, True, True),
        name="lq-scalar-planner",
    )


def test_cooperative_oracle_reduces_without_mean_couplings():
    grid = TimeGrid(1.0, 50)
    comp = solve_lq_riccati(lq_from_game(builtin_game("lq-scalar")), grid)
    coop = solve_lq_riccati(lq_from_game(_cooperative_recast_of_scalar()), grid)
    assert np.allclose(comp.P_on(grid, 0), coop.P_on(grid, 0), atol=1e-12)
    assert np.allclose(comp.means_on(grid, 0), coop.means_on(grid, 0),
                       atol=1e-12)
    assert comp.costs[0] == pytest.approx(coop.costs[0], abs=1e-10)


def test_oracle_mean_matches_uncoupled_expectation():
    # without any mean coupling the equilibrium mean obeys the closed
    # one-dimensional ODE dm/dt = -(P m + w) driven by the Riccati pair;
    # for the centered initial law it stays at zero
    spec = builtin_game("lq-scalar")
    grid = TimeGrid(1.0, 50)
    sol = solve_lq_riccati(lq_from_game(spec), grid)
    assert np.max(np.abs(sol.means_on(grid, 0))) <= 1e-12


def _lq2d_mixed_game():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "mfgbench",
                        "models", "lq2d_mixed.py")
    return runpy.run_path(path)["make_game"]()


def _lq2d_mixed_crossed():
    """lq2d_mixed with C, S_bar and G_bar on the competitive traders and
    the cooperative planners; no shipped game sets G_bar."""
    lq = lq_from_game(_lq2d_mixed_game())
    traders, planners = lq.blocks
    traders = dataclasses.replace(traders,
                                  G_bar=([[0.15, -0.05], [0.1, 0.2]],))
    planners = dataclasses.replace(planners, C=([[0.05, 0.1], [-0.1, 0.0]],),
                                   G_bar=([[0.1, 0.0], [0.2, -0.15]],))
    return dataclasses.replace(lq, blocks=(traders, planners))


# solve_lq_riccati at 50 steps, refine 10, per population:
# (cost, P(0), offset(0), mean(T), cov(T))
ORACLE_PINS = {
    "lq-scalar": [
        (0.8350565992135657,
         [[0.913670934039996]],
         [0.0],
         [0.0],
         [[0.7718351444408491]]),
    ],
    "lq-1pop": [
        (0.8169255620657341,
         [[0.913670934039996]],
         [-0.1525171897572671],
         [0.5177836904954201],
         [[0.6066297201501715]]),
    ],
    "lq-bimodal": [
        (0.3565450251964194,
         [[0.913670934039996]],
         [0.0],
         [0.0],
         [[0.230987285849003]]),
    ],
    "lq-2pop-competitive": [
        (1.0757711462034336,
         [[0.913670934039996]],
         [0.11487766410442528],
         [0.4349439965984324],
         [[0.6066297201501715]]),
        (1.1361898155764056,
         [[0.913670934039996]],
         [-0.1634583556834414],
         [-0.41990021017735646],
         [[0.6066297201501715]]),
    ],
    "lq-2pop-cooperative": [
        (0.6241664124910696,
         [[0.7716334137332644]],
         [0.5788647915780859],
         [0.6041572459591339],
         [[0.35968638567012695]]),
        (0.4325748479026121,
         [[0.7716334137332644]],
         [-0.3542977814737627],
         [-0.2779026352871023],
         [[0.35968638567012695]]),
    ],
    "mixed-opec": [
        (0.8234346621387515,
         [[0.7716334137332644]],
         [0.8836811990303293],
         [0.87135833639101],
         [[0.205702891699486]]),
        (0.3592059711100836,
         [[0.913670934039996]],
         [-0.2389241276814936],
         [0.3128590223512093],
         [[0.3882430208961095]]),
    ],
    "lq2d-mixed": [
        (0.9619205311707253,
         [[0.7663357617764324, 0.062245690846364506],
          [0.062245690846364506, 0.851030689917936]],
         [0.015355310698431573, -0.06101094241585167],
         [0.3269496783045639, -0.22956723027488896],
         [[0.24221158917452804, 0.10554045053797108],
          [0.10554045053797108, 0.21621008464538702]]),
        (0.7044570296345581,
         [[0.8020005446637142, -0.0343817360604687],
          [-0.03438173606046871, 0.7758549803483965]],
         [-0.3584314396800563, 0.42536624598478073],
         [-0.3744079633471211, 0.4390922696654365],
         [[0.18148955810137862, -0.06043272563885889],
          [-0.06043272563885889, 0.23615456014691621]]),
    ],
    "lq2d-mixed-crossed": [
        (0.9809335214057415,
         [[0.7663357617764324, 0.062245690846364506],
          [0.062245690846364506, 0.851030689917936]],
         [0.032672365383163884, -0.06596371987228056],
         [0.3087098091896262, -0.2196949204903509],
         [[0.24221158917452804, 0.10554045053797108],
          [0.10554045053797108, 0.21621008464538702]]),
        (0.6804399303473161,
         [[0.8020005446637142, -0.0343817360604687],
          [-0.03438173606046871, 0.7758549803483965]],
         [-0.3683166324588118, 0.38472029096298127],
         [-0.3669227119124199, 0.4230034198311864],
         [[0.18148955810137862, -0.06043272563885889],
          [-0.06043272563885889, 0.23615456014691621]]),
    ],
}


def _oracle_pin_game(name):
    if name == "lq2d-mixed":
        return lq_from_game(_lq2d_mixed_game())
    if name == "lq2d-mixed-crossed":
        return _lq2d_mixed_crossed()
    return lq_from_game(builtin_game(name))


@pytest.mark.parametrize("name", sorted(ORACLE_PINS))
def test_oracle_outputs_are_pinned(name):
    # every oracle output the solver's gates read, including the 2-
    # population costs, the adjoint offsets and the G_bar terminal terms
    lq = _oracle_pin_game(name)
    sol = solve_lq_riccati(lq, TimeGrid(1.0, 50))
    assert len(ORACLE_PINS[name]) == len(lq.blocks)
    for i, (cost, P0, offset0, meanT, covT) in enumerate(ORACLE_PINS[name]):
        got = (sol.costs[i], sol.P[i][0], sol.offset[i][0], sol.mean[i][-1],
               sol.cov[i][-1])
        for value, pin in zip(got, (cost, P0, offset0, meanT, covT)):
            np.testing.assert_allclose(value, pin, rtol=1e-12, atol=0.0)


def test_lq2d_mixed_means_match_riccati():
    # the only 2-d game: non-diagonal A, correlated sigma and cross-
    # population S_bar, so it checks the cross-term features and the d = 2
    # drift, noise and mean kernels against the matrix Riccati oracle, at
    # acceptance 2's budget (its constant diffusion reads no Z; the Z
    # regression is gated by the state-linear diffusion test below). The
    # same solve also gates the terminal cloud covariances, both costs and
    # the competitive traders' field slope against the matrix P. Over
    # seeds 0-29 they read at most 6.1% (cov), 2.47 standard errors (cost)
    # and 3.1% (slope); seed 0 reads 1.5%, 1.84 and 1.5%
    spec = _lq2d_mixed_game()
    report = solve_matching(spec, FixedPointConfig(), seed=0)
    assert report.converged
    grid = report.flows[0].grid
    oracle = solve_lq_riccati(lq_from_game(spec), grid)
    for i in range(spec.n_populations):
        assert spec.populations[i].state_dim == 2
        emp = np.array([c.points.mean(axis=0) for c in report.flows[i].clouds])
        target = oracle.means_on(grid, i)
        budget = 3e-2 * (1.0 + float(np.abs(target).max()))
        assert float(np.abs(emp - target).max()) <= budget
        cov = np.cov(report.flows[i].clouds[-1].points, rowvar=False)
        V = oracle.cov[i][-1]
        assert np.abs(cov - V).max() <= 8e-2 * np.abs(V).max()
        mean, se = report.costs[i]
        assert abs(mean - oracle.costs[i]) <= 3.0 * se
    sol = report.solutions[0]
    for k, P in enumerate(oracle.P_on(grid, 0)):
        slope = sol.field.linear_slope(k, sol.X[k])
        assert np.abs(slope - P).max() <= 4e-2 * np.abs(P).max()


DEGENERATE = os.path.join(os.path.dirname(__file__), "models",
                          "degenerate_knots.py")


@pytest.mark.parametrize("game", ["point_mass_game", "make_game"])
def test_degenerate_knot_means_match_riccati(game):
    # a point-mass initial law (knot 0 degenerate) and a deterministic
    # second coordinate (every knot degenerate) fit on the SVD path; their
    # knot means hold acceptance 2's budget. Over seeds 0-9 they read at
    # most 0.024 and 0.023 against 0.060, both at seed 0
    spec = runpy.run_path(DEGENERATE)[game]()
    report = solve_matching(spec, FixedPointConfig(), seed=0)
    assert report.converged
    grid = report.flows[0].grid
    target = solve_lq_riccati(lq_from_game(spec), grid).means_on(grid, 0)
    emp = np.array([c.points.mean(axis=0) for c in report.flows[0].clouds])
    budget = 3e-2 * (1.0 + float(np.abs(target).max()))
    assert float(np.abs(emp - target).max()) <= budget


def _state_linear_diffusion_slope_gaps(seed):
    """|field slope - P(t)| at t = 0, 0.2, 0.5 for a decoupled scalar game
    with sigma(x) = 0.4 + 0.5 x, A = -0.3, B = R = W = Wg = 1, T = 1."""
    a, s1 = -0.3, 0.5
    lq = PopulationLq(A=[[a]], B=[[1.0]], sigma=[[0.4]], R=[[1.0]],
                      W=[[1.0]], Wg=[[1.0]])
    pop = population_from_lq(lq, COMPETITIVE, gaussian_initial_law([0.5], 0.6),
                             None, None)
    diffusion = DiffusionCoefficients(
        s0=pop.diffusion.s0, s1=lambda t, mu, nus: np.full((1, 1, 1), s1))
    spec = GameSpec(populations=(dataclasses.replace(pop, diffusion=diffusion),),
                    horizon=1.0, constants=ModelConstants(1.0, 0.5, 1.0))
    cfg = SolverConfig()
    flows = uncontrolled_flows(spec, cfg.n_steps, cfg.n_paths, seed)
    sol = solve_adjoint(spec, 0, flows, cfg, seed=seed)
    # the x^2 coefficient of the value function: the state-linear
    # diffusion adds -s1^2 P to the constant-diffusion Riccati equation
    def rhs(P):
        return -2.0 * a * P + P * P - 1.0 - s1 * s1 * P

    refine = 20
    h = sol.grid.dt / refine
    P, slopes = 1.0, [1.0]  # backward from P(T) = Wg, one entry per knot
    for _ in range(sol.grid.n_steps):
        for _ in range(refine):
            k1 = rhs(P)
            k2 = rhs(P - 0.5 * h * k1)
            k3 = rhs(P - 0.5 * h * k2)
            P = P - h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + rhs(P - h * k3))
        slopes.append(P)
    slopes.reverse()
    knots = [int(round(t / sol.grid.dt)) for t in (0.0, 0.2, 0.5)]
    return [abs(sol.field.linear_slope(k, sol.X[k])[0, 0] - slopes[k])
            for k in knots]


def test_state_linear_diffusion_slope_matches_riccati():
    # the only state-linear (s1) diffusion solved end to end, so the only
    # check of the Z regression: Z enters the adjoint driver through the
    # s1 Z term alone. Seeds 0-9 read at most 0.040; with Z dropped from
    # the driver every seed reads at least 0.078
    for seed in range(10):
        assert max(_state_linear_diffusion_slope_gaps(seed)) <= 0.06


def test_nonlq_box_cost_matches_hjb_value():
    # the only check of the iterative minimizer path that does not run the
    # solver's own code: mfgbench's explicit finite-difference HJB value of
    # the box-constrained cosh-cost problem, at the benchmark's limit in
    # standard errors of the solver's Monte Carlo cost
    path = os.path.join(os.path.dirname(__file__), os.pardir, "mfgbench",
                        "checks.py")
    checks = runpy.run_path(path)
    report = solve_matching(builtin_game("nonlq-box"), FixedPointConfig(),
                            seed=0)
    assert report.converged
    mean, se = report.costs[0]
    gap = abs(mean - checks["hjb_box_value"]())
    assert gap <= checks["COST_SE_MULTIPLE"] * se

import dataclasses

import numpy as np
import pytest

from mfglab.hamiltonian import (
    HamiltonianContext,
    MinimizeError,
    dmu_hamiltonian,
    dx_hamiltonian,
    hamiltonian_value,
    minimize,
    minimize_controls,
    reduced_hamiltonian,
    vi_residual,
)
from mfglab.measures import ParticleCloud
from mfglab.model import ActionSet, GameSpec, ModelConstants, PopulationLq
from mfglab.model import builtin_game, gaussian_initial_law, measure_args
from mfglab.model import population_from_lq, COMPETITIVE
from mfglab.rng import substream


def _context(spec, i, rng, n=1, scale=1.0):
    d = spec.populations[i].state_dim
    clouds = [ParticleCloud(scale * rng.standard_normal((32, p.state_dim)))
              for p in spec.populations]
    mu, nus = measure_args(spec, i, clouds)
    x = scale * rng.standard_normal((n, d))
    y = scale * rng.standard_normal((n, d))
    if n == 1:
        x, y = x[0], y[0]
    return HamiltonianContext(spec=spec, population=i, t=0.3, x=x, mu=mu,
                              nus=nus, y=y)


def test_quadratic_minimizer_closed_form():
    spec = builtin_game("lq-scalar")
    pop = spec.populations[0]
    rng = substream(0, "test-ham-closed")
    ctx = _context(spec, 0, rng)
    alpha = minimize(ctx)
    B = pop.lq.B
    R = pop.lq.R
    expected = -np.linalg.solve(R, B.T @ np.asarray(ctx.y))
    assert np.allclose(alpha, expected, atol=1e-12)


def test_minimizer_matches_grid_search_on_box():
    spec = builtin_game("nonlq-box")
    rng = substream(1, "test-ham-grid")
    grid = np.linspace(-1.0, 1.0, 20001)[:, None]
    for _ in range(10):
        ctx = _context(spec, 0, rng, scale=2.0)
        alpha = minimize(ctx)
        vals = np.array([reduced_hamiltonian(ctx, a) for a in grid])
        best = grid[int(np.argmin(vals))]
        assert abs(alpha[0] - best[0]) <= 2e-4


def test_vi_residual_small_at_minimizer_large_off():
    rng = substream(2, "test-ham-vi")
    for name in ("lq-1pop", "nonlq-box", "mixed-opec"):
        spec = builtin_game(name)
        for i in range(spec.n_populations):
            ctx = _context(spec, i, rng, scale=2.0)
            alpha = minimize(ctx)
            res = vi_residual(ctx, alpha, seed=3)
            assert res <= 1e-8 * (1.0 + np.linalg.norm(alpha))
            off = alpha + 0.5
            assert vi_residual(ctx, off, seed=3) > 1e-4


def test_minimizer_lipschitz_bound_in_x_y():
    # contraction constant (2 lambda)^{-1} against the gradient data
    rng = substream(3, "test-ham-lip")
    for name in ("lq-1pop", "nonlq-box"):
        spec = builtin_game(name)
        pop = spec.populations[0]
        lam = spec.constants.convexity_lambda
        clouds = [ParticleCloud(rng.standard_normal((32, p.state_dim)))
                  for p in spec.populations]
        mu, nus = measure_args(spec, 0, clouds)
        n = 200
        X1 = 2.0 * rng.standard_normal((n, pop.state_dim))
        X2 = 2.0 * rng.standard_normal((n, pop.state_dim))
        Y1 = 2.0 * rng.standard_normal((n, pop.state_dim))
        Y2 = 2.0 * rng.standard_normal((n, pop.state_dim))
        A1 = minimize_controls(spec, 0, 0.3, X1, mu, nus, Y1)
        A2 = minimize_controls(spec, 0, 0.3, X2, mu, nus, Y2)
        b2 = np.asarray(pop.drift.b2(0.3, mu, nus))
        b2_norm = np.linalg.norm(b2, 2)
        grad_gap = np.linalg.norm(
            pop.cost.df_dalpha(0.3, X1, mu, nus, A1)
            - pop.cost.df_dalpha(0.3, X2, mu, nus, A1), axis=1)
        bound = (b2_norm * np.linalg.norm(Y1 - Y2, axis=1) + grad_gap) / (2 * lam)
        gap = np.linalg.norm(A1 - A2, axis=1)
        assert np.all(gap <= bound + 1e-9)


def test_minimizer_growth_bound():
    # |alpha_hat - beta| <= lambda^{-1} (|b2||y| + |df_dalpha(beta)|)
    rng = substream(4, "test-ham-growth")
    for name in ("lq-1pop", "nonlq-box"):
        spec = builtin_game(name)
        pop = spec.populations[0]
        lam = spec.constants.convexity_lambda
        clouds = [ParticleCloud(rng.standard_normal((32, p.state_dim)))
                  for p in spec.populations]
        mu, nus = measure_args(spec, 0, clouds)
        n = 200
        X = 3.0 * rng.standard_normal((n, pop.state_dim))
        Y = 3.0 * rng.standard_normal((n, pop.state_dim))
        A = minimize_controls(spec, 0, 0.3, X, mu, nus, Y)
        beta = np.tile(pop.action_set.anchor_point, (n, 1))
        b2 = np.asarray(pop.drift.b2(0.3, mu, nus))
        b2_norm = np.linalg.norm(b2, 2)
        grad_at_beta = np.linalg.norm(
            pop.cost.df_dalpha(0.3, X, mu, nus, beta), axis=1)
        bound = (b2_norm * np.linalg.norm(Y, axis=1) + grad_at_beta) / lam
        gap = np.linalg.norm(A - beta, axis=1)
        assert np.all(gap <= bound + 1e-9)


def test_full_hamiltonian_adds_trace_term():
    spec = builtin_game("lq-scalar")
    rng = substream(5, "test-ham-full")
    base = _context(spec, 0, rng)
    z = rng.standard_normal((1, 1))
    ctx = HamiltonianContext(spec=spec, population=0, t=base.t, x=base.x,
                             mu=base.mu, nus=base.nus, y=base.y, z=z)
    alpha = minimize(ctx)
    sig = np.asarray(spec.populations[0].diffusion.s0(ctx.t, ctx.mu, ctx.nus))
    expected = reduced_hamiltonian(ctx, alpha) + float(np.sum(sig * z))
    assert hamiltonian_value(ctx, alpha) == pytest.approx(expected, abs=1e-12)


def test_dx_hamiltonian_matches_finite_difference():
    spec = builtin_game("nonlq-box")
    rng = substream(6, "test-ham-dx")
    ctx = _context(spec, 0, rng)
    alpha = minimize(ctx)
    grad = dx_hamiltonian(ctx, alpha)
    h = 1e-6
    xp = np.asarray(ctx.x, dtype=float).copy()
    xm = xp.copy()
    xp[0] += h
    xm[0] -= h
    up = HamiltonianContext(spec=spec, population=0, t=ctx.t, x=xp, mu=ctx.mu,
                            nus=ctx.nus, y=ctx.y)
    dn = HamiltonianContext(spec=spec, population=0, t=ctx.t, x=xm, mu=ctx.mu,
                            nus=ctx.nus, y=ctx.y)
    fd = (reduced_hamiltonian(up, alpha) - reduced_hamiltonian(dn, alpha)) / (2 * h)
    assert grad[0] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_dmu_hamiltonian_cooperative_only():
    spec = builtin_game("lq-1pop")
    rng = substream(7, "test-ham-dmu")
    ctx = _context(spec, 0, rng)
    with pytest.raises(ValueError):
        dmu_hamiltonian(ctx, np.zeros(1), np.zeros(1), np.zeros(1))
    coop = builtin_game("lq-2pop-cooperative")
    cctx = _context(coop, 0, rng, n=8)
    alpha = minimize(cctx)
    out = dmu_hamiltonian(cctx, alpha, np.array([0.4]), np.array([0.2]))
    assert out.shape == (1,)
    assert np.all(np.isfinite(out))


def test_minimize_error_reports_residual():
    spec = builtin_game("nonlq-box")
    rng = substream(8, "test-ham-err")
    ctx = _context(spec, 0, rng, scale=2.0)
    with pytest.raises(MinimizeError) as err:
        minimize(ctx, tol=1e-16, max_iter=2)
    assert err.value.residual > 0.0


_Q = np.array([[2.0, 0.7], [0.7, 1.0]])


def _two_action_game(Q, action_set=None):
    """2-d state, 2-d action LQ population with non-diagonal curvature Q."""
    lq = PopulationLq(A=np.zeros((2, 2)), B=[[1.0, 0.3], [-0.4, 0.8]],
                      sigma=np.eye(2), R=Q, W=np.eye(2), Wg=np.eye(2))
    pop = population_from_lq(lq, COMPETITIVE,
                             gaussian_initial_law([0.0, 0.0], 1.0), None, None,
                             action_set=action_set)
    return GameSpec(populations=(pop,), horizon=1.0,
                    constants=ModelConstants(4.0, 0.5, 1.0))


def _batch_args(spec, n=50):
    rng = substream(9, "test-ham-nondiag")
    mu = ParticleCloud(rng.standard_normal((32, 2)))
    X = rng.standard_normal((n, 2))
    Y = 2.0 * rng.standard_normal((n, 2))
    b2 = np.asarray(spec.populations[0].drift.b2(0.3, mu, ()))
    return X, Y, mu, Y @ b2


def test_closed_form_minimizer_with_non_diagonal_curvature():
    spec = _two_action_game(_Q)
    X, Y, mu, lin = _batch_args(spec)
    alpha = minimize_controls(spec, 0, 0.3, X, mu, (), Y)
    np.testing.assert_allclose(alpha, -np.linalg.solve(_Q, lin.T).T,
                               rtol=1e-12)

    # a replaced cost minimizes with its own curvature, not a stale factor
    pop = spec.populations[0]
    cost2 = dataclasses.replace(pop.cost, quad_q=2.0 * _Q)
    spec2 = dataclasses.replace(
        spec, populations=(dataclasses.replace(pop, cost=cost2),))
    alpha2 = minimize_controls(spec2, 0, 0.3, X, mu, (), Y)
    np.testing.assert_allclose(alpha2, -np.linalg.solve(2.0 * _Q, lin.T).T,
                               rtol=1e-12)


def test_box_with_non_diagonal_curvature_runs_projected_gradient():
    box = ActionSet(dimension=2, kind="box", lower=[-0.5, -0.5],
                    upper=[0.5, 0.5])
    spec = _two_action_game(_Q, action_set=box)
    pop = spec.populations[0]
    grads = []

    def df_dalpha(t, x, mu, nus, alpha):
        grads.append(len(alpha))
        return pop.cost.df_dalpha(t, x, mu, nus, alpha)

    cost = dataclasses.replace(pop.cost, df_dalpha=df_dalpha)
    spec = dataclasses.replace(
        spec, populations=(dataclasses.replace(pop, cost=cost),))
    X, Y, mu, lin = _batch_args(spec)
    alpha = minimize_controls(spec, 0, 0.3, X, mu, (), Y)
    assert grads
    clipped = box.project(-np.linalg.solve(_Q, lin.T).T)
    assert np.max(np.abs(alpha - clipped)) > 1e-3
    for p in range(len(X)):
        ctx = HamiltonianContext(spec=spec, population=0, t=0.3, x=X[p],
                                 mu=mu, nus=(), y=Y[p])
        assert vi_residual(ctx, alpha[p], seed=p) <= 1e-8

import dataclasses

import numpy as np
import pytest

from mfglab import fbsde, hamiltonian
from mfglab.fixedpoint import FixedPointConfig, solve_matching
from mfglab.hamiltonian import (
    MinimizeError,
    dmu_hamiltonian_batch,
    drift_batch,
    dx_hamiltonian_batch,
    minimize_controls,
    reduced_hamiltonian,
    vi_residual,
)
from mfglab.measures import ParticleCloud
from mfglab.model import ActionSet, GameSpec, ModelConstants, PopulationLq
from mfglab.model import builtin_game, gaussian_initial_law, measure_args
from mfglab.model import population_from_lq, COMPETITIVE
from mfglab.rng import substream


def _sample(spec, i, rng, n=1, scale=1.0):
    """Population i's measure arguments (mu, nus), and states X and adjoint
    values Y at n random rows."""
    d = spec.populations[i].state_dim
    clouds = [ParticleCloud(scale * rng.standard_normal((32, p.state_dim)))
              for p in spec.populations]
    mu, nus = measure_args(spec, i, clouds)
    X = scale * rng.standard_normal((n, d))
    Y = scale * rng.standard_normal((n, d))
    return mu, nus, X, Y


def test_quadratic_minimizer_closed_form():
    spec = builtin_game("lq-scalar")
    pop = spec.populations[0]
    rng = substream(0, "test-ham-closed")
    mu, nus, X, Y = _sample(spec, 0, rng)
    alpha = minimize_controls(spec, 0, 0.3, X, mu, nus, Y)[0]
    B = pop.lq.B
    R = pop.lq.R
    expected = -np.linalg.solve(R, B.T @ Y[0])
    assert np.allclose(alpha, expected, atol=1e-12)


def test_minimizer_matches_grid_search_on_box():
    spec = builtin_game("nonlq-box")
    rng = substream(1, "test-ham-grid")
    grid = np.linspace(-1.0, 1.0, 20001)[:, None]
    for _ in range(10):
        mu, nus, X, Y = _sample(spec, 0, rng, scale=2.0)
        alpha = minimize_controls(spec, 0, 0.3, X, mu, nus, Y)[0]
        rows = np.zeros(len(grid), dtype=int)
        vals = reduced_hamiltonian(spec, 0, 0.3, X[rows], mu, nus, Y[rows],
                                   grid)
        best = grid[int(np.argmin(vals))]
        assert abs(alpha[0] - best[0]) <= 2e-4


def test_vi_residual_small_at_minimizer_large_off():
    rng = substream(2, "test-ham-vi")
    for name in ("lq-1pop", "nonlq-box", "mixed-opec"):
        spec = builtin_game(name)
        for i in range(spec.n_populations):
            mu, nus, X, Y = _sample(spec, i, rng, scale=2.0)
            alpha = minimize_controls(spec, i, 0.3, X, mu, nus, Y)[0]
            res = vi_residual(spec, i, 0.3, X[0], mu, nus, Y[0], alpha, seed=3)
            assert res <= 1e-8 * (1.0 + np.linalg.norm(alpha))
            off = alpha + 0.5
            assert vi_residual(spec, i, 0.3, X[0], mu, nus, Y[0], off,
                               seed=3) > 1e-4


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


def test_dx_hamiltonian_matches_finite_difference():
    spec = builtin_game("nonlq-box")
    rng = substream(6, "test-ham-dx")
    mu, nus, X, Y = _sample(spec, 0, rng)
    alpha = minimize_controls(spec, 0, 0.3, X, mu, nus, Y)
    grad = dx_hamiltonian_batch(spec, 0, 0.3, X, mu, nus, Y, None, alpha)
    h = 1e-6
    up = reduced_hamiltonian(spec, 0, 0.3, X + h, mu, nus, Y, alpha)
    dn = reduced_hamiltonian(spec, 0, 0.3, X - h, mu, nus, Y, alpha)
    fd = (up[0] - dn[0]) / (2 * h)
    assert grad[0, 0] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_minimize_error_reports_residual():
    spec = builtin_game("nonlq-box")
    rng = substream(8, "test-ham-err")
    mu, nus, X, Y = _sample(spec, 0, rng, scale=2.0)
    with pytest.raises(MinimizeError) as err:
        minimize_controls(spec, 0, 0.3, X, mu, nus, Y, tol=1e-16, max_iter=2)
    assert err.value.residual > 0.0


_Q = np.array([[2.0, 0.7], [0.7, 1.0]])


def test_box_closed_form_matches_the_projected_gradient():
    # a quadratic cost with diagonal curvature under a box clips the
    # unconstrained minimizer; the same cost declared non-quadratic takes
    # the spectral projected gradient to the same controls
    spec = builtin_game("lq-1pop")
    pop = dataclasses.replace(spec.populations[0], action_set=ActionSet(
        dimension=1, kind="box", lower=[-0.3], upper=[0.4]))
    general = dataclasses.replace(pop, cost=dataclasses.replace(
        pop.cost, quadratic_in_alpha=False))
    mu, nus, X, Y = _sample(spec, 0, substream(4, "test-ham-box"), n=4096)
    closed, spectral = (
        minimize_controls(dataclasses.replace(spec, populations=(p,)), 0, 0.3,
                          X, mu, nus, Y) for p in (pop, general))
    assert np.mean(closed == -0.3) > 0.3 and np.mean(closed == 0.4) > 0.3
    np.testing.assert_allclose(closed, spectral, rtol=0.0, atol=1e-12)


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
        assert vi_residual(spec, 0, 0.3, X[p], mu, (), Y[p], alpha[p],
                           seed=p) <= 1e-8


def _fixed_step_residual(spec, X, mu, nus, Y, alpha):
    """Row norms of P(a - g / (lambda + L)) - a at a = alpha."""
    pop = spec.populations[0]
    lin = Y @ np.asarray(pop.drift.b2(0.3, mu, nus))
    grad = lin + pop.cost.df_dalpha(0.3, X, mu, nus, alpha)
    c = spec.constants
    step = 1.0 / (c.convexity_lambda + c.lipschitz_L)
    return np.linalg.norm(
        pop.action_set.project(alpha - step * grad) - alpha, axis=1)


def test_minimizer_stop_certifies_the_fixed_step_residual():
    # the spectral step is at least 1/(lambda + L), and the update norm
    # does not shrink as the step grows, so the returned point passes the
    # fixed-step test at tol on every row
    spec = builtin_game("nonlq-box")
    mu, nus, X, Y = _sample(spec, 0, substream(10, "test-ham-cert"),
                            n=4096, scale=2.0)
    alpha = minimize_controls(spec, 0, 0.3, X, mu, nus, Y)
    assert _fixed_step_residual(spec, X, mu, nus, Y, alpha).max() <= 1e-10
    box = ActionSet(dimension=2, kind="box", lower=[-0.5, -0.5],
                    upper=[0.5, 0.5])
    spec = _two_action_game(_Q, action_set=box)
    X, Y, mu, _ = _batch_args(spec, n=4096)
    alpha = minimize_controls(spec, 0, 0.3, X, mu, (), Y)
    assert _fixed_step_residual(spec, X, mu, (), Y, alpha).max() <= 1e-10


def test_spectral_minimizer_work_on_nonlq_box(monkeypatch):
    # the fixed step 1/(lambda + L) took 41 gradient calls per minimize on
    # the seed-0 nonlq-box solve; the spectral step takes under 8
    spec = builtin_game("nonlq-box")
    pop = spec.populations[0]
    grads, minimizes = [], []

    def df_dalpha(*args):
        grads.append(1)
        return pop.cost.df_dalpha(*args)

    def counted(*args, **kwargs):
        minimizes.append(1)
        return minimize_controls(*args, **kwargs)

    monkeypatch.setattr(hamiltonian, "minimize_controls", counted)
    monkeypatch.setattr(fbsde, "minimize_controls", counted)
    spec = dataclasses.replace(spec, populations=(dataclasses.replace(
        pop, cost=dataclasses.replace(pop.cost, df_dalpha=df_dalpha)),))
    report = solve_matching(spec, FixedPointConfig(), seed=0)
    assert report.converged
    assert minimizes and len(grads) <= 10 * len(minimizes)


def test_direction_free_measure_derivative_called_once_per_batch():
    # a df_dmu of shape (n_copies, 1, d) does not read its direction
    # points, so a batch longer than one chunk averages it only once
    spec = builtin_game("lq-2pop-cooperative")
    pop = spec.populations[0]
    calls = []

    def df_dmu(*args):
        calls.append(1)
        return pop.cost.df_dmu(*args)

    counted = dataclasses.replace(spec, populations=(
        dataclasses.replace(pop, cost=dataclasses.replace(
            pop.cost, df_dmu=df_dmu)),) + spec.populations[1:])
    rng = np.random.default_rng(0)
    mu, nus, X, Y = _sample(spec, 0, rng, n=4096)
    alpha = minimize_controls(spec, 0, 0.5, X, mu, nus, Y)
    out = np.zeros_like(X)
    assert np.shape(pop.cost.df_dmu(0.5, X, mu, nus, alpha, X)) == (4096, 1, 1)
    calls.clear()
    got = dmu_hamiltonian_batch(counted, 0, 0.5, X, mu, nus, alpha, X,
                                Y.mean(axis=0), None, out)
    assert len(calls) == 1
    # the same copies with one direction point
    want = dmu_hamiltonian_batch(spec, 0, 0.5, X, mu, nus, alpha, X[:1],
                                 Y.mean(axis=0), None, out[:1])
    assert got.shape == X.shape
    np.testing.assert_array_equal(got, np.broadcast_to(want, X.shape))


def test_direction_dependent_measure_derivative_keeps_a_one_row_last_chunk():
    # at 2049 direction points the second chunk has one row; a df_dmu of
    # shape (n_copies, nv, d) must still be averaged point by point there
    spec = builtin_game("lq-2pop-cooperative")
    pop = spec.populations[0]

    def df_dmu(t, X, mu, nus, alpha, v):
        base = np.asarray(pop.cost.df_dmu(t, X, mu, nus, alpha, v))
        return base + X[:, None, :] * np.sin(v)[None, :, :]

    varying = dataclasses.replace(spec, populations=(
        dataclasses.replace(pop, cost=dataclasses.replace(
            pop.cost, df_dmu=df_dmu)),) + spec.populations[1:])
    rng = np.random.default_rng(0)
    mu, nus, X, Y = _sample(spec, 0, rng, n=64)
    alpha = minimize_controls(spec, 0, 0.5, X, mu, nus, Y)
    V = rng.standard_normal((2049, 1))
    got = dmu_hamiltonian_batch(varying, 0, 0.5, X, mu, nus, alpha, V,
                                Y.mean(axis=0), None, np.zeros_like(V))
    want = (dmu_hamiltonian_batch(spec, 0, 0.5, X, mu, nus, alpha, V,
                                  Y.mean(axis=0), None, np.zeros_like(V))
            + (X[:, None, :] * np.sin(V)[None, :, :]).mean(axis=0))
    assert got.shape == V.shape
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_contiguous_coefficient_products_keep_the_transposed_view_bits(d):
    # the drift, Brownian and closed-form control kernels multiply by a
    # C-contiguous copy of each transposed coefficient, which is faster at
    # d >= 2 than the view and must give the same bits
    rng = np.random.default_rng(d)
    root = rng.standard_normal((d, d))
    lq = PopulationLq(A=rng.standard_normal((d, d)),
                      B=rng.standard_normal((d, d)),
                      sigma=np.tril(rng.standard_normal((d, d))),
                      R=root @ root.T + d * np.eye(d), W=np.eye(d),
                      Wg=np.eye(d), a=rng.standard_normal(d))
    pop = population_from_lq(lq, COMPETITIVE,
                             gaussian_initial_law(np.zeros(d), 1.0), None, None)
    spec = GameSpec(populations=(pop,), horizon=1.0,
                    constants=ModelConstants(1.0, 0.5, 1.0))
    X, Y, alpha, dW = rng.standard_normal((4, 4096, d))
    mu, t = ParticleCloud(X), 0.3
    drift = drift_batch(spec, 0, t, X, mu, (), alpha)
    assert drift.tobytes() == (lq.a + np.dot(X, lq.A.T)
                               + np.dot(alpha, lq.B.T)).tobytes()
    noise = fbsde._sigma_dw(pop, t, X, mu, (), dW)
    assert noise.tobytes() == np.dot(dW, lq.sigma.T).tobytes()
    control = minimize_controls(spec, 0, t, X, mu, (), Y)
    lin = np.dot(Y, lq.B) + pop.cost.quad_linear(t, X, mu, ())
    assert control.tobytes() == (-np.dot(lin, pop.cost.quad_q_inv.T)).tobytes()

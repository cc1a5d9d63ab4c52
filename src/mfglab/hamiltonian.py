"""Hamiltonian minimization and derivative terms, as batch kernels.

Every kernel takes population i's evaluation point as plain arguments
(spec, i, t, X, mu, nus) with X a particle batch (n, d); one point is a
one-row batch. The reduced Hamiltonian drops the diffusion trace term
(diffusion is uncontrolled): H_r = <b, y> + f. minimize_controls minimizes
it in the control, in closed form when the running cost declares
quadratic structure and otherwise by a spectral projected gradient, its
step clipped to [1/(lambda + L), 1/lambda]. The full Hamiltonian adds
tr(sigma' z); its state gradient (dx_hamiltonian_batch) and, for
cooperative populations, its measure gradient (dmu_hamiltonian_batch)
feed the adjoint driver. vi_residual certifies a minimizer at one point.
"""

import numpy as np

from .measures import row_mean
from .rng import substream

# Batch products over an inner dimension d or k call np.dot: when it is 1,
# as in every builtin, @ runs numpy's non-BLAS matmul loop, ~8x slower.
# A transposed coefficient enters as a C-contiguous copy (.T.copy()): at
# d >= 2 a product with the transposed view is ~3x slower, same bits.


class MinimizeError(RuntimeError):
    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


def minimize_controls(spec, i, t, X, mu, nus, Y, tol=1e-10, max_iter=10000):
    """Batch minimizer of the reduced Hamiltonian over the action set.

    Quadratic running costs take the closed form (exact under no
    constraint, and under a box with diagonal curvature). Everything else
    runs a spectral projected gradient: each row steps by its
    Barzilai-Borwein s's/s'y clipped to [1/(lambda + L), 1/lambda] (by
    1/(lambda + L) first and where s'y <= 0) until every update norm is
    at most tol. The update norm does not shrink as the step grows, so
    the returned start point of that update passes the fixed-step test.
    Raises MinimizeError with the last residual after max_iter steps.
    """
    pop = spec.populations[i]
    cost = pop.cost
    aset = pop.action_set
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    b2 = np.asarray(pop.drift.b2(t, mu, nus), dtype=float)
    lin_y = np.dot(Y, b2)

    if cost.quadratic_in_alpha:
        lin = lin_y
        if cost.quad_linear is not None:
            lin = lin + np.asarray(cost.quad_linear(t, X, mu, nus), dtype=float)
        unc = -np.dot(lin, cost.quad_q_inv.T.copy())
        if aset.kind == "full-space":
            return unc
        if aset.kind == "box" and cost.quad_q_diagonal:
            return aset.project(unc)

    lam = spec.constants.convexity_lambda
    step = lo = 1.0 / (lam + spec.constants.lipschitz_L)
    alpha = np.tile(aset.anchor_point, (len(lin_y), 1))
    grad = lin_y + np.asarray(cost.df_dalpha(t, X, mu, nus, alpha), float)
    res = np.inf
    for _ in range(int(max_iter)):
        new = aset.project(alpha - step * grad)
        s = new - alpha
        ss = np.einsum("nk,nk->n", s, s)
        res = float(np.sqrt(ss.max()))
        if res <= tol:
            return alpha
        g_new = lin_y + np.asarray(cost.df_dalpha(t, X, mu, nus, new), float)
        sy = np.einsum("nk,nk->n", s, g_new - grad)
        step = np.clip(np.divide(ss, sy, out=np.full_like(ss, lo),
                                 where=sy > 0), lo, 1.0 / lam)[:, None]
        alpha, grad = new, g_new
    raise MinimizeError(
        "projected gradient did not reach update norm %g (last %g)"
        % (tol, res),
        residual=res,
    )


def field_feedback(spec, i, evaluate):
    """Feedback control of population i under an adjoint field, as a
    control(k, t, X, mu, nus) of fbsde.euler_scheme: the minimizer of the
    reduced Hamiltonian at the adjoint values evaluate(k, X)."""

    def control(k, t, X, mu, nus):
        return minimize_controls(spec, i, t, X, mu, nus, evaluate(k, X))

    return control


def drift_batch(spec, i, t, X, mu, nus, alpha):
    """Drift of population i for a particle batch X (n, d) under alpha (n, k)."""
    pop = spec.populations[i]
    b0 = np.asarray(pop.drift.b0(t, mu, nus), dtype=float)
    b1t = np.asarray(pop.drift.b1(t, mu, nus), dtype=float).T.copy()
    b2t = np.asarray(pop.drift.b2(t, mu, nus), dtype=float).T.copy()
    out = b0 + np.dot(X, b1t) + np.dot(alpha, b2t)
    if pop.drift.b1_bar is not None:
        out = out + (np.asarray(pop.drift.b1_bar(t, nus), dtype=float)
                     @ mu.mean)[None, :]
    return out


def reduced_hamiltonian(spec, i, t, X, mu, nus, Y, alpha):
    """<b, y> + f for a particle batch X (n, d) with adjoint values Y (n, d)
    under alpha (n, k); returns (n,)."""
    f = spec.populations[i].cost.f(t, X, mu, nus, alpha)
    return (np.sum(drift_batch(spec, i, t, X, mu, nus, alpha) * Y, axis=1)
            + np.asarray(f, dtype=float))


def dx_hamiltonian_batch(spec, i, t, X, mu, nus, Y, Z, alpha):
    """State gradient of the full Hamiltonian for a particle batch."""
    pop = spec.populations[i]
    b1 = np.asarray(pop.drift.b1(t, mu, nus), dtype=float)
    out = np.dot(Y, b1)
    if pop.diffusion.s1 is not None and Z is not None:
        s1 = np.asarray(pop.diffusion.s1(t, mu, nus), dtype=float)
        out = out + np.einsum("jlm,njl->nm", s1, Z)
    out = out + np.asarray(pop.cost.df_dx(t, X, mu, nus, alpha), dtype=float)
    return out


def _mean_over_copies(call, V, chunk=2048):
    """Average a copy-indexed measure derivative over the copy batch.

    call(v_chunk) must return (n_copies, nv_chunk, d) or (n_copies, 1, d)
    when the derivative does not depend on the direction point; such a
    derivative is called and averaged once, on the first chunk. A one-row
    result from a one-row chunk is that point's own value.
    """
    outs = []
    for s in range(0, len(V), chunk):
        block = V[s : s + chunk]
        vals = np.asarray(call(block), dtype=float)
        if vals.shape[1] == 1 < len(block):
            return np.broadcast_to(row_mean(vals[:, 0]), V.shape)
        outs.append(vals.mean(axis=0))
    return np.concatenate(outs, axis=0)


def dmu_hamiltonian_batch(spec, i, t, X, mu, nus, alpha, V, mean_y, mean_z,
                          out):
    """out (nv, d) plus the measure gradient of the Hamiltonian at the
    direction points V (nv, d), for a cooperative population.

    X and alpha are the copy batch; mean_y and mean_z (or None) are the
    copy means of the adjoint that multiply the own-mean drift and
    diffusion coefficients, and df_dmu is averaged over the copies.
    """
    pop = spec.populations[i]
    if pop.drift.b1_bar is not None:
        b1b = np.asarray(pop.drift.b1_bar(t, nus), dtype=float)
        out = out + (b1b.T @ mean_y)[None, :]
    if pop.diffusion.s1_bar is not None and mean_z is not None:
        s1b = np.asarray(pop.diffusion.s1_bar(t, nus), dtype=float)
        out = out + np.einsum("jlm,jl->m", s1b, mean_z)[None, :]
    if pop.cost.df_dmu is not None:
        out = out + _mean_over_copies(
            lambda v: pop.cost.df_dmu(t, X, mu, nus, alpha, v), V)
    return out


def vi_residual(spec, i, t, x, mu, nus, y, alpha_hat, n_directions=32,
                seed=0):
    """Variational inequality residual of a candidate minimizer at one
    point x (d,) with adjoint value y (d,).

    Samples the anchor plus n_directions random feasible actions beta and
    returns max(0, max_beta <alpha_hat - beta, grad H_r(alpha_hat)>).
    """
    pop = spec.populations[i]
    aset = pop.action_set
    X = np.asarray(x, dtype=float)[None]
    A = np.asarray(alpha_hat, dtype=float)[None]
    if X.shape != (1, pop.state_dim) or A.shape != (1, aset.dimension):
        raise ValueError("vi_residual expects one state and one action")
    b2 = np.asarray(pop.drift.b2(t, mu, nus), dtype=float)
    grad = (np.asarray(y, dtype=float)[None] @ b2
            + np.asarray(pop.cost.df_dalpha(t, X, mu, nus, A), dtype=float))[0]
    rng = substream(seed, "vi-residual")
    betas = [aset.anchor_point]
    for scale in (0.5, 2.0):
        raw = scale * rng.standard_normal((n_directions // 2, aset.dimension))
        betas.append(aset.project(A + raw))
    return float(max(0.0, np.max((A - np.vstack(betas)) @ grad)))

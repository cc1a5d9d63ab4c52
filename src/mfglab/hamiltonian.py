"""Hamiltonian assembly, minimization, and derivative terms.

The reduced Hamiltonian drops the diffusion trace term (diffusion is
uncontrolled): H_r = <b, y> + f. Minimization in the control uses the
closed form when the running cost declares quadratic structure and a
projected gradient iteration with step 1/(lambda + L) otherwise. The full
Hamiltonian adds tr(sigma' z) and feeds the adjoint driver through
dx_hamiltonian and, for cooperative populations, dmu_hamiltonian.
"""

from dataclasses import dataclass

import numpy as np

from .model import COOPERATIVE
from .rng import substream


class MinimizeError(RuntimeError):
    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True, eq=False)
class HamiltonianContext:
    """Evaluation point of population i's Hamiltonian.

    x and y may be single points (d,) or batches (n, d); z is optional
    and only needed by the full Hamiltonian and dx_hamiltonian when the
    diffusion has a state-linear part.
    """

    spec: object
    population: int
    t: float
    x: np.ndarray
    mu: object
    nus: tuple
    y: np.ndarray
    z: np.ndarray = None


def _batch(x, dim):
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != dim:
        raise ValueError("expected trailing dimension %d" % dim)
    return x, single


def _is_diagonal(Q):
    return np.count_nonzero(Q - np.diag(np.diag(Q))) == 0


def minimize_controls(spec, i, t, X, mu, nus, Y, tol=1e-10, max_iter=10000):
    """Batch minimizer of the reduced Hamiltonian over the action set.

    Quadratic running costs take the closed form (exact under no
    constraint, and under a box with diagonal curvature); everything else
    runs the projected gradient iteration until the update norm drops
    below tol, raising MinimizeError with the last residual otherwise.
    """
    pop = spec.populations[i]
    cost = pop.cost
    aset = pop.action_set
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    b2 = np.asarray(pop.drift.b2(t, mu, nus), dtype=float)
    lin_y = Y @ b2
    n = lin_y.shape[0]

    if cost.quadratic_in_alpha:
        lin = lin_y
        if cost.quad_linear is not None:
            lin = lin + np.asarray(cost.quad_linear(t, X, mu, nus), dtype=float)
        unc = -np.linalg.solve(cost.quad_q, lin.T).T
        if aset.kind == "full-space":
            return unc
        if aset.kind == "box" and _is_diagonal(cost.quad_q):
            return aset.project(unc)

    lam = spec.constants.convexity_lambda
    L = spec.constants.lipschitz_L
    step = 1.0 / (lam + L)
    alpha = np.tile(aset.anchor_point, (n, 1))
    res = np.inf
    for _ in range(int(max_iter)):
        grad = lin_y + np.asarray(cost.df_dalpha(t, X, mu, nus, alpha),
                                  dtype=float)
        new = aset.project(alpha - step * grad)
        res = float(np.max(np.linalg.norm(new - alpha, axis=1)))
        alpha = new
        if res <= tol:
            return alpha
    raise MinimizeError(
        "projected gradient did not reach update norm %g (last %g)"
        % (tol, res),
        residual=res,
    )


def minimize(ctx, tol=1e-10, max_iter=10000):
    """Minimize the reduced Hamiltonian at a context point."""
    pop = ctx.spec.populations[ctx.population]
    X, single_x = _batch(ctx.x, pop.state_dim)
    Y, _ = _batch(ctx.y, pop.state_dim)
    if Y.shape[0] != X.shape[0]:
        Y = np.broadcast_to(Y, X.shape)
    out = minimize_controls(ctx.spec, ctx.population, ctx.t, X, ctx.mu,
                            ctx.nus, Y, tol=tol, max_iter=max_iter)
    return out[0] if single_x else out


def drift_batch(spec, i, t, X, mu, nus, alpha):
    """Drift of population i for a particle batch X (n, d) under alpha (n, k)."""
    pop = spec.populations[i]
    b0 = np.asarray(pop.drift.b0(t, mu, nus), dtype=float)
    b1 = np.asarray(pop.drift.b1(t, mu, nus), dtype=float)
    b2 = np.asarray(pop.drift.b2(t, mu, nus), dtype=float)
    out = b0[None, :] + X @ b1.T + alpha @ b2.T
    if pop.drift.b1_bar is not None:
        out = out + (np.asarray(pop.drift.b1_bar(t, nus), dtype=float)
                     @ mu.mean)[None, :]
    return out


def reduced_hamiltonian(ctx, alpha):
    """<b, y> + f at the context point (scalar, or (n,) for batches)."""
    pop = ctx.spec.populations[ctx.population]
    X, single = _batch(ctx.x, pop.state_dim)
    A, _ = _batch(alpha, pop.action_set.dimension)
    Y, _ = _batch(ctx.y, pop.state_dim)
    if A.shape[0] != X.shape[0]:
        A = np.broadcast_to(A, (X.shape[0], A.shape[1]))
    if Y.shape[0] != X.shape[0]:
        Y = np.broadcast_to(Y, X.shape)
    b = drift_batch(ctx.spec, ctx.population, ctx.t, X, ctx.mu, ctx.nus, A)
    val = np.sum(b * Y, axis=1) + np.asarray(
        pop.cost.f(ctx.t, X, ctx.mu, ctx.nus, A), dtype=float)
    return float(val[0]) if single else val


def hamiltonian_value(ctx, alpha):
    """Full Hamiltonian, adding tr(sigma' z) to the reduced one."""
    pop = ctx.spec.populations[ctx.population]
    base = reduced_hamiltonian(ctx, alpha)
    if ctx.z is None:
        return base
    X, single = _batch(ctx.x, pop.state_dim)
    Z = np.asarray(ctx.z, dtype=float)
    if Z.ndim == 2:
        Z = Z[None, :, :]
    sig = np.asarray(pop.diffusion.s0(ctx.t, ctx.mu, ctx.nus), dtype=float)
    sig = np.broadcast_to(sig, (X.shape[0],) + sig.shape).copy()
    if pop.diffusion.s1 is not None:
        s1 = np.asarray(pop.diffusion.s1(ctx.t, ctx.mu, ctx.nus), dtype=float)
        sig += np.einsum("jlm,nm->njl", s1, X)
    if pop.diffusion.s1_bar is not None:
        s1b = np.asarray(pop.diffusion.s1_bar(ctx.t, ctx.nus), dtype=float)
        sig += np.einsum("jlm,m->jl", s1b, ctx.mu.mean)[None, :, :]
    trace = np.einsum("njl,njl->n", sig, np.broadcast_to(Z, sig.shape))
    out = base + (float(trace[0]) if single else trace)
    return out


def dx_hamiltonian_batch(spec, i, t, X, mu, nus, Y, Z, alpha):
    """State gradient of the full Hamiltonian for a particle batch."""
    pop = spec.populations[i]
    b1 = np.asarray(pop.drift.b1(t, mu, nus), dtype=float)
    out = Y @ b1
    if pop.diffusion.s1 is not None and Z is not None:
        s1 = np.asarray(pop.diffusion.s1(t, mu, nus), dtype=float)
        out = out + np.einsum("jlm,njl->nm", s1, Z)
    out = out + np.asarray(pop.cost.df_dx(t, X, mu, nus, alpha), dtype=float)
    return out


def dx_hamiltonian(ctx, alpha):
    pop = ctx.spec.populations[ctx.population]
    X, single = _batch(ctx.x, pop.state_dim)
    Y, _ = _batch(ctx.y, pop.state_dim)
    if Y.shape[0] != X.shape[0]:
        Y = np.broadcast_to(Y, X.shape)
    A, _ = _batch(alpha, pop.action_set.dimension)
    if A.shape[0] != X.shape[0]:
        A = np.broadcast_to(A, (X.shape[0], A.shape[1]))
    Z = ctx.z
    if Z is not None:
        Z = np.asarray(Z, dtype=float)
        if Z.ndim == 2:
            Z = np.broadcast_to(Z[None, :, :], (X.shape[0],) + Z.shape)
    out = dx_hamiltonian_batch(ctx.spec, ctx.population, ctx.t, X, ctx.mu,
                               ctx.nus, Y, Z, A)
    return out[0] if single else out


def dmu_hamiltonian(ctx, alpha, v, mean_y, mean_z=None):
    """Measure gradient of the Hamiltonian at direction point v.

    The context carries the copy batch (x and alpha are the tilde
    variables); the caller supplies the cross-expectation data: mean_y and
    mean_z are the already-averaged adjoint means that multiply the
    own-mean coefficient terms. Only defined for cooperative populations.
    """
    pop = ctx.spec.populations[ctx.population]
    if pop.cooperation != COOPERATIVE:
        raise ValueError(
            "dmu_hamiltonian is only defined for cooperative populations"
        )
    d = pop.state_dim
    v = np.asarray(v, dtype=float).reshape(d)
    out = np.zeros(d)
    if pop.drift.b1_bar is not None:
        b1b = np.asarray(pop.drift.b1_bar(ctx.t, ctx.nus), dtype=float)
        out += b1b.T @ np.asarray(mean_y, dtype=float)
    if pop.diffusion.s1_bar is not None and mean_z is not None:
        s1b = np.asarray(pop.diffusion.s1_bar(ctx.t, ctx.nus), dtype=float)
        out += np.einsum("jlm,jl->m", s1b, np.asarray(mean_z, dtype=float))
    X, _ = _batch(ctx.x, d)
    A, _ = _batch(alpha, pop.action_set.dimension)
    if A.shape[0] != X.shape[0]:
        A = np.broadcast_to(A, (X.shape[0], A.shape[1]))
    D = np.asarray(
        pop.cost.df_dmu(ctx.t, X, ctx.mu, ctx.nus, A, v[None, :]),
        dtype=float,
    )
    out += np.mean(np.broadcast_to(D, (X.shape[0], 1, d))[:, 0, :], axis=0)
    return out


def vi_residual(ctx, alpha_hat, n_directions=32, seed=0):
    """Variational inequality residual of a candidate minimizer.

    Samples the anchor plus n_directions random feasible actions beta and
    returns max(0, max_beta <alpha_hat - beta, grad H_r(alpha_hat)>).
    """
    pop = ctx.spec.populations[ctx.population]
    aset = pop.action_set
    k = aset.dimension
    X, single = _batch(ctx.x, pop.state_dim)
    if not single:
        raise ValueError("vi_residual expects a single-point context")
    Y, _ = _batch(ctx.y, pop.state_dim)
    A = np.asarray(alpha_hat, dtype=float).reshape(1, k)
    b2 = np.asarray(pop.drift.b2(ctx.t, ctx.mu, ctx.nus), dtype=float)
    grad = (Y @ b2 + np.asarray(
        pop.cost.df_dalpha(ctx.t, X, ctx.mu, ctx.nus, A), dtype=float))[0]
    rng = substream(seed, "vi-residual")
    betas = [aset.anchor_point]
    for scale in (0.5, 2.0):
        raw = scale * rng.standard_normal((n_directions // 2, k))
        betas.append(aset.project(A + raw))
    betas = np.vstack(betas)
    vals = (A - betas) @ grad
    return float(max(0.0, np.max(vals)))

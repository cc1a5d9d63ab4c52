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


def _batch(x, dim, n=None):
    """x as rows (m, dim), broadcast to n rows if given; whether x was one
    point."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != dim:
        raise ValueError("expected trailing dimension %d" % dim)
    if n is not None:
        x = np.broadcast_to(x, (n, dim))
    return x, single


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
        unc = -lin @ cost.quad_q_inv.T
        if aset.kind == "full-space":
            return unc
        if aset.kind == "box" and cost.quad_q_diagonal:
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


def field_feedback(spec, i, evaluate):
    """Feedback control of population i under an adjoint field, as a
    control(k, t, X, mu, nus) of fbsde.euler_scheme: the minimizer of the
    reduced Hamiltonian at the adjoint values evaluate(k, X)."""

    def control(k, t, X, mu, nus):
        return minimize_controls(spec, i, t, X, mu, nus, evaluate(k, X))

    return control


def _point(ctx, alpha=None):
    """A context as batch arguments: ((spec, i, t, X, mu, nus), Y, Z, A,
    single), with y, z and alpha broadcast to the rows of X; single tells
    whether x was one point."""
    pop = ctx.spec.populations[ctx.population]
    d = pop.state_dim
    X, single = _batch(ctx.x, d)
    Y, _ = _batch(ctx.y, d, len(X))
    Z = A = None
    if ctx.z is not None:
        Z = np.broadcast_to(np.asarray(ctx.z, dtype=float), (len(X), d, d))
    if alpha is not None:
        A, _ = _batch(alpha, pop.action_set.dimension, len(X))
    args = (ctx.spec, ctx.population, ctx.t, X, ctx.mu, ctx.nus)
    return args, Y, Z, A, single


def minimize(ctx, tol=1e-10, max_iter=10000):
    """Minimize the reduced Hamiltonian at a context point."""
    args, Y, _, _, single = _point(ctx)
    out = minimize_controls(*args, Y, tol=tol, max_iter=max_iter)
    return out[0] if single else out


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
    args, Y, _, A, single = _point(ctx, alpha)
    spec, i, t, X, mu, nus = args
    val = np.sum(drift_batch(*args, A) * Y, axis=1) + np.asarray(
        spec.populations[i].cost.f(t, X, mu, nus, A), dtype=float)
    return float(val[0]) if single else val


def hamiltonian_value(ctx, alpha):
    """Full Hamiltonian, adding tr(sigma' z) to the reduced one."""
    base = reduced_hamiltonian(ctx, alpha)
    if ctx.z is None:
        return base
    (spec, i, t, X, mu, nus), _, Z, _, single = _point(ctx)
    pop = spec.populations[i]
    sig = np.asarray(pop.diffusion.s0(t, mu, nus), dtype=float)
    sig = np.broadcast_to(sig, (X.shape[0],) + sig.shape).copy()
    if pop.diffusion.s1 is not None:
        s1 = np.asarray(pop.diffusion.s1(t, mu, nus), dtype=float)
        sig += np.einsum("jlm,nm->njl", s1, X)
    if pop.diffusion.s1_bar is not None:
        s1b = np.asarray(pop.diffusion.s1_bar(t, nus), dtype=float)
        sig += np.einsum("jlm,m->jl", s1b, mu.mean)[None, :, :]
    trace = np.einsum("njl,njl->n", sig, Z)
    return base + (float(trace[0]) if single else trace)


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
    args, Y, Z, A, single = _point(ctx, alpha)
    out = dx_hamiltonian_batch(*args, Y, Z, A)
    return out[0] if single else out


def _mean_over_copies(call, V, chunk=2048):
    """Average a copy-indexed measure derivative over the copy batch.

    call(v_chunk) must return (n_copies, nv_chunk, d) or (n_copies, 1, d)
    when the derivative does not depend on the direction point.
    """
    outs = []
    for s in range(0, len(V), chunk):
        block = V[s : s + chunk]
        D = np.asarray(call(block), dtype=float)
        mean = D.mean(axis=0)
        if mean.shape[0] == 1 and len(block) > 1:
            mean = np.broadcast_to(mean, (len(block), mean.shape[1]))
        outs.append(mean)
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
    args, _, _, A, _ = _point(ctx, alpha)
    return dmu_hamiltonian_batch(
        *args, A, np.asarray(v, dtype=float).reshape(1, d),
        np.asarray(mean_y, dtype=float), mean_z, np.zeros((1, d)))[0]


def vi_residual(ctx, alpha_hat, n_directions=32, seed=0):
    """Variational inequality residual of a candidate minimizer.

    Samples the anchor plus n_directions random feasible actions beta and
    returns max(0, max_beta <alpha_hat - beta, grad H_r(alpha_hat)>).
    """
    (spec, i, t, X, mu, nus), Y, _, A, single = _point(ctx, alpha_hat)
    if not single:
        raise ValueError("vi_residual expects a single-point context")
    pop = spec.populations[i]
    aset = pop.action_set
    b2 = np.asarray(pop.drift.b2(t, mu, nus), dtype=float)
    grad = (Y @ b2 + np.asarray(pop.cost.df_dalpha(t, X, mu, nus, A),
                                dtype=float))[0]
    rng = substream(seed, "vi-residual")
    betas = [aset.anchor_point]
    for scale in (0.5, 2.0):
        raw = scale * rng.standard_normal((n_directions // 2, aset.dimension))
        betas.append(aset.project(A + raw))
    betas = np.vstack(betas)
    vals = (A - betas) @ grad
    return float(max(0.0, np.max(vals)))

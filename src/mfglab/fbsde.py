"""Adjoint equation solvers by regression Monte Carlo, and LQ oracles.

The forward/backward systems are solved by Picard iteration on the
decoupling field: simulate states forward under the feedback induced by
the current field, regress the adjoint variable backward by least-squares
Monte Carlo on polynomial features, refit the field with damping, repeat
until the field stops moving. Competitive populations read every measure
argument from frozen input flows; the McKean-Vlasov variant feeds the
live empirical law of the particle batch into the coefficients and adds
the own-mean and measure-derivative driver terms.

Linear-quadratic models admit an independent oracle: matrix Riccati plus
a coupled linear two-point boundary system for the means, integrated with
a classical fourth-order scheme on a refined grid.
"""

from dataclasses import dataclass, field as dc_field
from itertools import combinations_with_replacement

import numpy as np

from .hamiltonian import drift_batch, dx_hamiltonian_batch, minimize_controls
from .measures import MeasureFlow, ParticleCloud, TimeGrid
from .model import COMPETITIVE, COOPERATIVE, measure_args
from .rng import substream


@dataclass
class SolverConfig:
    n_steps: int = 50
    n_paths: int = 4096
    degree: int = 2
    picard_tol: float = 1e-3
    max_picard: int = 50
    damping: float = 0.5

    def __post_init__(self):
        if self.n_steps < 1 or self.n_paths < 2:
            raise ValueError("need at least one step and two paths")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        if self.degree < 1 or self.degree > 3:
            raise ValueError("feature degree must be 1, 2, or 3")


class PicardError(RuntimeError):
    def __init__(self, message, history):
        super().__init__(message)
        self.history = list(history)


def _poly_mask(X):
    """Active coordinates: those with non-degenerate sample spread."""
    scale = np.abs(X).max(initial=0.0)
    return X.std(axis=0) > 1e-12 * (1.0 + scale)


def _features(X, degree, mask):
    n = X.shape[0]
    cols = [np.ones(n)]
    active = np.where(mask)[0]
    for deg in range(1, degree + 1):
        for combo in combinations_with_replacement(active, deg):
            col = np.ones(n)
            for a in combo:
                col = col * X[:, a]
            cols.append(col)
    return np.column_stack(cols)


class DecouplingField:
    """Per-knot polynomial regression map from state to adjoint value.

    For cooperative populations the law of the state at each knot is baked
    into that knot's fit, so evaluating the field realizes the section
    u(t, x, law(X_t)) of the master-field style feedback.
    """

    def __init__(self, grid, dim_x, dim_y, degree):
        self.grid = grid
        self.dim_x = dim_x
        self.dim_y = dim_y
        self.degree = degree
        self.coeffs = [None] * len(grid)
        self.masks = [None] * len(grid)

    def fit_knot(self, k, X, targets):
        mask = _poly_mask(X)
        F = _features(X, self.degree, mask)
        beta, _, _, _ = np.linalg.lstsq(F, targets, rcond=None)
        self.coeffs[k] = beta
        self.masks[k] = mask
        return F @ beta

    def eval(self, k, X):
        if self.coeffs[k] is None:
            raise RuntimeError("knot %d of the field was never fitted" % k)
        F = _features(X, self.degree, self.masks[k])
        return F @ self.coeffs[k]

    def linear_slope(self, k, X):
        """Slope of a linear refit of the field on the sample (dy, dx)."""
        vals = self.eval(k, X)
        F = _features(X, 1, np.ones(self.dim_x, dtype=bool))
        beta, _, _, _ = np.linalg.lstsq(F, vals, rcond=None)
        return beta[1:].T


@dataclass
class FbsdeSolution:
    population: int
    grid: TimeGrid
    n_paths: int
    X: np.ndarray
    Y: np.ndarray
    Z: np.ndarray
    controls: np.ndarray
    field: DecouplingField
    picard_history: list = dc_field(default_factory=list)
    seed: int = 0

    def state_flow(self):
        return MeasureFlow(
            self.grid, [ParticleCloud(self.X[k]) for k in range(len(self.grid))]
        )


def _trapezoid_weights(grid):
    w = np.full(len(grid), grid.dt)
    w[0] = 0.5 * grid.dt
    w[-1] = 0.5 * grid.dt
    return w


def _check_flows(spec, flows, grid):
    if len(flows) != spec.n_populations:
        raise ValueError(
            "need one flow per population (%d), got %d"
            % (spec.n_populations, len(flows))
        )
    for j, flow in enumerate(flows):
        if flow.grid != grid:
            raise ValueError("flow %d lives on a different time grid" % j)
        if flow.dim != spec.populations[j].state_dim:
            raise ValueError("flow %d has wrong state dimension" % j)


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


def _sigma_dw(pop, t, X, mu, nus, dWk):
    s0 = np.asarray(pop.diffusion.s0(t, mu, nus), dtype=float)
    out = dWk @ s0.T
    if pop.diffusion.s1 is not None:
        s1 = np.asarray(pop.diffusion.s1(t, mu, nus), dtype=float)
        sig = np.einsum("jlm,nm->njl", s1, X)
        out = out + np.einsum("njl,nl->nj", sig, dWk)
    if pop.diffusion.s1_bar is not None:
        s1b = np.asarray(pop.diffusion.s1_bar(t, nus), dtype=float)
        out = out + dWk @ np.einsum("jlm,m->jl", s1b, mu.mean).T
    return out


def solver_draws(spec, i, n, grid, seed):
    """Initial states (n, d) and scaled Brownian increments (K, n, d) of
    population i's solver batch, from its model-init and fbsde substreams."""
    pop = spec.populations[i]
    d = pop.state_dim
    xi = np.asarray(
        pop.initial_law(substream(seed, "model-init:%d" % i), n), dtype=float
    ).reshape(n, d)
    dW = substream(seed, "fbsde:%d" % i).standard_normal(
        (grid.n_steps, n, d)
    ) * np.sqrt(grid.dt)
    return xi, dW


def euler_scheme(spec, grid, simulated, xis, dWs, controls, flows=None,
                 live=False):
    """Forward Euler for a set of populations stepped together.

    simulated lists population indices; xis[q] (n, d), dWs[q] (K, n, d) and
    controls[q](k, t, X, mu, nus) -> (n, k) belong to population
    simulated[q]. A simulated population's measure slot reads the live
    cloud of its particles when live is set; every other slot reads that
    population's frozen flow. At each knot k = 0..K this yields
    (k, states, measures, alphas), with measures[q] = (mu, nus) the
    measure arguments of simulated[q] and alphas its controls (None at the
    terminal knot), and then steps every state to X + b dt + sigma dW.
    """
    K = grid.n_steps
    states = list(xis)
    for k in range(K + 1):
        t = grid.times[k]
        clouds = {j: flow.clouds[k] for j, flow in enumerate(flows or ())}
        if live:
            for j, X in zip(simulated, states):
                clouds[j] = ParticleCloud(X)
        measures = [measure_args(spec, j, clouds) for j in simulated]
        if k == K:
            yield k, states, measures, None
            return
        alphas = [
            control(k, t, X, mu, nus)
            for control, X, (mu, nus) in zip(controls, states, measures)
        ]
        yield k, states, measures, alphas
        states = [
            X + drift_batch(spec, j, t, X, mu, nus, alpha) * grid.dt
            + _sigma_dw(spec.populations[j], t, X, mu, nus, dW[k])
            for j, X, (mu, nus), alpha, dW in zip(
                simulated, states, measures, alphas, dWs)
        ]


def _forward(spec, i, grid, xi, dW, flows, control_fn, mkv,
             keep_controls=False):
    """Euler paths of population i under a feedback, with its own measure
    argument at each knot; the controls (K, n, k) too when kept."""
    X = np.empty((grid.n_steps + 1,) + xi.shape)
    controls = None
    if keep_controls:
        controls = np.empty((grid.n_steps, len(xi),
                             spec.populations[i].action_set.dimension))
    clouds = []
    for k, states, measures, alphas in euler_scheme(
            spec, grid, (i,), [xi], [dW], [control_fn], flows, live=mkv):
        X[k] = states[0]
        clouds.append(measures[0][0])
        if keep_controls and alphas is not None:
            controls[k] = alphas[0]
    return X, controls, clouds


def _terminal_adjoint(spec, i, XK, mu, nus, mkv):
    pop = spec.populations[i]
    Y = np.asarray(pop.cost.dg_dx(XK, mu, nus), dtype=float)
    if mkv and pop.cost.dg_dmu is not None:
        copies = mu.points
        Y = Y + _mean_over_copies(
            lambda V: pop.cost.dg_dmu(copies, mu, nus, V), XK
        )
    return Y


def _backward(spec, i, grid, X, dW, flows, clouds, degree, mkv):
    """Least-squares Monte Carlo backward pass along given forward paths."""
    pop = spec.populations[i]
    K = grid.n_steps
    n, d = X[0].shape
    others = spec.others(i)
    Y = np.empty((K + 1, n, d))
    Z = np.empty((K, n, d, d))
    nus_K = tuple(flows[j].clouds[K] for j in others)
    Y[K] = _terminal_adjoint(spec, i, X[K], clouds[K], nus_K, mkv)
    for k in range(K - 1, -1, -1):
        t = grid.times[k]
        mu = clouds[k]
        nus = tuple(flows[j].clouds[k] for j in others)
        mask = _poly_mask(X[k])
        F = _features(X[k], degree, mask)
        beta_y, _, _, _ = np.linalg.lstsq(F, Y[k + 1], rcond=None)
        yhat = F @ beta_y
        ztarget = np.einsum("nj,nl->njl", Y[k + 1], dW[k]).reshape(n, d * d)
        beta_z, _, _, _ = np.linalg.lstsq(F, ztarget / grid.dt, rcond=None)
        zhat = (F @ beta_z).reshape(n, d, d)
        alpha = minimize_controls(spec, i, t, X[k], mu, nus, yhat)
        drv = dx_hamiltonian_batch(spec, i, t, X[k], mu, nus, yhat, zhat, alpha)
        if mkv:
            if pop.drift.b1_bar is not None:
                b1b = np.asarray(pop.drift.b1_bar(t, nus), dtype=float)
                drv = drv + (b1b.T @ yhat.mean(axis=0))[None, :]
            if pop.diffusion.s1_bar is not None:
                s1b = np.asarray(pop.diffusion.s1_bar(t, nus), dtype=float)
                drv = drv + np.einsum("jlm,jl->m", s1b, zhat.mean(axis=0))[None, :]
            if pop.cost.df_dmu is not None:
                copies_x = X[k]
                copies_a = alpha
                drv = drv + _mean_over_copies(
                    lambda V: pop.cost.df_dmu(t, copies_x, mu, nus, copies_a, V),
                    X[k],
                )
        Y[k] = yhat + grid.dt * drv
        Z[k] = zhat
    return Y, Z


def _rms_gap(a, b):
    return float(np.sqrt(np.mean(np.sum((a - b) ** 2, axis=1))))


def _solve_adjoint(spec, i, flows, config, seed, mkv, initial_field=None):
    pop = spec.populations[i]
    cfg = config if config is not None else SolverConfig()
    grid = TimeGrid(spec.horizon, cfg.n_steps)
    _check_flows(spec, flows, grid)
    K = grid.n_steps
    d = pop.state_dim
    n = cfg.n_paths

    xi, dW = solver_draws(spec, i, n, grid, seed)

    others = spec.others(i)
    muT = flows[i].clouds[K]
    nusT = tuple(flows[j].clouds[K] for j in others)

    def init_eval(k, Xk):
        return _terminal_adjoint(spec, i, Xk, muT, nusT, mkv)

    if initial_field is not None and initial_field.grid == grid:
        prev_eval = initial_field.eval
    else:
        prev_eval = init_eval

    def control_from(evaluator):
        def control_fn(k, t, Xk, mu, nus):
            return minimize_controls(spec, i, t, Xk, mu, nus, evaluator(k, Xk))

        return control_fn

    field = None
    history = []
    converged = False
    for _ in range(cfg.max_picard):
        X, _, clouds = _forward(
            spec, i, grid, xi, dW, flows, control_from(prev_eval), mkv
        )
        Y, _ = _backward(spec, i, grid, X, dW, flows, clouds, cfg.degree, mkv)
        new_field = DecouplingField(grid, d, d, cfg.degree)
        delta = 0.0
        for k in range(K + 1):
            old_vals = prev_eval(k, X[k])
            target = (1.0 - cfg.damping) * old_vals + cfg.damping * Y[k]
            fitted = new_field.fit_knot(k, X[k], target)
            delta = max(delta, _rms_gap(fitted, old_vals))
        history.append(delta)
        field = new_field
        prev_eval = field.eval
        if delta <= cfg.picard_tol:
            converged = True
            break
    if not converged:
        raise PicardError(
            "Picard iteration stalled at field change %g after %d rounds "
            "(tolerance %g)" % (history[-1], len(history), cfg.picard_tol),
            history,
        )

    # one consistent pass with the converged field, so the stored paths,
    # controls, and adjoint values belong together
    X, controls, clouds = _forward(
        spec, i, grid, xi, dW, flows, control_from(field.eval), mkv,
        keep_controls=True,
    )
    Y, Z = _backward(spec, i, grid, X, dW, flows, clouds, cfg.degree, mkv)
    return FbsdeSolution(
        population=i,
        grid=grid,
        n_paths=n,
        X=X,
        Y=Y,
        Z=Z,
        controls=controls,
        field=field,
        picard_history=history,
        seed=seed,
    )


def solve_adjoint_competitive(spec, i, flows, config=None, seed=0,
                              initial_field=None):
    """Adjoint solve for a competitive population against frozen flows."""
    if spec.populations[i].cooperation != COMPETITIVE:
        raise ValueError(
            "population %d is cooperative; use solve_adjoint_mkv" % i
        )
    return _solve_adjoint(spec, i, flows, config, seed, mkv=False,
                          initial_field=initial_field)


def solve_adjoint_mkv(spec, i, flows, config=None, seed=0, initial_field=None):
    """McKean-Vlasov adjoint solve: the own law is the live particle law.

    The i-th entry of flows is used only to initialize the terminal field;
    coefficients, costs, and the extra driver terms read the empirical law
    of the simulated batch at each knot.
    """
    if spec.populations[i].cooperation != COOPERATIVE:
        raise ValueError(
            "population %d is competitive; use solve_adjoint_competitive" % i
        )
    return _solve_adjoint(spec, i, flows, config, seed, mkv=True,
                          initial_field=initial_field)


def solve_adjoint(spec, i, flows, config=None, seed=0, initial_field=None):
    """Dispatch on the population's cooperation kind."""
    if spec.populations[i].cooperation == COOPERATIVE:
        return solve_adjoint_mkv(spec, i, flows, config, seed, initial_field)
    return solve_adjoint_competitive(spec, i, flows, config, seed,
                                     initial_field)


# ---------------------------------------------------------------------------
# Costs and sufficiency


def _path_costs(spec, i, grid, X, controls, clouds, flows):
    """Per-path trapezoidal running cost plus terminal cost.

    The running integrand at the terminal knot reuses the last control
    (controls are defined on the left knots of the grid).
    """
    pop = spec.populations[i]
    others = spec.others(i)
    K = grid.n_steps
    w = _trapezoid_weights(grid)
    total = np.zeros(X.shape[1])
    for k in range(K + 1):
        t = grid.times[k]
        nus = tuple(flows[j].clouds[k] for j in others)
        alpha = controls[min(k, K - 1)]
        total += w[k] * np.asarray(
            pop.cost.f(t, X[k], clouds[k], nus, alpha), dtype=float
        )
    nus_K = tuple(flows[j].clouds[K] for j in others)
    total += np.asarray(pop.cost.g(X[K], clouds[K], nus_K), dtype=float)
    return total


def optimal_cost(spec, i, solution, flows):
    """Monte Carlo cost of a solved population: (estimate, standard error)."""
    mkv = spec.populations[i].cooperation == COOPERATIVE
    grid = solution.grid
    if mkv:
        clouds = [ParticleCloud(solution.X[k]) for k in range(len(grid))]
    else:
        clouds = list(flows[i].clouds)
    costs = _path_costs(spec, i, grid, solution.X, solution.controls, clouds,
                        flows)
    return float(costs.mean()), float(costs.std(ddof=1) / np.sqrt(len(costs)))


@dataclass
class SufficiencyReport:
    population: int
    shifts: np.ndarray
    margins: np.ndarray
    standard_errors: np.ndarray
    tolerance: float

    @property
    def passed(self):
        slack = 3.0 * self.standard_errors + self.tolerance
        return bool(np.all(self.margins >= -slack))


def verify_sufficiency(spec, i, solution, flows, n_deviations=16, seed=0,
                       tol=2e-2, shift_scale=0.5):
    """Check the convexity gap of random feedback deviations.

    Each deviation shifts the optimal feedback by a constant (projected
    back onto the action set) and is simulated under the same initial
    draws and Brownian increments as the solution. The reported margin is
    the sample mean of

        J(beta) - J(alpha_hat) - lambda * |beta - alpha_hat|^2_grid,

    which optimality makes nonnegative up to Monte Carlo error; the pass
    criterion allows 3 standard errors plus the stated tolerance.
    """
    pop = spec.populations[i]
    mkv = pop.cooperation == COOPERATIVE
    cfg_like_n = solution.n_paths
    grid = solution.grid
    lam = spec.constants.convexity_lambda
    K = grid.n_steps
    k_dim = pop.action_set.dimension

    xi, dW = solver_draws(spec, i, cfg_like_n, grid, solution.seed)
    if not np.array_equal(xi, solution.X[0]):
        raise ValueError("solution was not produced from this seed")

    if mkv:
        base_clouds = [ParticleCloud(solution.X[k]) for k in range(K + 1)]
    else:
        base_clouds = list(flows[i].clouds)
    base_costs = _path_costs(spec, i, grid, solution.X, solution.controls,
                             base_clouds, flows)

    rng = substream(seed, "sufficiency:%d" % i)
    shifts = rng.uniform(-shift_scale, shift_scale, (n_deviations, k_dim))
    w = _trapezoid_weights(grid)
    margins = np.empty(n_deviations)
    ses = np.empty(n_deviations)
    for j in range(n_deviations):
        c = shifts[j]

        def control_fn(k, t, Xk, mu, nus):
            base = minimize_controls(spec, i, t, Xk, mu, nus,
                                     solution.field.eval(k, Xk))
            return pop.action_set.project(base + c[None, :])

        Xd, controls_d, clouds_d = _forward(spec, i, grid, xi, dW, flows,
                                            control_fn, mkv,
                                            keep_controls=True)
        dev_costs = _path_costs(spec, i, grid, Xd, controls_d, clouds_d, flows)
        gap2 = np.zeros(cfg_like_n)
        for k in range(K):
            diff = controls_d[k] - solution.controls[k]
            gap2 += w[k] * np.sum(diff**2, axis=1)
        per_path = dev_costs - base_costs - lam * gap2
        margins[j] = float(per_path.mean())
        ses[j] = float(per_path.std(ddof=1) / np.sqrt(cfg_like_n))
    return SufficiencyReport(
        population=i,
        shifts=shifts,
        margins=margins,
        standard_errors=ses,
        tolerance=tol,
    )


# ---------------------------------------------------------------------------
# Linear-quadratic oracle: Riccati plus coupled mean/offset boundary system


class RiccatiError(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class LqSpec:
    """Game-level LQ data: one block per population plus initial moments.

    Control-cost curvature must dominate twice the declared convexity
    modulus (R is at least 2 lambda in the quadratic-form order).
    """

    blocks: tuple
    cooperation: tuple
    horizon: float
    init_mean: tuple
    init_cov: tuple
    convexity_lambda: float

    def __post_init__(self):
        if len(self.blocks) != len(self.cooperation):
            raise ValueError("one cooperation kind per block")
        for idx, blk in enumerate(self.blocks):
            eig = float(np.linalg.eigvalsh(blk.R).min())
            if eig < 2.0 * self.convexity_lambda - 1e-9:
                raise ValueError(
                    "population %d control cost curvature %g is below twice "
                    "the convexity modulus %g"
                    % (idx, eig, self.convexity_lambda)
                )
            if (self.cooperation[idx] == COMPETITIVE
                    and np.any(blk.A_bar != 0.0)):
                raise ValueError(
                    "competitive population %d must not carry an own-mean "
                    "drift block" % idx
                )


def lq_from_game(spec):
    """Extract the LQ oracle data attached to a game's populations."""
    blocks = []
    means = []
    covs = []
    for idx, pop in enumerate(spec.populations):
        if pop.lq is None:
            raise ValueError(
                "population %d carries no LQ data block; the ODE oracle "
                "needs one" % idx
            )
        if pop.initial_mean is None or pop.initial_cov is None:
            raise ValueError(
                "population %d lacks declared initial moments" % idx
            )
        blocks.append(pop.lq)
        means.append(pop.initial_mean)
        covs.append(pop.initial_cov)
    return LqSpec(
        blocks=tuple(blocks),
        cooperation=tuple(p.cooperation for p in spec.populations),
        horizon=spec.horizon,
        init_mean=tuple(means),
        init_cov=tuple(covs),
        convexity_lambda=spec.constants.convexity_lambda,
    )


@dataclass
class LqSolution:
    lq: LqSpec
    grid: TimeGrid
    refine: int
    times: np.ndarray
    P: list
    mean: list
    offset: list
    cov: list
    costs: list

    def _index(self, t):
        h = self.times[1] - self.times[0]
        idx = int(round(t / h))
        if not 0 <= idx < len(self.times) or abs(self.times[idx] - t) > 1e-9:
            raise ValueError("time %g is not a refined knot" % t)
        return idx

    def P_at(self, i, t):
        return self.P[i][self._index(t)]

    def mean_at(self, i, t):
        return self.mean[i][self._index(t)]

    def means_on(self, grid, i):
        return np.stack([self.mean_at(i, t) for t in grid.times])

    def P_on(self, grid, i):
        return np.stack([self.P_at(i, t) for t in grid.times])


def _riccati_rhs(P, A, K, W):
    return P @ K @ P - P @ A - A.T @ P - W


def solve_lq_riccati(lq, grid, refine=10):
    """Solve the LQ system with classical RK4 on a refine-times-finer grid.

    Returns per-population Riccati matrices, equilibrium means, adjoint
    offsets, state covariances, and total costs. Raises RiccatiError when
    any Riccati norm passes 1e8 (horizon too long for the data).
    """
    m = len(lq.blocks)
    dims = [blk.dim_x for blk in lq.blocks]
    T = lq.horizon
    n_ref = int(refine) * grid.n_steps
    n_half = 2 * n_ref
    h2 = T / n_half
    times_ref = np.linspace(0.0, T, n_ref + 1)

    Kmat = [blk.B @ np.linalg.solve(blk.R, blk.B.T) for blk in lq.blocks]

    # Riccati matrices on the half-step grid, integrated backward from T.
    P_half = []
    for i, blk in enumerate(lq.blocks):
        d = dims[i]
        P = np.empty((n_half + 1, d, d))
        P[n_half] = blk.Wg
        cur = blk.Wg.copy()
        for j in range(n_half, 0, -1):
            k1 = _riccati_rhs(cur, blk.A, Kmat[i], blk.W)
            k2 = _riccati_rhs(cur - 0.5 * h2 * k1, blk.A, Kmat[i], blk.W)
            k3 = _riccati_rhs(cur - 0.5 * h2 * k2, blk.A, Kmat[i], blk.W)
            k4 = _riccati_rhs(cur - h2 * k3, blk.A, Kmat[i], blk.W)
            cur = cur - (h2 / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            if np.linalg.norm(cur) > 1e8:
                raise RiccatiError(
                    "Riccati norm exceeded 1e8 near t=%g for population %d; "
                    "the horizon is too long for this data" % ((j - 1) * h2, i)
                )
            P[j - 1] = cur
        P_half.append(P)

    # Linear system v = (means, offsets): v' = M(t) v + r(t).
    offs = np.concatenate(([0], np.cumsum(dims)))
    nd = offs[-1]

    def build_M_r(j):
        M = np.zeros((2 * nd, 2 * nd))
        r = np.zeros(2 * nd)
        for i, blk in enumerate(lq.blocks):
            sl = slice(offs[i], offs[i + 1])
            sw = slice(nd + offs[i], nd + offs[i + 1])
            P = P_half[i][j]
            coop = lq.cooperation[i] == COOPERATIVE
            others = [jj for jj in range(m) if jj != i]
            if coop:
                M[sl, sl] = blk.A + blk.A_bar
            else:
                M[sl, sl] = blk.A - Kmat[i] @ P
            M[sl, sw] = -Kmat[i]
            r[sl] = blk.a
            for pos, jj in enumerate(others):
                so = slice(offs[jj], offs[jj + 1])
                M[sl, so] += blk.cross("C", pos)
            if coop:
                IS = np.eye(dims[i]) - blk.S
                M[sw, sw] = -(blk.A + blk.A_bar).T
                M[sw, sl] = -IS.T @ blk.W @ IS
                r[sw] = IS.T @ blk.W @ blk.s
                for pos, jj in enumerate(others):
                    so = slice(offs[jj], offs[jj + 1])
                    M[sw, so] += IS.T @ blk.W @ blk.cross("S_bar", pos)
            else:
                M[sw, sw] = P @ Kmat[i] - blk.A.T
                M[sw, sl] = blk.W @ blk.S
                r[sw] = blk.W @ blk.s - P @ blk.a
                for pos, jj in enumerate(others):
                    so = slice(offs[jj], offs[jj + 1])
                    M[sw, so] += (blk.W @ blk.cross("S_bar", pos)
                                  - P @ blk.cross("C", pos))
        return M, r

    # Fundamental matrix and particular solution, forward with step h.
    h = T / n_ref
    aug = np.zeros((2 * nd, 2 * nd + 1))
    aug[:, : 2 * nd] = np.eye(2 * nd)
    psi_path = np.empty((n_ref + 1, 2 * nd, 2 * nd + 1))
    psi_path[0] = aug

    def rhs(j, Y):
        M, r = build_M_r(j)
        out = M @ Y
        out[:, -1] += r
        return out

    cur = aug
    for j in range(n_ref):
        k1 = rhs(2 * j, cur)
        k2 = rhs(2 * j + 1, cur + 0.5 * h * k1)
        k3 = rhs(2 * j + 1, cur + 0.5 * h * k2)
        k4 = rhs(2 * j + 2, cur + h * k3)
        cur = cur + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        psi_path[j + 1] = cur

    # Terminal constraint rows: Ct v(T) = c.
    Ct = np.zeros((nd, 2 * nd))
    c = np.zeros(nd)
    for i, blk in enumerate(lq.blocks):
        sl = slice(offs[i], offs[i + 1])
        coop = lq.cooperation[i] == COOPERATIVE
        others = [jj for jj in range(m) if jj != i]
        Ct[sl, nd + offs[i] : nd + offs[i + 1]] = np.eye(dims[i])
        if coop:
            IG = np.eye(dims[i]) - blk.G
            Ct[sl, sl] += -IG.T @ blk.Wg @ IG
            c[sl] = -IG.T @ blk.Wg @ blk.h
            for pos, jj in enumerate(others):
                so = slice(offs[jj], offs[jj + 1])
                Ct[sl, so] += IG.T @ blk.Wg @ blk.cross("G_bar", pos)
        else:
            Ct[sl, sl] += blk.Wg @ blk.G
            c[sl] = -blk.Wg @ blk.h
            for pos, jj in enumerate(others):
                so = slice(offs[jj], offs[jj + 1])
                Ct[sl, so] += blk.Wg @ blk.cross("G_bar", pos)

    m0 = np.concatenate([np.asarray(mu, dtype=float) for mu in lq.init_mean])
    PsiT = psi_path[n_ref][:, : 2 * nd]
    vpT = psi_path[n_ref][:, -1]
    lhs = Ct @ PsiT[:, nd:]
    rhs_vec = c - Ct @ (PsiT[:, :nd] @ m0 + vpT)
    w0 = np.linalg.solve(lhs, rhs_vec)
    v0 = np.concatenate([m0, w0])
    v_path = np.einsum("jab,b->ja", psi_path[:, :, : 2 * nd], v0) + psi_path[:, :, -1]

    means = [v_path[:, offs[i] : offs[i + 1]] for i in range(m)]
    offsets = [v_path[:, nd + offs[i] : nd + offs[i + 1]] for i in range(m)]

    # State covariances, forward: V' = F V + V F' + sigma sigma'.
    covs = []
    for i, blk in enumerate(lq.blocks):
        d = dims[i]
        V = np.empty((n_ref + 1, d, d))
        V[0] = np.asarray(lq.init_cov[i], dtype=float)
        SS = blk.sigma @ blk.sigma.T

        def vf(j, Vc):
            F = blk.A - Kmat[i] @ P_half[i][j]
            return F @ Vc + Vc @ F.T + SS

        cur = V[0]
        for j in range(n_ref):
            k1 = vf(2 * j, cur)
            k2 = vf(2 * j + 1, cur + 0.5 * h * k1)
            k3 = vf(2 * j + 1, cur + 0.5 * h * k2)
            k4 = vf(2 * j + 2, cur + h * k3)
            cur = cur + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            V[j + 1] = cur
        covs.append(V)

    # Total costs by trapezoid on the refined grid.
    costs = []
    for i, blk in enumerate(lq.blocks):
        coop = lq.cooperation[i] == COOPERATIVE
        others = [jj for jj in range(m) if jj != i]
        Rinv_Bt = np.linalg.solve(blk.R, blk.B.T)
        run = np.empty(n_ref + 1)
        for j in range(n_ref + 1):
            P = P_half[i][2 * j]
            V = covs[i][j]
            mi = means[i][j]
            wi = offsets[i][j]
            if coop:
                ybar = wi
            else:
                ybar = P @ mi + wi
            abar = -Rinv_Bt @ ybar
            quad_ctrl = float(
                np.trace(blk.B.T @ P @ V @ P @ blk.B @ np.linalg.inv(blk.R))
            ) + float(abar @ blk.R @ abar)
            e = mi - blk.S @ mi - blk.s
            for pos, jj in enumerate(others):
                e = e - blk.cross("S_bar", pos) @ means[jj][j]
            quad_state = float(np.trace(blk.W @ V)) + float(e @ blk.W @ e)
            run[j] = 0.5 * (quad_ctrl + quad_state)
        wgt = np.full(n_ref + 1, h)
        wgt[0] = wgt[-1] = 0.5 * h
        total = float(np.sum(wgt * run))
        eT = means[i][-1] - blk.G @ means[i][-1] - blk.h
        for pos, jj in enumerate(others):
            eT = eT - blk.cross("G_bar", pos) @ means[jj][-1]
        total += 0.5 * (
            float(np.trace(blk.Wg @ covs[i][-1])) + float(eT @ blk.Wg @ eT)
        )
        costs.append(total)

    P_ref = [P_half[i][::2] for i in range(m)]
    return LqSolution(
        lq=lq,
        grid=grid,
        refine=int(refine),
        times=times_ref,
        P=P_ref,
        mean=means,
        offset=offsets,
        cov=covs,
        costs=costs,
    )

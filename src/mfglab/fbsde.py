"""Adjoint equation solvers by regression Monte Carlo, and LQ oracles.

The forward/backward systems are solved by Picard iteration on the
decoupling field: simulate states forward under the feedback induced by
the current field, regress the adjoint variable backward by least-squares
Monte Carlo on polynomial features, refit the field with a secant-step
weight, repeat until the field stops moving. Competitive populations read
every measure argument from frozen input flows; the McKean-Vlasov variant
feeds the live empirical law of the particle batch into the coefficients
and adds the own-mean and measure-derivative driver terms.

Linear-quadratic models admit an independent oracle: matrix Riccati plus
a coupled linear two-point boundary system for the means, integrated with
a classical fourth-order scheme on a refined grid.
"""

from collections import namedtuple
from dataclasses import dataclass, field as dc_field
from itertools import combinations_with_replacement

import numpy as np

from .hamiltonian import (_mean_over_copies, dmu_hamiltonian_batch,
                          drift_batch, dx_hamiltonian_batch, field_feedback,
                          minimize_controls)
from .measures import ParticleCloud, TimeGrid, row_mean
from .model import COMPETITIVE, COOPERATIVE, measure_args
from .rng import substream


@dataclass
class SolverConfig:
    """Solver sizes and Picard controls; damping opens a cold solve. The
    fields' ranges are checked here only, the config loader checks types."""

    n_steps: int = 50
    n_paths: int = 4096
    degree: int = 2
    picard_tol: float = 1e-3
    max_picard: int = 50
    damping: float = 0.5

    def __post_init__(self):
        # each message opens with its field, which the config loader
        # prefixes with the block; NaN fails every float check
        if self.n_steps < 1:
            raise ValueError("n_steps: must be >= 1, got %s" % self.n_steps)
        if self.n_paths < 2:
            raise ValueError("n_paths: must be >= 2, got %s" % self.n_paths)
        if self.degree not in (1, 2, 3):
            raise ValueError("degree: must be 1, 2 or 3, got %s" % self.degree)
        if not 0.0 < self.picard_tol < np.inf:
            raise ValueError("picard_tol: must be positive and finite, got %s"
                             % self.picard_tol)
        if self.max_picard < 1:
            raise ValueError("max_picard: must be >= 1, got %s"
                             % self.max_picard)
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping: must lie in (0, 1], got %s"
                             % self.damping)


THETA_MIN = 1.0 / 32.0


def secant_weight(weight, j):
    """Depth-1 Anderson step: -1/j clipped to [THETA_MIN, 1] if j < 0."""
    return min(max(-1.0 / j, THETA_MIN), 1.0) if j < 0.0 else weight


class PicardError(RuntimeError):
    def __init__(self, message, history):
        super().__init__(message)
        self.history = list(history)


def _features(X, degree):
    """Monomials up to degree in the coordinates of X, constant first;
    each column is a lower-degree column times one coordinate."""
    Xt = np.ascontiguousarray(X.T)
    combos = [()] + [c for deg in range(1, degree + 1) for c in
                     combinations_with_replacement(range(X.shape[1]), deg)]
    Ft = np.empty((len(combos), X.shape[0]))
    Ft[0] = 1.0
    for j, combo in enumerate(combos[1:], 1):
        np.multiply(Ft[combos.index(combo[:-1])], Xt[combo[-1]], out=Ft[j])
    return Ft.T


class KnotRegression:
    """Least squares on the polynomial features F of one knot's states,
    factored once and shared by every target on that basis.

    solve applies the inverse of G = F'F through that of its Cholesky
    factor. Where the Cholesky fails or its diagonal spans more than 1e3 (a
    singular G can pass with a rounding-level last pivot), a thin SVD gives
    np.linalg.lstsq's minimum-norm solution at its default cutoff:
    singular values at or below eps * max(n, p) * s_max count as zero, so
    rank-deficient knots (one with a coordinate of no spread, say) and badly
    scaled ones fit as lstsq fits them. Non-finite features raise
    LinAlgError.
    """

    def __init__(self, X, degree):
        self.F = _features(X, degree)
        if not np.isfinite(self.F).all():
            raise np.linalg.LinAlgError("non-finite features")
        self.G = self.F.T @ self.F
        try:
            L = np.linalg.cholesky(self.G)
            span = L.diagonal().max() / L.diagonal().min()
        except np.linalg.LinAlgError:
            span = np.inf
        if span <= 1e3:  # a NaN span, from an overflowed G, falls back
            L_inv = np.linalg.inv(L)
            self._left, self._right = self.F.T, L_inv.T @ L_inv
            return
        U, s, Vt = np.linalg.svd(self.F, full_matrices=False)
        cutoff = np.finfo(float).eps * max(self.F.shape) * s[0]
        r = np.count_nonzero(s > cutoff)  # s descends: the kept ones lead
        self._left = U[:, :r].T
        self._right = Vt[:r].T / s[:r]

    def solve(self, targets):
        """Coefficients (p, m) and fitted values (n, m) of targets (n, m)."""
        beta = self._right @ (self._left @ targets)
        return beta, self.F @ beta


class DecouplingField:
    """Per-knot polynomial regression map from state to adjoint value.

    For cooperative populations the law of the state at each knot is baked
    into that knot's fit, so evaluating the field realizes the section
    u(t, x, law(X_t)) of the master-field style feedback.
    """

    def __init__(self, grid, degree):
        self.grid = grid
        self.degree = degree
        self.coeffs = [None] * len(grid)
        self.weight = None  # the mixing weight of the sweep that built it

    def fit_knot(self, k, fit, old, Y):
        """Fit knot k to the old values; the step beta_Y - beta_old and
        a.a, a.b, b.b for a = fitted old - old, b = fitted Y - fitted old."""
        self.coeffs[k], fitted_old = fit.solve(old)
        beta_y, fitted_y = fit.solve(Y)
        a, b = fitted_old - old, fitted_y - fitted_old
        return beta_y - self.coeffs[k], (np.vdot(a, a), np.vdot(a, b),
                                         np.vdot(b, b))

    def eval(self, k, X):
        if self.coeffs[k] is None:
            raise RuntimeError("knot %d of the field was never fitted" % k)
        return _features(X, self.degree) @ self.coeffs[k]

    def linear_slope(self, k, X):
        """Slope of a linear refit of the field on the sample (dy, dx)."""
        beta, _ = KnotRegression(X, 1).solve(self.eval(k, X))
        return beta[1:].T


@dataclass
class FbsdeSolution:
    grid: TimeGrid
    X: np.ndarray
    controls: np.ndarray
    field: DecouplingField
    costs: np.ndarray  # per-path running plus terminal cost of the paths X
    picard_history: list = dc_field(default_factory=list)
    picard_dampings: list = dc_field(default_factory=list)
    seed: int = 0


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


def _sigma_dw(pop, t, X, mu, nus, dWk):
    s0 = np.asarray(pop.diffusion.s0(t, mu, nus), dtype=float)
    out = np.dot(dWk, s0.T.copy())  # not @ nor a view: see hamiltonian.py
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


# One simulated population's Euler pass: paths (K + 1, n, d), controls
# (K, n, k) or None, and its measure arguments (mu, nus) at each knot.
ForwardRecord = namedtuple("ForwardRecord", "paths controls measures")


def euler_scheme(spec, grid, simulated, xis, dWs, controls, flows=None,
                 live=False, keep_controls=False):
    """Forward Euler for a set of populations stepped together.

    simulated lists population indices; xis[q] (n, d), dWs[q] (K, n, d) and
    controls[q](k, t, X, mu, nus) -> (n, k) belong to population
    simulated[q]. A simulated population's measure slot reads the live
    cloud of its particles when live is set; every other slot reads that
    population's frozen flow. At each knot k < K every control is
    evaluated, then every state steps to X + b dt + sigma dW. Returns one
    ForwardRecord per simulated population, with its controls only when
    keep_controls is set.
    """
    K = grid.n_steps
    records = [
        ForwardRecord(
            np.empty((K + 1,) + np.shape(xi)),
            np.empty((K, len(xi), spec.populations[j].action_set.dimension))
            if keep_controls else None,
            [])
        for j, xi in zip(simulated, xis)
    ]
    for rec, xi in zip(records, xis):
        rec.paths[0] = xi
    for k in range(K + 1):
        t = grid.times[k]
        clouds = {j: flow.clouds[k] for j, flow in enumerate(flows or ())}
        if live:
            for j, rec in zip(simulated, records):
                clouds[j] = ParticleCloud(rec.paths[k])
        for j, rec in zip(simulated, records):
            rec.measures.append(measure_args(spec, j, clouds))
        if k == K:
            return records
        alphas = [control(k, t, rec.paths[k], *rec.measures[k])
                  for control, rec in zip(controls, records)]
        for j, rec, alpha, dW in zip(simulated, records, alphas, dWs):
            X = rec.paths[k]
            mu, nus = rec.measures[k]
            rec.paths[k + 1] = (
                X + drift_batch(spec, j, t, X, mu, nus, alpha) * grid.dt
                + _sigma_dw(spec.populations[j], t, X, mu, nus, dW[k]))
            if keep_controls:
                rec.controls[k] = alpha


def _terminal_adjoint(spec, i, XK, mu, nus):
    pop = spec.populations[i]
    Y = np.asarray(pop.cost.dg_dx(XK, mu, nus), dtype=float)
    if pop.cooperation == COOPERATIVE and pop.cost.dg_dmu is not None:
        copies = mu.points
        Y = Y + _mean_over_copies(
            lambda V: pop.cost.dg_dmu(copies, mu, nus, V), XK
        )
    return Y


def _backward(spec, i, grid, X, dW, measures, degree, refit):
    """Least-squares Monte Carlo backward pass along given forward paths
    and their per-knot measure arguments (mu, nus), handing each knot's
    adjoint value to refit(k, fit, Y_k), knot K first.
    One factorization per knot serves the Y fit, the refit and, only for
    a state-linear diffusion (s1 or s1_bar, the sole readers of Z), the Z
    fit; knot K is factored only for the refit. Only the latest Y is kept."""
    pop = spec.populations[i]
    mkv = pop.cooperation == COOPERATIVE
    K = grid.n_steps
    n, d = X[0].shape
    def regression(k):
        try:
            return KnotRegression(X[k], degree)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError("knot %d, max |state| %.3g: %s" % (
                k, np.abs(X[k]).max(), exc)) from exc

    Y = _terminal_adjoint(spec, i, X[K], *measures[K])
    refit(K, regression(K), Y)
    for k in range(K - 1, -1, -1):
        t = grid.times[k]
        mu, nus = measures[k]
        fit = regression(k)
        _, yhat = fit.solve(Y)
        zhat = mean_z = None
        if pop.diffusion.s1 is not None or pop.diffusion.s1_bar is not None:
            ztarget = np.einsum("nj,nl->njl", Y, dW[k]).reshape(n, d * d)
            zhat = fit.solve(ztarget / grid.dt)[1].reshape(n, d, d)
            mean_z = zhat.mean(axis=0)
        alpha = minimize_controls(spec, i, t, X[k], mu, nus, yhat)
        drv = dx_hamiltonian_batch(spec, i, t, X[k], mu, nus, yhat, zhat, alpha)
        if mkv:
            drv = dmu_hamiltonian_batch(spec, i, t, X[k], mu, nus, alpha, X[k],
                                        row_mean(yhat), mean_z, drv)
        Y = yhat + grid.dt * drv
        refit(k, fit, Y)


def solve_adjoint(spec, i, flows, config=None, seed=0, initial_field=None):
    """Adjoint solve for population i against the input flows.

    A competitive population reads every measure argument from the frozen
    flows. A cooperative population is solved as a McKean-Vlasov problem:
    its own law is the live empirical law of the simulated batch, and its
    own entry of flows only initializes the first terminal field.

    A sweep moves each knot's coefficients from beta_old, the fit of the
    old field values, to beta_old + c (beta_Y - beta_old). c opens at
    config.damping, or at the weight that built initial_field; then the
    secant slope j of secant_weight is taken on the steps beta_Y - beta_old
    of the last two sweeps, paired knot by knot in each knot's Gram metric.
    """
    pop = spec.populations[i]
    mkv = pop.cooperation == COOPERATIVE
    cfg = config if config is not None else SolverConfig()
    grid = TimeGrid(spec.horizon, cfg.n_steps)
    _check_flows(spec, flows, grid)
    K = grid.n_steps

    xi, dW = solver_draws(spec, i, cfg.n_paths, grid, seed)

    muT, nusT = measure_args(spec, i, [flow.clouds[K] for flow in flows])

    warm = initial_field is not None and initial_field.grid == grid
    weight = initial_field.weight if warm else cfg.damping
    prev_eval = initial_field.eval if warm else (
        lambda k, Xk: _terminal_adjoint(spec, i, Xk, muT, nusT))

    field = None
    history = []
    weights = []
    steps = [None] * (K + 1)
    while True:
        # the pass after a sweep within picard_tol runs under its field, so
        # the stored paths, controls and costs belong together
        final = bool(history) and history[-1] <= cfg.picard_tol
        # the refit's old values are the field values behind the controls
        old_vals = []

        def evaluate(k, Xk):
            old_vals.append(prev_eval(k, Xk))
            return old_vals[-1]

        (X, controls, measures), = euler_scheme(
            spec, grid, (i,), [xi], [dW],
            [field_feedback(spec, i, field.eval if final else evaluate)],
            flows, live=mkv, keep_controls=final)
        if final:
            return FbsdeSolution(
                grid=grid, X=X, controls=controls, field=field,
                costs=_path_costs(spec, i, grid, X, controls, measures),
                picard_history=history, picard_dampings=weights, seed=seed)
        old_vals.append(prev_eval(K, X[K]))
        new_field = DecouplingField(grid, cfg.degree)
        prev_steps, steps = steps, [None] * (K + 1)
        terms = np.empty((K + 1, 3))
        secant = [0.0, 0.0]

        def refit(k, fit, Yk):
            steps[k], terms[k] = new_field.fit_knot(k, fit, old_vals[k], Yk)
            prev = prev_steps[k]
            if prev is not None:
                g_prev = fit.G @ prev
                secant[0] += np.vdot(g_prev, steps[k] - prev)
                secant[1] += np.vdot(g_prev, prev)

        _backward(spec, i, grid, X, dW, measures, cfg.degree, refit)
        if secant[1] > 0.0:
            weight = secant_weight(weight, secant[0] / (weight * secant[1]))
        for k, step in enumerate(steps):
            new_field.coeffs[k] += weight * step
        new_field.weight = weight
        weights.append(weight)
        # the field moves by a + weight b on knot k; NaN gaps give a NaN delta
        sq = np.maximum(terms @ [1.0, 2.0 * weight, weight**2], 0.0)
        delta = float(np.sqrt(np.max(sq) / len(X[0])))
        history.append(delta)
        if not np.isfinite(delta):
            raise PicardError(
                "Picard sweep %d gave a non-finite field change %g"
                % (len(history), delta),
                history,
            )
        field = new_field
        prev_eval = field.eval
        if delta > cfg.picard_tol and len(history) == cfg.max_picard:
            raise PicardError(
                "Picard iteration stalled at field change %g after %d rounds "
                "(tolerance %g)" % (delta, len(history), cfg.picard_tol),
                history,
            )


# ---------------------------------------------------------------------------
# Costs and sufficiency


def _path_costs(spec, i, grid, X, controls, measures):
    """Per-path trapezoidal running cost plus terminal cost of paths X
    (K + 1, n, d) under controls (K, n, k) and per-knot measure arguments.

    The running integrand at the terminal knot reuses the last control
    (controls are defined on the left knots of the grid).
    """
    pop = spec.populations[i]
    K = grid.n_steps
    w = _trapezoid_weights(grid)
    total = np.zeros(X.shape[1])
    for k in range(K + 1):
        mu, nus = measures[k]
        alpha = controls[min(k, K - 1)]
        total += w[k] * np.asarray(
            pop.cost.f(grid.times[k], X[k], mu, nus, alpha), dtype=float
        )
    total += np.asarray(pop.cost.g(X[K], *measures[K]), dtype=float)
    return total


Estimate = namedtuple("Estimate", "mean se")


def mean_se(values):
    """Monte Carlo Estimate of the mean of values: the standard error is
    std(ddof=1) / sqrt(n), and 0.0 for a single value. Every reported
    (mean, se) pair is made here."""
    values = np.asarray(values)
    n = len(values)
    se = float(values.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return Estimate(float(values.mean()), se)


def optimal_cost(solution):
    """Monte Carlo cost of a solved population, an Estimate (see mean_se)
    from the per-path costs that its solve priced."""
    return mean_se(solution.costs)


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
    criterion allows 3 standard errors plus the stated tolerance. flows are
    the flows that solution was solved against, and J(alpha_hat) is the
    per-path cost its solve priced.
    """
    pop = spec.populations[i]
    n = solution.X.shape[1]
    grid = solution.grid
    lam = spec.constants.convexity_lambda
    K = grid.n_steps
    k_dim = pop.action_set.dimension

    xi, dW = solver_draws(spec, i, n, grid, solution.seed)
    if not np.array_equal(xi, solution.X[0]):
        raise ValueError("solution was not produced from this seed")

    rng = substream(seed, "sufficiency:%d" % i)
    shifts = rng.uniform(-shift_scale, shift_scale, (n_deviations, k_dim))
    w = _trapezoid_weights(grid)
    margins = np.empty(n_deviations)
    ses = np.empty(n_deviations)
    base = field_feedback(spec, i, solution.field.eval)
    for j in range(n_deviations):
        c = shifts[j]

        def control_fn(k, t, Xk, mu, nus):
            return pop.action_set.project(base(k, t, Xk, mu, nus) + c[None, :])

        dev, = euler_scheme(spec, grid, (i,), [xi], [dW], [control_fn], flows,
                            live=pop.cooperation == COOPERATIVE,
                            keep_controls=True)
        dev_costs = _path_costs(spec, i, grid, *dev)
        gap2 = np.zeros(n)
        for k in range(K):
            diff = dev.controls[k] - solution.controls[k]
            gap2 += w[k] * np.sum(diff**2, axis=1)
        per_path = dev_costs - solution.costs - lam * gap2
        margins[j], ses[j] = mean_se(per_path)
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
        for name in ("init_mean", "init_cov"):
            if len(getattr(self, name)) > len(self.blocks):
                raise ValueError("%s has %d entries for %d populations" % (
                    name, len(getattr(self, name)), len(self.blocks)))
        for idx, blk in enumerate(self.blocks):
            if blk.dim_x != self.blocks[0].dim_x:
                raise ValueError(
                    "population %d has state dimension %d but population 0 "
                    "has %d; the cross blocks C, S_bar, G_bar need one"
                    % (idx, blk.dim_x, self.blocks[0].dim_x)
                )
            d = blk.dim_x
            for name, shape in (("init_mean", (d,)), ("init_cov", (d, d))):
                vals = getattr(self, name)
                got = np.shape(vals[idx]) if idx < len(vals) else "no entry"
                if got != shape:
                    raise ValueError("population %d %s: expected shape %s, "
                                     "got %s" % (idx, name, shape, got))
            for name in ("C", "S_bar", "G_bar"):
                if len(getattr(blk, name)) >= len(self.blocks):
                    raise ValueError(
                        "population %d %s has %d blocks for %d other "
                        "populations" % (idx, name, len(getattr(blk, name)),
                                         len(self.blocks) - 1)
                    )
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


def _rk4_step(f, j, y, h):
    """One classical RK4 step of y' = f(k, y) with signed step h. A forward
    step reads the half-step grid at k = j at its start, j + 1 at its
    midpoint and j + 2 at its end; the autonomous Riccati equation, stepped
    backward, ignores k."""
    k1 = f(j, y)
    k2 = f(j + 1, y + 0.5 * h * k1)
    k3 = f(j + 1, y + 0.5 * h * k2)
    k4 = f(j + 2, y + h * k3)
    return y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def solve_lq_riccati(lq, grid, refine=10):
    """Solve the LQ system with classical RK4 on a refine-times-finer grid.

    Returns per-population Riccati matrices, equilibrium means, adjoint
    offsets, state covariances, and total costs. Raises RiccatiError when
    any Riccati norm passes 1e8 (horizon too long for the data). P is
    integrated backward on the half-step grid, so the forward RK4 steps of
    the means, offsets and covariances read it exactly at their midpoints.
    """
    if not (refine >= 1 and refine % 1 == 0):  # NaN fails too
        raise ValueError("refine: must be an integer >= 1, got %s" % refine)
    m = len(lq.blocks)
    dims = [blk.dim_x for blk in lq.blocks]
    fine = TimeGrid(lq.horizon, int(refine) * grid.n_steps)
    n_ref, h = fine.n_steps, fine.dt
    h2 = 0.5 * h  # exact: the half-step grid's step
    coop = [kind == COOPERATIVE for kind in lq.cooperation]
    others = [[jj for jj in range(m) if jj != i] for i in range(m)]
    Kmat = [blk.B @ np.linalg.solve(blk.R, blk.B.T) for blk in lq.blocks]

    # Riccati matrices on the half-step grid, integrated backward from T.
    P_half = []
    for i, blk in enumerate(lq.blocks):
        def riccati(_, P):
            return P @ Kmat[i] @ P - P @ blk.A - blk.A.T @ P - blk.W

        P = np.empty((2 * n_ref + 1,) + blk.Wg.shape)
        P[-1] = cur = blk.Wg
        for j in range(2 * n_ref, 0, -1):
            cur = _rk4_step(riccati, 0, cur, -h2)
            if np.linalg.norm(cur) > 1e8:
                raise RiccatiError(
                    "Riccati norm exceeded 1e8 near t=%g for population %d; "
                    "the horizon is too long for this data" % ((j - 1) * h2, i)
                )
            P[j - 1] = cur
        P_half.append(P)

    # Linear system v = (means, offsets): v' = M(t) v + r(t). The blocks
    # that do not read P are built once; each evaluation writes only the
    # competitive populations' P-dependent blocks into a copy.
    offs = np.concatenate(([0], np.cumsum(dims)))
    nd = offs[-1]
    own = [slice(offs[i], offs[i + 1]) for i in range(m)]
    adj = [slice(nd + offs[i], nd + offs[i + 1]) for i in range(m)]
    M0 = np.zeros((2 * nd, 2 * nd))
    r0 = np.zeros(2 * nd)
    live = []
    for i, blk in enumerate(lq.blocks):
        sl, sw = own[i], adj[i]
        M0[sl, sw] = -Kmat[i]
        r0[sl] = blk.a
        for pos, jj in enumerate(others[i]):
            M0[sl, own[jj]] += blk.cross("C", pos)
        if coop[i]:
            IS = np.eye(dims[i]) - blk.S
            ISW = IS.T @ blk.W
            M0[sl, sl] = blk.A + blk.A_bar
            M0[sw, sw] = -(blk.A + blk.A_bar).T
            M0[sw, sl] = -ISW @ IS
            r0[sw] = ISW @ blk.s
            for pos, jj in enumerate(others[i]):
                M0[sw, own[jj]] += ISW @ blk.cross("S_bar", pos)
        else:
            M0[sw, sl] = blk.W @ blk.S
            live.append((i, blk, blk.W @ blk.s, [
                (own[jj], blk.W @ blk.cross("S_bar", pos), blk.cross("C", pos))
                for pos, jj in enumerate(others[i])]))

    def mean_offset(j, Y):
        M = M0.copy()
        r = r0.copy()
        for i, blk, Ws, cross in live:
            P = P_half[i][j]
            sl, sw = own[i], adj[i]
            M[sl, sl] = blk.A - Kmat[i] @ P
            M[sw, sw] = P @ Kmat[i] - blk.A.T
            r[sw] = Ws - P @ blk.a
            for so, WS_bar, C in cross:
                M[sw, so] += WS_bar - P @ C
        out = M @ Y
        out[:, -1] += r
        return out

    # Fundamental matrix and particular solution, forward with step h.
    psi_path = np.empty((n_ref + 1, 2 * nd, 2 * nd + 1))
    psi_path[0] = np.eye(2 * nd, 2 * nd + 1)
    for j in range(n_ref):
        psi_path[j + 1] = _rk4_step(mean_offset, 2 * j, psi_path[j], h)

    # Terminal constraint rows: Ct v(T) = c.
    Ct = np.zeros((nd, 2 * nd))
    c = np.zeros(nd)
    for i, blk in enumerate(lq.blocks):
        sl = own[i]
        Ct[sl, adj[i]] = np.eye(dims[i])
        if coop[i]:
            IG = np.eye(dims[i]) - blk.G
            weight = IG.T @ blk.Wg
            Ct[sl, sl] += -weight @ IG
            c[sl] = -weight @ blk.h
        else:
            weight = blk.Wg
            Ct[sl, sl] += blk.Wg @ blk.G
            c[sl] = -blk.Wg @ blk.h
        for pos, jj in enumerate(others[i]):
            Ct[sl, own[jj]] += weight @ blk.cross("G_bar", pos)

    m0 = np.concatenate([np.asarray(mu, dtype=float) for mu in lq.init_mean])
    PsiT = psi_path[n_ref][:, : 2 * nd]
    vpT = psi_path[n_ref][:, -1]
    lhs = Ct @ PsiT[:, nd:]
    rhs_vec = c - Ct @ (PsiT[:, :nd] @ m0 + vpT)
    w0 = np.linalg.solve(lhs, rhs_vec)
    v0 = np.concatenate([m0, w0])
    v_path = np.einsum("jab,b->ja", psi_path[:, :, : 2 * nd], v0) + psi_path[:, :, -1]

    means = [v_path[:, own[i]] for i in range(m)]
    offsets = [v_path[:, adj[i]] for i in range(m)]

    # State covariances, forward: V' = F V + V F' + sigma sigma'.
    covs = []
    for i, blk in enumerate(lq.blocks):
        SS = blk.sigma @ blk.sigma.T

        def lyapunov(j, V):
            F = blk.A - Kmat[i] @ P_half[i][j]
            return F @ V + V @ F.T + SS

        V = np.empty((n_ref + 1, dims[i], dims[i]))
        V[0] = np.asarray(lq.init_cov[i], dtype=float)
        for j in range(n_ref):
            V[j + 1] = _rk4_step(lyapunov, 2 * j, V[j], h)
        covs.append(V)

    # Total costs by trapezoid on the refined grid.
    wgt = _trapezoid_weights(fine)
    costs = []
    for i, blk in enumerate(lq.blocks):
        Rinv = np.linalg.inv(blk.R)
        Rinv_Bt = np.linalg.solve(blk.R, blk.B.T)
        run = np.empty(n_ref + 1)
        for j in range(n_ref + 1):
            P = P_half[i][2 * j]
            V = covs[i][j]
            mi = means[i][j]
            ybar = offsets[i][j] if coop[i] else P @ mi + offsets[i][j]
            abar = -Rinv_Bt @ ybar
            quad_ctrl = float(
                np.trace(blk.B.T @ P @ V @ P @ blk.B @ Rinv)
            ) + float(abar @ blk.R @ abar)
            e = mi - blk.S @ mi - blk.s
            for pos, jj in enumerate(others[i]):
                e = e - blk.cross("S_bar", pos) @ means[jj][j]
            quad_state = float(np.trace(blk.W @ V)) + float(e @ blk.W @ e)
            run[j] = 0.5 * (quad_ctrl + quad_state)
        total = float(np.sum(wgt * run))
        eT = means[i][-1] - blk.G @ means[i][-1] - blk.h
        for pos, jj in enumerate(others[i]):
            eT = eT - blk.cross("G_bar", pos) @ means[jj][-1]
        total += 0.5 * (
            float(np.trace(blk.Wg @ covs[i][-1])) + float(eT @ blk.Wg @ eT)
        )
        costs.append(total)

    return LqSolution(
        lq=lq,
        grid=grid,
        refine=int(refine),
        times=fine.times,
        P=[P[::2] for P in P_half],
        mean=means,
        offset=offsets,
        cov=covs,
        costs=costs,
    )

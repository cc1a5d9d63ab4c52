"""Finite-agent simulation: i.i.d. copies, interacting systems, chaos
rates, and approximate-Nash gaps.

Each job has one simulator. simulate_iid_copies runs copies of the
mean-field optimal state that read only the frozen equilibrium flows,
with all their randomness drawn in bulk from the caller's stream; the
chaos study draws one system of the largest size per (repetition,
population) this way, and each smaller size is its prefix. n copies are
not a prefix of more copies from the same stream.

simulate_interacting runs the N-agent system of the Nash study: its
coefficients read live empirical clouds while controls read the frozen
equilibrium flows and decoupling fields. Every agent owns an independent
randomness bundle (initial draw plus Brownian increments) keyed by a
stable tag, and systems run in tag order, so the bundles of an N-agent
system are a bitwise prefix of any larger one's.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from .fbsde import _path_costs, euler_scheme, mean_se, solve_adjoint
from .hamiltonian import field_feedback
from .measures import (ParticleCloud, cells_w2sq, jsonable, quantile_cells,
                       sliced_w2, sorted_slices, write_csv)
from .model import COMPETITIVE, COOPERATIVE, measure_args
from .rng import parallel_map, restart, stream_keys, substream

MODE_COMPETITIVE = "competitive-agent"
MODE_COOPERATIVE = "cooperative-population"
MODE_MIXED_POPULATION = "mixed-setup1"
MODE_MIXED_AGENT = "mixed-setup2"
# mode -> (cooperation kind of the deviating population, the
# StructuralFlags field it needs or None, deviating unit). These are the
# paper's situations (i), (ii) and (iii); mixed modes need both kinds.
_MODES = {
    MODE_COMPETITIVE: (COMPETITIVE, None, "agent"),
    MODE_COOPERATIVE: (COOPERATIVE, "cooperative_measure_free_intercepts",
                       "population"),
    MODE_MIXED_POPULATION: (COOPERATIVE,
                            "mixed_fringe_own_law_free_intercepts",
                            "population"),
    MODE_MIXED_AGENT: (COMPETITIVE, "mixed_fringe_own_law_free_intercepts",
                       "agent"),
}
ALL_MODES = tuple(_MODES)
DEVIATION_KINDS = ("shift", "anchor", "null", "best-response")


class StructuralFlagError(ValueError):
    pass


def eps_chaos_sq(n, d):
    """Squared chaos rate for one population of size n in dimension d."""
    n = float(n)
    out = n ** (-2.0 / max(d, 4))
    if d == 4:
        out *= 1.0 + np.log(n)
    return out


def eps_bar(n, d):
    """Rate used by the Nash floor: the chaos rate or root-n, whichever
    is slower."""
    return max(np.sqrt(eps_chaos_sq(n, d)), float(n) ** -0.5)


@dataclass(frozen=True)
class Deviation:
    kind: str
    value: float = 0.0

    def __post_init__(self):
        if self.kind not in DEVIATION_KINDS:
            raise ValueError("kind: unknown deviation, expected one of %s, "
                             "got %r" % (", ".join(DEVIATION_KINDS), self.kind))
        if not np.isfinite(self.value):
            raise ValueError("value: expected a finite number, got %s"
                             % self.value)
        if self.kind in ("anchor", "null") and self.value != 0:
            raise ValueError("value: %s deviations take no value" % self.kind)

    @property
    def ident(self):
        if self.kind == "shift":
            return "shift:%+g" % self.value
        if self.kind == "best-response":
            return "best-response:%g" % self.value
        return self.kind


def default_deviations():
    return (
        Deviation("shift", 0.1),
        Deviation("shift", -0.1),
        Deviation("shift", 0.5),
        Deviation("shift", -0.5),
        Deviation("anchor"),
        Deviation("null"),
    )


def _draw_bundles(spec, grid, tags, seed, rep):
    """(xis, dWs): initial draws and Brownian increments of the agents
    tags[i] of population i, in the order given, each from its substream."""
    rng = np.random.Generator(np.random.Philox())  # restarted per agent
    xis, dWs = [], []
    for i, pop_tags in enumerate(tags):
        pop = spec.populations[i]
        d = pop.state_dim
        keys = stream_keys(seed, ["nagent:rep:%d:pop:%d:agent:%d" % (rep, i, p)
                                  for p in pop_tags])
        xi = np.empty((len(keys), d))
        dW = np.empty((grid.n_steps, len(keys), d))
        for idx, key in enumerate(keys):
            restart(rng, key)
            xi[idx] = np.asarray(pop.initial_law(rng, 1),
                                 dtype=float).reshape(d)
            dW[:, idx, :] = rng.standard_normal((grid.n_steps, d))
        xis.append(xi)
        dWs.append(dW * np.sqrt(grid.dt))
    return xis, dWs


def _deviation_fn(dev, spec, i, equilibrium):
    """Control of a deviating unit as fn(k, t, X, mu, nus, alpha), with the
    frozen measure arguments and alpha the equilibrium feedback already
    evaluated at the states X. A best response is solved here, once."""
    pop = spec.populations[i]
    if dev.kind == "null":
        return lambda k, t, X, mu, nus, alpha: alpha
    if dev.kind == "anchor":
        anchor = pop.action_set.anchor_point
        return lambda k, t, X, mu, nus, alpha: np.tile(anchor, (len(X), 1))
    if dev.kind == "shift":
        c = np.full(pop.action_set.dimension, dev.value)[None, :]
        return lambda k, t, X, mu, nus, alpha: pop.action_set.project(alpha + c)
    strategy = prepare_best_response(spec, i, equilibrium, dev.value)
    return lambda k, t, X, mu, nus, alpha: strategy(k, t, X, mu, nus)


def prepare_best_response(spec, i, equilibrium, tilt):
    """Re-solve the adjoint against frozen flows with a tilted control
    cost, returning the resulting feedback control(k, t, X, mu, nus), to
    be called with the frozen flows' measure arguments.

    The tilt adds tilt * sum(alpha) to the running cost, so the solved
    feedback is the best response of an agent whose control price is
    shifted; with tilt 0 it reproduces the equilibrium feedback up to
    regression noise.
    """
    pop = spec.populations[i]
    delta = np.full(pop.action_set.dimension, float(tilt))
    base_f = pop.cost.f
    base_dfa = pop.cost.df_dalpha

    def f(t, x, mu, nus, alpha):
        return np.asarray(base_f(t, x, mu, nus, alpha), dtype=float) + (
            np.atleast_2d(alpha) @ delta
        )

    def df_dalpha(t, x, mu, nus, alpha):
        return np.asarray(base_dfa(t, x, mu, nus, alpha), dtype=float) + delta

    cost_kw = {"f": f, "df_dalpha": df_dalpha}
    if pop.cost.quadratic_in_alpha:
        cost_kw["quad_linear"] = (
            lambda t, x, mu, nus: np.asarray(
                pop.cost.quad_linear(t, x, mu, nus), dtype=float
            )
            + delta
        )
    cost = dataclasses.replace(pop.cost, **cost_kw)
    tilted = dataclasses.replace(
        spec,
        populations=tuple(
            dataclasses.replace(p, cost=cost) if j == i else p
            for j, p in enumerate(spec.populations)
        ),
    )
    sol = solve_adjoint(
        tilted,
        i,
        equilibrium.flows,
        equilibrium.config.solver,
        equilibrium.seed,
        initial_field=equilibrium.solutions[i].field,
    )
    return field_feedback(tilted, i, sol.field.eval)


@dataclass
class AgentSystem:
    grid: object
    sizes: tuple
    paths: list
    costs: list = None  # interacting systems only


def simulate_interacting(spec, equilibrium, N, seed=0, rep=0, deviating=None,
                         bundles=None):
    """Coupled Euler system of N agents per population (or N[i] in
    population i), run in tag order: coefficients read per-knot empirical
    clouds, controls read frozen equilibrium flows and decoupling fields.

    deviating: None or dict {pop index: (bool mask over tags, control fn)};
    the control fn is called as fn(k, t, X, mu, nus, alpha) with the
    equilibrium control alpha at X (see _deviation_fn).
    bundles: the (xis, dWs) of every tag, when already drawn.
    """
    _require_converged(equilibrium)
    sizes = _normalize_sizes(spec, N)
    m = spec.n_populations
    grid = equilibrium.flows[0].grid
    flows = equilibrium.flows
    deviating = deviating or {}

    def control(i):
        feedback = field_feedback(spec, i, equilibrium.solutions[i].field.eval)
        mask, dev_fn = deviating.get(i, (None, None))

        def fn(k, t, X, mu, nus):
            # controls read the frozen flows; only the coefficients read
            # the live clouds
            mu, nus = measure_args(spec, i, [flow.clouds[k] for flow in flows])
            alpha = feedback(k, t, X, mu, nus)
            if mask is not None:
                # full-batch evaluation keeps the floating-point path
                # identical to the baseline's, so a deviation that maps to
                # the equilibrium feedback costs exactly zero
                alpha[mask] = dev_fn(k, t, X, mu, nus, alpha)[mask]
            return alpha

        return fn

    xis, dWs = bundles or _draw_bundles(spec, grid, [range(n) for n in sizes],
                                        seed, rep)
    records = euler_scheme(spec, grid, range(m), xis, dWs,
                           [control(i) for i in range(m)], flows,
                           live=True, keep_controls=True)
    return AgentSystem(
        grid=grid,
        sizes=sizes,
        paths=[rec.paths for rec in records],
        costs=[_path_costs(spec, i, grid, *records[i]) for i in range(m)],
    )


def _normalize_sizes(spec, N):
    if np.isscalar(N):
        return (int(N),) * spec.n_populations
    sizes = tuple(int(v) for v in N)
    if len(sizes) != spec.n_populations:
        raise ValueError("need one size per population")
    return sizes


def _require_converged(equilibrium):
    if not equilibrium.converged:
        raise ValueError("equilibrium report is not converged")


def simulate_iid_copies(spec, equilibrium, i, n, rng):
    """n i.i.d. copies of the mean-field optimal state of population i.

    Coefficients and controls read the frozen equilibrium flows, so the
    copies never interact. All initial draws and then all Brownian
    increments are taken from rng in bulk, so n copies are not a prefix
    of more copies from the same rng. paths[0] is (K+1, n, d).
    """
    _require_converged(equilibrium)
    pop = spec.populations[i]
    grid = equilibrium.flows[0].grid
    d = pop.state_dim
    xi = np.asarray(pop.initial_law(rng, n), dtype=float).reshape(n, d)
    dW = rng.standard_normal((grid.n_steps, n, d)) * np.sqrt(grid.dt)
    paths = euler_scheme(
        spec, grid, (i,), [xi], [dW],
        [field_feedback(spec, i, equilibrium.solutions[i].field.eval)],
        equilibrium.flows)[0].paths
    return AgentSystem(grid, sizes=(n,), paths=[paths])


# ---------------------------------------------------------------------------
# Chaos rate


@dataclass
class ChaosReport:
    spec_name: str
    N_list: tuple
    repetitions: int
    reference_n: int
    estimates: list
    standard_errors: list
    knot_curves: list
    slopes: list
    r_squared: list
    eps_sq_theory: list
    bias_check: list
    seed: int

    def to_dict(self):
        """Every field but knot_curves, through measures.jsonable; a new
        report field needs only its dataclass field."""
        return jsonable({k: v for k, v in vars(self).items()
                         if k != "knot_curves"})


def chaos_sizes(N_list, reference_factor, repetitions):
    """The sorted distinct sizes of a chaos study (a repeated size would
    weigh twice in the fit). Raises ValueError, led by the argument, when
    a size is below 2, the sizes cannot fit the rate, the reference is too
    coarse or fewer than 2 repetitions leave no standard error."""
    N_list = tuple(sorted(int(n) for n in N_list))
    if len(set(N_list)) < 3:
        raise ValueError(
            "sizes: fit refused: need at least 3 distinct population sizes, "
            "got %r" % (N_list,))
    if N_list[0] < 2:
        raise ValueError("sizes: must be at least 2, got %d" % N_list[0])
    if reference_factor < 16:
        raise ValueError("reference_factor: the reference resolution must be "
                         "at least 16x max N, got %d" % reference_factor)
    if repetitions < 2:
        raise ValueError("repetitions: chaos needs at least 2 repetitions, "
                         "got %d" % repetitions)
    return tuple(sorted(set(N_list)))


def chaos_rate(spec, equilibrium, N_list, repetitions=32, seed=0,
               reference_factor=16, workers=1):
    """Empirical chaos rate: sup-knot mean squared W2 between the law of
    N i.i.d. copies and a high-resolution reference sample of the limit.

    Each repetition runs simulate_iid_copies once per population at the
    largest N, from its own substream, and every smaller N is a prefix of
    that system; the reference is drawn the same way.
    The reference uses reference_factor times the largest N (at least
    16x); a half-resolution reference is evaluated alongside as a bias
    self-check. In d = 1 each reference knot keeps only its quantile cells
    per N, so a W2 is one pass over N sorted points. chaos_sizes checks
    the arguments before any simulation.
    """
    N_list = chaos_sizes(N_list, reference_factor, repetitions)
    _require_converged(equilibrium)
    n_max = N_list[-1]
    n_ref = int(reference_factor) * n_max
    m = spec.n_populations
    grid = equilibrium.flows[0].grid
    n_knots = len(grid)

    # refs[i][k][a]: knot k's full reference, checked as a cloud once, and
    # its half prefix; in d = 1 only their read-only quantile cells for
    # size N_list[a] are kept, in d >= 2 the clouds, as sorted rows per
    # direction would take n_projections / d times their memory.
    refs = []
    for i in range(m):
        rng = substream(seed, "nagent:reference:pop:%d" % i)
        X = simulate_iid_copies(spec, equilibrium, i, n_ref, rng).paths[0]
        if spec.populations[i].state_dim == 1:
            refs.append([[(quantile_cells(ref, n), quantile_cells(half, n))
                          for n in N_list] for ref, half in (
                (sorted_slices(ParticleCloud(x)), np.sort(x[: n_ref // 2, 0]))
                for x in X)])
        else:
            refs.append([[(ParticleCloud(x), ParticleCloud(x[: n_ref // 2]))]
                         * len(N_list) for x in X])
        del X

    def w2sq_pair(cloud, ref, half):
        if cloud.dim > 1:
            return sliced_w2(cloud, ref) ** 2, sliced_w2(cloud, half) ** 2
        xs = sorted_slices(cloud)
        return cells_w2sq(xs, ref), cells_w2sq(xs, half)

    def one_rep(rep):
        full = np.empty((m, len(N_list), n_knots))
        half = np.empty((m, len(N_list), n_knots))
        for i in range(m):
            X = simulate_iid_copies(spec, equilibrium, i, n_max, substream(
                seed, "nagent:chaos:rep:%d:pop:%d" % (rep, i))).paths[0]
            for a, n in enumerate(N_list):
                for k in range(n_knots):
                    cloud = ParticleCloud(X[k][:n])
                    full[i, a, k], half[i, a, k] = w2sq_pair(
                        cloud, *refs[i][k][a])
        return full, half

    results = parallel_map(one_rep, list(range(repetitions)), workers=workers)
    full = np.stack([r[0] for r in results])
    half = np.stack([r[1] for r in results])

    estimates = []
    ses = []
    curves = []
    slopes = []
    r2s = []
    eps_theory = []
    bias = []
    for i in range(m):
        d = spec.populations[i].state_dim
        per_knot = full[:, i].mean(axis=0)
        sup_idx = per_knot.argmax(axis=1)
        est = per_knot[np.arange(len(N_list)), sup_idx]
        se = np.array([mean_se(full[:, i, a, sup_idx[a]]).se
                       for a in range(len(N_list))])
        half_knot = half[:, i].mean(axis=0)
        half_est = half_knot[np.arange(len(N_list)), sup_idx]
        logs_n = np.log(np.asarray(N_list, dtype=float))
        logs_e = np.log(est)
        slope, intercept = np.polyfit(logs_n, logs_e, 1)
        fitted = slope * logs_n + intercept
        ss_res = float(np.sum((logs_e - fitted) ** 2))
        ss_tot = float(np.sum((logs_e - logs_e.mean()) ** 2))
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
        estimates.append(est)
        ses.append(se)
        curves.append(per_knot)
        slopes.append(float(slope))
        r2s.append(float(r2))
        eps_theory.append([eps_chaos_sq(n, d) for n in N_list])
        bias.append(half_est)
    return ChaosReport(
        spec_name=spec.name,
        N_list=N_list,
        repetitions=repetitions,
        reference_n=n_ref,
        estimates=estimates,
        standard_errors=ses,
        knot_curves=curves,
        slopes=slopes,
        r_squared=r2s,
        eps_sq_theory=eps_theory,
        bias_check=bias,
        seed=seed,
    )


def chaos_to_csv(report, path):
    write_csv(path, ["population", "N", "estimate", "se", "eps_sq_theory",
                     "bias_check"], [
        [i, n, report.estimates[i][a], report.standard_errors[i][a],
         report.eps_sq_theory[i][a], report.bias_check[i][a]]
        for i in range(len(report.estimates))
        for a, n in enumerate(report.N_list)])


# ---------------------------------------------------------------------------
# Nash gaps


@dataclass
class NashGapReport:
    spec_name: str
    mode: str
    population: int
    N_list: tuple
    deviation_ids: tuple
    repetitions: int
    open_loop: bool
    gains: dict
    gain_ses: dict
    eps_bar_sum: dict
    normalized: dict
    kappa_by_N: dict
    kappa_floor_by_N: dict
    baseline_costs: dict
    meanfield_costs: list
    seed: int

    def min_gain(self, n):
        return min(self.gains[(n, dev)] for dev in self.deviation_ids)

    def to_dict(self):
        """Every field through measures.jsonable, deviation_ids as
        deviations; a new report field needs only its dataclass field."""
        out = jsonable(self)
        out["deviations"] = out.pop("deviation_ids")
        return out


def _validate_mode(spec, mode, population):
    """(deviating population, "agent" or "population") of a Nash study;
    raises StructuralFlagError when the game does not support the mode."""
    if population is not None and not 0 <= population < spec.n_populations:
        raise ValueError("population: index %r is outside [0, %d)"
                         % (population, spec.n_populations))
    if mode not in ALL_MODES:
        raise ValueError("mode: expected one of %s, got %r"
                         % (", ".join(ALL_MODES), mode))
    kind, flag, unit = _MODES[mode]
    kinds = [p.cooperation for p in spec.populations]
    both = COMPETITIVE in kinds and COOPERATIVE in kinds
    if mode.startswith("mixed") and not both:
        raise StructuralFlagError(
            "mixed modes need both cooperative and competitive populations")
    if kind not in kinds:
        raise StructuralFlagError("%s mode needs a %s population"
                                  % (mode, kind))
    if flag is not None and not getattr(spec.structural_flags, flag):
        raise StructuralFlagError("%s deviations need the structural flag "
                                  "%s, which is not set for this game"
                                  % (mode, flag))
    target = kinds.index(kind) if population is None else population
    if kinds[target] != kind:
        raise StructuralFlagError("%s deviates a %s population; population "
                                  "%d is not %s" % (mode, kind, target, kind))
    return target, unit


def nash_arguments(spec, deviations, repetitions, mode, population):
    """(deviating population, unit, distinct deviations) of a Nash study;
    raises ValueError led by the argument (also when two deviations share
    an ident, the report's row name), then _validate_mode's errors."""
    if repetitions < 1:
        raise ValueError("repetitions: must be >= 1, got %s" % repetitions)
    named = {}
    for dev in dict.fromkeys(default_deviations() if deviations is None
                             else deviations):
        first = named.setdefault(dev.ident, dev)
        if first is not dev:
            raise ValueError("deviations: %r and %r both report as %r"
                             % (first, dev, dev.ident))
    return _validate_mode(spec, mode, population) + (tuple(named.values()),)


def _open_loop(spec, equilibrium, i, mask, bundles, dev_fn):
    """dev_fn precommitted: its controls along the deviators' own i.i.d.
    copy paths (their bundles, frozen flows), whatever the states."""
    grid = equilibrium.flows[0].grid
    feedback = field_feedback(spec, i, equilibrium.solutions[i].field.eval)
    controls = euler_scheme(
        spec, grid, (i,), [bundles[0][i][mask]], [bundles[1][i][:, mask]],
        [lambda k, t, X, mu, nus: dev_fn(k, t, X, mu, nus,
                                        feedback(k, t, X, mu, nus))],
        equilibrium.flows, keep_controls=True)[0].controls
    fixed = np.zeros((grid.n_steps, len(mask), controls.shape[-1]))
    fixed[:, mask] = controls
    return lambda k, t, X, mu, nus, alpha: fixed[k]


def nash_gap(spec, equilibrium, N_list=(64, 256, 1024), deviations=None,
             repetitions=8, seed=0, mode=MODE_COMPETITIVE, population=None,
             open_loop=False, workers=1):
    """Deviation gains of the mean-field strategy in the N-agent game.

    For each size and deviation, the deviating unit (one agent, or one
    whole population deviating exchangeably, per mode) swaps its control
    for the deviation while everyone else keeps the equilibrium feedback;
    the gain J(deviation) - J(equilibrium) is estimated with common
    random numbers agent by agent. nash_arguments checks the arguments and
    mode preconditions before any simulation, and each best response is
    solved once, its value the control-cost tilt. With open_loop, every
    deviation but null is precommitted along the deviator's own i.i.d.
    copy path.
    """
    target, unit, devs = nash_arguments(spec, deviations, repetitions, mode,
                                        population)
    _require_converged(equilibrium)
    # a repeated size is run once: its repetitions would count twice
    N_list = tuple(dict.fromkeys(int(n) for n in N_list))
    m = spec.n_populations

    dev_fns = {dev.ident: _deviation_fn(dev, spec, target, equilibrium)
               for dev in devs}

    def one_task(task):
        n, rep = task
        sizes = _normalize_sizes(spec, n)
        # one bundle draw serves the baseline and every deviation
        bundles = _draw_bundles(spec, equilibrium.flows[0].grid,
                                [range(size) for size in sizes], seed, rep)
        baseline = simulate_interacting(spec, equilibrium, sizes, seed, rep,
                                        bundles=bundles)
        mask = np.full(sizes[target], unit == "population")
        mask[0] = True
        dev_rows = {}
        for dev in devs:
            dev_fn = dev_fns[dev.ident]
            if open_loop and dev.kind != "null":
                dev_fn = _open_loop(spec, equilibrium, target, mask, bundles,
                                    dev_fn)
            system = simulate_interacting(
                spec, equilibrium, sizes, seed, rep,
                deviating={target: (mask, dev_fn)}, bundles=bundles)
            # the deviating unit's mean cost change (one agent, or all)
            dev_rows[dev.ident] = float(system.costs[target][mask].mean()
                                        - baseline.costs[target][mask].mean())
        base_costs = [baseline.costs[i] for i in range(m)]
        return n, rep, dev_rows, base_costs

    tasks = [(n, rep) for n in N_list for rep in range(repetitions)]
    results = parallel_map(one_task, tasks, workers=workers)

    gains = {}
    gain_ses = {}
    normalized = {}
    baseline_costs = {}
    eps_sum = {}
    kappa = {}
    kappa_floor = {}
    for n in N_list:
        rows = [r for r in results if r[0] == n]
        sizes = _normalize_sizes(spec, n)
        total = sum(
            eps_bar(sizes[i], spec.populations[i].state_dim) for i in range(m)
        )
        eps_sum[n] = float(total)
        for dev in devs:
            gains[(n, dev.ident)], gain_ses[(n, dev.ident)] = mean_se(
                [r[2][dev.ident] for r in rows])
            normalized[(n, dev.ident)] = gains[(n, dev.ident)] / total
        low = min(devs, key=lambda dev: gains[(n, dev.ident)])
        kappa[n] = float(max(0.0, -gains[(n, low.ident)]) / total)
        kappa_floor[n] = float(gain_ses[(n, low.ident)] / total)
        baseline_costs[n] = [mean_se(np.concatenate([r[3][i] for r in rows]))
                             for i in range(m)]

    return NashGapReport(
        spec_name=spec.name,
        mode=mode,
        population=target,
        N_list=N_list,
        deviation_ids=tuple(dev.ident for dev in devs),
        repetitions=repetitions,
        open_loop=open_loop,
        gains=gains,
        gain_ses=gain_ses,
        eps_bar_sum=eps_sum,
        normalized=normalized,
        kappa_by_N=kappa,
        kappa_floor_by_N=kappa_floor,
        baseline_costs=baseline_costs,
        meanfield_costs=list(equilibrium.costs),
        seed=seed,
    )


def nash_to_csv(report, path):
    write_csv(path, ["mode", "N", "deviation", "estimate", "se",
                     "normalized"], [
        [report.mode, n, dev, report.gains[(n, dev)],
         report.gain_ses[(n, dev)], report.normalized[(n, dev)]]
        for n in report.N_list for dev in report.deviation_ids])

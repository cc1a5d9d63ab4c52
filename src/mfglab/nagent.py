"""Finite-agent simulation: i.i.d. copies, interacting systems, chaos
rates, and approximate-Nash gaps.

In the i.i.d. and interacting simulators, and so in the Nash study,
every agent owns an independent randomness bundle (initial draw plus
Brownian increments) keyed by a stable tag, and systems always run in tag
order, so simulations are nested across population sizes: the bundles
of the N-agent i.i.d. system are a bitwise prefix of the larger one's,
and its paths and costs match that prefix up to the rounding of the
field evaluation, which depends on the batch size. The interacting system
feeds live empirical clouds to the coefficients while controls always
read the frozen equilibrium flows and decoupling fields. The chaos study
needs no per-agent streams: it draws one system of the largest size per
(repetition, population) in bulk, and each smaller size is its prefix.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from .fbsde import _path_costs, euler_scheme, solve_adjoint
from .hamiltonian import field_feedback
from .measures import (ParticleCloud, cells_w2sq, quantile_cells, sliced_w2,
                       sorted_slices)
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
            raise ValueError("unknown deviation kind %r" % self.kind)

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
    costs: list


def _run_system(spec, equilibrium, sizes, seed, rep, interacting,
                deviating=None, bundles=None):
    """Simulate the coupled (or i.i.d.) agent system in tag order.

    deviating: None or dict {pop index: (bool mask over tags, control fn)};
    the control fn is called as fn(k, t, X, mu, nus, alpha) with the
    equilibrium control alpha at X (see _deviation_fn).
    bundles: the (xis, dWs) of every tag, when already drawn.
    """
    m = spec.n_populations
    grid = equilibrium.flows[0].grid
    flows = equilibrium.flows
    deviating = deviating or {}

    def control(i):
        feedback = field_feedback(spec, i, equilibrium.solutions[i].field.eval)
        mask, dev_fn = deviating.get(i, (None, None))

        def fn(k, t, X, mu, nus):
            # controls read the frozen flows, also where the coefficients
            # read the live clouds
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
                           live=interacting, keep_controls=True)
    return AgentSystem(
        grid=grid,
        sizes=tuple(sizes),
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


def simulate_iid_copies(spec, equilibrium, N, seed=0, rep=0):
    """Independent copies of the mean-field optimal state, one per agent.

    Both coefficients and controls read the frozen equilibrium flows, so
    agents never interact. With the same seed, the N-agent system draws a
    bitwise prefix of any larger system's bundles; its paths and costs
    match that prefix up to the rounding of the field evaluation.
    """
    _require_converged(equilibrium)
    sizes = _normalize_sizes(spec, N)
    return _run_system(spec, equilibrium, sizes, seed, rep, interacting=False)


def simulate_interacting(spec, equilibrium, N, seed=0, rep=0, deviating=None):
    """Coupled Euler system: coefficients read per-knot empirical clouds,
    controls read frozen equilibrium flows and decoupling fields."""
    _require_converged(equilibrium)
    sizes = _normalize_sizes(spec, N)
    return _run_system(spec, equilibrium, sizes, seed, rep, interacting=True,
                       deviating=deviating)


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
        return {
            "spec_name": self.spec_name,
            "N_list": list(self.N_list),
            "repetitions": self.repetitions,
            "reference_n": self.reference_n,
            "estimates": [list(map(float, e)) for e in self.estimates],
            "standard_errors": [list(map(float, e))
                                for e in self.standard_errors],
            "slopes": [float(s) for s in self.slopes],
            "r_squared": [float(r) for r in self.r_squared],
            "eps_sq_theory": [list(map(float, e)) for e in self.eps_sq_theory],
            "bias_check": [list(map(float, b)) for b in self.bias_check],
            "seed": self.seed,
        }


def _iid_bulk_flow(spec, equilibrium, i, n, rng):
    """The (K+1, n, d) paths of one forward simulation of n i.i.d.
    copies of population i, with all initial draws and then all Brownian
    increments taken from rng in bulk. The chaos study draws both its
    reference sample of the limit law and each repetition's system this
    way; n copies are not a prefix of more copies from the same rng."""
    pop = spec.populations[i]
    grid = equilibrium.flows[0].grid
    K = grid.n_steps
    d = pop.state_dim
    xi = np.asarray(pop.initial_law(rng, n), dtype=float).reshape(n, d)
    dW = rng.standard_normal((K, n, d)) * np.sqrt(grid.dt)
    return euler_scheme(
        spec, grid, (i,), [xi], [dW],
        [field_feedback(spec, i, equilibrium.solutions[i].field.eval)],
        equilibrium.flows)[0].paths


def _chaos_sizes(N_list, reference_factor):
    """The sorted sizes of a chaos study; raises ValueError when one is
    below 2, they cannot fit the rate or the reference is too coarse."""
    N_list = tuple(sorted(int(n) for n in N_list))
    if len(set(N_list)) < 3:
        raise ValueError(
            "fit refused: need at least 3 distinct population sizes, got %r"
            % (N_list,)
        )
    if N_list[0] < 2:
        raise ValueError("chaos sizes must be at least 2, got %d" % N_list[0])
    if reference_factor < 16:
        raise ValueError("reference resolution must be at least 16x max N")
    return N_list


def chaos_rate(spec, equilibrium, N_list, repetitions=32, seed=0,
               reference_factor=16, workers=1):
    """Empirical chaos rate: sup-knot mean squared W2 between the law of
    N i.i.d. copies and a high-resolution reference sample of the limit.

    Each repetition draws one system of the largest N per population in
    bulk, from its own substream, and every smaller N is a prefix of it.
    The reference uses reference_factor times the largest N (at least
    16x); a half-resolution reference is evaluated alongside as a bias
    self-check. In d = 1 each reference knot keeps only its quantile cells
    per N, so a W2 is one pass over N sorted points. Fitting needs at
    least 3 distinct sizes, each at least 2.
    """
    _require_converged(equilibrium)
    N_list = _chaos_sizes(N_list, reference_factor)
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
        X = _iid_bulk_flow(spec, equilibrium, i, n_ref, rng)
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
            X = _iid_bulk_flow(spec, equilibrium, i, n_max, substream(
                seed, "nagent:chaos:rep:%d:pop:%d" % (rep, i)))
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
        se = np.array(
            [
                full[:, i, a, sup_idx[a]].std(ddof=1) / np.sqrt(repetitions)
                for a in range(len(N_list))
            ]
        )
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
    lines = ["population,N,estimate,se,eps_sq_theory,bias_check"]
    for i in range(len(report.estimates)):
        for a, n in enumerate(report.N_list):
            lines.append(
                "%d,%d,%.17g,%.17g,%.17g,%.17g"
                % (
                    i,
                    n,
                    report.estimates[i][a],
                    report.standard_errors[i][a],
                    report.eps_sq_theory[i][a],
                    report.bias_check[i][a],
                )
            )
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


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
        return {
            "spec_name": self.spec_name,
            "mode": self.mode,
            "population": self.population,
            "N_list": list(self.N_list),
            "deviations": list(self.deviation_ids),
            "repetitions": self.repetitions,
            "open_loop": self.open_loop,
            "gains": {
                "%d:%s" % key: val for key, val in sorted(self.gains.items())
            },
            "gain_ses": {
                "%d:%s" % key: val
                for key, val in sorted(self.gain_ses.items())
            },
            "eps_bar_sum": {str(n): v for n, v in self.eps_bar_sum.items()},
            "normalized": {
                "%d:%s" % key: val
                for key, val in sorted(self.normalized.items())
            },
            "kappa_by_N": {str(n): v for n, v in self.kappa_by_N.items()},
            "kappa_floor_by_N": {
                str(n): v for n, v in self.kappa_floor_by_N.items()
            },
            "baseline_costs": {
                str(n): [{"mean": c[0], "se": c[1]} for c in costs]
                for n, costs in self.baseline_costs.items()
            },
            "meanfield_costs": [
                {"mean": c[0], "se": c[1]} for c in self.meanfield_costs
            ],
            "seed": self.seed,
        }


def _validate_mode(spec, mode, population):
    """(deviating population, "agent" or "population") of a Nash study;
    raises StructuralFlagError when the game does not support the mode."""
    if population is not None and not 0 <= population < spec.n_populations:
        raise ValueError("population index %d is outside [0, %d)"
                         % (population, spec.n_populations))
    if mode not in _MODES:
        raise ValueError("unknown mode %r; expected one of %s"
                         % (mode, ", ".join(ALL_MODES)))
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
    random numbers agent by agent. Mode preconditions (cooperation kinds
    and structural flags) are checked before any simulation, and each
    best response is solved once, its value the control-cost tilt. With
    open_loop, every deviation but null is precommitted along the
    deviator's own i.i.d. copy path.
    """
    _require_converged(equilibrium)
    target, unit = _validate_mode(spec, mode, population)
    N_list = tuple(int(n) for n in N_list)
    devs = tuple(deviations) if deviations is not None else default_deviations()
    m = spec.n_populations

    dev_fns = {dev.ident: _deviation_fn(dev, spec, target, equilibrium)
               for dev in devs}

    def one_task(task):
        n, rep = task
        sizes = _normalize_sizes(spec, n)
        # one bundle draw serves the baseline and every deviation
        bundles = _draw_bundles(spec, equilibrium.flows[0].grid,
                                [range(size) for size in sizes], seed, rep)
        baseline = _run_system(spec, equilibrium, sizes, seed, rep, True,
                               bundles=bundles)
        mask = np.full(sizes[target], unit == "population")
        mask[0] = True
        dev_rows = {}
        for dev in devs:
            dev_fn = dev_fns[dev.ident]
            if open_loop and dev.kind != "null":
                dev_fn = _open_loop(spec, equilibrium, target, mask, bundles,
                                    dev_fn)
            system = _run_system(spec, equilibrium, sizes, seed, rep, True,
                                 deviating={target: (mask, dev_fn)},
                                 bundles=bundles)
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
            vals = np.array([r[2][dev.ident] for r in rows])
            gains[(n, dev.ident)] = float(vals.mean())
            gain_ses[(n, dev.ident)] = float(
                vals.std(ddof=1) / np.sqrt(len(vals))
                if len(vals) > 1
                else 0.0
            )
            normalized[(n, dev.ident)] = gains[(n, dev.ident)] / total
        low = min(devs, key=lambda dev: gains[(n, dev.ident)])
        kappa[n] = float(max(0.0, -gains[(n, low.ident)]) / total)
        kappa_floor[n] = float(gain_ses[(n, low.ident)] / total)
        per_pop = []
        for i in range(m):
            allc = np.concatenate([r[3][i] for r in rows])
            per_pop.append(
                (
                    float(allc.mean()),
                    float(allc.std(ddof=1) / np.sqrt(len(allc))),
                )
            )
        baseline_costs[n] = per_pop

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
    lines = ["mode,N,deviation,estimate,se,normalized"]
    for n in report.N_list:
        for dev in report.deviation_ids:
            lines.append(
                "%s,%d,%s,%.17g,%.17g,%.17g"
                % (
                    report.mode,
                    n,
                    dev,
                    report.gains[(n, dev)],
                    report.gain_ses[(n, dev)],
                    report.normalized[(n, dev)],
                )
            )
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")

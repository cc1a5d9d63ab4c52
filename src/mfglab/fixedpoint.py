"""Damped fixed-point iteration on measure flows.

The map Phi sends a tuple of frozen flows to the empirical laws of the
optimally controlled states, one adjoint solve per population with the
solver matching its cooperation kind. Equilibria are fixed points of Phi;
the iteration mixes each new flow into the old one with a damping weight
and stops when successive Phi outputs agree in flow distance.
"""

import dataclasses
from dataclasses import dataclass, field as dc_field

import numpy as np

from .fbsde import (
    SolverConfig,
    euler_scheme,
    optimal_cost,
    solve_adjoint,
    solver_draws,
)
from .measures import (
    MeasureFlow,
    ParticleCloud,
    TimeGrid,
    flow_distance,
    truncate_phi_n,
)
from .model import COMPETITIVE
from .rng import parallel_map, substream

THETA_MIN = 1.0 / 32.0


@dataclass
class FixedPointConfig:
    solver: SolverConfig = dc_field(default_factory=SolverConfig)
    fp_tol: float = 1e-3
    max_iterations: int = 50
    theta: float = 0.5
    mix: str = "paired"
    n_projections: int = 64

    def __post_init__(self):
        if self.mix not in ("paired", "resample"):
            raise ValueError("mix must be 'paired' or 'resample'")
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("theta must lie in (0, 1]")


@dataclass
class HistoryRow:
    iteration: int
    delta: float
    theta: float
    deltas: tuple
    costs: tuple
    picard_iterations: tuple


@dataclass
class EquilibriumReport:
    spec_name: str
    flows: list
    input_flows: list
    solutions: list
    iterations: int
    history: list
    costs: list
    converged: bool
    config: FixedPointConfig
    seed: int
    delta_ratio: float = None
    truncation_level: float = None
    truncation_binding: list = None

    def to_dict(self):
        out = {
            "spec_name": self.spec_name,
            "converged": self.converged,
            "iterations": self.iterations,
            "seed": self.seed,
            "initialization": "uncontrolled dynamics at the anchor control",
            "fp_tol": self.config.fp_tol,
            "theta0": self.config.theta,
            "mix": self.config.mix,
            "n_paths": self.config.solver.n_paths,
            "n_steps": self.config.solver.n_steps,
            "history": [
                {
                    "iteration": row.iteration,
                    "delta": row.delta,
                    "theta": row.theta,
                    "deltas": list(row.deltas),
                    "costs": list(row.costs),
                    "picard_iterations": list(row.picard_iterations),
                }
                for row in self.history
            ],
            "costs": [{"mean": c[0], "se": c[1]} for c in self.costs],
            "delta_ratio": self.delta_ratio,
        }
        if self.truncation_level is not None:
            out["truncation_level"] = self.truncation_level
            out["truncation_binding"] = self.truncation_binding
        return out


def uncontrolled_flows(spec, n_steps, n_paths, seed):
    """Joint forward simulation with every control pinned at its anchor.

    All populations step together; each coefficient reads the live
    empirical clouds of the current states. This is the fixed-point
    initialization: cheap and always measure-feasible.
    """
    grid = TimeGrid(spec.horizon, n_steps)
    m = spec.n_populations
    xis, dWs = zip(*(solver_draws(spec, i, n_paths, grid, seed)
                     for i in range(m)))
    anchors = [np.tile(pop.action_set.anchor_point, (n_paths, 1))
               for pop in spec.populations]
    steps = euler_scheme(
        spec, grid, range(m), xis, dWs,
        [lambda k, t, X, mu, nus, a=a: a for a in anchors], live=True,
    )
    clouds = [[mu for mu, _ in measures] for _, _, measures, _ in steps]
    return [MeasureFlow(grid, column) for column in zip(*clouds)]


def _mix_flows(old, new, theta, mix, seed, iteration, index):
    if theta >= 1.0:
        return new
    grid = old.grid
    if mix == "paired":
        clouds = [
            ParticleCloud(
                (1.0 - theta) * old.clouds[k].points + theta * new.clouds[k].points
            )
            for k in range(len(grid))
        ]
        return MeasureFlow(grid, clouds)
    rng = substream(seed, "mix:%d:%d" % (iteration, index))
    n = new.clouds[0].n
    clouds = []
    for k in range(len(grid)):
        take_new = rng.random(n) < theta
        i_old = rng.integers(0, old.clouds[k].n, size=n)
        i_new = rng.integers(0, n, size=n)
        pts = np.where(
            take_new[:, None],
            new.clouds[k].points[i_new],
            old.clouds[k].points[i_old],
        )
        clouds.append(ParticleCloud(pts))
    return MeasureFlow(grid, clouds)


def _delta_ratio(deltas):
    """Geometric decay ratio of the delta history after burn-in."""
    tail = np.asarray(deltas[max(1, len(deltas) // 3):], dtype=float)
    tail = tail[tail > 0]
    if len(tail) < 3:
        return None
    logs = np.log(tail)
    return float(np.exp(np.mean(np.diff(logs))))


def solve_matching(spec, config=None, seed=0, workers=1):
    """Fixed-point iteration for the matching problem of a game.

    Convergence is measured between successive Phi outputs per population;
    the reported flows are the last Phi output, which by construction
    equals the empirical laws of the final solutions' state paths. Returns
    a report regardless of convergence, with the converged flag set
    accordingly; inner solver failures propagate with the population index
    attached.
    """
    cfg = config if config is not None else FixedPointConfig()
    m = spec.n_populations
    flows = uncontrolled_flows(spec, cfg.solver.n_steps, cfg.solver.n_paths, seed)
    prev_outputs = flows
    prev_solutions = [None] * m
    theta = cfg.theta
    history = []
    converged = False
    solutions = None
    outputs = None
    iteration = 0
    halved_at = -10
    for iteration in range(1, cfg.max_iterations + 1):
        frozen = flows

        def one(i):
            try:
                return solve_adjoint(
                    spec,
                    i,
                    frozen,
                    cfg.solver,
                    seed,
                    initial_field=(
                        prev_solutions[i].field if prev_solutions[i] else None
                    ),
                )
            except Exception as exc:
                raise RuntimeError(
                    "adjoint solve failed for population %d at iteration %d: %s"
                    % (i, iteration, exc)
                ) from exc

        solutions = parallel_map(one, list(range(m)), workers=workers)
        outputs = [sol.state_flow() for sol in solutions]
        deltas = tuple(
            flow_distance(
                outputs[i], prev_outputs[i], n_projections=cfg.n_projections
            )
            for i in range(m)
        )
        delta = max(deltas)
        costs = tuple(
            optimal_cost(spec, i, solutions[i], frozen)[0] for i in range(m)
        )
        history.append(
            HistoryRow(
                iteration=iteration,
                delta=delta,
                theta=theta,
                deltas=deltas,
                costs=costs,
                picard_iterations=tuple(
                    len(sol.picard_history) for sol in solutions
                ),
            )
        )
        if delta <= cfg.fp_tol:
            converged = True
            break
        all_d = [row.delta for row in history]
        if (
            len(all_d) >= 3
            and all_d[-1] > all_d[-2] > all_d[-3]
            and iteration - halved_at >= 2
        ):
            theta = max(theta / 2.0, THETA_MIN)
            halved_at = iteration
        flows = [
            _mix_flows(flows[i], outputs[i], theta, cfg.mix, seed, iteration, i)
            for i in range(m)
        ]
        prev_outputs = outputs
        prev_solutions = solutions

    final_costs = [optimal_cost(spec, i, solutions[i], frozen) for i in range(m)]
    for i in range(m):
        for k in range(len(outputs[i].grid)):
            if not np.array_equal(outputs[i].clouds[k].points, solutions[i].X[k]):
                raise AssertionError(
                    "reported flow of population %d diverges from its state "
                    "paths at knot %d" % (i, k)
                )
    return EquilibriumReport(
        spec_name=spec.name,
        flows=outputs,
        input_flows=list(frozen),
        solutions=list(solutions),
        iterations=iteration,
        history=history,
        costs=final_costs,
        converged=converged,
        config=cfg,
        seed=seed,
        delta_ratio=_delta_ratio([row.delta for row in history]),
    )


def _knot_of(grid, t):
    k = int(round(t / grid.dt))
    if k < 0 or k >= len(grid):
        return None
    return k


def _truncating_population(pop, grid, level, binding):
    """Wrap the designated coefficients so their measure arguments pass
    through the second-moment truncation first.

    Competitive populations truncate both the own measure and the other
    measures; cooperative ones keep the own (live) law untouched and
    truncate only the others. Slope coefficients are never wrapped.
    binding is a dict knot -> count, updated whenever a truncation binds.
    """
    n = float(level)
    trunc_own = pop.cooperation == COMPETITIVE

    def wrap(mu, nus, knot):
        bound = False
        if trunc_own:
            tmu = truncate_phi_n(mu, n)
            bound = bound or (tmu is not mu)
        else:
            tmu = mu
        tnus = tuple(truncate_phi_n(v, n) for v in nus)
        bound = bound or any(tv is not v for tv, v in zip(tnus, nus))
        if bound and knot is not None:
            binding[knot] = binding.get(knot, 0) + 1
        return tmu, tnus

    def wrap_t(fn):
        def inner(t, mu, nus, *rest):
            tmu, tnus = wrap(mu, nus, _knot_of(grid, t))
            return fn(t, tmu, tnus, *rest)

        return inner

    def wrap_txa(fn):
        def inner(t, x, mu, nus, *rest):
            tmu, tnus = wrap(mu, nus, _knot_of(grid, t))
            return fn(t, x, tmu, tnus, *rest)

        return inner

    def wrap_term(fn):
        def inner(x, mu, nus, *rest):
            tmu, tnus = wrap(mu, nus, len(grid) - 1)
            return fn(x, tmu, tnus, *rest)

        return inner

    drift = dataclasses.replace(
        pop.drift, b0=wrap_t(pop.drift.b0), b2=wrap_t(pop.drift.b2)
    )
    diffusion = dataclasses.replace(pop.diffusion, s0=wrap_t(pop.diffusion.s0))
    cost_kw = {
        "f": wrap_txa(pop.cost.f),
        "df_dx": wrap_txa(pop.cost.df_dx),
        "df_dalpha": wrap_txa(pop.cost.df_dalpha),
        "g": wrap_term(pop.cost.g),
        "dg_dx": wrap_term(pop.cost.dg_dx),
    }
    if pop.cost.df_dmu is not None:
        cost_kw["df_dmu"] = wrap_txa(pop.cost.df_dmu)
    if pop.cost.dg_dmu is not None:
        cost_kw["dg_dmu"] = wrap_term(pop.cost.dg_dmu)
    cost = dataclasses.replace(pop.cost, **cost_kw)
    return dataclasses.replace(pop, drift=drift, diffusion=diffusion, cost=cost)


def truncated_solve(spec, level, config=None, seed=0, workers=1):
    """solve_matching with measure arguments truncated at the given level.

    The realized controls are exactly the untruncated minimizer applied to
    truncated measures, because the minimizer reads measures only through
    the wrapped coefficients. The report records the level and, per
    population, the knots where truncation actually changed a measure.
    """
    if not level > 0:
        raise ValueError("truncation level must be positive")
    cfg = config if config is not None else FixedPointConfig()
    grid = TimeGrid(spec.horizon, cfg.solver.n_steps)
    binding = [dict() for _ in spec.populations]
    pops = tuple(
        _truncating_population(pop, grid, level, binding[i])
        for i, pop in enumerate(spec.populations)
    )
    wrapped = dataclasses.replace(spec, populations=pops)
    report = solve_matching(wrapped, cfg, seed=seed, workers=workers)
    report.spec_name = spec.name
    report.truncation_level = float(level)
    report.truncation_binding = [
        {str(k): v for k, v in sorted(b.items())} for b in binding
    ]
    return report


def write_history_csv(report, path):
    """Iteration history in long-friendly wide form, one row per iteration."""
    m = len(report.costs)
    cols = ["iteration", "delta", "theta"]
    for i in range(m):
        cols += ["delta_pop%d" % i, "cost_pop%d" % i, "picard_pop%d" % i]
    lines = [",".join(cols)]
    for row in report.history:
        cells = [
            "%d" % row.iteration,
            "%.17g" % row.delta,
            "%.17g" % row.theta,
        ]
        for i in range(m):
            cells += [
                "%.17g" % row.deltas[i],
                "%.17g" % row.costs[i],
                "%d" % row.picard_iterations[i],
            ]
        lines.append(",".join(cells))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")

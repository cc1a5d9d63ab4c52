"""Damped fixed-point iteration on measure flows.

The map Phi sends a tuple of frozen flows to the empirical laws of the
optimally controlled states, one adjoint solve per population, whose
cooperation kind picks its adjoint equation. Equilibria are fixed points
of Phi; the iteration mixes each new flow into the old one with a damping
weight picked by a secant step on the last two residuals Phi(F) - F.
Each iteration solves a population from the same draws, so particle p
of two successive Phi outputs is one path under two input flows; the
iteration stops when the max over knots of their paired RMS gap is at
most fp_tol. Pairing by index is a coupling, so that gap bounds W2, and
so sliced W2, from above.
"""

import dataclasses
from dataclasses import dataclass, field as dc_field

import numpy as np

from .fbsde import (
    SolverConfig,
    euler_scheme,
    optimal_cost,
    secant_weight,
    solve_adjoint,
    solver_draws,
)
from .measures import (
    MeasureFlow,
    TimeGrid,
    jsonable,
    truncate_phi_n,
    truncation_level,
    write_csv,
)
from .model import COMPETITIVE
from .rng import parallel_map


@dataclass
class FixedPointConfig:
    """Outer-iteration controls; owns its fields' ranges as SolverConfig."""

    solver: SolverConfig = dc_field(default_factory=SolverConfig)
    fp_tol: float = 1e-3
    max_iterations: int = 50
    theta: float = 0.5

    def __post_init__(self):
        # messages open with the field, as in SolverConfig
        if not 0.0 < self.fp_tol < np.inf:
            raise ValueError("fp_tol: must be positive and finite, got %s"
                             % self.fp_tol)
        if self.max_iterations < 1:
            raise ValueError("max_iterations: must be >= 1, got %s"
                             % self.max_iterations)
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("theta: must lie in (0, 1], got %s" % self.theta)


@dataclass
class HistoryRow:
    iteration: int
    delta: float
    theta: float
    deltas: tuple
    costs: tuple
    picard_iterations: tuple
    picard_dampings: tuple
    contraction: float = None


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
        """The run's settings, and history rows and costs through
        measures.jsonable; a new HistoryRow field needs only its field."""
        out = {
            "spec_name": self.spec_name,
            "converged": self.converged,
            "iterations": self.iterations,
            "seed": self.seed,
            "initialization": "uncontrolled dynamics at the anchor control",
            "fp_tol": self.config.fp_tol,
            "theta0": self.config.theta,
            "n_paths": self.config.solver.n_paths,
            "n_steps": self.config.solver.n_steps,
            "history": jsonable(self.history),
            "costs": jsonable(self.costs),
            "delta_ratio": self.delta_ratio,
        }
        if self.truncation_level is not None:
            out["truncation_level"] = self.truncation_level
            out["truncation_binding"] = self.truncation_binding
        return out


def uncontrolled_flows(spec, n_steps, n_paths, seed):
    """Joint forward simulation with every control pinned at its anchor.

    All populations step together; each coefficient reads the live
    empirical clouds of the current states, and each flow holds its
    population's paths. This is the fixed-point initialization: cheap and
    always measure-feasible.
    """
    grid = TimeGrid(spec.horizon, n_steps)
    m = spec.n_populations
    xis, dWs = zip(*(solver_draws(spec, i, n_paths, grid, seed)
                     for i in range(m)))
    anchors = [np.tile(pop.action_set.anchor_point, (n_paths, 1))
               for pop in spec.populations]
    records = euler_scheme(
        spec, grid, range(m), xis, dWs,
        [lambda k, t, X, mu, nus, a=a: a for a in anchors], live=True,
    )
    return [MeasureFlow(grid, rec.paths) for rec in records]


def _mix_flows(old, new, theta):
    """Particle by particle convex combination (1 - theta) old + theta new."""
    if theta >= 1.0:
        return new
    return MeasureFlow(old.grid,
                       (1.0 - theta) * old.points + theta * new.points)


def _rms_gap(a, b):
    return float(np.sqrt(np.mean(np.sum((a - b) ** 2, axis=1))))


def _delta_ratio(deltas):
    """Geometric decay ratio of the delta history after burn-in."""
    tail = np.asarray(deltas[max(1, len(deltas) // 3):], dtype=float)
    tail = tail[tail > 0]
    if len(tail) < 3:
        return None
    logs = np.log(tail)
    return float(np.exp(np.mean(np.diff(logs))))


def _secant_slope(prev_inputs, prev_outputs, inputs, outputs, theta):
    """j = <R0, R1 - R0> / (theta |R0|^2) for the last two residuals R =
    outputs - inputs, summed knot by knot in population order."""
    num = den = 0.0
    for f0, p0, f1, p1 in zip(prev_inputs, prev_outputs, inputs, outputs):
        for x0, y0, x1, y1 in zip(f0.points, p0.points, f1.points, p1.points):
            r0 = y0 - x0
            r1 = y1 - x1
            num += float(np.sum(r0 * (r1 - r0)))
            den += float(np.sum(r0 * r0))
    return num / (theta * den)


def solve_matching(spec, config=None, seed=0, workers=1):
    """Fixed-point iteration for the matching problem of a game.

    Convergence is measured between successive Phi outputs per population
    by the paired RMS gap, an upper bound on their W2 and sliced W2 (see
    the module docstring); the reported flows are the last Phi output,
    whose points are the final solutions' state paths. Returns a report
    regardless of convergence, with the converged flag set accordingly;
    inner solver failures propagate with the population index attached.

    The first mixing weight is config.theta; each later one is
    fbsde.secant_weight's -1/j, clipped to [THETA_MIN, 1], for a secant
    slope j < 0 of Phi - I, and the previous one otherwise. A history row
    holds the weight that built its input and the secant estimate 1 + j of
    Phi's slope.
    """
    cfg = config if config is not None else FixedPointConfig()
    m = spec.n_populations
    flows = uncontrolled_flows(spec, cfg.solver.n_steps, cfg.solver.n_paths, seed)
    prev_inputs = prev_outputs = flows
    fields = [None] * m
    theta = cfg.theta
    history = []
    converged = False
    for iteration in range(1, cfg.max_iterations + 1):
        frozen = flows
        solutions = None  # free the last paths; the solves read only fields

        def one(i):
            try:
                return solve_adjoint(
                    spec,
                    i,
                    frozen,
                    cfg.solver,
                    seed,
                    initial_field=fields[i],
                )
            except Exception as exc:
                raise RuntimeError(
                    "adjoint solve failed for population %d at iteration %d: %s"
                    % (i, iteration, exc)
                ) from exc

        solutions = parallel_map(one, list(range(m)), workers=workers)
        outputs = [MeasureFlow(sol.grid, sol.X) for sol in solutions]
        deltas = tuple(
            max(_rms_gap(x, y) for x, y in zip(out.points, prev.points))
            for out, prev in zip(outputs, prev_outputs)
        )
        delta = max(deltas)
        costs = [optimal_cost(sol) for sol in solutions]
        history.append(HistoryRow(
            iteration=iteration, delta=delta, theta=theta, deltas=deltas,
            costs=tuple(c[0] for c in costs),
            picard_iterations=tuple(len(s.picard_history) for s in solutions),
            picard_dampings=tuple(s.picard_dampings for s in solutions)))
        if delta <= cfg.fp_tol:
            converged = True
            break
        if iteration >= 2:
            j = _secant_slope(prev_inputs, prev_outputs, frozen, outputs, theta)
            history[-1].contraction = 1.0 + j
            theta = secant_weight(theta, j)
        flows = [
            _mix_flows(flows[i], outputs[i], theta)
            for i in range(m)
        ]
        prev_inputs, prev_outputs = frozen, outputs
        fields = [sol.field for sol in solutions]

    return EquilibriumReport(
        spec_name=spec.name,
        flows=outputs,
        input_flows=list(frozen),
        solutions=list(solutions),
        iterations=iteration,
        history=history,
        costs=costs,
        converged=converged,
        config=cfg,
        seed=seed,
        delta_ratio=_delta_ratio([row.delta for row in history]),
    )


# per population part, the wrapped callables and the position of their mu
_TRUNCATED_ARGS = {
    "drift": dict(b0=1, b2=1),
    "diffusion": dict(s0=1),
    "cost": dict(g=1, dg_dx=1, dg_dmu=1, f=2, df_dx=2, df_dalpha=2,
                 df_dmu=2, quad_linear=2, quad_const=2),
}


def _truncating_population(pop, level):
    """Wrap the designated coefficients so their measure arguments pass
    through the second-moment truncation first.

    Wrapped: b0, b2, s0, f, df_dx, df_dalpha, df_dmu, quad_linear,
    quad_const, g, dg_dx and dg_dmu, each when present. Unwrapped: the
    slope coefficients b1 and s1 and the cooperative mean terms b1_bar and
    s1_bar. Competitive populations truncate both the own measure and the
    other measures; cooperative ones keep the own (live) law untouched and
    truncate only the others.
    """
    trunc_own = pop.cooperation == COMPETITIVE

    def wrap(fn, at):
        if fn is None:
            return None

        def inner(*args):
            mu, nus = args[at], args[at + 1]
            tmu = truncate_phi_n(mu, level) if trunc_own else mu
            tnus = tuple(truncate_phi_n(v, level) for v in nus)
            return fn(*args[:at], tmu, tnus, *args[at + 2:])

        return inner

    return dataclasses.replace(pop, **{
        part: dataclasses.replace(getattr(pop, part), **{
            name: wrap(getattr(getattr(pop, part), name), at)
            for name, at in table.items()
        })
        for part, table in _TRUNCATED_ARGS.items()
    })


def _truncation_binding(spec, flows, level):
    """Per population, {knot: particles} over the knots where a cloud that
    its wrapped coefficients read from flows has a second-moment scale
    above level: own and others for a competitive population, others only
    for a cooperative one. The count is the particles of those clouds."""
    out = []
    for i, pop in enumerate(spec.populations):
        read = [j for j in range(spec.n_populations)
                if j != i or pop.cooperation == COMPETITIVE]
        binding = {}
        for k in range(len(flows[i].grid)):
            bound = [flows[j].clouds[k].n for j in read
                     if flows[j].clouds[k].moment2 > level]
            if bound:
                binding[str(k)] = sum(bound)
        out.append(binding)
    return out


def truncated_solve(spec, level, config=None, seed=0, workers=1):
    """solve_matching with measure arguments truncated at the given level.

    The realized controls are exactly the untruncated minimizer applied to
    truncated measures, because the minimizer reads measures only through
    the wrapped coefficients. The report records the level and, per
    population, the knots of the reported equilibrium's input flows where
    truncation changed a measure, with the particles of the bound clouds.
    """
    level = truncation_level(level)
    cfg = config if config is not None else FixedPointConfig()
    pops = tuple(_truncating_population(pop, level)
                 for pop in spec.populations)
    wrapped = dataclasses.replace(spec, populations=pops)
    report = solve_matching(wrapped, cfg, seed=seed, workers=workers)
    report.spec_name = spec.name
    report.truncation_level = level
    report.truncation_binding = _truncation_binding(
        spec, report.input_flows, level)
    return report


def write_history_csv(report, path):
    """Iteration history in long-friendly wide form, one row per iteration."""
    m = len(report.costs)
    cols = ["iteration", "delta", "theta"]
    for i in range(m):
        cols += ["delta_pop%d" % i, "cost_pop%d" % i, "picard_pop%d" % i]
    write_csv(path, cols, [
        [row.iteration, row.delta, row.theta]
        + [cell for i in range(m) for cell in
           (row.deltas[i], row.costs[i], row.picard_iterations[i])]
        for row in report.history])

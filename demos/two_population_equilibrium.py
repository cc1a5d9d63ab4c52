"""
Two coupled populations: fixed point vs. ODE oracle
===================================================

Buyers and sellers each react to the other population's mean state. The
fixed-point loop alternates adjoint solves against frozen flows until
successive measure flows agree particle by particle; for this
linear-quadratic pair the equilibrium means also solve a small ODE
system, which serves as the oracle.
"""

import numpy as np

from mfglab.fbsde import lq_from_game, solve_lq_riccati
from mfglab.fixedpoint import FixedPointConfig, solve_matching
from mfglab.fbsde import SolverConfig
from mfglab.model import builtin_game

spec = builtin_game("lq-2pop-competitive")
cfg = FixedPointConfig(solver=SolverConfig(n_steps=50, n_paths=4096))

report = solve_matching(spec, cfg, seed=0)
print("converged:", report.converged, "after", report.iterations,
      "iterations")
for row in report.history:
    print("  iter %2d  delta=%.3e  theta=%.2f" % (
        row.iteration, row.delta, row.theta))

grid = report.flows[0].grid
oracle = solve_lq_riccati(lq_from_game(spec), grid)

for i, pop in enumerate(spec.populations):
    emp = np.array([c.points.mean(axis=0)[0] for c in report.flows[i].clouds])
    ode = oracle.means_on(grid, i)[:, 0]
    print("%s: sup-knot mean error %.3e  (cost %.4f +- %.4f)" % (
        pop.label, np.abs(emp - ode).max(),
        report.costs[i][0], report.costs[i][1]))

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

if plt is not None:
    fig, ax = plt.subplots(figsize=(6, 4))
    for i, pop in enumerate(spec.populations):
        emp = [c.points.mean(axis=0)[0] for c in report.flows[i].clouds]
        ax.plot(grid.times, oracle.means_on(grid, i)[:, 0], "k-", lw=1)
        ax.plot(grid.times, emp, "o", ms=3, label="%s (solver)" % pop.label)
    ax.set_xlabel("t")
    ax.set_ylabel("population mean")
    ax.legend()
    fig.tight_layout()
    fig.savefig("two_population_equilibrium.png", dpi=120)
    print("wrote two_population_equilibrium.png")

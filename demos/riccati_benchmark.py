"""
Regression solver vs. the Riccati closed form
=============================================

The scalar builtin has no measure coupling, so its optimal feedback is
linear with a slope given by a Riccati equation. This script solves the
adjoint equation by regression Monte Carlo and overlays the fitted
decoupling-field slope on the oracle curve.
"""

import numpy as np

from mfglab.fbsde import SolverConfig, lq_from_game, solve_adjoint
from mfglab.fbsde import solve_lq_riccati
from mfglab.fixedpoint import uncontrolled_flows
from mfglab.model import builtin_game

spec = builtin_game("lq-scalar")
cfg = SolverConfig(n_steps=50, n_paths=4096)

# the adjoint solver needs frozen flows; with no coupling any flow works,
# so feed it the uncontrolled state distribution
flows = uncontrolled_flows(spec, cfg.n_steps, cfg.n_paths, seed=0)
sol = solve_adjoint(spec, 0, flows, cfg, seed=0)

oracle = solve_lq_riccati(lq_from_game(spec), sol.grid)

print("knot   t      fitted slope   P(t)        rel err")
worst = 0.0
slopes = []
targets = []
for k, t in enumerate(sol.grid.times):
    slope = sol.field.linear_slope(k, sol.X[k])[0, 0]
    P = oracle.P_at(0, t)[0, 0]
    err = abs(slope - P) / max(1.0, abs(P))
    worst = max(worst, err)
    slopes.append(slope)
    targets.append(P)
    if k % 10 == 0 or k == cfg.n_steps:
        print("%4d  %5.2f  %12.6f  %10.6f  %9.2e" % (k, t, slope, P, err))
print("max knot relative error: %.3e" % worst)
print("Picard sweeps used: %d" % len(sol.picard_history))

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

if plt is not None:
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.plot(sol.grid.times, targets, "k-", label="Riccati P(t)")
    ax.plot(sol.grid.times, slopes, "C1o", ms=3, label="fitted slope")
    ax.set_xlabel("t")
    ax.set_ylabel("feedback slope")
    ax.legend()
    fig.tight_layout()
    fig.savefig("riccati_benchmark.png", dpi=120)
    print("wrote riccati_benchmark.png")

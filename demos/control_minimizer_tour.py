"""
Pointwise control minimization, with and without constraints
============================================================

Every solver step reduces to minimizing the control part of the
Hamiltonian at fixed state, adjoint, and measures. This script shows the
quadratic closed form, the projected gradient path (fixed step
1/(lambda + L)) on a box-constrained model, and the certificates that
come with a minimizer: variational inequality residual, Lipschitz
continuity, and growth against the anchor action.
"""

import numpy as np

from mfglab.hamiltonian import (
    HamiltonianContext,
    minimize,
    minimize_controls,
    reduced_hamiltonian,
    vi_residual,
)
from mfglab.measures import ParticleCloud
from mfglab.model import builtin_game, measure_args
from mfglab.rng import substream

rng = substream(0, "demo-minimizer")

# quadratic case: the minimizer is -R^{-1} B^T y, nothing iterative
spec = builtin_game("lq-scalar")
clouds = [ParticleCloud(rng.standard_normal((32, 1)))]
mu, nus = measure_args(spec, 0, clouds)
y = np.array([0.8])
ctx = HamiltonianContext(spec=spec, population=0, t=0.3,
                         x=np.array([0.2]), mu=mu, nus=nus, y=y)
alpha = minimize(ctx)
print("quadratic model: minimizer %.6f, closed form %.6f"
      % (alpha[0], -y[0]))
print("VI residual at the minimizer: %.2e" % vi_residual(ctx, alpha))

# box-constrained case: cosh running cost on actions in [-1, 1]
box = builtin_game("nonlq-box")
bclouds = [ParticleCloud(rng.standard_normal((32, 1)))]
bmu, bnus = measure_args(box, 0, bclouds)
print("\nbox-constrained model, sweeping the adjoint value:")
print("   y      minimizer   H_r at minimizer   VI residual")
for yv in (-3.0, -1.0, 0.0, 1.0, 3.0):
    bctx = HamiltonianContext(spec=box, population=0, t=0.3,
                              x=np.array([0.4]), mu=bmu, nus=bnus,
                              y=np.array([yv]))
    a = minimize(bctx)
    print("%5.1f  %10.6f  %16.6f  %12.2e"
          % (yv, a[0], reduced_hamiltonian(bctx, a), vi_residual(bctx, a)))

# the minimizer map is Lipschitz in (x, y) with constant driven by the
# model's convexity; check it on a random batch
n = 500
lam = box.constants.convexity_lambda
pop = box.populations[0]
X1 = 2.0 * rng.standard_normal((n, 1))
X2 = 2.0 * rng.standard_normal((n, 1))
Y1 = 2.0 * rng.standard_normal((n, 1))
Y2 = 2.0 * rng.standard_normal((n, 1))
A1 = minimize_controls(box, 0, 0.3, X1, bmu, bnus, Y1)
A2 = minimize_controls(box, 0, 0.3, X2, bmu, bnus, Y2)
b2 = np.linalg.norm(np.asarray(pop.drift.b2(0.3, bmu, bnus)), 2)
grad_gap = np.linalg.norm(
    pop.cost.df_dalpha(0.3, X1, bmu, bnus, A1)
    - pop.cost.df_dalpha(0.3, X2, bmu, bnus, A1), axis=1)
bound = (b2 * np.linalg.norm(Y1 - Y2, axis=1) + grad_gap) / (2 * lam)
gap = np.linalg.norm(A1 - A2, axis=1)
print("\nLipschitz certificate on %d random pairs:" % n)
print("  max |a1 - a2| / bound = %.3f (must stay <= 1)"
      % float((gap / np.maximum(bound, 1e-300)).max()))

"""
Particle clouds, Wasserstein distances, and measure flows
=========================================================

The measure layer underneath the solvers: immutable particle clouds,
exact 1-d W2 by sorted quantiles, sliced W2 in higher dimension, radial
truncation, and deterministic CSV round trips for whole flows.
"""

import itertools

import numpy as np

from mfglab.measures import (
    MeasureFlow,
    ParticleCloud,
    TimeGrid,
    flow_from_csv,
    flow_to_csv,
    sliced_w2,
    truncate_phi_n,
    wasserstein2_1d,
)
from mfglab.rng import substream

rng = substream(0, "demo-measures")

# exact 1-d distance: sorted matching is the optimal coupling
a = ParticleCloud(rng.standard_normal((5, 1)))
b = ParticleCloud(rng.standard_normal((5, 1)))
brute = min(
    float(np.mean((a.points[:, 0] - b.points[list(p), 0]) ** 2))
    for p in itertools.permutations(range(5))
)
print("W2 by quantiles: %.12f" % wasserstein2_1d(a, b))
print("W2 by brute force over all pairings: %.12f" % np.sqrt(brute))

# sliced distance in d=2: random directions, exact per slice
v = np.array([1.5, -0.7])
pm_a = ParticleCloud(np.tile(v, (16, 1)))
pm_b = ParticleCloud(np.zeros((16, 2)))
est = sliced_w2(pm_a, pm_b, n_projections=4096, seed=1)
print("\nsliced W2^2 between point masses: %.4f (analytic |v|^2/2 = %.4f)"
      % (est ** 2, 0.5 * v @ v))

# radial truncation: when the cloud's second-moment scale exceeds the
# level, the whole cloud is contracted onto the moment ball; otherwise
# the very same object comes back
wide = ParticleCloud(np.array([[0.3], [-4.0], [2.5]]))
capped = truncate_phi_n(wide, 1.0)
print("\ncloud moment scale %.3f truncated at level 1 -> %.3f"
      % (wide.moment2, capped.moment2))
print("particles:", wide.points[:, 0], "->", np.round(capped.points[:, 0], 3))
same = truncate_phi_n(wide, 1e9)
print("generous level returns the same object:", same is wide)

# a flow is one read-only (knots, particles, dimension) array, and each
# knot's cloud is a view of its row; flows serialize to CSV with full
# precision and read back bit for bit
grid = TimeGrid(1.0, 4)
flow = MeasureFlow(grid, rng.standard_normal((5, 8, 1)))
print("\nflow points", flow.points.shape, "knot 2 cloud", flow.clouds[2],
      "shares the flow's memory:",
      np.shares_memory(flow.clouds[2].points, flow.points))
flow_to_csv(flow, "demo_flow.csv")
back = flow_from_csv("demo_flow.csv")
print("CSV round trip bit-exact:", np.array_equal(flow.points, back.points))
print("wrote demo_flow.csv")

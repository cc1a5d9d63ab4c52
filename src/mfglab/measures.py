"""Empirical measures, time-indexed measure flows, and Wasserstein-2 tools.

Probability measures are represented as uniformly weighted particle
clouds (n rows in R^d). A measure flow is one cloud per knot of a uniform
time grid. Distances are exact order-statistic Wasserstein-2 in d = 1 and
a seeded sliced estimator in higher dimension.
"""

import csv

import numpy as np

from .rng import substream


class TimeGrid:
    """Uniform grid t_k = k * horizon / n_steps, k = 0..n_steps."""

    def __init__(self, horizon, n_steps):
        horizon = float(horizon)
        n_steps = int(n_steps)
        if horizon <= 0.0:
            raise ValueError("horizon must be positive")
        if n_steps < 1:
            raise ValueError("n_steps must be at least 1")
        self.horizon = horizon
        self.n_steps = n_steps
        self.dt = horizon / n_steps
        self.times = np.linspace(0.0, horizon, n_steps + 1)
        self.times.setflags(write=False)

    def __len__(self):
        return self.n_steps + 1

    def __eq__(self, other):
        return (
            isinstance(other, TimeGrid)
            and self.n_steps == other.n_steps
            and self.horizon == other.horizon
        )

    def __hash__(self):
        return hash((self.horizon, self.n_steps))

    def __repr__(self):
        return "TimeGrid(horizon=%r, n_steps=%d)" % (self.horizon, self.n_steps)


class ParticleCloud:
    """Uniformly weighted empirical measure given by its particle rows.

    The stored array is a write-protected copy; clouds are treated as
    immutable values. Mean and second moment are cached on first use.
    """

    def __init__(self, points):
        pts = np.array(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("points must be an (n, d) array with n >= 1")
        if not np.all(np.isfinite(pts)):
            raise ValueError("particle cloud contains non-finite entries")
        pts.setflags(write=False)
        self.points = pts
        self.n, self.dim = pts.shape
        self._mean = None
        self._moment2 = None

    @property
    def mean(self):
        if self._mean is None:
            self._mean = self.points.mean(axis=0)
            self._mean.setflags(write=False)
        return self._mean

    @property
    def moment2(self):
        """Root mean squared particle norm, (E |x|^2)^(1/2)."""
        if self._moment2 is None:
            self._moment2 = float(
                np.sqrt(np.mean(np.sum(self.points**2, axis=1)))
            )
        return self._moment2

    def __repr__(self):
        return "ParticleCloud(n=%d, dim=%d)" % (self.n, self.dim)


def moment2(cloud):
    """Second-moment scale (E |x|^2)^(1/2) of a cloud."""
    return cloud.moment2


def truncate_phi_n(cloud, n):
    """Radial truncation x -> n * x / max(M2, n) applied to every particle.

    When the cloud's second-moment scale M2 is already <= n the map is the
    identity and the same cloud object is returned unchanged.
    """
    n = float(n)
    if n <= 0.0:
        raise ValueError("truncation level must be positive")
    m2 = cloud.moment2
    if m2 <= n:
        return cloud
    return ParticleCloud(cloud.points * (n / m2))


class MeasureFlow:
    """One particle cloud per knot of a uniform time grid."""

    def __init__(self, grid, clouds):
        clouds = list(clouds)
        if len(clouds) != len(grid):
            raise ValueError(
                "need %d clouds for the grid, got %d" % (len(grid), len(clouds))
            )
        dims = {c.dim for c in clouds}
        if len(dims) != 1:
            raise ValueError("all clouds in a flow must share one dimension")
        self.grid = grid
        self.clouds = clouds
        self.dim = clouds[0].dim

    def __len__(self):
        return len(self.clouds)

    def __getitem__(self, k):
        return self.clouds[k]

    def __iter__(self):
        return iter(self.clouds)


def empirical_from_states(grid, states):
    """Build a flow from a (n_knots, n, d) array of particle paths."""
    states = np.asarray(states, dtype=float)
    if states.ndim == 2:
        states = states[:, :, None]
    if states.ndim != 3:
        raise ValueError("states must have shape (n_knots, n, d)")
    if states.shape[0] != len(grid):
        raise ValueError(
            "states has %d knots, grid has %d" % (states.shape[0], len(grid))
        )
    return MeasureFlow(grid, [ParticleCloud(states[k]) for k in range(len(grid))])


def resample(cloud, n, seed=0):
    """Draw n particles with replacement, for reconciling unequal counts."""
    rng = substream(seed, "resample")
    idx = rng.integers(0, cloud.n, size=int(n))
    return ParticleCloud(cloud.points[idx])


def wasserstein2_1d(a, b):
    """Exact W2 between two equal-count clouds on the line.

    Sorted particles pair up monotonically. Clouds with different counts
    must be resampled (or compared through sliced_w2 / flow_distance,
    which handle unequal counts by quantile-function integration).
    """
    _require_dim(a, b, 1)
    if a.n != b.n:
        raise ValueError(
            "equal particle counts required (%d vs %d); resample first"
            % (a.n, b.n)
        )
    xs = np.sort(a.points[:, 0])
    ys = np.sort(b.points[:, 0])
    return float(np.sqrt(np.mean((xs - ys) ** 2)))


def wasserstein1_1d(a, b):
    """Exact W1 between two equal-count clouds on the line."""
    _require_dim(a, b, 1)
    if a.n != b.n:
        raise ValueError("equal particle counts required; resample first")
    xs = np.sort(a.points[:, 0])
    ys = np.sort(b.points[:, 0])
    return float(np.mean(np.abs(xs - ys)))


# Quantile cut layouts depend only on the two counts, so they are cached
# and reused across knots and repetitions.
_QUANT_CACHE = {}


def _quantile_layout(n, m):
    key = (n, m)
    hit = _QUANT_CACHE.get(key)
    if hit is not None:
        return hit
    cuts = np.union1d(np.arange(1, n + 1) / n, np.arange(1, m + 1) / m)
    lens = np.diff(np.concatenate(([0.0], cuts)))
    mids = cuts - lens / 2
    ix = np.minimum((mids * n).astype(int), n - 1)
    iy = np.minimum((mids * m).astype(int), m - 1)
    _QUANT_CACHE[key] = (lens, ix, iy)
    return lens, ix, iy


def _w2sq_sorted_1d(xs, ys):
    """Squared W2 of two sorted 1-d samples, exact for any counts."""
    n, m = len(xs), len(ys)
    if n == m:
        return float(np.mean((xs - ys) ** 2))
    lens, ix, iy = _quantile_layout(n, m)
    return float(np.sum(lens * (xs[ix] - ys[iy]) ** 2))


def wasserstein2_1d_any(a, b):
    """Exact 1-d W2 allowing unequal counts (quantile integration)."""
    _require_dim(a, b, 1)
    xs = np.sort(a.points[:, 0])
    ys = np.sort(b.points[:, 0])
    return float(np.sqrt(_w2sq_sorted_1d(xs, ys)))


def sliced_w2(a, b, n_projections=64, seed=0, return_slices=False):
    """Sliced Wasserstein-2 estimate for clouds in any dimension.

    Random unit directions are drawn from the given seed; each slice is
    an exact 1-d W2. In d = 1 the estimator coincides with the exact
    order-statistic distance and no directions are drawn.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch: %d vs %d" % (a.dim, b.dim))
    if a.dim == 1:
        val = wasserstein2_1d_any(a, b)
        if return_slices:
            return val, np.array([val**2])
        return val
    rng = substream(seed, "sliced-w2")
    dirs = rng.standard_normal((int(n_projections), a.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    px = a.points @ dirs.T
    py = b.points @ dirs.T
    px = np.sort(px, axis=0)
    py = np.sort(py, axis=0)
    if a.n == b.n:
        vals = np.mean((px - py) ** 2, axis=0)
    else:
        vals = np.array(
            [_w2sq_sorted_1d(px[:, j], py[:, j]) for j in range(dirs.shape[0])]
        )
    out = float(np.sqrt(np.mean(vals)))
    if return_slices:
        return out, vals
    return out


def flow_distance(f1, f2, n_projections=64, seed=0):
    """Max over knots of the cloud distance (exact in d = 1, sliced else)."""
    if f1.grid != f2.grid:
        raise ValueError("flows live on different time grids")
    if f1.dim != f2.dim:
        raise ValueError("flows have different state dimensions")
    return max(
        sliced_w2(c1, c2, n_projections=n_projections, seed=seed)
        for c1, c2 in zip(f1.clouds, f2.clouds)
    )


def flow_to_csv(flow, path):
    """Write a flow as CSV rows (knot, time, x0..x{d-1}), 17 digits."""
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["knot", "time"] + ["x%d" % j for j in range(flow.dim)])
        for k, cloud in enumerate(flow.clouds):
            t = "%.17g" % flow.grid.times[k]
            for row in cloud.points:
                writer.writerow([k, t] + ["%.17g" % v for v in row])


def flow_from_csv(path):
    """Read a flow written by flow_to_csv (bit-exact round trip)."""
    knots = []
    times = []
    points = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        dim = len(header) - 2
        for row in reader:
            knots.append(int(row[0]))
            times.append(float(row[1]))
            points.append([float(v) for v in row[2 : 2 + dim]])
    knots = np.asarray(knots)
    times = np.asarray(times)
    points = np.asarray(points)
    n_knots = knots.max() + 1
    horizon = times.max()
    grid = TimeGrid(horizon, n_knots - 1)
    clouds = [ParticleCloud(points[knots == k]) for k in range(n_knots)]
    return MeasureFlow(grid, clouds)


def flow_to_npz(flow, path):
    """Binary columnar dump of a flow (requires equal counts per knot)."""
    counts = {c.n for c in flow.clouds}
    if len(counts) != 1:
        raise ValueError("npz dump needs equal particle counts at every knot")
    stacked = np.stack([c.points for c in flow.clouds])
    np.savez(path, times=np.asarray(flow.grid.times), points=stacked)


def flow_from_npz(path):
    with np.load(path) as data:
        times = data["times"]
        points = data["points"]
    grid = TimeGrid(times[-1], len(times) - 1)
    return MeasureFlow(grid, [ParticleCloud(points[k]) for k in range(len(times))])


def _require_dim(a, b, d):
    if a.dim != d or b.dim != d:
        raise ValueError("expected dimension %d clouds" % d)

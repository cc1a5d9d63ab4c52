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
    return wasserstein2_1d_any(a, b)


# Quantile cut layouts depend only on the two counts, and sliced-W2 unit
# directions only on (seed, count, dimension), so both are cached and
# reused across knots and repetitions; cached directions are read-only.
# A side whose cells take each sample r times in a row, as when one count
# divides the other, is kept as the run length r and gathered by np.repeat.
_QUANT_CACHE = {}
_DIRS_CACHE = {}


def _as_runs(idx, n):
    r = len(idx) // n
    if r * n == len(idx) and np.array_equal(idx, np.repeat(np.arange(n), r)):
        return r
    return idx


def _gather(values, idx):
    if isinstance(idx, int):
        return values if idx == 1 else np.repeat(values, idx)
    return values[idx]


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
    _QUANT_CACHE[key] = (lens, _as_runs(ix, n), _as_runs(iy, m))
    return _QUANT_CACHE[key]


# points projected per block in sorted_slices
_PROJ_BLOCK = 128


def sorted_slices(cloud, dirs=None):
    """The sorted 1-d slices that sorted_w2sq compares: the coordinate of
    a 1-d cloud, or one sorted row per direction (row of dirs)."""
    if dirs is None:
        return np.sort(cloud.points[:, 0])
    # projected as points @ dirs.T, since dirs @ points.T rounds a few
    # entries differently; block by block, so each block's product is
    # transposed in cache, and no block is a single row, which numpy
    # would multiply as a vector with other rounding
    pts = cloud.points
    n = len(pts)
    proj = np.empty((len(dirs), n))
    for i in range(0, max(n - 1, 1), _PROJ_BLOCK):
        j = i + _PROJ_BLOCK if i + _PROJ_BLOCK < n - 1 else n
        proj[:, i:j] = (pts[i:j] @ dirs.T).T
    proj.sort(axis=1)
    return proj


def sorted_w2sq(xs, ys):
    """Squared W2 between sorted slices, exact for any counts: a float
    for two sorted samples, one value per row for two slice arrays."""
    if xs.ndim == 2:
        if xs.shape[1] == ys.shape[1]:
            # (n, P) buffer: each direction's squares add in particle order
            sq = np.subtract(xs.T, ys.T, out=np.empty(xs.shape[::-1]))
            sq *= sq
            return sq.mean(axis=0)
        return np.array([sorted_w2sq(x, y) for x, y in zip(xs, ys)])
    n, m = len(xs), len(ys)
    if n == m:
        return float(np.mean((xs - ys) ** 2))
    lens, ix, iy = _quantile_layout(n, m)
    return float(np.sum(lens * (_gather(xs, ix) - _gather(ys, iy)) ** 2))


def quantile_cells(ys, n):
    """Sorted ys reduced to the cells an n-point sorted sample meets:
    read-only w (each point's cell length), ybar (the length-weighted mean
    of ys there) and the within-cell spread, centered against cancellation."""
    lens, ix, iy = _quantile_layout(n, len(ys))
    y, ix = _gather(ys, iy), _gather(np.arange(n), ix)
    w = np.bincount(ix, lens, n)
    ybar = np.bincount(ix, lens * y, n) / w
    for a in (w, ybar):
        a.setflags(write=False)
    return w, ybar, float(np.sum(lens * (y - ybar[ix]) ** 2))


def cells_w2sq(xs, cells):
    """sorted_w2sq(xs, ys) up to rounding, from quantile_cells(ys, len(xs))."""
    w, ybar, spread = cells
    return float(np.sum(w * (xs - ybar) ** 2) + spread)


def wasserstein2_1d_any(a, b):
    """Exact 1-d W2 allowing unequal counts (quantile integration)."""
    _require_dim(a, b, 1)
    return float(np.sqrt(sorted_w2sq(sorted_slices(a), sorted_slices(b))))


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
    n_proj = int(n_projections)
    if n_proj < 1:
        raise ValueError("n_projections must be at least 1, got %d" % n_proj)
    key = (int(seed), n_proj, a.dim)
    if key not in _DIRS_CACHE:
        dirs = substream(seed, "sliced-w2").standard_normal((n_proj, a.dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        dirs.setflags(write=False)
        _DIRS_CACHE[key] = dirs
    dirs = _DIRS_CACHE[key]
    vals = sorted_w2sq(sorted_slices(a, dirs), sorted_slices(b, dirs))
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
        header = ["knot", "time"] + ["x%d" % j for j in range(flow.dim)]
        fh.write(",".join(header) + "\n")
        for k, cloud in enumerate(flow.clouds):
            # one string per knot, so no text for the whole flow is built
            fmt = ("%d,%.17g," % (k, flow.grid.times[k])
                   + ",".join(["%.17g"] * flow.dim) + "\n")
            fh.write((fmt * cloud.n) % tuple(cloud.points.ravel().tolist()))


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


def _require_dim(a, b, d):
    if a.dim != d or b.dim != d:
        raise ValueError("expected dimension %d clouds" % d)

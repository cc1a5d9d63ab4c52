"""Empirical measures, time-indexed measure flows, and Wasserstein-2 tools.

Probability measures are represented as uniformly weighted particle
clouds (n rows in R^d). A measure flow is one read-only (K+1, n, d)
particle array on a uniform time grid, with a cloud view of each knot's
rows. Distances are exact order-statistic Wasserstein-2 in d = 1 and
a seeded sliced estimator in higher dimension.
"""

import csv
import dataclasses

import numpy as np

from .rng import substream


class TimeGrid:
    """Uniform grid t_k = k * horizon / n_steps, k = 0..n_steps."""

    def __init__(self, horizon, n_steps):
        horizon = float(horizon)
        n_steps = int(n_steps)
        if not 0.0 < horizon < np.inf:  # NaN fails too
            raise ValueError("horizon must be positive and finite")
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


def row_mean(X):
    """X.mean(axis=0) of X (n, d), summed on X' rows (~8x faster at d = 2)."""
    return np.ascontiguousarray(X.T).mean(axis=1)


class ParticleCloud:
    """Uniformly weighted empirical measure given by its particle rows.

    The stored array is write-protected: a copy of the given points, or
    for a flow's clouds a row of the flow's read-only points. Clouds are
    treated as immutable values. Mean and second moment are cached on
    first use.
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
        self._mean = self._moment2 = None

    @classmethod
    def _view(cls, rows):
        """A cloud over read-only, finite (n, d) rows, kept uncopied."""
        cloud = cls.__new__(cls)
        cloud.points = rows
        cloud.n, cloud.dim = rows.shape
        cloud._mean = cloud._moment2 = None
        return cloud

    @property
    def mean(self):
        if self._mean is None:
            self._mean = row_mean(self.points)
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


def truncation_level(level, name="level"):
    """float(level); a ValueError led by name unless positive and finite."""
    if not 0 < level < np.inf:  # NaN fails too
        raise ValueError("%s: must be positive and finite, got %s"
                         % (name, level))
    return float(level)


def truncate_phi_n(cloud, n):
    """Radial truncation x -> n * x / max(M2, n) applied to every particle.

    When the cloud's second-moment scale M2 is already <= n the map is the
    identity and the same cloud object is returned unchanged. The level
    must pass truncation_level.
    """
    n = truncation_level(n)
    m2 = cloud.moment2
    if m2 <= n:
        return cloud
    return ParticleCloud(cloud.points * (n / m2))


class MeasureFlow:
    """A flow of particle laws on a uniform time grid: one read-only
    (K+1, n, d) array of points, and clouds[k] a read-only cloud view of
    row k.

    The flow keeps the array it is given and write-protects it in place.
    It copies a writable view, whose base could still write into the
    flow, and converts a list or a non-float array.
    """

    def __init__(self, grid, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim not in (2, 3) or pts.shape[1] < 1:
            raise ValueError(
                "flow points must have shape (K+1, n, d), or (K+1, n) when "
                "d = 1, with n >= 1; got shape %s" % (pts.shape,))
        if len(pts) != len(grid):
            raise ValueError("flow has %d knots, the grid has %d"
                             % (len(pts), len(grid)))
        if not np.all(np.isfinite(pts)):
            raise ValueError("flow points contain non-finite entries")
        if pts.flags.writeable and pts.base is not None:
            pts = pts.copy()
        pts.setflags(write=False)
        if pts.ndim == 2:
            pts = pts[:, :, None]
        self.grid = grid
        self.points = pts
        self.dim = pts.shape[2]
        self.clouds = [ParticleCloud._view(row) for row in pts]


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


def flow_distance(f1, f2):
    """Max over knots of the cloud distance (exact in d = 1, sliced else)."""
    if f1.grid != f2.grid:
        raise ValueError("flows live on different time grids")
    if f1.dim != f2.dim:
        raise ValueError("flows have different state dimensions")
    return max(sliced_w2(c1, c2) for c1, c2 in zip(f1.clouds, f2.clouds))


def flow_to_csv(flow, path):
    """Write a flow as CSV rows (knot, time, x0..x{d-1}), 17 digits."""
    with open(path, "w", newline="\n") as fh:
        header = ["knot", "time"] + ["x%d" % j for j in range(flow.dim)]
        fh.write(",".join(header) + "\n")
        for k, rows in enumerate(flow.points):
            # one string per knot, so no text for the whole flow is built
            fmt = ("%d,%.17g," % (k, flow.grid.times[k])
                   + ",".join(["%.17g"] * flow.dim) + "\n")
            fh.write((fmt * len(rows)) % tuple(rows.ravel().tolist()))


def csv_line(cells):
    """One CSV line, each cell by its type: bools as true/false, ints as
    %d and floats as %.17g (numpy ones too), strings as given."""
    out = []
    for cell in cells:
        if isinstance(cell, (bool, np.bool_)):  # before int: bool is an int
            out.append("true" if cell else "false")
        elif isinstance(cell, (int, np.integer)):
            out.append("%d" % cell)
        elif isinstance(cell, (float, np.floating)):
            out.append("%.17g" % cell)
        else:
            out.append(cell)
    return ",".join(out)


def write_csv(path, header, rows):
    """Write a header line and one csv_line per row, LF line endings."""
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join([",".join(header)] + [csv_line(r) for r in rows])
                 + "\n")


def jsonable(value):
    """value as plain JSON data. Dataclasses and named tuples become
    objects; tuples, lists and arrays lists; numpy scalars Python ones. A
    (size, deviation) key becomes "size:deviation", any other key str(key).
    """
    if dataclasses.is_dataclass(value):
        value = vars(value)  # asdict would deep-copy every array
    elif hasattr(value, "_asdict"):
        value = value._asdict()
    if isinstance(value, dict):
        return {":".join(map(str, k)) if isinstance(k, tuple) else str(k):
                jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    return value


def flow_from_csv(path):
    """Read a flow written by flow_to_csv (bit-exact round trip). The rows
    must form K+1 equal blocks of consecutive knots, knot 0 first; a
    ValueError naming the path refuses any other file."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        dim = len(next(reader, ())) - 2
        rows = [(int(r[0]), float(r[1]), [float(v) for v in r[2:2 + dim]])
                for r in reader]
    if not rows:
        raise ValueError("%s: no flow rows below the header" % path)
    knots, times, points = zip(*rows)
    n = knots.count(0)  # particles per knot
    if n == 0 or len(knots) % n or not np.array_equal(
            knots, np.arange(len(knots)) // n):
        raise ValueError("%s: rows are not equal blocks of consecutive "
                         "knots from 0" % path)
    grid = TimeGrid(max(times), len(knots) // n - 1)
    return MeasureFlow(grid, np.reshape(points, (len(grid), n, dim)))


def _require_dim(a, b, d):
    if a.dim != d or b.dim != d:
        raise ValueError("expected dimension %d clouds" % d)

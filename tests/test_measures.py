import csv
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from mfglab import measures
from mfglab.measures import (
    MeasureFlow,
    ParticleCloud,
    TimeGrid,
    empirical_from_states,
    flow_distance,
    flow_from_csv,
    flow_to_csv,
    resample,
    sliced_w2,
    sorted_slices,
    sorted_w2sq,
    truncate_phi_n,
    wasserstein2_1d,
    wasserstein2_1d_any,
)
from mfglab.rng import substream


def brute_force_w2(a, b):
    """Minimum over all particle pairings, feasible for n <= 6."""
    xs = a.points[:, 0]
    ys = b.points[:, 0]
    best = np.inf
    for perm in itertools.permutations(range(len(ys))):
        cost = np.mean((xs - ys[list(perm)]) ** 2)
        best = min(best, cost)
    return float(np.sqrt(best))


def test_w2_matches_brute_force_small_clouds():
    rng = substream(0, "test-w2-brute")
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        a = ParticleCloud(3.0 * rng.standard_normal((n, 1)))
        b = ParticleCloud(3.0 * rng.standard_normal((n, 1)))
        worst = max(worst, abs(wasserstein2_1d(a, b) - brute_force_w2(a, b)))
    assert worst <= 1e-12


def test_w2_matches_hungarian_assignment():
    rng = substream(1, "test-w2-hungarian")
    for _ in range(50):
        n = int(rng.integers(2, 12))
        a = ParticleCloud(rng.standard_normal((n, 1)))
        b = ParticleCloud(rng.standard_normal((n, 1)))
        cost = (a.points[:, 0][:, None] - b.points[:, 0][None, :]) ** 2
        rows, cols = linear_sum_assignment(cost)
        ref = float(np.sqrt(cost[rows, cols].mean()))
        assert wasserstein2_1d(a, b) == pytest.approx(ref, abs=1e-12)


_cloud_values = st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=40)


@settings(max_examples=200, deadline=None)
@given(xs=_cloud_values, ys=_cloud_values, zs=_cloud_values,
       equal=st.booleans())
def test_w2_metric_axioms(xs, ys, zs, equal):
    if equal:
        n = min(len(xs), len(ys), len(zs))
        xs, ys, zs = xs[:n], ys[:n], zs[:n]
        w2 = wasserstein2_1d
    else:
        w2 = wasserstein2_1d_any
    a, b, c = ParticleCloud(xs), ParticleCloud(ys), ParticleCloud(zs)
    dab = w2(a, b)
    assert w2(a, a) == 0.0
    if equal:
        assert dab == w2(b, a)
    else:
        assert dab == pytest.approx(w2(b, a), rel=1e-12)
    assert dab <= w2(a, c) + w2(c, b) + 1e-12


def test_w2_any_agrees_on_equal_counts_and_handles_unequal():
    rng = substream(4, "test-w2-any")
    a = ParticleCloud(rng.standard_normal((48, 1)))
    b = ParticleCloud(rng.standard_normal((48, 1)))
    assert wasserstein2_1d_any(a, b) == pytest.approx(
        wasserstein2_1d(a, b), abs=1e-14)
    # against a replicated cloud the quantile function is unchanged
    rep = ParticleCloud(np.repeat(b.points, 3, axis=0))
    assert wasserstein2_1d_any(a, rep) == pytest.approx(
        wasserstein2_1d(a, b), abs=1e-12)


def _index_gather_w2(xs, ys):
    """Quantile-integration W2 of two sorted samples, with every cell
    gathered through explicit index arrays."""
    n, m = len(xs), len(ys)
    if n == m:
        return float(np.sqrt(np.mean((xs - ys) ** 2)))
    cuts = np.union1d(np.arange(1, n + 1) / n, np.arange(1, m + 1) / m)
    lens = np.diff(np.concatenate(([0.0], cuts)))
    mids = cuts - lens / 2
    ix = np.minimum((mids * n).astype(int), n - 1)
    iy = np.minimum((mids * m).astype(int), m - 1)
    return float(np.sqrt(np.sum(lens * (xs[ix] - ys[iy]) ** 2)))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 300), m=st.integers(1, 300), dividing=st.booleans(),
       swap=st.booleans(), ties=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_w2_any_equals_index_gather_for_any_counts(n, m, dividing, swap,
                                                   ties, seed):
    if dividing:
        # make the larger count a multiple of the smaller one
        n, m = min(n, m), min(n, m) * max(1, max(n, m) // min(n, m))
    if swap:
        n, m = m, n
    rng = np.random.default_rng(seed)
    xs = 3.0 * rng.standard_normal(n)
    ys = 1.0 + rng.standard_normal(m)
    if ties:
        xs, ys = np.round(xs), np.round(ys)
    a, b = ParticleCloud(xs), ParticleCloud(ys)
    got = wasserstein2_1d_any(a, b)
    assert got == _index_gather_w2(np.sort(xs), np.sort(ys))
    assert got == pytest.approx(wasserstein2_1d_any(b, a), rel=1e-12)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 300), m=st.integers(1, 300),
       counts=st.sampled_from(["any", "dividing", "n>m", "m=1"]),
       ties=st.booleans(), offset=st.floats(-1e3, 1e3),
       seed=st.integers(0, 2**32 - 1))
def test_cells_w2sq_matches_index_gather(n, m, counts, ties, offset, seed):
    if counts == "dividing":
        n, m = min(n, m), min(n, m) * max(1, max(n, m) // min(n, m))
    elif counts == "n>m":
        n, m = max(n, m) + 1, min(n, m)
    elif counts == "m=1":
        m = 1
    rng = np.random.default_rng(seed)
    xs = 3.0 * rng.standard_normal(n)
    ys = 1.0 + rng.standard_normal(m)
    if ties:
        xs, ys = np.round(xs), np.round(ys)
    xs, ys = np.sort(xs + offset), np.sort(ys + offset)
    gather = sorted_w2sq(xs, ys)
    got = measures.cells_w2sq(xs, measures.quantile_cells(ys, n))
    # the centered cell form rounds within a few eps * M * W2 of the
    # gather; per-cell sums of y and y^2 cancel catastrophically here
    eps, big = np.finfo(float).eps, max(np.abs(xs).max(), np.abs(ys).max())
    assert abs(got - gather) <= 64 * eps * big * (np.sqrt(gather) + big * eps)


def test_sliced_point_mass_two_dim():
    v = np.array([1.5, -0.7])
    a = ParticleCloud(np.tile(v, (8, 1)))
    b = ParticleCloud(np.zeros((8, 2)))
    est, slices = sliced_w2(a, b, n_projections=256, seed=5,
                            return_slices=True)
    # each slice equals <v, e>^2; the mean over directions tends to |v|^2/2
    target = 0.5 * float(v @ v)
    se = float(np.std(slices, ddof=1) / np.sqrt(len(slices)))
    assert abs(est**2 - target) <= 3.0 * se


def test_sliced_one_dim_is_exact():
    rng = substream(6, "test-sliced-1d")
    a = ParticleCloud(rng.standard_normal((40, 1)))
    b = ParticleCloud(rng.standard_normal((40, 1)))
    assert sliced_w2(a, b) == pytest.approx(wasserstein2_1d(a, b), abs=1e-14)


def test_sliced_needs_a_projection():
    a = ParticleCloud(np.zeros((4, 2)))
    with pytest.raises(ValueError, match="n_projections"):
        sliced_w2(a, a, n_projections=0)


def test_sliced_directions_drawn_once_and_read_only(monkeypatch):
    draws = []

    def counted(seed, name):
        draws.append(name)
        return substream(seed, name)

    monkeypatch.setattr(measures, "substream", counted)
    rng = substream(8, "test-sliced-cache")
    a = ParticleCloud(rng.standard_normal((30, 3)))
    b = ParticleCloud(rng.standard_normal((20, 3)))
    first = sliced_w2(a, b, n_projections=7, seed=12345)
    assert sliced_w2(b, a, n_projections=7, seed=12345) == first
    assert draws == ["sliced-w2"]
    dirs = measures._DIRS_CACHE[(12345, 7, 3)]
    assert not dirs.flags.writeable
    fresh = substream(12345, "sliced-w2").standard_normal((7, 3))
    np.testing.assert_array_equal(
        dirs, fresh / np.linalg.norm(fresh, axis=1, keepdims=True))


@settings(max_examples=150, deadline=None)
@given(dim=st.sampled_from([2, 3]), n=st.integers(1, 200),
       m=st.integers(1, 200), counts=st.sampled_from(
           ["equal", "one", "dividing", "any"]),
       n_proj=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_sorted_slice_kernel_is_bitwise(dim, n, m, counts, n_proj, seed):
    if counts == "equal":
        m = n
    elif counts == "one":
        n = 1
    elif counts == "dividing":
        m = n * max(1, m // n)
    rng = np.random.default_rng(seed)
    a = ParticleCloud(rng.standard_normal((n, dim)))
    b = ParticleCloud(2.0 + rng.standard_normal((m, dim)))
    dirs = rng.standard_normal((n_proj, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    got = sorted_w2sq(sorted_slices(a, dirs), sorted_slices(b, dirs))
    assert got.shape == (n_proj,)
    # the column-sorted projections of the formula the row kernel replaced
    xs = np.sort(a.points @ dirs.T, axis=0)
    ys = np.sort(b.points @ dirs.T, axis=0)
    if n == m:
        np.testing.assert_array_equal(got, np.mean((xs - ys) ** 2, axis=0))
        return
    for j in range(n_proj):
        pa, pb = ParticleCloud(xs[:, j]), ParticleCloud(ys[:, j])
        assert np.sqrt(got[j]) == wasserstein2_1d_any(pa, pb)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 7), n_proj=st.integers(1, 64),
       seed=st.integers(0, 2**32 - 1))
def test_sliced_w2_below_exact_w2(n, n_proj, seed):
    # projection onto a unit direction is 1-Lipschitz, so every slice's
    # W2 is at most the full W2, whatever the directions
    rng = np.random.default_rng(seed)
    a = ParticleCloud(rng.standard_normal((n, 2)))
    b = ParticleCloud(rng.standard_normal((n, 2)) * [2.0, 0.5] + 1.0)
    cost = np.sum((a.points[:, None, :] - b.points[None, :, :]) ** 2, axis=2)
    rows, cols = linear_sum_assignment(cost)
    exact = float(np.sqrt(np.mean(cost[rows, cols])))
    assert sliced_w2(a, b, n_projections=n_proj, seed=seed) <= exact * (
        1.0 + 1e-12)


def test_cloud_immutability_and_moments():
    pts = np.array([[1.0], [2.0], [3.0]])
    cloud = ParticleCloud(pts)
    with pytest.raises(ValueError):
        cloud.points[0, 0] = 9.0
    assert cloud.mean[0] == pytest.approx(2.0)
    assert cloud.moment2 == pytest.approx(np.sqrt(np.mean(pts**2)))
    with pytest.raises(ValueError):
        ParticleCloud(np.array([[np.inf]]))


def test_truncation_map():
    cloud = ParticleCloud(np.array([[3.0], [4.0]]))
    m2 = cloud.moment2
    # identity above the second-moment scale, same object returned
    assert truncate_phi_n(cloud, m2 + 1.0) is cloud
    level = 0.5 * m2
    out = truncate_phi_n(cloud, level)
    assert out.moment2 == pytest.approx(level)
    assert np.allclose(out.points, cloud.points * (level / m2))
    with pytest.raises(ValueError):
        truncate_phi_n(cloud, 0.0)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=60),
       dim=st.sampled_from([1, 2, 3]), level=st.floats(1e-3, 1e3))
def test_truncation_hits_the_level_or_returns_the_cloud(values, dim, level):
    n = len(values) // dim
    cloud = ParticleCloud(np.reshape(values[: n * dim], (n, dim)))
    out = truncate_phi_n(cloud, level)
    if cloud.moment2 <= level:
        assert out is cloud
    else:
        assert out.moment2 == pytest.approx(level, rel=1e-12, abs=0.0)


def test_resample_deterministic():
    cloud = ParticleCloud(np.arange(10.0)[:, None])
    r1 = resample(cloud, 7, seed=3)
    r2 = resample(cloud, 7, seed=3)
    assert np.array_equal(r1.points, r2.points)
    assert set(r1.points[:, 0]) <= set(cloud.points[:, 0])


def _random_flow(seed, n_steps=5, n=16, d=2):
    rng = substream(seed, "test-flow")
    grid = TimeGrid(1.0, n_steps)
    clouds = [ParticleCloud(rng.standard_normal((n, d)))
              for _ in range(n_steps + 1)]
    return MeasureFlow(grid, clouds)


def test_flow_distance_zero_on_identical():
    flow = _random_flow(7)
    assert flow_distance(flow, flow) == 0.0


def test_flow_csv_round_trip(tmp_path):
    flow = _random_flow(8, d=1)
    path = tmp_path / "flow.csv"
    flow_to_csv(flow, str(path))
    back = flow_from_csv(str(path))
    assert back.grid == flow.grid
    for c1, c2 in zip(flow.clouds, back.clouds):
        assert np.array_equal(c1.points, c2.points)


def test_flow_csv_bytes_match_csv_writer(tmp_path):
    values = [-0.0, 5e-324, 1e22, 0.1, -1.5, 2.0 / 3.0]
    for d in (1, 2):
        rows = np.array(values * d).reshape(-1, d)
        grid = TimeGrid(0.3, 2)
        flow = MeasureFlow(grid, [ParticleCloud(rows * s)
                                  for s in (1.0, -1.0, 0.5)])
        path = tmp_path / ("flow%d.csv" % d)
        flow_to_csv(flow, str(path))
        ref = tmp_path / ("ref%d.csv" % d)
        with open(ref, "w", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["knot", "time"] + ["x%d" % j for j in range(d)])
            for k, cloud in enumerate(flow.clouds):
                t = "%.17g" % grid.times[k]
                for row in cloud.points:
                    writer.writerow([k, t] + ["%.17g" % v for v in row])
        assert path.read_bytes() == ref.read_bytes()
        back = flow_from_csv(str(path))
        assert back.grid == grid
        for c1, c2 in zip(flow.clouds, back.clouds):
            assert c1.points.tobytes() == c2.points.tobytes()


_CSV_EDGE_VALUES = [-0.0, 0.0, 5e-324, -2.5e-310, 1e300, -1e300, 3.0, -7.0,
                    1e16, 0.1]


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 3), n=st.integers(1, 6), n_steps=st.integers(1, 3),
       horizon=st.floats(0.01, 10.0),
       values=st.lists(st.one_of(st.sampled_from(_CSV_EDGE_VALUES),
                                 st.floats(allow_nan=False,
                                           allow_infinity=False)),
                       min_size=1, max_size=8))
def test_flow_csv_bytes_match_per_row_formatter(tmp_path_factory, d, n,
                                                n_steps, horizon, values):
    count = (n_steps + 1) * n * d
    pts = np.resize(np.array(values), count).reshape(n_steps + 1, n, d)
    grid = TimeGrid(horizon, n_steps)
    flow = MeasureFlow(grid, [ParticleCloud(p) for p in pts])
    path = tmp_path_factory.mktemp("csv") / "flow.csv"
    flow_to_csv(flow, str(path))
    # the per-row formatter flow_to_csv used before
    ref = ",".join(["knot", "time"] + ["x%d" % j for j in range(d)]) + "\n"
    for k, cloud in enumerate(flow.clouds):
        fmt = ("%d,%.17g," % (k, grid.times[k])
               + ",".join(["%.17g"] * d) + "\n")
        ref += "".join(fmt % tuple(r) for r in cloud.points.tolist())
    assert path.read_bytes() == ref.encode()


def test_empirical_from_states():
    states = np.arange(24.0).reshape(3, 4, 2)
    grid = TimeGrid(1.0, 2)
    flow = empirical_from_states(grid, states)
    assert len(flow.clouds) == 3
    assert np.array_equal(flow.clouds[1].points, states[1])

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfglab import hamiltonian, nagent
from mfglab.fbsde import _path_costs, euler_scheme
from mfglab.fixedpoint import solve_matching
from mfglab.hamiltonian import field_feedback, minimize_controls
from mfglab.measures import (ParticleCloud, TimeGrid, cells_w2sq,
                             MeasureFlow, quantile_cells, sliced_w2,
                             sorted_slices)
from mfglab.model import (COMPETITIVE, GameSpec, ModelConstants, PopulationLq,
                          builtin_game, builtin_library, gaussian_initial_law,
                          population_from_lq)
from mfglab.nagent import (
    Deviation,
    MODE_COMPETITIVE,
    MODE_COOPERATIVE,
    MODE_MIXED_AGENT,
    MODE_MIXED_POPULATION,
    StructuralFlagError,
    chaos_rate,
    default_deviations,
    eps_bar,
    eps_chaos_sq,
    nash_gap,
    simulate_iid_copies,
    simulate_interacting,
)
from mfglab.rng import substream

from conftest import cached_equilibrium, fp_config


def test_chaos_rate_formula():
    assert eps_chaos_sq(100, 1) == pytest.approx(100 ** -0.5)
    assert eps_chaos_sq(100, 3) == pytest.approx(100 ** -0.5)
    assert eps_chaos_sq(100, 4) == pytest.approx(
        (1 + np.log(100)) / np.sqrt(100))
    assert eps_chaos_sq(100, 6) == pytest.approx(100 ** (-2.0 / 6.0))
    assert eps_bar(100, 1) == pytest.approx(100 ** -0.25)
    assert eps_bar(100, 6) == pytest.approx(100 ** (-1.0 / 6.0))


def test_deviation_idents():
    ids = [d.ident for d in default_deviations()]
    assert ids == ["shift:+0.1", "shift:-0.1", "shift:+0.5", "shift:-0.5",
                   "anchor", "null"]
    with pytest.raises(ValueError, match="unknown deviation"):
        Deviation("teleport")


def test_interacting_equals_iid_when_dynamics_ignore_the_measure():
    # the decoupled game reads no empirical statistics, so coupling the
    # agents changes nothing: the interacting system equals a frozen-flow
    # Euler run on the same bundles
    spec = builtin_game("lq-scalar")
    eq = cached_equilibrium("lq-scalar", n_steps=10, n_paths=512)
    grid = eq.flows[0].grid
    bundles = nagent._draw_bundles(spec, grid, [range(24)], 1, 0)
    frozen = euler_scheme(
        spec, grid, (0,), *bundles,
        [field_feedback(spec, 0, eq.solutions[0].field.eval)], eq.flows,
        live=False, keep_controls=True)[0]
    system = simulate_interacting(spec, eq, 24, seed=1)
    assert np.array_equal(system.paths[0], frozen.paths)
    assert np.array_equal(system.costs[0],
                          _path_costs(spec, 0, grid, *frozen))


def test_empirical_flow_matches_states():
    spec = builtin_game("lq-1pop")
    eq = cached_equilibrium("lq-1pop", n_steps=10, n_paths=512)
    system = simulate_interacting(spec, eq, 16, seed=0)
    flow = MeasureFlow(system.grid, system.paths[0])
    assert len(flow.clouds) == 11
    assert np.array_equal(flow.clouds[4].points, system.paths[0][4])


def test_unconverged_equilibrium_rejected():
    spec = builtin_game("lq-1pop")
    from mfglab.fixedpoint import FixedPointConfig, solve_matching
    from mfglab.fbsde import SolverConfig
    bad = solve_matching(
        spec,
        FixedPointConfig(solver=SolverConfig(n_steps=10, n_paths=256),
                         fp_tol=1e-9, max_iterations=2),
        seed=0,
    )
    with pytest.raises(ValueError, match="not converged"):
        simulate_iid_copies(spec, bad, 0, 8, substream(0, "unconverged"))
    with pytest.raises(ValueError, match="not converged"):
        simulate_interacting(spec, bad, 8)


def test_chaos_needs_three_sizes_and_deep_reference(monkeypatch):
    spec = builtin_game("lq-1pop")
    eq = cached_equilibrium("lq-1pop", n_steps=10, n_paths=512)

    def refuse(*args, **kwargs):
        raise AssertionError("chaos_rate simulated before checking inputs")

    monkeypatch.setattr(nagent, "simulate_iid_copies", refuse)
    for low in (0, -4):
        with pytest.raises(ValueError, match="at least 2, got %d" % low):
            chaos_rate(spec, eq, [low, 8, 16], repetitions=2)
    with pytest.raises(ValueError, match="fit refused"):
        chaos_rate(spec, eq, [32, 32, 64], repetitions=2)
    with pytest.raises(ValueError, match="16x"):
        chaos_rate(spec, eq, [16, 32, 64], repetitions=2, reference_factor=8)
    for reps in (0, 1):
        with pytest.raises(ValueError, match="at least 2 repetitions"):
            chaos_rate(spec, eq, [16, 32, 64], repetitions=reps)


def _refuse_simulation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("simulated before checking the arguments")

    for name in ("simulate_iid_copies", "simulate_interacting",
                 "_draw_bundles", "solve_adjoint"):
        monkeypatch.setattr(nagent, name, refuse)


@pytest.mark.parametrize("kwargs, field", [
    ({"N_list": [1, 8, 16]}, "sizes"),
    ({"N_list": [8, 8, 16]}, "sizes"),
    ({"repetitions": 1}, "repetitions"),
    ({"reference_factor": 8}, "reference_factor"),
])
def test_chaos_rate_refuses_by_field(monkeypatch, kwargs, field):
    _refuse_simulation(monkeypatch)
    eq = cached_equilibrium("lq-1pop", n_steps=10, n_paths=512)
    args = dict({"N_list": [8, 16, 32], "repetitions": 2}, **kwargs)
    with pytest.raises(ValueError, match="^%s: " % field):
        chaos_rate(builtin_game("lq-1pop"), eq, **args)


@pytest.mark.parametrize("kwargs, field", [
    ({"repetitions": 0}, "repetitions"),
    ({"mode": "sideways"}, "mode"),
    ({"population": 1}, "population"),
])
def test_nash_gap_refuses_by_field(monkeypatch, kwargs, field):
    _refuse_simulation(monkeypatch)
    eq = cached_equilibrium("lq-1pop", n_steps=10, n_paths=512)
    args = dict({"N_list": (8, 16, 32), "repetitions": 2}, **kwargs)
    with pytest.raises(ValueError, match="^%s: " % field):
        nash_gap(builtin_game("lq-1pop"), eq, **args)


def test_deviations_sharing_an_ident_are_refused(monkeypatch):
    # %g keeps 6 digits, so both shifts would report as shift:+0.1 and the
    # first one's gains would be lost under the second's
    _refuse_simulation(monkeypatch)
    eq = cached_equilibrium("lq-1pop", n_steps=10, n_paths=512)
    with pytest.raises(ValueError) as err:
        nash_gap(builtin_game("lq-1pop"), eq, (8, 16, 32),
                 deviations=(Deviation("shift", 0.1), Deviation("null"),
                             Deviation("shift", 0.1000001)), repetitions=2)
    assert str(err.value) == (
        "deviations: Deviation(kind='shift', value=0.1) and "
        "Deviation(kind='shift', value=0.1000001) both report as "
        "'shift:+0.1'")


@pytest.mark.parametrize("kind, value, match", [
    ("teleport", 0.0, "^kind: "),
    # the text README quotes for a bare YAML null
    (None, 0.0, "^kind: .*expected one of shift, anchor, null, "
     "best-response, got None$"),
    ("shift", float("nan"), "^value: "),
    ("best-response", float("inf"), "^value: "),
    ("anchor", 0.3, "^value: anchor deviations take no value$"),
    ("null", -1.0, "^value: "),
])
def test_deviation_refuses_by_field(kind, value, match):
    with pytest.raises(ValueError, match=match):
        Deviation(kind, value)


def test_studies_run_the_public_simulators(monkeypatch):
    spec = builtin_game("mixed-opec")
    eq = cached_equilibrium("mixed-opec", n_steps=10, n_paths=512)
    calls = {simulate_iid_copies: [], simulate_interacting: []}

    def counted(fn, read):
        def wrapper(*args, **kwargs):
            calls[fn].append(read(*args))
            return fn(*args, **kwargs)
        monkeypatch.setattr(nagent, fn.__name__, wrapper)

    counted(simulate_iid_copies, lambda spec, eq, i, n, rng: (i, n))
    counted(simulate_interacting, lambda spec, eq, N, seed, rep: (N, rep))
    chaos_rate(spec, eq, [4, 6, 8], repetitions=3, seed=0)
    # (population, size): a reference per population, then one largest
    # system per population in each repetition, m x (1 + repetitions)
    assert calls[simulate_iid_copies] == [(0, 128), (1, 128)] + [
        (0, 8), (1, 8)] * 3
    devs = (Deviation("shift", 0.2), Deviation("null"))
    nash_gap(spec, eq, N_list=(4, 6), deviations=devs, repetitions=2, seed=0)
    # (sizes, rep): the baseline and each deviation per (size, rep) task
    assert calls[simulate_interacting] == [
        (sizes, rep) for sizes in ((4, 4), (6, 6)) for rep in (0, 1)
        for _ in range(1 + len(devs))]


def test_chaos_report_small_run():
    spec = builtin_game("lq-1pop")
    eq = cached_equilibrium("lq-1pop", n_steps=10, n_paths=512)
    report = chaos_rate(spec, eq, [16, 32, 64], repetitions=4, seed=0)
    assert report.N_list == (16, 32, 64)
    assert report.knot_curves[0].shape == (3, 11)
    assert np.all(report.knot_curves[0] > 0)
    # larger systems sit closer to the limit law
    sup = report.estimates[0]
    assert sup[0] > sup[-1]
    assert report.slopes[0] < 0
    d = report.to_dict()
    assert len(d["slopes"]) == 1
    import json
    json.dumps(d)


def test_a_repeated_size_is_counted_once():
    # a repeated size would weigh twice in the chaos fit and pool
    # identical repetitions in a Nash standard error
    spec = builtin_game("lq-1pop")
    eq = cached_equilibrium("lq-1pop", n_steps=10, n_paths=512)

    def same(a, b):
        return (json.dumps(a.to_dict(), sort_keys=True)
                == json.dumps(b.to_dict(), sort_keys=True))

    assert same(chaos_rate(spec, eq, [16, 64, 16, 32], repetitions=2),
                chaos_rate(spec, eq, [16, 32, 64], repetitions=2))
    devs = (Deviation("shift", 0.1), Deviation("null"))
    assert same(nash_gap(spec, eq, (8, 8, 16, 32, 16), deviations=devs,
                         repetitions=2),
                nash_gap(spec, eq, (8, 16, 32), deviations=devs,
                         repetitions=2))


def test_a_repeated_deviation_is_run_once(monkeypatch):
    # a repeated deviation was simulated, and its best response solved,
    # once per listing, and reported twice
    spec = builtin_game("lq-1pop")
    eq = cached_equilibrium("lq-1pop", n_steps=10, n_paths=512)
    solves = []
    real_solve = nagent.solve_adjoint

    def counted_solve(*args, **kwargs):
        solves.append(1)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(nagent, "solve_adjoint", counted_solve)
    devs = (Deviation("shift", 0.25), Deviation("best-response", 0.3))
    once = nash_gap(spec, eq, (8, 16, 32), deviations=devs, repetitions=2)
    assert len(solves) == 1
    twice = nash_gap(spec, eq, (8, 16, 32), deviations=devs + devs,
                     repetitions=2)
    assert len(solves) == 2
    assert (json.dumps(twice.to_dict(), sort_keys=True)
            == json.dumps(once.to_dict(), sort_keys=True))


def test_null_deviation_gains_exactly_zero():
    spec = builtin_game("lq-1pop")
    eq = cached_equilibrium("lq-1pop", n_steps=10, n_paths=512)
    report = nash_gap(spec, eq, N_list=(8, 12, 16),
                      deviations=(Deviation("null"), Deviation("shift", 0.3)),
                      repetitions=2, seed=0)
    for n in (8, 12, 16):
        assert report.gains[(n, "null")] == 0.0
        assert report.gain_ses[(n, "null")] == 0.0
        # tiny systems sit far from the limit, so the shifted control can
        # beat the mean-field feedback; only finiteness is guaranteed here
        assert np.isfinite(report.gains[(n, "shift:+0.3")])
        assert report.gain_ses[(n, "shift:+0.3")] > 0.0


def test_mode_preconditions_checked_before_simulation():
    eq = cached_equilibrium("lq-1pop", n_steps=10, n_paths=512)
    spec = builtin_game("lq-1pop")
    # sizes are absurd on purpose: the guard must fire first, instantly
    with pytest.raises(StructuralFlagError, match="cooperative population"):
        nash_gap(spec, eq, N_list=(10 ** 9, 2 * 10 ** 9, 4 * 10 ** 9),
                 mode=MODE_COOPERATIVE)
    with pytest.raises(StructuralFlagError, match="both cooperative"):
        nash_gap(spec, eq, N_list=(10 ** 9, 2 * 10 ** 9, 4 * 10 ** 9),
                 mode=MODE_MIXED_POPULATION)

    opec = builtin_game("mixed-opec")
    eq_opec = cached_equilibrium("mixed-opec", n_steps=10, n_paths=512)
    # cartel intercepts depend on the cartel's own law, so population
    # deviations in the cooperative sense are structurally unsupported
    with pytest.raises(StructuralFlagError, match="structural flag"):
        nash_gap(opec, eq_opec, N_list=(10 ** 9, 2 * 10 ** 9, 4 * 10 ** 9),
                 mode=MODE_COOPERATIVE)
    with pytest.raises(StructuralFlagError, match="not competitive"):
        nash_gap(opec, eq_opec, N_list=(10 ** 9, 2 * 10 ** 9, 4 * 10 ** 9),
                 mode=MODE_COMPETITIVE, population=0)


@pytest.mark.parametrize("population", [-1, 1])
def test_population_index_checked_before_simulation(population):
    eq = cached_equilibrium("lq-1pop", n_steps=10, n_paths=512)
    spec = builtin_game("lq-1pop")
    with pytest.raises(ValueError, match=r"outside \[0, 1\)"):
        nash_gap(spec, eq, N_list=(10 ** 9, 2 * 10 ** 9, 4 * 10 ** 9),
                 population=population)


# (builtin, mode, population) -> (deviating population, unit) for every
# accepted combination; every other one over the builtins, each mode and
# population None or an index must raise StructuralFlagError
_ACCEPTED_MODES = {
    ("lq-1pop", "competitive-agent", None): (0, "agent"),
    ("lq-1pop", "competitive-agent", 0): (0, "agent"),
    ("lq-2pop-competitive", "competitive-agent", None): (0, "agent"),
    ("lq-2pop-competitive", "competitive-agent", 0): (0, "agent"),
    ("lq-2pop-competitive", "competitive-agent", 1): (1, "agent"),
    ("lq-2pop-cooperative", "cooperative-population", None): (0, "population"),
    ("lq-2pop-cooperative", "cooperative-population", 0): (0, "population"),
    ("lq-2pop-cooperative", "cooperative-population", 1): (1, "population"),
    ("lq-bimodal", "competitive-agent", None): (0, "agent"),
    ("lq-bimodal", "competitive-agent", 0): (0, "agent"),
    ("lq-scalar", "competitive-agent", None): (0, "agent"),
    ("lq-scalar", "competitive-agent", 0): (0, "agent"),
    ("mixed-opec", "competitive-agent", None): (1, "agent"),
    ("mixed-opec", "competitive-agent", 1): (1, "agent"),
    ("mixed-opec", "mixed-setup1", None): (0, "population"),
    ("mixed-opec", "mixed-setup1", 0): (0, "population"),
    ("mixed-opec", "mixed-setup2", None): (1, "agent"),
    ("mixed-opec", "mixed-setup2", 1): (1, "agent"),
    ("nonlq-box", "competitive-agent", None): (0, "agent"),
    ("nonlq-box", "competitive-agent", 0): (0, "agent"),
}
_MODE_CASES = [
    (name, mode, pop)
    for name, spec in sorted(builtin_library().items())
    for mode in ("competitive-agent", "cooperative-population",
                 "mixed-setup1", "mixed-setup2")
    for pop in [None, *range(spec.n_populations)]
]


def test_mode_cases_cover_every_builtin():
    assert len(_MODE_CASES) == 68
    assert set(_ACCEPTED_MODES) <= set(_MODE_CASES)


@pytest.mark.parametrize("name, mode, population", _MODE_CASES)
def test_mode_rules(name, mode, population):
    spec = builtin_game(name)
    expected = _ACCEPTED_MODES.get((name, mode, population))
    if expected is None:
        with pytest.raises(StructuralFlagError):
            nagent._validate_mode(spec, mode, population)
    else:
        assert nagent._validate_mode(spec, mode, population) == expected


def test_mixed_modes_run_on_mixed_builtin():
    opec = builtin_game("mixed-opec")
    eq = cached_equilibrium("mixed-opec", n_steps=10, n_paths=512)
    devs = (Deviation("shift", 0.2), Deviation("null"))
    for mode, pop in ((MODE_MIXED_POPULATION, 0), (MODE_MIXED_AGENT, 1)):
        report = nash_gap(opec, eq, N_list=(6, 8, 10), deviations=devs,
                          repetitions=2, seed=0, mode=mode)
        assert report.population == pop
        assert report.mode == mode
        assert set(report.deviation_ids) == {"shift:+0.2", "null"}
        for n in (6, 8, 10):
            assert report.eps_bar_sum[n] > 0


def test_open_loop_and_best_response_variants_run():
    spec = builtin_game("lq-1pop")
    eq = cached_equilibrium("lq-1pop", n_steps=10, n_paths=512)
    devs = (Deviation("best-response", 0.3), Deviation("null"))
    closed = nash_gap(spec, eq, N_list=(6, 8, 10), deviations=devs,
                      repetitions=2, seed=0)
    opened = nash_gap(spec, eq, N_list=(6, 8, 10), deviations=devs,
                      repetitions=2, seed=0, open_loop=True)
    assert closed.open_loop is False
    assert opened.open_loop is True
    for n in (6, 8, 10):
        assert np.isfinite(closed.gains[(n, "best-response:0.3")])
        assert np.isfinite(opened.gains[(n, "best-response:0.3")])


def test_open_loop_equals_closed_loop_when_drift_ignores_the_measure():
    # lq-1pop's drift reads no measure, so a deviator's own i.i.d. copy
    # path is its path in the interacting system: precommitting the
    # controls along it changes nothing but rounding
    spec = builtin_game("lq-1pop")
    eq = cached_equilibrium("lq-1pop", n_steps=10, n_paths=512)
    devs = (Deviation("shift", 0.2), Deviation("anchor"),
            Deviation("best-response", 0.3))
    closed = nash_gap(spec, eq, N_list=(6, 8, 10), deviations=devs,
                      repetitions=2, seed=0)
    opened = nash_gap(spec, eq, N_list=(6, 8, 10), deviations=devs,
                      repetitions=2, seed=0, open_loop=True)
    assert set(closed.gains) == set(opened.gains) and len(closed.gains) == 9
    for key, gain in closed.gains.items():
        assert opened.gains[key] == pytest.approx(gain, rel=0, abs=1e-12)
        assert gain != 0.0


def test_workers_do_not_change_nash_results():
    spec = builtin_game("lq-1pop")
    eq = cached_equilibrium("lq-1pop", n_steps=10, n_paths=512)
    devs = (Deviation("shift", 0.2), Deviation("null"))
    a = nash_gap(spec, eq, N_list=(6, 8, 10), deviations=devs,
                 repetitions=2, seed=0, workers=1)
    b = nash_gap(spec, eq, N_list=(6, 8, 10), deviations=devs,
                 repetitions=2, seed=0, workers=8)
    assert a.gains == b.gains
    assert a.gain_ses == b.gain_ses
    assert a.kappa_by_N == b.kappa_by_N


def _direct_chaos_w2sq(spec, eq, N_list, repetitions, seed, factor, w2sq):
    """chaos_rate's squared W2 per (repetition, population, size, knot)
    against the full and the half reference, recomputed with one
    w2sq(cloud, reference cloud) call each, and the largest |state|."""
    n_ref = factor * N_list[-1]
    m = spec.n_populations
    n_knots = len(eq.flows[0].grid)
    full = np.empty((repetitions, m, len(N_list), n_knots))
    half = np.empty_like(full)
    big = 0.0
    for i in range(m):
        rng = substream(seed, "nagent:reference:pop:%d" % i)
        X = simulate_iid_copies(spec, eq, i, n_ref, rng).paths[0]
        big = max(big, np.abs(X).max())
        for rep in range(repetitions):
            paths = simulate_iid_copies(spec, eq, i, N_list[-1], substream(
                seed, "nagent:chaos:rep:%d:pop:%d" % (rep, i))).paths[0]
            big = max(big, np.abs(paths).max())
            for a, n in enumerate(N_list):
                for k in range(n_knots):
                    cloud = ParticleCloud(paths[k][:n])
                    full[rep, i, a, k] = w2sq(cloud, ParticleCloud(X[k]))
                    half[rep, i, a, k] = w2sq(
                        cloud, ParticleCloud(X[k][: n_ref // 2]))
    return full, half, big


def _chaos_curves(full, half):
    """Knot curves and half-reference bias, as chaos_rate reduces them."""
    curves = [full[:, i].mean(axis=0) for i in range(full.shape[1])]
    bias = [half[:, i].mean(axis=0)[np.arange(full.shape[2]),
                                    curves[i].argmax(axis=1)]
            for i in range(full.shape[1])]
    return curves, bias


def _sliced_w2sq(cloud, ref):
    return sliced_w2(cloud, ref) ** 2


def _cells_w2sq(cloud, ref):
    return cells_w2sq(sorted_slices(cloud),
                      quantile_cells(sorted_slices(ref), cloud.n))


def _lq_2d_game():
    eye = np.eye(2)
    lq = PopulationLq(A=-0.2 * eye, B=eye, sigma=0.5 * eye, R=eye, W=eye,
                      Wg=0.5 * eye, S=0.3 * eye)
    pop = population_from_lq(lq, COMPETITIVE,
                             gaussian_initial_law([1.0, -0.5], 0.5),
                             initial_mean=[1.0, -0.5],
                             initial_cov=0.25 * eye)
    return GameSpec(populations=(pop,), horizon=1.0,
                    constants=ModelConstants(1.0, 0.5, 1.0), name="lq-2d")


@pytest.mark.parametrize("game", ["lq-bimodal", "lq-2d"])
def test_chaos_rate_equals_direct_w2(game):
    # 12 and 40 do not divide the 1024-point reference, 64 does
    N_list, reps, seed, factor = (12, 40, 64), 3, 2, 16
    if game == "lq-2d":
        spec = _lq_2d_game()
        eq = solve_matching(spec, fp_config(10, 512), seed=0)
    else:
        spec = builtin_game(game)
        eq = cached_equilibrium(game, n_steps=10, n_paths=512)
    report = chaos_rate(spec, eq, N_list, repetitions=reps, seed=seed,
                        reference_factor=factor)
    args = (spec, eq, N_list, reps, seed, factor)
    *sliced, big = _direct_chaos_w2sq(*args, _sliced_w2sq)
    direct = sliced
    if game == "lq-bimodal":
        # in d = 1 chaos_rate reads the cells of the reference it drew,
        direct = _direct_chaos_w2sq(*args, _cells_w2sq)[:2]
        # which agree with direct sliced_w2 up to the cell kernel's bound
        eps = np.finfo(float).eps
        for got, ref in zip(direct, sliced):
            assert np.all(np.abs(got - ref)
                          <= 64 * eps * big * (np.sqrt(ref) + big * eps))
    # prefixes, streams, the half reference and the argmax are bitwise
    curves, bias = _chaos_curves(*direct)
    for i in range(spec.n_populations):
        assert report.knot_curves[i].tobytes() == curves[i].tobytes()
        assert report.bias_check[i].tobytes() == bias[i].tobytes()


def test_null_deviation_evaluates_feedback_once_per_step(monkeypatch):
    spec = builtin_game("lq-1pop")
    eq = cached_equilibrium("lq-1pop", n_steps=10, n_paths=512)
    rows = []

    def counted(*args, **kwargs):
        rows.append(len(args[3]))
        return minimize_controls(*args, **kwargs)

    # the shared feedback calls hamiltonian.minimize_controls
    monkeypatch.setattr(hamiltonian, "minimize_controls", counted)
    mask = np.zeros(64, dtype=bool)
    mask[0] = True
    dev_fn = nagent._deviation_fn(Deviation("null"), spec, 0, eq)
    simulate_interacting(spec, eq, 64, seed=0, deviating={0: (mask, dev_fn)})
    # one full-batch feedback evaluation per step, shared by the deviator
    assert rows == [64] * 10


def _seed_sequence_bundles(spec, i, n_steps, tags, seed, rep, dt):
    """Bundles drawn as one SeedSequence-seeded Philox per agent, the way
    _draw_bundles drew them before keys were derived in bulk."""
    pop = spec.populations[i]
    d = pop.state_dim
    xi = np.empty((len(tags), d))
    dW = np.empty((n_steps, len(tags), d))
    for idx, p in enumerate(tags):
        name = "nagent:rep:%d:pop:%d:agent:%d" % (rep, i, p)
        tag = int.from_bytes(hashlib.blake2b(name.encode("utf-8"),
                                             digest_size=8).digest(), "little")
        rng = np.random.Generator(np.random.Philox(
            seed=np.random.SeedSequence([seed & (2**64 - 1), tag])))
        xi[idx] = np.asarray(pop.initial_law(rng, 1), dtype=float).reshape(d)
        dW[:, idx, :] = rng.standard_normal((n_steps, d))
    return xi, dW * np.sqrt(dt)


@pytest.mark.parametrize("game", ["lq-bimodal", "lq-2pop-competitive"])
def test_draw_bundles_equal_per_agent_seed_sequences(game):
    # lq-bimodal's beta draws take a variable share of each agent's stream
    spec = builtin_game(game)
    grid = TimeGrid(spec.horizon, 12)
    shuffle = np.random.default_rng(4).permutation
    tags = [shuffle(300)[:97] for _ in range(spec.n_populations)]
    for seed, rep in [(0, 0), (2**64 - 1, 3), (-2, 17), (2**40 + 5, 1)]:
        xis, dWs = nagent._draw_bundles(spec, grid, tags, seed, rep)
        for i, pop_tags in enumerate(tags):
            xi, dW = _seed_sequence_bundles(spec, i, grid.n_steps, pop_tags,
                                            seed, rep, grid.dt)
            assert xis[i].tobytes() == xi.tobytes()
            assert dWs[i].tobytes() == dW.tobytes()


def test_chaos_rate_same_report_for_any_worker_count():
    spec = builtin_game("lq-bimodal")
    eq = cached_equilibrium("lq-bimodal", n_steps=10, n_paths=512)
    one = chaos_rate(spec, eq, (12, 40, 64), repetitions=4, seed=1,
                     workers=1)
    four = chaos_rate(spec, eq, (12, 40, 64), repetitions=4, seed=1,
                      workers=4)
    assert one.to_dict() == four.to_dict()
    assert one.knot_curves[0].tobytes() == four.knot_curves[0].tobytes()


def test_chaos_rate_draws_no_per_agent_bundles(monkeypatch):
    spec = builtin_game("lq-2pop-competitive")
    eq = cached_equilibrium("lq-2pop-competitive", n_steps=10, n_paths=512)

    def refuse(*args, **kwargs):
        raise AssertionError("chaos_rate drew per-agent bundles")

    monkeypatch.setattr(nagent, "_draw_bundles", refuse)
    report = chaos_rate(spec, eq, (8, 16, 32), repetitions=2, seed=0)
    assert len(report.estimates) == 2


@settings(max_examples=40, deadline=None)
@given(game=st.sampled_from(["lq-bimodal", "lq-2pop-competitive"]),
       small=st.integers(0, 40), extra=st.integers(1, 60),
       seed=st.integers(-(2**64), 2**65), rep=st.integers(0, 1000))
def test_iid_bundles_prefix_stable_for_any_sizes(game, small, extra, seed,
                                                 rep):
    # the N-agent system's bundles are the first N of any larger one's
    spec = builtin_game(game)
    grid = TimeGrid(spec.horizon, 10)
    m = spec.n_populations
    xa, dwa = nagent._draw_bundles(spec, grid, [range(small)] * m, seed, rep)
    xb, dwb = nagent._draw_bundles(spec, grid, [range(small + extra)] * m,
                                   seed, rep)
    for i in range(m):
        assert xa[i].tobytes() == xb[i][:small].tobytes()
        assert dwa[i].tobytes() == dwb[i][:, :small].tobytes()

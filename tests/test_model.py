import dataclasses
import os
import runpy

import numpy as np
import pytest

from mfglab.measures import ParticleCloud, TimeGrid
from mfglab.model import (
    COMPETITIVE,
    COOPERATIVE,
    ActionSet,
    CoefficientError,
    builtin_game,
    builtin_library,
    gaussian_initial_law,
    measure_args,
    split_crowd_initial_law,
)
from mfglab.rng import substream
from mfglab.validation import validate_game

ALL_BUILTINS = sorted(builtin_library())
MODELS = os.path.join(os.path.dirname(__file__), os.pardir, "mfgbench",
                      "models")


def test_builtin_library_contents():
    assert ALL_BUILTINS == [
        "lq-1pop",
        "lq-2pop-competitive",
        "lq-2pop-cooperative",
        "lq-bimodal",
        "lq-scalar",
        "mixed-opec",
        "nonlq-box",
    ]


def test_unknown_builtin_error_lists_choices():
    with pytest.raises(KeyError, match="lq-1pop"):
        builtin_game("no-such-model")


@pytest.mark.parametrize("name", ALL_BUILTINS + ["lq2d_mixed.py"])
def test_builtins_validate(name):
    if name.endswith(".py"):
        spec = runpy.run_path(os.path.join(MODELS, name))["make_game"]()
    else:
        spec = builtin_game(name)
    report = validate_game(spec, n_samples=50, seed=0)
    assert report.passed, [c.to_dict() for c in report.failures()]


def _user_projection(fn):
    return ActionSet(dimension=1, kind="user-projection", projection=fn)


def test_user_projection_applies_the_map():
    aset = _user_projection(lambda a: np.clip(a, -1.0, 1.0))
    alphas = np.array([[-3.0], [0.25], [2.0]])
    assert np.array_equal(aset.project(alphas), [[-1.0], [0.25], [1.0]])


def test_user_projection_that_changes_shape_is_refused():
    # keeps the one-row anchor check's shape, drops the column otherwise
    aset = _user_projection(lambda a: a if len(a) == 1 else a[:, 0])
    with pytest.raises(CoefficientError, match=r"user projection changed "
                       r"shape \(3, 1\) -> \(3,\)"):
        aset.project(np.zeros((3, 1)))


@pytest.mark.parametrize("fn, passed", [
    (lambda a: np.clip(a, -1.0, 1.0), True),
    (lambda a: 0.5 * a, False),  # not idempotent
])
def test_validate_probes_a_user_projection(fn, passed):
    spec = builtin_game("nonlq-box")
    pops = tuple(dataclasses.replace(p, action_set=_user_projection(fn))
                 for p in spec.populations)
    report = validate_game(dataclasses.replace(spec, populations=pops),
                           n_samples=50, seed=0)
    check, = [c for c in report.checks if c.name == "action-projection"]
    assert check.passed is passed
    assert report.passed is passed


def test_cooperation_kinds():
    assert builtin_game("lq-1pop").populations[0].cooperation == COMPETITIVE
    coop = builtin_game("lq-2pop-cooperative")
    assert all(p.cooperation == COOPERATIVE for p in coop.populations)
    mixed = builtin_game("mixed-opec")
    kinds = [p.cooperation for p in mixed.populations]
    assert kinds == [COOPERATIVE, COMPETITIVE]


def test_mixed_opec_flags():
    flags = builtin_game("mixed-opec").structural_flags
    assert not flags.cooperative_measure_free_intercepts
    assert flags.mixed_fringe_own_law_free_intercepts


def test_measure_args_orders_other_populations():
    spec = builtin_game("lq-2pop-competitive")
    clouds = [ParticleCloud(np.full((4, 1), float(i)))
              for i in range(spec.n_populations)]
    mu, nus = measure_args(spec, 1, clouds)
    assert mu is clouds[1]
    assert len(nus) == 1 and nus[0] is clouds[0]


def test_gaussian_initial_law_moments():
    law = gaussian_initial_law([2.0], 0.5)
    draws = np.asarray(law(substream(0, "test-gauss"), 200000))
    assert draws.shape == (200000, 1)
    assert draws.mean() == pytest.approx(2.0, abs=0.01)
    assert draws.std() == pytest.approx(0.5, abs=0.01)


def test_split_crowd_initial_law_shape():
    law = split_crowd_initial_law(0.8, 0.2)
    draws = np.asarray(law(substream(0, "test-split"), 100000))[:, 0]
    # two symmetric clusters separated by a hard gap
    assert np.all((np.abs(draws) >= 0.6) & (np.abs(draws) <= 1.0))
    share = np.mean(draws > 0)
    assert abs(share - 0.5) <= 5.0 / np.sqrt(len(draws))
    var = builtin_game("lq-bimodal").populations[0].initial_cov[0, 0]
    assert draws.var() == pytest.approx(var, rel=0.02)


def test_builtin_game_caches_instances():
    assert builtin_game("lq-1pop") is builtin_game("lq-1pop")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_non_finite_model_data_rejected_by_name(bad):
    spec = builtin_game("lq-scalar")
    with pytest.raises(ValueError, match="horizon must be positive"):
        dataclasses.replace(spec, horizon=bad)
    with pytest.raises(ValueError, match="horizon must be positive"):
        TimeGrid(bad, 10)
    for name in ("lipschitz_L", "convexity_lambda", "growth_K"):
        with pytest.raises(ValueError, match="%s must be" % name):
            dataclasses.replace(spec.constants, **{name: bad})


def test_lq_metadata_present_on_lq_builtins():
    for name in ALL_BUILTINS:
        spec = builtin_game(name)
        for pop in spec.populations:
            if name == "nonlq-box":
                assert pop.lq is None
            else:
                assert pop.lq is not None


# Every builtin's declared data, as literals: the LQ blocks list their
# nonzero entries, each other PopulationLq array must be zero (tuples empty).
_LQ_ZEROS = dict(A=0.0, A_bar=0.0, a=0.0, S=0.0, s=0.0, G=0.0, h=0.0,
                 C=(), S_bar=(), G_bar=())
_FLAGS_ALL = (True, True, True, True)
_DECLARED = {
    "lq-scalar": ((1.0, 0.5, 1.0), _FLAGS_ALL, [
        ("competitive", "agent", 0.0, 1.0,
         dict(B=1.0, sigma=1.0, R=1.0, W=1.0, Wg=0.5),
         [1.642101569671667, -1.8411006945615087, -0.9849262605258088,
          -0.27641116203633054, 0.03363106522743681]),
    ]),
    "lq-1pop": ((1.0, 0.5, 1.0), _FLAGS_ALL, [
        ("competitive", "crowd", 1.0, 0.25,
         dict(B=1.0, sigma=1.0, R=1.0, W=1.0, Wg=0.5, S=0.3),
         [1.8210507848358335, 0.07944965271924564, 0.5075368697370957,
          0.8617944189818347, 1.0168155326137185]),
    ]),
    "lq-bimodal": ((1.0, 0.5, 1.0), _FLAGS_ALL, [
        ("competitive", "split-crowd", 0.0, 0.6480000000000001,
         dict(B=1.0, sigma=0.4, R=1.0, W=1.0, Wg=0.5, S=0.3),
         [-0.9497720137905142, -0.7925038874226843, 0.6689749092379488,
          -0.7790257644206332, -0.658209099090299]),
    ]),
    "lq-2pop-competitive": ((1.0, 0.5, 1.0), _FLAGS_ALL, [
        ("competitive", "buyers", 1.0, 0.25,
         dict(B=1.0, sigma=1.0, R=1.0, W=1.0, Wg=0.5, S_bar=(0.25,)),
         [1.8210507848358335, 0.07944965271924564, 0.5075368697370957,
          0.8617944189818347, 1.0168155326137185]),
        ("competitive", "sellers", -1.0, 0.25,
         dict(B=1.0, sigma=1.0, R=1.0, W=1.0, Wg=0.5, S_bar=(0.35,)),
         [-0.1789492151641665, -1.9205503472807544, -1.4924631302629043,
          -1.1382055810181653, -0.9831844673862816]),
    ]),
    "lq-2pop-cooperative": ((1.0, 0.5, 1.0), _FLAGS_ALL, [
        ("cooperative", "fleet-a", 1.0, 0.25,
         dict(A=-0.2, A_bar=0.15, B=1.0, sigma=0.8, R=1.0, W=1.0, Wg=0.5,
              S=0.3, S_bar=(0.2,), G=0.25),
         [1.8210507848358335, 0.07944965271924564, 0.5075368697370957,
          0.8617944189818347, 1.0168155326137185]),
        ("cooperative", "fleet-b", -0.5, 0.25,
         dict(A=-0.2, A_bar=0.15, B=1.0, sigma=0.8, R=1.0, W=1.0, Wg=0.5,
              S=0.3, S_bar=(0.2,), G=0.25),
         [0.3210507848358335, -1.4205503472807544, -0.9924631302629043,
          -0.6382055810181653, -0.4831844673862816]),
    ]),
    "mixed-opec": ((1.0, 0.5, 1.0), (True, True, False, True), [
        ("cooperative", "cartel", 1.5, 0.16,
         dict(A=-0.2, A_bar=0.1, B=1.0, C=(0.1,), sigma=0.6, R=1.0, W=1.0,
              Wg=0.5, S=0.2, S_bar=(0.2,), G=0.2),
         [2.1568406278686667, 0.7635597221753965, 1.1060294957896764,
          1.3894355351854677, 1.5134524260909747]),
        ("competitive", "fringe", 0.5, 0.16,
         dict(B=1.0, sigma=0.8, R=1.0, W=1.0, Wg=0.5, S_bar=(0.3,)),
         [1.1568406278686667, -0.23644027782460353, 0.10602949578967646,
          0.3894355351854678, 0.5134524260909747]),
    ]),
    "nonlq-box": ((2.0, 0.5, 1.0), _FLAGS_ALL, [
        ("competitive", "bounded-effort", 0.0, 0.36, None,
         [0.9852609418030002, -1.1046604167369052, -0.5909557563154852,
          -0.16584669722179832, 0.020178639136462083]),
    ]),
}


def test_declared_data_covers_every_builtin():
    assert sorted(_DECLARED) == ALL_BUILTINS


@pytest.mark.parametrize("name", sorted(_DECLARED))
def test_builtin_declared_data_is_pinned(name):
    constants, flags, pops = _DECLARED[name]
    spec = builtin_game(name)
    assert spec.name == name
    assert spec.horizon == 1.0
    assert dataclasses.astuple(spec.constants) == constants
    assert dataclasses.astuple(spec.structural_flags) == flags
    assert len(spec.populations) == len(pops)
    for pop, (kind, label, mean, var, lq, draws) in zip(spec.populations,
                                                        pops):
        assert (pop.cooperation, pop.label) == (kind, label)
        assert pop.state_dim == 1 and pop.moment_order == 8.0
        assert np.array_equal(pop.initial_mean, [mean])
        assert np.array_equal(pop.initial_cov, [[var]])
        aset = pop.action_set
        if lq is None:
            assert pop.lq is None
            assert aset.kind == "box"
            assert np.array_equal(aset.lower, [-1.0])
            assert np.array_equal(aset.upper, [1.0])
        else:
            assert aset.kind == "full-space"
            assert aset.lower is None and aset.upper is None
            for field, want in {**_LQ_ZEROS, **lq}.items():
                got = getattr(pop.lq, field)
                if isinstance(want, tuple):
                    assert len(got) == len(want), field
                    for g, w in zip(got, want):
                        assert np.array_equal(g, [[w]]), field
                else:
                    shape = (1,) if field in ("a", "s", "h") else (1, 1)
                    assert got.shape == shape, field
                    assert np.array_equal(got, np.full(shape, want)), field
        sample = pop.initial_law(substream(0, "builtin-pin"), 5)
        assert np.array_equal(np.asarray(sample)[:, 0], draws)

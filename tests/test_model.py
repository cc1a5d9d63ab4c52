import dataclasses

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


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_builtins_validate(name):
    report = validate_game(builtin_game(name), n_samples=50, seed=0)
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

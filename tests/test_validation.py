"""The sampled check battery of mfglab.validation: its reports on the
shipped games, and one broken model per check."""

import dataclasses
import json
import os
import runpy

import numpy as np
import pytest

from mfglab.cli import main
from mfglab.model import (ActionSet, CoefficientError, ModelConstants,
                          builtin_game, builtin_library)
from mfglab.validation import validate_game

MODELS = os.path.join(os.path.dirname(__file__), os.pardir, "mfgbench",
                      "models")
SHIPPED = sorted(builtin_library()) + ["lq2d_mixed.py"]


def _shipped(name):
    if name.endswith(".py"):
        return runpy.run_path(os.path.join(MODELS, name))["make_game"]()
    return builtin_game(name)


# every check's detail on a passing report
DETAILS = {
    "coefficient-evaluation": "",
    "action-projection": "",
    "gradient-df-dx": "",
    "gradient-df-dalpha": "",
    "gradient-dg-dx": "",
    "gradient-measure": "",
    "convexity-lambda": "min convexity gap over sampled pairs",
    "slope-bounds": "largest slope norm at b2",
    "intercept-growth": "|intercept| relative to K + L * moment bound",
    "flag-cooperative-intercepts":
        "b0/s0 must not vary with the frozen measures",
    "flag-fringe-intercepts": "b0/s0 must not vary with the own law",
    "quadratic-consistency": "",
    "quadratic-curvature-floor":
        "control cost curvature must cover twice the convexity modulus",
    "initial-law-moments":
        "sampled mean/cov against declared values, 6 SE band",
}

# (name, population, worst, tolerance) of each check, in report order, at
# seed 0 and n_samples=50; every check passes and no note is written
VALIDATION_PINS = {
    "lq-1pop": [
        ("coefficient-evaluation", 0, 0.0, 0.0),
        ("action-projection", 0, 0.0, 1e-09),
        ("gradient-df-dx", 0, 5.295067614416326e-11, 1e-05),
        ("gradient-df-dalpha", 0, 3.190682760943068e-10, 1e-05),
        ("gradient-dg-dx", 0, 4.0505534307609217e-11, 1e-05),
        ("convexity-lambda", 0, -3.608224830031759e-15, 3.3836677422699205e-09),
        ("slope-bounds", 0, 1.0, 1.000000001),
        ("intercept-growth", 0, 0.5573696700218612, 1.000000001),
        ("flag-fringe-intercepts", 0, 0.0, 1e-12),
        ("quadratic-consistency", 0, 0.0, 1e-08),
        ("quadratic-curvature-floor", 0, 1.0, 0.999999999),
        ("initial-law-moments", 0, -0.03241027586079576, 0.0),
    ],
    "lq-2pop-competitive": [
        ("coefficient-evaluation", 0, 0.0, 0.0),
        ("action-projection", 0, 0.0, 1e-09),
        ("gradient-df-dx", 0, 4.660053970085786e-11, 1e-05),
        ("gradient-df-dalpha", 0, 3.286756279547371e-10, 1e-05),
        ("gradient-dg-dx", 0, 3.6809795772313527e-11, 1e-05),
        ("convexity-lambda", 0, -1.7763568394002505e-15, 3.1184972751004453e-09),
        ("slope-bounds", 0, 1.0, 1.000000001),
        ("intercept-growth", 0, 0.3702923336406012, 1.000000001),
        ("flag-fringe-intercepts", 0, 0.0, 1e-12),
        ("quadratic-consistency", 0, 0.0, 1e-08),
        ("quadratic-curvature-floor", 0, 1.0, 0.999999999),
        ("initial-law-moments", 0, -0.03241027586079576, 0.0),
        ("coefficient-evaluation", 1, 0.0, 0.0),
        ("action-projection", 1, 0.0, 1e-09),
        ("gradient-df-dx", 1, 8.455432053871113e-11, 1e-05),
        ("gradient-df-dalpha", 1, 6.604419840494674e-10, 1e-05),
        ("gradient-dg-dx", 1, 3.931410094820398e-11, 1e-05),
        ("convexity-lambda", 1, -1.7763568394002505e-15, 2.6765604282692054e-09),
        ("slope-bounds", 1, 1.0, 1.000000001),
        ("intercept-growth", 1, 0.3702923336406012, 1.000000001),
        ("flag-fringe-intercepts", 1, 0.0, 1e-12),
        ("quadratic-consistency", 1, 0.0, 1e-08),
        ("quadratic-curvature-floor", 1, 1.0, 0.999999999),
        ("initial-law-moments", 1, -0.016168901504110468, 0.0),
    ],
    "lq-2pop-cooperative": [
        ("coefficient-evaluation", 0, 0.0, 0.0),
        ("action-projection", 0, 0.0, 1e-09),
        ("gradient-df-dx", 0, 1.9911989171491248e-10, 1e-05),
        ("gradient-df-dalpha", 0, 9.115944959297166e-11, 1e-05),
        ("gradient-dg-dx", 0, 6.154625791305062e-11, 1e-05),
        ("gradient-measure", 0, 1.4655080187200565e-10, 1e-05),
        ("convexity-lambda", 0, -1.7763568394002505e-15, 3.309170939852824e-09),
        ("slope-bounds", 0, 1.0, 1.000000001),
        ("intercept-growth", 0, 0.42914182093554887, 1.000000001),
        ("flag-cooperative-intercepts", 0, 0.0, 1e-12),
        ("quadratic-consistency", 0, 0.0, 1e-08),
        ("quadratic-curvature-floor", 0, 1.0, 0.999999999),
        ("initial-law-moments", 0, -0.03241027586079576, 0.0),
        ("coefficient-evaluation", 1, 0.0, 0.0),
        ("action-projection", 1, 0.0, 1e-09),
        ("gradient-df-dx", 1, 5.871123618776382e-11, 1e-05),
        ("gradient-df-dalpha", 1, 2.7351641214531203e-10, 1e-05),
        ("gradient-dg-dx", 1, 3.415902194248452e-11, 1e-05),
        ("gradient-measure", 1, 9.002349604771625e-11, 1e-05),
        ("convexity-lambda", 1, -1.7763568394002505e-15, 2.7093234455642412e-09),
        ("slope-bounds", 1, 1.0, 1.000000001),
        ("intercept-growth", 1, 0.43563887240386284, 1.000000001),
        ("flag-cooperative-intercepts", 1, 0.0, 1e-12),
        ("quadratic-consistency", 1, 0.0, 1e-08),
        ("quadratic-curvature-floor", 1, 1.0, 0.999999999),
        ("initial-law-moments", 1, -0.016168901504110468, 0.0),
    ],
    "lq-bimodal": [
        ("coefficient-evaluation", 0, 0.0, 0.0),
        ("action-projection", 0, 0.0, 1e-09),
        ("gradient-df-dx", 0, 5.295067614416326e-11, 1e-05),
        ("gradient-df-dalpha", 0, 3.190682760943068e-10, 1e-05),
        ("gradient-dg-dx", 0, 4.0505534307609217e-11, 1e-05),
        ("convexity-lambda", 0, -3.608224830031759e-15, 3.3836677422699205e-09),
        ("slope-bounds", 0, 1.0, 1.000000001),
        ("intercept-growth", 0, 0.2229478680087445, 1.000000001),
        ("flag-fringe-intercepts", 0, 0.0, 1e-12),
        ("quadratic-consistency", 0, 0.0, 1e-08),
        ("quadratic-curvature-floor", 0, 1.0, 0.999999999),
        ("initial-law-moments", 0, -0.07219142544349162, 0.0),
    ],
    "lq-scalar": [
        ("coefficient-evaluation", 0, 0.0, 0.0),
        ("action-projection", 0, 0.0, 1e-09),
        ("gradient-df-dx", 0, 5.086073120062828e-11, 1e-05),
        ("gradient-df-dalpha", 0, 3.190682760943068e-10, 1e-05),
        ("gradient-dg-dx", 0, 4.0505534307609217e-11, 1e-05),
        ("convexity-lambda", 0, -1.7763568394002505e-15, 3.222609160513235e-09),
        ("slope-bounds", 0, 1.0, 1.000000001),
        ("intercept-growth", 0, 0.5573696700218612, 1.000000001),
        ("flag-fringe-intercepts", 0, 0.0, 1e-12),
        ("quadratic-consistency", 0, 0.0, 1e-08),
        ("quadratic-curvature-floor", 0, 1.0, 0.999999999),
        ("initial-law-moments", 0, -0.09161022178101463, 0.0),
    ],
    "mixed-opec": [
        ("coefficient-evaluation", 0, 0.0, 0.0),
        ("action-projection", 0, 0.0, 1e-09),
        ("gradient-df-dx", 0, 2.519998385787402e-10, 1e-05),
        ("gradient-df-dalpha", 0, 9.115944959297166e-11, 1e-05),
        ("gradient-dg-dx", 0, 6.781094462108038e-11, 1e-05),
        ("gradient-measure", 0, 6.369183739279152e-11, 1e-05),
        ("convexity-lambda", 0, -3.552713678800501e-15, 3.2555347385558293e-09),
        ("slope-bounds", 0, 1.0, 1.000000001),
        ("intercept-growth", 0, 0.3218563657016616, 1.000000001),
        ("quadratic-consistency", 0, 0.0, 1e-08),
        ("quadratic-curvature-floor", 0, 1.0, 0.999999999),
        ("initial-law-moments", 0, -0.02074257655126928, 0.0),
        ("coefficient-evaluation", 1, 0.0, 0.0),
        ("action-projection", 1, 0.0, 1e-09),
        ("gradient-df-dx", 1, 1.7557193462973235e-10, 1e-05),
        ("gradient-df-dalpha", 1, 2.7351641214531203e-10, 1e-05),
        ("gradient-dg-dx", 1, 4.037493526950139e-11, 1e-05),
        ("convexity-lambda", 1, -1.7763568394002505e-15, 2.6501457361489437e-09),
        ("slope-bounds", 1, 1.0, 1.000000001),
        ("intercept-growth", 1, 0.296233866912481, 1.000000001),
        ("flag-fringe-intercepts", 1, 0.0, 1e-12),
        ("quadratic-consistency", 1, 0.0, 1e-08),
        ("quadratic-curvature-floor", 1, 1.0, 0.999999999),
        ("initial-law-moments", 1, -0.010348096962990676, 0.0),
    ],
    "nonlq-box": [
        ("coefficient-evaluation", 0, 0.0, 0.0),
        ("action-projection", 0, 0.0, 1e-09),
        ("gradient-df-dx", 0, 4.815051127395461e-11, 1e-05),
        ("gradient-df-dalpha", 0, 3.9104598194566646e-10, 1e-05),
        ("gradient-dg-dx", 0, 4.0505534307609217e-11, 1e-05),
        ("convexity-lambda", 0, 0.0, 3.220830416646971e-09),
        ("slope-bounds", 0, 0.5, 2.000000001),
        ("intercept-growth", 0, 0.27044958150936366, 1.000000001),
        ("flag-fringe-intercepts", 0, 0.0, 1e-12),
        ("initial-law-moments", 0, -0.04667079723910598, 0.0),
    ],
    "lq2d_mixed.py": [
        ("coefficient-evaluation", 0, 0.0, 0.0),
        ("action-projection", 0, 0.0, 1e-09),
        ("gradient-df-dx", 0, 9.126054205669071e-11, 1e-05),
        ("gradient-df-dalpha", 0, 2.3574340844650936e-10, 1e-05),
        ("gradient-dg-dx", 0, 6.010402712806172e-11, 1e-05),
        ("convexity-lambda", 0, -3.552713678800501e-15, 3.0300991883346886e-09),
        ("slope-bounds", 0, 1.0, 1.000000001),
        ("intercept-growth", 0, 0.22169032398228625, 1.000000001),
        ("flag-fringe-intercepts", 0, 0.0, 1e-12),
        ("quadratic-consistency", 0, 0.0, 1e-08),
        ("quadratic-curvature-floor", 0, 1.0, 0.999999999),
        ("initial-law-moments", 0, -0.018365127992644403, 0.0),
        ("coefficient-evaluation", 1, 0.0, 0.0),
        ("action-projection", 1, 0.0, 1e-09),
        ("gradient-df-dx", 1, 1.4919657120881446e-10, 1e-05),
        ("gradient-df-dalpha", 1, 3.0241949212700766e-10, 1e-05),
        ("gradient-dg-dx", 1, 6.607458125032053e-11, 1e-05),
        ("gradient-measure", 1, 2.375324141582906e-10, 1e-05),
        ("convexity-lambda", 1, -3.552713678800501e-15, 3.5621630634796895e-09),
        ("slope-bounds", 1, 1.0, 1.000000001),
        ("intercept-growth", 1, 0.356717506336015, 1.000000001),
        ("flag-cooperative-intercepts", 1, 0.0, 1e-12),
        ("quadratic-consistency", 1, 0.0, 1e-08),
        ("quadratic-curvature-floor", 1, 1.0, 0.999999999),
        ("initial-law-moments", 1, -0.01892240745054468, 0.0),
    ],
}


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_reports_are_pinned(name):
    report = validate_game(_shipped(name), n_samples=50, seed=0)
    assert report.notes == []
    got = [(c.name, c.population) for c in report.checks]
    assert got == [pin[:2] for pin in VALIDATION_PINS[name]]
    for check, (_, _, worst, tol) in zip(report.checks, VALIDATION_PINS[name]):
        assert check.passed is True
        assert check.detail == DETAILS[check.name]
        np.testing.assert_allclose([check.worst, check.tolerance],
                                   [worst, tol], rtol=1e-12, atol=0.0)


def _edit(spec, i=0, part=None, **fields):
    """spec with population i's fields replaced; with part (drift,
    diffusion, cost), the fields of that part."""
    pop = spec.populations[i]
    if part is not None:
        fields = {part: dataclasses.replace(getattr(pop, part), **fields)}
    pops = list(spec.populations)
    pops[i] = dataclasses.replace(pop, **fields)
    return dataclasses.replace(spec, populations=tuple(pops))


def _scaled(fn, c):
    return lambda *args: c * fn(*args)


def _const(value):
    return lambda *args: np.array(value, dtype=float)


def _shifted_b0(name, i, shift):
    """name's population i with shift(mu, nus) added to its drift
    intercept."""
    b0 = builtin_game(name).populations[i].drift.b0
    return _edit(builtin_game(name), i, "drift",
                 b0=lambda t, mu, nus: b0(t, mu, nus) + shift(mu, nus))


def _nonconvex_box():
    # cosh(a) - 0.2 a^2 has curvature down to 0.6, below 2 lambda = 1
    cost = builtin_game("nonlq-box").populations[0].cost
    return _edit(builtin_game("nonlq-box"), 0, "cost",
                 f=lambda t, x, mu, nus, a: (cost.f(t, x, mu, nus, a)
                                             - 0.2 * a[:, 0] ** 2),
                 df_dalpha=lambda t, x, mu, nus, a: (
                     cost.df_dalpha(t, x, mu, nus, a) - 0.4 * a))


def _lq1(**fields):
    return _edit(builtin_game("lq-1pop"), 0, **fields)


def _coop(part, **fields):
    return _edit(builtin_game("lq-2pop-cooperative"), 0, part, **fields)


_LQ1 = builtin_game("lq-1pop").populations[0]
_COOP = builtin_game("lq-2pop-cooperative").populations[0]

# one broken property per game: the checks its population must fail, the
# targeted one first; every other check of the report passes
BREAKAGES = {
    "misshapen-b0": (
        lambda: _lq1(part="drift", b0=_const([0.0, 0.0])),
        ["coefficient-evaluation"]),
    "expansive-projection": (
        lambda: _edit(builtin_game("nonlq-box"), action_set=ActionSet(
            dimension=1, kind="user-projection",
            projection=lambda a: 0.5 * a)),
        ["action-projection"]),
    "wrong-df_dx": (
        lambda: _lq1(part="cost", df_dx=_scaled(_LQ1.cost.df_dx, 1.1)),
        ["gradient-df-dx"]),
    # the convexity gap and the declared quadratic form read df_dalpha too
    "wrong-df_dalpha": (
        lambda: _lq1(part="cost", df_dalpha=_scaled(_LQ1.cost.df_dalpha, 1.1)),
        ["gradient-df-dalpha", "convexity-lambda", "quadratic-consistency"]),
    "wrong-dg_dx": (
        lambda: _lq1(part="cost", dg_dx=_scaled(_LQ1.cost.dg_dx, 1.1)),
        ["gradient-dg-dx"]),
    "wrong-df_dmu": (
        lambda: _coop("cost", df_dmu=_scaled(_COOP.cost.df_dmu, 1.5)),
        ["gradient-measure"]),
    "not-lambda-convex": (_nonconvex_box, ["convexity-lambda"]),
    "b1-above-L": (
        lambda: _lq1(part="drift", b1=_const([[2.0]])), ["slope-bounds"]),
    "s1-above-L": (
        lambda: _lq1(part="diffusion", s1=_const([[[2.0]]])),
        ["slope-bounds"]),
    "s1_bar-above-L": (
        lambda: _coop("diffusion", s1_bar=_const([[[2.0]]])),
        ["slope-bounds"]),
    "b0-above-growth": (
        lambda: _lq1(part="drift", b0=_const([100.0])),
        ["intercept-growth"]),
    "cooperative-intercept-reads-others": (
        lambda: _shifted_b0("lq-2pop-cooperative", 0,
                            lambda mu, nus: 0.5 * nus[0].mean),
        ["flag-cooperative-intercepts"]),
    "fringe-intercept-reads-own-law": (
        lambda: _shifted_b0("lq-1pop", 0, lambda mu, nus: 0.5 * mu.mean),
        ["flag-fringe-intercepts"]),
    "quad_linear-off-df_dalpha": (
        lambda: _lq1(part="cost", quad_linear=lambda t, x, mu, nus: np.ones(
            (len(x), 1))),
        ["quadratic-consistency"]),
    # R = 1 below 2 lambda = 1.2: f is only 0.5-convex
    "R-below-2-lambda": (
        lambda: dataclasses.replace(builtin_game("lq-1pop"),
                                    constants=ModelConstants(1.0, 0.6, 1.0)),
        ["quadratic-curvature-floor", "convexity-lambda"]),
    "wrong-initial-mean": (
        lambda: _lq1(initial_mean=[1.5]), ["initial-law-moments"]),
}


@pytest.mark.parametrize("case", sorted(BREAKAGES))
def test_each_check_fires_on_its_broken_model(case):
    build, failing = BREAKAGES[case]
    report = validate_game(build(), n_samples=50, seed=0)
    got = sorted((c.name, c.population) for c in report.failures())
    assert got == sorted((name, 0) for name in failing)
    assert report.notes == []
    if failing == ["slope-bounds"]:
        check, = report.failures()
        assert check.detail == "largest slope norm at " + case.split("-")[0]


def test_low_moment_order_writes_the_note():
    report = validate_game(_lq1(moment_order=4.0), n_samples=50, seed=0)
    assert report.passed
    assert report.notes == [
        "population 0 declares moment order 4 <= 4; the propagation-of-"
        "chaos rate premise needs more than 4"]


_RAISING_F_MODEL = """
import dataclasses

from mfglab.model import builtin_game


def make_game():
    spec = builtin_game("lq-1pop")
    pop = spec.populations[0]
    f = pop.cost.f

    def flaky(t, x, mu, nus, alpha):
        # passes the three-row shape check, fails on larger batches
        if len(x) > 3:
            raise ValueError("boom")
        return f(t, x, mu, nus, alpha)

    pop = dataclasses.replace(pop, cost=dataclasses.replace(pop.cost, f=flaky))
    return dataclasses.replace(spec, populations=(pop,))
"""

_ZERO_BOUND_MODEL = """
import dataclasses

from mfglab.model import ModelConstants, builtin_game


def make_game():
    return dataclasses.replace(builtin_game("lq-scalar"),
                               constants=ModelConstants(0.0, 0.5, 0.0))
"""


def _validate_cli(tmp_path, model_text):
    model = tmp_path / "model.py"
    model.write_text(model_text)
    cfg = tmp_path / "v.yaml"
    cfg.write_text("model: %s\nseed: 0\noutput_dir: %s\nexperiment:\n"
                   "  kind: validate\n  n_samples: 50\n"
                   % (model, tmp_path / "out"))
    return main(["validate", "--config", str(cfg)])


def test_a_coefficient_that_raises_in_the_battery_is_named(tmp_path, capsys):
    assert _validate_cli(tmp_path, _RAISING_F_MODEL) == 1
    err = capsys.readouterr().err
    assert err == "run failed: f of population 0 failed: boom\n"


def test_a_projection_that_raises_in_the_battery_is_named():
    spec = builtin_game("nonlq-box")
    box = spec.populations[0].action_set

    def flaky(alphas):
        # passes the anchor and shape checks, fails on larger batches
        if len(alphas) > 3:
            raise ValueError("boom")
        return np.clip(alphas, box.lower, box.upper)

    bad = _edit(spec, action_set=ActionSet(
        dimension=box.dimension, kind="user-projection", projection=flaky))
    with pytest.raises(CoefficientError,
                       match=r"^project of population 0 failed: boom$"):
        validate_game(bad, n_samples=50, seed=0)


def _refuse_constant(name):
    raise ValueError("non-standard JSON constant %s" % name)


def test_zero_growth_bound_reads_the_intercept_norm(tmp_path):
    # K = L = 0: b0 = 0 and s0 = 1 against a zero bound, b2 = 1 above L
    assert _validate_cli(tmp_path, _ZERO_BOUND_MODEL) == 1
    text = (tmp_path / "out" / "report.json").read_text()
    report = json.loads(text, parse_constant=_refuse_constant)
    failed = {c["name"]: c for c in report["checks"] if not c["passed"]}
    assert sorted(failed) == ["intercept-growth", "slope-bounds"]
    growth = failed["intercept-growth"]
    assert (growth["worst"], growth["tolerance"]) == (1.0, 1e-9)
    assert growth["detail"] == "|intercept| under a zero K + L * moment bound"

    # a zero intercept meets a zero bound
    spec = runpy.run_path(str(tmp_path / "model.py"))["make_game"]()
    quiet = _edit(spec, 0, "diffusion", s0=_const([[0.0]]))
    check, = [c for c in validate_game(quiet, n_samples=50, seed=0).checks
              if c.name == "intercept-growth"]
    assert check.passed and check.worst == 0.0

import glob
import json
import os
import runpy

import pytest
import yaml

from mfglab.cli import load_config, main
from mfglab.model import builtin_game, builtin_library
from mfglab.validation import check_coefficient_shapes

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
MODELS = os.path.join(os.path.dirname(__file__), os.pardir, "mfgbench",
                      "models")


def _write(path, text):
    path.write_text(text)
    return str(path)


def _base_config(out_dir, extra=""):
    return (
        "model: lq-1pop\n"
        "seed: 0\n"
        "output_dir: %s\n"
        "solver:\n"
        "  n_steps: 10\n"
        "  n_paths: 256\n"
        % out_dir
    ) + extra


def test_validate_passes_on_builtin(tmp_path, capsys):
    cfg = _write(tmp_path / "v.yaml",
                 "model: lq-scalar\nseed: 0\noutput_dir: %s\n"
                 "experiment:\n  kind: validate\n  n_samples: 50\n"
                 % (tmp_path / "out"))
    assert main(["validate", "--config", cfg]) == 0
    text = capsys.readouterr().out
    assert "PASS" in text
    assert "FAIL" not in text
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] is True


def test_solve_writes_outputs(tmp_path):
    out = tmp_path / "out"
    cfg = _write(tmp_path / "s.yaml", _base_config(out))
    assert main(["solve", "--config", cfg]) == 0
    for name in ("resolved_config.yaml", "report.json", "history.csv",
                 "costs.json", "flows_pop0.csv"):
        assert (out / name).exists(), name
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True
    assert report["n_paths"] == 256


def test_solve_nonconverged_exit_and_override(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write(tmp_path / "s.yaml", _base_config(
        out, "fixed_point:\n  max_iterations: 2\n"))
    code = main(["solve", "--config", cfg, "--fp-tol", "1e-9"])
    assert code == 1
    capsys.readouterr()
    code = main(["solve", "--config", cfg, "--fp-tol", "1e-9",
                 "--allow-nonconverged"])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is False
    assert report["fp_tol"] == 1e-9


def test_unknown_field_pinpointed(tmp_path, capsys):
    for extra, where in (
        ("experiment:\n  kind: solve\n  n_stepz: 3\n", "experiment.n_stepz"),
        ("fixed_point:\n  mix: paired\n", "fixed_point.mix"),
        ("fixed_point:\n  n_projections: 64\n", "fixed_point.n_projections"),
    ):
        cfg = _write(tmp_path / "bad.yaml",
                     _base_config(tmp_path / "out", extra))
        assert main(["solve", "--config", cfg]) == 2
        assert "%s: unknown field" % where in capsys.readouterr().err


def test_yaml_syntax_error_reported_with_position(tmp_path, capsys):
    cfg = _write(tmp_path / "bad.yaml", "model: [lq-1pop\n")
    assert main(["solve", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_unknown_builtin_lists_choices(tmp_path, capsys):
    cfg = _write(tmp_path / "bad.yaml",
                 "model: lq-nonexistent\noutput_dir: %s\n" % (tmp_path / "o"))
    assert main(["solve", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "lq-scalar" in err and "mixed-opec" in err


def test_experiment_kind_must_match_command(tmp_path, capsys):
    cfg = _write(tmp_path / "c.yaml", _base_config(
        tmp_path / "out", "experiment:\n  kind: chaos\n"))
    assert main(["solve", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "kind" in err


def test_missing_output_dir_rejected(tmp_path, capsys):
    cfg = _write(tmp_path / "c.yaml", "model: lq-scalar\n")
    assert main(["validate", "--config", cfg]) == 2
    assert "output_dir" in capsys.readouterr().err


def test_user_model_file_loaded(tmp_path):
    model = _write(tmp_path / "mymodel.py", (
        "from mfglab.model import builtin_game\n"
        "def make_game():\n"
        "    return builtin_game('lq-scalar')\n"
    ))
    out = tmp_path / "out"
    cfg = _write(tmp_path / "c.yaml",
                 "model: %s\nseed: 0\noutput_dir: %s\n"
                 "solver:\n  n_steps: 10\n  n_paths: 256\n" % (model, out))
    assert main(["solve", "--config", cfg]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["spec_name"] == "lq-scalar"


@pytest.mark.parametrize("horizon", ["-1.0", "float('nan')"])
def test_failing_user_model_is_a_config_error(tmp_path, capsys, horizon):
    model = _write(tmp_path / "badmodel.py", (
        "import dataclasses\n"
        "from mfglab.model import builtin_game\n"
        "def make_game():\n"
        "    return dataclasses.replace(builtin_game('lq-scalar'),\n"
        "                               horizon=%s)\n" % horizon
    ))
    out = tmp_path / "out"
    cfg = _write(tmp_path / "c.yaml",
                 "model: %s\nseed: 0\noutput_dir: %s\n" % (model, out))
    assert main(["solve", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert ("model: make_game() in %r failed: horizon must be positive"
            % model) in err
    assert not out.exists()


def test_user_model_that_raises_on_import_is_a_config_error(tmp_path, capsys):
    model = _write(tmp_path / "badmodel.py",
                   "raise RuntimeError('boom at import')\n")
    out = tmp_path / "out"
    cfg = _write(tmp_path / "c.yaml",
                 "model: %s\nseed: 0\noutput_dir: %s\n" % (model, out))
    assert main(["solve", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "model: importing %r failed: boom at import" % model in err
    assert "Traceback" not in err
    assert not out.exists()


_BAD_B0_MODEL = """
import dataclasses

import numpy as np

from mfglab import (COMPETITIVE, GameSpec, ModelConstants, PopulationLq,
                    gaussian_initial_law, population_from_lq)


def make_game():
    eye = np.eye(2)
    lq = PopulationLq(A=-0.2 * eye, B=eye, sigma=0.5 * eye, R=eye, W=eye,
                      Wg=0.5 * eye, S=0.3 * eye)
    pop = population_from_lq(lq, COMPETITIVE,
                             gaussian_initial_law([1.0, -0.5], 0.5),
                             None, None)
    # b0 must return shape (2,); numpy broadcasts (1,) in the drift
    drift = dataclasses.replace(pop.drift,
                                b0=lambda t, mu, nus: np.array([0.1]))
    return GameSpec(populations=(dataclasses.replace(pop, drift=drift),),
                    horizon=1.0, constants=ModelConstants(1.0, 0.5, 1.0),
                    name="bad-b0")
"""

_SMALL_EXPERIMENTS = {
    "solve": "",
    "chaos": "  sizes: [8, 16, 32]\n  repetitions: 2\n",
    "nash": "  sizes: [8, 16, 32]\n  repetitions: 1\n",
    "truncation-study": "  levels: [1.0]\n",
}


@pytest.mark.parametrize("command", sorted(_SMALL_EXPERIMENTS))
def test_misshapen_coefficient_stops_run_before_output(tmp_path, capsys,
                                                       command):
    model = _write(tmp_path / "bad_b0.py", _BAD_B0_MODEL)
    out = tmp_path / "out"
    cfg = _write(tmp_path / "c.yaml",
                 "model: %s\nseed: 0\noutput_dir: %s\n"
                 "solver:\n  n_steps: 10\n  n_paths: 256\n"
                 "experiment:\n  kind: %s\n%s"
                 % (model, out, command, _SMALL_EXPERIMENTS[command]))
    assert main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "b0 of population 0 returned shape (1,), expected (2,)" in err
    assert not out.exists()


def test_validate_reports_misshapen_coefficient(tmp_path):
    model = _write(tmp_path / "bad_b0.py", _BAD_B0_MODEL)
    out = tmp_path / "out"
    cfg = _write(tmp_path / "v.yaml",
                 "model: %s\nseed: 0\noutput_dir: %s\n"
                 "experiment:\n  kind: validate\n  n_samples: 20\n"
                 % (model, out))
    assert main(["validate", "--config", cfg]) == 1
    report = json.loads((out / "report.json").read_text())
    check = report["checks"][0]
    assert check["name"] == "coefficient-evaluation"
    assert check["passed"] is False
    assert check["worst"] == 1.0
    assert check["detail"] == "bad output shapes: b0"


_BAD_DF_DMU_MODEL = """
import dataclasses

from mfglab import (COOPERATIVE, GameSpec, ModelConstants, PopulationLq,
                    gaussian_initial_law, population_from_lq)


def make_game():
    lq = PopulationLq(A=[[-0.2]], A_bar=[[0.1]], B=[[1.0]], sigma=[[0.5]],
                      R=[[1.0]], W=[[1.0]], Wg=[[0.5]], S=[[0.3]])
    pop = population_from_lq(lq, COOPERATIVE, gaussian_initial_law([1.0], 0.5),
                             None, None)
    # df_dmu must return (n, nv, d) or (n, 1, d); this one drops the middle axis
    df_dmu = pop.cost.df_dmu
    cost = dataclasses.replace(
        pop.cost,
        df_dmu=lambda t, x, mu, nus, alpha, v: df_dmu(t, x, mu, nus, alpha,
                                                       v)[:, 0, :])
    return GameSpec(populations=(dataclasses.replace(pop, cost=cost),),
                    horizon=1.0, constants=ModelConstants(1.0, 0.5, 1.0),
                    name="bad-df-dmu")
"""


@pytest.mark.parametrize("command", sorted(_SMALL_EXPERIMENTS))
def test_misshapen_measure_derivative_stops_run_before_output(tmp_path, capsys,
                                                             command):
    model = _write(tmp_path / "bad_df_dmu.py", _BAD_DF_DMU_MODEL)
    out = tmp_path / "out"
    cfg = _write(tmp_path / "c.yaml",
                 "model: %s\nseed: 0\noutput_dir: %s\n"
                 "solver:\n  n_steps: 10\n  n_paths: 256\n"
                 "experiment:\n  kind: %s\n%s"
                 % (model, out, command, _SMALL_EXPERIMENTS[command]))
    assert main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert ("df_dmu of population 0 returned shape (3, 1), expected "
            "(3, 3, 1) or (3, 1, 1)") in err
    assert not out.exists()


def test_validate_reports_misshapen_measure_derivative(tmp_path):
    model = _write(tmp_path / "bad_df_dmu.py", _BAD_DF_DMU_MODEL)
    out = tmp_path / "out"
    cfg = _write(tmp_path / "v.yaml",
                 "model: %s\nseed: 0\noutput_dir: %s\n"
                 "experiment:\n  kind: validate\n  n_samples: 20\n"
                 % (model, out))
    assert main(["validate", "--config", cfg]) == 1
    report = json.loads((out / "report.json").read_text())
    check = report["checks"][0]
    assert check["name"] == "coefficient-evaluation"
    assert check["passed"] is False
    assert check["detail"] == "bad output shapes: df_dmu"


@pytest.mark.parametrize("model", sorted(builtin_library()) + ["lq2d_mixed.py"])
def test_shipped_models_pass_the_shape_check(model):
    if model.endswith(".py"):
        spec = runpy.run_path(os.path.join(MODELS, model))["make_game"]()
    else:
        spec = builtin_game(model)
    check_coefficient_shapes(spec)


def test_chaos_requires_three_distinct_sizes(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write(tmp_path / "c.yaml", _base_config(
        out,
        "experiment:\n  kind: chaos\n  sizes: [16, 16, 32]\n"
        "  repetitions: 2\n"))
    assert main(["chaos", "--config", cfg]) == 2
    assert "fit refused" in capsys.readouterr().err
    assert not out.exists()


def test_nash_requires_three_distinct_sizes(tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("nash solved before refusing its sizes")

    monkeypatch.setattr("mfglab.cli.solve_matching", no_solve)
    out = tmp_path / "out"
    cfg = _write(tmp_path / "c.yaml", _base_config(
        out,
        "experiment:\n  kind: nash\n  sizes: [8, 8, 16]\n"
        "  repetitions: 2\n"))
    assert main(["nash", "--config", cfg]) == 2
    assert "fewer than 3" in capsys.readouterr().err
    assert not out.exists()


def test_nash_mode_precondition_exit_code(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write(tmp_path / "c.yaml", _base_config(
        out,
        "experiment:\n  kind: nash\n  mode: cooperative-population\n"
        "  sizes: [6, 8, 10]\n  repetitions: 2\n"))
    assert main(["nash", "--config", cfg]) == 1
    assert "mode precondition failed" in capsys.readouterr().err
    assert not out.exists()


def test_nash_records_the_population_it_deviated(tmp_path):
    out = tmp_path / "out"
    cfg = _write(tmp_path / "c.yaml",
                 "model: mixed-opec\nseed: 0\noutput_dir: %s\n"
                 "solver:\n  n_steps: 10\n  n_paths: 256\n"
                 "experiment:\n  kind: nash\n  mode: mixed-setup2\n"
                 "  sizes: [6, 8, 10]\n  repetitions: 2\n" % out)
    assert main(["nash", "--config", cfg]) == 0
    resolved = yaml.safe_load((out / "resolved_config.yaml").read_text())
    report = json.loads((out / "report.json").read_text())
    assert report["population"] == 1
    assert resolved["experiment"]["population"] == report["population"]


@pytest.mark.parametrize("population", [-1, 2, 7])
def test_nash_population_out_of_range_rejected(tmp_path, capsys, population):
    out = tmp_path / "out"
    cfg = _write(tmp_path / "c.yaml",
                 "model: lq-2pop-competitive\noutput_dir: %s\n"
                 "experiment:\n  kind: nash\n  population: %d\n"
                 % (out, population))
    assert main(["nash", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: experiment.population: ")
    assert "[0, 2)" in err
    assert not out.exists()


def test_deviation_value_rules(tmp_path, capsys):
    cfg = _write(tmp_path / "c.yaml", _base_config(
        tmp_path / "out",
        "experiment:\n  kind: nash\n  sizes: [6, 8, 10]\n"
        "  repetitions: 2\n"
        "  deviations:\n    - kind: shift\n"))
    assert main(["nash", "--config", cfg]) == 2
    assert "value" in capsys.readouterr().err
    cfg2 = _write(tmp_path / "c2.yaml", _base_config(
        tmp_path / "out",
        "experiment:\n  kind: nash\n  sizes: [6, 8, 10]\n"
        "  repetitions: 2\n"
        "  deviations:\n    - kind: anchor\n      value: 0.5\n"))
    assert main(["nash", "--config", cfg2]) == 2
    assert "value" in capsys.readouterr().err
    cfg3 = _write(tmp_path / "c3.yaml", _base_config(
        tmp_path / "out",
        "experiment:\n  kind: nash\n  sizes: [6, 8, 10]\n"
        "  repetitions: 2\n"
        "  deviations:\n    - kind: shift\n      value: .inf\n"))
    assert main(["nash", "--config", cfg3]) == 2
    assert ("deviations[0].value: expected a finite number, got inf"
            in capsys.readouterr().err)


def test_truncation_bad_level_rejected(tmp_path, capsys):
    cfg = _write(tmp_path / "c.yaml", _base_config(
        tmp_path / "out",
        "experiment:\n  kind: truncation-study\n  levels: [1.0, -2.0]\n"))
    assert main(["truncation-study", "--config", cfg]) == 2
    assert "levels" in capsys.readouterr().err
    cfg = _write(tmp_path / "c.yaml", _base_config(
        tmp_path / "out",
        "experiment:\n  kind: truncation-study\n  levels: [1.0, .inf]\n"))
    assert main(["truncation-study", "--config", cfg]) == 2
    assert "levels[1]: expected a finite number, got inf" in (
        capsys.readouterr().err)
    cfg = _write(tmp_path / "c.yaml", _base_config(
        tmp_path / "out",
        "experiment:\n  kind: truncation-study\n  levels: [1.0, 1%s]\n"
        % ("0" * 400)))
    assert main(["truncation-study", "--config", cfg]) == 2
    assert "levels[1]: expected a finite number, got inf" in (
        capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_a_repeated_truncation_level_is_run_once(tmp_path, capsys):
    outputs = []
    for name, levels in (("twice", "[0.5, 0.5]"), ("once", "[0.5]")):
        out = tmp_path / name
        cfg = _write(tmp_path / "c.yaml", _base_config(
            out, "experiment:\n  kind: truncation-study\n  levels: %s\n"
            % levels))
        assert main(["truncation-study", "--config", cfg]) == 0
        resolved = yaml.safe_load((out / "resolved_config.yaml").read_text())
        assert str(resolved["experiment"]["levels"]) == levels
        outputs.append([(out / file).read_bytes() for file in
                        ("report.json", "truncation.csv", "history.csv")]
                       + [capsys.readouterr().out])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("extra,flags", [
    ("solver:\n  n_steps: 10\n  picard_tol: .nan\n", []),
    ("solver:\n  n_steps: 10\n  damping: .nan\n", []),
    ("fixed_point:\n  fp_tol: .nan\n", []),
    ("fixed_point:\n  theta: .nan\n", []),
    ("", ["--fp-tol", "nan"]),
    ("solver:\n  n_steps: 10\n  picard_tol: .inf\n", []),
    ("fixed_point:\n  fp_tol: .inf\n", []),
    ("", ["--fp-tol", "inf"]),
    ("solver:\n  n_steps: 10\n  picard_tol: 1%s\n" % ("0" * 400), []),
], ids=["picard_tol", "damping", "fp_tol", "theta", "--fp-tol",
        "picard_tol-inf", "fp_tol-inf", "--fp-tol-inf", "picard_tol-huge-int"])
def test_nan_settings_rejected(tmp_path, capsys, extra, flags):
    out = tmp_path / "out"
    cfg = _write(tmp_path / "c.yaml",
                 "model: lq-1pop\noutput_dir: %s\n%s" % (out, extra))
    assert main(["solve", "--config", cfg] + flags) == 2
    err = capsys.readouterr().err
    # an int too large for a float reads as inf
    bad = "nan" if "nan" in extra + "".join(flags) else "inf"
    assert err.startswith("config error: ") and bad in err
    assert "expected a finite number" in err
    assert not out.exists()


@pytest.mark.parametrize("block,field,value", [
    ("solver", "n_steps", 0),
    ("solver", "n_paths", 1),
    ("solver", "degree", 4),
    ("solver", "picard_tol", 0.0),
    ("solver", "max_picard", 0),
    ("solver", "damping", 1.5),
    ("fixed_point", "fp_tol", -1.0e-3),
    ("fixed_point", "max_iterations", 0),
    ("fixed_point", "theta", 0.0),
    ("solver", "n_paths", 10 ** 30),
    ("solver", "max_picard", 2 ** 63),
])
def test_out_of_range_setting_names_its_field(tmp_path, capsys, block, field,
                                              value):
    out = tmp_path / "out"
    cfg = _write(tmp_path / "c.yaml",
                 "model: lq-1pop\noutput_dir: %s\n%s:\n  %s: %r\n"
                 % (out, block, field, value))
    assert main(["solve", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: %s.%s: " % (block, field))
    assert not out.exists()


_HUGE = "1" + "0" * 30


# (command, experiment lines, field): each rule of the experiment block, the
# studies' own and the command line's, and an integer too large for numpy
@pytest.mark.parametrize("command, body, field", [
    ("chaos", "  sizes: [1, 8, 16]\n", "sizes"),
    ("chaos", "  sizes: [8, 8, 16]\n", "sizes"),
    ("chaos", "  repetitions: 1\n", "repetitions"),
    ("chaos", "  reference_factor: 8\n", "reference_factor"),
    ("chaos", "  repetitions: %s\n" % _HUGE, "repetitions"),
    ("chaos", "  sizes: [8, 16, %s]\n" % _HUGE, "sizes[2]"),
    ("nash", "  mode: sideways\n", "mode"),
    ("nash", "  population: 1\n", "population"),
    ("nash", "  population: %s\n" % _HUGE, "population"),
    ("nash", "  repetitions: 0\n", "repetitions"),
    ("nash", "  sizes: [8, 8, 16]\n", "sizes"),
    ("nash", "  sizes: [1, 8, 16]\n", "sizes[0]"),
    ("nash", "  deviations:\n    - {kind: teleport}\n", "deviations[0].kind"),
    ("nash", "  deviations:\n    - {kind: anchor, value: 0.3}\n",
     "deviations[0].value"),
    ("nash", "  deviations:\n    - {kind: shift}\n", "deviations[0].value"),
    ("nash", "  deviations:\n    - {kind: shift, value: 0.1}\n"
     "    - {kind: shift, value: 0.1000001}\n", "deviations"),
    ("truncation-study", "  levels: [1.0, -2.0]\n", "levels[1]"),
    ("truncation-study", "  levels: [0]\n", "levels[0]"),
    ("validate", "  n_samples: %s\n" % _HUGE, "n_samples"),
], ids=["chaos-size-1", "chaos-2-sizes", "chaos-repetitions",
        "chaos-reference", "chaos-huge-repetitions", "chaos-huge-size",
        "nash-mode", "nash-population", "nash-huge-population",
        "nash-repetitions", "nash-2-sizes", "nash-size-1", "deviation-kind",
        "anchor-value", "shift-without-value", "colliding-deviations",
        "negative-level", "zero-level", "validate-huge-n_samples"])
def test_experiment_rule_is_a_config_error(tmp_path, capsys, command, body,
                                           field):
    out = tmp_path / "out"
    cfg = _write(tmp_path / "c.yaml", _base_config(
        out, "experiment:\n  kind: %s\n%s" % (command, body)))
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: experiment.%s: " % field), err
    assert not out.exists()


def test_shipped_configs_load():
    paths = sorted(glob.glob(os.path.join(CONFIGS, "*.yaml")))
    assert paths
    for path in paths:
        with open(path) as fh:
            kind = (yaml.safe_load(fh).get("experiment") or {}).get(
                "kind", "solve")
        assert load_config(path, kind)["experiment"]["kind"] == kind, path


def test_workers_flag_validated(tmp_path, capsys):
    cfg = _write(tmp_path / "c.yaml", _base_config(tmp_path / "out"))
    assert main(["solve", "--config", cfg, "--workers", "0"]) == 2
    assert "--workers" in capsys.readouterr().err


def test_seed_override_changes_outputs(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cfg_a = _write(tmp_path / "a.yaml", _base_config(out_a))
    cfg_b = _write(tmp_path / "b.yaml", _base_config(out_b))
    assert main(["solve", "--config", cfg_a]) == 0
    assert main(["solve", "--config", cfg_b, "--seed", "7"]) == 0
    flows_a = (out_a / "flows_pop0.csv").read_bytes()
    flows_b = (out_b / "flows_pop0.csv").read_bytes()
    assert flows_a != flows_b
    resolved = (out_b / "resolved_config.yaml").read_text()
    assert "seed: 7" in resolved


def test_identical_runs_are_byte_identical(tmp_path):
    outs = []
    for tag in ("r1", "r2"):
        out = tmp_path / tag
        cfg = _write(tmp_path / ("%s.yaml" % tag), _base_config(out))
        assert main(["solve", "--config", cfg, "--workers",
                     "1" if tag == "r1" else "4"]) == 0
        outs.append(out)
    for name in ("report.json", "history.csv", "costs.json",
                 "flows_pop0.csv"):
        a = (outs[0] / name).read_bytes()
        b = (outs[1] / name).read_bytes()
        assert a == b, name

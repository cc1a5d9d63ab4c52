"""Command-line front end: configure, run, and dump experiment pipelines.

Every run is driven by a YAML config (schema below) plus a few override
flags. All outputs are plain CSV/JSON/YAML with no timestamps, so a rerun
with the same config, seed, and any worker count is byte-identical.

Config schema (all blocks optional unless noted):

    model: lq-1pop            # required: builtin key, or path to a .py
                              # file defining make_game() -> game spec
    seed: 0                   # master seed, unsigned 64-bit
    output_dir: out/run1      # where files go (--out overrides)
    solver:                   # regression FBSDE solver knobs
      n_steps: 50
      n_paths: 4096
      degree: 2
      picard_tol: 1.0e-3
      max_picard: 50
      damping: 0.5
    fixed_point:              # measure-flow iteration knobs
      fp_tol: 1.0e-3
      max_iterations: 50
      theta: 0.5
      mix: paired             # or resample
      n_projections: 64
    experiment:               # parameters of the chosen subcommand
      kind: solve             # must match the subcommand when present
      ...                     # see the per-command field lists below
"""

import argparse
import dataclasses
import importlib.util
import json
import os
import sys

import yaml

from .fbsde import SolverConfig
from .fixedpoint import (
    FixedPointConfig,
    solve_matching,
    truncated_solve,
    write_history_csv,
)
from .measures import flow_distance, flow_to_csv
from .model import builtin_game, builtin_library
from .nagent import (
    ALL_MODES,
    DEVIATION_KINDS,
    MODE_COMPETITIVE,
    Deviation,
    StructuralFlagError,
    chaos_rate,
    chaos_to_csv,
    nash_gap,
    nash_to_csv,
)
from .validation import check_coefficient_shapes, validate_game


class ConfigError(Exception):
    """Schema problem in a config file; message carries the field path."""


def _type_name(value):
    return type(value).__name__


def _as_map(value, path):
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError("%s: expected a mapping, got %s" % (path, _type_name(value)))
    return dict(value)


def _reject_unknown(block, path, known):
    for key in block:
        if key not in known:
            raise ConfigError(
                "%s.%s: unknown field (known fields: %s)"
                % (path, key, ", ".join(sorted(known)))
            )


def _pick_int(block, path, key, default, low=None, high=None):
    value = block.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(
            "%s.%s: expected an integer, got %s" % (path, key, _type_name(value))
        )
    if low is not None and value < low:
        raise ConfigError("%s.%s: must be >= %d, got %d" % (path, key, low, value))
    if high is not None and value > high:
        raise ConfigError("%s.%s: must be <= %d, got %d" % (path, key, high, value))
    return value


def _check_float(value, where, low=None, low_open=None, high=None):
    """value as a float, range-checked. NaN is rejected first, since every
    comparison with it is false."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(
            "%s: expected a number, got %s" % (where, _type_name(value))
        )
    value = float(value)
    if value != value:
        raise ConfigError("%s: expected a number, got nan" % where)
    if low is not None and value < low:
        raise ConfigError("%s: must be >= %g, got %g" % (where, low, value))
    if low_open is not None and value <= low_open:
        raise ConfigError("%s: must be > %g, got %g" % (where, low_open, value))
    if high is not None and value > high:
        raise ConfigError("%s: must be <= %g, got %g" % (where, high, value))
    return value


def _pick_float(block, path, key, default, **bounds):
    return _check_float(block.get(key, default), "%s.%s" % (path, key),
                        **bounds)


def _pick_bool(block, path, key, default):
    value = block.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(
            "%s.%s: expected true/false, got %s" % (path, key, _type_name(value))
        )
    return value


def _pick_choice(block, path, key, default, choices):
    value = block.get(key, default)
    if value not in choices:
        raise ConfigError(
            "%s.%s: expected one of %s, got %r"
            % (path, key, ", ".join(choices), value)
        )
    return value


def _pick_int_list(block, path, key, default, low=1):
    value = block.get(key, None)
    if value is None:
        return list(default)
    if not isinstance(value, list) or not value:
        raise ConfigError(
            "%s.%s: expected a non-empty list of integers" % (path, key)
        )
    out = []
    for j, item in enumerate(value):
        if isinstance(item, bool) or not isinstance(item, int):
            raise ConfigError(
                "%s.%s[%d]: expected an integer, got %s"
                % (path, key, j, _type_name(item))
            )
        if item < low:
            raise ConfigError("%s.%s[%d]: must be >= %d" % (path, key, j, low))
        out.append(item)
    return out


def _load_model(ref):
    if not isinstance(ref, str) or not ref:
        raise ConfigError("model: expected a builtin key or a .py path")
    if ref.endswith(".py"):
        if not os.path.exists(ref):
            raise ConfigError("model: file %r does not exist" % ref)
        spec = importlib.util.spec_from_file_location("mfglab_user_model", ref)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        if not hasattr(module, "make_game"):
            raise ConfigError("model: %r defines no make_game()" % ref)
        game = module.make_game()
        if not hasattr(game, "populations"):
            raise ConfigError("model: make_game() in %r returned %s, not a game spec"
                              % (ref, _type_name(game)))
        return game
    try:
        return builtin_game(ref)
    except KeyError:
        raise ConfigError(
            "model: unknown builtin %r (available: %s; or pass a .py path)"
            % (ref, ", ".join(sorted(builtin_library())))
        )


# How each field of the solver and fixed_point blocks is read and
# range-checked; the defaults come from SolverConfig and FixedPointConfig.
_FIELD_CHECKS = {
    "n_steps": (_pick_int, {"low": 1}),
    "n_paths": (_pick_int, {"low": 2}),
    "degree": (_pick_int, {"low": 1, "high": 3}),
    "picard_tol": (_pick_float, {"low_open": 0.0}),
    "max_picard": (_pick_int, {"low": 1}),
    "damping": (_pick_float, {"low_open": 0.0, "high": 1.0}),
    "fp_tol": (_pick_float, {"low_open": 0.0}),
    "max_iterations": (_pick_int, {"low": 1}),
    "theta": (_pick_float, {"low_open": 0.0, "high": 1.0}),
    "mix": (_pick_choice, {"choices": ("paired", "resample")}),
    "n_projections": (_pick_int, {"low": 1}),
}


def _config_fields(config):
    """The YAML-facing fields of a config dataclass, in declaration order."""
    return [f.name for f in dataclasses.fields(config)
            if f.name in _FIELD_CHECKS]


def _config_from(block, path, defaults):
    """defaults with the fields that the block sets, each range-checked."""
    names = _config_fields(defaults)
    _reject_unknown(block, path, names)
    picked = {}
    for name in names:
        pick, bounds = _FIELD_CHECKS[name]
        picked[name] = pick(block, path, name, getattr(defaults, name),
                            **bounds)
    return dataclasses.replace(defaults, **picked)


def _deviations_from(block, path):
    value = block.get("deviations", None)
    if value is None:
        return None
    if not isinstance(value, list) or not value:
        raise ConfigError("%s.deviations: expected a non-empty list" % path)
    out = []
    for j, item in enumerate(value):
        here = "%s.deviations[%d]" % (path, j)
        item = _as_map(item, here)
        _reject_unknown(item, here, {"kind", "value"})
        kind = _pick_choice(item, here, "kind", None, DEVIATION_KINDS)
        if kind in ("shift", "best-response"):
            if "value" not in item:
                raise ConfigError("%s.value: required for %s deviations"
                                  % (here, kind))
            val = _pick_float(item, here, "value", None)
            out.append(Deviation(kind, float(val)))
        else:
            if "value" in item:
                raise ConfigError("%s.value: %s deviations take no value" % (here, kind))
            out.append(Deviation(kind, 0.0))
    return out


def _experiment_from(block, command):
    path = "experiment"
    kind = block.get("kind", command)
    if kind != command:
        raise ConfigError(
            "%s.kind: config says %r but the subcommand is %r" % (path, kind, command)
        )
    fields = {"kind"}
    out = {"kind": command}
    if command == "validate":
        fields |= {"n_samples"}
        out["n_samples"] = _pick_int(block, path, "n_samples", 100, low=1)
    elif command == "solve":
        pass
    elif command == "chaos":
        fields |= {"sizes", "repetitions", "reference_factor"}
        out["sizes"] = _pick_int_list(block, path, "sizes", (64, 256, 1024, 4096), low=2)
        out["repetitions"] = _pick_int(block, path, "repetitions", 32, low=2)
        out["reference_factor"] = _pick_int(block, path, "reference_factor", 16, low=16)
    elif command == "nash":
        fields |= {"sizes", "repetitions", "mode", "population", "deviations",
                   "open_loop", "best_response_tilt"}
        out["sizes"] = _pick_int_list(block, path, "sizes", (64, 256, 1024), low=2)
        out["repetitions"] = _pick_int(block, path, "repetitions", 8, low=1)
        out["mode"] = _pick_choice(block, path, "mode", MODE_COMPETITIVE, ALL_MODES)
        pop = block.get("population", None)
        if pop is not None and (isinstance(pop, bool) or not isinstance(pop, int)):
            raise ConfigError("%s.population: expected an integer population index"
                              % path)
        out["population"] = pop
        out["deviations"] = _deviations_from(block, path)
        out["open_loop"] = _pick_bool(block, path, "open_loop", False)
        out["best_response_tilt"] = _pick_float(
            block, path, "best_response_tilt", 0.3)
    elif command == "truncation-study":
        fields |= {"levels"}
        value = block.get("levels", None)
        if not isinstance(value, list) or not value:
            raise ConfigError("%s.levels: expected a non-empty list of positive "
                              "truncation levels" % path)
        out["levels"] = [
            _check_float(item, "%s.levels[%d]" % (path, j), low_open=0.0)
            for j, item in enumerate(value)
        ]
    _reject_unknown(block, path, fields)
    return out


def load_config(path, command, seed_override=None, out_override=None,
                fp_tol_override=None):
    """Parse and validate a YAML config; returns the run plan.

    Raises ConfigError with a field-path (or line/column) diagnostic on
    any problem, before any computation starts.
    """
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as err:
        raise ConfigError("cannot read config %r: %s" % (path, err))
    except yaml.YAMLError as err:
        mark = getattr(err, "problem_mark", None)
        if mark is not None:
            raise ConfigError(
                "config parse error at line %d, column %d: %s"
                % (mark.line + 1, mark.column + 1,
                   getattr(err, "problem", "invalid YAML"))
            )
        raise ConfigError("config parse error: %s" % err)
    raw = _as_map(raw, "config")
    _reject_unknown(raw, "config", {
        "model", "seed", "output_dir", "solver", "fixed_point", "experiment",
    })
    if "model" not in raw:
        raise ConfigError("model: required field is missing")
    model_ref = raw["model"]
    game = _load_model(model_ref)

    seed = raw.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError("seed: expected an unsigned integer")
    if not 0 <= seed < 2 ** 64:
        raise ConfigError("seed: must fit in unsigned 64 bits")
    if seed_override is not None:
        seed = seed_override

    out_dir = raw.get("output_dir", None)
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError("output_dir: expected a string path")
    if out_override is not None:
        out_dir = out_override
    if not out_dir:
        raise ConfigError("output_dir: set it in the config or pass --out")

    solver = _config_from(_as_map(raw.get("solver"), "solver"), "solver",
                          SolverConfig())
    fixed_point = _config_from(
        _as_map(raw.get("fixed_point"), "fixed_point"), "fixed_point",
        FixedPointConfig(solver=solver))
    if fp_tol_override is not None:
        fixed_point = dataclasses.replace(fixed_point, fp_tol=_check_float(
            fp_tol_override, "--fp-tol", **_FIELD_CHECKS["fp_tol"][1]))
    experiment = _experiment_from(
        _as_map(raw.get("experiment"), "experiment"), command)
    return {
        "model_ref": model_ref,
        "game": game,
        "seed": seed,
        "output_dir": out_dir,
        "solver": solver,
        "fixed_point": fixed_point,
        "experiment": experiment,
    }


def _resolved_dict(plan):
    exp = dict(plan["experiment"])
    if exp.get("deviations") is not None:
        exp["deviations"] = [
            {"kind": dev.kind, "value": dev.value} for dev in exp["deviations"]
        ]
    return {
        "model": plan["model_ref"],
        "seed": plan["seed"],
        "output_dir": plan["output_dir"],
        "solver": {name: getattr(plan["solver"], name)
                   for name in _config_fields(plan["solver"])},
        "fixed_point": {name: getattr(plan["fixed_point"], name)
                        for name in _config_fields(plan["fixed_point"])},
        "experiment": exp,
    }


def _write_resolved(plan):
    os.makedirs(plan["output_dir"], exist_ok=True)
    target = os.path.join(plan["output_dir"], "resolved_config.yaml")
    with open(target, "w", newline="\n") as fh:
        yaml.safe_dump(_resolved_dict(plan), fh, sort_keys=False,
                       default_flow_style=False)


def _write_json(plan, name, payload):
    target = os.path.join(plan["output_dir"], name)
    with open(target, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _dump_equilibrium(plan, report):
    out = plan["output_dir"]
    _write_json(plan, "report.json", report.to_dict())
    write_history_csv(report, os.path.join(out, "history.csv"))
    _write_json(plan, "costs.json", {
        "spec_name": report.spec_name,
        "converged": report.converged,
        "costs": [
            {"population": i, "mean": c[0], "se": c[1]}
            for i, c in enumerate(report.costs)
        ],
    })
    for i, flow in enumerate(report.flows):
        flow_to_csv(flow, os.path.join(out, "flows_pop%d.csv" % i))


def cmd_validate(plan, workers):
    report = validate_game(plan["game"], n_samples=plan["experiment"]["n_samples"],
                           seed=plan["seed"])
    _write_resolved(plan)
    _write_json(plan, "report.json", report.to_dict())
    for check in report.checks:
        print("%s: %s" % (check.name, "PASS" if check.passed else "FAIL"))
    print("validation %s (%d checks)" % (
        "passed" if report.passed else "FAILED", len(report.checks)))
    return 0 if report.passed else 1


def cmd_solve(plan, workers, allow_nonconverged):
    _write_resolved(plan)
    report = solve_matching(plan["game"], plan["fixed_point"],
                            seed=plan["seed"], workers=workers)
    _dump_equilibrium(plan, report)
    print("converged=%s iterations=%d final_delta=%.3e" % (
        report.converged, report.iterations,
        report.history[-1].delta if report.history else float("nan")))
    if report.converged or allow_nonconverged:
        return 0
    return 1


def cmd_chaos(plan, workers):
    _write_resolved(plan)
    exp = plan["experiment"]
    equilibrium = solve_matching(plan["game"], plan["fixed_point"],
                                 seed=plan["seed"], workers=workers)
    report = chaos_rate(plan["game"], equilibrium, exp["sizes"],
                        repetitions=exp["repetitions"], seed=plan["seed"],
                        reference_factor=exp["reference_factor"],
                        workers=workers)
    out = plan["output_dir"]
    chaos_to_csv(report, os.path.join(out, "chaos.csv"))
    _write_json(plan, "report.json", report.to_dict())
    for i, slope in enumerate(report.slopes):
        print("population %d: slope=%.4f r_squared=%.4f" % (
            i, slope, report.r_squared[i]))
    return 0


def cmd_nash(plan, workers):
    _write_resolved(plan)
    exp = plan["experiment"]
    equilibrium = solve_matching(plan["game"], plan["fixed_point"],
                                 seed=plan["seed"], workers=workers)
    report = nash_gap(plan["game"], equilibrium, exp["sizes"],
                      deviations=exp["deviations"],
                      repetitions=exp["repetitions"], seed=plan["seed"],
                      mode=exp["mode"], population=exp["population"],
                      open_loop=exp["open_loop"],
                      best_response_tilt=exp["best_response_tilt"],
                      workers=workers)
    out = plan["output_dir"]
    nash_to_csv(report, os.path.join(out, "nash.csv"))
    _write_json(plan, "report.json", report.to_dict())
    for n in report.N_list:
        print("N=%d: min_gain=%.5g kappa=%.5g floor=%.5g" % (
            n, report.min_gain(n), report.kappa_by_N[n],
            report.kappa_floor_by_N[n]))
    if len(set(report.N_list)) < 3:
        print("fewer than 3 system sizes: rate fits are not meaningful",
              file=sys.stderr)
        return 1
    return 0


def cmd_truncation_study(plan, workers, allow_nonconverged):
    _write_resolved(plan)
    out = plan["output_dir"]
    baseline = solve_matching(plan["game"], plan["fixed_point"],
                              seed=plan["seed"], workers=workers)
    write_history_csv(baseline, os.path.join(out, "history.csv"))
    rows = ["level,population,flow_distance,binding_knots,bound_particles,"
            "iterations,converged"]
    runs = []
    all_converged = baseline.converged
    for level in plan["experiment"]["levels"]:
        report = truncated_solve(plan["game"], level, plan["fixed_point"],
                                 seed=plan["seed"], workers=workers)
        runs.append(report)
        all_converged = all_converged and report.converged
        for i, flow in enumerate(report.flows):
            dist = flow_distance(flow, baseline.flows[i],
                                 n_projections=plan["fixed_point"].n_projections)
            binding = report.truncation_binding[i]
            rows.append("%.17g,%d,%.17g,%d,%d,%d,%s" % (
                level, i, dist, len(binding), sum(binding.values()),
                report.iterations, str(report.converged).lower()))
    with open(os.path.join(out, "truncation.csv"), "w", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")
    _write_json(plan, "report.json", {
        "baseline": baseline.to_dict(),
        "levels": [run.to_dict() for run in runs],
    })
    for line in rows[1:]:
        print(line)
    if all_converged or allow_nonconverged:
        return 0
    return 1


def _seed_type(text):
    value = int(text)
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must fit in unsigned 64 bits")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mfglab",
        description="Mean-field game and control experiments from YAML configs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("validate", "audit a model against the standing assumptions"),
        ("solve", "run the measure-flow fixed point to equilibrium"),
        ("chaos", "empirical propagation-of-chaos rate study"),
        ("nash", "finite-system deviation gains and Nash floor"),
        ("truncation-study", "equilibria under truncated measure arguments"),
    ]
    for name, help_text in specs:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="YAML config path")
        cmd.add_argument("--seed", type=_seed_type, default=None,
                         help="override the config's master seed")
        cmd.add_argument("--workers", type=int, default=1,
                         help="worker cap (does not affect results)")
        cmd.add_argument("--out", default=None,
                         help="override the config's output_dir")
        if name in ("solve", "truncation-study"):
            cmd.add_argument("--allow-nonconverged", action="store_true",
                             help="exit 0 even when the iteration hit its cap")
            cmd.add_argument("--fp-tol", type=float, default=None,
                             help="override fixed_point.fp_tol")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        plan = load_config(
            args.config, args.command,
            seed_override=args.seed,
            out_override=args.out,
            fp_tol_override=getattr(args, "fp_tol", None),
        )
    except ConfigError as err:
        print("config error: %s" % err, file=sys.stderr)
        return 2
    if args.workers < 1:
        print("config error: --workers must be >= 1", file=sys.stderr)
        return 2
    try:
        if args.command == "validate":
            return cmd_validate(plan, args.workers)
        # misshapen coefficients would broadcast silently in the solver
        check_coefficient_shapes(plan["game"])
        if args.command == "solve":
            return cmd_solve(plan, args.workers, args.allow_nonconverged)
        if args.command == "chaos":
            return cmd_chaos(plan, args.workers)
        if args.command == "nash":
            return cmd_nash(plan, args.workers)
        return cmd_truncation_study(plan, args.workers, args.allow_nonconverged)
    except StructuralFlagError as err:
        print("mode precondition failed: %s" % err, file=sys.stderr)
        return 1
    except (RuntimeError, ValueError) as err:
        print("run failed: %s" % err, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

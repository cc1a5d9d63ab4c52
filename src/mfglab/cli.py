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
    experiment:               # parameters of the chosen subcommand
      kind: solve             # must match the subcommand when present
      ...                     # that subcommand's fields (README)

The loader reads YAML types. The ranges are the config classes' and each
study's own argument checks'; their field-led ValueError is a config error
(exit 2), but a nash mode precondition is a run failure (exit 1).
"""

import argparse
import contextlib
import dataclasses
import importlib.util
import json
import math
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
from .measures import (csv_line, flow_distance, flow_to_csv, jsonable,
                       truncation_level, write_csv)
from .model import builtin_game, builtin_library
from .nagent import (
    MODE_COMPETITIVE,
    Deviation,
    StructuralFlagError,
    chaos_rate,
    chaos_sizes,
    chaos_to_csv,
    nash_arguments,
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


def _check_int(value, where, low=None):
    """value as an int that numpy can index with, at least low if given."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError("%s: expected an integer, got %s"
                          % (where, _type_name(value)))
    if not -2 ** 63 <= value < 2 ** 63:
        raise ConfigError("%s: must fit in signed 64 bits" % where)
    if low is not None and value < low:
        raise ConfigError("%s: must be >= %d, got %d" % (where, low, value))
    return value


def _check_float(value, where):
    """value as a finite float; an int too large for one reads as inf."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(
            "%s: expected a number, got %s" % (where, _type_name(value))
        )
    try:
        value = float(value)
    except OverflowError:  # an int too large for a float
        value = math.inf if value > 0 else -math.inf
    if not math.isfinite(value):
        raise ConfigError("%s: expected a finite number, got %s"
                          % (where, value))
    return value


def _check_bool(value, where):
    if not isinstance(value, bool):
        raise ConfigError("%s: expected true/false, got %s"
                          % (where, _type_name(value)))
    return value


def _pick(block, path, key, read, default=None):
    """read(the block's value at key, or default, and its field path)."""
    return read(block.get(key, default), "%s.%s" % (path, key))


def _pick_list(block, path, key, read, default=None):
    """[read(item, its path)] of the block's non-empty list at key, or
    default when the key is unset; with no default the key is required."""
    value = block.get(key)
    if value is None and default is not None:
        return list(default)
    if not isinstance(value, list) or not value:
        raise ConfigError("%s.%s: expected a non-empty list" % (path, key))
    return [read(item, "%s.%s[%d]" % (path, key, j))
            for j, item in enumerate(value)]


def _load_model(ref):
    if not isinstance(ref, str) or not ref:
        raise ConfigError("model: expected a builtin key or a .py path")
    if ref.endswith(".py"):
        if not os.path.exists(ref):
            raise ConfigError("model: file %r does not exist" % ref)
        spec = importlib.util.spec_from_file_location("mfglab_user_model", ref)
        module = importlib.util.module_from_spec(spec)
        try:
            spec.loader.exec_module(module)
        except Exception as exc:
            raise ConfigError("model: importing %r failed: %s"
                              % (ref, exc)) from exc
        if not hasattr(module, "make_game"):
            raise ConfigError("model: %r defines no make_game()" % ref)
        try:
            game = module.make_game()
        except Exception as exc:
            raise ConfigError("model: make_game() in %r failed: %s"
                              % (ref, exc)) from exc
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


def _config_fields(config):
    """The YAML-facing fields of a config dataclass, its int and float
    ones, in declaration order."""
    return [f for f in dataclasses.fields(config) if f.type in (int, float)]


def _owned(path, rule, *args, **kwargs):
    """rule(*args, **kwargs), its field-led ValueError a config error at
    path; a mode precondition (StructuralFlagError) is not one."""
    try:
        return rule(*args, **kwargs)
    except StructuralFlagError:
        raise
    except ValueError as err:
        raise ConfigError("%s.%s" % (path, err)) from err


def _config_from(block, path, defaults):
    """defaults with the fields that the block sets. Types are checked
    here, ranges by the config class."""
    fields = _config_fields(defaults)
    _reject_unknown(block, path, [f.name for f in fields])
    picked = {}
    for f in fields:
        read = _check_int if f.type is int else _check_float
        picked[f.name] = _pick(block, path, f.name, read,
                               getattr(defaults, f.name))
    return _owned(path, dataclasses.replace, defaults, **picked)


def _deviation(item, where):
    item = _as_map(item, where)
    _reject_unknown(item, where, {"kind", "value"})
    kind = item.get("kind")
    if kind in ("shift", "best-response") and "value" not in item:
        raise ConfigError("%s.value: required for %s deviations"
                          % (where, kind))
    return _owned(where, Deviation, kind,
                  _pick(item, where, "value", _check_float, 0.0))


def _level(item, where):
    block, name = where.rsplit(".", 1)  # experiment, levels[j]
    return _owned(block, truncation_level, _check_float(item, where), name)


def _experiment_from(block, command, game):
    """The experiment block, read as YAML types; the study owns its ranges."""
    path = "experiment"
    kind = block.get("kind", command)
    if kind != command:
        raise ConfigError(
            "%s.kind: config says %r but the subcommand is %r" % (path, kind, command)
        )
    out = {"kind": command}
    if command == "validate":
        out["n_samples"] = _pick(block, path, "n_samples", lambda value, where:
                                 _check_int(value, where, 1), 100)
    elif command == "chaos":
        out["sizes"] = _pick_list(block, path, "sizes", _check_int,
                                  (64, 256, 1024, 4096))
        out["repetitions"] = _pick(block, path, "repetitions", _check_int, 32)
        out["reference_factor"] = _pick(block, path, "reference_factor",
                                        _check_int, 16)
        _owned(path, chaos_sizes, out["sizes"], out["reference_factor"],
               out["repetitions"])
    elif command == "nash":
        out["sizes"] = _pick_list(block, path, "sizes", lambda item, where:
                                  _check_int(item, where, 2), (64, 256, 1024))
        if len(set(out["sizes"])) < 3:
            raise ConfigError("%s.sizes: fewer than 3 system sizes: rate fits "
                              "are not meaningful" % path)
        out["repetitions"] = _pick(block, path, "repetitions", _check_int, 8)
        out["mode"] = block.get("mode", MODE_COMPETITIVE)
        out["population"] = (None if block.get("population") is None else
                             _pick(block, path, "population", _check_int))
        out["deviations"] = (None if block.get("deviations") is None else
                             _pick_list(block, path, "deviations", _deviation))
        out["open_loop"] = _pick(block, path, "open_loop", _check_bool, False)
    elif command == "truncation-study":
        out["levels"] = _pick_list(block, path, "levels", _level)
    _reject_unknown(block, path, out)  # out holds every field read
    if command == "nash":
        # a mode precondition fails the run in cmd_nash, after the shapes
        with contextlib.suppress(StructuralFlagError):
            _owned(path, nash_arguments, game, out["deviations"],
                   out["repetitions"], out["mode"], out["population"])
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
    if _seed_error(seed):
        raise ConfigError("seed: " + _seed_error(seed))
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
    fp_block = _as_map(raw.get("fixed_point"), "fixed_point")
    if fp_tol_override is not None:
        fp_block["fp_tol"] = fp_tol_override
    fixed_point = _config_from(fp_block, "fixed_point",
                               FixedPointConfig(solver=solver))
    experiment = _experiment_from(
        _as_map(raw.get("experiment"), "experiment"), command, game)
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
    out = {"model": plan["model_ref"], "seed": plan["seed"],
           "output_dir": plan["output_dir"]}
    for block in ("solver", "fixed_point"):
        out[block] = {f.name: getattr(plan[block], f.name)
                      for f in _config_fields(plan[block])}
    out["experiment"] = jsonable(plan["experiment"])
    return out


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
        "costs": [dict(c._asdict(), population=i)
                  for i, c in enumerate(report.costs)],
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
    exp = plan["experiment"]
    _write_resolved(plan)
    equilibrium = solve_matching(plan["game"], plan["fixed_point"],
                                 seed=plan["seed"], workers=workers)
    report = chaos_rate(plan["game"], equilibrium, exp["sizes"],
                        repetitions=exp["repetitions"], seed=plan["seed"],
                        reference_factor=exp["reference_factor"],
                        workers=workers)
    chaos_to_csv(report, os.path.join(plan["output_dir"], "chaos.csv"))
    _write_json(plan, "report.json", report.to_dict())
    for i, slope in enumerate(report.slopes):
        print("population %d: slope=%.4f r_squared=%.4f" % (
            i, slope, report.r_squared[i]))
    return 0


def cmd_nash(plan, workers):
    exp = plan["experiment"]
    # record the population deviated, also when the mode picks it
    exp["population"] = nash_arguments(
        plan["game"], exp["deviations"], exp["repetitions"], exp["mode"],
        exp["population"])[0]
    _write_resolved(plan)
    equilibrium = solve_matching(plan["game"], plan["fixed_point"],
                                 seed=plan["seed"], workers=workers)
    report = nash_gap(plan["game"], equilibrium, exp["sizes"],
                      deviations=exp["deviations"],
                      repetitions=exp["repetitions"], seed=plan["seed"],
                      mode=exp["mode"], population=exp["population"],
                      open_loop=exp["open_loop"], workers=workers)
    nash_to_csv(report, os.path.join(plan["output_dir"], "nash.csv"))
    _write_json(plan, "report.json", report.to_dict())
    for n in report.N_list:
        print("N=%d: min_gain=%.5g kappa=%.5g floor=%.5g" % (
            n, report.min_gain(n), report.kappa_by_N[n],
            report.kappa_floor_by_N[n]))
    return 0


def cmd_truncation_study(plan, workers, allow_nonconverged):
    _write_resolved(plan)
    out = plan["output_dir"]
    baseline = solve_matching(plan["game"], plan["fixed_point"],
                              seed=plan["seed"], workers=workers)
    write_history_csv(baseline, os.path.join(out, "history.csv"))
    rows = []
    runs = []
    all_converged = baseline.converged
    # a repeated level is run once; resolved_config.yaml keeps the list
    for level in dict.fromkeys(plan["experiment"]["levels"]):
        report = truncated_solve(plan["game"], level, plan["fixed_point"],
                                 seed=plan["seed"], workers=workers)
        runs.append(report)
        all_converged = all_converged and report.converged
        for i, flow in enumerate(report.flows):
            dist = flow_distance(flow, baseline.flows[i])
            binding = report.truncation_binding[i]
            rows.append([level, i, dist, len(binding), sum(binding.values()),
                         report.iterations, report.converged])
    write_csv(os.path.join(out, "truncation.csv"), [
        "level", "population", "flow_distance", "binding_knots",
        "bound_particles", "iterations", "converged"], rows)
    _write_json(plan, "report.json", {
        "baseline": baseline.to_dict(),
        "levels": [run.to_dict() for run in runs],
    })
    for row in rows:
        print(csv_line(row))
    if all_converged or allow_nonconverged:
        return 0
    return 1


def _seed_error(value):
    """Why value is no master seed (config seed or --seed), else None."""
    if isinstance(value, bool) or not isinstance(value, int):
        return "expected an unsigned integer"
    if not 0 <= value < 2 ** 64:
        return "must fit in unsigned 64 bits"


def _seed_type(text):
    value = int(text)
    if _seed_error(value):
        raise argparse.ArgumentTypeError("seed " + _seed_error(value))
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
        if args.workers < 1:
            raise ConfigError("--workers must be >= 1")
        plan = load_config(
            args.config, args.command,
            seed_override=args.seed,
            out_override=args.out,
            fp_tol_override=getattr(args, "fp_tol", None),
        )
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
    except ConfigError as err:
        print("config error: %s" % err, file=sys.stderr)
        return 2
    except StructuralFlagError as err:
        print("mode precondition failed: %s" % err, file=sys.stderr)
        return 1
    except (RuntimeError, ValueError) as err:
        print("run failed: %s" % err, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

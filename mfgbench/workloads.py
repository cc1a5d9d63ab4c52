"""The benchmark's workloads: the CLI commands each one runs, the config
files they read, and the check each command's output must pass.

Every config uses the program's default solver and fixed-point settings
(50 steps x 4096 paths, fp_tol 1e-3) and carries no seed: the seed
reaches the program only through ``--seed``.
"""

import os
from dataclasses import dataclass

import checks

BUILTINS = ("lq-scalar", "lq-1pop", "lq-bimodal", "lq-2pop-competitive",
            "lq-2pop-cooperative", "mixed-opec", "nonlq-box")
MODEL_2D = os.path.join("mfgbench", "models", "lq2d_mixed.py")
CHAOS_SIZES = (64, 256, 1024, 4096)
CHAOS_REFERENCE_FACTOR = 16
N_STEPS = 50

WORKLOADS = ("solve-builtins", "solve-2d", "chaos-bimodal")


@dataclass
class Command:
    name: str
    subcommand: str
    config: str
    out_dir: str
    text: str  # the config file's contents
    check: object  # check(out_dir, plan) -> (ok, detail)

    def argv(self, seed):
        return [self.subcommand, "--config", self.config, "--seed", str(seed),
                "--workers", "1"]


def _solve_check(name):
    def check(out_dir, plan):
        ok, work = checks.check_solve_converged(out_dir)
        if not ok:
            return ok, work
        if name == "nonlq-box":
            ok, detail = checks.check_box_cost(out_dir, checks.hjb_box_value())
        else:
            ok, detail = checks.check_lq_means(out_dir, plan["game"], N_STEPS)
        return ok, "%s; %s" % (work, detail)

    return check


def _chaos_check(out_dir, plan):
    return checks.check_chaos(out_dir, CHAOS_SIZES, CHAOS_REFERENCE_FACTOR)


def _experiment(kind, **fields):
    lines = ["experiment:", "  kind: %s" % kind]
    lines += ["  %s: %s" % item for item in fields.items()]
    return "\n".join(lines)


def commands(workload, work_dir):
    """The workload's commands in run order, with their config files and
    outputs under work_dir. Nothing is written; see write_configs."""
    if workload == "solve-builtins":
        specs = [(name, name, "solve", _experiment("solve"),
                  _solve_check(name))
                 for name in BUILTINS]
    elif workload == "solve-2d":
        specs = [("lq2d-mixed", MODEL_2D, "solve", _experiment("solve"),
                  _solve_check("lq2d-mixed"))]
    elif workload == "chaos-bimodal":
        specs = [("lq-bimodal", "lq-bimodal", "chaos",
                  _experiment("chaos", sizes=list(CHAOS_SIZES),
                              repetitions=32,
                              reference_factor=CHAOS_REFERENCE_FACTOR),
                  _chaos_check)]
    else:
        raise ValueError("unknown workload %r" % workload)

    out = []
    for name, model, sub, experiment, check in specs:
        config = os.path.join(work_dir, "configs", "%s-%s.yaml" % (sub, name))
        out_dir = os.path.join(work_dir, "out", "%s-%s" % (sub, name))
        text = "model: %s\noutput_dir: %s\n%s\n" % (model, out_dir, experiment)
        out.append(Command(name, sub, config, out_dir, text, check))
    return out


def write_configs(cmds):
    for cmd in cmds:
        os.makedirs(os.path.dirname(cmd.config), exist_ok=True)
        with open(cmd.config, "w") as fh:
            fh.write(cmd.text)

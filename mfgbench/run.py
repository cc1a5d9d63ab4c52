"""End-to-end benchmark of the mfglab CLI.

    python3 mfgbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each workload runs in processes of its own
(mfgbench/worker.py), with ``--workers 1`` and one BLAS thread. The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` first starts SETUP_PROBES processes that only set up, then
runs whole rounds of the workload's commands, each in a fresh process,
until S seconds have passed (at least one round). It reports the medians
of ``wall_s`` (CLI commands after set-up), ``setup_s`` (imports, config
loading, model building) and ``peak_rss_mb`` (peak resident memory of a
round's process, taken before its output checks).

``--trace 1`` runs one untraced round and one traced round and reports
the per-layer metrics of the traced round, the tracing overhead
(``trace.overhead_s``, traced minus untraced wall time), and fails the
run as incorrect unless the two rounds wrote byte-identical files.
"""

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from workloads import WORKLOADS

SETUP_PROBES = 4
DEADLINE_S = 170.0
WORK_ROOT = ".mfgbench_work"
HERE = os.path.dirname(os.path.abspath(__file__))
# One BLAS thread next to the single worker thread: at most two busy
# threads on a two-core machine, and no thread-count noise in timings.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class RunError(Exception):
    pass


def _child(workload, seed, mode, work, deadline):
    # the work dir is cleared and the configs written here, so the worker's
    # set-up clock holds no file-system work of the benchmark's own
    if os.path.isdir(work):
        shutil.rmtree(work)
    workloads.write_configs(workloads.commands(workload, work))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--work", work]
    env = dict(os.environ, **THREAD_ENV)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("no time left to start a %s process" % mode)
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunError("%s process passed the %.0f s deadline"
                       % (mode, DEADLINE_S))
    if proc.returncode != 0:
        raise RunError("%s process exited %d:\n%s"
                       % (mode, proc.returncode, proc.stderr[-4000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _report_round(label, result):
    for row in result["commands"]:
        print("%s  %-32s %8.3f s  %s  %s" % (
            label, row["command"], row["seconds"],
            "ok" if row["ok"] else "FAILED", row["detail"]))
    print("%s  wall_s %.3f  setup_s %.3f  peak_rss_mb %.1f" % (
        label, result["wall_s"], result["setup_s"], result["peak_rss_mb"]))


def _tally(rounds):
    attempted = sum(len(r["commands"]) for r in rounds)
    failed = sum(not row["ok"] for r in rounds for row in r["commands"])
    # a command whose check fails is a failed operation; a wrong output
    # on a command that exited 0 also makes the run incorrect
    wrong = any(row["exit"] == 0 and not row["ok"]
                for r in rounds for row in r["commands"])
    return attempted, failed, wrong


def _same_tree(a, b):
    """Whether two output trees hold the same files with the same bytes."""
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only or cmp.funny_files:
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files,
                                           shallow=False)
    if mismatch or errors:
        return False
    return all(_same_tree(os.path.join(a, d), os.path.join(b, d))
               for d in cmp.common_dirs)


def timed_run(workload, seed, seconds, work, deadline):
    setups = [_child(workload, seed, "setup", os.path.join(work, "setup"),
                     deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    rounds = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        result = _child(workload, seed, "round",
                        os.path.join(work, "round"), deadline)
        _report_round("round %d" % len(rounds), result)
        rounds.append(result)
        last = time.monotonic() - t0
        if (time.monotonic() - start >= seconds
                or time.monotonic() + 1.5 * last > deadline):
            break
    setups += [r["setup_s"] for r in rounds]
    attempted, failed, wrong = _tally(rounds)
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds),
                        "MB"),
    }
    return not wrong, attempted, failed, metrics


def traced_run(workload, seed, work, deadline):
    # both rounds write to the same paths (resolved_config.yaml records
    # output_dir), so the untraced outputs are moved aside in between
    run_dir = os.path.join(work, "run")
    kept = os.path.join(work, "untraced-out")
    plain = _child(workload, seed, "round", run_dir, deadline)
    _report_round("untraced", plain)
    if os.path.isdir(kept):
        shutil.rmtree(kept)
    os.rename(plain["out_root"], kept)
    traced = _child(workload, seed, "traced", run_dir, deadline)
    _report_round("traced", traced)
    identical = _same_tree(kept, traced["out_root"])
    print("traced outputs byte-identical to untraced: %s" % identical)
    attempted, failed, wrong = _tally([plain, traced])
    metrics = {name: tuple(val) for name, val in traced["layers"].items()}
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    return identical and not wrong, attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join("src", "mfglab", "cli.py")):
        print("run from the repository root: src/mfglab is missing",
              file=sys.stderr)
        return 2
    work = os.path.join(WORK_ROOT, args.workload)
    try:
        if args.trace:
            correct, attempted, failed, metrics = traced_run(
                args.workload, args.seed, work, deadline)
        else:
            correct, attempted, failed, metrics = timed_run(
                args.workload, args.seed, args.seconds, work, deadline)
    except RunError as err:
        print("benchmark run failed: %s" % err, file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark process: set up, run one round of a workload's CLI
commands in-process, check their outputs, print one JSON line.

    python3 mfgbench/worker.py --workload NAME --seed N --mode MODE --work DIR

MODE is ``setup`` (set up and stop), ``round`` (set up, run and check)
or ``traced`` (as ``round``, with spans and counts recorded by
tracing.install and written to DIR/spans.tsv). run.py starts this file;
it expects the repository root as its working directory, and DIR to
hold the workload's config files and nothing else.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _output_bytes(cmds):
    total = 0
    for cmd in cmds:
        if os.path.isdir(cmd.out_dir):
            total += sum(e.stat().st_size for e in os.scandir(cmd.out_dir))
    return total


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "round", "traced"),
                        required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args()

    # Set-up: numpy and mfglab imports, config loading and model building.
    # No solving happens here. run.py has already cleared DIR and written
    # the config files, so no file-system work is timed.
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import numpy  # noqa: F401
    from mfglab import cli

    import workloads

    tracer = None
    if args.mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    cmds = workloads.commands(args.workload, args.work)
    plans = [cli.load_config(cmd.config, cmd.subcommand) for cmd in cmds]
    setup_s = time.perf_counter() - _T0
    result = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    seconds = []
    codes = []
    for cmd in cmds:
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(cmd.argv(args.seed))
        except Exception as exc:  # a crash fails the command, not the run
            code = "%s: %s" % (type(exc).__name__, exc)
        seconds.append(time.perf_counter() - t0)
        codes.append(code)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, _output_bytes(cmds))
        tracer.dump(os.path.join(args.work, "spans.tsv"))

    rows = []
    for cmd, plan, code, sec in zip(cmds, plans, codes, seconds):
        if code != 0:
            ok, detail = False, "exit %s" % (code,)
        else:
            try:
                ok, detail = cmd.check(cmd.out_dir, plan)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                ok, detail = False, "unreadable output: %s" % exc
        rows.append({"command": "%s %s" % (cmd.subcommand, cmd.name),
                     "seconds": sec, "exit": code, "ok": bool(ok),
                     "detail": detail})
    result.update({
        "wall_s": sum(seconds),
        "peak_rss_mb": peak_rss_mb,
        "out_root": os.path.join(args.work, "out"),
        "commands": rows,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Spans and exact counts for mfglab, installed from the benchmark's side.

``install`` replaces functions of the mfglab modules with wrappers that
record one span per call (label, parent span, start, end) and bump exact
counters at the same boundaries. A function that other modules imported
by name is replaced in every module that binds it. Nothing inside the
package changes, and the wrappers pass arguments and results through
untouched, so a traced run writes the same bytes as an untraced one.

Spans are held in flat in-memory arrays and written out by ``dump`` when
the run ends. A layer's self time is its span time minus the time its
child spans cover.
"""

import dataclasses
import sys
import time
from array import array

import numpy as np

# Calls into these callables of a population count as model coefficient
# calls: every drift and diffusion field, and the cost callables.
_COST_CALLABLES = ("f", "g", "df_dx", "df_dalpha", "dg_dx", "df_dmu",
                   "dg_dmu", "quad_linear", "quad_const")

# Spans that write the CLI's output files.
OUTPUT_LABELS = ("cli._write_resolved", "cli._write_json",
                 "fixedpoint.write_history_csv", "measures.flow_to_csv",
                 "nagent.chaos_to_csv")


class Tracer:
    def __init__(self):
        self.labels = []
        self._label_ix = {}
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.counts = {}
        self.substream_names = set()

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, label, fn, before=None, after=None):
        """Return fn wrapped in a span; before(args, kwargs) and
        after(result) update counters outside the timed interval."""
        if label not in self._label_ix:
            self._label_ix[label] = len(self.labels)
            self.labels.append(label)
        ix = self._label_ix[label]
        names, parents, starts, ends = (self.names, self.parents,
                                        self.starts, self.ends)
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            sid = len(names)
            names.append(ix)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
            if after is not None:
                after(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def in_layer(self, prefix):
        """Whether any open span's label starts with prefix."""
        labels, names = self.labels, self.names
        return any(labels[names[sid]].startswith(prefix)
                   for sid in self.stack[1:])

    def counted_game(self, spec):
        """Copy of a game spec whose coefficient callables count calls."""
        counts = self.counts
        key = "model.coefficient_calls"

        def counted(fn):
            if fn is None:
                return None

            def call(*args, **kwargs):
                counts[key] = counts.get(key, 0) + 1
                return fn(*args, **kwargs)

            return call

        def replaced(obj, names):
            return dataclasses.replace(
                obj, **{n: counted(getattr(obj, n)) for n in names})

        def all_fields(obj):
            return [f.name for f in dataclasses.fields(obj)]

        pops = tuple(
            dataclasses.replace(
                pop,
                drift=replaced(pop.drift, all_fields(pop.drift)),
                diffusion=replaced(pop.diffusion, all_fields(pop.diffusion)),
                cost=replaced(pop.cost, _COST_CALLABLES))
            for pop in spec.populations)
        return dataclasses.replace(spec, populations=pops)

    # -- analysis ---------------------------------------------------------

    def _arrays(self):
        names = np.frombuffer(self.names, dtype=np.int32).astype(np.int64)
        parents = np.frombuffer(self.parents, dtype=np.int32).astype(np.int64)
        dur = (np.frombuffer(self.ends, dtype=float)
               - np.frombuffer(self.starts, dtype=float))
        return names, parents, dur

    def _ids(self, labels):
        return [self._label_ix[lb] for lb in labels if lb in self._label_ix]

    def totals(self):
        """Per-metric span times: total_s(labels) and self_s(label)."""
        names, parents, dur = self._arrays()
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child

        def outermost(ids):
            # spans of the group that no other span of the group encloses
            member = np.isin(names, ids)
            nested = np.zeros(len(names), dtype=bool)
            anc = parents.copy()
            while np.any(anc >= 0):
                live = anc >= 0
                nested[live] |= member[anc[live]]
                anc[live] = parents[anc[live]]
            return member & ~nested

        def total_s(*labels):
            ids = self._ids(labels)
            if not ids:
                return 0.0
            return float(dur[outermost(ids)].sum())

        def self_s(*labels):
            ids = self._ids(labels)
            if not ids:
                return 0.0
            return float(self_time[np.isin(names, ids)].sum())

        def calls(*labels):
            ids = self._ids(labels)
            return int(np.isin(names, ids).sum()) if ids else 0

        return total_s, self_s, calls

    def dump(self, path):
        """Write every span as a tab-separated row."""
        with open(path, "w", newline="\n") as fh:
            fh.write("span\tparent\tlabel\tstart_s\tend_s\n")
            for sid in range(len(self.names)):
                fh.write("%d\t%d\t%s\t%.9f\t%.9f\n" % (
                    sid, self.parents[sid], self.labels[self.names[sid]],
                    self.starts[sid], self.ends[sid]))


def install(tracer):
    """Wrap the public boundaries of every mfglab layer, in place."""
    from mfglab import (cli, fbsde, fixedpoint, hamiltonian, measures, nagent,
                        rng)

    modules = [m for name, m in sys.modules.items()
               if name == "mfglab" or name.startswith("mfglab.")]
    count = tracer.count

    def patch(module, attr, label, before=None, after=None):
        orig = getattr(module, attr)
        new = tracer.wrap(label, orig, before, after)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, new)

    def patch_method(cls, attr, label):
        setattr(cls, attr, tracer.wrap(label, getattr(cls, attr)))

    # cli: config loading and output writers.
    def on_config(plan):
        plan["game"] = tracer.counted_game(plan["game"])

    patch(cli, "load_config", "cli.load_config", after=on_config)
    patch(cli, "_write_json", "cli._write_json")
    patch(cli, "_write_resolved", "cli._write_resolved")

    # fixedpoint
    def on_matching(report):
        count("fixedpoint.iterations", report.iterations)

    patch(fixedpoint, "solve_matching", "fixedpoint.solve_matching",
          after=on_matching)
    patch(fixedpoint, "uncontrolled_flows", "fixedpoint.uncontrolled_flows")
    patch(fixedpoint, "write_history_csv", "fixedpoint.write_history_csv")

    # fbsde
    def on_adjoint(sol):
        sweeps = len(sol.picard_history)
        count("fbsde.picard_sweeps", sweeps)
        # every Picard sweep plus the final consistent pass regresses
        # at each of the n_steps knots
        count("fbsde.knot_sweeps", (sweeps + 1) * sol.grid.n_steps)

    patch(fbsde, "solve_adjoint", "fbsde.solve_adjoint", after=on_adjoint)
    patch(fbsde, "optimal_cost", "fbsde.optimal_cost")
    patch_method(fbsde.DecouplingField, "fit_knot", "fbsde.fit_knot")
    patch_method(fbsde.DecouplingField, "eval", "fbsde.field_eval")

    lstsq = np.linalg.lstsq

    def counted_lstsq(*args, **kwargs):
        if tracer.in_layer("fbsde."):
            count("fbsde.lstsq_calls")
        return lstsq(*args, **kwargs)

    np.linalg.lstsq = counted_lstsq

    # hamiltonian
    def on_minimize(args, kwargs):
        count("hamiltonian.minimize_rows", len(args[3]))

    patch(hamiltonian, "minimize_controls", "hamiltonian.minimize",
          before=on_minimize)
    patch(hamiltonian, "dx_hamiltonian_batch", "hamiltonian.dx")

    # measures
    def on_sliced(args, kwargs):
        a, b = args[0], args[1]
        if a.dim > 1:
            n_proj = kwargs.get("n_projections",
                                args[2] if len(args) > 2 else 64)
            count("measures.sorted_values", (a.n + b.n) * int(n_proj))

    def on_w2(args, kwargs):
        count("measures.sorted_values", args[0].n + args[1].n)

    patch(measures, "flow_distance", "measures.flow_distance")
    patch(measures, "sliced_w2", "measures.sliced_w2", before=on_sliced)
    patch(measures, "wasserstein2_1d_any", "measures.w2_1d", before=on_w2)
    patch(measures, "flow_to_csv", "measures.flow_to_csv")

    cloud_init = measures.ParticleCloud.__init__

    def counted_cloud(self, points):
        count("measures.clouds")
        count("measures.cloud_bytes", 8 * int(np.size(points)))
        cloud_init(self, points)

    measures.ParticleCloud.__init__ = counted_cloud

    # nagent
    def on_system(system):
        count("nagent.systems")
        count("nagent.agent_steps", sum(system.sizes) * system.grid.n_steps)

    patch(nagent, "simulate_iid_copies", "nagent.simulate", after=on_system)
    patch(nagent, "simulate_interacting", "nagent.simulate", after=on_system)
    patch(nagent, "chaos_rate", "nagent.chaos_rate")
    patch(nagent, "chaos_to_csv", "nagent.chaos_to_csv")

    # rng
    def on_substream(args, kwargs):
        tracer.substream_names.add(args[1])

    patch(rng, "substream", "rng.substream", before=on_substream)


def layer_metrics(tracer, output_bytes):
    """Per-layer metrics of a traced run, as {name: (value, unit)}."""
    total_s, self_s, calls = tracer.totals()
    c = tracer.counts.get
    knot_sweeps = c("fbsde.knot_sweeps", 0)
    sub_calls = calls("rng.substream")
    sub_names = len(tracer.substream_names)
    return {
        "cli.load_config_s": (total_s("cli.load_config"), "s"),
        "cli.output_s": (total_s(*OUTPUT_LABELS), "s"),
        "cli.output_mb": (output_bytes / 1e6, "MB"),
        "model.coefficient_calls": (c("model.coefficient_calls", 0), "count"),
        "fixedpoint.iterations": (c("fixedpoint.iterations", 0), "count"),
        "fixedpoint.solve_matching_s":
            (total_s("fixedpoint.solve_matching"), "s"),
        "fixedpoint.self_s": (self_s("fixedpoint.solve_matching"), "s"),
        "fixedpoint.uncontrolled_flows_s":
            (total_s("fixedpoint.uncontrolled_flows"), "s"),
        "fbsde.solve_adjoint_calls": (calls("fbsde.solve_adjoint"), "count"),
        "fbsde.picard_sweeps": (c("fbsde.picard_sweeps", 0), "count"),
        "fbsde.solve_adjoint_self_s": (self_s("fbsde.solve_adjoint"), "s"),
        "fbsde.fit_knot_calls": (calls("fbsde.fit_knot"), "count"),
        "fbsde.fit_knot_s": (total_s("fbsde.fit_knot"), "s"),
        "fbsde.lstsq_calls": (c("fbsde.lstsq_calls", 0), "count"),
        "fbsde.knot_sweeps": (knot_sweeps, "count"),
        "fbsde.lstsq_per_knot_sweep":
            (c("fbsde.lstsq_calls", 0) / knot_sweeps if knot_sweeps else 0.0,
             "ratio"),
        "fbsde.field_eval_calls": (calls("fbsde.field_eval"), "count"),
        "fbsde.field_eval_s": (total_s("fbsde.field_eval"), "s"),
        "fbsde.optimal_cost_s": (total_s("fbsde.optimal_cost"), "s"),
        "hamiltonian.minimize_calls": (calls("hamiltonian.minimize"), "count"),
        "hamiltonian.minimize_rows":
            (c("hamiltonian.minimize_rows", 0), "count"),
        "hamiltonian.minimize_s": (total_s("hamiltonian.minimize"), "s"),
        "hamiltonian.dx_s": (total_s("hamiltonian.dx"), "s"),
        "measures.flow_distance_s": (total_s("measures.flow_distance"), "s"),
        "measures.sliced_w2_calls": (calls("measures.sliced_w2"), "count"),
        "measures.sliced_w2_s": (total_s("measures.sliced_w2"), "s"),
        "measures.w2_1d_calls": (calls("measures.w2_1d"), "count"),
        "measures.w2_1d_s": (total_s("measures.w2_1d"), "s"),
        "measures.sorted_values": (c("measures.sorted_values", 0), "count"),
        "measures.clouds": (c("measures.clouds", 0), "count"),
        "measures.cloud_mb": (c("measures.cloud_bytes", 0) / 1e6, "MB"),
        "nagent.systems": (c("nagent.systems", 0), "count"),
        "nagent.agent_steps": (c("nagent.agent_steps", 0), "count"),
        "nagent.simulate_self_s": (self_s("nagent.simulate"), "s"),
        "nagent.chaos_rate_s": (total_s("nagent.chaos_rate"), "s"),
        "rng.substream_calls": (sub_calls, "count"),
        "rng.substream_s": (total_s("rng.substream"), "s"),
        "rng.substream_names": (sub_names, "count"),
        "rng.substream_reuse":
            (sub_calls / sub_names if sub_names else 0.0, "ratio"),
        "trace.spans": (len(tracer.names), "count"),
    }

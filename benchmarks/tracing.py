"""Span tracing of lisim's layers, installed from outside the library.

Each wrapper replaces a public function at the place where its caller looks
the name up (``lisim.cli.run_iic_chain``, ``lisim.chain.iic_local_step``,
``lisim.numerics.svd``, ...), so the library itself is never modified and a
run without tracing executes the original functions untouched. Spans are
kept in memory and written once, after the measurement.

A span is ``(unit, trial, parent, name, start, end)``: ``unit`` is the group
of calls the benchmark loop timed from outside, ``trial`` identifies one
channel realization, ``parent`` is the index of the enclosing span (-1 at
the root) and the times are ``perf_counter`` seconds.
"""

import functools
import importlib
import time

#: (module where the caller looks the name up, attribute, span name).
SITES = (
    ("lisim.cli", "main", "cli.main"),
    ("lisim.cli", "run_sweep", "cli.run_sweep"),
    ("lisim.cli", "emit_csv", "cli.emit_csv"),
    ("lisim.cli", "run_trial", "cli.run_trial"),
    ("lisim.cli", "build_scenario", "channel.build_scenario"),
    ("lisim.cli", "sample_users", "channel.sample_users"),
    ("lisim.cli", "realize_channel", "channel.realize_channel"),
    ("lisim.cli", "run_iic_chain", "chain.run_iic_chain"),
    ("lisim.cli", "run_rmf", "chain.run_rmf"),
    ("lisim.chain", "iic_local_step", "equalizers.iic_local_step"),
    ("lisim.chain", "rmf_filter", "equalizers.rmf_filter"),
    ("lisim.capacity", "channel_capacity", "capacity.channel_capacity"),
    ("lisim.capacity", "chain_capacity_trace", "capacity.chain_capacity_trace"),
    ("lisim.capacity", "sum_rate_panelized", "capacity.sum_rate_panelized"),
    ("lisim.numerics", "svd", "numerics.svd"),
    ("lisim.numerics", "hermitian_eig", "numerics.hermitian_eig"),
    ("lisim.numerics", "logdet2_hpd", "numerics.logdet2_hpd"),
    ("lisim.numerics", "orthonormal_range", "numerics.orthonormal_range"),
)

#: Leaf kernels whose input bytes are summed into ``numerics.computed_mb``;
#: ``orthonormal_range`` delegates to ``svd`` and would count twice.
_KERNELS = {"numerics.svd", "numerics.hermitian_eig", "numerics.logdet2_hpd"}
_CHAINS = {"chain.run_iic_chain", "chain.run_rmf"}

#: (metric, unit) reported by a traced run, all per trial; seconds are
#: speed-scaled like the end-to-end times (see ``worker.Calibration``).
LAYER_METRICS = (
    [(f"numerics.{f}.{m}", u)
     for f in ("svd", "hermitian_eig", "logdet2_hpd", "orthonormal_range")
     for m, u in (("calls", "calls/trial"), ("s", "s/trial"))]
    + [("numerics.computed_mb", "MB/trial")]
    + [(f"equalizers.{f}.{m}", u)
       for f in ("iic_local_step", "rmf_filter")
       for m, u in (("calls", "calls/trial"), ("s", "s/trial"))]
    + [(f"chain.{f}.{m}", u)
       for f in ("run_iic_chain", "run_rmf")
       for m, u in (("calls", "calls/trial"), ("s", "s/trial"),
                    ("self_s", "s/trial"))]
    + [("chain.chain_scalars", "scalars/trial")]
    + [(f"capacity.{f}.{m}", u)
       for f in ("channel_capacity", "chain_capacity_trace",
                 "sum_rate_panelized")
       for m, u in (("calls", "calls/trial"), ("s", "s/trial"))]
    + [("capacity.channel_capacity.useful_ratio", "ratio")]
    + [(f"channel.{f}.{m}", u)
       for f in ("build_scenario", "sample_users", "realize_channel")
       for m, u in (("calls", "calls/trial"), ("s", "s/trial"))]
    + [("cli.run_sweep.self_s", "s/trial"), ("cli.emit_csv.s", "s/trial"),
       ("cli.main.calls", "calls/trial"), ("cli.main.self_s", "s/trial")]
    + [("trace.overhead_pct", "%"), ("trace.self_sum_pct", "%")]
)


class Tracer:
    """In-memory span recorder; ``install`` swaps the wrappers in."""

    def __init__(self):
        self.spans = []
        self.computed_bytes = 0
        self.chain_scalars = 0
        self.trials = 0
        self._stack = []
        self._unit = -1
        self._drawn = False
        self._saved = []

    def begin_unit(self) -> None:
        """Start a timed unit (units are numbered from 0); it starts a trial."""
        self._unit += 1
        self.begin_trial()

    def begin_trial(self) -> None:
        self.trials += 1
        self._drawn = False

    def install(self) -> None:
        for module_name, attr, span_name in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        kernel = name in _KERNELS
        chain = name in _CHAINS
        draws = name == "channel.sample_users"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if draws:
                # every realization after the first of a unit is a new trial
                if self._drawn:
                    self.begin_trial()
                self._drawn = True
            if kernel:
                self.computed_bytes += getattr(args[0], "nbytes", 0)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (self._unit, self.trials, parent, name,
                                start, end)
            if chain:
                self.chain_scalars += result.traffic.chain_complex_scalars
            return result

        return traced

    def write(self, path) -> None:
        """Write every span as one CSV line, times in nanoseconds."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("unit,trial,parent,name,start_ns,end_ns\n")
            for unit, trial, parent, name, start, end in self.spans:
                handle.write(f"{unit},{trial},{parent},{name},"
                             f"{round(start * 1e9)},{round(end * 1e9)}\n")

    def layer_metrics(self, unit_scales, unit_walls, overhead_pct):
        """Per-trial layer metrics derived from the recorded spans.

        Each span's duration is multiplied by its unit's speed scale, as
        the end-to-end times are. ``unit_walls`` are the units' wall times
        measured outside the spans; ``overhead_pct`` is passed through.
        """
        children = [0.0] * len(self.spans)
        for _, _, parent, _, start, end in self.spans:
            if parent >= 0:
                children[parent] += end - start
        calls, busy, own = {}, {}, {}
        self_sum = 0.0
        for i, (unit, _, _, name, start, end) in enumerate(self.spans):
            scale = unit_scales[unit]
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0.0) + scale * (end - start)
            own[name] = own.get(name, 0.0) + scale * (end - start - children[i])
            self_sum += end - start - children[i]
        trials = max(self.trials, 1)
        values = {}
        for name, _ in LAYER_METRICS:
            span, _, kind = name.rpartition(".")
            if kind == "calls":
                values[name] = calls.get(span, 0) / trials
            elif kind == "s":
                values[name] = busy.get(span, 0.0) / trials
            elif kind == "self_s":
                values[name] = own.get(span, 0.0) / trials
        values["numerics.computed_mb"] = self.computed_bytes / 1e6 / trials
        values["chain.chain_scalars"] = self.chain_scalars / trials
        ceilings = calls.get("capacity.channel_capacity", 0)
        values["capacity.channel_capacity.useful_ratio"] = (
            self.trials / ceilings if ceilings else 0.0)
        values["trace.overhead_pct"] = overhead_pct
        values["trace.self_sum_pct"] = 100.0 * self_sum / sum(unit_walls)
        return values

    def unit_self_sums(self):
        """Summed self time of each unit's spans, i.e. its root spans' time."""
        sums = {}
        for unit, _, parent, _, start, end in self.spans:
            if parent < 0:
                sums[unit] = sums.get(unit, 0.0) + (end - start)
        return sums

"""In-memory span tracer that wraps sobex's public functions from outside.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (``-1`` at top level).  A layer's self time is the sum over
its spans of the span's duration minus the durations of its direct
children.  Spans stay in memory and are written out once, by
:meth:`Tracer.dump`, when the unit of work has finished.

Wrappers are installed where callers look the names up: every module-level
name and every module-level dict value inside the ``sobex`` package that
holds the original object is replaced (``sobex.extension`` imports
``gauss_legendre`` by name, ``sobex.cli`` dispatches through its
``_COMMANDS`` dict).  Methods are replaced on the class that defines them.
``run.py`` fails a traced run in which a layer reads zero on a workload that
exercises it (``PER_LAYER``), which catches a wrapper installed where no
caller looks.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import sys
import time

_clock = time.perf_counter


def _points(array):
    """Number of chart points in an ``(..., 2)`` array."""
    shape = getattr(array, "shape", ())
    n = 1
    for k in shape[:-1]:
        n *= int(k)
    return n


def _h1_span(args, kwargs):
    region = args[1] if len(args) > 1 else kwargs.get("region")
    return {"omega": "extension.h1_omega",
            "tube_exterior": "extension.h1_tube"}.get(region, "extension.h1_other")


# Module-level functions: (module, name, span name or callable(args, kwargs)).
FUNCTIONS = [
    ("sobex.fermi", "check_regularity", "fermi.regularity"),
    ("sobex.quadrature", "gauss_legendre", "quadrature.gauss_legendre"),
    ("sobex.quadrature", "composite_gauss", "quadrature.gauss_legendre"),
    ("sobex.extension", "operator_norm_estimate", "extension.opnorm"),
    ("sobex.extension", "h1_norm", _h1_span),
    ("sobex.heat", "assemble", "heat.assemble"),
    ("sobex.heat", "heat_kernel", "heat.kernel"),
    ("sobex.heat", "diagonal_bound_check", "heat.diagnostics"),
    ("sobex.comparison", "distortion_factor", "comparison"),
    ("sobex.comparison", "extension_norm_bound", "comparison"),
    ("sobex.cli", "cmd_heat", "cli.heat"),
    ("sobex.cli", "cmd_verify_extension", "cli.verify"),
    ("sobex.cli", "cmd_regularity", "cli.regularity"),
    ("sobex.cli", "write_report", "cli.report"),
]

# Methods: (module, class, method, span name).  The engines' ``invert`` is
# wrapped next to ``FermiChart.invert_soft`` because ``check_regularity``
# calls the engine directly; ``invert_soft`` alone reads zero on every
# workload.
METHODS = [
    ("sobex.fermi", "DomainSpec", "diameter", "fermi.diameter"),
    ("sobex.fermi", "FermiChart", "__init__", "fermi.chart"),
    ("sobex.fermi", "FermiChart", "map_unchecked", "fermi.map"),
    ("sobex.fermi", "FermiChart", "fermi_map", "fermi.map"),
    ("sobex.fermi", "FermiChart", "invert_soft", "fermi.invert"),
    ("sobex.fermi", "_PoleDiskEngine", "invert", "fermi.invert"),
    ("sobex.fermi", "_FlatCurveEngine", "invert", "fermi.invert"),
    ("sobex.fermi", "_FlatCircleEngine", "invert", "fermi.invert"),
    ("sobex.heat", "NeumannSystem", "eigenpairs", "heat.eigensolve"),
    ("sobex.heat", "NeumannSystem", "heat_kernel", "heat.kernel"),
    ("sobex.heat", "NeumannSystem", "kernel_matrix", "heat.kernel"),
    ("sobex.heat", "NeumannSystem", "heat_diag", "heat.kernel"),
    ("sobex.heat", "DiscreteDomain", "distance_rows", "heat.distance"),
    ("sobex.comparison", "ComparisonProfile", "from_curvature", "comparison"),
]

# Per-layer metrics: name -> (unit, workloads on which it must be nonzero).
PER_LAYER = {
    "fermi.diameter.s": ("s", ("cli-defaults",)),
    "fermi.diameter.calls": ("count", ("cli-defaults",)),
    "fermi.regularity.s": ("s", ("cli-defaults",)),
    "fermi.chart.s": ("s", ("cli-defaults",)),
    "fermi.map.s": ("s", ("cli-defaults",)),
    "fermi.map.points": ("count", ("cli-defaults",)),
    "fermi.invert.s": ("s", ("cli-defaults",)),
    "extension.opnorm.s": ("s", ("cli-defaults",)),
    "extension.h1_omega.s": ("s", ("cli-defaults",)),
    "extension.h1_tube.s": ("s", ("cli-defaults",)),
    "extension.field_eval.points": ("count", ("cli-defaults",)),
    "extension.field_partials.points": ("count", ("cli-defaults",)),
    "quadrature.gauss_legendre.s": ("s", ("cli-defaults",)),
    "quadrature.gauss_legendre.calls": ("count", ("cli-defaults",)),
    "heat.assemble.s": ("s", ("heat-refine", "cli-defaults")),
    "heat.eigensolve.s": ("s", ("heat-refine", "cli-defaults")),
    "heat.eigensolve.calls": ("count", ("heat-refine", "cli-defaults")),
    "heat.eigensolve.solves": ("count", ("heat-refine", "cli-defaults")),
    "heat.truncations": ("count", ("heat-refine", "cli-defaults")),
    "heat.modes_used": ("count", ("heat-refine", "cli-defaults")),
    "heat.kernel.s": ("s", ("heat-refine", "cli-defaults")),
    "heat.distance.s": ("s", ("heat-refine", "cli-defaults")),
    "heat.diagnostics.s": ("s", ("heat-refine", "cli-defaults")),
    "comparison.s": ("s", ("cli-defaults",)),
    "cli.heat.s": ("s", ("cli-defaults",)),
    "cli.verify.s": ("s", ("cli-defaults",)),
    "cli.regularity.s": ("s", ("cli-defaults",)),
    "cli.report.s": ("s", ("cli-defaults",)),
    "other.s": ("s", ()),
    "trace.spans": ("count", ()),
    "trace.traced_run_s": ("s", ()),
    "trace.untraced_run_s": ("s", ()),
    "trace.overhead_s": ("s", ()),
}


# Filled in by run.py from the untraced and traced units of one run.
RUN_LEVEL = ("trace.traced_run_s", "trace.untraced_run_s", "trace.overhead_s")


class Tracer:
    """Records spans and counts for one unit of work in one process."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.maxima = {}
        self._stack = []

    # -- wrappers ------------------------------------------------------------

    def wrap(self, fn, name, count=None):
        """``fn`` inside a span ``name`` (str or callable(args, kwargs))."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            rec = [label, _clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = _clock()
                stack.pop()
            if count is not None:
                count(args, result)
            return result

        return traced

    def counter(self, fn, key, amount):
        """``fn`` adding ``amount(args, result)`` to ``counts[key]``; no span."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[key] += amount(args, result)
            return result

        return counted

    def _eigenpairs(self, fn):
        traced = self.wrap(fn, "heat.eigensolve")
        counts = self.counts

        @functools.wraps(fn)
        def eigenpairs(system, *args, **kwargs):
            before = system._lam
            result = traced(system, *args, **kwargs)
            counts["heat.eigensolve.solves"] += system._lam is not before
            return result

        return eigenpairs

    def _modes_for(self, fn):
        maxima = self.maxima

        @functools.wraps(fn)
        def modes_for(system, *args, **kwargs):
            m = fn(system, *args, **kwargs)
            if m > maxima.get("heat.modes_used", -1):
                maxima["heat.modes_used"] = int(m)
                maxima["heat.mode_cap"] = int(system.mode_cap)
            return m

        return modes_for

    # -- installation ----------------------------------------------------------

    def install(self):
        """Wrap every listed function and method where callers look it up."""
        for mod_name in ("sobex.fermi", "sobex.quadrature", "sobex.extension",
                         "sobex.heat", "sobex.comparison", "sobex.cli"):
            importlib.import_module(mod_name)
        wrappers = {}
        for mod_name, attr, name in FUNCTIONS:
            orig = getattr(sys.modules[mod_name], attr)
            wrappers[id(orig)] = self.wrap(orig, name)
        for namespace, key in _slots():
            wrapper = wrappers.get(id(namespace[key]))
            if wrapper is not None:
                namespace[key] = wrapper
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(raw.__func__, name)))
            elif attr == "eigenpairs":
                setattr(cls, attr, self._eigenpairs(raw))
            elif name == "fermi.map":
                setattr(cls, attr, self.wrap(raw, name, self._count_points))
            else:
                setattr(cls, attr, self.wrap(raw, name))
        heat = sys.modules["sobex.heat"]
        heat.NeumannSystem.modes_for = self._modes_for(heat.NeumannSystem.modes_for)

    def _count_points(self, args, result):
        self.counts["fermi.map.points"] += _points(result)

    # -- results ---------------------------------------------------------------

    def layer_totals(self):
        """``{span name: (self seconds, calls)}`` plus the top-level total."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = collections.defaultdict(lambda: [0.0, 0])
        top = 0.0
        for k, (name, start, end, parent) in enumerate(self.spans):
            totals[name][0] += (end - start) - child[k]
            totals[name][1] += 1
            if parent < 0:
                top += end - start
        return dict(totals), top

    def metrics(self, run_s):
        """Per-layer values of one traced unit, except the RUN_LEVEL ones.

        ``heat.mode_cap`` rides along for the record: it is a constant the
        program sets, so it is context for ``heat.modes_used``, not a metric.
        """
        totals, top = self.layer_totals()
        out = {}
        for metric, (unit, _) in PER_LAYER.items():
            if metric in RUN_LEVEL:
                continue
            base, _, kind = metric.rpartition(".")
            if kind == "s" and base in totals:
                out[metric] = totals[base][0]
            elif kind == "calls" and base in totals:
                out[metric] = totals[base][1]
            elif metric in self.maxima:
                out[metric] = self.maxima[metric]
            else:
                out[metric] = self.counts.get(metric, 0.0 if unit == "s" else 0)
        out["other.s"] = run_s - top
        out["trace.spans"] = len(self.spans)
        out["heat.mode_cap"] = self.maxima.get("heat.mode_cap", 0)  # record only
        return out

    def dump(self, path):
        """Write the spans as JSON lines ``[name, start, end, parent]``."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _slots():
    """``(namespace, key)`` of every global and module-level dict entry in sobex."""
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "sobex" or name.startswith("sobex.")):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            yield namespace, key
            if isinstance(value, dict) and not key.startswith("__"):
                for k in list(value):
                    yield value, k

"""Span tracer that wraps stringlab's public functions from outside the
package.

Modules bind many functions by name (``from .stencils import deriv1`` in
``evolve`` and ``energy``; ``run_evolution`` in ``cli`` and
``identities``), so patching the defining module alone would miss those
calls.  ``install`` replaces the function at every binding site in every
loaded ``stringlab`` module; methods are replaced on their class.

Each call records a span (name, start, end, parent) in memory.  A layer's
self time is its spans' duration minus the part covered by child spans;
its total time counts only spans with no enclosing span of the same name,
so nested calls (``Mixture.d`` calling ``MovingGaussian.d``) are not
counted twice.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

MB = 1e6

# (layer name, module, attribute or Class.method).  Names sharing one layer
# name are aggregated.
TARGETS = (
    ("evolve.run_evolution", "stringlab.evolve", "run_evolution"),
    ("evolve.step", "stringlab.evolve", "step"),
    ("evolve.max_speed", "stringlab.evolve", "max_speed"),
    ("evolve.trace_characteristics", "stringlab.evolve", "trace_characteristics"),
    ("stencils.deriv1", "stringlab.stencils", "deriv1"),
    ("stencils.ko_dissipation", "stringlab.stencils", "ko_dissipation"),
    ("stencils.cubic_interp", "stringlab.stencils", "cubic_interp"),
    ("energy.EnergyTracker.on_step", "stringlab.energy", "EnergyTracker.on_step"),
    ("energy.null_rows", "stringlab.energy", "null_rows"),
    ("energy.build_tower", "stringlab.energy", "build_tower"),
    ("energy.energy_orders", "stringlab.energy", "energy_orders"),
    ("identities.divergence_identity_study", "stringlab.identities", "divergence_identity_study"),
    ("identities.deformation_check", "stringlab.identities", "deformation_check"),
    ("identities.equivalence_ratios", "stringlab.identities", "equivalence_ratios"),
    ("identities.energy_balance_study", "stringlab.identities", "energy_balance_study"),
    ("identities.BalanceAccumulator.on_step", "stringlab.identities", "BalanceAccumulator.on_step"),
    ("identities.BalanceAccumulator.finalize", "stringlab.identities",
     "BalanceAccumulator.finalize"),
    ("initialdata.criterion_for_family", "stringlab.initialdata", "criterion_for_family"),
    ("initialdata.higher_order_traces", "stringlab.initialdata", "higher_order_traces"),
    ("manufactured.d", "stringlab.manufactured", "MovingGaussian.d"),
    ("manufactured.d", "stringlab.manufactured", "Mixture.d"),
    ("manufactured.d", "stringlab.manufactured", "ZeroField.d"),
    ("nullgeom.weight_a", "stringlab.nullgeom", "weight_a"),
    ("profiles.profile_derivative", "stringlab.profiles", "profile_derivative"),
    ("config.parse_config", "stringlab.config", "parse_config"),
    ("cli.cmd_sweep", "stringlab.cli", "cmd_sweep"),
    ("cli.cmd_blowup", "stringlab.cli", "cmd_blowup"),
    ("cli.cmd_verify", "stringlab.cli", "cmd_verify"),
    ("cli.cmd_tracecheck", "stringlab.cli", "cmd_tracecheck"),
)


class Tracer:
    """In-memory span recorder.  Single-threaded: the workloads run the
    sweep with one thread, so spans nest strictly."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._depth: list[int] = []
        self._stack: list[int] = []
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_nested: list[bool] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        # counts taken at the layer boundaries, beside the spans
        self.counts: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def active(self, name: str) -> bool:
        return self._depth[self._ids[name]] > 0

    def add(self, key: str, value: float):
        self.counts[key] = self.counts.get(key, 0.0) + value

    def wrap(self, name, fn, on_call=None, on_return=None):
        nid = self.name_id(name)
        stack, depth = self._stack, self._depth
        names, parents, nested = self.span_name, self.span_parent, self.span_nested
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            nested.append(depth[nid] > 0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            depth[nid] += 1
            if on_call is not None:
                on_call(args, kwargs)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                starts[idx] = t0
                ends[idx] = t1
                depth[nid] -= 1
                stack.pop()
            if on_return is not None:
                on_return(out)
            return out

        return traced

    def arrays(self):
        return (np.asarray(self.span_name, dtype=np.int32),
                np.asarray(self.span_parent, dtype=np.int64),
                np.asarray(self.span_nested, dtype=bool),
                np.asarray(self.span_start, dtype=float),
                np.asarray(self.span_end, dtype=float))

    def save(self, path):
        name, parent, nested, start, end = self.arrays()
        np.savez(path, names=np.asarray(self.names), name=name, parent=parent,
                 nested=nested, start=start, end=end)

    def summary(self, since: float) -> dict:
        """Per-layer calls, total_s and self_s, plus the summed self time of
        spans that started at or after ``since`` (a perf_counter value)."""
        name, parent, nested, start, end = self.arrays()
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        if np.any(has_parent):
            child = np.bincount(parent[has_parent], weights=dur[has_parent],
                                minlength=len(dur))
        self_t = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name[~nested], weights=dur[~nested], minlength=k)
        selfs = np.bincount(name, weights=self_t, minlength=k)
        layers = {n: {"calls": int(calls[i]), "total_s": float(total[i]),
                      "self_s": float(selfs[i])} for i, n in enumerate(self.names)}
        return {"layers": layers, "counts": dict(self.counts),
                "self_sum_s": float(np.sum(self_t[start >= since])),
                "spans": int(len(dur))}


def _array_mb(args, kwargs):
    f = args[0] if args else kwargs["f"]
    return 2 * np.asarray(f).size * 8 / MB


def _hooks(tracer: Tracer):
    """Counts recorded at layer boundaries, keyed by layer name."""

    def step_call(args, kwargs):
        state = args[0] if args else kwargs["state"]
        tracer.add("evolve.point_steps", state.grid.n)

    def history_return(result):
        mb = sum(s.phi.nbytes + s.w.nbytes + s.p.nbytes for s in result.history) / MB
        tracer.counts["evolve.history_mb"] = max(tracer.counts.get("evolve.history_mb", 0.0), mb)

    def stencil_call(key):
        def call(args, kwargs):
            # computed traffic: one float64 read and one write per point
            tracer.add(key, _array_mb(args, kwargs))
        return call

    def null_rows_call(args, kwargs):
        if tracer.active("energy.EnergyTracker.on_step"):
            phis = args[0] if args else kwargs["phis"]
            tracer.add("energy.null_rows.levels_in_on_step", len(phis))

    return {
        "evolve.step": (step_call, None),
        "evolve.run_evolution": (None, history_return),
        "stencils.deriv1": (stencil_call("stencils.deriv1.mb"), None),
        "stencils.ko_dissipation": (stencil_call("stencils.ko_dissipation.mb"), None),
        "energy.null_rows": (null_rows_call, None),
    }


def _resolve(owner, attr_path):
    *cls_path, attr = attr_path.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer: Tracer):
    """Wrap every target at every binding site.  Call once, after
    ``stringlab.cli`` has been imported."""
    hooks = _hooks(tracer)
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "stringlab" or n.startswith("stringlab."))]
    for name, modname, attr_path in TARGETS:
        on_call, on_return = hooks.get(name, (None, None))
        owner, attr = _resolve(sys.modules[modname], attr_path)
        orig = owner.__dict__[attr]
        traced = tracer.wrap(name, orig, on_call, on_return)
        if owner is not sys.modules[modname]:
            setattr(owner, attr, traced)
            continue
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, traced)

"""In-memory span recorder that times the repro layers from outside.

Nothing under ``src/`` knows about it: :meth:`Tracer.install` replaces
the public functions each layer exposes to the layer above with timing
wrappers, in the module namespaces where the callers look them up, and
:meth:`Tracer.uninstall` puts the originals back.  A span is
``[name, start, end, parent index, op id]``; spans of one benchmark op
share the op id, and the set-up of a workload is recorded under the op
id ``"setup"``.  Outside an op (op id ``None``) the wrappers call
straight through, so the benchmark's own output checks are never
traced.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional


def _run_counts(result) -> Dict[str, int]:
    return {
        "platform.compiled_firings": result.compiled_firings,
        "platform.iterations": result.iterations,
        "platform.extrapolated_iterations": result.extrapolated_iterations,
    }


def _resync_counts(result) -> Dict[str, int]:
    return {"mapping.resync_removed": len(result.removed)}


#: (``module:attribute`` or ``module:Class.method``, span name, counter
#: hook).  Each entry wraps one function in the namespace its caller
#: resolves it from; the hook maps the call's result to counter
#: increments.
HOOKS = (
    ("repro.spi.runtime:vts_convert", "dataflow.vts", None),
    ("repro.mpi.baseline:vts_convert", "dataflow.vts", None),
    ("repro.conformance.reference:vts_convert", "dataflow.vts", None),
    ("repro.mapping.selftimed:hsdf_expand", "dataflow.hsdf",
     lambda g: {"dataflow.hsdf_tasks": len(g.actors)}),
    ("repro.spi.runtime:insert_spi_actors", "spi.lower", None),
    ("repro.spi.runtime:SpiSystem.compile", "spi.compile",
     lambda s: {"spi.channels": len(s.channel_plans)}),
    ("repro.spi.runtime:build_selftimed_schedule", "mapping.schedule", None),
    ("repro.spi.runtime:build_ipc_graph", "mapping.sync_graph", None),
    ("repro.spi.runtime:derive_sync_graph", "mapping.sync_graph",
     lambda g: {"mapping.sync_edges": len(g.edges)}),
    ("repro.spi.runtime:resynchronize", "mapping.resync", _resync_counts),
    ("repro.service.cache:resynchronize", "mapping.resync", _resync_counts),
    ("repro.mapping.resync:maximum_cycle_mean", "mapping.mcm", None),
    ("repro.spi.runtime:maximum_cycle_mean_result", "mapping.mcm", None),
    ("repro.spi.runtime:SpiSystem.run", "platform.run", _run_counts),
    ("repro.observability:build_metrics_document",
     "observability.export", None),
    ("repro.observability:validate_metrics", "observability.export", None),
    ("repro.conformance.generator:generate_spec", "conformance.spec", None),
    ("repro.conformance.spec:build_case", "conformance.spec", None),
    ("repro.conformance.oracles:run_reference", "conformance.reference",
     None),
    ("repro.conformance.oracles:run_oracle_stack", "conformance.oracle",
     None),
    ("repro.mpi.baseline:MpiSystem.compile", "mpi.baseline", None),
    ("repro.mpi.baseline:MpiSystem.run", "mpi.baseline", None),
)


class Tracer:
    """Span and counter recorder; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.op: Optional[object] = None
        self._stack: List[int] = []
        self._installed: List[tuple] = []

    @property
    def installed(self) -> bool:
        return bool(self._installed)

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        if self.op is None:
            yield
            return
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [name, perf_counter(), 0.0, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = perf_counter()
        self._stack.pop()

    def current(self) -> Optional[str]:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _wrap(self, fn: Callable, name: str, count) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            record = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(record)
            if count is not None:
                tracer.counts.update(count(result))
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every hook, plus the counter-only probes below."""
        for target, name, count in HOOKS:
            self._patch(target, lambda fn, n=name, c=count: self._wrap(fn, n, c))
        self._patch("repro.dataflow.graph:Actor.fire", self._kernel_only)
        self._patch("repro.platform.simulator:Simulator.run", self._sim_probe)
        self._patch("repro.service.cache:AnalysisCache.key_for", self._key_probe)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _patch(self, target: str, make: Callable[[Callable], Callable]) -> None:
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *classes, attr = path.split(".")
        for cls_name in classes:
            owner = getattr(owner, cls_name)
        raw = owner.__dict__[attr] if classes else getattr(owner, attr)
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._installed.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def _kernel_only(self, fire: Callable) -> Callable:
        """Structural actors (no kernel) run no application code: only
        firings of a real kernel count as ``apps.kernel`` spans."""
        traced = self._wrap(fire, "apps.kernel", None)

        @functools.wraps(fire)
        def dispatch(actor, firing_index, inputs):
            if actor.kernel is None:
                return fire(actor, firing_index, inputs)
            return traced(actor, firing_index, inputs)

        return dispatch

    def _sim_probe(self, run: Callable) -> Callable:
        tracer = self

        @functools.wraps(run)
        def probed(sim, *args, **kwargs):
            final = run(sim, *args, **kwargs)
            if tracer.op is not None and tracer.current() == "platform.run":
                tracer.counts["platform.events"] += sim.events_processed
                tracer.counts["platform.spurious_wakeups"] += (
                    sim.spurious_wakeups
                )
                tracer.counts["platform.total_wakeups"] += sim.total_wakeups
            return final

        return probed

    def _key_probe(self, key_for: Callable) -> Callable:
        tracer = self

        @functools.wraps(key_for)
        def probed(cache, *args, **kwargs):
            key = key_for(cache, *args, **kwargs)
            if tracer.op is not None:
                tracer.counts["service.keyed_compiles"] += 1
                tracer.counts["service.bypassed_compiles"] += key is None
            return key

        return probed

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> List[float]:
        """Per span: duration minus the time its direct children cover
        (children never overlap: the benchmark is single-threaded)."""
        self_time = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                self_time[parent] -= end - start
        return self_time

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, inclusive and self seconds."""
        out: Dict[str, Dict[str, float]] = {}
        for (name, start, end, _, _), own in zip(self.spans, self.self_times()):
            entry = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
            entry["calls"] += 1
            entry["total"] += end - start
            entry["self"] += own
        return out

    def probes_under(self, child: str, parent: str) -> int:
        """How many ``child`` spans ran directly inside a ``parent`` span."""
        return sum(
            1
            for name, _, _, up, _ in self.spans
            if name == child and up >= 0 and self.spans[up][0] == parent
        )

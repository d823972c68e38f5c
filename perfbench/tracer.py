"""In-memory span tracer and the layer wrappers the traced run installs.

The traced run wraps the public entry points of each ``repro`` layer
from the outside (no file under ``src/`` changes): every call becomes a
span with a name, start, end, parent span and request id.  Spans stay
in memory; :meth:`Tracer.write_chrome` writes them out once, at the
end, as Chrome-trace JSON that Perfetto loads.  Aggregates (calls,
total and self time) are exact for every call; the span buffer keeps
the first ``per_name_limit`` spans of each name so the trace file stays
small.

A layer's self time is its spans' duration minus the part their child
spans cover.  Nested calls with the same span name (a subclass method
calling ``super()``) fold into the outer span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from pathlib import Path

_clock = time.perf_counter_ns


class _ThreadState:
    def __init__(self, tid: int) -> None:
        self.tid = tid
        #: Open frames: [name, start_ns, child_ns, span_id, request, parent].
        self.stack: list = []
        #: name -> [calls, total_ns, self_ns]
        self.totals: dict = {}
        self.counters: dict = {}
        self.request: "str | None" = None


class Tracer:
    def __init__(self, per_name_limit: int = 2000) -> None:
        self.per_name_limit = per_name_limit
        self._local = threading.local()
        self._states: "list[_ThreadState]" = []
        self._states_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._kept: dict = {}
        #: (name, start_ns, end_ns, span_id, parent_id, request, tid)
        self.spans: list = []
        self.origin_ns = _clock()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(len(self._states) + 1)
            with self._states_lock:
                self._states.append(state)
            self._local.state = state
        return state

    # -- recording ------------------------------------------------------

    def set_request(self, request: "str | None") -> None:
        """Request id for spans this thread opens outside any span."""
        self._state().request = request

    def enter(self, name: str, request: "str | None" = None):
        """Open a span; returns its frame, or ``None`` when it folds into
        an enclosing span of the same name."""
        state = self._state()
        stack = state.stack
        if stack:
            top = stack[-1]
            if top[0] == name:
                return None
            parent, inherited = top[3], top[4]
        else:
            parent, inherited = 0, state.request
        frame = [
            name,
            _clock(),
            0,
            next(self._ids),
            request if request is not None else inherited,
            parent,
        ]
        stack.append(frame)
        return frame

    def exit(self, frame, keep: bool = True) -> None:
        """Close ``frame``; ``keep=False`` discards it from the counts
        (its time still counts towards the parent)."""
        if frame is None:
            return
        end = _clock()
        state = self._state()
        state.stack.pop()
        duration = end - frame[1]
        if state.stack:
            state.stack[-1][2] += duration
        if not keep:
            return
        name = frame[0]
        totals = state.totals.get(name)
        if totals is None:
            totals = state.totals[name] = [0, 0, 0]
        totals[0] += 1
        totals[1] += duration
        totals[2] += duration - frame[2]
        kept = self._kept.get(name, 0)
        if kept < self.per_name_limit:
            self._kept[name] = kept + 1
            self.spans.append(
                (name, frame[1], end, frame[3], frame[5], frame[4], state.tid)
            )

    def count(self, name: str, amount: float = 1) -> None:
        counters = self._state().counters
        counters[name] = counters.get(name, 0) + amount

    # -- reading --------------------------------------------------------

    def totals(self) -> "dict[str, list]":
        merged: dict = {}
        for state in list(self._states):
            for name, (calls, total, own) in state.totals.items():
                entry = merged.setdefault(name, [0, 0, 0])
                entry[0] += calls
                entry[1] += total
                entry[2] += own
        return merged

    def counters(self) -> dict:
        merged: dict = {}
        for state in list(self._states):
            for name, value in state.counters.items():
                merged[name] = merged.get(name, 0) + value
        return merged

    def write_chrome(self, path: Path) -> int:
        """Write every kept span as a Chrome ``X`` event; returns the
        number of events written."""
        events = []
        for name, start, end, span_id, parent, request, tid in self.spans:
            args = {"id": span_id, "parent": parent}
            if request is not None:
                args["request"] = str(request)
            events.append(
                {
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "ts": (start - self.origin_ns) / 1e3,
                    "dur": (end - start) / 1e3,
                    "pid": 1,
                    "tid": tid,
                    "args": args,
                }
            )
        events.sort(key=lambda event: (event["tid"], event["ts"]))
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"traceEvents": events, "displayTimeUnit": "ms"}, handle
            )
        return len(events)


# ----------------------------------------------------------------------
# Layer wrappers
# ----------------------------------------------------------------------

def _label(value) -> "str | None":
    return getattr(value, "label", None)


def _migrated_pages(tracer: Tracer, report) -> None:
    tracer.count("vmm.migrate_pages", getattr(report, "pages_moved", 0))


def _cache_hit(tracer: Tracer, result) -> None:
    tracer.count("parallel.cache_hits", result is not None)


#: (module, class or None, attribute, span name, request-id extractor,
#: result hook).  A class entry wraps the attribute on the class and on
#: every subclass that defines its own.
TARGETS = [
    ("repro.sim.engine", "SimulationEngine", "__init__", "engine.setup",
     None, None),
    ("repro.sim.engine", "SimulationEngine", "run", "engine.run",
     None, None),
    ("repro.sim.engine", "SimulationEngine", "step", "engine.step",
     None, None),
    ("repro.sim.engine", "SimulationEngine", "_memory_demands",
     "hw.demand", None, None),
    ("repro.hw.timing", "MemoryTimingModel", "stall_ns", "hw.stall",
     None, None),
    ("repro.guestos.kernel", "GuestKernel", "allocate_region",
     "guestos.alloc", None, None),
    ("repro.guestos.kernel", "GuestKernel", "free_region",
     "guestos.free", None, None),
    ("repro.guestos.kernel", "GuestKernel", "touch_region",
     "guestos.touch", None, None),
    ("repro.vmm.hotness", "HotnessTracker", "scan", "vmm.scan",
     None, None),
    ("repro.vmm.migration", "MigrationEngine", "migrate", "vmm.migrate",
     None, _migrated_pages),
    ("repro.vmm.balloon_backend", "BalloonBackend", "request_pages",
     "vmm.balloon", None, None),
    ("repro.vmm.balloon_backend", "BalloonBackend", "return_pages",
     "vmm.balloon", None, None),
    ("repro.sim.multi_vm", "MultiVmSimulation", "run", "multi_vm.run",
     None, None),
    ("repro.sim.parallel", None, "run_specs", "parallel.run_specs",
     None, None),
    ("repro.sim.parallel", None, "source_fingerprint",
     "parallel.fingerprint", None, None),
    ("repro.sim.parallel", "ResultCache", "lookup",
     "parallel.cache_lookup", lambda args: _label(args[1]), _cache_hit),
    ("repro.sim.parallel", "ResultCache", "store", "parallel.cache_store",
     lambda args: _label(args[1]), None),
    ("repro.sim.parallel", "SweepJournal", "record",
     "parallel.journal_record", lambda args: _label(args[1]), None),
    ("repro.obs.bus", "Telemetry", "publish", "obs.publish", None, None),
    ("repro.serve.client", "ServeClient", "submit", "serve.submit",
     None, None),
    ("repro.serve.client", "ServeClient", "wait", "serve.wait",
     lambda args: str(args[1]), None),
]


def _subclasses(base: type) -> "list[type]":
    found, pending = [base], [base]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                pending.append(sub)
    return found


def _method_wrapper(tracer, original, name, request, on_result):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(
            name(args) if callable(name) else name,
            request(args) if request is not None else None,
        )
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if on_result is not None:
            on_result(tracer, result)
        return result

    return wrapper


def _generator_wrapper(tracer, original, name):
    """Times each ``next()`` on the generator; the final, exhausting
    ``next()`` is not counted as an item."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        iterator = original(*args, **kwargs)
        while True:
            frame = tracer.enter(name)
            try:
                item = next(iterator)
            except StopIteration:
                tracer.exit(frame, keep=False)
                return
            except BaseException:
                tracer.exit(frame)
                raise
            tracer.exit(frame)
            yield item

    return wrapper


def _policy_name(args) -> str:
    return f"core.epoch_end.{getattr(args[0], 'name', '') or 'unnamed'}"


class Installation:
    """The wrappers one :func:`install` call put in place."""

    def __init__(self) -> None:
        self._patches: list = []

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer) -> Installation:
    """Wrap every layer entry point in :data:`TARGETS`, each workload's
    epoch generator, and each policy's ``on_epoch_end``.

    Import every module that defines subclasses (drivers, policies,
    workloads) before calling, so their overrides are wrapped too.
    """
    done = Installation()
    for module_name, class_name, attr, name, request, on_result in TARGETS:
        module = importlib.import_module(module_name)
        if class_name is None:
            done.patch(
                module, attr,
                _method_wrapper(
                    tracer, getattr(module, attr), name, request, on_result
                ),
            )
            continue
        for cls in _subclasses(getattr(module, class_name)):
            if attr in cls.__dict__:
                done.patch(
                    cls, attr,
                    _method_wrapper(
                        tracer, cls.__dict__[attr], name, request, on_result
                    ),
                )
    from repro.core.policy import PlacementPolicy
    from repro.workloads.base import Workload

    for cls in _subclasses(Workload):
        original = cls.__dict__.get("epochs")
        if original is not None and inspect.isgeneratorfunction(original):
            done.patch(
                cls, "epochs", _generator_wrapper(tracer, original, "workloads.gen")
            )
    for cls in _subclasses(PlacementPolicy):
        if "on_epoch_end" in cls.__dict__:
            done.patch(
                cls, "on_epoch_end",
                _method_wrapper(
                    tracer, cls.__dict__["on_epoch_end"], _policy_name,
                    None, None,
                ),
            )
    return done

"""Timing wrappers around each layer's public entry points, from outside.

:func:`install` wraps the entry points listed in :data:`TARGETS` with a
recorder that adds up, per layer, calls, wall time (``perf_counter``) and
CPU time of the calling thread (``thread_time``).  Only the outermost call
of a layer on a thread is timed, so recursion and layer-internal re-entry
are not counted twice.  A function imported by name into another module is
a separate binding: the wrapper replaces every binding of the original in
every loaded ``repro`` module.  A target that no longer exists is reported
as absent with a reason instead of failing, so the benchmark keeps working
when a later change removes a layer.

Aggregates stay in memory; :meth:`Recorder.dump` writes them as JSON.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time

#: (layer, module, qualified name) of every wrapped entry point.  Several
#: targets may feed one layer; the layer is timed once per outermost call.
TARGETS = [
    ("protocol.decode", "repro.service.protocol", "decode_request"),
    ("protocol.encode", "repro.service.protocol", "encode_response"),
    ("workloads.build", "repro.workloads.ec1", "build_ec1"),
    ("workloads.build", "repro.workloads.ec2", "build_ec2"),
    ("workloads.build", "repro.workloads.ec3", "build_ec3"),
    ("service.submit", "repro.service.service", "OptimizerService.submit"),
    ("shard.submit", "repro.service.shard", "Shard.submit"),
    ("scheduler.item", "repro.service.scheduler", "WaveScheduler.submit"),
    ("optimizer", "repro.chase.optimizer", "CBOptimizer.optimize"),
    ("chase.cached", "repro.chase.implication", "ChaseCache.chase_result"),
    ("chase.run", "repro.chase.chase", "chase"),
    ("backchase", "repro.chase.backchase", "FullBackchase.run"),
    ("backchase", "repro.chase.backchase", "ParallelBackchase.run"),
    ("memo.check", "repro.cq.memo", "ContainmentMemo.check"),
    ("containment.search", "repro.cq.containment", "has_containment_mapping"),
    ("query.signature", "repro.cq.query", "PCQuery.signature"),
]

#: Modules imported before wrapping, so by-name imports are visible.
PRELOAD = [
    "repro.cli",
    "repro.service",
    "repro.service.server",
    "repro.service.protocol",
    "repro.service.service",
    "repro.service.shard",
    "repro.service.scheduler",
    "repro.chase.optimizer",
    "repro.chase.implication",
    "repro.chase.backchase",
    "repro.chase.chase",
    "repro.cq.memo",
    "repro.cq.containment",
    "repro.cq.query",
    "repro.workloads",
]


class Layer:
    __slots__ = ("calls", "wall", "cpu", "items")

    def __init__(self):
        self.calls = 0
        self.wall = 0.0
        self.cpu = 0.0
        self.items = {}

    def as_dict(self):
        return {"calls": self.calls, "wall_s": self.wall, "cpu_s": self.cpu, "items": self.items}


class Recorder:
    """Per-layer aggregates of every wrapped call, and the wrapping itself."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.layers = {}
        self.absent = {}
        #: Queries admitted by ``Shard.submit``, by ``id(query)``: the time
        #: their ``CBOptimizer.optimize`` starts closes the queue wait.
        self._admitted = {}

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def add(self, layer, wall=0.0, cpu=0.0, calls=1, **items):
        with self._lock:
            entry = self.layers.get(layer)
            if entry is None:
                entry = self.layers[layer] = Layer()
            entry.calls += calls
            entry.wall += wall
            entry.cpu += cpu
            for name, value in items.items():
                entry.items[name] = entry.items.get(name, 0) + value

    def merge(self, layers):
        """Add the per-layer aggregates of a :meth:`snapshot` to this one."""
        for name, layer in layers.items():
            self.add(name, layer["wall_s"], layer["cpu_s"], layer["calls"], **layer["items"])

    def reset(self):
        with self._lock:
            self.layers = {}

    def snapshot(self):
        with self._lock:
            return {
                "layers": {name: layer.as_dict() for name, layer in self.layers.items()},
                "absent": dict(self.absent),
            }

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle)

    def _active(self):
        active = getattr(self._local, "active", None)
        if active is None:
            active = self._local.active = set()
        return active

    def wrap(self, layer, original, after=None, before=None):
        """A timing wrapper; ``after(result, wall)`` returns extra item counts."""
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            active = recorder._active()
            if layer in active:
                return original(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            active.add(layer)
            wall0, cpu0 = time.perf_counter(), time.thread_time()
            try:
                result = original(*args, **kwargs)
            finally:
                wall = time.perf_counter() - wall0
                cpu = time.thread_time() - cpu0
                active.discard(layer)
            items = after(result, wall) if after is not None else {}
            recorder.add(layer, wall, cpu, **items)
            return result

        wrapper.__wrapped_layer__ = layer
        return wrapper

    # ------------------------------------------------------------------ #
    # per-target hooks
    # ------------------------------------------------------------------ #
    def _shard_submit_before(self, args, kwargs):
        request = args[1] if len(args) > 1 else kwargs.get("request")
        query = getattr(request, "query", None)
        if query is not None:
            with self._lock:
                self._admitted[id(query)] = (query, time.perf_counter())

    def _optimize_before(self, args, kwargs):
        query = args[1] if len(args) > 1 else kwargs.get("query")
        with self._lock:
            admitted = self._admitted.pop(id(query), None)
        if admitted is not None and admitted[0] is query:
            self.add("shard.queue_wait", time.perf_counter() - admitted[1])

    def _nested_in(self, outer):
        """``after`` hook splitting calls by whether ``outer`` is on the stack:
        a call under ``outer`` is one of its misses, one outside it is a
        direct call whose time ``outer`` does not already include."""

        def after(result, wall):
            if outer in self._active():
                return {"under_" + outer: 1}
            return {"direct": 1, "direct_wall_s": wall}

        return after

    def _chase_after(self, result, wall):
        counters = getattr(result, "counters", None)
        items = self._nested_in("chase.cached")(result, wall)
        items["closure_queries"] = getattr(counters, "closure_queries", 0)
        return items

    @staticmethod
    def _backchase_after(result, wall):
        return {
            "subqueries_explored": getattr(result, "subqueries_explored", 0),
            "plans": len(getattr(result, "plans", ()) or ()),
        }

    def _scheduler_submit(self, original):
        """Wrap the work function each scheduled item runs, to time its CPU."""
        recorder = self

        @functools.wraps(original)
        def wrapper(scheduler, request_id, fn, payload, trace=None):
            def timed(item_payload):
                wall0, cpu0 = time.perf_counter(), time.thread_time()
                try:
                    return fn(item_payload)
                finally:
                    recorder.add(
                        "scheduler.item",
                        time.perf_counter() - wall0,
                        time.thread_time() - cpu0,
                    )

            return original(scheduler, request_id, timed, payload, trace=trace)

        return wrapper

    # ------------------------------------------------------------------ #
    # installation
    # ------------------------------------------------------------------ #
    def install(self, targets=TARGETS, preload=PRELOAD):
        for module_name in preload:
            try:
                importlib.import_module(module_name)
            except ImportError as error:
                self.absent[module_name] = f"module not importable: {error}"
        hooks = {
            "shard.submit": {"before": self._shard_submit_before},
            "optimizer": {"before": self._optimize_before},
            "chase.run": {"after": self._chase_after},
            "containment.search": {"after": self._nested_in("memo.check")},
            "backchase": {"after": self._backchase_after},
        }
        for layer, module_name, qualname in targets:
            target = f"{module_name}.{qualname}"
            try:
                module = importlib.import_module(module_name)
            except ImportError as error:
                self.absent[target] = f"module not importable: {error}"
                continue
            owner, _, attribute = qualname.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            original = getattr(holder, attribute, None) if holder is not None else None
            if original is None:
                self.absent[target] = "entry point not found"
                continue
            if qualname == "WaveScheduler.submit":
                wrapped = self._scheduler_submit(original)
            else:
                wrapped = self.wrap(layer, original, **hooks.get(layer, {}))
            setattr(holder, attribute, wrapped)
            if not owner:
                _rebind(original, wrapped)
        return self


def _rebind(original, wrapped):
    """Replace by-name bindings of ``original`` in every loaded repro module,
    including registry dicts such as ``protocol.WORKLOAD_BUILDERS``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, wrapped)
            elif isinstance(value, dict):
                for key, entry in list(value.items()):
                    if entry is original:
                        value[key] = wrapped
                    elif isinstance(entry, tuple) and original in entry:
                        value[key] = tuple(wrapped if part is original else part for part in entry)

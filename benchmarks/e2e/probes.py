"""Outside-in per-layer timing: wrap each layer's public entry points.

The benchmark times the program's layers without touching ``src/``: a
:class:`Recorder` replaces the entry points listed in :data:`PROBES`
with timing wrappers before the system is built, and restores the
originals on :meth:`Recorder.uninstall`.

Attribution rules:

* Each probed call is a frame on a per-thread stack.  A layer's
  ``self_s`` is its frames' wall time minus the time of probed frames
  nested inside them, so self times partition a root frame's wall time.
* Simulator callbacks are wrapped where they are scheduled
  (``Simulator.at`` / ``FastSimulator.at``) and charged to the layer of
  the module that defines them (:data:`CALLBACK_LAYERS`).  Completion
  callbacks handed to the I/O model and the flow engine are wrapped the
  same way, so work done on a flow's completion lands in the layer that
  asked for it, not in the solver that noticed it.
* Module-level functions are patched where they are looked up (for
  example ``repro.workload.live.event_from_dict``), because callers
  bind them at import time.
* The ``caller -> callee`` edge table is keyed by layer names only, so
  its memory is bounded by the number of layers squared.
"""

from __future__ import annotations

import functools
import importlib
import threading
from time import perf_counter

#: Layer of a simulator callback, by the module that defines it.
CALLBACK_LAYERS = {
    "repro.engine.runner": "engine.apply",
    "repro.engine.scheduler": "engine.scheduler",
    "repro.engine.iomodel": "engine.iomodel",
    "repro.engine.flows": "engine.flows.repair",
    "repro.core.monitor": "core.monitor",
    "repro.core.manager": "core.tick",
    "repro.core.training": "core.tick",
}

#: Layer charged for callbacks from any other module.
OTHER_LAYER = "other"

#: ``(module, attribute path, layer, callback argument)`` for every probe.
#: The callback argument, when set, names a parameter whose callable is
#: wrapped by :meth:`Recorder.callback` before the call.  A layer of
#: ``None`` wraps the callback argument without timing the call itself.
PROBES = (
    ("repro.engine.runner", "WorkloadRunner.__init__", "engine.build", None),
    ("repro.engine.runner", "WorkloadRunner.run", "sim.loop", None),
    ("repro.sim.simulator", "Simulator.at", None, "callback"),
    ("repro.sim.fastsim", "FastSimulator.at", None, "callback"),
    ("repro.workload.synthesis", "synthesize_trace", "workload.gen", None),
    ("repro.workload.live", "event_from_dict", "workload.decode", None),
    ("repro.engine.scheduler", "TaskScheduler.submit", "engine.scheduler", None),
    ("repro.engine.iomodel", "IoModel.start_read", "engine.iomodel", None),
    ("repro.engine.iomodel", "IoModel.start_write", "engine.iomodel", None),
    ("repro.engine.iomodel", "IoModel.read", "engine.iomodel", "on_complete"),
    ("repro.engine.iomodel", "IoModel.write", "engine.iomodel", "on_complete"),
    ("repro.engine.iomodel", "IoModel.transfer", "engine.iomodel", "on_complete"),
    ("repro.engine.flows", "FairShareEngine.submit", None, "on_complete"),
    ("repro.engine.flows", "compute_max_min_rates", "engine.flows.solve", None),
    (
        "repro.engine.flows",
        "compute_max_min_rates_vectorized",
        "engine.flows.solve",
        None,
    ),
    ("repro.dfs.master", "Master.read_file", "dfs.read", None),
    ("repro.dfs.master", "Master.begin_transfer", "dfs.transfer", None),
    ("repro.dfs.master", "Master.commit_transfer", "dfs.transfer", None),
    ("repro.dfs.master", "Master.abort_transfer", "dfs.transfer", None),
    ("repro.dfs.master", "Master.create_file", "dfs.create", None),
    ("repro.dfs.master", "Master.delete_file", "dfs.delete", None),
    ("repro.core.manager", "ReplicationManager.on_file_created", "core.listener", None),
    (
        "repro.core.manager",
        "ReplicationManager.on_file_accessed",
        "core.listener",
        None,
    ),
    ("repro.core.manager", "ReplicationManager.on_file_deleted", "core.listener", None),
    ("repro.core.manager", "ReplicationManager.run_downgrade", "core.downgrade", None),
    ("repro.core.manager", "ReplicationManager.run_upgrade", "core.upgrade", None),
    ("repro.core.monitor", "ReplicationMonitor.submit_downgrade", "core.monitor", None),
    ("repro.core.monitor", "ReplicationMonitor.submit_upgrade", "core.monitor", None),
    ("repro.ml.gbt", "GradientBoostedTrees.fit", "ml.train", None),
    ("repro.ml.gbt", "GradientBoostedTrees.fit_increment", "ml.train", None),
    ("repro.ml.gbt", "GradientBoostedTrees.predict_margin", "ml.predict", None),
    ("repro.ml.access_model", "FileAccessModel.add_observation", "ml.observe", None),
    ("repro.service.engine", "ServiceEngine._feed", "service.ingest", None),
    ("repro.service.engine", "ServiceEngine.metrics", "service.ctl", None),
    ("repro.service.mux", "TenantMux.feed", "service.feed", None),
)

#: Placement entry points, probed on every concrete policy class that
#: defines them (``dfs.place``).
PLACEMENT_METHODS = ("place_block", "select_transfer_target")

#: Every layer a probe or callback can be charged to, in report order.
LAYERS = (
    "sim.loop",
    "workload.gen",
    "workload.decode",
    "engine.build",
    "engine.apply",
    "engine.scheduler",
    "engine.iomodel",
    "engine.flows.solve",
    "engine.flows.repair",
    "dfs.read",
    "dfs.place",
    "dfs.transfer",
    "dfs.create",
    "dfs.delete",
    "core.listener",
    "core.downgrade",
    "core.upgrade",
    "core.monitor",
    "core.tick",
    "ml.train",
    "ml.predict",
    "ml.observe",
    "service.ingest",
    "service.feed",
    "service.ctl",
    OTHER_LAYER,
)


class _ThreadState:
    """One thread's frame stack and accumulators (merged at report time)."""

    __slots__ = ("stack", "layers", "edges", "tree_self", "tree_total")

    def __init__(self) -> None:
        #: Open frames: ``[layer, child_seconds, root_layer]``.
        self.stack = []
        #: layer -> [calls, self seconds, inclusive seconds]
        self.layers = {}
        #: (caller layer, callee layer) -> [calls, inclusive seconds]
        self.edges = {}
        #: root layer -> summed self seconds of every frame under it
        self.tree_self = {}
        #: root layer -> summed inclusive seconds of its root frames
        self.tree_total = {}


class Recorder:
    """Installs the probes, accumulates layer timings, restores originals."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states = []
        self._states_lock = threading.Lock()
        self._patches = []
        self._layer_of_module = dict(CALLBACK_LAYERS)

    # -- accounting ----------------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._states_lock:
                self._states.append(state)
        return state

    def timed(self, fn, layer: str):
        """``fn`` wrapped so each call is a frame charged to ``layer``."""
        state_of = self._state

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            state = state_of()
            stack = state.stack
            parent = stack[-1] if stack else None
            frame = [layer, 0.0, parent[2] if parent is not None else layer]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                total = perf_counter() - start
                stack.pop()
                own = total - frame[1]
                acc = state.layers.get(layer)
                if acc is None:
                    acc = state.layers[layer] = [0, 0.0, 0.0]
                acc[0] += 1
                acc[1] += own
                acc[2] += total
                root = frame[2]
                state.tree_self[root] = state.tree_self.get(root, 0.0) + own
                if parent is None:
                    state.tree_total[root] = state.tree_total.get(root, 0.0) + total
                else:
                    parent[1] += total
                    key = (parent[0], layer)
                    edge = state.edges.get(key)
                    if edge is None:
                        edge = state.edges[key] = [0, 0.0]
                    edge[0] += 1
                    edge[1] += total

        return probe

    def callback_layer(self, callback) -> str:
        """The layer a scheduled or completion callback is charged to."""
        target = callback
        while True:
            if isinstance(target, functools.partial):
                target = target.func
                continue
            owner = getattr(target, "__self__", None)
            inner = getattr(owner, "_callback", None)
            if inner is not None and type(owner).__name__ == "PeriodicTimer":
                target = inner
                continue
            break
        module = getattr(getattr(target, "__func__", target), "__module__", None)
        layer = self._layer_of_module.get(module)
        if layer is None:
            layer = self._layer_of_module[module] = OTHER_LAYER
        return layer

    def callback(self, callback):
        """``callback`` wrapped as a frame of its defining module's layer."""
        return self.timed(callback, self.callback_layer(callback))

    # -- patching ------------------------------------------------------------
    def _wrap_arg(self, fn, arg_name: str, layer):
        """Wrap ``fn`` so its ``arg_name`` callable becomes a probed callback."""
        code = fn.__code__
        index = code.co_varnames[: code.co_argcount].index(arg_name)
        wrap_callback = self.callback

        @functools.wraps(fn)
        def rewrap(*args, **kwargs):
            if len(args) > index:
                args = list(args)
                args[index] = wrap_callback(args[index])
            elif arg_name in kwargs:
                kwargs[arg_name] = wrap_callback(kwargs[arg_name])
            return fn(*args, **kwargs)

        return self.timed(rewrap, layer) if layer is not None else rewrap

    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def install(self) -> "Recorder":
        """Replace every probed entry point (idempotent per recorder)."""
        if self._patches:
            return self
        for module_name, path, layer, arg_name in PROBES:
            owner = importlib.import_module(module_name)
            *outer, name = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = owner.__dict__[name]
            if arg_name is not None:
                self._patch(owner, name, self._wrap_arg(fn, arg_name, layer))
            else:
                self._patch(owner, name, self.timed(fn, layer))
        placement = importlib.import_module("repro.dfs.placement")
        for cls in vars(placement).values():
            if not isinstance(cls, type) or not issubclass(
                cls, placement.PlacementPolicy
            ):
                continue
            if cls is placement.PlacementPolicy:
                continue
            for name in PLACEMENT_METHODS:
                if name in cls.__dict__:
                    self._patch(cls, name, self.timed(cls.__dict__[name], "dfs.place"))
        return self

    def uninstall(self) -> None:
        """Restore every original, newest patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- reporting -----------------------------------------------------------
    def snapshot(self) -> dict:
        """Merged per-layer totals, edges and root-tree sums (JSON-ready)."""
        layers = {layer: [0, 0.0, 0.0] for layer in LAYERS}
        edges = {}
        tree_self = {}
        tree_total = {}
        with self._states_lock:
            states = list(self._states)
        for state in states:
            for layer, (calls, own, total) in state.layers.items():
                acc = layers.setdefault(layer, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += own
                acc[2] += total
            for key, (calls, seconds) in state.edges.items():
                acc = edges.setdefault(key, [0, 0.0])
                acc[0] += calls
                acc[1] += seconds
            for root, seconds in state.tree_self.items():
                tree_self[root] = tree_self.get(root, 0.0) + seconds
            for root, seconds in state.tree_total.items():
                tree_total[root] = tree_total.get(root, 0.0) + seconds
        return {
            "layers": {
                layer: {"calls": c, "self_s": s, "total_s": t}
                for layer, (c, s, t) in layers.items()
            },
            "edges": [
                {"caller": a, "callee": b, "calls": c, "seconds": s}
                for (a, b), (c, s) in sorted(edges.items())
            ],
            "tree_self": tree_self,
            "tree_total": tree_total,
        }

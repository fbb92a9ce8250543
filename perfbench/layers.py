"""Layer tracer: per-layer self time, measured from outside the simulator.

The traced pass of a workload wraps the public entry points of each
layer (model IR build, cluster graph build, wizard, compile, event loop,
summaries, sweep runner, result cache, replay, replay sink, Session) and
charges every wrapped call's *self* time — its wall time minus the time
spent in nested wrapped calls — to the layer that owns it. Nothing under
``src/`` changes: wrappers are installed by rebinding the functions and
methods on their modules and classes, including every ``from x import f``
alias already bound in a loaded ``repro`` module.

Pool workers fork from the traced process, so they inherit the wrappers.
Each worker keeps its own totals and, after every pool task, rewrites
them to ``<trace_dir>/worker-<pid>.json``; :meth:`LayerTracer.collect`
adds those files to the main process's totals once the pool is gone.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

#: layer name -> (module, attribute path) of each wrapped entry point.
#: Attribute paths with a dot are methods; a missing target is skipped,
#: so the tracer keeps working when a later revision deletes one.
LAYER_TARGETS = (
    ("models.build_model", "repro.models", "build_model"),
    ("backends.build_comm_graph", "repro.backends", "build_comm_graph"),
    ("backends.prepare_comm_schedule", "repro.backends", "prepare_comm_schedule"),
    ("sim.compiled_core", "repro.sim.engine", "CompiledCore.__init__"),
    ("sim.summarize", "repro.sim.metrics", "summarize_iteration"),
    ("sweep.run_cells", "repro.sweep.runner", "SweepRunner.run_cells"),
    ("sweep.cache_put", "repro.sweep.cache", "ResultCache.put"),
    ("replay", "repro.replay.engine", "replay"),
    ("replay.sink", "repro.replay.sink", "CsvChunkSink.append"),
    ("replay.sink", "repro.replay.sink", "CsvChunkSink.close"),
    ("api.session_run", "repro.api.session", "Session.run"),
)

#: generator entry points of the event loop; every yielded record is
#: one simulated iteration (the batched lane yields one per variant row).
LOOP_TARGETS = (
    ("repro.sim.engine", "SimVariant.iter_iterations"),
    ("repro.sim.engine", "iter_variant_records"),
)

#: pool-task entry points of the sweep runner; a worker flushes its
#: totals after each one returns.
WORKER_ENTRIES = (
    "_run_group",
    "_prepare_group",
    "_prepare_schedules",
    "_run_shared_cell",
    "_run_shared_cells_batched",
)


def _resolve(module_name: str, path: str):
    """(owner, attribute name, current value) or None when absent."""
    owner = sys.modules.get(module_name)
    if owner is None:
        __import__(module_name)
        owner = sys.modules[module_name]
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    if value is None:
        return None
    return owner, name, value


class LayerTracer:
    """Self-time accounting over a stack of wrapped calls."""

    def __init__(self, trace_dir: str) -> None:
        self.trace_dir = trace_dir
        self._owner_pid = os.getpid()
        self._reset()

    def _reset(self) -> None:
        """Zero the totals; also the first act of a forked worker, whose
        copied totals and memo counters belong to the main process."""
        from repro.backends import memo_stats

        self.pid = os.getpid()
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.loop_iterations = 0
        #: inclusive seconds of each ``run_cells`` call made inside
        #: ``replay`` — one rate cell (a composition or a dedicated job).
        self.composition_s: list[float] = []
        self._memo0 = memo_stats()
        self._stack: list[list] = []  # [layer, start, child seconds]

    # -- accounting -----------------------------------------------------
    def _enter(self, layer: str) -> None:
        if os.getpid() != self.pid:  # first call in a forked worker
            self._reset()
        self._stack.append([layer, time.perf_counter(), 0.0])

    def _exit(self) -> float:
        layer, start, child = self._stack.pop()
        elapsed = time.perf_counter() - start
        self.self_s[layer] += elapsed - child
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][2] += elapsed
        return elapsed

    def _in(self, layer: str) -> bool:
        return any(frame[0] == layer for frame in self._stack)

    # -- wrappers -------------------------------------------------------
    def _wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = self._exit()
                if layer == "sweep.run_cells" and self._in("replay"):
                    self.composition_s.append(elapsed)

        return wrapper

    def _wrap_loop(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                self._enter("sim.loop")
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._exit()
                if not self._in("sim.loop"):  # the batched lane nests
                    self.loop_iterations += 1
                yield item

        return wrapper

    def _wrap_entry(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                self._flush_worker()

        return wrapper

    def _flush_worker(self) -> None:
        if os.getpid() == self._owner_pid:
            return  # the main process ran the task itself (jobs=1 lane)
        if os.getpid() != self.pid:
            self._reset()
        path = os.path.join(self.trace_dir, f"worker-{os.getpid()}.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self._snapshot(), fh)
        os.replace(tmp, path)

    def _snapshot(self) -> dict:
        from repro.backends import memo_stats

        memo = {k: v - self._memo0.get(k, 0) for k, v in memo_stats().items()}
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "loop_iterations": self.loop_iterations,
            "memo": memo,
        }

    # -- install / collect ---------------------------------------------
    def install(self) -> None:
        """Wrap every target and rebind all aliases in loaded modules."""
        targets = [(m, p, functools.partial(self._wrap, layer)) for layer, m, p in LAYER_TARGETS]
        targets += [(m, p, self._wrap_loop) for m, p in LOOP_TARGETS]
        targets += [("repro.sweep.runner", name, self._wrap_entry) for name in WORKER_ENTRIES]
        replaced: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for module_name, path, make_wrapper in targets:
            found = _resolve(module_name, path)
            if found is not None:
                owner, name, fn = found
                wrapped = make_wrapper(fn)
                setattr(owner, name, wrapped)
                replaced[id(fn)] = (fn, wrapped)
        # ``from ..backends import build_comm_graph`` made module-level
        # aliases at import time: rebind those to the wrappers too.
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def collect(self) -> dict:
        """Main-process totals plus every worker file, as one snapshot."""
        total = self._snapshot()
        for name in sorted(os.listdir(self.trace_dir)):
            if not (name.startswith("worker-") and name.endswith(".json")):
                continue
            with open(os.path.join(self.trace_dir, name)) as fh:
                part = json.load(fh)
            for key in ("self_s", "calls", "memo"):
                for layer, value in part[key].items():
                    total[key][layer] = total[key].get(layer, 0) + value
            total["loop_iterations"] += part["loop_iterations"]
        total["main_self_s"] = dict(self.self_s)
        total["composition_s"] = list(self.composition_s)
        return total

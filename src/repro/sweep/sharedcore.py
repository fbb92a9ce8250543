"""Zero-copy cross-process sharing of compiled engine cores.

A :class:`~repro.sim.engine.CompiledCore` is immutable once compiled, so
every worker of a ``--jobs N`` pool simulating cells of one group can
read the *same* arrays instead of re-deriving them from the cluster
graph. :func:`publish` serializes a core's numpy arrays once into a
single ``multiprocessing.shared_memory`` block and returns a small
picklable :class:`SharedCoreHandle` (block name + array directory + a
pickled header with the non-array state); :func:`attach` maps the block
read-only in a worker and rebuilds the core around zero-copy views —
no graph build, no model build, no O(n) traversal, only the cheap
python-native list mirrors. Attaches are memoized per worker process,
so the batched phase-B lane (many cells per task, see
:func:`repro.sweep.runner._run_shared_cells_batched`) pays one map per
worker however many chunks it processes.

Ownership is explicit: :func:`publish` immediately detaches the block
from the creating process's ``resource_tracker`` (workers of a pool must
be able to outlive their publisher), and whoever holds the handle — the
:class:`~repro.sweep.runner.SweepRunner` — must call
:meth:`SharedCoreHandle.unlink` when done. The runner does so from
``close()``/``finally``/``atexit`` so crashed runs do not leak
``/dev/shm`` segments (see ``tests/sweep/test_sharedcore.py``).

The header intentionally does not carry the cluster graph: workers get a
:class:`DetachedCluster` exposing only the post-compile surface the
engine and metrics layer read (``worker_ops``, ``chunk_params``,
``chunk_order``, ``spec``).
"""

from __future__ import annotations

import os
import pickle
import secrets
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory
from types import SimpleNamespace

import numpy as np

from ..sim.engine import CompiledCore

#: /dev/shm name prefix — lets tests (and operators) spot leaked blocks.
SHM_PREFIX = "reprocore"

#: core attributes whose numpy arrays live in the shared block (the big,
#: compile-expensive part); everything else travels in the pickled header.
ARRAY_ATTRS = (
    "base_indeg",
    "succ_indptr",
    "succ_indices",
    "is_transfer",
    "op_res",
    "t_egress",
    "t_ingress",
    "base_dur",
    "wire_base",
    "lat",
    "t_chan",
    "is_chunk",
    "capacity",
    "tr_ids",
    "tr_eg",
    "tr_in",
    "comp_ids",
    "comp_res",
    "root_times",
    "job_of",
)

#: plain-python core attributes shipped in the header.
STATE_ATTRS = (
    "n",
    "n_res",
    "n_wire_channels",
    "_res_index",
    "chan_eid",
    "chan_iid",
    "egress_ids",
    "eg_chan_lists",
    "eg_pos",
    "q_base",
    "q_slots",
    "chunk_op_ids",
    "chunk_param_names",
    "param_groups",
    "roots",
    "jobs",
    "platform",
    "chan_devices",
    "job_faults",
)


class _DetachedGraph:
    """Stand-in for the op graph on an attached core: only the engine's
    error path ever asks it anything."""

    def op(self, op_id: int) -> SimpleNamespace:
        return SimpleNamespace(name=f"op#{op_id}")


@dataclass
class DetachedCluster:
    """The post-compile cluster surface an attached core exposes."""

    spec: object
    worker_ops: dict
    chunk_params: dict = field(default_factory=dict)
    chunk_order: dict = field(default_factory=dict)
    #: job-mix surfaces (empty for single-job clusters): op ids per job
    #: label and per-job arrival offsets, read by the metrics layer.
    job_ops: dict = field(default_factory=dict)
    job_arrivals: dict = field(default_factory=dict)
    graph: _DetachedGraph = field(default_factory=_DetachedGraph)


@dataclass
class SharedCoreHandle:
    """Picklable directory of one published core (send it to workers)."""

    shm_name: str
    nbytes: int
    #: (attr name, dtype str, shape, byte offset) per shared array.
    arrays: tuple
    #: pickled header: STATE_ATTRS + the detached cluster + result meta.
    header: bytes

    def unlink(self) -> None:
        """Remove the backing block. Idempotent; safe while workers still
        hold attachments (POSIX keeps the mapping alive until unmapped)."""
        try:
            shm = shared_memory.SharedMemory(name=self.shm_name)
        except FileNotFoundError:
            return
        shm.close()
        try:
            # SharedMemory.unlink() also unregisters from the tracker,
            # balancing the attach-time register two lines up.
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - racing unlinkers
            pass


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Detach a block from this process's resource tracker: ownership of
    published cores is manual (runner ``close``/``atexit``), and tracked
    blocks would be unlinked prematurely when a pool worker exits (or
    spam 'leaked shared_memory' warnings)."""
    try:
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker variations across 3.x
        pass


def publish(core: CompiledCore, meta: dict) -> SharedCoreHandle:
    """Copy a compiled core's arrays into one shared-memory block.

    ``meta`` carries the per-group result metadata the workers need to
    assemble :class:`~repro.sim.metrics.SimulationResult` rows without
    the model IR (name, batch size, parameter count).
    """
    specs = []
    offset = 0
    arrays = []
    for attr in ARRAY_ATTRS:
        arr = np.ascontiguousarray(getattr(core, attr))
        # align every array to 16 bytes so the views are cleanly typed
        offset = (offset + 15) & ~15
        specs.append((attr, arr.dtype.str, arr.shape, offset))
        arrays.append((arr, offset))
        offset += arr.nbytes
    nbytes = max(offset, 1)
    name = f"{SHM_PREFIX}_{os.getpid()}_{secrets.token_hex(6)}"
    shm = shared_memory.SharedMemory(name=name, create=True, size=nbytes)
    try:
        for arr, off in arrays:
            dst = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf, offset=off)
            dst[...] = arr
        cluster = core.cluster
        state = {attr: getattr(core, attr) for attr in STATE_ATTRS}
        state["device_compute_ops"] = {
            dev: ids.tolist() for dev, ids in core.device_compute_ops.items()
        }
        state["cluster"] = DetachedCluster(
            spec=cluster.spec,
            worker_ops={w: list(ids) for w, ids in cluster.worker_ops.items()},
            chunk_params=dict(getattr(cluster, "chunk_params", {}) or {}),
            chunk_order=dict(getattr(cluster, "chunk_order", {}) or {}),
            job_ops={
                j: list(ids)
                for j, ids in (getattr(cluster, "job_ops", None) or {}).items()
            },
            job_arrivals=dict(getattr(cluster, "job_arrivals", None) or {}),
        )
        header = pickle.dumps(
            {"state": state, "meta": dict(meta)}, protocol=pickle.HIGHEST_PROTOCOL
        )
    except Exception:
        shm.close()
        shm.unlink()  # unregisters too, balancing the create-register
        raise
    _untrack(shm)
    shm.close()
    return SharedCoreHandle(
        shm_name=name, nbytes=nbytes, arrays=tuple(specs), header=header
    )


#: per-process attachment cache: a pool worker simulating many cells of
#: one group maps + rebuilds the core once. Holding the SharedMemory
#: object keeps the mapping alive for the views.
_ATTACHED: dict[str, tuple[shared_memory.SharedMemory, CompiledCore, dict]] = {}


def attach(handle: SharedCoreHandle) -> tuple[CompiledCore, dict]:
    """Map a published core read-only and rebuild it (cached per process).

    Returns ``(core, meta)``. The array attributes are zero-copy views
    of the shared block with ``writeable=False``; the list mirrors are
    rebuilt locally (cheap O(n) ``tolist`` fills).
    """
    got = _ATTACHED.get(handle.shm_name)
    if got is not None:
        return got[1], got[2]
    shm = shared_memory.SharedMemory(name=handle.shm_name)
    # attaching registers with some interpreter versions' trackers too;
    # ownership stays with the publisher's holder either way.
    _untrack(shm)
    arrays = {}
    for attr, dtype, shape, offset in handle.arrays:
        view = np.ndarray(tuple(shape), dtype=np.dtype(dtype), buffer=shm.buf,
                          offset=offset)
        view.flags.writeable = False
        arrays[attr] = view
    payload = pickle.loads(handle.header)
    core = CompiledCore.from_arrays(arrays, payload["state"])
    _ATTACHED[handle.shm_name] = (shm, core, payload["meta"])
    return core, payload["meta"]


def detach_all() -> None:
    """Drop this process's attachment cache (test isolation helper)."""
    for shm, _core, _meta in _ATTACHED.values():
        shm.close()
    _ATTACHED.clear()


def leaked_segments() -> list[str]:
    """Names of live ``/dev/shm`` blocks published by this machine's
    runners (diagnostics + leak tests)."""
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):  # pragma: no cover - non-Linux
        return []
    return sorted(
        name for name in os.listdir(shm_dir) if name.startswith(SHM_PREFIX)
    )

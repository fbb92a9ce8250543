"""Multi-job co-scheduling: several jobs' DAGs on one shared cluster.

TicTac schedules one job on a dedicated cluster; real clusters run many
jobs whose transfers contend for shared links (Wang et al.,
arXiv:2002.10105). This module lifts the single-job assumption without
touching the engine's semantics for single jobs:

* :class:`JobSpec` names one job — a model, a communication backend
  ('ps'/'allreduce'), a cluster shape, a scheduling algorithm and an
  arrival offset;
* :class:`JobMixSpec` is a *set* of jobs plus a placement policy
  (:mod:`repro.backends.placement`) mapping every job's logical devices
  onto shared hosts. It is a first-class backend spec: ``SimCell`` grids,
  :func:`repro.sim.runner.simulate_cluster`, the sweep cache and the
  worker pool all consume it through the backend registry.

**Composed cores.** :func:`build_jobmix_graph` builds each job's
cluster DAG through the (memoized) backend builders and returns a
graph-less :class:`JobMixGraph`: the per-job clusters, the placement's
``host_map`` and the post-compile surface (worker ops, chunk metadata,
job ops, arrivals) under per-job namespaces ``j0/``, ``j1/``, ... Job
*i*'s op ids are its cluster's ids plus the op count of the jobs before
it. Job shapes (model x backend spec) are memoized with their cluster
DAG and their per-platform cores, so each shape is built and lowered
once. :class:`~repro.sim.engine.CompiledCore` hands a mix to
:meth:`JobMixGraph.compose_core`, which concatenates the per-shape
cores: op ids, successors and channels are offset per job, and NIC
resources are renamed through ``host_map`` — the placement is the only
coupling between jobs (devices sharing a host share NIC resources,
while every logical (src, dst) device pair keeps its own wire channel).
:attr:`JobMixGraph.graph` is a lazy namespaced view of the per-job DAGs
for consumers that want op names (traces, timelines). A 1-job mix on
the ``dedicated`` placement is **byte-identical** to the plain
single-job path (pinned by ``tests/sim/test_jobmix_golden.py``).

**Priority namespaces.** :func:`prepare_jobmix_schedule` runs the
ordering wizard per job (memoized, per-job reference projections) and
composes the passes by prefixing every priority key. The §5.1 counter
groups are per (link, iteration) and links are per job, so the composed
rank arrays are re-normalized densely within each job's own groups —
rank arrays from independent wizard passes can never collide across
jobs. ``algorithm='mix'`` uses each job's own :attr:`JobSpec.algorithm`;
any other name applies one algorithm to every job.

Batch-size scaling (``batch_factor``) is not supported for mixes: every
job builds at its model's native batch size.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterator

import numpy as np

from ..core.schedules import Schedule
from ..graph import Op, Resource, ResourceKind
from ..graph.dag import GraphError

#: workload label reported for mixed-job results.
MIX_WORKLOAD = "mix"


def job_label(index: int) -> str:
    """The namespace label of job ``index`` (``j0``, ``j1``, ...)."""
    return f"j{index}"


@dataclass(frozen=True)
class JobSpec:
    """One job of a mix: model x backend x shape x algorithm x arrival."""

    model: str
    backend: str = "ps"
    n_workers: int = 2
    n_ps: int = 1
    algorithm: str = "baseline"
    #: arrival offset in seconds: the job's roots release at this time.
    arrival: float = 0.0
    workload: str = "training"
    sharding: str = "greedy"
    #: per-job fault plan (see :mod:`repro.faults`), written against the
    #: job's *own* device names — the engine scopes it into the job's
    #: ``j<i>/`` namespace at compile time.
    faults: object = None

    def __post_init__(self) -> None:
        if self.n_workers <= 0:
            raise ValueError("n_workers must be positive")
        # NaN slips through a plain `< 0` check and would poison the
        # compiled deferred-release table (event time comparisons against
        # NaN are all False); infinities would defer the job forever.
        if not math.isfinite(self.arrival) or self.arrival < 0:
            raise ValueError(
                f"arrival offset must be finite and >= 0, got {self.arrival!r}"
            )
        if self.faults is not None:
            from ..faults.plan import FaultPlan

            if not isinstance(self.faults, FaultPlan):
                raise ValueError(
                    f"faults must be a FaultPlan or None, got {self.faults!r}"
                )

    def to_spec(self):
        """The backend spec this job's cluster DAG is built from."""
        from ..backends import make_spec

        if self.backend == "ps":
            return make_spec(
                "ps",
                n_workers=self.n_workers,
                n_ps=self.n_ps,
                workload=self.workload,
                sharding=self.sharding,
            )
        return make_spec(self.backend, n_workers=self.n_workers)

    def devices(self) -> list[str]:
        """Logical device names of this job (workers, then any PS)."""
        spec = self.to_spec()
        return list(spec.workers) + list(getattr(spec, "ps", []))


@dataclass(frozen=True)
class JobMixSpec:
    """A set of jobs placed on one shared cluster.

    Exposes the ``n_workers``/``n_ps``/``workload`` surface of a
    single-job spec (summed over jobs) so result assembly and the sweep
    runner consume mixes unchanged. ``n_hosts=0`` auto-sizes the shared
    cluster to the minimum feasible host count.
    """

    jobs: tuple[JobSpec, ...]
    placement: str = "dedicated"
    n_hosts: int = 0
    slots_per_host: int = 2
    rack_size: int = 4

    def __post_init__(self) -> None:
        if not self.jobs:
            raise ValueError("a job mix needs at least one job")
        # fail fast (with difflib hints) on unknown placement names
        from ..backends.placement import get_placement

        get_placement(self.placement)

    # -- single-job-spec compatible surface -----------------------------
    @property
    def n_workers(self) -> int:
        return sum(j.n_workers for j in self.jobs)

    @property
    def n_ps(self) -> int:
        return sum(len(j.devices()) - j.n_workers for j in self.jobs)

    @property
    def workload(self) -> str:
        kinds = {j.workload for j in self.jobs}
        return kinds.pop() if len(kinds) == 1 else MIX_WORKLOAD

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(job_label(i) for i in range(len(self.jobs)))

    def solo(self, index: int) -> "JobMixSpec":
        """The 1-job mix of job ``index`` on dedicated hosts — the
        denominator of slowdown-vs-dedicated metrics."""
        return replace(
            self, jobs=(self.jobs[index],), placement="dedicated", n_hosts=0
        )


def _namespaced_op(op: Op, op_id: int, prefix: str) -> Op:
    """``op`` renamed into a job namespace: its name, parameter, device
    and resource carry ``prefix``; ``op_id`` is its id in the mix."""
    res = op.resource
    if res is None:
        raise GraphError(f"op {op.name!r} has no resource tag")
    if res.kind is ResourceKind.LINK:
        src, dst = res.name[len("link:"):].split("->")
        res = Resource.link(prefix + src, prefix + dst)
    else:
        res = Resource.compute(prefix + res.name[len("compute:"):])
    return Op(
        op_id=op_id,
        name=prefix + op.name,
        kind=op.kind,
        resource=res,
        cost=op.cost,
        param=prefix + op.param if op.param else None,
        device=prefix + op.device if op.device else None,
        attrs=dict(op.attrs),
    )


class MixGraphView:
    """Read-only op view of a mix: job *i*'s ops are its cluster's ops,
    ids offset by the ops of the jobs before it and names in the
    ``j<i>/`` namespace. Ops are built on access; nothing is stored."""

    def __init__(self, graphs) -> None:
        self._graphs = list(graphs)
        self._starts = [0]
        for g in self._graphs:
            self._starts.append(self._starts[-1] + len(g))

    def __len__(self) -> int:
        return self._starts[-1]

    def op(self, op_id: int) -> Op:
        if not 0 <= op_id < len(self):
            raise IndexError(f"op id {op_id} out of range for {len(self)} ops")
        j = bisect_right(self._starts, op_id) - 1
        start = self._starts[j]
        return _namespaced_op(
            self._graphs[j].op(op_id - start), op_id, job_label(j) + "/"
        )

    def __iter__(self) -> Iterator[Op]:
        for j, g in enumerate(self._graphs):
            start, prefix = self._starts[j], job_label(j) + "/"
            for op in g:
                yield _namespaced_op(op, start + op.op_id, prefix)


class JobShape:
    """One job shape — a model and a backend spec: its cluster DAG and,
    per platform, the core that mix cores are composed from."""

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        self._cores: dict = {}

    def core(self, platform):
        """The shape's core on ``platform``, lowered once (without the
        event loop's mirrors: a mix core only reads its arrays)."""
        core = self._cores.get(platform)
        if core is None:
            from .engine import CompiledCore

            core = self._cores[platform] = CompiledCore.lowered(
                self.cluster, platform
            )
        return core


#: Most job shapes kept (least recently used evicted first). A replay
#: cycles through every shape of its trace: ``models x worker counts``
#: for a synthetic trace (2 for ``cluster_day``), and up to
#: ``len(DEFAULT_MODEL_MIX) x workers_cap`` = 3 x 8 = 24 for a loaded
#: one (:func:`repro.replay.loader.load_alibaba_csv`). The largest of
#: those, Inception v1 with 8 workers + 1 PS, holds about 12 MB of
#: graph and 2 MB of lowered core per platform.
_SHAPE_CAP = 32

_shapes: dict[tuple, JobShape] = {}


def job_shape(model: str, jspec) -> JobShape:
    """The memoized shape of a job running ``model`` on backend spec
    ``jspec``, keyed by the model's structural fingerprint."""
    from ..backends import build_comm_graph
    from ..models import build_model

    ir = build_model(model)
    key = (ir.structural_fingerprint(), jspec)
    shape = _shapes.pop(key, None)
    if shape is None:
        shape = JobShape(build_comm_graph(ir, jspec))
        while len(_shapes) >= _SHAPE_CAP:
            _shapes.pop(next(iter(_shapes)))
    _shapes[key] = shape
    return shape


def clear_shape_memo() -> None:
    """Drop all memoized job shapes (tests)."""
    _shapes.clear()


@dataclass
class JobMixGraph:
    """A mix's cluster surface: the per-job shapes plus the namespaced
    post-compile surface. There is no union DAG — :meth:`compose_core`
    builds the mix core from per-shape cores, and :attr:`graph` is a
    lazy view for op names."""

    spec: JobMixSpec
    #: per-job shapes (memoized, shared across mixes: read-only).
    shapes: list[JobShape] = field(default_factory=list)
    #: op ids per (prefixed) worker device.
    worker_ops: dict[str, list[int]] = field(default_factory=dict)
    #: collective chunk metadata, prefixed (schedule lowering seam).
    chunk_params: dict[str, tuple[str, ...]] = field(default_factory=dict)
    chunk_order: dict[str, int] = field(default_factory=dict)
    #: op ids per job label (per-job completion accounting).
    job_ops: dict[str, list[int]] = field(default_factory=dict)
    #: job label -> arrival offset in seconds.
    job_arrivals: dict[str, float] = field(default_factory=dict)
    #: logical device -> shared host (the placement's output).
    host_map: dict[str, str] = field(default_factory=dict)
    n_iterations: int = 1

    @cached_property
    def graph(self) -> MixGraphView:
        return MixGraphView(s.cluster.graph for s in self.shapes)

    def compose_core(self, core) -> list[int]:
        """Fill ``core`` (a :class:`~repro.sim.engine.CompiledCore` under
        construction) by concatenating the jobs' per-shape cores; returns
        the per-channel transfer counts.

        Job *j*'s ops, successors, channels, chunk ops and roots are its
        shape core's, offset by the jobs before it; names enter the
        ``j<j>/`` namespace. Resources are renumbered by first use, job
        by job, and NIC resources are renamed through ``host_map``:
        co-located jobs then share NIC resources (and their capacity)
        while each logical (src, dst) device pair keeps its own wire
        channel — separate TCP connections round-robining on one NIC.
        The result is array for array the core of the jobs' DAGs
        compiled as one union DAG.
        """
        parts = [s.core(core.platform) for s in self.shapes]
        op_res, t_egress, t_ingress, t_chan = [], [], [], []
        succ_indptr = [np.zeros(1, dtype=np.int64)]
        succ_indices, roots, root_times = [], [], []
        core.device_compute_ops = {}
        core.chan_eid, core.chan_iid, core.chan_devices = [], [], []
        core.chunk_op_ids, core.chunk_param_names = [], []
        chan_sizes: list[int] = []
        groups = []
        op_off = edge_off = 0
        for j, part in enumerate(parts):
            label = job_label(j)
            prefix = label + "/"
            rmap = []
            for name in part.resource_names():
                kind, device = name.split(":", 1)
                device = prefix + device
                if kind != "compute":
                    device = self.host_map.get(device, device)
                rmap.append(core._rid(f"{kind}:{device}"))
            # a trailing -1 maps the "no resource" id -1 onto itself
            rmap_arr = np.array(rmap + [-1], dtype=np.int64)
            op_res.append(rmap_arr[part.op_res])
            t_egress.append(rmap_arr[part.t_egress])
            t_ingress.append(rmap_arr[part.t_ingress])
            chan_off = len(chan_sizes)
            t_chan.append(np.where(part.t_chan >= 0, part.t_chan + chan_off, -1))
            core.chan_eid += [rmap[e] for e in part.chan_eid]
            core.chan_iid += [rmap[i] for i in part.chan_iid]
            core.chan_devices += [
                (prefix + a, prefix + b) for a, b in part.chan_devices
            ]
            q = part.q_base
            chan_sizes += [q[c + 1] - q[c] for c in range(part.n_wire_channels)]
            succ_indptr.append(part.succ_indptr[1:] + edge_off)
            succ_indices.append(part.succ_indices + op_off)
            for device, ids in part.device_compute_ops.items():
                core.device_compute_ops[prefix + device] = ids + op_off
            core.chunk_op_ids += [o + op_off for o in part.chunk_op_ids]
            core.chunk_param_names += [prefix + p for p in part.chunk_param_names]
            groups.append([
                (
                    tuple(prefix + p for p in params),
                    [o + op_off for o in op_ids],
                    [None if a is None else a + op_off for a in acts],
                )
                for params, op_ids, acts in part.param_groups
            ])
            roots += [r + op_off for r in part.roots]
            # (``or``: a -0.0 arrival releases at +0.0)
            root_times.append(
                np.full(len(part.roots), self.job_arrivals[label] or 0.0)
            )
            op_off += part.n
            edge_off += int(part.succ_indptr[-1])

        core.n = op_off
        core.base_indeg = np.concatenate([p.base_indeg for p in parts])
        core.succ_indptr = np.concatenate(succ_indptr)
        core.succ_indices = np.concatenate(succ_indices)
        core.is_transfer = np.concatenate([p.is_transfer for p in parts])
        core.is_chunk = np.concatenate([p.is_chunk for p in parts])
        core.op_res = np.concatenate(op_res)
        core.t_egress = np.concatenate(t_egress)
        core.t_ingress = np.concatenate(t_ingress)
        core.t_chan = np.concatenate(t_chan)
        core.base_dur = np.concatenate([p.base_dur for p in parts])
        core.wire_base = np.concatenate([p.wire_base for p in parts])
        core.lat = np.concatenate([p.lat for p in parts])
        core.roots = roots
        # Param groups go in sorted link-name order. Every link of job j
        # is named ``link:j<j>/...``, so that order keeps each job's own
        # group order and sorts whole jobs by label (j10 before j2).
        order = sorted(range(len(parts)), key=lambda j: job_label(j) + "/")
        core.param_groups = [group for j in order for group in groups[j]]

        # --- job tags, root release times, per-job faults ---------------
        core.jobs = tuple(self.job_ops)
        core.job_of = np.repeat(
            np.arange(len(parts), dtype=np.int32), [p.n for p in parts]
        )
        core.root_times = np.concatenate(root_times)
        # Each job's FaultPlan is written against its own device names:
        # scope it into the job's namespace. Variants merge the result
        # with SimConfig.faults when compiling fault windows.
        core.job_faults = None
        for i, job in enumerate(self.spec.jobs):
            if job.faults is not None and job.faults.events:
                scoped = job.faults.scoped(job_label(i) + "/")
                core.job_faults = (
                    scoped if core.job_faults is None
                    else core.job_faults + scoped
                )
        return chan_sizes


def build_jobmix_graph(ir, spec: JobMixSpec) -> JobMixGraph:
    """Assemble the cluster surface of ``spec`` (see :class:`JobMixGraph`).

    ``ir`` (the conventional builder argument) is ignored: a mix names
    several models, each built at its native batch size through the
    memoized job shapes.
    """
    from ..backends.placement import place_jobs

    mix = JobMixGraph(spec=spec)
    devices_by_job: list[list[str]] = []
    # (model, backend spec) -> shape: a mix repeats shapes.
    shapes: dict = {}
    offset = 0
    for i, job in enumerate(spec.jobs):
        label = job_label(i)
        prefix = label + "/"
        jspec = job.to_spec()
        shape = shapes.get((job.model, jspec))
        if shape is None:
            shape = shapes[job.model, jspec] = job_shape(job.model, jspec)
        sub = shape.cluster
        mix.shapes.append(shape)
        devices_by_job.append([prefix + d for d in job.devices()])
        n = len(sub.graph)
        mix.job_ops[label] = list(range(offset, offset + n))
        mix.job_arrivals[label] = float(job.arrival)
        for worker, ids in sub.worker_ops.items():
            mix.worker_ops[prefix + worker] = [o + offset for o in ids]
        for cname, params in (getattr(sub, "chunk_params", None) or {}).items():
            mix.chunk_params[prefix + cname] = tuple(prefix + p for p in params)
        for cname, order in (getattr(sub, "chunk_order", None) or {}).items():
            mix.chunk_order[prefix + cname] = order
        offset += n

    mix.host_map = place_jobs(
        devices_by_job,
        spec.placement,
        n_hosts=spec.n_hosts,
        slots_per_host=spec.slots_per_host,
        rack_size=spec.rack_size,
    )
    return mix


def prepare_jobmix_schedule(
    ir,
    spec: JobMixSpec,
    algorithm: str,
    platform,
    *,
    trace_runs: int = 5,
    seed: int = 0,
) -> Schedule:
    """Compose per-job wizard passes into one namespaced schedule.

    ``algorithm='mix'`` dispatches each job to its own
    :attr:`JobSpec.algorithm`; any other name applies uniformly.
    ``'baseline'`` jobs contribute no priorities (their transfers run
    unordered, exactly as a single-job baseline does).
    """
    from ..backends import prepare_comm_schedule
    from ..models import build_model

    priorities: dict[str, int] = {}
    algorithms: list[str] = []
    for i, job in enumerate(spec.jobs):
        alg = job.algorithm if algorithm == MIX_WORKLOAD else algorithm
        algorithms.append(alg)
        if alg == "baseline":
            continue
        sched = prepare_comm_schedule(
            build_model(job.model), job.to_spec(), alg, platform,
            trace_runs=trace_runs, seed=seed,
        )
        prefix = job_label(i) + "/"
        for param, rank in sched.priorities.items():
            priorities[prefix + param] = rank
    return Schedule(
        algorithm=algorithm,
        priorities=priorities,
        meta={"jobs": tuple(algorithms)},
    )


def jobmix_schedule_key(spec: JobMixSpec) -> tuple:
    """Wizard-memo projection of a mix: the full jobs tuple (coarser
    projections risk cross-mix collisions; placement and arrivals do not
    influence the wizard, so they are excluded)."""
    return ("jobmix", spec.jobs)

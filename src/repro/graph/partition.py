"""Partitioned-graph views: ops grouped by resource (§3.1).

The scheduling problem's input is "the partitioned graph — the
computational graph with resource tags associated to each op". This module
provides the bookkeeping layer between raw :class:`~repro.graph.dag.Graph`
objects (whose ops carry a ``resource`` tag) and the consumers that need
per-resource aggregates:

* the makespan bounds of §3.2 sum op times per resource
  (``LMakespan = max_d Σ_{op∈G_d} Time(op)``);
* the simulator owns one ready queue per resource;
* tests assert partition invariants (every op tagged, channels only carry
  communication ops, ...).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Mapping, Optional

from .dag import Graph, GraphError
from .op import Op, OpKind, Resource, ResourceKind


class PartitionedGraph:
    """A :class:`Graph` in which every op has been assigned a resource.

    The object does not copy the graph; it indexes it. Mutating the
    underlying graph after construction invalidates the view.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        by_resource: dict[Resource, list[Op]] = defaultdict(list)
        for op in graph:
            if op.resource is None:
                raise GraphError(
                    f"op {op.name!r} has no resource tag; partition the graph "
                    "before wrapping it in PartitionedGraph"
                )
            activation = bool(op.attrs.get("activation_only"))
            if (
                op.is_communication
                and not activation
                and op.resource.kind is not ResourceKind.LINK
            ):
                raise GraphError(
                    f"communication op {op.name!r} tagged with non-link "
                    f"resource {op.resource.name!r}"
                )
            if not op.is_communication and op.resource.kind is ResourceKind.LINK:
                raise GraphError(
                    f"computation op {op.name!r} tagged with link resource "
                    f"{op.resource.name!r}"
                )
            by_resource[op.resource].append(op)
        self._by_resource: dict[Resource, list[Op]] = dict(by_resource)

    @property
    def resources(self) -> list[Resource]:
        """All resources referenced by at least one op, stable order."""
        return sorted(self._by_resource, key=lambda r: r.name)

    def ops_on(self, resource: Resource) -> list[Op]:
        """Ops assigned to ``resource``, in id order (not always topological)."""
        return list(self._by_resource.get(resource, ()))

    def load(self, time: Optional[Mapping[int, float]] = None) -> dict[Resource, float]:
        """Total work per resource.

        ``time`` maps op id -> duration; defaults to each op's ``cost``
        (work units). This is the quantity maximized over resources by the
        lower makespan bound (Eq. 2).
        """
        out: dict[Resource, float] = {}
        for res, ops in self._by_resource.items():
            if time is None:
                out[res] = sum(op.cost for op in ops)
            else:
                out[res] = sum(time[op.op_id] for op in ops)
        return out

    def bottleneck(self, time: Optional[Mapping[int, float]] = None) -> Resource:
        """The most-loaded resource — the denominator of Eq. 4's intuition:
        'if one resource has significantly higher load, scheduling has less
        effect on the makespan'."""
        loads = self.load(time)
        return max(loads, key=lambda r: (loads[r], r.name))

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"PartitionedGraph({self.graph.name!r}, {len(self.graph)} ops, "
            f"{len(self._by_resource)} resources)"
        )


def assign_worker_resources(
    graph: Graph,
    worker: str,
    ps_devices: Iterable[str],
) -> Graph:
    """Tag a single-worker model graph with resources (in place).

    Compute/AUX ops go to the worker's compute resource. Recv ops go on the
    ``ps -> worker`` link of the PS shard that owns their parameter (from
    ``op.attrs['ps']``); send ops go on ``worker -> ps``. Used to produce
    the *reference worker partition* consumed by TIC/TAC (§4) without
    building a whole cluster.

    Returns the same graph object for chaining.
    """
    ps_devices = list(ps_devices)
    compute = Resource.compute(worker)
    for op in graph:
        if op.kind is OpKind.RECV:
            ps = op.attrs.get("ps")
            if ps is None:
                raise GraphError(f"recv op {op.name!r} missing 'ps' attribute")
            op.resource = Resource.link(ps, worker)
        elif op.kind is OpKind.SEND:
            ps = op.attrs.get("ps")
            if ps is None:
                raise GraphError(f"send op {op.name!r} missing 'ps' attribute")
            op.resource = Resource.link(worker, ps)
        else:
            op.resource = compute
        if op.device is None:
            op.device = worker
    return graph

"""Directed acyclic computational graphs.

A :class:`Graph` is the substrate everything else is built on: the model zoo
emits one per model replica, the cluster builder merges replicas with PS
subgraphs, the scheduling algorithms consume the single-worker reference
partition, and the simulator executes the merged cluster graph.

The structure is append-only (ops are never removed), which keeps op ids
dense and stable for :mod:`repro.core.properties`. Ids are creation order,
not topological once an edge is stitched from a higher id to a lower one.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .op import Op, OpKind, Resource

OpRef = Union[int, str, Op]


class GraphError(ValueError):
    """Raised on structural violations (cycles, duplicate names, bad refs)."""


class Graph:
    """An append-only DAG of :class:`~repro.graph.op.Op` vertices.

    Edges point from producer to consumer: ``u -> v`` means ``v`` consumes
    the output of ``u`` and cannot start before ``u`` finishes.

    :meth:`add_op` only accepts inputs that already exist, so its edges run
    from lower ids to higher ones; :meth:`add_edges` stitches edges in either
    direction and rejects a batch that would close a cycle. ``validate()``
    re-checks global invariants for graphs assembled by multiple builders.
    """

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self._ops: list[Op] = []
        self._by_name: dict[str, int] = {}
        self._preds: list[list[int]] = []
        self._succs: list[list[int]] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_op(
        self,
        name: str,
        kind: OpKind = OpKind.COMPUTE,
        inputs: Sequence[OpRef] = (),
        *,
        cost: float = 0.0,
        param: Optional[str] = None,
        device: Optional[str] = None,
        resource: Optional[Resource] = None,
        **attrs,
    ) -> Op:
        """Append an op. ``inputs`` must already be present in the graph.

        Returns the new :class:`Op`. Raises :class:`GraphError` on duplicate
        names or dangling input references.
        """
        if name in self._by_name:
            raise GraphError(f"duplicate op name: {name!r}")
        if cost < 0:
            raise GraphError(f"op {name!r} has negative cost {cost}")
        op_id = len(self._ops)
        pred_ids = sorted({self._resolve(ref) for ref in inputs})
        op = Op(
            op_id=op_id,
            name=name,
            kind=kind,
            resource=resource,
            cost=float(cost),
            param=param,
            device=device,
            attrs=dict(attrs),
        )
        self._ops.append(op)
        self._by_name[name] = op_id
        self._preds.append(pred_ids)
        self._succs.append([])
        for p in pred_ids:
            self._succs[p].append(op_id)
        return op

    def merge(self, other: "Graph", rename: Callable[[str], str] = lambda n: n) -> dict[int, int]:
        """Copy all ops of ``other`` into this graph.

        ``rename`` maps each foreign op name to its name here (used to
        namespace per-worker replicas). Returns a mapping from ``other``'s
        op ids to the new ids in this graph.
        """
        mapping: dict[int, int] = {}
        for op in other._ops:
            new = self.add_op(
                rename(op.name),
                op.kind,
                [mapping[p] for p in other._preds[op.op_id]],
                cost=op.cost,
                param=op.param,
                device=op.device,
                resource=op.resource,
                **op.attrs,
            )
            mapping[op.op_id] = new.op_id
        return mapping

    def add_edges(self, pairs: Iterable[tuple[OpRef, OpRef]]) -> None:
        """Add ``(src, dst)`` dependency edges between existing ops, as one batch.

        The cluster builders stitch cross-device dependencies with it (e.g. a
        worker ``recv`` waiting on its PS ``send``); present edges are skipped.
        Raises :class:`GraphError`, leaving the graph unchanged, on an unknown
        ref, a self-loop or a cycle. Every batch costs one Kahn pass.
        """
        batch = [(self._resolve(src), self._resolve(dst)) for src, dst in pairs]
        for s, d in batch:
            if s == d:
                raise GraphError(f"self-loop on op {self._ops[s].name!r}")
        added: list[tuple[int, int]] = []
        for s, d in batch:
            if s not in self._preds[d]:
                self._preds[d].append(s)
                self._succs[s].append(d)
                added.append((s, d))
        placed = {op.op_id for op in self.topological_order()}
        if len(placed) == len(self._ops):
            return
        # Each unplaced op has an unplaced predecessor: walking back closes a cycle.
        path: dict[int, int] = {}
        cur = next(i for i in range(len(self._ops)) if i not in placed)
        while cur not in path:
            path[cur] = len(path)
            cur = next(p for p in self._preds[cur] if p not in placed)
        ring = list(path)[path[cur]:]
        cycle = list(zip(ring[1:] + ring[:1], ring))  # (predecessor, op) edges
        new = set(added)
        s, d = next((e for e in cycle if e in new), cycle[0])
        for s2, d2 in reversed(added):  # each edge was appended last
            self._preds[d2].pop()
            self._succs[s2].pop()
        src, dst = self._ops[s].name, self._ops[d].name
        raise GraphError(f"edges would create a cycle through new edge {src!r} -> {dst!r}")

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _resolve(self, ref: OpRef) -> int:
        if isinstance(ref, Op):
            ref = ref.op_id
        if isinstance(ref, str):
            try:
                return self._by_name[ref]
            except KeyError:
                raise GraphError(f"unknown op name: {ref!r}") from None
        if not isinstance(ref, int) or not (0 <= ref < len(self._ops)):
            raise GraphError(f"unknown op reference: {ref!r}")
        return ref

    def op(self, ref: OpRef) -> Op:
        """Fetch an op by id, name or identity."""
        return self._ops[self._resolve(ref)]

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[Op]:
        return iter(self._ops)

    def __contains__(self, ref: OpRef) -> bool:
        try:
            self._resolve(ref)
            return True
        except GraphError:
            return False

    @property
    def ops(self) -> Sequence[Op]:
        return tuple(self._ops)

    def predecessors(self, ref: OpRef) -> list[Op]:
        return [self._ops[i] for i in self._preds[self._resolve(ref)]]

    def successors(self, ref: OpRef) -> list[Op]:
        return [self._ops[i] for i in self._succs[self._resolve(ref)]]

    def pred_ids(self, op_id: int) -> Sequence[int]:
        return self._preds[op_id]

    def succ_ids(self, op_id: int) -> Sequence[int]:
        return self._succs[op_id]

    def in_degree(self, ref: OpRef) -> int:
        return len(self._preds[self._resolve(ref)])

    def out_degree(self, ref: OpRef) -> int:
        return len(self._succs[self._resolve(ref)])

    # ------------------------------------------------------------------
    # Queries used by the paper's algorithms
    # ------------------------------------------------------------------
    def roots(self) -> list[Op]:
        """Ops with no predecessors. In a worker partition these are the
        recv ops plus any constant/input ops (§2.2)."""
        return [op for op in self._ops if not self._preds[op.op_id]]

    def leaves(self) -> list[Op]:
        """Ops with no successors (send ops in a training worker partition)."""
        return [op for op in self._ops if not self._succs[op.op_id]]

    def ops_of_kind(self, kind: OpKind) -> list[Op]:
        return [op for op in self._ops if op.kind is kind]

    def recv_ops(self) -> list[Op]:
        """The ops TicTac schedules (§3.1): network receives."""
        return self.ops_of_kind(OpKind.RECV)

    def topological_order(self, key: Optional[Callable[[Op], object]] = None) -> list[Op]:
        """One topological order (Kahn): smallest ready ``(key(op), op_id)``
        first, or smallest id without ``key``, so a graph without backward
        edges comes out in id order. Walk this, not id order, when producers
        must come first: :meth:`add_edges` may stitch edges backwards."""
        def entry(i: int):
            return i if key is None else (key(self._ops[i]), i)
        indeg = [len(p) for p in self._preds]
        heap = [entry(i) for i, n in enumerate(indeg) if n == 0]
        heapq.heapify(heap)
        out: list[Op] = []
        while heap:
            i = heapq.heappop(heap) if key is None else heapq.heappop(heap)[1]
            out.append(self._ops[i])
            for s in self._succs[i]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    heapq.heappush(heap, entry(s))
        return out  # short of len(self) only inside add_edges, on a cycle

    def validate(self) -> None:
        """Re-check global invariants; raises :class:`GraphError` on failure.

        Checked: edge symmetry of pred/succ tables, recv ops are roots
        within their device partition, non-negative costs, unique names.
        """
        if len(self._by_name) != len(self._ops):  # pragma: no cover
            raise GraphError("name table out of sync")
        for op in self._ops:
            for p in self._preds[op.op_id]:
                if op.op_id not in self._succs[p]:  # pragma: no cover
                    raise GraphError(f"asymmetric edge {p}->{op.op_id}")
            if op.cost < 0:
                raise GraphError(f"op {op.name!r} has negative cost")
            if op.kind is OpKind.RECV:
                same_device_preds = [
                    p for p in self.predecessors(op) if p.device == op.device
                ]
                if same_device_preds:
                    raise GraphError(
                        f"recv op {op.name!r} has same-device predecessors "
                        f"{[p.name for p in same_device_preds]}; recv ops must be "
                        "roots of their worker partition (§2.2)"
                    )

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def total_cost(self, kinds: Optional[Iterable[OpKind]] = None) -> float:
        """Sum of op costs, optionally restricted to some kinds."""
        wanted = set(kinds) if kinds is not None else None
        return sum(op.cost for op in self._ops if wanted is None or op.kind in wanted)

    def subgraph_ids(self, predicate: Callable[[Op], bool]) -> list[int]:
        return [op.op_id for op in self._ops if predicate(op)]

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        kinds = {}
        for op in self._ops:
            kinds[op.kind.value] = kinds.get(op.kind.value, 0) + 1
        return f"Graph({self.name!r}, {len(self)} ops, {kinds})"

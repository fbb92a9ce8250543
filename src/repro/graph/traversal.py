"""Communication-dependency extraction (§4.1 of the paper).

The *communication dependency* of an op is the set of recv ops it directly
or transitively depends on (``op.dep``). The paper extracts these "using a
depth-first post-fix graph traversal on the DAG"; we compute the identical
fixpoint by a single sweep in :meth:`~repro.graph.dag.Graph.topological_order`
(not id order, which stitched cluster graphs break), accumulating each op's
dependency set as the union of its predecessors' sets.

Two representations are produced:

* **bitmasks** — one Python ``int`` per op, bit *k* set iff the op depends
  on the *k*-th recv op. Arbitrary-precision ints make the union a single
  ``|`` regardless of recv count, and are what the reference property
  implementation consumes.
* **dense matrix** — ``(n_ops, n_recv)`` boolean ndarray for the vectorized
  property computation in :mod:`repro.core.properties`.

By the paper's convention a recv op's own dependency set includes itself,
which unifies the definition of communication time ``M`` (§4.1): for an
outstanding recv, ``M = Time(recv)``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .dag import Graph
from .op import Op


def recv_index(graph: Graph, recv_ops: Optional[Sequence[Op]] = None) -> dict[int, int]:
    """Map recv op-id -> dense recv index (bit position / matrix column)."""
    if recv_ops is None:
        recv_ops = graph.recv_ops()
    return {op.op_id: k for k, op in enumerate(recv_ops)}


def communication_dependency_masks(
    graph: Graph, recv_ops: Optional[Sequence[Op]] = None
) -> list[int]:
    """Per-op dependency bitmask over the graph's recv ops.

    ``masks[i]`` has bit ``k`` set iff op ``i`` transitively depends on the
    ``k``-th recv op (recv ops depend on themselves). Ops are visited in
    :meth:`Graph.topological_order` (id order on a reference partition).
    """
    index = recv_index(graph, recv_ops)
    masks = [0] * len(graph)
    for op in graph.topological_order():
        m = 0
        for p in graph.pred_ids(op.op_id):
            m |= masks[p]
        k = index.get(op.op_id)
        if k is not None:
            m |= 1 << k
        masks[op.op_id] = m
    return masks


def dependency_matrix(
    graph: Graph, recv_ops: Optional[Sequence[Op]] = None
) -> np.ndarray:
    """Dense ``(n_ops, n_recv)`` bool matrix of communication dependencies.

    Row *i*, column *k* is ``True`` iff op *i* depends (transitively) on the
    *k*-th recv op. Column order follows ``recv_ops`` (graph recv order by
    default).
    """
    if recv_ops is None:
        recv_ops = graph.recv_ops()
    n_recv = len(recv_ops)
    masks = communication_dependency_masks(graph, recv_ops)
    out = np.zeros((len(graph), n_recv), dtype=bool)
    if n_recv == 0:
        return out
    for i, mask in enumerate(masks):
        while mask:
            low = mask & -mask
            out[i, low.bit_length() - 1] = True
            mask ^= low
    return out


def dependency_sets(
    graph: Graph, recv_ops: Optional[Sequence[Op]] = None
) -> list[frozenset[int]]:
    """Per-op dependency sets of recv *op ids* (the paper's ``op.dep``).

    This is the representation used by the literal reference implementation
    of Algorithm 1 and by tests; production code uses the matrix form.
    """
    if recv_ops is None:
        recv_ops = graph.recv_ops()
    ids = [op.op_id for op in recv_ops]
    masks = communication_dependency_masks(graph, recv_ops)
    out: list[frozenset[int]] = []
    for mask in masks:
        members = []
        while mask:
            low = mask & -mask
            members.append(ids[low.bit_length() - 1])
            mask ^= low
        out.append(frozenset(members))
    return out


def critical_path_cost(graph: Graph) -> float:
    """Length (sum of op costs) of the longest cost-weighted path.

    Not used by TIC/TAC themselves but a useful diagnostic: with infinite
    resources the makespan can never drop below the critical path, so the
    reachable band for any schedule is
    ``[max(critical_path, LMakespan), UMakespan]``.
    """
    finish = [0.0] * len(graph)
    best = 0.0
    for op in graph.topological_order():
        start = 0.0
        for p in graph.pred_ids(op.op_id):
            if finish[p] > start:
                start = finish[p]
        finish[op.op_id] = start + op.cost
        if finish[op.op_id] > best:
            best = finish[op.op_id]
    return best

"""Communication-dependency extraction and critical path."""

from collections import deque

import numpy as np
import pytest

from repro.graph import (
    Graph,
    OpKind,
    communication_dependency_masks,
    critical_path_cost,
    dependency_matrix,
    dependency_sets,
    recv_index,
)
from repro.models import build_model
from repro.ps import ClusterSpec, build_cluster_graph

from ..conftest import make_worker_graph


def test_fig1a_dependency_sets(fig1a):
    deps = dependency_sets(fig1a)
    by_name = {op.name: deps[op.op_id] for op in fig1a}
    r1 = fig1a.op("recv1").op_id
    r2 = fig1a.op("recv2").op_id
    assert by_name["recv1"] == {r1}
    assert by_name["recv2"] == {r2}
    assert by_name["op1"] == {r1}
    assert by_name["op2"] == {r1, r2}  # the paper's §4.1 example


def test_masks_match_sets(fig4b):
    masks = communication_dependency_masks(fig4b)
    sets = dependency_sets(fig4b)
    recvs = fig4b.recv_ops()
    for op in fig4b:
        expanded = {
            recvs[k].op_id for k in range(len(recvs)) if masks[op.op_id] >> k & 1
        }
        assert expanded == set(sets[op.op_id])


def test_matrix_matches_sets(fig4a):
    mat = dependency_matrix(fig4a)
    sets = dependency_sets(fig4a)
    idx = recv_index(fig4a)
    for op in fig4a:
        cols = {k for k in range(mat.shape[1]) if mat[op.op_id, k]}
        assert cols == {idx[r] for r in sets[op.op_id]}


def test_matrix_shape_without_recvs():
    g = Graph()
    g.add_op("a")
    mat = dependency_matrix(g)
    assert mat.shape == (1, 0)
    assert dependency_sets(g) == [frozenset()]


def test_transitive_dependency_through_chain():
    g = make_worker_graph(
        {"recv0": [], "a": ["recv0"], "b": ["a"], "c": ["b"]}
    )
    deps = dependency_sets(g)
    r = g.op("recv0").op_id
    assert deps[g.op("c").op_id] == {r}


def test_recv_index_follows_given_order(fig4b):
    recvs = list(reversed(fig4b.recv_ops()))
    idx = recv_index(fig4b, recvs)
    assert idx[recvs[0].op_id] == 0
    mat = dependency_matrix(fig4b, recvs)
    # column 0 now corresponds to recvD
    d_col = mat[:, 0]
    op2 = fig4b.op("op2").op_id
    assert d_col[op2]


def test_critical_path_linear_chain():
    g = make_worker_graph(
        {"recv0": [], "a": ["recv0"], "b": ["a"]},
        costs={"recv0": 2.0, "a": 3.0, "b": 4.0},
    )
    assert critical_path_cost(g) == pytest.approx(9.0)


def test_critical_path_takes_max_branch(fig4a):
    # all costs 1: longest path recvA->op1->op3 has length 3
    assert critical_path_cost(fig4a) == pytest.approx(3.0)


def test_critical_path_empty_graph():
    assert critical_path_cost(Graph()) == 0.0


def _stitched_three_ops():
    """``r(recv, 1) -> c(1)`` plus a send ``s(5)``, created last and
    stitched in front of ``r``: the edge ``s -> r`` runs backwards in id."""
    g = Graph()
    g.add_op("r", OpKind.RECV, cost=1.0)
    g.add_op("c", inputs=["r"], cost=1.0)
    g.add_op("s", OpKind.SEND, cost=5.0)
    g.add_edges([("s", "r")])
    return g


def _alexnet_inference_unrolled():
    ir = build_model("AlexNet v2")
    return build_cluster_graph(
        ir, ClusterSpec(2, 1, "inference"), n_iterations=2
    ).graph


def _kahn_reference(g):
    """FIFO Kahn order, written independently of ``Graph``."""
    indeg = [g.in_degree(op) for op in g]
    ready = deque(i for i, n in enumerate(indeg) if n == 0)
    order = []
    while ready:
        i = ready.popleft()
        order.append(i)
        for s in g.succ_ids(i):
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
    assert len(order) == len(g)
    return order


STITCHED = pytest.mark.parametrize(
    "make", [_stitched_three_ops, _alexnet_inference_unrolled],
    ids=["three_ops", "alexnet_v2_inference_x2"],
)


@STITCHED
def test_critical_path_on_stitched_graph(make):
    g = make()
    finish = [0.0] * len(g)
    for i in _kahn_reference(g):
        finish[i] = max((finish[p] for p in g.pred_ids(i)), default=0.0) + g.op(i).cost
    assert critical_path_cost(g) == max(finish)
    if make is _stitched_three_ops:
        assert critical_path_cost(g) == pytest.approx(7.0)


@STITCHED
def test_dependency_sets_on_stitched_graph(make):
    g = make()
    expected = [frozenset()] * len(g)
    for i in _kahn_reference(g):
        dep = frozenset().union(*(expected[p] for p in g.pred_ids(i)))
        if g.op(i).kind is OpKind.RECV:
            dep |= {i}
        expected[i] = dep
    assert dependency_sets(g) == expected

"""Shared fixtures: the paper's toy DAGs and a fast miniature model."""

from __future__ import annotations

import pytest

from repro.graph import Graph, OpKind, Resource
from repro.models.builder import NetBuilder

WORKER = "worker:0"
PS = "ps:0"


def make_worker_graph(edges, costs=None, params=None):
    """Build a single-worker partitioned toy graph.

    ``edges`` maps op name -> list of input names; names starting with
    'recv' become RECV ops on the PS->worker link, others COMPUTE ops.
    ``costs`` maps name -> cost (default 1.0).
    """
    costs = costs or {}
    g = Graph("toy")
    link = Resource.link(PS, WORKER)
    compute = Resource.compute(WORKER)
    for name, inputs in edges.items():
        is_recv = name.startswith("recv")
        g.add_op(
            name,
            OpKind.RECV if is_recv else OpKind.COMPUTE,
            inputs,
            cost=float(costs.get(name, 1.0)),
            param=name if is_recv else None,
            resource=link if is_recv else compute,
            device=WORKER,
            timing_key=name,
        )
    return g


def assert_topological(g):
    """``g.topological_order()`` lists every op once, each after all of its
    predecessors."""
    pos = {op.op_id: i for i, op in enumerate(g.topological_order())}
    assert len(pos) == len(g)
    for op in g:
        for p in g.pred_ids(op.op_id):
            assert pos[p] < pos[op.op_id], (g.op(p).name, op.name)


@pytest.fixture
def fig1a():
    """Figure 1a: recv1 -> op1; op2 needs op1 AND recv2."""
    return make_worker_graph(
        {
            "recv1": [],
            "recv2": [],
            "op1": ["recv1"],
            "op2": ["op1", "recv2"],
        }
    )


@pytest.fixture
def fig4a():
    """Figure 4a (Case 1): recvA -> op1 -> op3; recvB -> op2 -> op3."""
    return make_worker_graph(
        {
            "recvA": [],
            "recvB": [],
            "op1": ["recvA"],
            "op2": ["recvB"],
            "op3": ["op1", "op2"],
        }
    )


@pytest.fixture
def fig4b():
    """Figure 4b (Case 2): all recvs outstanding, P = 0 everywhere.

    op1 needs {A, B}; op2 needs {C, D} with C, D costlier; op3 joins.
    M+ should prefer the cheap {A, B} pair.
    """
    return make_worker_graph(
        {
            "recvA": [],
            "recvB": [],
            "recvC": [],
            "recvD": [],
            "op1": ["recvA", "recvB"],
            "op2": ["recvC", "recvD"],
            "op3": ["op1", "op2"],
        },
        costs={"recvC": 3.0, "recvD": 5.0},
    )


def tiny_model(batch_size: int = 8):
    """A miniature 3-conv + fc model: fast to emit, schedule and simulate."""
    b = NetBuilder("tinynet", batch_size, input_hw=(32, 32))
    b.conv("conv1", 3, 8, bias=True, bn=False)
    b.max_pool("pool1", 2, 2)
    b.conv("conv2", 3, 16)
    b.conv("conv3", 3, 16)
    b.fc("logits", 10)
    b.softmax("predictions")
    return b.build()


@pytest.fixture
def tinynet():
    return tiny_model()

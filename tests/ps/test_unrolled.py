"""Unrolled (pipelined) cluster graphs."""

import pytest

from repro.graph import OpKind, PartitionedGraph
from repro.ps import ClusterSpec, build_cluster_graph

from ..conftest import assert_topological, tiny_model


@pytest.fixture(scope="module")
def unrolled_train():
    return build_cluster_graph(
        tiny_model(), ClusterSpec(2, 1, "training"), n_iterations=3
    )


@pytest.fixture(scope="module")
def unrolled_infer():
    return build_cluster_graph(
        tiny_model(), ClusterSpec(2, 1, "inference"), n_iterations=3
    )


def test_invalid_window_rejected():
    with pytest.raises(ValueError, match="n_iterations"):
        build_cluster_graph(tiny_model(), ClusterSpec(1, 1), n_iterations=0)


def test_unrolled_validates_and_partitions(unrolled_train, unrolled_infer):
    for cluster in (unrolled_train, unrolled_infer):
        cluster.graph.validate()
        PartitionedGraph(cluster.graph)
        assert_topological(cluster.graph)


def test_iteration_ops_partition_the_graph(unrolled_train):
    ids = [i for k in range(3) for i in unrolled_train.iteration_ops[k]]
    assert sorted(ids) == list(range(len(unrolled_train.graph)))


def test_ops_scale_linearly_with_window():
    one = build_cluster_graph(tiny_model(), ClusterSpec(2, 1, "training"))
    three = build_cluster_graph(
        tiny_model(), ClusterSpec(2, 1, "training"), n_iterations=3
    )
    assert len(three.graph) == 3 * len(one.graph)
    assert three.n_iterations == 3


def test_read_depends_on_previous_update(unrolled_train):
    """Per-parameter pipelining: it1's read consumes it0's update."""
    g = unrolled_train.graph
    param = unrolled_train.model.params[0].name
    read1 = g.op(f"it1/ps:0/{param}/read")
    preds = {p.name for p in g.predecessors(read1)}
    assert f"it0/ps:0/{param}/update" in preds
    read0 = g.op(f"it0/ps:0/{param}/read")
    assert g.in_degree(read0) == 0


def test_inference_agent_loop_edges(unrolled_infer):
    """it1's send activations wait for the agent's it0 output."""
    g = unrolled_infer.graph
    param = unrolled_infer.model.params[0].name
    send1 = g.op(f"it1/ps:0/{param}/send->worker:0")
    preds = {p.name for p in g.predecessors(send1)}
    assert any(p.startswith("it0/worker:0/") for p in preds)
    send0 = g.op(f"it0/ps:0/{param}/send->worker:0")
    assert all(p.name.startswith("it0/") for p in g.predecessors(send0))


def test_transfers_tagged_with_iteration(unrolled_train):
    iterations = {
        t.iteration
        for ts in unrolled_train.transfers_by_link.values()
        for t in ts
    }
    assert iterations == {0, 1, 2}


def test_update_leaves_only_in_last_iteration(unrolled_train):
    g = unrolled_train.graph
    for op in g.ops_of_kind(OpKind.UPDATE):
        if op.name.startswith("it2/"):
            assert g.out_degree(op) == 0
        else:
            assert g.out_degree(op) >= 1  # consumed by the next read

"""Graph construction, lookup, edges and validation."""

import pytest

from repro.graph import Graph, GraphError, OpKind, Resource


def test_add_op_assigns_dense_ids():
    g = Graph()
    a = g.add_op("a")
    b = g.add_op("b", inputs=["a"])
    assert (a.op_id, b.op_id) == (0, 1)
    assert len(g) == 2


def test_duplicate_name_rejected():
    g = Graph()
    g.add_op("a")
    with pytest.raises(GraphError, match="duplicate"):
        g.add_op("a")


def test_unknown_input_rejected():
    g = Graph()
    with pytest.raises(GraphError, match="unknown op name"):
        g.add_op("a", inputs=["ghost"])


def test_negative_cost_rejected():
    g = Graph()
    with pytest.raises(GraphError, match="negative cost"):
        g.add_op("a", cost=-1.0)


def test_inputs_by_name_id_and_object():
    g = Graph()
    a = g.add_op("a")
    g.add_op("b", inputs=[a])
    g.add_op("c", inputs=[0, "b"])
    assert [p.name for p in g.predecessors("c")] == ["a", "b"]


def test_pred_succ_symmetry():
    g = Graph()
    g.add_op("a")
    g.add_op("b", inputs=["a"])
    g.add_op("c", inputs=["a", "b"])
    assert [s.name for s in g.successors("a")] == ["b", "c"]
    assert g.in_degree("c") == 2
    assert g.out_degree("c") == 0


def test_duplicate_inputs_collapse_to_one_edge():
    g = Graph()
    g.add_op("a")
    g.add_op("b", inputs=["a", "a", 0])
    assert g.in_degree("b") == 1


def test_roots_and_leaves():
    g = Graph()
    g.add_op("r1")
    g.add_op("r2")
    g.add_op("mid", inputs=["r1", "r2"])
    g.add_op("leaf", inputs=["mid"])
    assert {op.name for op in g.roots()} == {"r1", "r2"}
    assert [op.name for op in g.leaves()] == ["leaf"]


def test_add_edge_rejects_cycle():
    g = Graph()
    g.add_op("a")
    g.add_op("b", inputs=["a"])
    g.add_op("c", inputs=["b"])
    g.add_op("d")
    with pytest.raises(GraphError, match="cycle.*'c' -> 'a'"):
        g.add_edges([("d", "a"), ("c", "a")])
    # the batch is rolled back whole, the harmless edge included
    assert [[p.op_id for p in g.predecessors(op)] for op in g] == [[], [0], [1], []]
    assert [[s.op_id for s in g.successors(op)] for op in g] == [[1], [2], [], []]


def test_add_edges_rejects_cycle_through_an_earlier_batch():
    g = Graph()
    g.add_op("a")
    g.add_op("b")
    g.add_edges([("b", "a")])
    with pytest.raises(GraphError, match="cycle.*'a' -> 'b'"):
        g.add_edges([("a", "b")])
    assert [list(g.pred_ids(i)) for i in range(2)] == [[1], []]
    assert [list(g.succ_ids(i)) for i in range(2)] == [[], [0]]
    assert [op.name for op in g.topological_order()] == ["b", "a"]


def test_add_edges_names_an_edge_on_the_cycle():
    g = Graph()
    g.add_op("a")
    g.add_op("b", inputs=["a"])
    g.add_op("c", inputs=["b"])
    g.add_op("x")
    # c -> x is new and lies downstream of the cycle, not on it
    with pytest.raises(GraphError, match="cycle.*'b' -> 'a'"):
        g.add_edges([("c", "x"), ("b", "a")])
    assert g.in_degree("x") == 0 and g.in_degree("a") == 0


def test_add_edge_rejects_self_loop():
    g = Graph()
    g.add_op("a")
    g.add_op("b")
    with pytest.raises(GraphError, match="self-loop"):
        g.add_edges([("a", "b"), ("a", "a")])
    with pytest.raises(GraphError, match="unknown op name"):
        g.add_edges([("a", "b"), ("a", "ghost")])
    assert g.in_degree("b") == 0  # nothing added before the bad pair was seen


def test_add_edge_idempotent():
    g = Graph()
    g.add_op("a")
    g.add_op("b")
    g.add_edges([("a", "b"), ("a", "b")])
    g.add_edges([("a", "b")])
    assert g.in_degree("b") == 1
    assert g.out_degree("a") == 1


def test_merge_with_rename():
    src = Graph("src")
    src.add_op("x", cost=2.0, tag="keep")
    src.add_op("y", inputs=["x"])
    dst = Graph("dst")
    dst.add_op("existing")
    mapping = dst.merge(src, rename=lambda n: f"w/{n}")
    assert set(mapping.values()) == {1, 2}
    assert dst.op("w/x").cost == 2.0
    assert dst.op("w/x").attrs["tag"] == "keep"
    assert [p.name for p in dst.predecessors("w/y")] == ["w/x"]


def test_merge_attrs_are_independent_copies():
    src = Graph("src")
    src.add_op("x", tag="orig")
    dst = Graph("dst")
    dst.merge(src)
    dst.op("x").attrs["tag"] = "changed"
    assert src.op("x").attrs["tag"] == "orig"


def test_topological_order_with_key():
    g = Graph()
    g.add_op("b")
    g.add_op("a")
    g.add_op("c", inputs=["a", "b"])
    order = [op.name for op in g.topological_order(key=lambda op: op.name)]
    assert order == ["a", "b", "c"]


def test_insertion_order_is_topological():
    g = Graph()
    g.add_op("a")
    g.add_op("b", inputs=["a"])
    g.add_op("c", inputs=["a"])
    order = g.topological_order()
    pos = {op.name: i for i, op in enumerate(order)}
    assert pos["a"] < pos["b"] and pos["a"] < pos["c"]
    assert [op.op_id for op in order] == [0, 1, 2]


def test_validate_rejects_recv_with_same_device_pred():
    g = Graph()
    g.add_op("pre", device="worker:0")
    g.add_op("r", OpKind.RECV, inputs=["pre"], device="worker:0")
    with pytest.raises(GraphError, match="roots"):
        g.validate()


def test_validate_allows_recv_with_cross_device_pred():
    g = Graph()
    g.add_op("send", OpKind.SEND, device="ps:0")
    g.add_op("r", OpKind.RECV, inputs=["send"], device="worker:0")
    g.validate()


def test_total_cost_filters_by_kind():
    g = Graph()
    g.add_op("a", OpKind.COMPUTE, cost=2.0)
    g.add_op("r", OpKind.RECV, cost=3.0)
    assert g.total_cost() == 5.0
    assert g.total_cost([OpKind.RECV]) == 3.0


def test_contains_and_lookup_errors():
    g = Graph()
    g.add_op("a")
    assert "a" in g and 0 in g
    assert "nope" not in g and 5 not in g
    with pytest.raises(GraphError):
        g.op("nope")

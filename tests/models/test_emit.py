"""Graph emission: worker/canonical modes, backward mirror, invariants."""

import pytest

from repro.graph import GraphError, OpKind
from repro.models import emit_graph
from repro.models.emit import (
    CANONICAL_INFERENCE,
    CANONICAL_TRAINING,
    WORKER_INFERENCE,
    WORKER_TRAINING,
)

from ..conftest import assert_topological, tiny_model


@pytest.fixture(scope="module")
def ir():
    return tiny_model()


@pytest.fixture(scope="module")
def placement(ir):
    return {p.name: "ps:0" for p in ir.params}


def test_worker_inference_has_recv_per_param(ir, placement):
    res = emit_graph(ir, WORKER_INFERENCE, placement=placement)
    recvs = res.graph.recv_ops()
    assert len(recvs) == ir.n_param_tensors
    assert set(res.recv_ops) == {p.name for p in ir.params}
    assert not res.send_ops


def test_worker_recvs_are_roots_with_byte_costs(ir, placement):
    res = emit_graph(ir, WORKER_INFERENCE, placement=placement)
    sizes = {p.name: p.nbytes for p in ir.params}
    for op in res.graph.recv_ops():
        assert res.graph.in_degree(op) == 0
        assert op.cost == sizes[op.param]
        assert op.attrs["ps"] == "ps:0"


def test_worker_training_has_send_per_param(ir, placement):
    res = emit_graph(ir, WORKER_TRAINING, placement=placement)
    sends = res.graph.ops_of_kind(OpKind.SEND)
    assert len(sends) == ir.n_param_tensors
    for op in sends:
        assert res.graph.out_degree(op) == 0, "grad sends must be leaves"
        assert op.cost > 0


def test_every_param_receives_a_gradient(ir, placement):
    res = emit_graph(ir, WORKER_TRAINING, placement=placement)
    assert set(res.grad_ops) == {p.name for p in ir.params}


def test_send_depends_on_its_grad_op(ir, placement):
    res = emit_graph(ir, WORKER_TRAINING, placement=placement)
    for param, send_name in res.send_ops.items():
        preds = {p.name for p in res.graph.predecessors(send_name)}
        assert res.grad_ops[param] in preds


def test_canonical_modes_have_no_transfers(ir):
    for mode in (CANONICAL_INFERENCE, CANONICAL_TRAINING):
        res = emit_graph(ir, mode)
        assert not res.graph.recv_ops()
        assert not res.graph.ops_of_kind(OpKind.SEND)


def test_canonical_training_has_optimizer_per_param(ir):
    res = emit_graph(ir, CANONICAL_TRAINING)
    applies = [
        op for op in res.graph if op.name.endswith("/ApplyGradientDescent")
    ]
    assert len(applies) == ir.n_param_tensors


def test_worker_emission_requires_placement(ir):
    with pytest.raises(GraphError, match="placement"):
        emit_graph(ir, WORKER_INFERENCE)


def test_unknown_mode_rejected(ir):
    with pytest.raises(ValueError, match="emit mode"):
        emit_graph(ir, "serving")


def test_timing_keys_present_on_every_op(ir, placement):
    res = emit_graph(ir, WORKER_TRAINING, placement=placement)
    for op in res.graph:
        assert op.attrs["timing_key"] == op.name


def test_forward_costs_match_ir_flops(ir, placement):
    res = emit_graph(ir, WORKER_INFERENCE, placement=placement)
    conv = ir.node("conv2")
    kernel_op = res.graph.op(res.output_ops["conv2"])
    assert kernel_op.cost == conv.flops


def test_backward_mirrors_conv_with_two_backprops(ir, placement):
    res = emit_graph(ir, WORKER_TRAINING, placement=placement)
    names = {op.name for op in res.graph}
    assert "gradients/conv2/BackpropInput" in names
    assert "gradients/conv2/BackpropFilter" in names
    # grad of the conv costs as much as the forward conv, twice
    bp = res.graph.op("gradients/conv2/BackpropFilter")
    assert bp.cost == ir.node("conv2").flops


def test_training_graph_is_acyclic_and_validates(ir, placement):
    res = emit_graph(ir, WORKER_TRAINING, placement=placement)
    res.graph.validate()
    assert_topological(res.graph)


def test_multi_consumer_forward_output_gets_addn():
    """A branchy model (residual add) must sum gradients at the fan-out."""
    from repro.models.builder import NetBuilder

    b = NetBuilder("branchy", 2, (8, 8), 3)
    trunk = b.conv("trunk", 3, 4)
    left = b.conv("left", 3, 4, input=trunk)
    b.add("join", trunk, left)
    b.fc("logits", 4)
    b.softmax("predictions")
    ir2 = b.build()
    placement2 = {p.name: "ps:0" for p in ir2.params}
    res = emit_graph(ir2, WORKER_TRAINING, placement=placement2)
    addns = [op for op in res.graph if "/AddN" in op.name]
    assert addns, "fan-out point must accumulate gradients with AddN"

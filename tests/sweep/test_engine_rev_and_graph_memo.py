"""Cache-poisoning guards: engine revision in cell keys, pinned key
payloads, graph memo."""

from __future__ import annotations

import json

from repro import backends
from repro.faults import FaultPlan, HostFailure, LinkDegradation
from repro.ps import ClusterSpec
from repro.sim import ENGINE_REV, SimConfig
from repro.sweep import SimCell
from repro.sweep.spec import canonical_json

from ..conftest import tiny_model


def test_sim_cell_key_pins_engine_revision():
    """A cell cached under one compiled-array layout must never be served
    to an engine with another: the revision is part of the key payload."""
    cell = SimCell(model="tinynet", spec=ClusterSpec(2, 1, "training"),
                   config=SimConfig(iterations=1))
    payload = cell.key_payload()
    assert payload["engine_rev"] == ENGINE_REV
    # and it survives the canonical-JSON round trip into key material
    assert f'"engine_rev":{ENGINE_REV}' in cell.cache_key_material().replace(" ", "")


def test_code_fingerprint_folds_engine_revision(monkeypatch):
    from repro.sweep import fingerprint as fp

    base = fp.code_fingerprint()
    try:
        fp.code_fingerprint.cache_clear()
        monkeypatch.setattr("repro.sim.engine.ENGINE_REV", ENGINE_REV + 1)
        bumped = fp.code_fingerprint()
    finally:
        monkeypatch.undo()
        fp.code_fingerprint.cache_clear()
    assert bumped != base
    assert fp.code_fingerprint() == base  # restored after the monkeypatch


#: ``key_payload()`` of :func:`_pinned_cells`, as canonical JSON. Any
#: change here re-keys every cached cell: update these literals only
#: together with an intended cache-key change.
PINNED_FAULT_FREE_KEY = (
    '{"cell":{"algorithm":"tic","batch_factor":1.0,"config":{'
    '"chunk_bytes":4194304,"chunk_queue":"priority","compute_queue":"random",'
    '"device_slowdown":[],"enforcement":"sender","fabric_slots":null,'
    '"grpc_reorder_prob":0.005,"iterations":4,"jitter_sigma":null,'
    '"keep_op_times":false,"seed":3,"warmup":1},"model":"AlexNet v2",'
    '"platform":"envG","spec":{"n_ps":1,"n_workers":2,"sharding":"greedy",'
    '"workload":"training"}},"engine_rev":3,"kind":"sim_cell",'
    '"spec_type":"ClusterSpec"}'
)
PINNED_FAULTED_KEY = (
    '{"cell":{"algorithm":"tic","batch_factor":1.0,"config":{'
    '"chunk_bytes":4194304,"chunk_queue":"priority","compute_queue":"random",'
    '"device_slowdown":[],"enforcement":"sender","fabric_slots":null,'
    '"faults":{"events":[{"dst":"worker:0","duration":0.05,"factor":0.25,'
    '"kind":"link_degradation","src":"ps:0","start":0.0},'
    '{"device":"worker:1","kind":"host_failure","recovery":0.01,'
    '"start":0.02}]},'
    '"grpc_reorder_prob":0.005,"iterations":4,"jitter_sigma":null,'
    '"keep_op_times":false,"seed":3,"warmup":1},"model":"AlexNet v2",'
    '"platform":"envG","spec":{"n_ps":1,"n_workers":2,"sharding":"greedy",'
    '"workload":"training"}},"engine_rev":3,"kind":"sim_cell",'
    '"spec_type":"ClusterSpec"}'
)


def _pinned_cells() -> tuple[SimCell, SimCell]:
    free = SimCell(
        model="AlexNet v2",
        spec=ClusterSpec(2, 1, "training"),
        algorithm="tic",
        platform="envG",
        config=SimConfig(seed=3, iterations=4, warmup=1),
    )
    plan = FaultPlan((
        LinkDegradation("ps:0", "worker:0", start=0.0, duration=0.05, factor=0.25),
        HostFailure("worker:1", 0.02, 0.01),
    ))
    return free, free.with_(config=free.config.with_(faults=plan))


def test_key_payloads_are_pinned():
    """Cached entries stay reachable: the key payload of a representative
    fault-free and faulted cell is byte-stable."""
    free, faulted = _pinned_cells()
    assert canonical_json(free.key_payload()) == PINNED_FAULT_FREE_KEY
    assert canonical_json(faulted.key_payload()) == PINNED_FAULTED_KEY
    # tracing is observational and never reaches the key
    traced = free.with_(config=free.config.with_(trace=True))
    assert canonical_json(traced.key_payload()) == PINNED_FAULT_FREE_KEY


def test_cache_key_material_is_json(tmp_path):
    cell = SimCell(model="tinynet", spec=ClusterSpec(1, 1, "inference"))
    material = json.loads(cell.cache_key_material())
    assert material["payload"]["kind"] == "sim_cell"


# ----------------------------------------------------------------------
# graph memo
# ----------------------------------------------------------------------
def test_build_comm_graph_memoizes_plain_calls():
    backends.clear_graph_memo()
    ir = tiny_model()
    spec = ClusterSpec(2, 1, "training")
    a = backends.build_comm_graph(ir, spec)
    b = backends.build_comm_graph(ir, spec)
    assert a is b
    assert backends.graph_memo_size() == 1
    # a different spec is a different graph
    c = backends.build_comm_graph(ir, ClusterSpec(3, 1, "training"))
    assert c is not a
    assert backends.graph_memo_size() == 2
    backends.clear_graph_memo()


def test_build_comm_graph_kwargs_bypass_memo():
    """Builder kwargs (e.g. unrolled windows) return private instances —
    callers may mutate those freely."""
    backends.clear_graph_memo()
    ir = tiny_model()
    spec = ClusterSpec(2, 1, "training")
    a = backends.build_comm_graph(ir, spec, n_iterations=2)
    b = backends.build_comm_graph(ir, spec, n_iterations=2)
    assert a is not b
    assert backends.graph_memo_size() == 0
    backends.clear_graph_memo()


def test_graph_memo_distinguishes_structurally_different_models():
    from repro.models.builder import NetBuilder

    def variant(flip: bool):
        b = NetBuilder("same_name", 8, input_hw=(16, 16))
        b.conv("conv0", 3, 8, bias=flip, bn=not flip)
        b.fc("logits", 10)
        b.softmax("predictions")
        return b.build()

    backends.clear_graph_memo()
    spec = ClusterSpec(2, 1, "training")
    a = backends.build_comm_graph(variant(True), spec)
    b = backends.build_comm_graph(variant(False), spec)
    assert a is not b
    assert backends.graph_memo_size() == 2
    backends.clear_graph_memo()


def test_graph_memo_capacity_bounded():
    backends.clear_graph_memo()
    ir = tiny_model()
    for w in range(1, backends._GRAPH_MEMO_CAP + 4):
        backends.build_comm_graph(ir, ClusterSpec(w, 1, "inference"))
    assert backends.graph_memo_size() == backends._GRAPH_MEMO_CAP
    backends.clear_graph_memo()

"""Composed mix cores: pinned arrays, per-shape reuse, op names.

A mix core is composed from its jobs' per-shape cores by array
concatenation (see :mod:`repro.sim.jobmix`). The digests below were
taken from cores compiled from the mixes' union DAGs, before
composition existed: every array and state field a core exports must
still hash to them — op/channel offsets, resource numbering through the
placement's ``host_map``, egress round-robin order, ``param_groups``
order (``j10`` sorts before ``j2``), root release times and per-job
fault plans included.
"""

from __future__ import annotations

import hashlib
import inspect

import numpy as np
import pytest

from repro.analysis.timeline import ascii_gantt
from repro.faults import FaultPlan, LinkDegradation, StragglerBurst
from repro.obs.capture import trace_cell
from repro.sim import (
    CompiledCore,
    JobMixSpec,
    JobSpec,
    SimConfig,
    SimVariant,
    build_jobmix_graph,
)
from repro.replay.loader import DEFAULT_MODEL_MIX, load_alibaba_csv
from repro.sim import jobmix
from repro.sweep.spec import SimCell
from repro.timing import get_platform

ENV_C = get_platform("envC")

#: the core's numpy arrays (the compile-expensive part) ...
ARRAY_ATTRS = (
    "base_indeg",
    "succ_indptr",
    "succ_indices",
    "is_transfer",
    "op_res",
    "t_egress",
    "t_ingress",
    "base_dur",
    "wire_base",
    "lat",
    "t_chan",
    "is_chunk",
    "capacity",
    "tr_ids",
    "tr_eg",
    "tr_in",
    "comp_ids",
    "comp_res",
    "root_times",
    "job_of",
)

#: ... and its plain-python state fields.
STATE_ATTRS = (
    "n",
    "n_res",
    "n_wire_channels",
    "_res_index",
    "chan_eid",
    "chan_iid",
    "egress_ids",
    "eg_chan_lists",
    "eg_pos",
    "q_base",
    "q_slots",
    "chunk_op_ids",
    "chunk_param_names",
    "param_groups",
    "roots",
    "jobs",
    "platform",
    "chan_devices",
    "job_faults",
)


def core_digest(core: CompiledCore) -> str:
    """SHA-256 over every exported array (dtype, shape, bytes) and the
    ``repr`` of every exported state field."""
    h = hashlib.sha256()
    for attr in ARRAY_ATTRS:
        arr = np.ascontiguousarray(getattr(core, attr))
        h.update(f"{attr}:{arr.dtype.str}:{arr.shape}:".encode())
        h.update(arr.tobytes())
    for attr in STATE_ATTRS:
        h.update(f"{attr}={getattr(core, attr)!r};".encode())
    return h.hexdigest()


def twelve_jobs(placement: str) -> JobMixSpec:
    """AlexNet v2 / Inception v1 PS jobs plus one allreduce job, with
    staggered arrivals."""
    jobs = [
        JobSpec(
            "AlexNet v2" if i % 2 == 0 else "Inception v1",
            n_workers=1 + i % 2, n_ps=1, arrival=0.25 * (i % 4),
            algorithm="tic",
        )
        for i in range(11)
    ]
    jobs.insert(
        5, JobSpec("AlexNet v2", backend="allreduce", n_workers=2, arrival=0.5)
    )
    return JobMixSpec(jobs=tuple(jobs), placement=placement)


FAULTED = JobMixSpec(
    jobs=(
        JobSpec("AlexNet v2", n_workers=2, n_ps=1),
        JobSpec(
            "Inception v1", n_workers=2, n_ps=1, arrival=0.3,
            faults=FaultPlan((
                StragglerBurst("worker:0", start=0.0, duration=0.1, factor=2.0),
                LinkDegradation("ps:0", "worker:1", 0.05, 0.1, 0.5),
            )),
        ),
    ),
    placement="packed",
)

PINNED = {
    "packed": (
        twelve_jobs("packed"),
        "bfa17596e94f3d2231dfaa3f6574b971c4c699fb62a914673fe1a27dbabce226",
    ),
    "spread": (
        twelve_jobs("spread"),
        "504e30640c5c611e2d6f9f2562db157380db9bbb77ec4bed31cc78e1ed144416",
    ),
    "dedicated": (
        twelve_jobs("dedicated"),
        "340ce332c623da3b9fd942f5a93658087a99dc03deb298870f069e5e3de93d04",
    ),
    "faults": (
        FAULTED,
        "fe25d4c7de204fae6610afd9c6f245e1ccaa05e7c23118460126592c50f45ea4",
    ),
}

#: a PS job and an allreduce job sharing hosts (chunk ops included).
TWO_JOBS = JobMixSpec(
    jobs=(
        JobSpec("AlexNet v2", n_workers=2, n_ps=1, algorithm="tic"),
        JobSpec("AlexNet v2", backend="allreduce", n_workers=2, arrival=0.05),
    ),
    placement="packed",
)
#: SHA-256 of TWO_JOBS' traced op names, newline-joined (union-DAG era).
TWO_JOBS_NAMES = "bae1795e718cbde0216a422d061504e5aeeb98dfbea3d7c02fe88b1c46202033"


@pytest.mark.parametrize("case", sorted(PINNED))
def test_composed_core_matches_pinned_digest(case):
    spec, digest = PINNED[case]
    core = CompiledCore(build_jobmix_graph(None, spec), ENV_C)
    assert core_digest(core) == digest


def test_shape_cores_are_compiled_once_per_shape():
    jobmix.clear_shape_memo()
    mix = build_jobmix_graph(None, twelve_jobs("packed"))
    CompiledCore(mix, ENV_C)
    # 12 jobs, 3 shapes: AlexNet 1w PS, Inception 2w PS, AlexNet allreduce
    assert len(jobmix._shapes) == 3
    assert len({id(s) for s in mix.shapes}) == 3
    cores = {key: s.core(ENV_C) for key, s in jobmix._shapes.items()}
    CompiledCore(build_jobmix_graph(None, twelve_jobs("spread")), ENV_C)
    assert all(jobmix._shapes[k].core(ENV_C) is v for k, v in cores.items())
    # shape cores are lowered only: the event loop's mirrors are skipped
    assert not any(hasattr(core, "succ_of") for core in cores.values())


def test_shape_memo_holds_every_shape_of_a_loaded_trace():
    """A replay cycles through every job shape of its trace; a loaded
    trace has up to len(model_mix) x workers_cap PS shapes, and the
    memo must hold them all or every composition rebuilds them."""
    cap = inspect.signature(load_alibaba_csv).parameters["workers_cap"].default
    assert jobmix._SHAPE_CAP >= len(DEFAULT_MODEL_MIX) * cap


def test_trace_cell_keeps_mix_op_names():
    cap = trace_cell(SimCell(
        model="AlexNet v2", spec=TWO_JOBS, algorithm="mix", platform="envC",
        config=SimConfig(iterations=1, warmup=0),
    ))
    names = cap.trace.op_names
    assert not any(name.startswith("op#") for name in names)
    assert {name.split("/", 1)[0] for name in names} == {"j0", "j1"}
    digest = hashlib.sha256("\n".join(names).encode()).hexdigest()
    assert digest == TWO_JOBS_NAMES


def test_ascii_gantt_renders_a_mix():
    core = CompiledCore(build_jobmix_graph(None, TWO_JOBS), ENV_C)
    sim = SimVariant(core, None, SimConfig(iterations=1, warmup=0))
    chart = ascii_gantt(sim, sim.run_iteration(0), width=60)
    assert chart.startswith("iteration makespan:")
    assert "compute:j0/worker:0 |" in chart
    assert "compute:j1/worker:0 |" in chart

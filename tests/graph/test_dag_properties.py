"""Property-based structural invariants on random worker DAGs."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    GraphError,
    PartitionedGraph,
    critical_path_cost,
    dependency_matrix,
    dependency_sets,
)

from ..conftest import assert_topological
from ..strategies import worker_dags


@given(worker_dags())
@settings(max_examples=60, deadline=None)
def test_dependency_sets_monotone_along_edges(g):
    """An op's dep set contains every predecessor's dep set (transitivity)."""
    deps = dependency_sets(g)
    for op in g:
        for p in g.pred_ids(op.op_id):
            assert deps[p] <= deps[op.op_id]


@given(worker_dags())
@settings(max_examples=60, deadline=None)
def test_recv_dep_sets_are_self_singletons(g):
    deps = dependency_sets(g)
    for op in g.recv_ops():
        assert deps[op.op_id] == {op.op_id}


@given(worker_dags())
@settings(max_examples=60, deadline=None)
def test_matrix_row_sums_match_set_sizes(g):
    mat = dependency_matrix(g)
    deps = dependency_sets(g)
    for op in g:
        assert mat[op.op_id].sum() == len(deps[op.op_id])


@given(worker_dags())
@settings(max_examples=60, deadline=None)
def test_critical_path_between_bounds(g):
    """max op cost <= critical path <= total cost (Eq. 1's U)."""
    cp = critical_path_cost(g)
    total = g.total_cost()
    biggest = max(op.cost for op in g)
    assert biggest - 1e-9 <= cp <= total + 1e-9


@given(worker_dags())
@settings(max_examples=60, deadline=None)
def test_partition_load_sums_to_total_cost(g):
    loads = PartitionedGraph(g).load()
    assert abs(sum(loads.values()) - g.total_cost()) < 1e-9


def _dfs_path_exists(g, src, dst, extra):
    """DFS reference: does ``src`` reach ``dst`` over ``g``'s edges plus
    ``extra`` (a list of ``(u, v)`` id pairs)?"""
    succs = {op.op_id: list(g.succ_ids(op.op_id)) for op in g}
    for u, v in extra:
        succs[u].append(v)
    seen, stack = {src}, [src]
    while stack:
        for nxt in succs[stack.pop()]:
            if nxt == dst:
                return True
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


def _closes_cycle(g, batch):
    """Reference: does adding ``batch`` to ``g`` close a cycle?"""
    return any(_dfs_path_exists(g, d, s, batch) for s, d in batch)


@st.composite
def dags_with_edge_batches(draw):
    """A worker DAG plus two batches of extra edges in both id directions;
    the first may be empty, the second may reverse edges of the first."""
    g = draw(worker_dags())
    pair = st.tuples(
        st.integers(0, len(g) - 1), st.integers(0, len(g) - 1)
    ).filter(lambda e: e[0] != e[1])
    first = draw(st.lists(pair, max_size=6))
    if first:  # reversing a stitched edge closes a cycle through it
        pair = pair | st.sampled_from([(d, s) for s, d in first])
    return g, first, draw(st.lists(pair, min_size=1, max_size=6))


@given(dags_with_edge_batches())
@settings(max_examples=150, deadline=None)
def test_add_edges_rejects_exactly_the_cycles(case):
    """A second batch is checked against the edges the first one stitched,
    backward edges included."""
    g, first, batch = case
    if not _closes_cycle(g, first):
        g.add_edges(first)
    before = [(list(g.pred_ids(op.op_id)), list(g.succ_ids(op.op_id))) for op in g]
    if _closes_cycle(g, batch):
        with pytest.raises(GraphError, match="cycle") as err:
            g.add_edges(batch)
        after = [(list(g.pred_ids(op.op_id)), list(g.succ_ids(op.op_id))) for op in g]
        assert after == before
        # the named edge is a new one and lies on a cycle
        src, dst = re.search(r"'(.+)' -> '(.+)'", str(err.value)).groups()
        s, d = g.op(src).op_id, g.op(dst).op_id
        assert (s, d) in batch and _dfs_path_exists(g, d, s, batch)
        return
    g.add_edges(batch)
    for s, d in batch:
        assert s in g.pred_ids(d) and d in g.succ_ids(s)
    assert_topological(g)

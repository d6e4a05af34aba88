"""DSS-LC's cached per-request minima against the scalar Eq. 2 inputs.

``DSSLCScheduler._per_request_minima`` caches per (service, node names)
within one re-assurance version and builds a miss from the catalog minimum
plus the mechanism's per-service overrides.  Whatever sequence of
Algorithm 1 adjustments, resets, restores and node lists it sees, the
vectors must equal the scalar loop
``max(min_resources(node, spec).{cpu,memory}, 1e-9)`` over the list.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.state_storage import NodeSnapshot
from repro.hrm.qos import QoSDetector
from repro.hrm.reassurance import ReassuranceMechanism
from repro.scheduling.dss_lc import DSSLCScheduler
from repro.workloads.spec import ServiceKind, default_catalog

CATALOG = default_catalog()
LC_SPECS = [s for s in CATALOG if s.kind is ServiceKind.LC][:3]
NAMES = [f"w{i}" for i in range(8)]


def snap(name, cluster=0):
    return NodeSnapshot(
        name=name,
        cluster_id=cluster,
        cpu_total=16.0,
        cpu_available=8.0,
        mem_total=32768.0,
        mem_available=16384.0,
        lc_queue=0,
        be_queue=0,
        running=0,
        min_slack=1.0,
    )


def scalar_minima(mech, spec, nodes):
    r_cpu = [max(mech.min_resources(n.name, spec).cpu, 1e-9) for n in nodes]
    r_mem = [max(mech.min_resources(n.name, spec).memory, 1e-9) for n in nodes]
    return r_cpu, r_mem


def assert_minima(sched, mech, spec, nodes):
    r_cpu, r_mem = sched._per_request_minima(spec, nodes)
    want_cpu, want_mem = scalar_minima(mech, spec, nodes)
    assert r_cpu.tolist() == want_cpu
    assert r_mem.tolist() == want_mem


def fresh_mechanism():
    return ReassuranceMechanism(QoSDetector())


spec_index = st.integers(min_value=0, max_value=len(LC_SPECS) - 1)
sublist = st.lists(st.sampled_from(NAMES), min_size=1, max_size=len(NAMES),
                   unique=True)
ops = st.one_of(
    st.tuples(st.just("scale"), st.sampled_from(NAMES), spec_index,
              st.sampled_from([1.10, 0.96, 1.5, 0.5])),
    st.tuples(st.just("reset_node"), st.sampled_from(NAMES)),
    st.tuples(st.just("reset_all")),
    # query on a new list object (new snapshots, possibly equal names)
    st.tuples(st.just("query_new"), sublist, spec_index),
    # query again on a list object already seen
    st.tuples(st.just("query_old"), st.integers(min_value=0), spec_index),
    st.tuples(st.just("save")),
    st.tuples(st.just("restore")),
)


@settings(max_examples=250, deadline=None)
@given(st.lists(ops, max_size=60))
def test_minima_equal_scalar_loop(sequence):
    mech = fresh_mechanism()
    sched = DSSLCScheduler(reassurance=mech)
    lists = []
    saved = copy.deepcopy(mech.snapshot_state())
    for op in sequence:
        kind = op[0]
        if kind == "scale":
            _, name, k, factor = op
            mech._scale(name, LC_SPECS[k], factor)
        elif kind == "reset_node":
            mech.reset(op[1])
            for spec in LC_SPECS:
                assert mech.min_resources(op[1], spec) is spec.min_resources
        elif kind == "reset_all":
            mech.reset()
            for spec in LC_SPECS:
                assert not mech.overrides(spec.name)
        elif kind == "query_new":
            nodes = [snap(name) for name in op[1]]
            lists.append(nodes)
            assert_minima(sched, mech, LC_SPECS[op[2]], nodes)
        elif kind == "query_old":
            if lists:
                nodes = lists[op[1] % len(lists)]
                assert_minima(sched, mech, LC_SPECS[op[2]], nodes)
        elif kind == "save":
            saved = copy.deepcopy(mech.snapshot_state())
        else:
            mech.restore_state(copy.deepcopy(saved))
    for nodes in lists:
        for spec in LC_SPECS:
            assert_minima(sched, mech, spec, nodes)


def test_equal_names_in_distinct_lists_share_values():
    mech = fresh_mechanism()
    sched = DSSLCScheduler(reassurance=mech)
    spec = LC_SPECS[0]
    mech._scale("w1", spec, 1.5)
    first = [snap(n) for n in NAMES[:4]]
    second = [snap(n) for n in NAMES[:4]]
    assert first is not second
    assert_minima(sched, mech, spec, first)
    assert_minima(sched, mech, spec, second)
    mech._scale("w2", spec, 1.5)
    assert_minima(sched, mech, spec, second)
    assert_minima(sched, mech, spec, first)


def test_recycled_list_ids():
    """Lists freed and reallocated (so ``id()`` values repeat) with other
    names: every query must read its own list's names."""
    mech = fresh_mechanism()
    sched = DSSLCScheduler(reassurance=mech)
    spec = LC_SPECS[0]
    rng = np.random.default_rng(5)
    for name in NAMES[::2]:
        mech._scale(name, spec, 1.5)
    for _ in range(300):
        size = int(rng.integers(1, len(NAMES) + 1))
        picked = [NAMES[i] for i in rng.permutation(len(NAMES))[:size]]
        nodes = [snap(n) for n in picked]
        assert_minima(sched, mech, spec, nodes)
        del nodes


def test_restore_with_same_version_but_other_minima():
    """Two mechanisms that reach the same version count by different
    adjustments: restoring one's state into the other must not serve the
    minima cached before the restore."""
    spec = LC_SPECS[0]
    a, b = fresh_mechanism(), fresh_mechanism()
    a._scale("w0", spec, 1.5)
    b._scale("w1", spec, 1.5)
    assert a.version == b.version
    sched = DSSLCScheduler(reassurance=a)
    nodes = [snap(n) for n in NAMES[:3]]
    assert_minima(sched, a, spec, nodes)
    a.restore_state(copy.deepcopy(b.snapshot_state()))
    assert a.version == b.version
    assert_minima(sched, a, spec, nodes)


def test_spec_with_same_name_and_other_catalog_minimum():
    spec = LC_SPECS[0]
    other = dataclasses.replace(spec, min_resources=spec.min_resources * 2.0)
    sched = DSSLCScheduler()
    nodes = [snap(n) for n in NAMES[:3]]
    mech = fresh_mechanism()  # no overrides: the catalog value everywhere
    assert_minima(sched, mech, spec, nodes)
    assert_minima(sched, mech, other, nodes)


def test_minima_override_path_matches_parent():
    """Shard workers hold no re-assurance mechanism: they serve the
    parent's pre-resolved vectors from ``_minima_override``."""
    mech = fresh_mechanism()
    parent = DSSLCScheduler(reassurance=mech)
    spec, unshipped = LC_SPECS[0], LC_SPECS[1]
    for name in NAMES[1::3]:
        mech._scale(name, spec, 1.5)
        mech._scale(name, unshipped, 1.5)
    nodes = [snap(n) for n in NAMES]
    worker = DSSLCScheduler(parent.config)
    worker._minima_override = {spec.name: parent.minima_for(spec, nodes)}
    assert_minima(worker, mech, spec, nodes)
    # a type the parent did not ship falls back to the catalog minimum
    r_cpu, r_mem = worker._per_request_minima(unshipped, nodes)
    assert r_cpu.tolist() == [max(unshipped.min_resources.cpu, 1e-9)] * len(NAMES)
    assert r_mem.tolist() == [max(unshipped.min_resources.memory, 1e-9)] * len(NAMES)

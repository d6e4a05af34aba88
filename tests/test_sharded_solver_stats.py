"""Sharded runs report the same DSS-LC solver counters as serial runs.

Shard workers dispatch on scheduler clones, so their solve and
augmentation counts must travel back with each master's result and be
added in at the merge barrier.  The decision latency is host time and is
left out of the comparison.
"""

from __future__ import annotations

import functools

import pytest

from repro import TangoConfig, TangoSystem
from repro.cluster.topology import TopologyConfig
from repro.sim.runner import RunnerConfig
from repro.workloads.trace import SyntheticTrace, TraceConfig

DURATION_MS = 3_000.0
CLUSTERS = 6
COUNTERS = ("arenas", "solves", "augmentations", "case2_rounds")


@functools.lru_cache(maxsize=None)
def solver_counters(shards: int, backend: str = "serial") -> tuple:
    """``solver_stats()`` counters of one case-2-heavy tango run."""
    config = TangoConfig.tango(
        topology=TopologyConfig(
            n_clusters=CLUSTERS, workers_per_cluster=1, seed=1
        ),
        runner=RunnerConfig(
            duration_ms=DURATION_MS, shards=shards, parallel_backend=backend
        ),
    )
    trace = SyntheticTrace(
        TraceConfig(
            n_clusters=CLUSTERS,
            duration_ms=DURATION_MS,
            seed=1,
            lc_peak_rps=60.0,
            be_peak_rps=5.0,
        )
    ).generate()
    system = TangoSystem(config)
    try:
        system.run(trace)
    finally:
        system.last_runner.close()
    stats = system.lc_scheduler.solver_stats()
    return tuple((key, stats[key]) for key in COUNTERS)


@pytest.mark.parametrize("backend", ["serial", "thread"])
@pytest.mark.parametrize("shards", [1, 2, 4])
def test_sharded_solver_stats_match_serial(shards, backend):
    want = dict(solver_counters(0))
    assert want["solves"] > 0 and want["case2_rounds"] > 0
    assert dict(solver_counters(shards, backend)) == want

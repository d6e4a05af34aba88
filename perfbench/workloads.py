"""The benchmark's workloads and how their inputs are made from a seed.

Each workload has two seeds:

* the *structure seed* fixes what the workload is: the topology (cluster
  positions, worker counts and sizes) and the trace's shape (per-cluster
  load weights, diurnal phases, service popularity).  It defaults to the
  workload's own seed and is changed only with ``--structure-seed``.
* the *realisation seed* (``--seed``) draws the arrivals from that shape.

Keeping the structure fixed is what makes runs with different ``--seed``
comparable: a heterogeneous 10-cluster draw holds 80 to 141 workers
depending on its seed, which would change the workload, not sample it.
With ``--seed`` equal to the structure seed, the trace is exactly the one
``SyntheticTrace(TraceConfig(seed=<structure seed>))`` produces, so the
default runs continue the ``STANDARD_WORKLOAD`` / BENCH_PR1 numbers.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = ["Workload", "WORKLOADS", "build_trace", "build_config"]


@dataclass(frozen=True)
class Workload:
    name: str
    stack: str
    clusters: int
    #: None draws 3-20 workers per cluster from the structure seed.
    workers_per_cluster: Optional[int]
    seed: int
    #: a second seed a later claim must also hold on (choosing-metrics §6.3).
    held_out_seed: int
    lc_peak_rps: float
    be_peak_rps: float
    #: the arrival window: the trace spans it.
    duration_ms: float
    why: str
    tick_ms: float = 25.0
    nearby_radius_km: Optional[float] = None
    #: service kinds whose arrivals ``--seed`` redraws; the others keep the
    #: structure seed's draw.
    seeded_kinds: Tuple[str, ...] = ("LC", "BE")
    #: simulated time after the arrival window, so work in flight finishes.
    drain_ms: float = 0.0

    def horizon_ms(self, duration_ms: float) -> float:
        """Simulated time for an arrival window of ``duration_ms``."""
        return duration_ms + self.drain_ms


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="standard",
            stack="tango",
            clusters=10,
            workers_per_cluster=None,  # 130 workers at structure seed 3
            seed=3,
            held_out_seed=4,
            lc_peak_rps=60.0,
            be_peak_rps=15.0,
            duration_ms=10_000.0,
            why=(
                "tango, 10 clusters / 130 workers, 60 LC + 15 BE rps, 10 s: "
                "DCG-BE (GraphSAGE encode, A2C train) dominates host time; "
                "DSS-LC runs case 2"
            ),
        ),
        Workload(
            name="lc-geo",
            stack="tango",
            clusters=32,
            workers_per_cluster=3,
            seed=11,
            held_out_seed=12,
            lc_peak_rps=100.0,
            be_peak_rps=0.5,
            duration_ms=5_000.0,
            nearby_radius_km=2_400.0,
            # ~70 BE requests of 2-8 s are a background: redrawn with the
            # seed, their ~10 completions in the arrival window swing by a
            # third from the service mix alone.  So the background keeps the
            # structure seed's draw, and a 2.5 s drain lets ~35 of them
            # finish (longer drains would put idle ticks at the tick median).
            seeded_kinds=("LC",),
            drain_ms=2_500.0,
            why=(
                "tango, 32 x 3 workers, every LC graph spans all 96, 100 LC "
                "rps for 5 s + 2.5 s drain: DSS-LC case 1 and MCMF dominate, "
                "DCG-BE is nearly idle"
            ),
        ),
        Workload(
            name="k8s-baseline",
            stack="k8s-native",
            clusters=10,
            workers_per_cluster=None,
            seed=3,
            held_out_seed=4,
            lc_peak_rps=60.0,
            be_peak_rps=15.0,
            duration_ms=30_000.0,
            why=(
                "k8s-native stack on the standard topology and trace, 30 s: "
                "node stepping dominates, nn, flow and hrm are bypassed, BE "
                "queues grow long"
            ),
        ),
    )
}


def _trace_config(wl: Workload, seed: int, duration_ms: float):
    from repro.workloads.trace import TraceConfig

    return TraceConfig(
        n_clusters=wl.clusters,
        duration_ms=duration_ms,
        seed=seed,
        lc_peak_rps=wl.lc_peak_rps,
        be_peak_rps=wl.be_peak_rps,
    )


def _generate(wl: Workload, structure_seed: int, seed: int, duration_ms: float):
    from repro.workloads.trace import SyntheticTrace

    generator = SyntheticTrace(_trace_config(wl, structure_seed, duration_ms))
    # The constructor drew the shape from the structure seed; the per-
    # cluster arrival streams are seeded from ``config.seed`` at generation.
    generator.config = dataclasses.replace(generator.config, seed=seed)
    return generator.generate()


def build_trace(
    wl: Workload, seed: int, structure_seed: int, duration_ms: float
) -> List:
    """The trace records for one run, sorted by arrival time."""
    records = _generate(wl, structure_seed, seed, duration_ms)
    if set(wl.seeded_kinds) == {"LC", "BE"} or seed == structure_seed:
        return records
    fixed = _generate(wl, structure_seed, structure_seed, duration_ms)
    keep = [r for r in records if r.kind.value in wl.seeded_kinds]
    keep += [r for r in fixed if r.kind.value not in wl.seeded_kinds]
    return sorted(keep, key=lambda r: r.time_ms)


def build_config(
    wl: Workload, structure_seed: int, duration_ms: float, **runner_options
):
    """The ``TangoConfig`` for one run (serial execution, no shards) with
    an arrival window of ``duration_ms``."""
    from repro.cluster.topology import TopologyConfig
    from repro.core.config import TangoConfig
    from repro.sim.runner import RunnerConfig

    factories = {"tango": TangoConfig.tango, "k8s-native": TangoConfig.k8s_native}
    topology = {
        "n_clusters": wl.clusters,
        "workers_per_cluster": wl.workers_per_cluster,
        "seed": structure_seed,
    }
    if wl.nearby_radius_km is not None:
        topology["nearby_radius_km"] = wl.nearby_radius_km
    return factories[wl.stack](
        topology=TopologyConfig(**topology),
        runner=RunnerConfig(
            duration_ms=wl.horizon_ms(duration_ms),
            tick_ms=wl.tick_ms,
            **runner_options,
        ),
    )

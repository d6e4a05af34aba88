"""Experiment metrics: utilization, QoS satisfaction, throughput.

§5.1.2 defines the two system objectives this pipeline measures:

* **QoS-guarantee satisfaction rate** φ — completed LC requests meeting
  their tail-latency target over all arrived LC requests;
* **long-term throughput** φ′ — total completed BE requests over time.

§6.2: "each period in figures represents 800 ms, which is the frequency at
which we collect data" — :class:`PeriodCollector` samples utilisation and
counts at that cadence so experiment outputs line up with the paper's
figures period-for-period.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.topology import EdgeCloudSystem
from repro.sim.request import ServiceRequest
from repro.workloads.spec import ServiceKind

from .window import percentile

__all__ = ["PERIOD_MS", "PeriodCollector", "RunMetrics"]

#: data-collection period (§6.2).
PERIOD_MS = 800.0


@dataclass
class RunMetrics:
    """Aggregated outcome of one simulation run."""

    lc_arrived: int = 0
    lc_completed: int = 0
    lc_satisfied: int = 0
    lc_abandoned: int = 0
    be_arrived: int = 0
    be_completed: int = 0
    be_evictions: int = 0
    lc_latencies_ms: List[float] = field(default_factory=list)
    #: per-service outcome counts: service → [arrived, completed, satisfied]
    per_service: Dict[str, List[int]] = field(default_factory=dict)
    #: per-period series (index = period number)
    utilization: List[float] = field(default_factory=list)
    lc_utilization: List[float] = field(default_factory=list)
    be_utilization: List[float] = field(default_factory=list)
    lc_arrivals_per_period: List[int] = field(default_factory=list)
    be_arrivals_per_period: List[int] = field(default_factory=list)
    qos_rate_per_period: List[float] = field(default_factory=list)
    be_completed_per_period: List[int] = field(default_factory=list)
    #: trace records whose cluster id fell outside the topology and were
    #: folded back with ``cluster_id % n_clusters`` (bad trace rows are
    #: counted, not silently remapped).
    trace_remapped: int = 0
    #: runtime invariant violations observed (0 unless the invariant stage
    #: is enabled *and* a law fails; soft mode keeps counting, strict mode
    #: raises on the first one).
    invariant_violations: int = 0
    invariant_violations_by_law: Dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # headline numbers
    # ------------------------------------------------------------------ #
    @property
    def qos_satisfaction_rate(self) -> float:
        """φ: satisfied / arrived (abandoned requests count against it)."""
        if self.lc_arrived == 0:
            return 1.0
        return self.lc_satisfied / self.lc_arrived

    @property
    def be_throughput(self) -> int:
        """φ′: total completed BE requests."""
        return self.be_completed

    @property
    def mean_utilization(self) -> float:
        return float(np.mean(self.utilization)) if self.utilization else 0.0

    def lc_tail_latency_ms(self, q: float = 95.0) -> Optional[float]:
        return percentile(self.lc_latencies_ms, q)

    def service_qos_rates(self) -> Dict[str, float]:
        """Per-service satisfaction rate (satisfied / arrived), LC and BE."""
        return {
            name: (counts[2] / counts[0] if counts[0] else 1.0)
            for name, counts in sorted(self.per_service.items())
        }

    def _bump_service(self, name: str, slot: int) -> None:
        counts = self.per_service.setdefault(name, [0, 0, 0])
        counts[slot] += 1

    def summary(self) -> Dict[str, float]:
        return {
            "qos_satisfaction_rate": self.qos_satisfaction_rate,
            "be_throughput": float(self.be_throughput),
            "mean_utilization": self.mean_utilization,
            "lc_abandoned": float(self.lc_abandoned),
            "lc_tail_latency_ms": self.lc_tail_latency_ms() or 0.0,
            "be_evictions": float(self.be_evictions),
        }


class PeriodCollector:
    """Samples system state every period and folds request outcomes in."""

    def __init__(self, system: EdgeCloudSystem, period_ms: float = PERIOD_MS):
        self.system = system
        self.period_ms = period_ms
        self.metrics = RunMetrics()
        self._period_lc_arrivals = 0
        self._period_be_arrivals = 0
        self._period_lc_completed = 0
        self._period_lc_satisfied = 0
        self._period_be_completed = 0
        self._next_sample_ms = period_ms

    # ------------------------------------------------------------------ #
    # event hooks (called by the runner)
    # ------------------------------------------------------------------ #
    def on_arrival(self, request: ServiceRequest) -> None:
        self.metrics._bump_service(request.spec.name, 0)
        if request.is_lc:
            self.metrics.lc_arrived += 1
            self._period_lc_arrivals += 1
        else:
            self.metrics.be_arrived += 1
            self._period_be_arrivals += 1

    def on_completion(self, request: ServiceRequest) -> None:
        self.metrics._bump_service(request.spec.name, 1)
        if request.qos_met():
            self.metrics._bump_service(request.spec.name, 2)
        if request.is_lc:
            self.metrics.lc_completed += 1
            self._period_lc_completed += 1
            latency = request.total_latency_ms()
            if latency is not None:
                self.metrics.lc_latencies_ms.append(latency)
            if request.qos_met():
                self.metrics.lc_satisfied += 1
                self._period_lc_satisfied += 1
        else:
            self.metrics.be_completed += 1
            self._period_be_completed += 1

    def on_abandon(self, request: ServiceRequest) -> None:
        if request.is_lc:
            self.metrics.lc_abandoned += 1

    def on_eviction(self, request: ServiceRequest) -> None:
        self.metrics.be_evictions += 1

    # ------------------------------------------------------------------ #
    # periodic sampling
    # ------------------------------------------------------------------ #
    def maybe_sample(self, now_ms: float) -> bool:
        if now_ms + 1e-9 < self._next_sample_ms:
            return False
        self._next_sample_ms += self.period_ms
        m = self.metrics
        m.utilization.append(self.system.system_utilization())
        lc_u, be_u = self._utilization_by_kind()
        m.lc_utilization.append(lc_u)
        m.be_utilization.append(be_u)
        m.lc_arrivals_per_period.append(self._period_lc_arrivals)
        m.be_arrivals_per_period.append(self._period_be_arrivals)
        m.be_completed_per_period.append(self._period_be_completed)
        rate = (
            self._period_lc_satisfied / self._period_lc_completed
            if self._period_lc_completed
            else 1.0
        )
        m.qos_rate_per_period.append(rate)
        self._period_lc_arrivals = 0
        self._period_be_arrivals = 0
        self._period_lc_completed = 0
        self._period_lc_satisfied = 0
        self._period_be_completed = 0
        return True

    # ------------------------------------------------------------------ #
    # Checkpointable
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> Dict:
        """Full metrics plus the open (partial) period's counters."""
        return {
            "metrics": self.metrics,
            "period_lc_arrivals": self._period_lc_arrivals,
            "period_be_arrivals": self._period_be_arrivals,
            "period_lc_completed": self._period_lc_completed,
            "period_lc_satisfied": self._period_lc_satisfied,
            "period_be_completed": self._period_be_completed,
            "next_sample_ms": self._next_sample_ms,
        }

    def restore_state(self, state: Dict) -> None:
        self.metrics = state["metrics"]
        self._period_lc_arrivals = state["period_lc_arrivals"]
        self._period_be_arrivals = state["period_be_arrivals"]
        self._period_lc_completed = state["period_lc_completed"]
        self._period_lc_satisfied = state["period_lc_satisfied"]
        self._period_be_completed = state["period_be_completed"]
        self._next_sample_ms = state["next_sample_ms"]

    def _utilization_by_kind(self) -> tuple:
        lc_parts, be_parts = [], []
        for worker in self.system.all_workers():
            shares = worker.utilization_by_kind()
            lc_parts.append(shares[ServiceKind.LC])
            be_parts.append(shares[ServiceKind.BE])
        if not lc_parts:
            return 0.0, 0.0
        return float(np.mean(lc_parts)), float(np.mean(be_parts))

"""QoS re-assurance mechanism — Algorithm 1 of the paper (§4.3).

For every worker node and LC service, the mechanism compares the slack score
δ against two empirical thresholds:

* ``δ < α``  (poor)      → *increase* the minimum requested resource amount;
* ``δ > β``  (excellent) → *decrease* it;
* otherwise  (stable)    → leave it alone.

"To minimize resource perturbations, the mechanism operates at a high
frequency with a small proportion": adjustments are multiplicative with a
small step and clamped between a floor (a fraction of the catalog minimum)
and a ceiling (a multiple of the reference allocation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Tuple

from repro.cluster.resources import ResourceVector
from repro.obs.emitter import NULL_EMITTER
from repro.workloads.spec import ServiceSpec

from .qos import QoSDetector

__all__ = [
    "ReassuranceConfig",
    "ReassuranceMechanism",
    "LEVEL_POOR",
    "LEVEL_STABLE",
    "LEVEL_EXCELLENT",
]


@dataclass
class ReassuranceConfig:
    #: slack below which performance is "poor" (α in Algorithm 1).  The
    #: paper sets the thresholds empirically; α=0.25 reacts before the p95
    #: actually crosses the target (slack < 0), keeping violations rare.
    alpha: float = 0.25
    #: slack above which performance is "excellent" (β in Algorithm 1):
    #: above it the service is over-provisioned and its minimum shrinks,
    #: freeing resources for BE work.
    beta: float = 0.45
    #: multiplicative step applied on each adjustment ("small proportion").
    increase_step: float = 1.10
    decrease_step: float = 0.96
    #: bounds relative to the catalog values.
    floor_fraction: float = 0.6
    ceiling_multiple: float = 1.6
    #: how often the mechanism runs (ms); paper: every 100 ms window.
    period_ms: float = 100.0


# Quality-performance levels from §4.3 (kept as plain strings so they can be
# used directly as dict keys in counters and reports).
LEVEL_POOR = "poor"
LEVEL_STABLE = "stable"
LEVEL_EXCELLENT = "excellent"

_NO_OVERRIDES: Mapping[str, ResourceVector] = MappingProxyType({})


class ReassuranceMechanism:
    """Maintains the adjusted per-(node, service) minimum request amounts."""

    def __init__(
        self,
        detector: QoSDetector,
        config: Optional[ReassuranceConfig] = None,
    ) -> None:
        self.detector = detector
        self.config = config or ReassuranceConfig()
        if not self.config.alpha < self.config.beta:
            raise ValueError("require alpha < beta")
        #: adjusted minima, service → {node: minimum}; a (node, service)
        #: pair without an entry uses the catalog minimum.  Grouped by
        #: service so DSS-LC can patch a catalog-filled vector with only the
        #: overrides that exist (a few hundred at most) instead of querying
        #: every eligible node.
        self._min_resources: Dict[str, Dict[str, ResourceVector]] = {}
        self._last_run_ms: float = -1e18
        self.adjustments = {LEVEL_POOR: 0, LEVEL_EXCELLENT: 0, LEVEL_STABLE: 0}
        #: bumped on every minima change so consumers (DSS-LC) can cache
        #: derived per-node values between adjustment passes.
        self.version = 0
        #: lifecycle emitter; rewired by the runner, null when standalone.
        self.emitter = NULL_EMITTER
        #: last known level per (node, service); only maintained when the
        #: emitter is live, to publish level *transitions* rather than the
        #: stable-state classification of every pass.
        self._levels: Dict[Tuple[str, str], str] = {}

    # ------------------------------------------------------------------ #
    # state access
    # ------------------------------------------------------------------ #
    def min_resources(self, node: str, spec: ServiceSpec) -> ResourceVector:
        """Current minimum allocation for one request of ``spec`` on node."""
        overrides = self._min_resources.get(spec.name)
        if overrides is None:
            return spec.min_resources
        return overrides.get(node, spec.min_resources)

    def overrides(self, service: str) -> Mapping[str, ResourceVector]:
        """Node → adjusted minimum for ``service``, only where one is set.

        A read-only live view: it changes whenever :attr:`version` does.
        """
        return self._min_resources.get(service, _NO_OVERRIDES)

    def classify(
        self,
        node: str,
        spec: ServiceSpec,
        *,
        now_ms: Optional[float] = None,
    ) -> str:
        slack = self.detector.slack_score(node, spec.name, spec, now_ms=now_ms)
        if slack is None:
            return LEVEL_STABLE
        if slack < self.config.alpha:
            return LEVEL_POOR
        if slack > self.config.beta:
            return LEVEL_EXCELLENT
        return LEVEL_STABLE

    # ------------------------------------------------------------------ #
    # Algorithm 1
    # ------------------------------------------------------------------ #
    def run(
        self,
        now_ms: float,
        nodes: Dict[str, Dict[str, ServiceSpec]],
    ) -> int:
        """One pass over (node, LC service) pairs; returns adjustment count.

        ``nodes`` maps node name → {service name: spec} for the LC services
        active on that node.  Respects the configured period: calls between
        periods are no-ops, so the caller can invoke it every tick.
        """
        if now_ms - self._last_run_ms < self.config.period_ms:
            return 0
        self._last_run_ms = now_ms
        changed = 0
        for node, services in nodes.items():
            for name, spec in services.items():
                if not spec.is_lc:
                    continue
                level = self.classify(node, spec, now_ms=now_ms)
                self.adjustments[level] += 1
                if level == LEVEL_POOR:
                    self._scale(node, spec, self.config.increase_step)
                    changed += 1
                elif level == LEVEL_EXCELLENT:
                    self._scale(node, spec, self.config.decrease_step)
                    changed += 1
                if self.emitter.enabled:
                    key = (node, name)
                    previous = self._levels.get(key, LEVEL_STABLE)
                    if level != previous:
                        self._levels[key] = level
                        self.emitter.reassurance_transition(
                            now_ms, node, name, previous, level
                        )
        return changed

    def _scale(self, node: str, spec: ServiceSpec, factor: float) -> None:
        current = self.min_resources(node, spec)
        scaled = current * factor
        floor = spec.min_resources * self.config.floor_fraction
        ceiling = spec.reference_resources * self.config.ceiling_multiple
        self._min_resources.setdefault(spec.name, {})[node] = scaled.max_with(
            floor
        ).min_with(ceiling)
        self.version += 1

    def reset(self, node: Optional[str] = None) -> None:
        self.version += 1
        if node is None:
            self._min_resources.clear()
        else:
            for overrides in self._min_resources.values():
                overrides.pop(node, None)

    # ------------------------------------------------------------------ #
    # Checkpointable
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> Dict:
        return {
            "min_resources": self._min_resources,
            "last_run_ms": self._last_run_ms,
            "adjustments": self.adjustments,
            "version": self.version,
            "levels": self._levels,
        }

    def restore_state(self, state: Dict) -> None:
        self._min_resources = state["min_resources"]
        self._last_run_ms = state["last_run_ms"]
        self.adjustments = state["adjustments"]
        self.version = state["version"]
        self._levels = state["levels"]

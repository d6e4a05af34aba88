"""Helpers for building flow networks from scheduling graphs.

DSS-LC (§5.2) models each LC request type ``k`` as a graph ``G_k`` whose nodes
carry a supply/demand term ``t_i^k`` (positive = pending requests at a master,
negative = processing capacity at a worker) and whose edges carry transmission
delay and capacity.  This module lowers such a graph to a single-commodity
min-cost max-flow instance with a super-source/super-sink, which is exactly
how multi-source multi-sink transportation problems are solved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .mcmf import MinCostMaxFlow, FlowResult

__all__ = ["SupplyDemandGraph", "AssignmentResult", "solve_transport"]

#: Multiplier converting float delays (ms) to integer costs (µs resolution).
COST_SCALE = 1000


@dataclass
class SupplyDemandGraph:
    """A supply/demand graph in the paper's ``G_k`` form.

    Attributes
    ----------
    supplies:
        ``supplies[i] > 0`` means node ``i`` has that many pending requests to
        place (a master); ``supplies[i] < 0`` means node ``i`` can absorb
        ``-supplies[i]`` requests (a worker).  Zero nodes are pure relays.
    edges:
        ``(src, dst, delay_ms, capacity)`` tuples.  Delay becomes the flow
        cost; capacity bounds the number of requests routed over the link.
    """

    supplies: List[int] = field(default_factory=list)
    edges: List[Tuple[int, int, float, int]] = field(default_factory=list)

    @property
    def n_nodes(self) -> int:
        return len(self.supplies)

    def total_demand(self) -> int:
        return sum(s for s in self.supplies if s > 0)

    def total_capacity(self) -> int:
        return sum(-s for s in self.supplies if s < 0)


@dataclass
class AssignmentResult:
    """Routing decision produced by :func:`solve_transport`.

    ``routed[(i, j)]`` is the number of requests moved over edge ``(i, j)``;
    ``absorbed[j]`` is how many requests node ``j`` ends up processing
    (including requests that originate locally when ``allow_local`` is set).
    """

    routed: Dict[Tuple[int, int], int]
    absorbed: Dict[int, int]
    placed: int
    total_delay_ms: float


def solve_transport(
    graph: SupplyDemandGraph,
    *,
    local_processing: bool = True,
    arena: Optional[MinCostMaxFlow] = None,
) -> AssignmentResult:
    """Route supply to demand at minimum total transmission delay.

    A super-source connects to every positive-supply node and every
    negative-supply node connects to a super-sink.  When ``local_processing``
    is true, a node that both holds pending requests and has capacity may
    process its own requests at zero delay (the common case for a
    master+worker edge-cloud).

    ``arena`` reuses a caller-held :class:`MinCostMaxFlow` instance (its
    network is rebuilt in place) instead of allocating a solver per call.
    DSS-LC's star graphs skip this lowering altogether: see
    :mod:`repro.flow.star`, which is tested against it.
    """
    n = graph.n_nodes
    if n == 0:
        return AssignmentResult({}, {}, 0, 0.0)
    source = n
    sink = n + 1
    if arena is None:
        net = MinCostMaxFlow(n + 2)
    else:
        net = arena
        net.rebuild(n + 2)

    # Stage all arcs and hand them to the solver in one bulk call (same
    # order, hence bit-identical arrays, as per-arc add_edge calls).
    supply_edge: Dict[int, int] = {}
    demand_edge: Dict[int, int] = {}
    staged: List[Tuple[int, int, int, int]] = []
    idx = 0
    for i, s in enumerate(graph.supplies):
        if s > 0:
            supply_edge[i] = idx
            staged.append((source, i, s, 0))
            idx += 1
        elif s < 0:
            demand_edge[i] = idx
            staged.append((i, sink, -s, 0))
            idx += 1

    transit_edges: List[Tuple[int, Tuple[int, int]]] = []
    for src, dst, delay_ms, capacity in graph.edges:
        if capacity <= 0:
            continue
        cost = max(0, int(round(delay_ms * COST_SCALE)))
        transit_edges.append((idx, (src, dst)))
        staged.append((src, dst, int(capacity), cost))
        idx += 1
    net.add_edges(staged)

    result: FlowResult = net.solve(source, sink)

    routed: Dict[Tuple[int, int], int] = {}
    for idx, key in transit_edges:
        f = result.edge_flows[idx]
        if f > 0:
            routed[key] = routed.get(key, 0) + f

    absorbed: Dict[int, int] = {}
    for j, idx in demand_edge.items():
        f = result.edge_flows[idx]
        if f > 0:
            absorbed[j] = f

    return AssignmentResult(
        routed=routed,
        absorbed=absorbed,
        placed=result.flow,
        total_delay_ms=result.cost / COST_SCALE,
    )

"""Min-cost max-flow solver — the substrate that replaces OR-Tools in DSS-LC.

The paper solves the Multi-Commodity Network Flow formulation of LC request
scheduling (§5.2) with Google OR-Tools.  OR-Tools is not available offline, so
we implement an integral min-cost max-flow solver from scratch using the
successive-shortest-path (SSP) algorithm with Johnson potentials: an initial
Bellman-Ford pass handles arbitrary (non-negative in our usage) costs, and all
subsequent augmentations run Dijkstra on reduced costs, which keeps the solver
fast enough for the 1000-node graphs in §7.2.

The solver operates on integer capacities and integer (scaled) costs.  DSS-LC
scales float transmission delays to integer microsecond costs before calling
into this module.

Storage is flat parallel arrays (src/dst/capacity/cost/flow per arc) rather
than per-arc objects: a dispatch round builds thousands of short-lived arcs,
and array slots are far cheaper to allocate and to walk in the Dijkstra inner
loop.  The arrays double as an arena — :meth:`MinCostMaxFlow.rebuild` clears
the network in place so a caller can refill one solver instead of
re-allocating the object graph.

DSS-LC's per-type graphs are stars and are solved in closed form by
:mod:`repro.flow.star`; this solver serves the multi-commodity
``coordinate_types`` path and is the oracle the star solver is tested
against.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["MinCostMaxFlow", "FlowEdge", "FlowResult"]

_INF = float("inf")


@dataclass
class FlowEdge:
    """One directed arc in the residual network (a read view of the arrays)."""

    src: int
    dst: int
    capacity: int
    cost: int
    flow: int = 0

    @property
    def residual(self) -> int:
        return self.capacity - self.flow


@dataclass
class FlowResult:
    """Outcome of a max-flow computation."""

    flow: int
    cost: int
    #: flow carried by each *forward* edge, in the order edges were added.
    edge_flows: List[int] = field(default_factory=list)


class MinCostMaxFlow:
    """Successive-shortest-path min-cost max-flow on integer networks.

    Usage::

        net = MinCostMaxFlow(n_nodes)
        e0 = net.add_edge(src, dst, capacity, cost)
        result = net.solve(source, sink)
        result.edge_flows[e0]   # flow routed over the first edge

    Negative costs are accepted (a single Bellman-Ford pass initialises the
    potentials); negative *cycles* are not supported and will raise.

    The instance is reusable as an arena: :meth:`reset` zeroes flows while
    keeping the topology (re-solve the same network), and :meth:`rebuild`
    clears everything for a new network while keeping the allocated storage.
    """

    def __init__(self, n_nodes: int) -> None:
        if n_nodes <= 0:
            raise ValueError("flow network needs at least one node")
        self.n = n_nodes
        # flat parallel arrays; forward arcs at even indices, their residual
        # twins at odd indices (twin of arc i is i ^ 1).
        self._src: List[int] = []
        self._dst: List[int] = []
        self._cap: List[int] = []
        self._cost: List[int] = []
        self._flow: List[int] = []
        self._adj: List[List[int]] = [[] for _ in range(n_nodes)]
        self._has_negative_cost = False
        # cumulative counters (survive rebuild)
        self.solves = 0
        self.augmentations = 0

    # ------------------------------------------------------------------ #
    # construction / arena reuse
    # ------------------------------------------------------------------ #
    def add_edge(self, src: int, dst: int, capacity: int, cost: int) -> int:
        """Add a forward arc and its residual twin; return the forward index.

        The returned index identifies the edge in ``FlowResult.edge_flows``
        (forward edges occupy even slots internally; the public index is the
        count of forward edges added so far).
        """
        self._check_node(src)
        self._check_node(dst)
        if capacity < 0:
            raise ValueError(f"negative capacity {capacity}")
        if cost < 0:
            self._has_negative_cost = True
        cost = int(cost)
        base = len(self._src)
        self._src.extend((src, dst))
        self._dst.extend((dst, src))
        self._cap.extend((int(capacity), 0))
        self._cost.extend((cost, -cost))
        self._flow.extend((0, 0))
        self._adj[src].append(base)
        self._adj[dst].append(base + 1)
        return base // 2

    def add_edges(self, edges) -> int:
        """Bulk :meth:`add_edge`; returns the first forward index added.

        Semantically identical to calling ``add_edge`` per tuple in order —
        the hot dispatch path uses it to amortise per-call overhead when a
        transport graph contributes dozens of arcs at once.
        """
        src_l, dst_l = self._src, self._dst
        cap_l, cost_l, flow_l = self._cap, self._cost, self._flow
        adj, n = self._adj, self.n
        first = len(src_l) // 2
        base = len(src_l)
        for src, dst, capacity, cost in edges:
            if not 0 <= src < n:
                raise ValueError(f"node {src} outside [0, {n})")
            if not 0 <= dst < n:
                raise ValueError(f"node {dst} outside [0, {n})")
            if capacity < 0:
                raise ValueError(f"negative capacity {capacity}")
            cost = int(cost)
            if cost < 0:
                self._has_negative_cost = True
            src_l.extend((src, dst))
            dst_l.extend((dst, src))
            cap_l.extend((int(capacity), 0))
            cost_l.extend((cost, -cost))
            flow_l.extend((0, 0))
            adj[src].append(base)
            adj[dst].append(base + 1)
            base += 2
        return first

    def reset(self) -> None:
        """Zero all flows, keeping the network; the next solve starts fresh."""
        self._flow = [0] * len(self._flow)

    def rebuild(self, n_nodes: int) -> None:
        """Clear the network for a new topology, reusing allocated storage."""
        if n_nodes <= 0:
            raise ValueError("flow network needs at least one node")
        self._src.clear()
        self._dst.clear()
        self._cap.clear()
        self._cost.clear()
        self._flow.clear()
        if n_nodes == self.n:
            for bucket in self._adj:
                bucket.clear()
        else:
            self.n = n_nodes
            self._adj = [[] for _ in range(n_nodes)]
        self._has_negative_cost = False

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.n:
            raise ValueError(f"node {node} outside [0, {self.n})")

    @property
    def n_edges(self) -> int:
        return len(self._src) // 2

    # ------------------------------------------------------------------ #
    # solving
    # ------------------------------------------------------------------ #
    def solve(
        self,
        source: int,
        sink: int,
        max_flow: Optional[int] = None,
    ) -> FlowResult:
        """Push up to ``max_flow`` units (default: maximum) at minimum cost."""
        self._check_node(source)
        self._check_node(sink)
        if source == sink:
            raise ValueError("source and sink must differ")
        limit = _INF if max_flow is None else int(max_flow)
        self.solves += 1

        potential = self._initial_potentials(source)
        total_flow = 0
        total_cost = 0

        cap, cost, flow, src = self._cap, self._cost, self._flow, self._src
        while total_flow < limit:
            dist, parent_edge = self._dijkstra(source, potential)
            if dist[sink] == _INF:
                break
            self.augmentations += 1
            for v in range(self.n):
                if dist[v] < _INF:
                    potential[v] += dist[v]
            # find bottleneck along the path
            push = limit - total_flow
            v = sink
            while v != source:
                idx = parent_edge[v]
                residual = cap[idx] - flow[idx]
                if residual < push:
                    push = residual
                v = src[idx]
            # apply
            v = sink
            while v != source:
                idx = parent_edge[v]
                flow[idx] += push
                flow[idx ^ 1] -= push
                total_cost += push * cost[idx]
                v = src[idx]
            total_flow += push

        edge_flows = [
            f if f > 0 else 0 for f in flow[::2]
        ]
        return FlowResult(flow=total_flow, cost=total_cost, edge_flows=edge_flows)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _initial_potentials(self, source: int) -> List[float]:
        if not self._has_negative_cost:
            return [0.0] * self.n
        # Bellman-Ford over residual arcs with positive capacity.
        dist = [_INF] * self.n
        dist[source] = 0.0
        cap, cost, flow = self._cap, self._cost, self._flow
        src, dst = self._src, self._dst
        n_arcs = len(src)
        for iteration in range(self.n):
            changed = False
            for idx in range(n_arcs):
                if (
                    cap[idx] - flow[idx] > 0
                    and dist[src[idx]] + cost[idx] < dist[dst[idx]]
                ):
                    dist[dst[idx]] = dist[src[idx]] + cost[idx]
                    changed = True
            if not changed:
                break
        else:
            raise ValueError("negative-cost cycle detected")
        return [d if d < _INF else 0.0 for d in dist]

    def _dijkstra(
        self, source: int, potential: List[float]
    ) -> Tuple[List[float], List[int]]:
        dist = [_INF] * self.n
        parent_edge = [-1] * self.n
        dist[source] = 0.0
        heap: List[Tuple[float, int]] = [(0.0, source)]
        cap, cost, flow = self._cap, self._cost, self._flow
        dst, adj = self._dst, self._adj
        push, pop = heapq.heappush, heapq.heappop
        while heap:
            d, u = pop(heap)
            if d > dist[u]:
                continue
            pot_u = potential[u]
            for idx in adj[u]:
                if cap[idx] - flow[idx] <= 0:
                    continue
                v = dst[idx]
                reduced = cost[idx] + pot_u - potential[v]
                nd = d + reduced
                if nd < dist[v] - 1e-12:
                    dist[v] = nd
                    parent_edge[v] = idx
                    push(heap, (nd, v))
        return dist, parent_edge

    # ------------------------------------------------------------------ #
    # introspection (used by tests and by DSS-LC result extraction)
    # ------------------------------------------------------------------ #
    def edge(self, public_index: int) -> FlowEdge:
        """Return the forward edge for a public index from :meth:`add_edge`."""
        internal = public_index * 2
        if not 0 <= internal < len(self._src):
            raise IndexError(public_index)
        return FlowEdge(
            src=self._src[internal],
            dst=self._dst[internal],
            capacity=self._cap[internal],
            cost=self._cost[internal],
            flow=self._flow[internal],
        )

    def flow_conservation_violations(self, source: int, sink: int) -> Dict[int, int]:
        """Net flow imbalance per node, excluding source/sink (should be {})."""
        balance = [0] * self.n
        src, dst, flow = self._src, self._dst, self._flow
        for i in range(0, len(src), 2):
            f = flow[i]
            if f > 0:
                balance[src[i]] -= f
                balance[dst[i]] += f
        return {
            v: b
            for v, b in enumerate(balance)
            if b != 0 and v not in (source, sink)
        }

"""Closed-form min-cost flow on DSS-LC's star transport graphs.

Every per-type graph DSS-LC builds (``G_k`` in case 1, ``Ĝ'_k`` in case 2)
is a star: the origin master feeds each worker ``i`` over up to three
parallel arcs whose costs are the transmission delay plus a queueing
surcharge of 0, 6 and 18 ms, and each worker drains to the sink.  The
arcs split ``r_i = min(link_capacity, pending, capacity_i)`` into slices
of ``ceil(r_i / 3)``, cheapest first.

Lowered through :class:`~repro.flow.graph.SupplyDemandGraph` and solved
by successive shortest paths, such a network only ever augments along
``source → master → worker → sink`` over the worker's cheapest residual
arc, so SSP reduces to repeatedly taking the globally cheapest residual
arc.  :func:`solve_star` does exactly that in O(N) per augmentation and
reproduces :class:`~repro.flow.mcmf.MinCostMaxFlow`'s Dijkstra tie-breaks
too, so DSS-LC's placements are bit-identical to the graph solve.  The
differential test ``tests/test_flow_star.py`` pins this against
:func:`~repro.flow.graph.solve_transport` on :func:`star_graph`.

Tie-break derivation.  Let ``c*`` be this augmentation's path cost.  The
SSP solver's Johnson potential of a worker is its shortest distance from
the previous augmentation: a worker without flow sits at its own arc0
cost (0 before the first augmentation), and a worker already carrying
flow is reached through its sink arc's residual twin, so it sits at the
previous ``c*``.  Dijkstra pops the workers at ``c*`` in order of
(reduced distance ``c* - potential``, node index), and the first one
popped sets the sink's parent.  Hence: on the first augmentation, or
when ``c*`` did not rise, the lowest-index worker at ``c*`` wins; when
``c*`` rose, the lowest-index worker at ``c*`` *without* flow wins, if
there is one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .graph import COST_SCALE, SupplyDemandGraph

__all__ = [
    "SURCHARGES_MS",
    "ArcCosts",
    "StarResult",
    "arc_costs",
    "arc_slices",
    "solve_star",
    "star_graph",
]

#: queueing-delay surcharge of each of a worker's parallel arcs: the
#: convex load cost that makes the flow spread across workers instead of
#: filling the closest one to the brim (§5.2.2 notes richer
#: traffic-engineering terms slot in here).
SURCHARGES_MS = (0.0, 6.0, 18.0)

#: cost of an exhausted worker; above any real arc cost.
_EXHAUSTED = 1 << 62

ArcCosts = Tuple[List[int], List[int], List[int]]


@dataclass
class StarResult:
    """Outcome of :func:`solve_star`."""

    #: requests absorbed per worker index, ascending, workers with 0 omitted.
    absorbed: Dict[int, int]
    placed: int
    #: total cost in integer µs (``COST_SCALE`` per ms).
    cost: int
    augmentations: int

    @property
    def total_delay_ms(self) -> float:
        return self.cost / COST_SCALE


def arc_costs(delays_ms: Sequence[float]) -> ArcCosts:
    """Integer cost columns of every worker's arcs, one per surcharge.

    Same rounding as :func:`~repro.flow.graph.solve_transport` applies to
    an arc of delay ``delay + surcharge``.
    """
    return tuple(  # type: ignore[return-value]
        [max(0, int(round((d + s) * COST_SCALE))) for d in delays_ms]
        for s in SURCHARGES_MS
    )


def arc_slices(remaining: int) -> List[int]:
    """Capacities of a worker's arcs for ``remaining`` routable requests."""
    slice_size = max(1, (remaining + 2) // 3)
    slices = []
    for _ in SURCHARGES_MS:
        take = min(slice_size, remaining)
        if take <= 0:
            break
        slices.append(take)
        remaining -= take
    return slices


def star_graph(
    delays_ms: Sequence[float],
    capacities: Sequence[int],
    pending: int,
    link_capacity: int,
) -> SupplyDemandGraph:
    """The star as a general supply/demand graph (the SSP oracle's input).

    Node 0 is the master supplying ``pending``; node ``1 + i`` is worker
    ``i`` absorbing up to ``capacities[i]``.
    """
    graph = SupplyDemandGraph()
    graph.supplies = [pending] + [-c for c in capacities]
    cap = min(link_capacity, pending)
    for i, delay in enumerate(delays_ms):
        for take, surcharge in zip(
            arc_slices(min(cap, capacities[i])), SURCHARGES_MS
        ):
            graph.edges.append((0, 1 + i, delay + surcharge, take))
    return graph


def solve_star(
    costs: ArcCosts,
    capacities: Sequence[int],
    pending: int,
    link_capacity: int,
) -> StarResult:
    """Min-cost max-flow of ``pending`` requests over a star, in closed form.

    ``costs`` comes from :func:`arc_costs` over the same workers as
    ``capacities``.  Equal, tie-breaks included, to
    ``solve_transport(star_graph(...))``; see the module docstring.
    """
    limit = min(link_capacity, pending)
    if limit <= 0:
        return StarResult({}, 0, 0, 0)
    # cheapest residual arc cost per worker
    cur = [c if cap > 0 else _EXHAUSTED for c, cap in zip(costs[0], capacities)]
    flow: Dict[int, int] = {}
    placed = total = augmentations = 0
    prev = -1
    while placed < pending:
        cstar = min(cur, default=_EXHAUSTED)
        if cstar == _EXHAUSTED:
            break
        i = cur.index(cstar)
        if prev >= 0 and cstar > prev and i in flow:
            # c* rose: workers without flow outrank those carrying some
            i = next(
                (j for j, c in enumerate(cur) if c == cstar and j not in flow), i
            )
        f = flow.get(i, 0)
        r = min(limit, capacities[i])
        size = max(1, (r + 2) // 3)
        push = min(pending - placed, (f // size + 1) * size - f, r - f)
        f += push
        flow[i] = f
        placed += push
        total += push * cstar
        augmentations += 1
        cur[i] = _EXHAUSTED if f >= r else costs[f // size][i]
        prev = cstar
    return StarResult(
        absorbed={i: flow[i] for i in sorted(flow)},
        placed=placed,
        cost=total,
        augmentations=augmentations,
    )

"""Min-cost flow substrate (stands in for OR-Tools in DSS-LC).

DSS-LC's per-type graphs are stars, solved in closed form by
:func:`solve_star`; :class:`MinCostMaxFlow` serves the multi-commodity
path and is the oracle the star solver is tested against.
"""

from .graph import AssignmentResult, SupplyDemandGraph, solve_transport
from .mcmf import FlowEdge, FlowResult, MinCostMaxFlow
from .multicommodity import (
    Commodity,
    MultiCommodityResult,
    SharedLink,
    solve_sequential,
)
from .star import StarResult, solve_star

__all__ = [
    "MinCostMaxFlow",
    "FlowEdge",
    "FlowResult",
    "SupplyDemandGraph",
    "AssignmentResult",
    "solve_transport",
    "Commodity",
    "SharedLink",
    "MultiCommodityResult",
    "solve_sequential",
    "StarResult",
    "solve_star",
]

"""Arena-reuse and golden-value tests for the pooled MCMF solver.

Complements ``test_mcmf.py`` (hypothesis-vs-networkx) with pinned golden
networks — including negative-cost and zero-capacity arcs — and with the
arena reuse API: ``reset()`` re-solves the same network identically and
``rebuild()`` makes a recycled instance behave exactly like a fresh one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.flow.mcmf import MinCostMaxFlow


def build_diamond(net: MinCostMaxFlow) -> list:
    """0 -> {1, 2} -> 3 with an uneven cheap path; returns edge indices."""
    return [
        net.add_edge(0, 1, 2, 1),
        net.add_edge(0, 2, 2, 4),
        net.add_edge(1, 3, 1, 1),
        net.add_edge(1, 2, 2, 1),
        net.add_edge(2, 3, 3, 1),
    ]


class TestGolden:
    def test_diamond_pinned(self):
        net = MinCostMaxFlow(4)
        build_diamond(net)
        res = net.solve(0, 3)
        # max flow 4: 0-1-3 (1u, cost 2), 0-1-2-3 (1u, cost 3),
        # 0-2-3 (2u, cost 5 each)
        assert res.flow == 4
        assert res.cost == 15
        assert res.edge_flows == [2, 2, 1, 1, 3]

    def test_negative_cost_edge(self):
        net = MinCostMaxFlow(4)
        e0 = net.add_edge(0, 1, 3, 5)
        e1 = net.add_edge(1, 2, 3, -4)  # discount leg
        e2 = net.add_edge(2, 3, 2, 1)
        e3 = net.add_edge(1, 3, 2, 3)
        res = net.solve(0, 3)
        # 2 units take 0-1-2-3 (cost 2 each), 1 unit takes 0-1-3 (cost 8)
        assert res.flow == 3
        assert res.cost == 12
        assert res.edge_flows[e0] == 3
        assert res.edge_flows[e1] == 2
        assert res.edge_flows[e2] == 2
        assert res.edge_flows[e3] == 1
        assert net.flow_conservation_violations(0, 3) == {}

    def test_zero_capacity_edge_carries_nothing(self):
        net = MinCostMaxFlow(3)
        dead = net.add_edge(0, 1, 0, 0)  # tempting but unusable
        cheap = net.add_edge(0, 1, 2, 7)
        out = net.add_edge(1, 2, 2, 1)
        res = net.solve(0, 2)
        assert res.flow == 2
        assert res.cost == 16
        assert res.edge_flows[dead] == 0
        assert res.edge_flows[cheap] == 2
        assert res.edge_flows[out] == 2

    def test_max_flow_cap_respected(self):
        net = MinCostMaxFlow(4)
        build_diamond(net)
        res = net.solve(0, 3, max_flow=2)
        assert res.flow == 2
        assert res.cost == 5  # the two cheapest units


def random_network(rng: np.random.Generator, n: int):
    """Random DAG-ish network as (n, edge list) with occasional 0-caps."""
    edges = []
    for _ in range(int(rng.integers(n, 3 * n))):
        u = int(rng.integers(0, n - 1))
        v = int(rng.integers(u + 1, n))
        cap = int(rng.integers(0, 6))
        cost = int(rng.integers(0, 20))
        edges.append((u, v, cap, cost))
    return edges


class TestArenaReuse:
    def test_reset_resolves_identically(self):
        net = MinCostMaxFlow(4)
        build_diamond(net)
        first = net.solve(0, 3)
        net.reset()
        second = net.solve(0, 3)
        assert (first.flow, first.cost) == (second.flow, second.cost)
        assert first.edge_flows == second.edge_flows

    @pytest.mark.parametrize("seed", range(8))
    def test_reset_matches_fresh_solve_on_random_network(self, seed):
        """Re-solving after ``reset()`` never changes flow, cost or routing,
        including on networks whose first solve saturated arcs."""
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(4, 9))
        edges = random_network(rng, n)
        fresh = MinCostMaxFlow(n)
        reused = MinCostMaxFlow(n)
        for u, v, cap, cost in edges:
            fresh.add_edge(u, v, cap, cost)
            reused.add_edge(u, v, cap, cost)
        res_fresh = fresh.solve(0, n - 1)
        reused.solve(0, n - 1)
        reused.reset()
        res_reused = reused.solve(0, n - 1)
        assert res_reused.flow == res_fresh.flow
        assert res_reused.cost == res_fresh.cost
        assert res_reused.edge_flows == res_fresh.edge_flows

    def test_reset_resolves_capped_solve_identically(self):
        """A ``max_flow``-capped solve that saturates nothing re-solves
        to the same flows after ``reset()``."""
        net = MinCostMaxFlow(3)
        net.add_edge(0, 1, 5, 2)
        net.add_edge(1, 2, 5, 3)
        first = net.solve(0, 2, max_flow=2)  # below the bottleneck
        assert first.flow == 2
        net.reset()
        second = net.solve(0, 2, max_flow=2)
        assert (second.flow, second.cost) == (first.flow, first.cost)
        assert second.edge_flows == first.edge_flows

    def test_rebuild_into_negative_cost_network(self):
        """A recycled instance re-derives its potentials (Bellman-Ford)
        for a new network with a negative-cost arc."""
        net = MinCostMaxFlow(4)
        build_diamond(net)
        net.solve(0, 3)
        net.rebuild(4)
        net.add_edge(0, 1, 2, 10)
        net.add_edge(1, 3, 2, -8)
        res = net.solve(0, 3)
        assert res.flow == 2
        assert res.cost == 4

    @pytest.mark.parametrize("seed", range(8))
    def test_rebuild_matches_fresh_solver(self, seed):
        rng = np.random.default_rng(seed)
        arena = MinCostMaxFlow(3)
        build_diamond(MinCostMaxFlow(4))  # unrelated network, ignored
        # dirty the arena with a first network + solve
        arena.rebuild(4)
        build_diamond(arena)
        arena.solve(0, 3)
        for round_ in range(4):
            n = int(rng.integers(3, 9))
            edges = random_network(rng, n)
            fresh = MinCostMaxFlow(n)
            arena.rebuild(n)
            for u, v, cap, cost in edges:
                assert fresh.add_edge(u, v, cap, cost) == arena.add_edge(
                    u, v, cap, cost
                )
            res_fresh = fresh.solve(0, n - 1)
            res_arena = arena.solve(0, n - 1)
            assert res_fresh.flow == res_arena.flow
            assert res_fresh.cost == res_arena.cost
            assert res_fresh.edge_flows == res_arena.edge_flows

    def test_counters_survive_rebuild(self):
        net = MinCostMaxFlow(4)
        build_diamond(net)
        net.solve(0, 3)
        solves_before = net.solves
        assert solves_before == 1
        net.rebuild(4)
        build_diamond(net)
        net.solve(0, 3)
        assert net.solves == solves_before + 1
        assert net.augmentations > 0

    def test_edge_view_reflects_arrays(self):
        net = MinCostMaxFlow(4)
        idx = build_diamond(net)
        net.solve(0, 3)
        e = net.edge(idx[0])
        assert (e.src, e.dst, e.capacity, e.cost) == (0, 1, 2, 1)
        assert e.flow == 2
        assert e.residual == 0

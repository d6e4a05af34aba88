"""Differential tests: the closed-form star solver vs the general SSP solve.

DSS-LC solves every per-type graph with :func:`repro.flow.star.solve_star`.
Its contract is exact equality with lowering the same star through
:func:`repro.flow.star.star_graph` and :func:`solve_transport` on a
:class:`MinCostMaxFlow`: the same per-worker placements (Dijkstra's
tie-breaks included), the same placed count, the same total delay and the
same number of augmentations.  The strategies lean on what makes
tie-breaking hard: few distinct delays, delays that collide with another
worker's surcharged arc (``d`` and ``d + 6``, ``d + 12`` and ``d + 18``),
and zero-capacity workers.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.flow.graph import solve_transport
from repro.flow.mcmf import MinCostMaxFlow
from repro.flow.star import arc_costs, arc_slices, solve_star, star_graph


def ssp_oracle(delays, capacities, pending, link_capacity):
    """(absorbed by worker index, placed, total delay, augmentations)."""
    net = MinCostMaxFlow(len(delays) + 3)
    result = solve_transport(
        star_graph(delays, capacities, pending, link_capacity), arena=net
    )
    absorbed = {j - 1: n for j, n in sorted(result.absorbed.items())}
    return absorbed, result.placed, result.total_delay_ms, net.augmentations


def star(delays, capacities, pending, link_capacity):
    result = solve_star(arc_costs(delays), capacities, pending, link_capacity)
    return (
        result.absorbed,
        result.placed,
        result.total_delay_ms,
        result.augmentations,
    )


@st.composite
def tied_delays(draw, n):
    """``n`` delays drawn from a small palette with surcharge collisions."""
    bases = draw(
        st.lists(
            st.sampled_from([0.0, 0.4, 0.5, 1.5, 2.0, 3.25, 7.0, 11.9]),
            min_size=1,
            max_size=3,
        )
    )
    palette = sorted({b + shift for b in bases for shift in (0.0, 6.0, 12.0, 18.0)})
    return draw(st.lists(st.sampled_from(palette), min_size=n, max_size=n))


@st.composite
def stars(draw, max_workers=120, max_pending=300):
    n = draw(st.integers(min_value=1, max_value=max_workers))
    delays = draw(tied_delays(n))
    capacities = draw(
        st.lists(
            st.one_of(
                st.just(0),
                st.integers(min_value=1, max_value=4),
                st.integers(min_value=0, max_value=400),
            ),
            min_size=n,
            max_size=n,
        )
    )
    pending = draw(
        st.one_of(
            st.integers(min_value=1, max_value=8),
            st.integers(min_value=1, max_value=max_pending),
        )
    )
    link_capacity = draw(st.integers(min_value=1, max_value=64))
    return delays, capacities, pending, link_capacity


class TestStarMatchesSSP:
    @settings(max_examples=300, deadline=None)
    @given(stars(max_workers=24, max_pending=40))
    def test_small_stars(self, case):
        assert star(*case) == ssp_oracle(*case)

    @settings(max_examples=40, deadline=None)
    @given(stars())
    def test_large_stars(self, case):
        assert star(*case) == ssp_oracle(*case)

    def test_fresh_worker_outranks_loaded_one_when_cost_rises(self):
        # Once c* rises, the Johnson potential of a worker without flow
        # (its own arc cost) beats that of a loaded worker (the old c*),
        # so Dijkstra reaches the sink through the fresh worker first.
        case = ([0.0, 3.0, 3.0, 9.0, 0.0, 9.0], [0, 100, 8, 3, 0, 0], 8, 7)
        assert star(*case) == ssp_oracle(*case)
        assert star(*case)[0] == {1: 4, 2: 3, 3: 1}

    def test_lowest_index_wins_exact_ties(self):
        case = ([2.0, 1.0, 1.0, 1.0], [5, 1, 1, 1], 2, 64)
        assert star(*case) == ssp_oracle(*case)
        assert star(*case)[0] == {1: 1, 2: 1}

    def test_zero_capacity_everywhere_places_nothing(self):
        case = ([1.0, 2.0], [0, 0], 5, 64)
        assert star(*case) == ssp_oracle(*case) == ({}, 0, 0.0, 0)

    def test_link_capacity_bounds_each_worker(self):
        case = ([1.0, 50.0], [100, 100], 10, 3)
        assert star(*case) == ssp_oracle(*case)
        assert star(*case)[:2] == ({0: 3, 1: 3}, 6)


class TestArcSlices:
    @given(st.integers(min_value=0, max_value=500))
    def test_slices_cover_remaining_cheapest_first(self, remaining):
        slices = arc_slices(remaining)
        assert sum(slices) == remaining
        assert len(slices) <= 3
        assert slices == sorted(slices, reverse=True)

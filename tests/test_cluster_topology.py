"""Cluster aggregation and WAN topology tests."""

import numpy as np
import pytest

from repro.cluster.cluster import LAN_DELAY_MS, EdgeCloudCluster, make_heterogeneous_workers
from repro.cluster.node import WorkerNode
from repro.cluster.resources import ResourceVector
from repro.cluster.topology import EdgeCloudSystem, TopologyConfig
from repro.sim.request import ServiceRequest
from repro.workloads.spec import ServiceKind, default_catalog

rv = ResourceVector.of
CATALOG = default_catalog()
LC = next(s for s in CATALOG if s.kind is ServiceKind.LC)
BE = next(s for s in CATALOG if s.kind is ServiceKind.BE)


def cluster_with(n=2):
    workers = [WorkerNode(f"w{i}", 0, rv(cpu=4, memory=8192)) for i in range(n)]
    return EdgeCloudCluster(cluster_id=3, workers=workers)


class TestCluster:
    def test_workers_adopt_cluster_id(self):
        c = cluster_with()
        assert all(w.cluster_id == 3 for w in c.workers)

    def test_receive_routes_by_kind(self):
        c = cluster_with()
        c.receive(ServiceRequest(spec=LC, origin_cluster=3, arrival_ms=0.0))
        c.receive(ServiceRequest(spec=BE, origin_cluster=3, arrival_ms=0.0))
        assert c.queue_lengths() == {"lc": 1, "be": 1}

    def test_drain_empties_queue(self):
        c = cluster_with()
        c.receive(ServiceRequest(spec=LC, origin_cluster=3, arrival_ms=0.0))
        drained = c.drain_lc()
        assert len(drained) == 1
        assert c.queue_lengths()["lc"] == 0

    def test_total_capacity_sums_workers(self):
        c = cluster_with(n=3)
        assert c.total_capacity().cpu == pytest.approx(12.0)

    def test_worker_lookup(self):
        c = cluster_with()
        assert c.worker("w1").name == "w1"
        with pytest.raises(KeyError):
            c.worker("ghost")

    def test_heterogeneous_fleet_bounds(self, rng):
        workers = make_heterogeneous_workers(0, rng, n_workers=None,
                                             min_workers=3, max_workers=20)
        assert 3 <= len(workers) <= 20
        capacities = {w.capacity.cpu for w in workers}
        # fleet draws from multiple SKUs with high probability at this size
        assert len(capacities) >= 1


class TestTopology:
    def make(self, n=6, seed=0):
        return EdgeCloudSystem(TopologyConfig(n_clusters=n, workers_per_cluster=3,
                                              seed=seed))

    def test_rtt_symmetric_and_positive(self):
        sys = self.make()
        for a in range(sys.n_clusters):
            for b in range(sys.n_clusters):
                assert sys.rtt_ms(a, b) == pytest.approx(sys.rtt_ms(b, a))
                assert sys.rtt_ms(a, b) > 0

    def test_local_delay_is_lan(self):
        sys = self.make()
        assert sys.one_way_delay_ms(2, 2) == LAN_DELAY_MS

    def test_wan_delay_grows_with_distance(self):
        sys = self.make()
        pairs = [
            (a, b)
            for a in range(sys.n_clusters)
            for b in range(a + 1, sys.n_clusters)
        ]
        far = max(pairs, key=lambda p: sys.distance_km(*p))
        near = min(pairs, key=lambda p: sys.distance_km(*p))
        assert sys.rtt_ms(*far) > sys.rtt_ms(*near)

    def test_nearby_clusters_respects_radius(self):
        sys = self.make()
        for cid in range(sys.n_clusters):
            nearby = sys.nearby_clusters(cid)
            assert cid in nearby  # always includes itself
            for other in nearby:
                if other != cid:
                    assert sys.distance_km(cid, other) <= sys.config.nearby_radius_km

    def test_central_cluster_is_valid_and_stable(self):
        sys = self.make(seed=7)
        assert 0 <= sys.central_cluster_id < sys.n_clusters
        sys2 = self.make(seed=7)
        assert sys2.central_cluster_id == sys.central_cluster_id

    def test_central_cluster_reasonably_central(self):
        sys = self.make(n=10, seed=3)
        mean_d = sys._distance.mean(axis=1)
        # the pick should be within the better half by mean distance
        assert mean_d[sys.central_cluster_id] <= np.median(mean_d) + 1e-9

    def test_total_nodes(self):
        sys = self.make(n=4)
        assert sys.total_nodes() == 12

    def test_deterministic_given_seed(self):
        a, b = self.make(seed=5), self.make(seed=5)
        assert [c.position_km for c in a.clusters] == [
            c.position_km for c in b.clusters
        ]

    def test_production_like_rtt_range(self):
        """§5.2: edge→central RTTs can exceed 97 ms in the production data."""
        sys = EdgeCloudSystem(TopologyConfig(n_clusters=12, workers_per_cluster=3,
                                             region_km=2400.0, seed=0))
        rtts = [
            sys.rtt_ms(a, b)
            for a in range(12)
            for b in range(a + 1, 12)
        ]
        assert max(rtts) > 90.0


class TestBandwidthModel:
    def make(self):
        return EdgeCloudSystem(TopologyConfig(n_clusters=5, workers_per_cluster=2,
                                              seed=2))

    def test_lan_at_nic_speed(self):
        sys = self.make()
        assert sys.bandwidth_mbps(1, 1) == pytest.approx(1000.0)

    def test_wan_degrades_with_distance_to_floor(self):
        sys = self.make()
        pairs = [(a, b) for a in range(5) for b in range(a + 1, 5)]
        near = min(pairs, key=lambda p: sys.distance_km(*p))
        far = max(pairs, key=lambda p: sys.distance_km(*p))
        assert sys.bandwidth_mbps(*near) >= sys.bandwidth_mbps(*far)
        assert sys.bandwidth_mbps(*far) >= 100.0

    def test_transfer_includes_serialisation(self):
        sys = self.make()
        small = sys.transfer_ms(0, 1, payload_kb=1.0)
        big = sys.transfer_ms(0, 1, payload_kb=10_000.0)
        assert big > small
        # 10 MB over a WAN link takes a macroscopic amount of time
        assert big - small > 50.0

    def test_zero_payload_equals_propagation(self):
        sys = self.make()
        assert sys.transfer_ms(0, 1, 0.0) == pytest.approx(
            sys.one_way_delay_ms(0, 1)
        )


class TestNearbyClusters:
    """The fn. 4 neighbourhoods are computed once at construction."""

    @staticmethod
    def geometric(sys, cid):
        radius = sys.config.nearby_radius_km
        return [
            other
            for other in range(sys.n_clusters)
            if other == cid or sys.distance_km(cid, other) <= radius
        ]

    @pytest.mark.parametrize("radius", [0.0, 500.0, 2400.0, 1e9])
    @pytest.mark.parametrize("seed", [0, 1, 7, 11])
    def test_precomputed_equals_geometric_filter(self, radius, seed):
        sys = EdgeCloudSystem(
            TopologyConfig(n_clusters=9, workers_per_cluster=1, seed=seed,
                           nearby_radius_km=radius)
        )
        for cid in range(sys.n_clusters):
            assert sys.nearby_clusters(cid) == self.geometric(sys, cid)

    def test_unchanged_by_a_full_tango_run(self):
        from repro import TangoConfig, TangoSystem
        from repro.sim.runner import RunnerConfig
        from repro.workloads.trace import SyntheticTrace, TraceConfig

        cfg = TangoConfig.tango(
            topology=TopologyConfig(n_clusters=4, workers_per_cluster=3,
                                    seed=3, nearby_radius_km=1200.0),
            runner=RunnerConfig(duration_ms=2_000.0),
        )
        system = TangoSystem(cfg)
        topo = system.system
        before = [list(topo.nearby_clusters(c)) for c in range(topo.n_clusters)]
        assert before == [self.geometric(topo, c) for c in range(topo.n_clusters)]
        trace = SyntheticTrace(
            TraceConfig(n_clusters=4, duration_ms=2_000.0, seed=3,
                        lc_peak_rps=30.0, be_peak_rps=5.0)
        ).generate()
        metrics = system.run(trace)
        assert metrics.lc_arrived > 0
        after = [topo.nearby_clusters(c) for c in range(topo.n_clusters)]
        assert after == before

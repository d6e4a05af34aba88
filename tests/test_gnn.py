"""GNN encoder tests: aggregation semantics, shapes, and gradient flow."""

import numpy as np
import pytest

from repro.nn.gnn import (
    GATEncoder,
    GCNEncoder,
    GraphSAGEEncoder,
    IdentityEncoder,
    adjacency_from_edges,
)


def line_graph(n):
    return adjacency_from_edges(n, [(i, i + 1) for i in range(n - 1)])


class TestAdjacency:
    def test_undirected(self):
        adj = adjacency_from_edges(3, [(0, 1), (1, 2)])
        assert adj[0] == [1]
        assert sorted(adj[1]) == [0, 2]

    def test_ignores_self_loops_and_duplicates(self):
        adj = adjacency_from_edges(2, [(0, 0), (0, 1), (1, 0)])
        assert adj[0] == [1]
        assert adj[1] == [0]


class TestGraphSAGE:
    def test_output_shape(self, rng):
        enc = GraphSAGEEncoder(5, [8, 8], rng, sample_size=3)
        h = enc.encode(rng.normal(size=(6, 5)), line_graph(6))
        assert h.shape == (6, 8)

    def test_isolated_node_keeps_self_path(self, rng):
        enc = GraphSAGEEncoder(3, [4], rng)
        # neighbour aggregation is empty, but the separate self path still
        # produces a non-trivial embedding
        a = enc.aggregation_matrix([[]], np.zeros((1, 3)), 0)
        assert np.allclose(a, [[0.0]])
        h = enc.encode(np.ones((1, 3)), [[]])
        assert np.abs(h).sum() > 0

    def test_mean_aggregation_row_stochastic(self, rng):
        enc = GraphSAGEEncoder(3, [4], rng, sample_size=2)
        adj = line_graph(5)
        a = enc.aggregation_matrix(adj, np.zeros((5, 3)), 0)
        assert np.allclose(a.sum(axis=1), 1.0)

    def test_self_features_survive_deep_aggregation(self, rng):
        """The CONCAT form must let the actor tell clique members apart."""
        n = 6
        clique = adjacency_from_edges(
            n, [(i, j) for i in range(n) for j in range(i + 1, n)]
        )
        enc = GraphSAGEEncoder(4, [8, 8], rng, sample_size=5)
        x = rng.normal(size=(n, 4))
        h = enc.encode(x, clique)
        # embeddings of distinct nodes differ even in a complete graph
        assert not np.allclose(h[0], h[1], atol=1e-6)

    def test_sampling_caps_neighbourhood(self, rng):
        enc = GraphSAGEEncoder(3, [4], rng, sample_size=2)
        star = adjacency_from_edges(6, [(0, i) for i in range(1, 6)])
        a = enc.aggregation_matrix(star, np.zeros((6, 3)), 0)
        # row 0: at most 2 sampled neighbours (self handled separately)
        assert np.count_nonzero(a[0]) <= 2

    def test_rejects_bad_sample_size(self, rng):
        with pytest.raises(ValueError):
            GraphSAGEEncoder(3, [4], rng, sample_size=0)

    def test_gradient_flow_to_all_layers(self, rng):
        enc = GraphSAGEEncoder(4, [6, 6], rng)
        h = enc.encode(rng.normal(size=(5, 4)), line_graph(5))
        enc.backward(np.ones_like(h))
        assert all(np.abs(g).sum() > 0 for g in enc.grads)

    def test_gradient_check(self, rng):
        # no subsampling; float64 so central differences resolve the gradient
        enc = GraphSAGEEncoder(3, [4], rng, sample_size=10, dtype=np.float64)
        x = rng.normal(size=(4, 3))
        adj = line_graph(4)

        def loss():
            return float((enc.encode(x, adj) ** 2).sum())

        # fix sampling randomness: sample_size > degree means deterministic
        enc.zero_grad()
        h = enc.encode(x, adj)
        enc.backward(2 * h)
        eps = 1e-6
        w = enc.weights[0]
        num = np.zeros_like(w)
        for i in range(w.shape[0]):
            for j in range(w.shape[1]):
                orig = w[i, j]
                w[i, j] = orig + eps
                hi = loss()
                w[i, j] = orig - eps
                lo = loss()
                w[i, j] = orig
                num[i, j] = (hi - lo) / (2 * eps)
        assert np.allclose(enc.grads[0], num, atol=1e-4)


class TestGCN:
    def test_symmetric_normalisation(self, rng):
        enc = GCNEncoder(3, [4], rng)
        adj = line_graph(3)
        a = enc.aggregation_matrix(adj, np.zeros((3, 3)), 0)
        assert np.allclose(a, a.T)
        # eigenvalues of the normalised adjacency are within [-1, 1]
        eig = np.linalg.eigvalsh(a)
        assert eig.max() <= 1.0 + 1e-9

    def test_output_shape(self, rng):
        enc = GCNEncoder(5, [8, 8], rng)
        h = enc.encode(rng.normal(size=(6, 5)), line_graph(6))
        assert h.shape == (6, 8)


class TestGAT:
    def test_attention_rows_sum_to_one(self, rng):
        enc = GATEncoder(3, [4], rng)
        adj = line_graph(4)
        a = enc.aggregation_matrix(adj, rng.normal(size=(4, 3)), 0)
        assert np.allclose(a.sum(axis=1), 1.0)
        assert (a >= 0).all()

    def test_attention_depends_on_features(self, rng):
        enc = GATEncoder(3, [4], rng)
        adj = line_graph(4)
        a1 = enc.aggregation_matrix(adj, rng.normal(size=(4, 3)), 0)
        a2 = enc.aggregation_matrix(adj, rng.normal(size=(4, 3)), 0)
        assert not np.allclose(a1, a2)

    def test_output_shape(self, rng):
        enc = GATEncoder(5, [8, 8], rng)
        h = enc.encode(rng.normal(size=(6, 5)), line_graph(6))
        assert h.shape == (6, 8)


class TestIdentity:
    def test_no_message_passing(self, rng):
        enc = IdentityEncoder(3, [4], rng)
        x = rng.normal(size=(4, 3))
        # changing a neighbour's features must not affect node 0's embedding
        h1 = enc.encode(x, line_graph(4))
        x2 = x.copy()
        x2[1] += 10.0
        h2 = enc.encode(x2, line_graph(4))
        assert np.allclose(h1[0], h2[0])

    def test_differs_from_graphsage(self, rng):
        x = np.random.default_rng(0).normal(size=(4, 3))
        ident = IdentityEncoder(3, [4], np.random.default_rng(1))
        sage = GraphSAGEEncoder(3, [4], np.random.default_rng(1))
        h_i = ident.encode(x, line_graph(4))
        h_s = sage.encode(x, line_graph(4))
        assert not np.allclose(h_i, h_s)


class TestGradientChecks:
    """Central differences at eps=1e-6 need float64 encoders."""

    def _numeric_check(self, enc, x, adj, rng):
        import numpy as np

        enc.zero_grad()
        h = enc.encode(x, adj)
        enc.backward(2 * h)
        eps = 1e-6
        w = enc.weights[0]
        num = np.zeros_like(w)
        for i in range(w.shape[0]):
            for j in range(w.shape[1]):
                orig = w[i, j]
                w[i, j] = orig + eps
                hi = float((enc.encode(x, adj) ** 2).sum())
                w[i, j] = orig - eps
                lo = float((enc.encode(x, adj) ** 2).sum())
                w[i, j] = orig
                num[i, j] = (hi - lo) / (2 * eps)
        stride = enc._stride()
        assert np.allclose(enc.grads[0], num, atol=1e-4)

    def test_gcn_gradient_check(self, rng):
        enc = GCNEncoder(3, [4], rng, dtype=np.float64)
        self._numeric_check(enc, rng.normal(size=(4, 3)), line_graph(4), rng)

    def test_graphsage_self_weight_gradient_check(self, rng):
        import numpy as np

        enc = GraphSAGEEncoder(3, [4], rng, sample_size=10, dtype=np.float64)
        x = rng.normal(size=(4, 3))
        adj = line_graph(4)
        enc.zero_grad()
        h = enc.encode(x, adj)
        enc.backward(2 * h)
        eps = 1e-6
        ws = enc.self_weights[0]
        num = np.zeros_like(ws)
        for i in range(ws.shape[0]):
            for j in range(ws.shape[1]):
                orig = ws[i, j]
                ws[i, j] = orig + eps
                hi = float((enc.encode(x, adj) ** 2).sum())
                ws[i, j] = orig - eps
                lo = float((enc.encode(x, adj) ** 2).sum())
                ws[i, j] = orig
                num[i, j] = (hi - lo) / (2 * eps)
        # self-weight grads live at stride offset 2
        assert np.allclose(enc.grads[2], num, atol=1e-4)

    def test_identity_gradient_check(self, rng):
        enc = IdentityEncoder(3, [4], rng, dtype=np.float64)
        self._numeric_check(enc, rng.normal(size=(3, 3)), line_graph(3), rng)


class TestCallerArraysUntouched:
    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: GraphSAGEEncoder(3, [4, 4], rng, sample_size=1),
            lambda rng: GCNEncoder(3, [4, 4], rng),
            lambda rng: GATEncoder(3, [4, 4], rng),
            lambda rng: IdentityEncoder(3, [4, 4], rng),
        ],
    )
    def test_encode_and_backward_leave_caller_arrays(self, rng, make):
        enc = make(rng)
        x = rng.normal(size=(5, 3))
        x_before = x.copy()
        h = enc.encode(x, line_graph(5))
        grad = rng.normal(size=h.shape)
        grad_before = grad.copy()
        enc.backward(grad)
        assert np.array_equal(x, x_before)
        assert np.array_equal(grad, grad_before)

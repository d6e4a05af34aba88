"""Graph encoders for DCG-BE: GraphSAGE (the paper's choice) and ablations.

The paper encodes the global edge-cloud topology with a two-hop GraphSAGE
network using mean aggregation over ``p`` sampled neighbours (Eq. 9), and
ablates against GCN, GAT, and a plain MLP ("Native-A2C") in Fig. 11(d).

All encoders share one computational form per layer::

    H^{l+1} = relu(A_l @ H^l @ W_l + b_l)

where ``A_l`` is a (row-stochastic or normalised) aggregation matrix built
from the topology.  This makes forward and backward pure matrix algebra:

* **GraphSAGE** — row ``i`` of ``A`` averages over ``{i} ∪ sample_p(N(i))``;
  the neighbour sample is redrawn per forward pass (inductive, per the paper).
* **GCN** — symmetric normalisation ``D^-1/2 (A+I) D^-1/2`` over the full
  neighbourhood (transductive; no sampling).
* **GAT** — attention coefficients ``softmax_j(leaky_relu(a^T [Wh_i || Wh_j]))``
  computed per forward pass.  Gradients flow through the value path only; the
  attention coefficients themselves are treated as constants in backward (a
  straight-through simplification that preserves learning behaviour at this
  scale and keeps the substrate small — documented here as a deliberate
  deviation).
* **IdentityEncoder** — no aggregation; reproduces the "Native-A2C" ablation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .layers import DTYPE, Layer

__all__ = [
    "GraphEncoder",
    "GraphSAGEEncoder",
    "GCNEncoder",
    "GATEncoder",
    "IdentityEncoder",
    "adjacency_from_edges",
]


def adjacency_from_edges(n_nodes: int, edges: Sequence[tuple]) -> List[List[int]]:
    """Undirected adjacency list from ``(u, v)`` pairs (self-loops ignored)."""
    adj: List[List[int]] = [[] for _ in range(n_nodes)]
    seen = set()
    for u, v in edges:
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in seen:
            continue
        seen.add(key)
        adj[u].append(v)
        adj[v].append(u)
    return adj


class GraphEncoder(Layer):
    """Base: stack of aggregation+dense layers mapping (N, F) → (N, D).

    Two layer forms are supported, selected by ``separate_self``:

    * ``False`` (GCN/GAT/Identity): ``H' = relu(A @ H @ W + b)`` where the
      aggregation matrix ``A`` already mixes the node itself.
    * ``True`` (GraphSAGE): ``H' = relu(H @ W_self + (A @ H) @ W_neigh + b)``
      — the CONCAT form of Hamilton et al. expressed as two weight blocks,
      which preserves each node's own features through deep aggregation.
      (A pure mean over ``{i} ∪ N(i)`` shrinks the self signal to ~(1/deg)^L
      after L hops, leaving the downstream actor unable to tell nodes of one
      LAN clique apart.)
    """

    separate_self = False

    def __init__(
        self,
        in_features: int,
        hidden: Sequence[int],
        rng: np.random.Generator,
        *,
        dtype=DTYPE,
    ) -> None:
        super().__init__()
        self.rng = rng
        self.dtype = np.dtype(dtype)
        sizes = [in_features, *hidden]
        self.weights: List[np.ndarray] = []
        self.self_weights: List[np.ndarray] = []
        self.biases: List[np.ndarray] = []
        for fin, fout in zip(sizes[:-1], sizes[1:]):
            scale = np.sqrt(2.0 / fin)
            self.weights.append(
                rng.normal(0.0, scale, size=(fin, fout)).astype(dtype)
            )
            self.biases.append(np.zeros(fout, dtype=dtype))
            if self.separate_self:
                self.self_weights.append(
                    rng.normal(0.0, scale, size=(fin, fout)).astype(dtype)
                )
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            self.params.extend([w, b])
            self.grads.extend([np.zeros_like(w), np.zeros_like(b)])
            if self.separate_self:
                ws = self.self_weights[i]
                self.params.append(ws)
                self.grads.append(np.zeros_like(ws))
        self.out_features = sizes[-1]
        # caches for backward
        self._agg_mats: List[np.ndarray] = []
        self._inputs: List[np.ndarray] = []
        self._selves: List[np.ndarray] = []
        self._masks: List[np.ndarray] = []

    def _stride(self) -> int:
        return 3 if self.separate_self else 2

    # -- topology hook -------------------------------------------------- #
    def aggregation_matrix(
        self, adj: List[List[int]], h: np.ndarray, layer: int
    ) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    # -- forward/backward ------------------------------------------------ #
    def encode(self, features: np.ndarray, adj: List[List[int]]) -> np.ndarray:
        """Run all hops; caches intermediates for :meth:`backward`.

        ``features`` is cast to the encoder's dtype once, here; every
        aggregation matrix is built in that dtype, so nothing upcasts.
        """
        h = np.asarray(features, dtype=self.dtype)
        self._agg_mats, self._inputs, self._selves, self._masks = [], [], [], []
        for layer, (w, b) in enumerate(zip(self.weights, self.biases)):
            a = self.aggregation_matrix(adj, h, layer)
            agg = a @ h
            z = agg @ w
            z += b
            if self.separate_self:
                z += h @ self.self_weights[layer]
                self._selves.append(h)
            mask = z > 0.0
            z *= mask
            self._agg_mats.append(a)
            self._inputs.append(agg)
            self._masks.append(mask)
            h = z
        return h

    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise TypeError("GraphEncoder needs a topology; call encode() instead")

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Backprop through all hops; accumulates into ``self.grads``."""
        stride = self._stride()
        top = len(self.weights) - 1
        for layer in range(top, -1, -1):
            if layer == top:  # the caller's array
                grad = grad * self._masks[layer]
            else:  # grad_h of the hop above, local to this call
                grad *= self._masks[layer]
            self.grads[stride * layer] += self._inputs[layer].T @ grad
            self.grads[stride * layer + 1] += grad.sum(axis=0)
            grad_h = self._agg_mats[layer].T @ (grad @ self.weights[layer].T)
            if self.separate_self:
                self.grads[stride * layer + 2] += self._selves[layer].T @ grad
                grad_h += grad @ self.self_weights[layer].T
            grad = grad_h
        return grad


class GraphSAGEEncoder(GraphEncoder):
    """GraphSAGE with neighbour sampling (Eq. 9: p samples, L=2 hops).

    Uses the CONCAT layer form (``separate_self``): the aggregation matrix
    means over the *sampled neighbours only*, and the node's own vector takes
    the dedicated self-weight path.
    """

    separate_self = True

    def __init__(
        self,
        in_features: int,
        hidden: Sequence[int],
        rng: np.random.Generator,
        *,
        sample_size: int = 3,
        dtype=DTYPE,
    ) -> None:
        if sample_size < 1:
            raise ValueError("sample_size must be >= 1")
        self.sample_size = sample_size
        #: id(adj) -> sampling plan.  Each plan pins its adjacency list so
        #: ``id()`` reuse cannot alias entries; the topology must not be
        #: mutated in place between encode calls (degree changes are
        #: detected, same-degree rewires are not).
        self._plan_cache: dict = {}
        super().__init__(in_features, hidden, rng, dtype=dtype)

    def _sampling_plan(self, adj: List[List[int]]) -> dict:
        """Precompute everything about ``adj`` that sampling reuses.

        * ``template`` — the aggregation matrix with every row of degree
          ≤ p already filled (those rows never change between draws);
        * ``sampled`` — the ``(row, neighbours, degree)`` triples that do
          need a fresh sample each pass;
        * ``bounds`` — the exclusive upper bounds of every uniform draw
          `choice(d, size=p, replace=False)` makes, concatenated across
          sampled rows: Floyd's algorithm draws ``integers(0, j+1)`` for
          ``j = d-p .. d-1``, then the output shuffle draws
          ``integers(0, i+1)`` for ``i = p-1 .. 1``.
        """
        key = id(adj)
        plan = self._plan_cache.get(key)
        if plan is not None and plan["adj"] is adj:
            if plan["degrees"] == [len(x) for x in adj]:
                return plan
        n = len(adj)
        p = self.sample_size
        template = np.zeros((n, n), dtype=self.dtype)
        rows: List[int] = []
        degrees_sampled: List[int] = []
        neigh_rows: List[List[int]] = []
        bounds: List[int] = []
        max_d = 0
        for i, neigh in enumerate(adj):
            d = len(neigh)
            if d > p:
                rows.append(i)
                degrees_sampled.append(d)
                neigh_rows.append(neigh)
                bounds.extend(range(d - p + 1, d + 1))
                bounds.extend(range(p, 1, -1))
                max_d = max(max_d, d)
            elif d:
                weight = 1.0 / d
                row = template[i]
                for j in neigh:
                    row[j] += weight
            # isolated node: only the self path contributes
        # padded neighbour table so sampled indices gather in one shot
        neigh_pad = np.zeros((len(rows), max_d), dtype=np.int64)
        for r, neigh in enumerate(neigh_rows):
            neigh_pad[r, : len(neigh)] = neigh
        plan = {
            "adj": adj,
            "degrees": [len(x) for x in adj],
            "template": template,
            "rows": np.asarray(rows, dtype=np.int64),
            "bases": np.asarray(degrees_sampled, dtype=np.int64) - p,
            "neigh_pad": neigh_pad,
            "bounds": np.asarray(bounds, dtype=np.int64),
            # with unique neighbour lists a sample never scatters twice into
            # one cell, so plain fancy assignment replaces np.add.at.
            "unique_neigh": all(
                len(set(neigh)) == len(neigh) for neigh in neigh_rows
            ),
        }
        if len(self._plan_cache) >= 64:
            self._plan_cache.clear()
        self._plan_cache[key] = plan
        return plan

    def aggregation_matrix(
        self, adj: List[List[int]], h: np.ndarray, layer: int
    ) -> np.ndarray:
        """Mean over p sampled neighbours, via one batched RNG call.

        Replays ``Generator.choice(d, size=p, replace=False)`` exactly —
        Floyd's sampler followed by a Fisher-Yates output shuffle — against
        a single vectorised ``integers`` draw, so the RNG stream and the
        resulting matrix are bit-identical to the per-row ``choice`` loop
        (asserted across seeds by ``tests/test_gnn.py``).  The shuffle
        draws are consumed but their permutation is ignored: every sampled
        neighbour carries the same 1/p weight, so row sums don't depend on
        sample order.
        """
        plan = self._sampling_plan(adj)
        a = plan["template"].copy()
        bounds = plan["bounds"]
        if bounds.size:
            p = self.sample_size
            rows = plan["rows"]
            bases = plan["bases"]
            # (m, 2p-1) draws per sampled row: p Floyd draws, then p-1
            # output-shuffle draws whose permutation is irrelevant here.
            draws = self.rng.integers(0, bounds).reshape(len(rows), 2 * p - 1)
            chosen = draws[:, :p].copy()
            # Floyd's collision rule, one sweep per sample slot: a draw that
            # hit an earlier slot becomes j = base + k, which can never
            # itself collide (earlier slots are all < base + k).
            for k in range(1, p):
                col = chosen[:, k]
                hit = (chosen[:, :k] == col[:, None]).any(axis=1)
                col[hit] = bases[hit] + k
            cols = np.take_along_axis(plan["neigh_pad"], chosen, axis=1)
            flat = np.repeat(rows * a.shape[1], p) + cols.ravel()
            if plan["unique_neigh"]:
                a.ravel()[flat] = 1.0 / p
            else:
                np.add.at(a.ravel(), flat, 1.0 / p)
        return a


class GCNEncoder(GraphEncoder):
    """Kipf-Welling GCN: ``D^-1/2 (A+I) D^-1/2`` aggregation, no sampling."""

    def aggregation_matrix(
        self, adj: List[List[int]], h: np.ndarray, layer: int
    ) -> np.ndarray:
        n = len(adj)
        a = np.eye(n, dtype=self.dtype)
        for i in range(n):
            for j in adj[i]:
                a[i, j] = 1.0
        deg = a.sum(axis=1)
        d_inv_sqrt = 1.0 / np.sqrt(np.maximum(deg, 1e-12))
        return a * d_inv_sqrt[:, None] * d_inv_sqrt[None, :]


class GATEncoder(GraphEncoder):
    """Single-head graph attention; attention weights are stop-gradient."""

    def __init__(
        self,
        in_features: int,
        hidden: Sequence[int],
        rng: np.random.Generator,
        *,
        leaky_slope: float = 0.2,
        dtype=DTYPE,
    ) -> None:
        super().__init__(in_features, hidden, rng, dtype=dtype)
        self.leaky_slope = leaky_slope
        # one attention vector per layer over the layer's *input* features
        sizes = [in_features, *hidden]
        self.att_vectors: List[np.ndarray] = [
            rng.normal(0.0, 0.1, size=(2 * fin,)).astype(dtype)
            for fin in sizes[:-1]
        ]

    def aggregation_matrix(
        self, adj: List[List[int]], h: np.ndarray, layer: int
    ) -> np.ndarray:
        n = len(adj)
        att = self.att_vectors[layer]
        fin = h.shape[1]
        a_self = h @ att[:fin]
        a_neigh = h @ att[fin:]
        mat = np.full((n, n), -np.inf, dtype=self.dtype)
        for i in range(n):
            members = [i, *adj[i]]
            scores = a_self[i] + a_neigh[members]
            scores = np.where(
                scores > 0, scores, self.leaky_slope * scores
            )
            scores -= scores.max()
            e = np.exp(scores)
            mat[i, members] = e / e.sum()
        mat[~np.isfinite(mat)] = 0.0
        return mat


class IdentityEncoder(GraphEncoder):
    """No message passing — reduces the actor to a plain MLP (Native-A2C)."""

    def aggregation_matrix(
        self, adj: List[List[int]], h: np.ndarray, layer: int
    ) -> np.ndarray:
        return np.eye(len(adj), dtype=self.dtype)

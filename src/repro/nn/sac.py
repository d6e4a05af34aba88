"""Discrete Soft Actor-Critic over graph embeddings — the GNN-SAC baseline.

Fig. 11(c) compares DCG-BE against *GNN-SAC*, "an improved GNN-based learning
algorithm that builds on the success of SAC".  We implement discrete-action
SAC (Christodoulou, 2019) on top of the same per-node-scoring architecture as
:class:`repro.nn.a2c.A2CAgent`:

* a graph encoder shared by all heads;
* a policy head producing one logit per node (masked softmax);
* two Q heads producing one Q-value per node, with polyak-averaged targets;
* a fixed entropy temperature ``alpha``.

Updates are replay-based: transitions ``(s, a, r, s')`` are stored and
minibatches are sampled uniformly.  The encoder receives gradients from the
policy and both Q heads.  The paper notes GNN-SAC "struggles to calculate
strategy differences" relative to DCG-BE's advantage mechanism — in practice
the off-policy critic lags the quickly shifting cluster state, which is what
our reproduction exhibits as slightly lower long-term throughput.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .gnn import GraphEncoder, GraphSAGEEncoder
from .layers import Sequential, mlp
from .optim import Adam, clip_grad_norm
from .persistence import load_params, save_params
from .policy import masked_softmax, sample_categorical

__all__ = ["SACAgent", "SACConfig", "SACTransition"]


@dataclass
class SACTransition:
    features: np.ndarray
    adj: List[List[int]]
    mask: Optional[np.ndarray]
    action: int
    reward: float
    next_features: Optional[np.ndarray]
    next_adj: Optional[List[List[int]]]
    next_mask: Optional[np.ndarray]


@dataclass
class SACConfig:
    hidden: Sequence[int] = (256, 128, 32)
    encoder_hidden: Sequence[int] = (64, 64)
    lr: float = 2e-4
    gamma: float = 0.95
    alpha: float = 0.2
    tau: float = 0.01
    batch_size: int = 16
    buffer_size: int = 1024
    train_interval: int = 16
    grad_clip: float = 5.0


class _QHead:
    """One Q network: encoder-embedding → per-node Q values."""

    def __init__(
        self, d: int, hidden: Sequence[int], rng: np.random.Generator, dtype
    ):
        self.net: Sequential = mlp([d, *hidden, 1], rng, dtype=dtype)

    def q_values(self, h: np.ndarray) -> np.ndarray:
        return self.net.forward(h)[:, 0]


class SACAgent:
    """Discrete SAC agent choosing a target node on a resource graph."""

    def __init__(
        self,
        n_node_features: int,
        rng: np.random.Generator,
        *,
        encoder: Optional[GraphEncoder] = None,
        config: Optional[SACConfig] = None,
    ) -> None:
        self.cfg = config or SACConfig()
        self.rng = rng
        self.encoder = encoder or GraphSAGEEncoder(
            n_node_features, self.cfg.encoder_hidden, rng
        )
        d = self.encoder.out_features
        #: network dtype, taken from the encoder (float32 by default).
        self.dtype = self.encoder.dtype
        self.policy: Sequential = mlp(
            [d, *self.cfg.hidden, 1], rng, dtype=self.dtype
        )
        self.q1 = _QHead(d, self.cfg.hidden, rng, self.dtype)
        self.q2 = _QHead(d, self.cfg.hidden, rng, self.dtype)
        self.q1_target = copy.deepcopy(self.q1)
        self.q2_target = copy.deepcopy(self.q2)
        params = [
            *self.encoder.params,
            *self.policy.params,
            *self.q1.net.params,
            *self.q2.net.params,
        ]
        grads = [
            *self.encoder.grads,
            *self.policy.grads,
            *self.q1.net.grads,
            *self.q2.net.grads,
        ]
        self.optimizer = Adam(params, grads, lr=self.cfg.lr)
        self._buffer: List[SACTransition] = []
        self._since_train = 0
        self.train_steps = 0

    # ------------------------------------------------------------------ #
    # acting
    # ------------------------------------------------------------------ #
    def action_probs(
        self,
        features: np.ndarray,
        adj: List[List[int]],
        mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        h = self.encoder.encode(features, adj)
        logits = self.policy.forward(h)[:, 0]
        return masked_softmax(logits, mask)

    def act(
        self,
        features: np.ndarray,
        adj: List[List[int]],
        mask: Optional[np.ndarray] = None,
        *,
        greedy: bool = False,
    ) -> int:
        probs = self.action_probs(features, adj, mask)
        if greedy:
            return int(np.argmax(probs))
        return sample_categorical(probs, self.rng)

    # ------------------------------------------------------------------ #
    # learning
    # ------------------------------------------------------------------ #
    def record(self, transition: SACTransition) -> bool:
        self._buffer.append(transition)
        if len(self._buffer) > self.cfg.buffer_size:
            self._buffer.pop(0)
        self._since_train += 1
        if (
            self._since_train >= self.cfg.train_interval
            and len(self._buffer) >= self.cfg.batch_size
        ):
            self._since_train = 0
            self._train_minibatch()
            return True
        return False

    def _soft_q_target(self, t: SACTransition) -> float:
        """r + γ E_{a'~π}[min Q_target(s', a') − α log π(a'|s')]."""
        if t.next_features is None:
            return t.reward
        h = self.encoder.encode(t.next_features, t.next_adj or [])
        logits = self.policy.forward(h)[:, 0]
        probs = masked_softmax(logits, t.next_mask)
        q1 = self.q1_target.q_values(h)
        q2 = self.q2_target.q_values(h)
        qmin = np.minimum(q1, q2)
        logp = np.log(np.maximum(probs, 1e-300))
        soft_value = float((probs * (qmin - self.cfg.alpha * logp)).sum())
        return t.reward + self.cfg.gamma * soft_value

    def _train_minibatch(self) -> None:
        idx = self.rng.choice(
            len(self._buffer), size=self.cfg.batch_size, replace=False
        )
        batch = [self._buffer[i] for i in idx]
        targets = [self._soft_q_target(t) for t in batch]

        for g in self.optimizer.grads:
            g[...] = 0.0
        inv_n = 1.0 / len(batch)
        for t, y in zip(batch, targets):
            self._accumulate(t, y, inv_n)
        clip_grad_norm(self.optimizer.grads, self.cfg.grad_clip)
        self.optimizer.step()
        self._polyak_update()
        self.train_steps += 1

    def _accumulate(self, t: SACTransition, y: float, weight: float) -> None:
        h = self.encoder.encode(t.features, t.adj)
        n = h.shape[0]
        a = t.action

        grad_h_total = np.zeros_like(h)

        # Q losses: (Q(s,a) - y)^2 for each head.
        for head in (self.q1, self.q2):
            q = head.q_values(h)
            gq = np.zeros((n, 1), dtype=self.dtype)
            gq[a, 0] = 2.0 * (q[a] - y) * weight
            grad_h_total += head.net.backward(gq)

        # Policy loss: E_{a~π}[α log π(a|s) − min Q(s,a)] with Q detached.
        logits = self.policy.forward(h)[:, 0]
        probs = masked_softmax(logits, t.mask)
        q1 = self.q1.q_values(h)
        q2 = self.q2.q_values(h)
        qmin = np.minimum(q1, q2)
        logp = np.log(np.maximum(probs, 1e-300))
        # dL/dlogits for L = Σ_i p_i (α logp_i − qmin_i):
        inner = self.cfg.alpha * logp - qmin
        expected = float((probs * inner).sum())
        glogits = probs * (inner + self.cfg.alpha - expected) * weight
        # Recompute the q-head forwards above clobbered the policy cache? No:
        # each Sequential keeps its own cache, so policy.backward is valid.
        grad_h_total += self.policy.backward(
            glogits[:, None].astype(self.dtype)
        )

        self.encoder.backward(grad_h_total)

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def save(self, path) -> None:
        """Checkpoint all live networks (targets are rebuilt on load)."""
        save_params(self.optimizer.params, path)

    def load(self, path) -> None:
        load_params(self.optimizer.params, path)
        # re-sync the target networks with the restored live Q heads
        for live, target in ((self.q1, self.q1_target), (self.q2, self.q2_target)):
            for p_live, p_tgt in zip(live.net.params, target.net.params):
                p_tgt[...] = p_live

    def _polyak_update(self) -> None:
        tau = self.cfg.tau
        for live, target in ((self.q1, self.q1_target), (self.q2, self.q2_target)):
            for p_live, p_tgt in zip(live.net.params, target.net.params):
                p_tgt *= 1.0 - tau
                p_tgt += tau * p_live

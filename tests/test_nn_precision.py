"""Precision of the neural substrate: DCG-BE learns in float32.

The paper trains DCG-BE in PyTorch, whose default dtype is float32.  These
tests pin that every parameter, gradient, Adam moment and cached
activation of an A2C agent stays float32 through acting and training (a
stray float64 array would silently upcast every step), and that the
float32 gradients agree with a float64 twin built from the same seed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import TangoConfig
from repro.nn import (
    DTYPE,
    A2CAgent,
    A2CConfig,
    GATEncoder,
    GCNEncoder,
    GraphSAGEEncoder,
    IdentityEncoder,
    SACAgent,
    SACTransition,
    Transition,
    adjacency_from_edges,
    load_params,
    save_params,
)
from repro.sim.checkpoint import CHECKPOINT_VERSION

N_FEATURES = 5
N_NODES = 9

ENCODERS = {
    # sample_size 2 < the hub's degree, so GraphSAGE samples
    "graphsage": lambda rng, dtype: GraphSAGEEncoder(
        N_FEATURES, [8, 8], rng, sample_size=2, dtype=dtype
    ),
    "gcn": lambda rng, dtype: GCNEncoder(N_FEATURES, [8, 8], rng, dtype=dtype),
    "gat": lambda rng, dtype: GATEncoder(N_FEATURES, [8, 8], rng, dtype=dtype),
    "identity": lambda rng, dtype: IdentityEncoder(
        N_FEATURES, [8, 8], rng, dtype=dtype
    ),
}

#: float32 against float64 gradients: elementwise rtol, with an atol of
#: GRAD_ATOL_SCALE times the largest float64 gradient entry of the whole
#: network (entries that cancel to near zero, such as the critic's output
#: bias under normalised returns, carry only float32 rounding of the
#: larger terms).  Over 20 seeds per encoder the largest error is below
#: 7e-7 of that entry, a tenth of the atol.
GRAD_RTOL = 1e-4
GRAD_ATOL_SCALE = 1e-5


def graph():
    # a hub joined to a ring, so degrees differ and exceed the sample size
    edges = [(0, i) for i in range(1, N_NODES)]
    edges += [(i, i + 1) for i in range(1, N_NODES - 1)]
    return adjacency_from_edges(N_NODES, edges)


def make_agent(kind, dtype, seed=0):
    rng = np.random.default_rng(seed)
    encoder = ENCODERS[kind](rng, dtype)
    config = A2CConfig(hidden_actor=(16, 8), hidden_critic=(16, 8))
    return A2CAgent(N_FEATURES, rng, encoder=encoder, config=config)


def make_batch(seed=1, size=6):
    rng = np.random.default_rng(seed)
    adj = graph()
    batch = []
    for k in range(size):
        mask = rng.random(N_NODES) < 0.7
        mask[k % N_NODES] = True
        batch.append(
            Transition(
                features=rng.normal(size=(N_NODES, N_FEATURES)),
                adj=adj,
                mask=mask,
                action=k % N_NODES,
                reward=float(rng.normal()),
            )
        )
    return batch


def spy_backprop(*nets):
    """Record the dtype of every gradient into and out of ``nets``'
    backward passes, which no stored array shows."""
    seen = []
    for net in nets:
        def spy(grad, _backward=net.backward):
            out = _backward(grad)
            seen.extend([grad.dtype, out.dtype])
            return out

        net.backward = spy
    return seen


def network_arrays(agent):
    opt = agent.optimizer
    return [*opt.params, *opt.grads, *opt._m, *opt._v]


@pytest.mark.parametrize("kind", sorted(ENCODERS))
class TestA2CFloat32:
    def test_default_dtype_is_float32(self, kind):
        assert np.dtype(DTYPE) == np.float32
        agent = make_agent(kind, DTYPE)
        assert agent.dtype == np.float32

    def test_everything_float32_after_act_and_train(self, kind):
        agent = make_agent(kind, DTYPE)
        batch = make_batch()
        seen = spy_backprop(agent.actor, agent.critic, agent.encoder)
        for t in batch:
            agent.act(t.features, t.adj, t.mask)
        agent.train_on(batch)
        assert len(seen) == 6 * len(batch)
        assert all(dt == np.float32 for dt in seen)
        arrays = network_arrays(agent)
        assert len(arrays) == 4 * len(agent.optimizer.params)
        assert all(a.dtype == np.float32 for a in arrays)
        enc = agent.encoder
        cached = [*enc._agg_mats, *enc._inputs, *enc._selves]
        assert cached and all(a.dtype == np.float32 for a in cached)
        if isinstance(enc, GATEncoder):
            assert all(a.dtype == np.float32 for a in enc.att_vectors)
        h = enc.encode(batch[0].features, batch[0].adj)
        assert h.dtype == np.float32
        assert agent.actor.forward(h).dtype == np.float32

    def test_float32_gradient_matches_float64_twin(self, kind):
        a32 = make_agent(kind, np.float32)
        a64 = make_agent(kind, np.float64)
        assert a64.dtype == np.float64
        # the same draws in the same order: weights differ only by rounding
        for p32, p64 in zip(a32.optimizer.params, a64.optimizer.params):
            assert np.array_equal(p32, p64.astype(np.float32))
        a32.train_on(make_batch())
        a64.train_on(make_batch())
        assert a32.encoder.rng.bit_generator.state == (
            a64.encoder.rng.bit_generator.state
        )
        grads64 = a64.optimizer.grads
        atol = GRAD_ATOL_SCALE * max(float(np.abs(g).max()) for g in grads64)
        for g32, g64 in zip(a32.optimizer.grads, grads64):
            assert g32.dtype == np.float32 and g64.dtype == np.float64
            assert np.allclose(g32, g64, rtol=GRAD_RTOL, atol=atol)


def test_sac_everything_float32_after_training():
    rng = np.random.default_rng(0)
    agent = SACAgent(N_FEATURES, rng)
    adj = graph()
    feats = rng.normal(size=(N_NODES, N_FEATURES))
    seen = spy_backprop(agent.policy, agent.q1.net, agent.q2.net, agent.encoder)
    for _ in range(agent.cfg.batch_size + agent.cfg.train_interval):
        action = agent.act(feats, adj, None)
        agent.record(
            SACTransition(feats, adj, None, action, 1.0, feats, adj, None)
        )
    assert agent.train_steps > 0
    assert seen and all(dt == np.float32 for dt in seen)
    arrays = network_arrays(agent)
    arrays += agent.q1_target.net.params + agent.q2_target.net.params
    assert all(a.dtype == np.float32 for a in arrays)


class TestPersistence:
    def test_load_float64_npz_into_float32_agent_in_place(self, tmp_path):
        old = make_agent("graphsage", np.float64, seed=3)
        path = save_params(old.optimizer.params, tmp_path / "f64.npz")
        agent = make_agent("graphsage", DTYPE, seed=4)
        # the arrays the networks compute with, shared with the optimizer
        live = [agent.encoder.weights[0], agent.actor.layers[0].W]
        load_params(agent.optimizer.params, path)
        for p, stored in zip(agent.optimizer.params, old.optimizer.params):
            assert p.dtype == np.float32
            assert np.array_equal(p, stored.astype(np.float32))
        assert np.array_equal(live[0], old.encoder.weights[0].astype(np.float32))
        assert np.array_equal(live[1], old.actor.layers[0].W.astype(np.float32))


class TestCheckpoint:
    def test_version_marks_the_float32_agent(self):
        assert CHECKPOINT_VERSION == 3

    def test_resumed_dcg_be_agent_is_float32(self):
        from tests.test_checkpoint_resume import (
            CHECKPOINT_MS,
            build,
            fingerprint,
        )

        leg1, trace = build(TangoConfig.tango, 1)
        leg1.run(trace, until_ms=CHECKPOINT_MS)
        checkpoint = leg1.last_runner.checkpoint()
        assert leg1.be_scheduler.agent.train_steps > 0
        leg2, _ = build(TangoConfig.tango, 1)
        resumed = leg2.resume(trace, checkpoint)
        agent = leg2.be_scheduler.agent
        assert agent is not leg1.be_scheduler.agent
        assert agent.dtype == np.float32
        assert all(a.dtype == np.float32 for a in network_arrays(agent))
        # the restored optimizer still steps the restored networks' arrays
        assert agent.optimizer.params[0] is agent.encoder.params[0]
        assert agent.optimizer.grads[0] is agent.encoder.grads[0]
        assert fingerprint(resumed)["be_completed"] > 0

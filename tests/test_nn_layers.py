"""Layer forward/backward tests including numerical gradient checks."""

import numpy as np
import pytest

from repro.nn.layers import Dense, ReLU, Sequential, Tanh, mlp


def numerical_grad(f, x, eps=1e-6):
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        hi = f()
        x[idx] = orig - eps
        lo = f()
        x[idx] = orig
        grad[idx] = (hi - lo) / (2 * eps)
        it.iternext()
    return grad


class TestDense:
    def test_forward_shape(self, rng):
        layer = Dense(3, 5, rng)
        out = layer.forward(np.ones((2, 3)))
        assert out.shape == (2, 5)

    def test_forward_linear(self, rng):
        layer = Dense(2, 2, rng)
        layer.W[...] = np.array([[1.0, 0.0], [0.0, 2.0]])
        layer.b[...] = np.array([0.5, -0.5])
        out = layer.forward(np.array([[1.0, 1.0]]))
        assert np.allclose(out, [[1.5, 1.5]])

    def test_weight_gradient_matches_numerical(self, rng):
        # float64 so central differences at eps=1e-6 resolve the gradient
        layer = Dense(4, 3, rng, dtype=np.float64)
        x = rng.normal(size=(5, 4))

        def loss():
            return float((layer.forward(x) ** 2).sum())

        layer.zero_grad()
        out = layer.forward(x)
        layer.backward(2 * out)
        num = numerical_grad(loss, layer.W)
        assert np.allclose(layer.grads[0], num, atol=1e-4)

    def test_input_gradient_matches_numerical(self, rng):
        layer = Dense(4, 3, rng)
        x = rng.normal(size=(2, 4))

        def loss():
            return float((layer.forward(x) ** 2).sum())

        out = layer.forward(x)
        gin = layer.backward(2 * out)
        num = numerical_grad(loss, x)
        assert np.allclose(gin, num, atol=1e-4)

    def test_grad_accumulates_until_zeroed(self, rng):
        layer = Dense(2, 2, rng)
        x = np.ones((1, 2))
        out = layer.forward(x)
        layer.backward(np.ones_like(out))
        g1 = layer.grads[0].copy()
        layer.forward(x)
        layer.backward(np.ones_like(out))
        assert np.allclose(layer.grads[0], 2 * g1)
        layer.zero_grad()
        assert np.allclose(layer.grads[0], 0.0)

    def test_rejects_unknown_init(self, rng):
        with pytest.raises(ValueError):
            Dense(2, 2, rng, init="bogus")


class TestActivations:
    def test_relu_zeroes_negatives(self):
        relu = ReLU()
        out = relu.forward(np.array([[-1.0, 2.0]]))
        assert np.allclose(out, [[0.0, 2.0]])

    def test_relu_backward_mask(self):
        relu = ReLU()
        relu.forward(np.array([[-1.0, 2.0]]))
        grad = relu.backward(np.array([[5.0, 5.0]]))
        assert np.allclose(grad, [[0.0, 5.0]])

    def test_tanh_gradient_matches_numerical(self, rng):
        tanh = Tanh()
        x = rng.normal(size=(3, 4))

        def loss():
            return float(tanh.forward(x).sum())

        tanh.forward(x)
        gin = tanh.backward(np.ones((3, 4)))
        num = numerical_grad(loss, x)
        assert np.allclose(gin, num, atol=1e-5)


class TestSequential:
    def test_mlp_shapes(self, rng):
        net = mlp([6, 256, 128, 32, 1], rng)
        out = net.forward(np.zeros((7, 6)))
        assert out.shape == (7, 1)

    def test_full_network_gradient_check(self, rng):
        net = mlp([3, 8, 4, 1], rng, dtype=np.float64)
        x = rng.normal(size=(4, 3))

        def loss():
            return float((net.forward(x) ** 2).sum())

        net.zero_grad()
        out = net.forward(x)
        net.backward(2 * out)
        for p, g in zip(net.params, net.grads):
            num = numerical_grad(loss, p)
            assert np.allclose(g, num, atol=1e-4), "parameter gradient mismatch"

    def test_params_and_grads_aligned(self, rng):
        net = mlp([3, 8, 1], rng)
        assert len(net.params) == len(net.grads)
        for p, g in zip(net.params, net.grads):
            assert p.shape == g.shape

    def test_rejects_too_few_sizes(self, rng):
        with pytest.raises(ValueError):
            mlp([3], rng)


class TestCallerArraysUntouched:
    """In-place kernels only overwrite arrays no caller holds."""

    def test_relu_forward_leaves_input(self):
        x = np.array([[-1.0, 2.0]])
        ReLU().forward(x)
        assert np.array_equal(x, [[-1.0, 2.0]])

    def test_relu_forward_inplace_matches_forward(self, rng):
        x = rng.normal(size=(4, 5))
        out = ReLU().forward(x)
        y = x.copy()
        assert ReLU().forward_inplace(y) is y
        assert np.array_equal(y, out)

    def test_mlp_forward_and_backward_leave_caller_arrays(self, rng):
        net = mlp([3, 8, 4, 1], rng)
        x = rng.normal(size=(5, 3))
        x_before = x.copy()
        out = net.forward(x)
        grad = np.ones_like(out)
        net.backward(grad)
        assert np.array_equal(x, x_before)
        assert np.array_equal(grad, np.ones_like(out))

    def test_relu_overwrites_only_a_fresh_dense_output(self, rng):
        """A leading ReLU gets the caller's array, and Tanh keeps its
        output for backward, so both ReLUs here must copy."""
        net = Sequential([ReLU(), Tanh(), ReLU()])
        x = rng.normal(size=(3, 4))
        x_before = x.copy()
        out = net.forward(x)
        assert np.array_equal(x, x_before)
        assert np.array_equal(net.layers[1]._y, np.tanh(np.maximum(x, 0.0)))
        assert out is not net.layers[1]._y

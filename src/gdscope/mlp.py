"""Fully-connected classifier costs with analytic reverse-mode gradients.

The network family is fixed: dense layers, one activation kind throughout
(tanh / relu / linear), softmax cross-entropy on top, and an optional
normalization layer a -> a / (eps + ||a||) inserted after the first hidden
activation. With relu or linear activations and eps = 0 that normalization
makes the first layer's parameters positively homogeneous, which is the
hook the stationary-point diagnostics key on.
"""

from __future__ import annotations

import math

import numpy as np

from .costs import CostFunction, _finite_or_inf
from .data import Dataset
from .errors import ContractViolation

_ACTIVATIONS = ("tanh", "relu", "linear")


def _act(z, activation):
    if activation == "tanh":
        return np.tanh(z)
    if activation == "relu":
        return np.maximum(z, 0.0)
    return z


def _act_deriv(z, activation):
    if activation == "tanh":
        t = np.tanh(z)
        return 1.0 - t * t
    if activation == "relu":
        # subgradient convention: derivative 0 at the kink
        return (z > 0.0).astype(np.float64)
    return np.ones_like(z)


class MLPCost(CostFunction):
    """Mean softmax cross-entropy of a dense network over a fixed dataset."""

    kind = "mlp"

    def __init__(self, dataset: Dataset, hidden_sizes, activation="tanh",
                 normalize_first=False, normalize_eps=0.0):
        if activation not in _ACTIVATIONS:
            raise ContractViolation(f"unknown activation {activation!r}")
        if not 0 <= normalize_eps < math.inf:
            raise ContractViolation(f"normalize_eps must be finite and >= 0, got {normalize_eps}")
        if normalize_first and not hidden_sizes:
            raise ContractViolation("normalization layer needs at least one hidden layer")
        self.dataset = dataset
        self.activation = activation
        self.normalize_first = bool(normalize_first)
        self.normalize_eps = float(normalize_eps)
        self.layer_sizes = [dataset.d, *map(int, hidden_sizes), dataset.num_classes]
        if any(s < 1 for s in self.layer_sizes):
            raise ContractViolation(f"invalid layer sizes {self.layer_sizes}")
        self._shapes = [
            (self.layer_sizes[i + 1], self.layer_sizes[i])
            for i in range(len(self.layer_sizes) - 1)
        ]
        self.dimension = sum(o * i + o for o, i in self._shapes)
        self.is_c2 = activation != "relu"
        if normalize_first and activation in ("relu", "linear") and normalize_eps == 0.0:
            n_first = self._shapes[0][0] * self._shapes[0][1] + self._shapes[0][0]
            self.homogeneous_indices = np.arange(n_first, dtype=np.intp)

        self._onehot = np.zeros((dataset.n, dataset.num_classes))
        self._onehot[np.arange(dataset.n), dataset.labels] = 1.0
        self._all_rows = np.arange(dataset.n)

    # --- parameter packing -------------------------------------------------

    def unpack(self, theta):
        theta = self.check(theta)
        layers = []
        pos = 0
        for out, inp in self._shapes:
            W = theta[pos : pos + out * inp].reshape(out, inp)
            pos += out * inp
            b = theta[pos : pos + out]
            pos += out
            layers.append((W, b))
        return layers

    def init_params(self, seed) -> np.ndarray:
        """Uniform [-1/sqrt(fan_in), +1/sqrt(fan_in)] weights, zero biases."""
        rng = np.random.default_rng(np.uint64(seed))
        parts = []
        for out, inp in self._shapes:
            bound = 1.0 / math.sqrt(inp)
            parts.append(rng.uniform(-bound, bound, size=out * inp))
            parts.append(np.zeros(out))
        return np.concatenate(parts)

    # --- evaluation ---------------------------------------------------------

    @property
    def num_examples(self) -> int:
        return self.dataset.n

    def _forward(self, theta, idx):
        """Returns (logits, cache) for the examples selected by idx."""
        layers = self.unpack(theta)
        a = self.dataset.features[idx]
        cache = []
        last = len(layers) - 1
        for l, (W, b) in enumerate(layers):
            z = a @ W.T + b
            if l == last:
                cache.append((a, z, None))
                return z, cache
            h = _act(z, self.activation)
            norm_state = None
            if l == 0 and self.normalize_first:
                r = np.linalg.norm(h, axis=1, keepdims=True)
                s = self.normalize_eps + r
                r_safe = np.where(r > 0.0, r, 1.0)
                s_safe = np.where(s > 0.0, s, 1.0)
                h_pre = h
                h = h / s_safe
                norm_state = (h_pre, r_safe, s_safe)
            cache.append((a, z, norm_state))
            a = h
        raise AssertionError("unreachable")

    def _loss_from_logits(self, logits, idx):
        m = logits.max(axis=1, keepdims=True)
        lse = m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))
        picked = logits[np.arange(len(idx)), self.dataset.labels[idx]]
        return float(np.mean(lse - picked))

    def value(self, theta) -> float:
        logits, _ = self._forward(theta, self._all_rows)
        return _finite_or_inf(self._loss_from_logits(logits, self._all_rows))

    def gradient(self, theta) -> np.ndarray:
        return self._backprop(theta, self._all_rows)[1]

    def value_and_gradient(self, theta):
        return self._backprop(theta, self._all_rows, with_loss=True)

    def stochastic_gradient(self, theta, batch) -> np.ndarray:
        idx = np.asarray(batch, dtype=np.intp)
        if idx.ndim != 1 or idx.size == 0:
            raise ContractViolation("batch must be a nonempty 1-D index collection")
        if idx.min() < 0 or idx.max() >= self.dataset.n:
            raise ContractViolation(
                f"batch indices must lie in [0, {self.dataset.n}), got "
                f"[{int(idx.min())}, {int(idx.max())}]"
            )
        return self._backprop(theta, idx)[1]

    def _backprop(self, theta, idx, with_loss=False):
        """(value over the rows idx, or None without with_loss; gradient) from one forward pass."""
        logits, cache = self._forward(theta, idx)
        loss = _finite_or_inf(self._loss_from_logits(logits, idx)) if with_loss else None

        m = logits.max(axis=1, keepdims=True)
        e = np.exp(logits - m)
        probs = e / e.sum(axis=1, keepdims=True)
        d_z = (probs - self._onehot[idx]) / idx.size

        layers = self.unpack(theta)
        grads = [None] * len(layers)
        for l in range(len(layers) - 1, -1, -1):
            a_in = cache[l][0]
            W, _ = layers[l]
            dW = d_z.T @ a_in
            db = d_z.sum(axis=0)
            grads[l] = (dW, db)
            if l == 0:
                break
            d_a = d_z @ W
            if cache[l - 1][2] is not None:
                # d_a is w.r.t. the normalized output of layer l-1
                h_pre, r_safe, s_safe = cache[l - 1][2]
                inner = (d_a * h_pre).sum(axis=1, keepdims=True)
                d_a = d_a / s_safe - h_pre * (inner / (r_safe * s_safe**2))
            d_z = d_a * _act_deriv(cache[l - 1][1], self.activation)

        flat = []
        for dW, db in grads:
            flat.append(dW.ravel())
            flat.append(db)
        return loss, np.concatenate(flat)

    def logits(self, theta, idx=None) -> np.ndarray:
        if idx is None:
            idx = self._all_rows
        out, _ = self._forward(theta, np.asarray(idx, dtype=np.intp))
        return out

    def accuracy(self, theta) -> float:
        """Training accuracy; argmax ties resolve to the lower class index."""
        logits = self.logits(theta)
        pred = np.argmax(logits, axis=1)
        return float(np.mean(pred == self.dataset.labels))


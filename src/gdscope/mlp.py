"""Fully-connected classifier costs with analytic reverse-mode gradients.

The network family is fixed: dense layers, one activation kind throughout
(tanh / relu / linear), softmax cross-entropy on top, and an optional
normalization layer a -> a / (eps + ||a||) inserted after the first hidden
activation. With relu or linear activations and eps = 0 that normalization
makes the first layer's parameters positively homogeneous, which is the
hook the stationary-point diagnostics key on.

Evaluation allocates nothing of size (rows x width) once warm. A cost keeps
one workspace per row count it has evaluated (the dataset size, the
minibatch size): an activation buffer and a backprop buffer per hidden
layer, made on first use and kept for the cost's lifetime. Forward and
backward passes write into them in place, and gradients are written straight
into the vector that is returned, so returned arrays never alias the
workspace. Because the workspace is shared state, one cost instance must not
be evaluated from several threads at once; give each thread its own cost.

``value`` and the backward pass share one softmax head: the row max of the
logits, exp(logits - max) and the row sum are computed once and serve both
the log-sum-exp loss and the softmax, so ``value_and_gradient`` costs about
one ``gradient``.
"""

from __future__ import annotations

import math

import numpy as np

from .costs import CostFunction, _finite_or_inf
from .data import Dataset
from .errors import ContractViolation

_ACTIVATIONS = ("tanh", "relu", "linear")


class MLPCost(CostFunction):
    """Mean softmax cross-entropy of a dense network over a fixed dataset.

    Not thread-safe: evaluations reuse the instance's per-row-count workspace.
    """

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
        self._workspaces = {}  # row count -> _workspace buffers

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

    def _workspace(self, rows):
        """(activations, backprop signals, normalized first layer or None) for ``rows`` rows.

        One (rows, width) buffer of each kind per hidden layer, made the first
        time a row count is evaluated and kept for the cost's lifetime.
        """
        ws = self._workspaces.get(rows)
        if ws is None:
            widths = self.layer_sizes[1:-1]
            ws = self._workspaces[rows] = (
                [np.empty((rows, w)) for w in widths],
                [np.empty((rows, w)) for w in widths],
                np.empty((rows, widths[0])) if self.normalize_first else None,
            )
        return ws

    def _forward(self, layers, idx):
        """(logits, the input to each layer, normalization state) for the rows idx.

        Hidden activations are computed in place in the workspace; with the
        normalization layer, the first hidden layer's buffer keeps the
        activation before normalization and the normalized copy feeds layer 1.
        """
        a = self.dataset.features if idx is self._all_rows else self.dataset.features[idx]
        acts, _, normed = self._workspace(a.shape[0])
        inputs = []
        norm_state = None
        for l, (W, b) in enumerate(layers[:-1]):
            inputs.append(a)
            z = np.matmul(a, W.T, out=acts[l])
            z += b
            if self.activation == "tanh":
                np.tanh(z, out=z)
            elif self.activation == "relu":
                np.maximum(z, 0.0, out=z)
            a = z
            if l == 0 and normed is not None:
                np.multiply(z, z, out=normed)
                r = np.sqrt(normed.sum(axis=1, keepdims=True))
                s = self.normalize_eps + r
                r_safe = np.where(r > 0.0, r, 1.0)
                s_safe = np.where(s > 0.0, s, 1.0)
                a = np.divide(z, s_safe, out=normed)
                norm_state = (r_safe, s_safe)
        W, b = layers[-1]
        inputs.append(a)
        return a @ W.T + b, inputs, norm_state

    def _softmax_head(self, logits, idx, with_loss):
        """(mean cross-entropy over the rows idx, or None without with_loss; softmax).

        One pass serves both: the row max m, e = exp(logits - m) and the row sum
        s are computed once, the loss is the mean of m + log(s) - picked logit,
        and the softmax e / s is written over ``logits``. The row max is taken
        column by column with ``np.maximum``, which is exact and much faster than
        ``max(axis=1)`` on a few class columns.
        """
        m = logits[:, 0].copy()
        for c in range(1, logits.shape[1]):
            np.maximum(m, logits[:, c], out=m)
        loss = None
        if with_loss:
            labels = self.dataset.labels if idx is self._all_rows else self.dataset.labels[idx]
            picked = logits[np.arange(len(idx)), labels]
        logits -= m[:, None]
        np.exp(logits, out=logits)
        s = logits.sum(axis=1)
        if with_loss:
            loss = _finite_or_inf(float(np.mean(m + np.log(s) - picked)))
        logits /= s[:, None]
        return loss, logits

    def value(self, theta) -> float:
        logits, _, _ = self._forward(self.unpack(theta), self._all_rows)
        return self._softmax_head(logits, self._all_rows, with_loss=True)[0]

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
        """(value over the rows idx, or None without with_loss; gradient) from one forward pass.

        Each layer's weight and bias gradients are written straight into their
        slices of the returned vector. Once a layer's weight gradient is taken,
        the activation stored for it is overwritten by the activation's
        derivative, which is computed from the activation itself.
        """
        layers = self.unpack(theta)
        logits, inputs, norm_state = self._forward(layers, idx)
        loss, d_z = self._softmax_head(logits, idx, with_loss)
        d_z -= self._onehot if idx is self._all_rows else self._onehot[idx]  # softmax minus one-hot
        d_z /= idx.size

        acts, backs, normed = self._workspace(d_z.shape[0])
        grad = np.empty(self.dimension)
        grads = self.unpack(grad)
        for l in range(len(layers) - 1, -1, -1):
            dW, db = grads[l]
            np.matmul(d_z.T, inputs[l], out=dW)
            db[:] = d_z.sum(axis=0)
            if l == 0:
                break
            d_a = np.matmul(d_z, layers[l][0], out=backs[l - 1])
            h = acts[l - 1]
            if l == 1 and norm_state is not None:
                # d_a is w.r.t. the normalized output, whose buffer is free now that
                # layer 1's dW is taken
                r_safe, s_safe = norm_state
                inner = np.multiply(d_a, h, out=normed).sum(axis=1, keepdims=True)
                d_a /= s_safe
                d_a -= np.multiply(h, inner / (r_safe * s_safe**2), out=normed)
            if self.activation == "tanh":
                np.multiply(h, h, out=h)
                d_a *= np.subtract(1.0, h, out=h)
            elif self.activation == "relu":
                # subgradient convention: derivative 0 at the kink
                d_a *= np.greater(h, 0.0, out=h)
            d_z = d_a
        return loss, grad

    def logits(self, theta, idx=None) -> np.ndarray:
        idx = self._all_rows if idx is None else np.asarray(idx, dtype=np.intp)
        return self._forward(self.unpack(theta), idx)[0]

    def accuracy(self, theta) -> float:
        """Training accuracy; argmax ties resolve to the lower class index."""
        logits = self.logits(theta)
        pred = np.argmax(logits, axis=1)
        return float(np.mean(pred == self.dataset.labels))

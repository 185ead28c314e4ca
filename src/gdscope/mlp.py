"""Fully-connected classifier costs with analytic reverse-mode gradients.

The network family is fixed: dense layers, one activation kind throughout
(tanh / relu / linear), softmax cross-entropy on top, and an optional
normalization layer a -> a / ||a|| (a zero row stays zero) inserted after
the first hidden activation. With relu or linear activations that
normalization makes the first layer's parameters positively homogeneous,
which is the hook the stationary-point diagnostics key on.

Evaluation allocates nothing of size (rows x width) once warm. A cost keeps
one full-batch workspace, an activation buffer and a backprop buffer per
hidden layer with one row per example, page-aligned, made on first use and
kept for the cost's lifetime; a pass over fewer rows (a minibatch, a chunk of
a batch stack) uses its leading rows, and only a batch longer than the dataset (rows
drawn with repeats) gets a workspace of its own. Forward and backward passes
write into them in place, and gradients are written straight into the array
that is returned, so returned arrays never alias the workspace. Because the
workspace is shared state, one cost instance must not be evaluated from
several threads at once; give each thread its own cost.

One forward and one backward pass serve every evaluation. The backward
pass runs over m equal blocks of rows, each block one batch: ``gradient``,
``value_and_gradient`` and ``stochastic_gradient`` are the case m = 1, and
``stochastic_gradients`` feeds a (k, b) batch stack through it in chunks of
n // b batches, so a chunk fits in the full-batch workspace. Every matmul
runs as a broadcast matmul over one view per batch, which keeps each batch's
own b-row GEMM: the rows of a stack round exactly like separate
``stochastic_gradient`` calls. Everything else in the pass is elementwise or
example by example.

The logits are held class-major, (classes, rows), and the backward pass
carries each layer's signal delta transposed, so the head's per-example work
runs along rows of all examples rather than across a few classes. Reductions
are BLAS vector products, taken batch by batch like the matmuls: each bias
gradient is delta^T ones_b, each example's sum over classes ones @ e, and
the loss the per-example losses dotted with ones, over n. The first layer's
bias rides in its GEMM: the features carry a ones column, appended once, and
each pass copies [W1 | b1] out of theta, whose layout (W1, b1, W2, b2, ...)
is unchanged, so z1 = [x, 1] [W1 | b1]^T and [dW1 | db1] = delta1^T [x, 1]
are one GEMM each. The R-pass folds its direction's first layer the same way.

``value`` and the backward pass share one softmax head: each example's max
logit, exp(logits - max) and the sum s over classes are computed once and
serve both the log-sum-exp loss and the softmax, so ``value_and_gradient``
costs about one ``gradient``. A batch's mean over its b rows rides in the
head: it divides by s*b, and the pass subtracts a one-hot already divided by
b (the full batch's is made once). A full-batch evaluation keeps a copy of
its logits and theta, so ``accuracy`` at an equal theta, such as the stop
rule's right after a step's evaluation, runs no forward pass.

``hvp`` is exact: Pearlmutter's R-operator, a forward-over-reverse pass
(Pearlmutter 1994, "Fast exact multiplication by the Hessian"). What it reads
at theta, the curvature state, is computed once per theta by one forward and
one backward pass and kept in buffers made on the first hvp: each hidden
layer's activation, sigma' and backprop signal, the normalized first layer
and the signal at its output, the softmax probabilities, and for tanh the
signal times sigma''/sigma'. The state is keyed on a copy of theta compared
by value, so an hvp at an equal theta (the Lanczos steps of one sharpness
estimate) costs only an R-forward and an R-backward pass, and a theta
mutated in place is seen as new. Those passes use the full-batch workspace
as scratch; the returned vector is fresh. The state is more shared state:
the cost is still not thread-safe.
"""

from __future__ import annotations

import math

import numpy as np

from .costs import CostFunction, _finite_or_inf, as_batches, as_rng
from .data import Dataset
from .errors import ContractViolation

_ACTIVATIONS = ("tanh", "relu", "linear")
_PAGE = 4096


def _page_aligned(rows, cols):
    """An uninitialised (rows, cols) float64 array whose data starts on a 4096-byte
    boundary, so the speed of the matmuls that write it does not hang on where the
    heap happened to put it."""
    nbytes = rows * cols * 8
    raw = np.empty(nbytes + _PAGE, dtype=np.uint8)
    start = -raw.ctypes.data % _PAGE
    return raw[start : start + nbytes].view(np.float64).reshape(rows, cols)


def _blocks(x, m):
    """The rows of x as m equal blocks: an (m, rows / m, cols) view, or x when m == 1."""
    return x if m == 1 else x.reshape(m, -1, x.shape[-1])


def _cols(x, m):
    """The columns of x as m equal blocks: an (m, rows, cols / m) view, or x when m == 1."""
    return x if m == 1 else x.reshape(x.shape[0], m, -1).swapaxes(0, 1)


class MLPCost(CostFunction):
    """Mean softmax cross-entropy of a dense network over a fixed dataset.

    Not thread-safe: evaluations reuse the instance's full-batch workspace and
    curvature state (see the module docstring).
    """

    kind = "mlp"

    def __init__(self, dataset: Dataset, hidden_sizes, activation="tanh",
                 normalize_first=False):
        if activation not in _ACTIVATIONS:
            raise ContractViolation(f"unknown activation {activation!r}")
        if normalize_first and not hidden_sizes:
            raise ContractViolation("normalization layer needs at least one hidden layer")
        self.dataset = dataset
        self.activation = activation
        self.normalize_first = bool(normalize_first)
        self.layer_sizes = [dataset.d, *map(int, hidden_sizes), dataset.num_classes]
        if any(s < 1 for s in self.layer_sizes):
            raise ContractViolation(f"invalid layer sizes {self.layer_sizes}")
        self._shapes = [
            (self.layer_sizes[i + 1], self.layer_sizes[i])
            for i in range(len(self.layer_sizes) - 1)
        ]
        self._layout = []  # per layer: the weight slice of theta, its shape, the bias slice
        pos = 0
        for out, inp in self._shapes:
            self._layout.append((slice(pos, pos + out * inp), (out, inp),
                                 slice(pos + out * inp, pos + out * inp + out)))
            pos += out * inp + out
        self.dimension = pos
        # where [W1 | b1], the first layer with its bias as a last column, sits in theta
        out, inp = self._shapes[0]
        self._first = np.c_[np.arange(out * inp).reshape(out, inp), np.arange(out) + out * inp]
        if normalize_first and activation in ("relu", "linear"):
            self.homogeneous_indices = np.arange(self._layout[0][2].stop, dtype=np.intp)

        n = dataset.n
        # a ones column, so the first layer's bias rides in its GEMM
        self._features1 = np.hstack([dataset.features, np.ones((n, 1))])
        # class-major (classes, n), like the logits
        self._onehot = np.zeros((dataset.num_classes, n))
        self._onehot[dataset.labels, np.arange(n)] = 1.0
        self._onehot_n = self._onehot / n  # the full batch's one-hot over its row count
        self._all_rows = np.arange(n)
        self._picked = dataset.labels * n + self._all_rows  # flat index of each row's label logit
        self._ones, self._ones_classes = np.ones(n), np.ones(dataset.num_classes)
        self._workspaces = {}  # row count -> _workspace buffers or views
        self._curv = None  # _Curvature at the last theta an hvp saw
        self._kept = None  # (theta, logits) of the last full-batch evaluation

    # --- parameter packing -------------------------------------------------

    def unpack(self, theta):
        return self._layer_views(self.check(theta))

    def _layer_views(self, flat):
        """(W, b) views of each layer in the last axis of ``flat``: W is (..., out, in)
        and b (..., out), with ``flat``'s leading axes in front."""
        lead = flat.shape[:-1]
        return [(flat[..., w].reshape(lead + shape), flat[..., b]) for w, shape, b in self._layout]

    def _layers(self, flat):
        """The layers of the vector ``flat`` as the passes read them: the first as
        ([W | b], None), an (out, in + 1) copy that multiplies the ones-augmented
        features, and every later one as its (W, b) views."""
        return [(flat[self._first], None),
                *((flat[w].reshape(shape), flat[b]) for w, shape, b in self._layout[1:])]

    def init_params(self, seed) -> np.ndarray:
        """Uniform [-1/sqrt(fan_in), +1/sqrt(fan_in)] weights, zero biases."""
        rng = as_rng(seed)
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

    def _buffers(self, rows):
        """(activations, backprop signals, normalized first layer or None) for ``rows`` rows:
        one new page-aligned (rows, width) buffer of each kind per hidden layer."""
        widths = self.layer_sizes[1:-1]
        return (
            [_page_aligned(rows, w) for w in widths],
            [_page_aligned(rows, w) for w in widths],
            _page_aligned(rows, widths[0]) if self.normalize_first else None,
        )

    def _workspace(self, rows):
        """The workspace ``_buffers`` for ``rows`` rows, made the first time a row count
        is evaluated and kept for the cost's lifetime: below the dataset size, views
        of the full-batch workspace's leading rows; otherwise buffers of its own."""
        ws = self._workspaces.get(rows)
        if ws is None:
            if rows >= self.dataset.n:
                ws = self._buffers(rows)
            else:
                acts, backs, normed = self._workspace(self.dataset.n)
                ws = ([a[:rows] for a in acts], [d[:rows] for d in backs],
                      None if normed is None else normed[:rows])
            self._workspaces[rows] = ws
        return ws

    def _forward(self, layers, idx, ws=None, m=1):
        """(class-major logits, the input to each layer, normalization state) for the
        rows idx, taken as m equal blocks whose matmuls run block by block.

        ``layers`` come from ``_layers``, so the first layer's input is the rows of
        the ones-augmented features. Hidden activations are computed in place in
        ``ws`` (by default the workspace); with the normalization layer, the
        first hidden layer's buffer keeps the activation before normalization
        and the normalized copy feeds layer 1.
        """
        a = self._features1 if idx is self._all_rows else self._features1[idx]
        acts, _, normed = ws or self._workspace(a.shape[0])
        inputs = []
        norm_state = None
        for l, (W, b) in enumerate(layers[:-1]):
            inputs.append(a)
            z = acts[l]
            np.matmul(_blocks(a, m), W.T, out=_blocks(z, m))
            if b is not None:
                z += b
            if self.activation == "tanh":
                np.tanh(z, out=z)
            elif self.activation == "relu":
                np.maximum(z, 0.0, out=z)
            a = z
            if l == 0 and normed is not None:
                np.multiply(z, z, out=normed)
                r = np.sqrt(normed.sum(axis=1, keepdims=True))
                norm_state = np.where(r > 0.0, r, 1.0)
                a = np.divide(z, norm_state, out=normed)
        W, b = layers[-1]
        inputs.append(a)
        logits = np.empty((W.shape[0], a.shape[0]))
        np.matmul(W, _blocks(a, m).swapaxes(-1, -2), out=_cols(logits, m))
        if b is not None:
            logits += b[:, None]
        return logits, inputs, norm_state

    def _softmax_head(self, logits, m=1, scale=1, with_loss=False):
        """(mean cross-entropy over every row with ``with_loss``, else None; the logits).

        ``logits`` is class-major, (classes, rows). One pass serves both: each
        example's max mx, e = exp(logits - mx) and the sum s over classes are
        computed once, the loss is the mean of mx + log(s) - picked logit, and
        e / (s * scale) is written over ``logits`` (nothing more with scale
        None). The sum is a vector-matrix product per block of examples, so a
        block's sums round as in a call over that block alone.
        """
        mx = np.maximum.reduce(logits, axis=0)
        if with_loss:
            picked = logits.take(self._picked)
        logits -= mx
        np.exp(logits, out=logits)
        s = np.matmul(self._ones_classes, _cols(logits, m)).reshape(-1)
        loss = None
        if with_loss:
            lse = np.log(s)
            lse += mx
            lse -= picked
            loss = _finite_or_inf(float(lse @ self._ones) / self.dataset.n)
        if scale is not None:
            s *= scale
            logits /= s
        return loss, logits

    def _keep(self, theta, logits):
        """Copy a full-batch forward's theta and logits, read by ``accuracy`` at an
        equal theta."""
        if self._kept is None:
            self._kept = (np.empty(self.dimension), np.empty_like(logits))
        np.copyto(self._kept[0], theta)
        np.copyto(self._kept[1], logits)

    def value(self, theta) -> float:
        theta = self.check(theta)
        logits = self._forward(self._layers(theta), self._all_rows)[0]
        self._keep(theta, logits)
        return self._softmax_head(logits, scale=None, with_loss=True)[0]

    def gradient(self, theta) -> np.ndarray:
        theta = self.check(theta)
        grad = np.empty(self.dimension)
        self._backprop(self._layers(theta), self._all_rows, grad, theta=theta)
        return grad

    def value_and_gradient(self, theta):
        theta = self.check(theta)
        grad = np.empty(self.dimension)
        loss = self._backprop(self._layers(theta), self._all_rows, grad, with_loss=True,
                              theta=theta)
        return loss, grad

    def stochastic_gradient(self, theta, batch) -> np.ndarray:
        idx = as_batches(batch, self.dataset.n, ndim=1)
        grad = np.empty(self.dimension)
        self._backprop(self._layers(self.check(theta)), idx, grad)
        return grad

    def stochastic_gradients(self, theta, batches) -> np.ndarray:
        """The (k, dim) minibatch gradients of the (k, b) batch stack at one theta.

        Bit for bit the rows ``stochastic_gradient`` gives batch by batch. The
        stack goes through the backward pass in chunks of n // b batches (one
        when b > n / 2), each chunk one forward and one backward pass over the
        union of its rows, with its gradients written straight into their rows.
        """
        batches = as_batches(batches, self.dataset.n)
        layers = self._layers(self.check(theta))
        k, b = batches.shape
        chunk = max(1, self.dataset.n // b)
        grads = np.empty((k, self.dimension))
        for j in range(0, k, chunk):
            m = min(chunk, k - j)
            rows = grads[j] if m == 1 else grads[j : j + m]
            self._backprop(layers, batches[j : j + m].ravel(), rows, m)
        return grads

    def _backprop(self, layers, idx, grad, m=1, with_loss=False, theta=None):
        """Fill ``grad`` with the gradient over each of the m equal blocks of the rows
        idx: a (dim,) vector when m == 1, else (m, dim) rows. Returns the mean loss
        with ``with_loss`` (a full-batch pass), else None. A full-batch pass given
        its ``theta`` keeps its logits for ``accuracy``.

        One forward and one backward pass. The signal at the logits is
        e / (s b) - onehot / b, each block's mean folded into the head. Every
        later layer's weight gradient delta^T a and bias gradient delta^T ones_b
        are written straight into their slices of ``grad``, block by block; the
        first layer's [dW | db] is one GEMM against the augmented features,
        scattered into its slices. Once a layer's weight gradient is taken, the
        activation stored for it is overwritten by the activation's derivative,
        which is computed from the activation itself.
        """
        rows = idx.size
        b = rows // m
        ws = self._workspace(rows)
        logits, inputs, r_safe = self._forward(layers, idx, ws, m)
        if theta is not None:
            self._keep(theta, logits)
        loss, d_t = self._softmax_head(logits, m, b, with_loss)
        # the signal at a layer's output is carried transposed, as (m, out, b) blocks
        if idx is self._all_rows:
            d_t -= self._onehot_n
        else:
            onehot = self._onehot[:, idx]
            onehot /= b
            # each batch's block contiguous, as in a call over that batch alone
            out = np.empty((m, d_t.shape[0], b)) if m > 1 else d_t
            d_t = np.subtract(_cols(d_t, m), _cols(onehot, m), out=out)
        ones_b = self._ones[:b] if b <= self.dataset.n else np.ones(b)

        acts, backs, normed = ws
        grads = self._layer_views(grad)
        for l in range(len(layers) - 1, 0, -1):
            dW, db = grads[l]
            np.matmul(d_t, _blocks(inputs[l], m), out=dW)
            np.matmul(d_t, ones_b, out=db)
            d_a = backs[l - 1]
            np.matmul(d_t.swapaxes(-1, -2), layers[l][0], out=_blocks(d_a, m))
            h = acts[l - 1]
            if l == 1 and r_safe is not None:
                # d_a is w.r.t. the normalized output, whose buffer is free now that
                # layer 1's dW is taken
                inner = np.multiply(d_a, h, out=normed).sum(axis=1, keepdims=True)
                d_a /= r_safe
                d_a -= np.multiply(h, inner / (r_safe * r_safe**2), out=normed)
            if self.activation == "tanh":
                np.multiply(h, h, out=h)
                d_a *= np.subtract(1.0, h, out=h)
            elif self.activation == "relu":
                # subgradient convention: derivative 0 at the kink
                d_a *= np.greater(h, 0.0, out=h)
            d_t = _blocks(d_a, m).swapaxes(-1, -2)
        grad[..., self._first] = np.matmul(d_t, _blocks(inputs[0], m))
        return loss

    def _hvp(self, theta, v) -> np.ndarray:
        """Exact H v: Pearlmutter's R-operator, forward over reverse, over every row.

        The state at theta (``_Curvature``) is computed on the first call at a
        theta and reused while theta stays equal by value; each call then costs
        one R-forward and one R-backward pass. relu follows the gradient's
        subgradient convention: sigma' = 0 and sigma'' = 0 at the kink.
        """
        return self._r_pass(self._curvature(theta), v)

    def _curvature(self, theta):
        """The ``_Curvature`` at theta: the kept one when its theta is equal by value."""
        cs = self._curv
        if cs is not None and cs.complete and np.array_equal(cs.theta, theta):
            return cs
        if cs is None:
            cs = self._curv = _Curvature(self)
        cs.complete = False
        np.copyto(cs.theta, theta)
        cs.layers = layers = self._layers(cs.theta)
        logits, cs.inputs, cs.norm_state = self._forward(layers, self._all_rows, cs.ws)
        _, cs.probs = self._softmax_head(logits)
        top = cs.probs - self._onehot
        top /= self.dataset.n
        acts, deltas, _ = cs.ws
        cs.deltas = [*deltas, top.T]
        scratch = self._workspace(self.dataset.n)[1]
        for l in range(len(layers) - 1, 0, -1):
            h = acts[l - 1]
            if l == 1 and cs.norm_state is not None:
                # g w.r.t. the normalized output, then through the normalization's Jacobian
                r_safe = cs.norm_state
                g_norm = np.matmul(cs.deltas[1], layers[1][0], out=cs.g_norm)
                cs.hg = np.multiply(h, g_norm, out=scratch[0]).sum(axis=1, keepdims=True)
                g = np.divide(g_norm, r_safe, out=deltas[0])
                g -= np.multiply(h, cs.hg / (r_safe * r_safe**2), out=scratch[0])
            else:
                g = np.matmul(cs.deltas[l], layers[l][0], out=deltas[l - 1])
            if self.activation == "tanh":
                slope = np.multiply(h, h, out=cs.slopes[l - 1])
                np.subtract(1.0, slope, out=slope)
                np.multiply(h, g, out=cs.curls[l - 1])
                cs.curls[l - 1] *= -2.0  # g sigma''/sigma' = -2 h g
                g *= slope
            elif self.activation == "relu":
                g *= np.greater(h, 0.0, out=cs.slopes[l - 1])
        cs.complete = True
        return cs

    def _r_pass(self, cs, v):
        """H v at the state's theta, into a fresh vector; the workspace serves as scratch.

        Forward: R(z) = R(a) W^T + a V^T + c and R(h) = sigma' R(z) per layer
        (through the normalization's Jacobian after the first), then
        R(softmax) = p (R(z) - <p, R(z)>). Backward: R(dW) = R(delta)^T a +
        delta^T R(a), R(db) = sum R(delta), and
        R(delta) = sigma' R(g) + (g sigma''/sigma') R(h) with R(g) = R(delta') W + delta' V.
        The first layer's V and c ride in one GEMM against the augmented
        features, as in the forward and backward passes.
        """
        layers, dirs = cs.layers, self._layers(v)
        acts, backs, normed = self._workspace(self.dataset.n)
        inputs, deltas = cs.inputs, cs.deltas
        h, last, r_safe = cs.ws[0], len(layers) - 1, cs.norm_state
        r_in = [None]  # R(input) of each layer; the data's is zero
        for l in range(last):
            V, c = dirs[l]
            rz = np.matmul(inputs[l], V.T, out=acts[l])
            if l > 0:
                rz += np.matmul(r_in[l], layers[l][0].T, out=backs[l])
                rz += c
            if cs.slopes is not None:
                rz *= cs.slopes[l]
            if l == 0 and r_safe is not None:
                h_rh = np.multiply(h[0], rz, out=backs[0]).sum(axis=1, keepdims=True)
                r_in.append(np.divide(rz, r_safe, out=normed))
                r_in[1] -= np.multiply(h[0], h_rh / (r_safe * r_safe**2), out=backs[0])
            else:
                r_in.append(rz)
        V, c = dirs[last]
        r_t = V @ inputs[last].T  # R(delta) at the logits, class-major like the probabilities
        if last > 0:
            r_t += layers[last][0] @ r_in[last].T
            r_t += c[:, None]
        r_t -= self._ones_classes @ (cs.probs * r_t)
        r_t *= cs.probs
        r_t /= self.dataset.n

        out = np.empty(self.dimension)
        grads = self._layer_views(out)
        for l in range(last, 0, -1):
            dW, db = grads[l]
            np.matmul(r_t, inputs[l], out=dW)
            np.matmul(r_t, self._ones, out=db)  # sums over the examples
            dW += np.matmul(deltas[l].T, r_in[l], out=cs.dW_scratch[l])
            rh = acts[l - 1]  # R(h) of the layer below, free once R(dW) is taken
            rg = np.matmul(r_t.T, layers[l][0], out=backs[l - 1])
            if l == 1 and r_safe is not None:
                # R(g) w.r.t. the normalized output, then J R(g) + R(J) g through the Jacobian
                rg += np.matmul(deltas[1], dirs[1][0], out=normed)
                rho = h_rh / r_safe
                rs2 = r_safe * r_safe**2
                h_rg = np.multiply(h[0], rg, out=normed).sum(axis=1, keepdims=True)
                rh_g = np.multiply(rh, cs.g_norm, out=normed).sum(axis=1, keepdims=True)
                coef = cs.hg * rho * (3.0 * r_safe) / (r_safe * r_safe)
                coef -= h_rg + rh_g
                coef /= rs2
                rg /= r_safe
                rg -= np.multiply(cs.g_norm, rho / r_safe**2, out=normed)
                rg -= np.multiply(rh, cs.hg / rs2, out=normed)
                rg += np.multiply(h[0], coef, out=normed)
                if cs.slopes is not None:
                    rg *= cs.slopes[0]
                if cs.curls is not None:
                    rh *= cs.curls[0]
                    rg += rh
            elif cs.curls is not None:
                # sigma' multiplies both products, so each is scaled as it lands
                rg *= cs.slopes[l - 1]
                rh *= cs.curls[l - 1]
                rh += rg
                rg = np.matmul(deltas[l], dirs[l][0], out=backs[l - 1])
                rg *= cs.slopes[l - 1]
                rg += rh
            else:
                rg += np.matmul(deltas[l], dirs[l][0], out=rh)
                if cs.slopes is not None:
                    rg *= cs.slopes[l - 1]
            r_t = rg.T
        out[self._first] = r_t @ inputs[0]
        return out

    def logits(self, theta, idx=None) -> np.ndarray:
        idx = self._all_rows if idx is None else np.asarray(idx, dtype=np.intp)
        return self._forward(self._layers(self.check(theta)), idx)[0].T.copy()

    def accuracy(self, theta) -> float:
        """Training accuracy; argmax ties resolve to the lower class index. At the
        theta of the last full-batch evaluation, equal by value, it reads that
        evaluation's logits instead of running a forward pass."""
        theta = self.check(theta)
        kept = self._kept
        if kept is not None and np.array_equal(kept[0], theta):
            logits = kept[1]
        else:
            logits = self._forward(self._layers(theta), self._all_rows)[0]
        pred = np.argmax(logits, axis=0)
        return float(np.mean(pred == self.dataset.labels))


class _Curvature:
    """What every R-pass at one theta reads, kept between calls at an equal theta.

    ``theta`` is a copy of the parameters the state belongs to, compared by
    value while ``complete``, and ``layers`` its layers as ``MLPCost._layers``
    gives them. ``ws`` holds, per hidden layer, the activation h and the
    backprop signal delta at the pre-activation (and the normalized first
    layer); ``deltas`` is those
    signals plus (softmax - one-hot)/n at the logits, as an (n, classes) view,
    and ``probs`` the class-major (classes, n) softmax.
    ``slopes`` is sigma'(z) per hidden layer (None for linear) and ``curls``
    g sigma''/sigma' = -2 h g for tanh (None otherwise), g being the signal at
    the activation's output. With the normalization layer, ``g_norm`` is the
    signal at its output, ``hg`` the row dot h.g_norm and ``norm_state``
    ||h|| per row, with zeros read as one. ``dW_scratch`` holds one
    weight-shaped product per layer. Buffers are made once, on the first hvp.
    """

    def __init__(self, net):
        n = net.dataset.n
        hidden = net.layer_sizes[1:-1]
        self.theta = np.empty(net.dimension)
        self.complete = False
        self.ws = net._buffers(n)
        self.slopes = None if net.activation == "linear" else [np.empty((n, w)) for w in hidden]
        self.curls = [np.empty((n, w)) for w in hidden] if net.activation == "tanh" else None
        self.g_norm = np.empty((n, hidden[0])) if net.normalize_first else None
        self.dW_scratch = [W for W, _ in net.unpack(np.empty(net.dimension))]
        self.layers = self.inputs = self.deltas = self.probs = self.norm_state = self.hg = None

"""Cost function zoo: every landscape the toolkit optimizes and measures.

All costs share one contract: ``value``, ``gradient``, ``value_and_gradient``
and ``hvp``, on a flat float64 parameter vector whose dimension is fixed at
construction and checked on every evaluation. Derivatives are exact: gradients
in closed form here and by backprop for the MLP, Hessian-vector products in
closed form here and by the R-operator pass for the MLP.

Dataset-backed costs add minibatch gradients: ``stochastic_gradient`` over
one index batch, and ``stochastic_gradients`` over a (k, b) stack of batches
at one theta, which returns the k gradients as rows and must equal the
row-by-row calls bit for bit. The base class makes exactly those calls; the
MLP evaluates the stack in one pass.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import ContractViolation

def as_params(theta, dimension=None) -> np.ndarray:
    """Validate an incoming parameter vector: 1-D, float64, finite entries."""
    arr = np.ascontiguousarray(theta, dtype=np.float64)
    if arr.ndim != 1:
        raise ContractViolation(f"parameter vector must be 1-D, got shape {arr.shape}")
    if dimension is not None and arr.shape[0] != dimension:
        raise ContractViolation(
            f"parameter dimension {arr.shape[0]} does not match cost dimension {dimension}"
        )
    if not np.all(np.isfinite(arr)):
        raise ContractViolation("parameter vector contains NaN/Inf")
    return arr


def as_rng(seed) -> np.random.Generator:
    """The generator of a seed: an integer in [0, 2**64), numpy integers included."""
    if not isinstance(seed, numbers.Integral) or not 0 <= int(seed) < 2**64:
        raise ContractViolation(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return np.random.default_rng(np.uint64(seed))


def as_count(x, name: str) -> int:
    """Validate a count: an integer of at least 1, numpy integers included."""
    if not isinstance(x, numbers.Integral) or x < 1:
        raise ContractViolation(f"{name} must be an integer >= 1, got {x!r}")
    return int(x)


def as_finite(x, name: str) -> float:
    """Validate a scalar parameter: a finite float."""
    x = float(x)
    if not math.isfinite(x):
        raise ContractViolation(f"{name} must be finite, got {x}")
    return x


def as_batches(batches, n=None, ndim=2) -> np.ndarray:
    """Validate minibatch row indices: a nonempty ``ndim``-D integer array whose
    entries lie in [0, n) (not checked when n is None)."""
    idx = np.asarray(batches, dtype=np.intp)
    if idx.ndim != ndim or idx.size == 0:
        what = "batch must be a nonempty 1-D" if ndim == 1 else "batches must be a nonempty (k, b)"
        raise ContractViolation(f"{what} index array, got shape {idx.shape}")
    if n is not None and (idx.min() < 0 or idx.max() >= n):
        raise ContractViolation(
            f"batch indices must lie in [0, {n}), got [{int(idx.min())}, {int(idx.max())}]"
        )
    return idx


def _finite_or_inf(v: float) -> float:
    # overflow is reported as +Inf, never NaN
    return math.inf if math.isnan(v) else float(v)


class CostFunction:
    """Shared evaluation contract for every cost kind.

    Subclasses set ``kind``, ``dimension`` and implement ``value``,
    ``gradient`` and ``_hvp``. ``value_and_gradient`` returns exactly the pair
    of ``value`` and ``gradient``, by default by calling both. ``hvp`` checks
    its arguments and hands them to ``_hvp``, the exact product; a cost
    without one raises ``NotImplementedError``.

    Dataset-backed costs set ``num_examples`` and implement
    ``stochastic_gradient``; ``stochastic_gradients`` defaults to one
    ``stochastic_gradient`` per row of the batch stack, and a cost that
    overrides it must return the same bits.
    """

    kind: str = "abstract"
    dimension: int = 0
    # indices of the positively homogeneous parameter block, when one exists
    homogeneous_indices = None

    def value(self, theta) -> float:
        raise NotImplementedError

    def gradient(self, theta) -> np.ndarray:
        raise NotImplementedError

    def value_and_gradient(self, theta):
        return self.value(theta), self.gradient(theta)

    def hvp(self, theta, v) -> np.ndarray:
        """H(theta) v for a nonzero, finite v of the cost's dimension."""
        theta = self.check(theta)
        v = as_params(v, self.dimension)
        if not np.any(v):
            raise ContractViolation("hvp direction must be nonzero")
        return self._hvp(theta, v)

    def _hvp(self, theta, v) -> np.ndarray:
        """H(theta) v, on arguments ``hvp`` has checked."""
        raise NotImplementedError(f"cost kind {self.kind!r} has no Hessian-vector product")

    def check(self, theta) -> np.ndarray:
        arr = np.ascontiguousarray(theta, dtype=np.float64)
        if arr.shape != (self.dimension,):
            raise ContractViolation(
                f"parameter shape {arr.shape} does not match cost dimension {self.dimension}"
            )
        return arr

    # dataset-backed costs override these
    @property
    def num_examples(self):
        return None

    def stochastic_gradient(self, theta, batch) -> np.ndarray:
        raise ContractViolation(f"cost kind {self.kind!r} has no stochastic gradients")

    def stochastic_gradients(self, theta, batches) -> np.ndarray:
        """The minibatch gradient at theta of each row of the (k, b) index array
        ``batches``, as a fresh (k, dim) array."""
        batches = as_batches(batches, self.num_examples)
        return np.stack([self.stochastic_gradient(theta, batch) for batch in batches])


class Quadratic(CostFunction):
    """f(theta) = 1/2 theta^T P theta + q^T theta + r with symmetric P."""

    kind = "quadratic"

    def __init__(self, P, q=None, r=0.0):
        P = np.ascontiguousarray(P, dtype=np.float64)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ContractViolation(f"P must be square, got shape {P.shape}")
        if not np.all(np.isfinite(P)):
            raise ContractViolation("P contains NaN/Inf")
        asym = float(np.max(np.abs(P - P.T), initial=0.0))
        if asym > 1e-12:
            raise ContractViolation(f"P asymmetry {asym:.3e} exceeds 1e-12")
        self.P = 0.5 * (P + P.T)
        self.dimension = P.shape[0]
        if q is None:
            q = np.zeros(self.dimension)
        self.q = as_params(q, self.dimension)
        self.r = as_finite(r, "r")
        # immutable after construction, so every holder of the cost sees the same P and q
        self.P.setflags(write=False)
        self.q.setflags(write=False)

    def value(self, theta) -> float:
        theta = self.check(theta)
        with np.errstate(over="ignore", invalid="ignore"):
            v = 0.5 * float(theta @ (self.P @ theta)) + float(self.q @ theta) + self.r
        return _finite_or_inf(v)

    def gradient(self, theta) -> np.ndarray:
        theta = self.check(theta)
        with np.errstate(over="ignore", invalid="ignore"):
            return self.P @ theta + self.q

    def _hvp(self, theta, v) -> np.ndarray:
        return self.P @ v


class TanhQuadratic(CostFunction):
    """tanh applied on top of a quadratic: flattens the landscape away from the minimum."""

    kind = "tanh_quadratic"

    def __init__(self, P, q=None, r=0.0):
        self.inner = Quadratic(P, q, r)
        self.dimension = self.inner.dimension

    def value(self, theta) -> float:
        return math.tanh(self.inner.value(theta))

    def gradient(self, theta) -> np.ndarray:
        return self.value_and_gradient(theta)[1]

    def value_and_gradient(self, theta):
        t = math.tanh(self.inner.value(theta))
        return t, (1.0 - t**2) * self.inner.gradient(theta)

    def _hvp(self, theta, v) -> np.ndarray:
        # H = (1 - t^2) P - 2 t (1 - t^2) g g^T, with g the inner gradient
        t = math.tanh(self.inner.value(theta))
        slope = 1.0 - t * t
        g = self.inner.gradient(theta)
        return slope * self.inner._hvp(theta, v) - (2.0 * t * slope * float(g @ v)) * g


class SingleNeuron(CostFunction):
    """Squared loss of a one-hidden-neuron net fitting the datapoint (1, 0).

    linear: f(t1, t2) = (t1 * t2)^2;  tanh: f(t1, t2) = (t1 * tanh(t2))^2.
    """

    dimension = 2

    def __init__(self, activation: str):
        if activation not in ("linear", "tanh"):
            raise ContractViolation(f"unknown single-neuron activation {activation!r}")
        self.activation = activation
        self.kind = f"single_neuron_{activation}"

    def _activation(self, t2):
        """h(t2) and its first two derivatives."""
        if self.activation == "linear":
            return t2, 1.0, 0.0
        h = math.tanh(t2)
        dh = 1.0 - h * h
        return h, dh, -2.0 * h * dh

    def value(self, theta) -> float:
        t1, t2 = self.check(theta)
        h, _, _ = self._activation(t2)
        with np.errstate(over="ignore"):
            v = (t1 * h) ** 2
        return _finite_or_inf(v)

    def gradient(self, theta) -> np.ndarray:
        t1, t2 = self.check(theta)
        h, dh, _ = self._activation(t2)
        with np.errstate(over="ignore", invalid="ignore"):
            out = t1 * h
            return np.array([2.0 * out * h, 2.0 * out * t1 * dh])

    def _hvp(self, theta, v) -> np.ndarray:
        t1, t2 = theta
        h, dh, d2h = self._activation(t2)
        with np.errstate(over="ignore", invalid="ignore"):
            cross = 4.0 * t1 * h * dh
            hess = np.array([[2.0 * h * h, cross], [cross, 2.0 * t1 * t1 * (dh * dh + h * d2h)]])
            return hess @ v


class WeightDecayWrapped(CostFunction):
    """Adds gamma * ||theta||^2 to an inner cost.

    Keeps the inner cost's homogeneous-coordinate index set so the
    stationary-point analysis can see both pieces. Has the inner cost's
    ``accuracy`` exactly when the inner cost has one: decay does not change
    predictions, so a classifier's accuracy stop rule still applies.
    """

    kind = "weight_decay_wrapped"

    def __init__(self, inner: CostFunction, gamma: float):
        if not 0 <= gamma < math.inf:
            raise ContractViolation(f"weight decay gamma must be finite and >= 0, got {gamma}")
        self.inner = inner
        self.gamma = float(gamma)
        self.dimension = inner.dimension
        self.homogeneous_indices = inner.homogeneous_indices

    def value(self, theta) -> float:
        theta = self.check(theta)
        return _finite_or_inf(self.inner.value(theta) + self.gamma * float(theta @ theta))

    def gradient(self, theta) -> np.ndarray:
        theta = self.check(theta)
        return self.inner.gradient(theta) + 2.0 * self.gamma * theta

    def value_and_gradient(self, theta):
        theta = self.check(theta)
        v, g = self.inner.value_and_gradient(theta)
        return (_finite_or_inf(v + self.gamma * float(theta @ theta)),
                g + 2.0 * self.gamma * theta)

    def _hvp(self, theta, v) -> np.ndarray:
        return self.inner._hvp(theta, v) + 2.0 * self.gamma * v

    @property
    def num_examples(self):
        return self.inner.num_examples

    @property
    def accuracy(self):
        # an AttributeError here (no inner accuracy) makes hasattr(self, "accuracy") False
        return self.inner.accuracy

    def stochastic_gradient(self, theta, batch) -> np.ndarray:
        theta = self.check(theta)
        return self.inner.stochastic_gradient(theta, batch) + 2.0 * self.gamma * theta

    def stochastic_gradients(self, theta, batches) -> np.ndarray:
        theta = self.check(theta)
        grads = self.inner.stochastic_gradients(theta, batches)
        grads += 2.0 * self.gamma * theta
        return grads


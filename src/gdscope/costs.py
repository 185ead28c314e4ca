"""Cost function zoo: every landscape the toolkit optimizes and measures.

All costs share one contract: ``value``, ``gradient``, ``value_and_gradient``
and ``hvp``, on a flat float64 parameter vector whose dimension is fixed at
construction and checked on every evaluation. Gradients are analytic (closed
form here, backprop for the MLP); Hessian-vector products are analytic for
quadratics and a central finite difference of gradients everywhere else, with
a smaller step on costs that are not C^2.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractViolation

_EPS_CBRT = float(np.finfo(np.float64).eps) ** (1.0 / 3.0)
_EPS_SQRT = float(np.finfo(np.float64).eps) ** 0.5


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


def as_finite(x, name: str) -> float:
    """Validate a scalar parameter: a finite float."""
    x = float(x)
    if not math.isfinite(x):
        raise ContractViolation(f"{name} must be finite, got {x}")
    return x


def _finite_or_inf(v: float) -> float:
    # overflow is reported as +Inf, never NaN
    return math.inf if math.isnan(v) else float(v)


class CostFunction:
    """Shared evaluation contract for every cost kind.

    Subclasses set ``kind``, ``dimension`` and implement ``value`` and
    ``gradient``. ``value_and_gradient`` returns exactly their pair, by default
    by calling both; ``hvp`` defaults to a central finite difference of
    gradients with step cbrt(machine eps) * (1 + ||theta||). Costs that are not
    C^2 (``is_c2 = False``, relu networks) step sqrt(machine eps) * (1 + ||theta||)
    instead: the larger step straddles kinks, where the difference stops being
    linear in the direction.
    """

    kind: str = "abstract"
    dimension: int = 0
    is_c2: bool = True
    # indices of the positively homogeneous parameter block, when one exists
    homogeneous_indices = None

    def value(self, theta) -> float:
        raise NotImplementedError

    def gradient(self, theta) -> np.ndarray:
        raise NotImplementedError

    def value_and_gradient(self, theta):
        return self.value(theta), self.gradient(theta)

    def hvp(self, theta, v) -> np.ndarray:
        theta = self.check(theta)
        v = as_params(v, self.dimension)
        norm_v = float(np.linalg.norm(v))
        if norm_v == 0.0:
            raise ContractViolation("hvp direction must be nonzero")
        vhat = v / norm_v
        eps = (_EPS_CBRT if self.is_c2 else _EPS_SQRT) * (1.0 + float(np.linalg.norm(theta)))
        g_plus = self.gradient(theta + eps * vhat)
        g_minus = self.gradient(theta - eps * vhat)
        return (g_plus - g_minus) * (norm_v / (2.0 * eps))

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

    def hvp(self, theta, v) -> np.ndarray:
        self.check(theta)
        v = as_params(v, self.dimension)
        if not np.any(v):
            raise ContractViolation("hvp direction must be nonzero")
        return self.P @ v

    @property
    def smoothness(self) -> float:
        """Gradient Lipschitz constant: the largest Hessian eigenvalue."""
        return float(np.linalg.eigvalsh(self.P).max())


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

    def value(self, theta) -> float:
        t1, t2 = self.check(theta)
        h = math.tanh(t2) if self.activation == "tanh" else t2
        with np.errstate(over="ignore"):
            v = (t1 * h) ** 2
        return _finite_or_inf(v)

    def gradient(self, theta) -> np.ndarray:
        t1, t2 = self.check(theta)
        if self.activation == "tanh":
            h = math.tanh(t2)
            dh = 1.0 - h * h
        else:
            h, dh = t2, 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            out = t1 * h
            return np.array([2.0 * out * h, 2.0 * out * t1 * dh])


class WeightDecayWrapped(CostFunction):
    """Adds gamma * ||theta||^2 to an inner cost.

    Keeps (or overrides) the inner cost's homogeneous-coordinate index set so
    the stationary-point analysis can see both pieces.
    """

    kind = "weight_decay_wrapped"

    def __init__(self, inner: CostFunction, gamma: float, homogeneous_indices=None):
        if not 0 <= gamma < math.inf:
            raise ContractViolation(f"weight decay gamma must be finite and >= 0, got {gamma}")
        self.inner = inner
        self.gamma = float(gamma)
        self.dimension = inner.dimension
        self.is_c2 = inner.is_c2
        if homogeneous_indices is not None:
            self.homogeneous_indices = np.asarray(homogeneous_indices, dtype=np.intp)
        else:
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

    def hvp(self, theta, v) -> np.ndarray:
        v = as_params(v, self.dimension)
        return self.inner.hvp(theta, v) + 2.0 * self.gamma * v

    @property
    def num_examples(self):
        return self.inner.num_examples

    def stochastic_gradient(self, theta, batch) -> np.ndarray:
        theta = self.check(theta)
        return self.inner.stochastic_gradient(theta, batch) + 2.0 * self.gamma * theta


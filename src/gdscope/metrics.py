"""Per-iterate diagnostics for (S)GD runs.

The two primitive quantities are the relative progress ratio

    rp(theta) = (f(theta - eta*grad) - f(theta)) / (eta * ||grad||^2)

(negative means the step decreased the loss) and the directional smoothness

    dir_v(theta) = <v, grad(theta) - grad(theta - v)> / ||v||^2,

a secant curvature along an update direction, which saturates near 2/eta when
the iterates oscillate. They are tied together by an exact identity,

    rp(theta) = -1 + (eta/2) * 2 * integral_0^1 tau * dir_{eta*tau*grad}(theta) dtau,

which this module verifies numerically by trapezoidal quadrature on a tau
grid, with the tau -> 0 endpoint linearly extrapolated from the two smallest
grid points. Sharpness (largest Hessian eigenvalue) is estimated matrix-free
by two-phase shifted power iteration, and the stochastic analogues of rp are
estimated by Monte Carlo over minibatches.

All functions are pure given (cost, theta, parameters, seed); sweeps reduce
in a fixed order so repeated calls are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .costs import CostFunction, as_params
from .errors import ContractViolation, NearStationaryError, PowerIterationError, ZeroDirectionError

GRAD_FLOOR_COEFF = 1e-12

_trapz = getattr(np, "trapezoid", None) or np.trapz


def grad_floor(loss: float) -> float:
    """Gradient-norm floor below which rp/dir are reported undefined, not NaN."""
    return GRAD_FLOOR_COEFF * (1.0 + abs(loss))


@dataclass(slots=True)
class MetricSample:
    """One instrumented iterate. Fields are None exactly when undefined."""

    iteration: int
    loss: float
    grad_norm: float
    rp: Optional[float] = None
    dir: Optional[float] = None
    sharpness: Optional[float] = None
    identity_residual: Optional[float] = None
    tau_dir_mean: Optional[float] = None
    tau_dir_std: Optional[float] = None


@dataclass(frozen=True)
class QuadratureGrid:
    """Strictly increasing tau nodes in (0, 1] for the dir-integral quadrature."""

    taus: np.ndarray

    def __post_init__(self):
        taus = np.ascontiguousarray(self.taus, dtype=np.float64)
        if taus.ndim != 1 or taus.size == 0:
            raise ContractViolation("tau grid must be a nonempty 1-D sequence")
        if taus[0] <= 0.0 or taus[-1] > 1.0 or np.any(np.diff(taus) <= 0.0):
            raise ContractViolation("tau grid must be strictly increasing within (0, 1]")
        taus.setflags(write=False)
        object.__setattr__(self, "taus", taus)

    @classmethod
    def default(cls, points: int = 100) -> "QuadratureGrid":
        return cls(np.linspace(1.0 / points, 1.0, points))


class IdentityCheck(NamedTuple):
    lhs: float
    rhs: float
    residual: float


def _gradient_above_floor(cost, theta):
    theta = as_params(theta, cost.dimension)
    loss, g = cost.value_and_gradient(theta)
    gnorm = float(np.linalg.norm(g))
    if gnorm < grad_floor(loss):
        raise NearStationaryError(
            f"gradient norm {gnorm:.3e} below floor {grad_floor(loss):.3e}: "
            "metric undefined at near-stationary point"
        )
    return theta, loss, g, gnorm


def relative_progress(cost: CostFunction, theta, eta: float) -> float:
    """One-step loss change normalized by eta * ||grad||^2; negative = descent."""
    if eta <= 0:
        raise ContractViolation("eta must be positive")
    theta, loss, g, gnorm = _gradient_above_floor(cost, theta)
    return (cost.value(theta - eta * g) - loss) / (eta * gnorm**2)


def directional_smoothness(cost: CostFunction, theta, v) -> float:
    """Secant curvature <v, grad(theta) - grad(theta - v)> / ||v||^2."""
    theta = as_params(theta, cost.dimension)
    v = np.ascontiguousarray(v, dtype=np.float64)
    return float(_dir_along(cost, theta, cost.gradient(theta), v, 1.0, np.ones(1))[0])


def _dir_along(cost, theta, g_at_theta, direction, eta, taus):
    """dir_{eta*tau*direction}(theta) for each tau, reusing grad(theta)."""
    out = np.empty(taus.shape[0])
    for i, tau in enumerate(taus):
        v = (eta * tau) * direction
        vv = float(v @ v)
        if not math.isfinite(vv) or vv == 0.0:
            raise ZeroDirectionError("direction norm is zero (or underflows): dir undefined")
        g_back = cost.gradient(theta - v)
        out[i] = float(v @ (g_at_theta - g_back)) / vv
    return out


def _weighted_integral(taus, dirs, include_zero_node=True):
    """Trapezoid of g(tau) = 2*tau*dir(tau), with g(0) linearly extrapolated.

    With a single grid point the extrapolation degenerates to treating dir as
    constant, i.e. g(0) = 0 and the integral is 2 * 0.5 * dir(tau_1) * tau_1.
    """
    g = 2.0 * taus * dirs
    if not include_zero_node:
        return float(_trapz(g, taus))
    if taus.shape[0] >= 2:
        g0 = g[0] - taus[0] * (g[1] - g[0]) / (taus[1] - taus[0])
    else:
        g0 = 0.0
    nodes = np.concatenate(([0.0], taus))
    vals = np.concatenate(([g0], g))
    return float(_trapz(vals, nodes))


def weighted_dir_integral(cost: CostFunction, theta, eta: float,
                          grid: QuadratureGrid | None = None,
                          include_zero_node: bool = True) -> float:
    """Quadrature of 2 * integral_0^1 tau * dir_{eta*tau*grad}(theta) dtau.

    ``include_zero_node=False`` drops the extrapolated tau=0 node; it exists
    for fault injection in the self-check command and for quadrature studies.
    """
    taus = (grid or QuadratureGrid.default()).taus
    theta, _, g, _ = _gradient_above_floor(cost, theta)
    return _weighted_integral(taus, _dir_along(cost, theta, g, g, eta, taus), include_zero_node)


def _identity_rhs(eta, taus, dirs, include_zero_node=True):
    """The identity's right side -1 + (eta/2) * weighted integral, from the tau sweep ``dirs``."""
    return -1.0 + 0.5 * eta * _weighted_integral(taus, dirs, include_zero_node)


def verify_identity(cost: CostFunction, theta, eta: float,
                    grid: QuadratureGrid | None = None,
                    include_zero_node: bool = True) -> IdentityCheck:
    """Compare rp against -1 + (eta/2) * weighted dir integral, evaluating theta once."""
    if eta <= 0:
        raise ContractViolation("eta must be positive")
    taus = (grid or QuadratureGrid.default()).taus
    theta, loss, g, gnorm = _gradient_above_floor(cost, theta)
    rhs = _identity_rhs(eta, taus, _dir_along(cost, theta, g, g, eta, taus), include_zero_node)
    lhs = (cost.value(theta - eta * g) - loss) / (eta * gnorm**2)
    return IdentityCheck(lhs, rhs, abs(lhs - rhs))


def rp_approx_residual(cost: CostFunction, theta, eta: float) -> float:
    """|rp - (-1 + (eta/2) * dir at the full step)|: the identity on the one-node grid.

    Small exactly when dir is nearly constant in tau; exact zero on quadratics.
    """
    return verify_identity(cost, theta, eta, QuadratureGrid.default(1)).residual


def tau_dir_stats(cost: CostFunction, theta, eta: float,
                  grid: QuadratureGrid | None = None):
    """Mean and standard deviation of dir_{eta*tau*grad}(theta) over the tau grid."""
    taus = (grid or QuadratureGrid.default()).taus
    theta, _, g, _ = _gradient_above_floor(cost, theta)
    dirs = _dir_along(cost, theta, g, g, eta, taus)
    return float(np.mean(dirs)), float(np.std(dirs))


# --- sharpness ---------------------------------------------------------------


def sharpness(cost: CostFunction, theta, tol: float = 1e-6,
              max_iter: int = 10_000, seed: int = 0) -> float:
    """Largest Hessian eigenvalue at theta by Lanczos with a certified Ritz residual.

    Builds an orthonormal Krylov basis from a seeded random vector, one hvp a
    step, reorthogonalizing each new vector against the whole basis (two
    Gram-Schmidt passes). The Ritz values are the eigenvalues of the k x k
    tridiagonal, so indefinite Hessians need no shift. When the top Ritz
    pair (lam, x) has recurrence residual |beta_k s_k| <= tol * (1+|lam|),
    one more hvp checks ||H x - lam x|| against the same bound, and lam is
    returned only if that holds too: the recurrence's own residual certifies
    nothing when the hvp is not a symmetric linear map. Runs at most
    min(max_iter, dim) steps.

    For costs that are not C^2 (relu networks) the Hessian-vector product is
    a finite-difference surrogate and the returned value inherits that status.
    """
    if tol <= 0:
        raise ContractViolation("tol must be positive")
    if max_iter < 1:
        raise ContractViolation("max_iter must be >= 1")
    theta = as_params(theta, cost.dimension)
    dim = cost.dimension
    steps = min(max_iter, dim)
    v = np.random.default_rng(np.uint64(seed)).standard_normal(dim)
    basis = np.empty((min(16, steps), dim))  # rows; doubled as it fills
    basis[0] = v / np.linalg.norm(v)
    alphas, betas = [], []
    for k in range(steps):
        V = basis[:k + 1]
        w = cost.hvp(theta, V[k])
        alphas.append(float(V[k] @ w))
        for _ in range(2):
            w -= (V @ w) @ V
        beta = float(np.linalg.norm(w))
        T = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        ritz, S = np.linalg.eigh(T)
        lam, s = float(ritz[-1]), S[:, -1]
        x = s @ V
        bound = tol * (1.0 + abs(lam))
        if abs(beta * s[-1]) <= bound \
                and np.linalg.norm(cost.hvp(theta, x) - lam * x) <= bound:
            return lam
        if beta == 0.0 or k + 1 == steps:
            break
        if k + 1 == len(basis):
            basis = np.concatenate((basis, np.empty((min(k + 1, steps - k - 1), dim))))
        basis[k + 1] = w / beta
        betas.append(beta)
    raise PowerIterationError(
        f"Lanczos did not certify a Ritz residual <= {tol:g}*(1+|lam|) "
        f"in {k + 1} steps", float(x @ cost.hvp(theta, x))
    )


def segment_max_sharpness(cost: CostFunction, theta, eta: float, samples: int = 11,
                          tol: float = 1e-6, max_iter: int = 10_000, seed: int = 0) -> float:
    """Max sharpness over equally spaced points of [theta, theta - eta*grad].

    A sampled lower bound on the true segment supremum.
    """
    if samples < 2:
        raise ContractViolation("need samples >= 2")
    theta, _, g, _ = _gradient_above_floor(cost, theta)
    step = -eta * g
    best = -math.inf
    for i in range(samples):
        point = theta + (i / (samples - 1)) * step
        best = max(best, sharpness(cost, point, tol, max_iter, seed))
    return best


# --- stochastic relative progress --------------------------------------------


def _batch_gradients(cost, theta, batch_size, num_batches, rng, grad_sampler):
    """Gradient samples: minibatches drawn uniformly with replacement, so the
    sample mean is exactly unbiased for the full gradient. batch_size >= n
    degenerates to the deterministic full batch. A grad_sampler(rng) callable
    replaces minibatch sampling entirely (synthetic-noise studies)."""
    if grad_sampler is not None:
        return [as_params(grad_sampler(rng), cost.dimension) for _ in range(num_batches)]
    n = cost.num_examples
    if n is None:
        raise ContractViolation(
            f"cost kind {cost.kind!r} has no dataset; pass grad_sampler instead"
        )
    if batch_size < 1:
        raise ContractViolation("batch_size must be >= 1")
    out = []
    for _ in range(num_batches):
        if batch_size >= n:
            batch = np.arange(n)
        else:
            batch = rng.integers(0, n, size=batch_size)
        out.append(cost.stochastic_gradient(theta, batch))
    return out


def expected_rp(cost: CostFunction, theta, eta: float, batch_size: int,
                num_batches: int, seed: int, grad_sampler=None):
    """Monte Carlo estimate of (E f(theta - eta*g) - f(theta)) / (eta*||grad||^2).

    Returns (estimate, stderr). With batch_size >= n and num_batches=1 the
    sample is the deterministic full gradient and this equals
    relative_progress exactly (stderr 0).
    """
    if num_batches < 1:
        raise ContractViolation("num_batches must be >= 1")
    theta, loss, g, gnorm = _gradient_above_floor(cost, theta)
    rng = np.random.default_rng(np.uint64(seed))
    grads = _batch_gradients(cost, theta, batch_size, num_batches, rng, grad_sampler)
    vals = np.array([
        (cost.value(theta - eta * gb) - loss) / (eta * gnorm**2) for gb in grads
    ])
    est = float(np.mean(vals))
    err = 0.0 if num_batches == 1 else float(np.std(vals, ddof=1) / math.sqrt(num_batches))
    return est, err


def expected_rp_rhs(cost: CostFunction, theta, eta: float, batch_size: int,
                    num_batches: int, seed: int, grid: QuadratureGrid | None = None,
                    grad_sampler=None):
    """Monte Carlo estimate of -1 + (eta/2) * E[(||g||^2/||grad||^2) * dir_{eta*g}].

    Default is the single-tau (tau=1) form, i.e. the one-node grid [1.0];
    passing a grid switches to the exact integral form
    2 * integral tau * dir_{eta*tau*g} dtau per sample.
    Matching seeds with expected_rp draw identical batch sequences, so the
    two estimates are paired.
    """
    if num_batches < 1:
        raise ContractViolation("num_batches must be >= 1")
    taus = (grid or QuadratureGrid.default(1)).taus
    theta, _, g, gnorm = _gradient_above_floor(cost, theta)
    rng = np.random.default_rng(np.uint64(seed))
    grads = _batch_gradients(cost, theta, batch_size, num_batches, rng, grad_sampler)
    weights = np.empty(num_batches)
    for i, gb in enumerate(grads):
        dirs = _dir_along(cost, theta, g, gb, eta, taus)
        weights[i] = float(gb @ gb) / gnorm**2 * _weighted_integral(taus, dirs)
    est = -1.0 + 0.5 * eta * float(np.mean(weights))
    if num_batches == 1:
        err = 0.0
    else:
        err = 0.5 * eta * float(np.std(weights, ddof=1) / math.sqrt(num_batches))
    return est, err

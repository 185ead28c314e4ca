"""Per-iterate diagnostics for (S)GD runs, one-shot and along a trace.

The two primitive quantities are the relative progress ratio

    rp(theta) = (f(theta - eta*grad) - f(theta)) / (eta * ||grad||^2)

(negative means the step decreased the loss) and the directional smoothness

    dir_v(theta) = <v, grad(theta) - grad(theta - v)> / ||v||^2,

a secant curvature along an update direction, which saturates near 2/eta when
the iterates oscillate. They are tied together by an exact identity,

    rp(theta) = -1 + (eta/2) * 2 * integral_0^1 tau * dir_{eta*tau*grad}(theta) dtau,

which this module verifies numerically by the Gauss-Radau rule of
``QuadratureGrid`` on TAU_NODES = 16 tau nodes, the last at tau = 1.
Sharpness (largest Hessian eigenvalue) is estimated matrix-free by Lanczos
with a certified Ritz residual; along a step segment each point is
warm-started from the previous point's Ritz vector.

One rule says where the step eta*g from theta is measurable, for the trace's
sampler ``_sample_at`` (which leaves the step's fields empty) and for every
one-shot entry point (which raises): eta obeys 0 < eta < inf, else
ContractViolation; theta's loss and gradient norm are finite and the norm is
at least ``grad_floor(loss)``, else NearStationaryError; and ||eta*g||^2 lies
in (0, inf), else ZeroDirectionError. ``directional_smoothness`` applies the
last two to its step v. Expected rp also requires each sample gradient g_b
to have finite ||g_b||^2 and ||eta*g_b||^2, else ZeroDirectionError; a zero
g_b leaves the LHS defined and the RHS undefined.

The stochastic analogue of rp is estimated by Monte Carlo over minibatches,
twice: ``expected_rp`` reads E f(theta - eta*g_b) directly, and
``expected_rp_rhs`` its directional-smoothness form. Both come from one
paired draw, which evaluates theta once, draws every minibatch first, takes
their gradients g_b in stacked ``stochastic_gradients`` calls of n // b
batches (one backward pass) and makes one ``value_and_gradient`` at each
theta - eta*g_b of a call before the next call, so at most min(k, n // b)
g_b are alive at once; a non-finite sample step is refused before its own
call's points are evaluated. A ``grad_sampler``'s k samples come as one
stack. The pair is taken one way: ``expected_rp`` leaves its draw's
one-node RHS in a one-entry slot, which the next ``expected_rp_rhs`` call
takes, and clears, when its key is equal (the same cost and sampler objects,
theta's bytes, eta, batch_size, num_batches, seed and the grid's node count);
any other call draws afresh. The slot holds weak references only, and
assumes that a cost (and a sampler) is not mutated between the two calls.

All functions are pure given (cost, theta, parameters, seed); sweeps reduce
in a fixed order so repeated calls are bit-identical.
"""

from __future__ import annotations

import contextlib
import math
import weakref
from dataclasses import dataclass, fields
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .costs import CostFunction, as_count, as_params, as_rng
from .errors import ContractViolation, NearStationaryError, PowerIterationError, ZeroDirectionError

GRAD_FLOOR_COEFF = 1e-12
TAU_NODES = 16  # the tau sweep's grid: a sweep costs TAU_NODES - 1 gradients
MAX_TAU_NODES = 128  # the largest grid built: its rule is checked exact up to here


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
    """The Gauss-Radau rule of ``points`` nodes for integral_0^1 2*tau*f(tau) dtau.

    Its integral of f is ``f(taus) @ weights``, exact for f a polynomial of degree
    <= 2 * points - 2, with positive weights that sum to 1. Its last node is tau = 1,
    the full step, whose gradient the step's own evaluation already has; the others
    are the roots of P_n' (Legendre, n = points) mapped from [-1, 1] to (0, 1). The
    one-node rule is {1} with weight 1.
    """

    points: int

    def __post_init__(self):
        if as_count(self.points, "points") > MAX_TAU_NODES:
            raise ContractViolation(f"points must be at most {MAX_TAU_NODES}, got {self.points}")

    @cached_property
    def _rule(self):
        """(taus, weights), read-only, built on first use: a run without a sweep builds none."""
        n = self.points
        # Newton's method on x P_n - P_{n-1} = -(1 - x^2) P_n' / n, derivative (n + 1) P_n, from
        # the Chebyshev points: x = 1 stays put, and eight steps reach the roots of P_n' for each
        # n <= MAX_TAU_NODES (five suffice). Unlike an eigensolver it calls no LAPACK routine.
        x = -np.cos(np.pi * np.arange(1, n + 1) / n)
        for _ in range(8):
            before, legendre = np.ones(n), x  # P_0 and P_1 at x, then up to P_n
            for k in range(1, n):
                before, legendre = legendre, ((2 * k + 1) * x * legendre - k * before) / (k + 1)
            x = x - (x * legendre - before) / ((n + 1) * legendre)
        taus = (x + 1.0) / 2.0
        # the Gauss-Lobatto weights 2 / (n (n+1) P_n(x)^2) of -1 and x, times 2*tau dtau / dx
        weights = 2.0 * taus / (n * (n + 1) * legendre**2)
        for rule in (taus, weights):
            rule.setflags(write=False)
        return taus, weights

    taus = property(lambda self: self._rule[0], doc="The nodes, increasing in (0, 1], the last 1.")
    weights = property(lambda self: self._rule[1], doc="The weights, positive, summing to 1.")


_ONE_NODE = QuadratureGrid(1)  # tau = 1 alone: dir at the full step
_DEFAULT_GRID = QuadratureGrid(TAU_NODES)
METRIC_FIELDS = tuple(f.name for f in fields(MetricSample))[1:]  # a trace's columns after iter


class IdentityCheck(NamedTuple):
    lhs: float
    rhs: float
    residual: float


def _check_eta(eta):
    """The step-size rule of every run and entry point: 0 < eta < inf."""
    if not 0 < eta < math.inf:
        raise ContractViolation(f"eta must be positive and finite, got {eta}")


def _norm(g):
    """||g||, with the bits of np.linalg.norm; a norm that overflows is inf, unwarned."""
    with np.errstate(over="ignore"):
        return math.sqrt(g @ g)


def _step(g, gnorm, eta):
    """The step eta*g; where eta*||g|| is not finite it may overflow, and is taken without
    numpy's overflow warning (the step is then unmeasurable)."""
    with contextlib.nullcontext() if math.isfinite(eta * gnorm) else np.errstate(over="ignore"):
        return eta * g


def _step_sq(loss, gnorm, step, step_norm):
    """||step||^2 where a step from an iterate with this loss and gradient norm is
    measurable (the module docstring's rule). From a ``step_norm`` of 1e150, or an
    unknown (inf) one, the square is taken without numpy's overflow warning."""
    if not (math.isfinite(loss) and math.isfinite(gnorm) and gnorm >= grad_floor(loss)):
        raise NearStationaryError(f"gradient norm {gnorm:.3e} at loss {loss:.3e}: not finite "
                                  "or below the floor, so metrics here are undefined")
    with np.errstate(over="ignore") if step_norm >= 1e150 else contextlib.nullcontext():
        step_sq = float(step @ step)
    if not 0.0 < step_sq < math.inf:
        raise ZeroDirectionError("step norm is zero or not finite: metrics along it undefined")
    return step_sq


def _measured(cost, theta, eta, v=None):
    """(theta, loss, g, ||g||, step, step.step) at a measurable step eta*g, or v; else raises."""
    _check_eta(eta)
    theta = as_params(theta, cost.dimension)
    loss, g = cost.value_and_gradient(theta)
    gnorm = _norm(g)
    step = _step(g, gnorm, eta) if v is None else np.ascontiguousarray(v, dtype=np.float64)
    step_norm = eta * gnorm if v is None else math.inf  # unknown for v
    return theta, loss, g, gnorm, step, _step_sq(loss, gnorm, step, step_norm)


def relative_progress(cost: CostFunction, theta, eta: float) -> float:
    """One-step loss change normalized by eta * ||grad||^2; negative = descent."""
    theta, loss, _, gnorm, step, _ = _measured(cost, theta, eta)
    return (cost.value(theta - step) - loss) / (eta * gnorm**2)


def directional_smoothness(cost: CostFunction, theta, v) -> float:
    """Secant curvature <v, grad(theta) - grad(theta - v)> / ||v||^2, v taken as the step."""
    theta, _, g, _, v, vv = _measured(cost, theta, 1.0, v)
    return float(v @ (g - cost.gradient(theta - v))) / vv


def _dir_along(cost, theta, g_at_theta, direction, eta, taus, g_at_end):
    """dir_{eta*tau*direction}(theta) for each tau, reusing grad(theta) and, for the
    last node tau = 1, ``g_at_end``: the gradient at theta - eta*direction."""
    out = np.empty(taus.shape[0])
    last = taus.shape[0] - 1
    for i, tau in enumerate(taus):
        v = (eta * tau) * direction
        vv = float(v @ v)
        if not math.isfinite(vv) or vv == 0.0:
            raise ZeroDirectionError("direction norm is zero (or underflows): dir undefined")
        g_back = g_at_end if i == last else cost.gradient(theta - v)
        out[i] = float(v @ (g_at_theta - g_back)) / vv
    return out


def verify_identity(cost: CostFunction, theta, eta: float,
                    grid: QuadratureGrid | None = None) -> IdentityCheck:
    """Compare rp against -1 + (eta/2) * weighted dir integral. One ``value_and_gradient``
    at theta - eta*g gives both rp's loss and the gradient of the last node, tau = 1."""
    grid = grid or _DEFAULT_GRID
    theta, loss, g, gnorm, step, _ = _measured(cost, theta, eta)
    next_loss, next_g = cost.value_and_gradient(theta - step)
    dirs = _dir_along(cost, theta, g, g, eta, grid.taus, next_g)
    rhs = -1.0 + 0.5 * eta * float(dirs @ grid.weights)
    lhs = (next_loss - loss) / (eta * gnorm**2)
    return IdentityCheck(lhs, rhs, abs(lhs - rhs))


def _sample_at(cost, theta, t, loss, g, gnorm, step, eta, flags, look_ahead=False, erp=None):
    """The sample at iterate t, and what it owes: None, or ``_finish_step``'s arguments
    after the cost, as rp, dir and the tau sweep wait on the loss and gradient at
    theta - step, step = eta*g. With ``look_ahead`` it evaluates theta - step itself and
    owes nothing; with ``erp`` = (batch_size, seed generator), rp holds expected rp, so
    the step is evaluated only for dir or the sweep."""
    sample = MetricSample(t, loss, gnorm)
    needs_step = (flags.rp and not erp) or flags.dir or flags.tau_sweep
    step_sq = None
    if needs_step or erp:
        try:
            step_sq = _step_sq(loss, gnorm, step, eta * gnorm)
        except (NearStationaryError, ZeroDirectionError):
            pass  # the step's fields stay empty
    if flags.sharpness and math.isfinite(loss):
        # the value only: the estimate's Ritz vector is not kept per sample
        sample.sharpness = float(sharpness(cost, theta))
    owes = (theta, sample, step, step_sq, g) if step_sq is not None and needs_step else None
    if owes is not None and look_ahead:
        _finish_step(cost, *owes, *cost.value_and_gradient(theta - step), eta, flags)
        owes = None
    if step_sq is not None and erp:
        try:
            (sample.rp, _), _ = _paired_draw(cost, theta, loss, g, gnorm, eta, erp[0],
                                             flags.expected_rp_batches,
                                             erp[1].integers(0, 2**63), lhs_only=True)
        except ZeroDirectionError:
            sample.rp = None  # a sample step that is not measurable leaves rp empty
    return sample, owes


def _finish_step(cost, theta, sample, step, step_sq, g, next_loss, next_g, eta, flags):
    """rp, dir and the tau sweep along the step from theta (gradient g), from the loss and
    gradient at theta - step: the sweep's node tau = 1 is dir, the identity's left side rp."""
    if flags.rp or flags.tau_sweep:
        rp = (next_loss - sample.loss) / (eta * sample.grad_norm**2)  # the identity's left side
        if flags.rp:
            sample.rp = rp
    if flags.dir:
        sample.dir = float(step @ (g - next_g)) / step_sq
    if flags.tau_sweep:
        dirs = _dir_along(cost, theta, g, g, eta, _DEFAULT_GRID.taus, next_g)
        sample.tau_dir_mean = mean = float(dirs @ _DEFAULT_GRID.weights)  # the integral
        sample.tau_dir_std = math.sqrt((dirs - mean) ** 2 @ _DEFAULT_GRID.weights)
        sample.identity_residual = abs(rp - (-1.0 + 0.5 * eta * mean))


# --- sharpness ---------------------------------------------------------------


RHO = 0.1  # weight of the seeded random direction mixed into a warm start


class SharpnessEstimate(float):
    """A certified top Ritz value, carrying the work that certified it.

    ``vector`` is the unit Ritz vector x, ``hvps`` counts every hvp made (the
    certifying ones included), ``steps`` the Lanczos steps taken and
    ``residual`` the explicit ||H x - lam x|| that certified the value.
    """

    __slots__ = ("vector", "hvps", "steps", "residual")

    def __new__(cls, value, vector, hvps, steps, residual):
        self = super().__new__(cls, value)
        self.vector, self.hvps, self.steps, self.residual = vector, hvps, steps, residual
        return self


def sharpness(cost: CostFunction, theta, tol: float = 1e-6,
              max_iter: int = 10_000, seed: int = 0, start=None) -> SharpnessEstimate:
    """Largest Hessian eigenvalue at theta by Lanczos with a certified Ritz residual.

    Builds an orthonormal Krylov basis from a start vector, one hvp a step,
    reorthogonalizing each new vector against the whole basis (two
    Gram-Schmidt passes). The Ritz values are the eigenvalues of the k x k
    tridiagonal, so indefinite Hessians need no shift. When the top Ritz
    pair (lam, x) has recurrence residual |beta_k s_k| <= tol * (1+|lam|),
    one more hvp checks ||H x - lam x|| against the same bound, and lam is
    returned only if that holds too: the recurrence's own residual certifies
    nothing when the hvp is not a symmetric linear map. Runs at most
    min(max_iter, dim) steps.

    The start vector is the seeded random unit vector r, or, given ``start``
    (say the Ritz vector of a nearby point), start/||start|| + RHO * r. The
    random part keeps every eigendirection in the Krylov space: a start that
    is exactly an eigenvector would certify that eigenpair even when it is
    not the top one.

    On relu networks the hvp is exact with the activation pattern at theta
    held fixed (sigma'' = 0, and sigma' = 0 at a kink as in the gradient),
    which is the Hessian wherever no pre-activation is exactly zero.
    """
    if not 0 < tol < math.inf or max_iter < 1:
        raise ContractViolation(f"need 0 < tol < inf and max_iter >= 1, got {tol}, {max_iter}")
    theta = as_params(theta, cost.dimension)
    dim = cost.dimension
    steps = min(max_iter, dim)
    v = as_rng(seed).standard_normal(dim)
    v /= np.linalg.norm(v)
    if start is not None:
        start = as_params(start, dim)
        norm_start = float(np.linalg.norm(start))
        if norm_start == 0.0:
            raise ContractViolation("sharpness start vector must be nonzero")
        v = start / norm_start + RHO * v
        v /= np.linalg.norm(v)
    basis = np.empty((min(16, steps), dim))  # rows; doubled as it fills
    basis[0] = v
    T = np.zeros((len(basis), len(basis)))  # the tridiagonal, filled in place; grown with basis
    hvps = 0
    for k in range(steps):
        V = basis[:k + 1]
        w = cost.hvp(theta, V[k])
        hvps += 1
        T[k, k] = float(V[k] @ w)
        for _ in range(2):
            w -= (V @ w) @ V
        beta = float(np.linalg.norm(w))
        ritz, S = np.linalg.eigh(T[:k + 1, :k + 1])
        lam, s = float(ritz[-1]), S[:, -1]
        x = s @ V
        bound = tol * (1.0 + abs(lam))
        if abs(beta * s[-1]) <= bound:
            hvps += 1
            residual = float(np.linalg.norm(cost.hvp(theta, x) - lam * x))
            if residual <= bound:
                return SharpnessEstimate(lam, x, hvps, k + 1, residual)
        if beta == 0.0 or k + 1 == steps:
            break
        if k + 1 == len(basis):
            grow = min(k + 1, steps - k - 1)
            basis = np.concatenate((basis, np.empty((grow, dim))))
            T = np.pad(T, (0, grow))
        basis[k + 1] = w / beta
        T[k, k + 1] = T[k + 1, k] = beta
    last_rayleigh = float(x @ cost.hvp(theta, x))
    raise PowerIterationError(
        f"Lanczos did not certify a Ritz residual <= {tol:g}*(1+|lam|) "
        f"in {k + 1} steps", last_rayleigh, hvps + 1, k + 1
    )


def segment_max_sharpness(cost: CostFunction, theta, eta: float, samples: int = 11,
                          tol: float = 1e-6, max_iter: int = 10_000, seed: int = 0) -> float:
    """Max sharpness over equally spaced points of [theta, theta - eta*grad].

    A sampled lower bound on the true segment supremum. The first point is
    theta itself, estimated from a cold start, so it equals
    ``sharpness(cost, theta, tol, max_iter, seed)``; each later point starts
    from the previous point's Ritz vector plus a random component (see
    ``sharpness``). Returns a plain float.
    """
    if samples < 2:
        raise ContractViolation("need samples >= 2")
    theta, _, _, _, step, _ = _measured(cost, theta, eta)
    est = sharpness(cost, theta, tol, max_iter, seed)
    best = float(est)
    for i in range(1, samples):
        point = theta - (i / (samples - 1)) * step
        est = sharpness(cost, point, tol, max_iter, seed, start=est.vector)
        best = max(best, float(est))
    return best


# --- stochastic relative progress --------------------------------------------


def _batch_gradients(cost, theta, batch_size, num_batches, rng, grad_sampler):
    """Gradient samples, yielded in chunks: minibatches drawn uniformly with
    replacement, so the sample mean is exactly unbiased for the full gradient.
    batch_size >= n degenerates to the deterministic full batch. Every batch is
    drawn first; their gradients then come from stacked ``stochastic_gradients``
    calls of n // b batches (one backward pass), as (m, dim) rows, each call made
    when the previous chunk has been consumed. A grad_sampler(rng) callable
    replaces minibatch sampling entirely (synthetic-noise studies); its samples
    come one call each, as one list."""
    if grad_sampler is not None:
        yield [as_params(grad_sampler(rng), cost.dimension) for _ in range(num_batches)]
        return
    n = cost.num_examples
    if n is None:
        raise ContractViolation(
            f"cost kind {cost.kind!r} has no dataset; pass grad_sampler instead"
        )
    if batch_size < 1:
        raise ContractViolation("batch_size must be >= 1")
    if batch_size >= n:
        batches = np.broadcast_to(np.arange(n), (num_batches, n))
    else:
        # one draw per batch: a single (k, b) draw splits the rng stream differently
        batches = np.stack([rng.integers(0, n, size=batch_size) for _ in range(num_batches)])
    chunk = max(1, n // batches.shape[1])
    for j in range(0, num_batches, chunk):
        yield cost.stochastic_gradients(theta, batches[j : j + chunk])


def _mean_and_stderr(samples):
    """(mean, standard error of the mean) of Monte Carlo samples; stderr 0 for one sample."""
    est = float(np.mean(samples))
    err = 0.0 if samples.shape[0] == 1 else float(
        np.std(samples, ddof=1) / math.sqrt(samples.shape[0]))
    return est, err


def _paired_draw(cost, theta, loss, g, gnorm, eta, batch_size, num_batches, seed,
                 grad_sampler=None, grid=_ONE_NODE, lhs_only=False):
    """Both expected-rp estimates from one draw: (lhs, rhs), each (estimate, stderr).

    Takes theta's loss, gradient g and ||g|| from the caller, at a measurable
    step; draws the gradient samples g_b once, chunk by chunk (in the rng order
    of ``_batch_gradients``), and makes one ``value_and_gradient`` at each
    theta - eta*g_b: its value is the LHS sample and its gradient serves the
    RHS node tau = 1, the last of every grid; any other node of ``grid`` is
    evaluated by ``gradient``. A chunk's points are evaluated, and the chunk
    dropped, before the next is taken, so at most min(k, n // b) g_b are held.
    Each tau sweep is integrated as it is taken.
    ``rhs`` is None when some g_b is zero, so that dir is undefined, and with
    ``lhs_only``, which skips the RHS: each point then costs one ``value``.
    Raises ``ZeroDirectionError`` when some ||g_b||^2 or ||eta*g_b||^2 is not
    finite, before any point of its chunk is evaluated.
    """
    if num_batches < 1:
        raise ContractViolation("num_batches must be >= 1")
    rng = as_rng(seed)
    scale = eta * gnorm**2
    lhs = np.empty(num_batches)
    sq_norms = np.empty(num_batches)
    integrals = None if lhs_only else np.empty(num_batches)
    start = 0
    for grads in _batch_gradients(cost, theta, batch_size, num_batches, rng, grad_sampler):
        with np.errstate(over="ignore"):  # a norm that overflows is inf, refused here, unwarned
            step_sqs = (eta * np.sqrt(np.einsum("ij,ij->i", grads, grads))) ** 2
        if not np.all(step_sqs < math.inf):
            raise ZeroDirectionError("a sample step's norm is not finite: expected rp undefined")
        for i, gb in enumerate(grads, start):
            point = theta - eta * gb
            if integrals is None:
                lhs[i] = (cost.value(point) - loss) / scale
                continue
            value, g_end = cost.value_and_gradient(point)
            lhs[i] = (value - loss) / scale
            try:
                integrals[i] = _dir_along(cost, theta, g, gb, eta, grid.taus, g_end) @ grid.weights
            except ZeroDirectionError:
                integrals = None
                continue
            sq_norms[i] = float(gb @ gb)
        start += len(grads)
        del grads, gb  # so that the next chunk is not taken while this one is alive
    if integrals is None:
        return _mean_and_stderr(lhs), None
    est, err = _mean_and_stderr(sq_norms / gnorm**2 * integrals)
    return _mean_and_stderr(lhs), (-1.0 + 0.5 * eta * est, 0.5 * eta * err)


# (cost ref, sampler ref or None, key, rhs) of the last expected_rp draw, or None
_parked_rhs = None


def _pair_key(theta, eta, batch_size, num_batches, seed, grid):
    return theta.shape, theta.tobytes(), eta, batch_size, num_batches, seed, grid.points


def expected_rp(cost: CostFunction, theta, eta: float, batch_size: int,
                num_batches: int, seed: int, grad_sampler=None):
    """Monte Carlo estimate of (E f(theta - eta*g) - f(theta)) / (eta*||grad||^2).

    Returns (estimate, stderr). With batch_size >= n and num_batches=1 the
    sample is the deterministic full gradient and this equals
    relative_progress exactly (stderr 0).

    Draws the pair (see the module docstring) and leaves its one-node RHS for
    the next ``expected_rp_rhs`` call, which takes it when its arguments match
    and the cost has not been mutated in between.
    """
    global _parked_rhs
    _parked_rhs = None
    theta = np.ascontiguousarray(theta, dtype=np.float64)
    lhs, rhs = _paired_draw(cost, *_measured(cost, theta, eta)[:4], eta, batch_size,
                            num_batches, seed, grad_sampler)
    try:
        sampler_ref = None if grad_sampler is None else weakref.ref(grad_sampler)
        _parked_rhs = (weakref.ref(cost), sampler_ref,
                       _pair_key(theta, eta, batch_size, num_batches, seed, _ONE_NODE), rhs)
    except TypeError:  # not weakly referenceable: nothing is parked
        pass
    return lhs


def expected_rp_rhs(cost: CostFunction, theta, eta: float, batch_size: int,
                    num_batches: int, seed: int, grid: QuadratureGrid | None = None,
                    grad_sampler=None):
    """Monte Carlo estimate of -1 + (eta/2) * E[(||g||^2/||grad||^2) * dir_{eta*g}].

    Default is the single-tau (tau=1) form, i.e. the one-node grid
    ``QuadratureGrid(1)``; passing a wider grid switches to the integral form
    2 * integral tau * dir_{eta*tau*g} dtau per sample, by that grid's rule. Raises
    ``ZeroDirectionError`` when a gradient sample is zero.

    Matching seeds with ``expected_rp`` mean identical samples. Right after an
    ``expected_rp`` call with the same cost, sampler and arguments, and the
    one-node grid, this takes the RHS that call left; otherwise it draws the
    pair afresh and leaves nothing behind.
    """
    global _parked_rhs
    grid = grid or _ONE_NODE
    theta = np.ascontiguousarray(theta, dtype=np.float64)
    parked, _parked_rhs = _parked_rhs, None
    if (parked is not None and parked[0]() is cost
            and (grad_sampler is None if parked[1] is None else parked[1]() is grad_sampler)
            and parked[2] == _pair_key(theta, eta, batch_size, num_batches, seed, grid)):
        rhs = parked[3]
    else:
        _, rhs = _paired_draw(cost, *_measured(cost, theta, eta)[:4], eta, batch_size,
                              num_batches, seed, grad_sampler, grid)
    if rhs is None:
        raise ZeroDirectionError("direction norm is zero (or underflows): dir undefined")
    return rhs

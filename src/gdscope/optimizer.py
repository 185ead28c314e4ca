"""Instrumented, deterministic GD and SGD loops.

A trajectory halts with outcome ``diverged`` when the loss reaches
``BLOWUP_LOSS`` (1e12) or any evaluation goes non-finite, ``converged`` when
the stop rule fires (training accuracy for classifiers, otherwise the
gradient falling below the near-stationary floor), and ``budget_exhausted``
otherwise. Given identical inputs, trajectories are bit-identical.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import metrics as M
from .costs import CostFunction, as_params
from .errors import ContractViolation

OUTCOME_CONVERGED = "converged"
OUTCOME_BUDGET = "budget_exhausted"
OUTCOME_DIVERGED = "diverged"
BLOWUP_LOSS = 1e12  # a loss at or above it ends the run as diverged

REGIME_STABLE = "stable"
REGIME_UNSTABLE = "unstable"
REGIME_DIVERGED = "diverged"

# classify_regime's thresholds on the defined rp samples
STABLE_RP_CUT = -0.5
NEAR_ZERO_BAND = 0.25
STABLE_FRAC = 0.9
UNSTABLE_FRAC = 0.5


@dataclass(frozen=True)
class OptimizerConfig:
    eta: float
    max_iter: int = 1000
    metric_cadence: Optional[int] = None  # None: 1 below dimension 1000, else 5
    stop_accuracy: Optional[float] = None
    seed: int = 0
    batch_size: Optional[int] = None  # None means full-batch GD

    def __post_init__(self):
        if not 0 < self.eta < math.inf:
            raise ContractViolation(f"eta must be positive and finite, got {self.eta}")
        if self.max_iter < 1:
            raise ContractViolation("max_iter must be >= 1")
        if self.metric_cadence is not None and self.metric_cadence < 1:
            raise ContractViolation("metric_cadence must be >= 1")
        if self.stop_accuracy is not None and not (0.0 < self.stop_accuracy <= 1.0):
            raise ContractViolation("stop_accuracy must lie in (0, 1]")
        if self.seed < 0:
            raise ContractViolation(f"seed must be >= 0, got {self.seed}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ContractViolation(f"batch_size must be >= 1, got {self.batch_size}")

    def cadence_for(self, cost: CostFunction) -> int:
        if self.metric_cadence is not None:
            return self.metric_cadence
        return 1 if cost.dimension < 1000 else 5


@dataclass(frozen=True)
class MetricFlags:
    """Which diagnostics to record at each cadence step."""

    rp: bool = True
    dir: bool = True
    sharpness: bool = False
    identity: bool = False
    tau_sweep: bool = False
    expected_rp: bool = False  # SGD epoch metric
    grid: Optional[M.QuadratureGrid] = None
    expected_rp_batches: int = 64


class SampleTable(Sequence):
    """A finished run's samples, read-only and stored by column.

    One float64 column per metric field plus a mask of the defined (non-None)
    entries: 80 bytes a sample, where a list of MetricSample objects holds
    about 280. Indexing builds the MetricSample.
    """

    _FIELDS = tuple(f.name for f in fields(M.MetricSample) if f.name != "iteration")
    _cells = operator.attrgetter(*_FIELDS)

    def __init__(self, samples):
        cells = list(itertools.chain.from_iterable(map(self._cells, samples)))
        shape = (len(samples), len(self._FIELDS))
        self._iterations = np.array([s.iteration for s in samples], dtype=np.int64)
        self._defined = np.array([c is not None for c in cells], dtype=bool).reshape(shape)
        self._values = np.array([math.nan if c is None else c for c in cells],
                                dtype=np.float64).reshape(shape)

    def __len__(self):
        return self._iterations.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        cells = zip(self._values[i].tolist(), self._defined[i].tolist())
        return M.MetricSample(int(self._iterations[i]), *(v if d else None for v, d in cells))


@dataclass
class Trajectory:
    samples: Sequence[M.MetricSample]  # kept as a SampleTable
    final_theta: np.ndarray
    outcome: str
    iterates: Optional[list] = None  # populated when the caller asks to record them

    def __post_init__(self):
        self.samples = SampleTable(self.samples)

    @property
    def final_loss(self) -> float:
        return self.samples[-1].loss if self.samples else math.nan


def _stop_rule(cost, theta, loss, gnorm, config, check_accuracy=True):
    """The outcome a stop rule gives at this iterate, or None to keep stepping."""
    if not (math.isfinite(loss) and math.isfinite(gnorm)) or loss >= BLOWUP_LOSS:
        return OUTCOME_DIVERGED
    # near-stationary: ||g|| and a step's eta*||g||^2 both under a floor that grows with |loss|
    if max(gnorm, config.eta * gnorm * gnorm) <= M.grad_floor(loss) or (
            check_accuracy and config.stop_accuracy is not None and hasattr(cost, "accuracy")
            and cost.accuracy(theta) >= config.stop_accuracy):
        return OUTCOME_CONVERGED
    return None


def _step(g, gnorm, eta):
    """The step eta*g. When eta*||g|| is not finite the product may overflow, and it is
    taken without numpy's overflow warning: the caller reads the step as undefined
    or the run as diverged."""
    if math.isfinite(eta * gnorm):
        return eta * g
    with np.errstate(over="ignore"):
        return eta * g


def _sample_at(cost, theta, t, loss, g, gnorm, step, eta, flags, look_ahead=False):
    """The sample at iterate t, whether rp/dir are defined, and what it owes (or None).

    It owes (step, step.step, rhs): rp, dir and the identity's left side wait on the
    loss and gradient at theta - step, step = eta*g; rhs is the identity's right
    side, or None. With ``look_ahead`` it evaluates theta - step itself and owes
    nothing.
    """
    sample = M.MetricSample(t, loss, gnorm)
    defined = math.isfinite(loss) and gnorm >= M.grad_floor(loss) and math.isfinite(gnorm)
    needs_step = flags.rp or flags.dir or flags.identity
    if defined and (needs_step or flags.tau_sweep):
        step_sq = float(step @ step)
        # a step that overflows or underflows leaves every metric along it undefined
        defined = 0.0 < step_sq < math.inf
    rhs = None
    if defined and (flags.identity or flags.tau_sweep):  # one tau sweep serves both
        taus = (flags.grid or M.QuadratureGrid.default()).taus
        dirs = M._dir_along(cost, theta, g, g, eta, taus)
        if flags.identity:
            rhs = M._identity_rhs(eta, taus, dirs)
        if flags.tau_sweep:
            sample.tau_dir_mean, sample.tau_dir_std = float(np.mean(dirs)), float(np.std(dirs))
    if flags.sharpness and math.isfinite(loss):
        # the value only: the estimate's Ritz vector is not kept per sample
        sample.sharpness = float(M.sharpness(cost, theta))
    owes = (step, step_sq, rhs) if defined and needs_step else None
    if owes is not None and look_ahead:
        _finish_step(sample, owes, g, *cost.value_and_gradient(theta - step), eta, flags)
        owes = None
    return sample, defined, owes


def _finish_step(sample, owes, g, next_loss, next_g, eta, flags):
    """rp, dir and the identity residual along step = eta*g, from the loss and gradient
    at theta - step; ``_sample_at`` owes only a step with 0 < step.step < inf."""
    step, step_sq, rhs = owes
    if flags.rp or rhs is not None:
        rp = (next_loss - sample.loss) / (eta * sample.grad_norm**2)  # the identity's left side
        if flags.rp:
            sample.rp = rp
        if rhs is not None:
            sample.identity_residual = abs(rp - rhs)
    if flags.dir:
        sample.dir = float(step @ (g - next_g)) / step_sq


def gd_run(cost: CostFunction, theta0, config: OptimizerConfig,
           flags: MetricFlags | None = None, record_iterates: bool = False) -> Trajectory:
    """Exact deterministic gradient descent with per-cadence instrumentation.

    One ``value_and_gradient`` per iterate: theta - eta*g is exactly the next
    iterate, so rp, dir and the identity residual (whose left side is rp) are
    filled in one step late, and only the terminal sample evaluates one
    iterate ahead. The step eta*g and its squared norm are each computed once
    and serve both the metrics and the update.
    """
    flags = flags or MetricFlags()
    theta = as_params(theta0, cost.dimension)
    cadence = config.cadence_for(cost)
    samples: list = []
    iterates = [] if record_iterates else None
    owed = None  # (sample, what it owes, g) waiting on the next iterate

    for t in range(config.max_iter + 1):
        loss, g = cost.value_and_gradient(theta)
        if owed:
            _finish_step(*owed, loss, g, config.eta, flags)
            owed = None
        gnorm = math.sqrt(g @ g)  # the bits of np.linalg.norm, without its overhead
        step = _step(g, gnorm, config.eta)
        if record_iterates:
            iterates.append(theta.copy())

        at_cadence = t % cadence == 0
        outcome = _stop_rule(cost, theta, loss, gnorm, config, at_cadence) or OUTCOME_BUDGET
        terminal = outcome != OUTCOME_BUDGET or t == config.max_iter

        if at_cadence or terminal:
            try:
                sample, _, owes = _sample_at(cost, theta, t, loss, g, gnorm, step, config.eta,
                                             flags, look_ahead=terminal)
                owed = (sample, owes, g) if owes is not None else None
            except Exception as exc:
                raise RuntimeError(f"metric evaluation failed at iteration {t}") from exc
            samples.append(sample)
        if terminal:
            break
        theta = theta - step

    return Trajectory(samples, theta, outcome, iterates)


def sgd_run(cost: CostFunction, theta0, config: OptimizerConfig,
            flags: MetricFlags | None = None, record_checkpoints: bool = False) -> Trajectory:
    """Epoch-shuffled minibatch SGD.

    max_iter counts epochs. The end of every epoch is sampled like a GD iterate,
    honouring every flag, except that with ``expected_rp`` on the rp field
    holds the Monte Carlo expected-rp estimate.
    batch_size = n skips shuffling so the run reduces bit-exactly to gd_run.
    """
    flags = flags or MetricFlags(dir=False)
    if config.batch_size is None:
        raise ContractViolation("sgd_run needs batch_size set")
    n = cost.num_examples
    if n is None:
        raise ContractViolation("sgd_run needs a dataset-backed cost")
    batch = min(config.batch_size, n)
    theta = as_params(theta0, cost.dimension)
    rng = np.random.default_rng(np.uint64(config.seed))
    # expected-rp seeds have a stream of their own, so recording them leaves the shuffles
    erp_seeds = np.random.default_rng([config.seed, 1]) if flags.expected_rp else None
    samples: list = []
    checkpoints = [] if record_checkpoints else None
    outcome = OUTCOME_BUDGET
    step = 0

    def epoch_sample(t, stop):
        """Sample the iterate after t steps; with ``stop``, return the stop rule's outcome
        there, read before the look-ahead evaluates another theta."""
        loss, g = cost.value_and_gradient(theta)
        gnorm = math.sqrt(g @ g)
        stopped = _stop_rule(cost, theta, loss, gnorm, config) if stop else None
        try:
            sample, defined, _ = _sample_at(cost, theta, t, loss, g, gnorm,
                                            _step(g, gnorm, config.eta), config.eta,
                                            flags, look_ahead=True)
            if defined and flags.expected_rp:
                (sample.rp, _), _ = M._paired_draw(cost, theta, config.eta, batch,
                                                   flags.expected_rp_batches,
                                                   erp_seeds.integers(0, 2**63), lhs_only=True)
        except Exception as exc:
            raise RuntimeError(f"metric evaluation failed at iteration {t}") from exc
        samples.append(sample)
        if record_checkpoints:
            checkpoints.append(theta.copy())
        return stopped

    epoch_sample(0, stop=False)

    for epoch in range(config.max_iter):
        if batch >= n:
            order = np.arange(n)
        else:
            order = rng.permutation(n)
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            g = cost.stochastic_gradient(theta, idx)
            theta = theta - config.eta * g
            step += 1
            if not np.all(np.isfinite(theta)):
                outcome = OUTCOME_DIVERGED
                break
        stopped = epoch_sample(step, stop=outcome != OUTCOME_DIVERGED)
        if outcome == OUTCOME_DIVERGED:
            break
        outcome = stopped or OUTCOME_BUDGET
        if outcome != OUTCOME_BUDGET:
            break

    return Trajectory(samples, theta, outcome, checkpoints)


@dataclass(frozen=True)
class RegimeCall:
    regime: str
    reason: str
    rp_defined: int
    frac_below_stable_cut: float
    frac_near_zero: float


def classify_regime(traj: Trajectory) -> RegimeCall:
    """Label a finished trajectory stable / unstable / diverged.

    Stable: >= STABLE_FRAC of defined rp samples below STABLE_RP_CUT with
    non-increasing recorded loss. Unstable: net loss decrease with >=
    UNSTABLE_FRAC of rp samples inside (-NEAR_ZERO_BAND, +NEAR_ZERO_BAND).
    Anything else falls back to a majority vote on whether each rp sample
    sits closer to -1 (stable signature) or to 0 (unstable signature).
    """
    if traj.outcome == OUTCOME_DIVERGED:
        return RegimeCall(REGIME_DIVERGED, "trajectory diverged", 0, 0.0, 0.0)
    rps = np.array([s.rp for s in traj.samples if s.rp is not None])
    if rps.size < 10:
        raise ContractViolation(
            f"need >= 10 defined rp samples to classify, got {rps.size}"
        )
    losses = np.array([s.loss for s in traj.samples])
    frac_stable = float(np.mean(rps < STABLE_RP_CUT))
    frac_zero = float(np.mean(np.abs(rps) < NEAR_ZERO_BAND))
    loss_monotone = bool(np.all(np.diff(losses) <= 0.0))
    net_decrease = bool(losses[-1] < losses[0])

    if frac_stable >= STABLE_FRAC and loss_monotone:
        reason = (f"{frac_stable:.0%} of rp samples below {STABLE_RP_CUT} "
                  "with non-increasing loss")
        return RegimeCall(REGIME_STABLE, reason, rps.size, frac_stable, frac_zero)
    if net_decrease and frac_zero >= UNSTABLE_FRAC:
        reason = (f"net loss decrease with {frac_zero:.0%} of rp samples inside "
                  f"(-{NEAR_ZERO_BAND}, {NEAR_ZERO_BAND})")
        return RegimeCall(REGIME_UNSTABLE, reason, rps.size, frac_stable, frac_zero)
    votes_stable = int(np.sum(np.abs(rps + 1.0) < np.abs(rps)))
    regime = REGIME_STABLE if votes_stable * 2 >= rps.size else REGIME_UNSTABLE
    reason = (f"majority sign-proximity fallback: {votes_stable}/{rps.size} "
              "samples closer to -1 than to 0")
    return RegimeCall(regime, reason, rps.size, frac_stable, frac_zero)


@dataclass(frozen=True)
class EscapeResult:
    fraction: float
    max_iterate_norm: float
    final_distances: np.ndarray


def escape_experiment(cost: CostFunction, p, perturb_scale: float, eta: float,
                      iters: int, trials: int, seed: int) -> EscapeResult:
    """GD from random perturbations of a stationary point p.

    A trial escapes when its final distance to p exceeds 10x the perturbation
    scale; trajectories that blow up to non-finite iterates count as escaped
    at infinite distance. Also reports the largest iterate norm seen, so
    escape can be distinguished from divergence.
    """
    if not (perturb_scale > 0 and eta > 0 and iters >= 1 and trials >= 1):
        raise ContractViolation("need perturb_scale > 0, eta > 0, iters >= 1 and trials >= 1")
    p = as_params(p, cost.dimension)
    rng = np.random.default_rng(np.uint64(seed))
    distances = np.empty(trials)
    max_norm = 0.0
    for trial in range(trials):
        d = rng.standard_normal(cost.dimension)
        d *= perturb_scale / np.linalg.norm(d)
        theta = p + d
        for _ in range(iters):
            g = cost.gradient(theta)
            nxt = theta - eta * g
            if not np.all(np.isfinite(nxt)):
                theta = None
                break
            theta = nxt
            max_norm = max(max_norm, float(np.linalg.norm(theta)))
        distances[trial] = math.inf if theta is None else float(np.linalg.norm(theta - p))
    fraction = float(np.mean(distances > 10.0 * perturb_scale))
    return EscapeResult(fraction, max_norm, distances)

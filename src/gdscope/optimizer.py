"""GD and SGD on one stepping loop, with stop rules and regime classification.

The loop evaluates each iterate once (``value_and_gradient``), applies the
stop rule, samples at cadence and steps. GD steps to theta - eta*g; SGD's step
is an epoch of minibatches, and the iterate after every epoch, the start
included, is sampled and stop-checked. A trajectory halts with outcome
``diverged`` when the loss reaches ``BLOWUP_LOSS`` (1e12), any evaluation goes
non-finite or an SGD iterate does, ``converged`` when the stop rule fires
(training accuracy for classifiers, otherwise the gradient falling below the
near-stationary floor), and ``budget_exhausted`` otherwise. Given identical
inputs, trajectories are bit-identical. What a sample records, and where a
step is measurable, is up to the sampler in ``metrics``.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import metrics as M
from .costs import CostFunction, as_count, as_params, as_rng
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
MIN_RP_SAMPLES = 10  # fewer defined rp samples leave a run unclassified


@dataclass(frozen=True)
class OptimizerConfig:
    eta: float
    max_iter: int = 1000
    metric_cadence: Optional[int] = None  # gd_run only; None: 1 below dimension 1000, else 5
    stop_accuracy: Optional[float] = None
    seed: int = 0
    batch_size: Optional[int] = None  # None means full-batch GD

    def __post_init__(self):
        M._check_eta(self.eta)
        as_count(self.max_iter, "max_iter")
        if self.metric_cadence is not None:
            as_count(self.metric_cadence, "metric_cadence")
        if self.stop_accuracy is not None and not (0.0 < self.stop_accuracy <= 1.0):
            raise ContractViolation("stop_accuracy must lie in (0, 1]")
        as_rng(self.seed)  # refuses a seed that is not an integer in [0, 2**64)
        if self.batch_size is not None:
            as_count(self.batch_size, "batch_size")

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
    tau_sweep: bool = False  # the 100-node sweep: tau_dir_mean/std and the identity residual
    expected_rp: bool = False  # SGD epoch metric
    expected_rp_batches: int = 64

    def __post_init__(self):
        as_count(self.expected_rp_batches, "expected_rp_batches")
        if self.expected_rp and not self.rp:
            raise ContractViolation("expected_rp is recorded in the rp column, so it needs rp")


class SampleTable(Sequence):
    """A finished run's samples, read-only and stored by column.

    One float64 column per metric field plus a mask of the defined (non-None)
    entries: 80 bytes a sample, where a list of MetricSample objects holds
    about 280. Indexing builds the MetricSample.
    """

    _cells = operator.attrgetter(*M.METRIC_FIELDS)

    def __init__(self, samples):
        cells = list(itertools.chain.from_iterable(map(self._cells, samples)))
        shape = (len(samples), len(M.METRIC_FIELDS))
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


def _run(cost, theta0, config, flags, cadence, record, epoch=None, erp=None) -> Trajectory:
    """The stepping loop. Without ``epoch`` the step is GD's theta - eta*g, exactly the
    next iterate, so a sample's rp, dir and tau sweep are finished one step late, after
    the stop rule there (a sweep overwrites the logits it reads), and only the terminal
    sample looks ahead. ``epoch(theta)`` returns (the iterate after an epoch, the
    minibatch steps taken, whether one went non-finite): every sample then looks ahead,
    and a non-finite iterate ends the run diverged."""
    theta = as_params(theta0, cost.dimension)
    samples: list = []
    iterates = [] if record else None
    owed = None  # what the last sample owes, waiting on the next iterate
    t, diverged = 0, False  # t: the steps taken, which label a sample
    for k in range(config.max_iter + 1):
        loss, g = cost.value_and_gradient(theta)
        gnorm = M._norm(g)
        step = M._step(g, gnorm, config.eta)
        if record:
            iterates.append(theta.copy())
        at_cadence = k % cadence == 0
        outcome = OUTCOME_DIVERGED if diverged else (
            _stop_rule(cost, theta, loss, gnorm, config, at_cadence) or OUTCOME_BUDGET)
        terminal = outcome != OUTCOME_BUDGET or k == config.max_iter
        try:
            if owed:
                M._finish_step(cost, *owed, loss, g, config.eta, flags)
                owed = None
            if at_cadence or terminal:
                sample, owed = M._sample_at(cost, theta, t, loss, g, gnorm, step, config.eta,
                                            flags, terminal or epoch is not None, erp)
                samples.append(sample)
        except Exception as exc:
            failed_at = owed[1].iteration if owed else t
            raise RuntimeError(f"metric evaluation failed at iteration {failed_at}") from exc
        if terminal:
            break
        if epoch is None:
            theta, t = theta - step, t + 1
        else:
            theta, steps, diverged = epoch(theta)
            t += steps

    return Trajectory(samples, theta, outcome, iterates)


def gd_run(cost: CostFunction, theta0, config: OptimizerConfig,
           flags: MetricFlags | None = None, record_iterates: bool = False) -> Trajectory:
    """Exact deterministic gradient descent, sampled every ``config.cadence_for(cost)``
    iterations; the step eta*g serves both the metrics and the update."""
    return _run(cost, theta0, config, flags or MetricFlags(), config.cadence_for(cost),
                record_iterates)


def sgd_run(cost: CostFunction, theta0, config: OptimizerConfig,
            flags: MetricFlags | None = None, record_checkpoints: bool = False) -> Trajectory:
    """Epoch-shuffled minibatch SGD; max_iter counts epochs and ``metric_cadence`` is not
    read. Every epoch's iterate is sampled like a GD iterate, except that with
    ``expected_rp`` on the rp field holds the Monte Carlo expected-rp estimate.
    batch_size = n skips shuffling so the run reduces bit-exactly to gd_run."""
    if config.batch_size is None:
        raise ContractViolation("sgd_run needs batch_size set")
    n = cost.num_examples
    if n is None:
        raise ContractViolation("sgd_run needs a dataset-backed cost")
    flags = flags or MetricFlags(dir=False)
    batch = min(config.batch_size, n)
    rng = as_rng(config.seed)
    # expected-rp seeds have a stream of their own, so recording them leaves the shuffles
    erp = (batch, np.random.default_rng([config.seed, 1])) if flags.expected_rp else None

    def epoch(theta):
        order = np.arange(n) if batch >= n else rng.permutation(n)
        # an overflow, in a minibatch gradient or a step, leaves a non-finite iterate, which
        # ends the run diverged below; so it is taken unwarned
        with np.errstate(over="ignore"):
            for steps, start in enumerate(range(0, n, batch), 1):
                idx = order[start : start + batch]
                theta = theta - config.eta * cost.stochastic_gradient(theta, idx)
                if not np.all(np.isfinite(theta)):
                    return theta, steps, True
        return theta, steps, False

    return _run(cost, theta0, config, flags, 1, record_checkpoints, epoch, erp)


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
    if rps.size < MIN_RP_SAMPLES:
        raise ContractViolation(
            f"need >= {MIN_RP_SAMPLES} defined rp samples to classify, got {rps.size}"
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
    M._check_eta(eta)
    if not (perturb_scale > 0 and iters >= 1 and trials >= 1):
        raise ContractViolation("need perturb_scale > 0, iters >= 1 and trials >= 1")
    p = as_params(p, cost.dimension)
    rng = as_rng(seed)
    distances = np.empty(trials)
    max_norm = 0.0
    for trial in range(trials):
        d = rng.standard_normal(cost.dimension)
        d *= perturb_scale / M._norm(d)
        theta = p + d
        # a step that overflows ends the trial at infinite distance, so it is taken unwarned
        with np.errstate(over="ignore"):
            for _ in range(iters):
                g = cost.gradient(theta)
                nxt = theta - eta * g
                if not np.all(np.isfinite(nxt)):
                    theta = None
                    break
                theta = nxt
                max_norm = max(max_norm, M._norm(theta))
        distances[trial] = math.inf if theta is None else M._norm(theta - p)
    fraction = float(np.mean(distances > 10.0 * perturb_scale))
    return EscapeResult(fraction, max_norm, distances)

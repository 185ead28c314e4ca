import math

import numpy as np
import pytest

from gdscope import optimizer
from gdscope.metrics import TAU_NODES
from gdscope import (
    ContractViolation,
    CostFunction,
    MLPCost,
    MetricFlags,
    MetricSample,
    OptimizerConfig,
    Quadratic,
    QuadratureGrid,
    SynthSpec,
    TanhQuadratic,
    Trajectory,
    classify_regime,
    directional_smoothness,
    escape_experiment,
    gd_run,
    grad_floor,
    quadratic_divergence_oracle,
    sgd_run,
    sharpness,
    synth_dataset,
    verify_identity,
)

from conftest import CountingCost

QUIET = MetricFlags(rp=False, dir=False)


def test_gd_stability_boundary_outcomes():
    q = Quadratic(np.diag([40.0, 2.0]))
    diverged = gd_run(q, [1.0, 1.0], OptimizerConfig(eta=2 / 39, max_iter=2000))
    assert diverged.outcome == "diverged"
    assert diverged.samples[-1].loss >= 1e12 or not np.isfinite(diverged.samples[-1].loss)

    boundary = gd_run(q, [1.0, 1.0], OptimizerConfig(eta=2 / 40, max_iter=2000))
    assert boundary.outcome == "budget_exhausted"
    assert np.isfinite(boundary.final_loss)

    converged = gd_run(q, [1.0, 1.0], OptimizerConfig(eta=2 / 41, max_iter=2000),
                       QUIET, record_iterates=True)
    assert converged.outcome == "converged"
    norms = [np.linalg.norm(t) for t in converged.iterates]
    assert all(b <= a + 1e-15 for a, b in zip(norms, norms[1:]))  # ||theta|| shrinks


def test_gd_gradient_floor_does_not_stop_a_diverging_run(monkeypatch):
    # at loss ~8.5e25 the floor 1e-12*(1+loss) overtakes ||g||, but a step still moves far
    monkeypatch.setattr(optimizer, "BLOWUP_LOSS", 1e30)
    q = Quadratic(np.diag([40.0, 2.0]))
    traj = gd_run(q, [1.0, 1.0], OptimizerConfig(eta=2 / 39, max_iter=3000), QUIET)
    assert traj.outcome == "diverged"
    assert traj.final_loss >= 1e30


@pytest.mark.parametrize("eta", [1e308, 1e-320], ids=["overflow", "underflow"])
def test_a_step_that_overflows_or_underflows_leaves_rp_dir_and_identity_undefined(eta):
    # eta*g overflows to inf, or eta*g . eta*g underflows to 0: undefined, not NaN or an abort
    q = Quadratic(np.diag([1.0, 0.0]))
    traj = gd_run(q, [3.0, 1.0], OptimizerConfig(eta=eta, max_iter=5),
                  MetricFlags(tau_sweep=True))
    first = traj.samples[0]
    assert first.loss == 4.5 and first.grad_norm == 3.0
    assert (first.rp, first.dir, first.identity_residual, first.tau_dir_mean) == (None,) * 4


def test_gd_flattened_quadratic_never_diverges():
    # from (1, 1) tanh(21) rounds to 1.0, the gradient is exactly 0 and no step is taken
    cost = TanhQuadratic(np.diag([40.0, 2.0]))
    traj = gd_run(cost, [0.1, 0.1], OptimizerConfig(eta=2 / 39, max_iter=10_000),
                  QUIET, record_iterates=True)
    assert traj.outcome == "budget_exhausted"
    assert len(traj.iterates) == 10_001 and traj.samples[-1].iteration == 10_000
    assert max(np.linalg.norm(t) for t in traj.iterates) < 10.0


def test_gd_step_exactness():
    cost = TanhQuadratic(np.diag([7.0, 3.0]))
    eta = 0.11
    traj = gd_run(cost, [0.2, -0.4], OptimizerConfig(eta=eta, max_iter=50),
                  QUIET, record_iterates=True)
    for prev, nxt in zip(traj.iterates, traj.iterates[1:]):
        assert np.array_equal(nxt, prev - eta * cost.gradient(prev))


def test_gd_bit_identical_reruns():
    ds = synth_dataset(SynthSpec(n=32, d=4, classes=2, cluster_spread=0.5, seed=2))
    net = MLPCost(ds, hidden_sizes=(6,), activation="tanh")
    theta0 = net.init_params(1)
    cfg = OptimizerConfig(eta=0.3, max_iter=60, metric_cadence=5)
    a = gd_run(net, theta0, cfg)
    b = gd_run(net, theta0, cfg)
    assert np.array_equal(a.final_theta, b.final_theta)
    assert [s.loss for s in a.samples] == [s.loss for s in b.samples]
    assert [s.rp for s in a.samples] == [s.rp for s in b.samples]


def test_metric_cadence_default_rule():
    small = Quadratic(np.eye(2))
    assert OptimizerConfig(eta=0.1).cadence_for(small) == 1
    ds = synth_dataset(SynthSpec(n=16, d=40, classes=2, seed=0))
    big = MLPCost(ds, hidden_sizes=(40,), activation="tanh")
    assert big.dimension >= 1000
    assert OptimizerConfig(eta=0.1).cadence_for(big) == 5
    assert OptimizerConfig(eta=0.1, metric_cadence=7).cadence_for(big) == 7


def test_config_validation():
    with pytest.raises(ContractViolation):
        OptimizerConfig(eta=0.0)
    with pytest.raises(ContractViolation):
        OptimizerConfig(eta=0.1, metric_cadence=0)
    with pytest.raises(ContractViolation):
        OptimizerConfig(eta=0.1, stop_accuracy=1.5)
    # sgd_run took no step at batch_size < 0, and failed outside the contract at
    # batch_size = 0 (range) and seed < 0 or 2**64 (the uint64 seed); seed 1.5 ran as
    # seed 1. A seed follows costs.as_rng's rule, as every other seeded entry point does
    for bad in ({"batch_size": 0}, {"batch_size": -5}, {"seed": -1}, {"seed": 2**64},
                {"seed": 1.5}, {"seed": None}):
        with pytest.raises(ContractViolation):
            OptimizerConfig(eta=0.1, **bad)
    for seed in (0, np.uint64(2**64 - 1)):  # the edges are valid
        OptimizerConfig(eta=0.1, batch_size=1, seed=seed)


def test_metric_flags_refuse_fewer_than_one_expected_rp_batch():
    # only the spec parser refused 0; sgd_run then failed at epoch 0 inside the draw
    for bad in (0, -3):
        with pytest.raises(ContractViolation):
            MetricFlags(expected_rp=True, expected_rp_batches=bad)
    assert MetricFlags(expected_rp=True, expected_rp_batches=1).expected_rp_batches == 1


def test_metric_flags_refuse_expected_rp_without_rp():
    # expected rp is recorded in the rp column, which rp = False used to fill regardless
    with pytest.raises(ContractViolation, match="needs rp"):
        MetricFlags(rp=False, dir=False, expected_rp=True)


def test_gd_run_refuses_expected_rp():
    # an SGD epoch metric: gd_run ignored the flag and recorded the deterministic rp
    net = _small_net()
    with pytest.raises(ContractViolation, match="sgd_run"):
        gd_run(net, net.init_params(1), OptimizerConfig(eta=0.5, max_iter=3),
               MetricFlags(expected_rp=True))


@pytest.mark.parametrize("make", [
    pytest.param(lambda: OptimizerConfig(eta=0.1, max_iter=2.5), id="max_iter"),
    pytest.param(lambda: OptimizerConfig(eta=0.1, max_iter=20.0), id="max_iter-float"),
    pytest.param(lambda: OptimizerConfig(eta=0.1, metric_cadence=2.5), id="metric_cadence"),
    pytest.param(lambda: OptimizerConfig(eta=0.1, batch_size=8.5), id="batch_size"),
    pytest.param(lambda: OptimizerConfig(eta=0.1, batch_size="8"), id="batch_size-str"),
    pytest.param(lambda: MetricFlags(expected_rp=True, expected_rp_batches=2.5),
                 id="expected_rp_batches"),
])
def test_integer_fields_refuse_non_integers(make):
    # metric_cadence 2.5 sampled at iterations 0, 5, 10, ...; max_iter and batch_size
    # 2.5 or 8.5 failed in range(), and expected_rp_batches 2.5 inside the first draw
    with pytest.raises(ContractViolation, match="must be an integer"):
        make()


def test_integer_fields_take_numpy_integers():
    config = OptimizerConfig(eta=0.1, max_iter=np.int64(3), metric_cadence=np.int32(2),
                             batch_size=np.uint8(4))
    assert config.cadence_for(Quadratic(np.eye(2))) == 2
    assert MetricFlags(expected_rp_batches=np.int64(5)).expected_rp_batches == 5


# --- SGD -------------------------------------------------------------------


def test_sgd_full_batch_reduces_to_gd_bit_exactly():
    ds = synth_dataset(SynthSpec(n=24, d=3, classes=2, cluster_spread=0.4, seed=4))
    net = MLPCost(ds, hidden_sizes=(5,), activation="tanh")
    theta0 = net.init_params(2)
    gd = gd_run(net, theta0, OptimizerConfig(eta=0.2, max_iter=40), QUIET)
    sgd = sgd_run(net, theta0, OptimizerConfig(eta=0.2, max_iter=40, batch_size=24),
                  MetricFlags(rp=False, dir=False))
    assert np.array_equal(gd.final_theta, sgd.final_theta)


def test_sgd_seeded_determinism():
    ds = synth_dataset(SynthSpec(n=48, d=4, classes=3, cluster_spread=0.6, seed=1))
    net = MLPCost(ds, hidden_sizes=(6,), activation="relu")
    theta0 = net.init_params(0)
    cfg = OptimizerConfig(eta=0.05, max_iter=6, batch_size=8, seed=77)
    a = sgd_run(net, theta0, cfg)
    b = sgd_run(net, theta0, cfg)
    assert np.array_equal(a.final_theta, b.final_theta)
    assert [s.loss for s in a.samples] == [s.loss for s in b.samples]


def test_sgd_expected_rp_leaves_the_trajectory_as_it_is():
    # the estimate's Monte Carlo seeds have a stream of their own: the shuffles,
    # and so every iterate, are those of the same run without it
    ds = synth_dataset(SynthSpec(n=48, d=4, classes=3, cluster_spread=0.6, seed=1))
    net = MLPCost(ds, hidden_sizes=(6,), activation="relu")
    cfg = OptimizerConfig(eta=0.05, max_iter=4, batch_size=8, seed=77)
    off, on = (sgd_run(net, net.init_params(0), cfg, MetricFlags(
        dir=False, expected_rp=erp, expected_rp_batches=8)) for erp in (False, True))
    assert np.array_equal(off.final_theta, on.final_theta)
    assert [s.loss for s in off.samples] == [s.loss for s in on.samples]
    assert [s.rp for s in off.samples] != [s.rp for s in on.samples]  # it did estimate


def test_sgd_requires_batch_and_dataset():
    ds = synth_dataset(SynthSpec(n=16, d=2, classes=2, seed=0))
    net = MLPCost(ds, hidden_sizes=(4,), activation="tanh")
    with pytest.raises(ContractViolation):
        sgd_run(net, net.init_params(0), OptimizerConfig(eta=0.1, max_iter=3))
    quad = Quadratic(np.eye(2))
    with pytest.raises(ContractViolation):
        sgd_run(quad, [1.0, 1.0], OptimizerConfig(eta=0.1, max_iter=3, batch_size=4))


def test_sgd_records_epoch_checkpoints():
    ds = synth_dataset(SynthSpec(n=32, d=3, classes=2, seed=9))
    net = MLPCost(ds, hidden_sizes=(4,), activation="tanh")
    traj = sgd_run(net, net.init_params(1),
                   OptimizerConfig(eta=0.1, max_iter=5, batch_size=8, seed=0),
                   MetricFlags(rp=True, dir=False), record_checkpoints=True)
    assert len(traj.iterates) == len(traj.samples) == 6  # init + one per epoch
    iters = [s.iteration for s in traj.samples]
    assert iters == sorted(iters)
    assert iters[-1] == 5 * 4  # 32/8 steps per epoch


def test_trajectory_keeps_its_samples_by_column():
    samples = [
        MetricSample(iteration=0, loss=2.5, grad_norm=1.0, rp=-0.25, dir=3.0),
        MetricSample(iteration=7, loss=float("inf"), grad_norm=0.5, sharpness=4.0,
                     identity_residual=1e-300, tau_dir_mean=-0.0, tau_dir_std=0.0),
        MetricSample(iteration=10_000, loss=1.0, grad_norm=2.0),
    ]
    traj = Trajectory(samples, np.zeros(2), "converged")
    assert list(traj.samples) == samples and len(traj.samples) == 3
    assert traj.samples[-1] == samples[-1] and traj.samples[1:] == samples[1:]
    assert all(type(v) in (int, float, type(None))
               for s in traj.samples for v in (s.iteration, s.loss, s.rp, s.tau_dir_mean))
    assert str(traj.samples[1].tau_dir_mean) == "-0.0"  # the bits survive, sign of zero included
    assert traj.final_loss == 1.0
    assert len(Trajectory([], np.zeros(2), "converged").samples) == 0


# --- regime classification ---------------------------------------------------


def _fake_traj(rps, losses, outcome="budget_exhausted"):
    samples = [
        MetricSample(iteration=i, loss=l, grad_norm=1.0, rp=r)
        for i, (r, l) in enumerate(zip(rps, losses))
    ]
    return Trajectory(samples, np.zeros(2), outcome)


def test_classify_stable_signature():
    rps = [-0.95] * 20
    losses = list(np.linspace(2.0, 0.5, 20))
    call = classify_regime(_fake_traj(rps, losses))
    assert call.regime == "stable"
    assert call.frac_below_stable_cut == 1.0


def test_classify_unstable_signature():
    rps = [-0.9] * 4 + [0.05, -0.1, 0.2, -0.05, 0.1, -0.2, 0.15, -0.12, 0.08, -0.03]
    losses = list(np.linspace(2.0, 1.8, 4)) + [1.9, 1.7, 1.85, 1.6, 1.75, 1.5,
                                               1.65, 1.4, 1.55, 1.3]
    call = classify_regime(_fake_traj(rps, losses))
    assert call.regime == "unstable"
    assert call.frac_near_zero >= 0.5


def test_classify_diverged_and_too_few():
    call = classify_regime(_fake_traj([0.1] * 3, [1.0] * 3, outcome="diverged"))
    assert call.regime == "diverged"
    with pytest.raises(ContractViolation):
        classify_regime(_fake_traj([-0.9] * 5, [1.0] * 5))


def test_classify_majority_fallback():
    # neither clean signature: loss increases overall, rp mixed
    rps = [-0.9] * 7 + [-0.05] * 5
    losses = list(np.linspace(1.0, 1.4, 12))
    call = classify_regime(_fake_traj(rps, losses))
    assert call.regime == "stable"
    assert "majority" in call.reason


# --- escape ------------------------------------------------------------------


def test_escape_quadratic_sharp_origin():
    q = Quadratic(np.diag([40.0, 2.0]))
    res = escape_experiment(q, [0.0, 0.0], perturb_scale=1e-4, eta=2 / 39,
                            iters=400, trials=100, seed=1)
    assert res.fraction == 1.0


def test_escape_control_stays_put():
    q = Quadratic(np.diag([40.0, 2.0]))
    res = escape_experiment(q, [0.0, 0.0], perturb_scale=1e-4, eta=2 / 41,
                            iters=400, trials=100, seed=1)
    assert res.fraction == 0.0


@pytest.mark.parametrize("bad", [{"eta": -1.0}, {"eta": 0.0}, {"iters": 0}],
                         ids=["eta=-1", "eta=0", "iters=0"])
def test_escape_rejects_nonpositive_eta_and_iters(bad):
    # eta < 0 is gradient ascent, which "escapes" every trial
    args = dict(perturb_scale=1e-4, eta=2 / 39, iters=10, trials=3, seed=1) | bad
    with pytest.raises(ContractViolation):
        escape_experiment(Quadratic(np.diag([40.0, 2.0])), [0.0, 0.0], **args)


def test_escape_flattened_quadratic_bounded():
    cost = TanhQuadratic(np.diag([40.0, 2.0]))
    res = escape_experiment(cost, [0.0, 0.0], perturb_scale=1e-4, eta=2 / 39,
                            iters=600, trials=30, seed=2)
    assert res.fraction == 1.0
    assert res.max_iterate_norm < 10.0
    assert np.all(np.isfinite(res.final_distances))  # escaped without blowing up


def test_escape_that_overflows_counts_as_escaped_at_infinite_distance():
    # eta*40 = 8: each trial grows 7x a step until its iterate overflows, which ends the
    # trial without a RuntimeWarning (an error in this suite)
    res = escape_experiment(Quadratic(np.diag([40.0, 2.0])), [0.0, 0.0], perturb_scale=1e-4,
                            eta=0.2, iters=600, trials=5, seed=3)
    assert res.fraction == 1.0
    assert res.max_iterate_norm == math.inf
    assert res.final_distances.tolist() == [math.inf] * 5


def test_sgd_records_sharpness_identity_and_tau_sweep():
    ds = synth_dataset(SynthSpec(n=32, d=4, classes=2, cluster_spread=0.5, seed=2))
    net = MLPCost(ds, hidden_sizes=(6,), activation="relu")
    config = OptimizerConfig(eta=0.3, max_iter=3, batch_size=8, seed=4)
    traj = sgd_run(net, net.init_params(1), config,
                   MetricFlags(sharpness=True, tau_sweep=True),
                   record_checkpoints=True)
    assert len(traj.samples) == 4
    for s, theta in zip(traj.samples, traj.iterates):
        assert s.sharpness == sharpness(net, theta)
        assert s.identity_residual == verify_identity(net, theta, 0.3).residual
        # the rule's weighted mean and spread of dir over its nodes
        g, grid = net.gradient(theta), QuadratureGrid(TAU_NODES)
        dirs = np.array([directional_smoothness(net, theta, (0.3 * tau) * g)
                         for tau in grid.taus])
        mean = float(dirs @ grid.weights)
        assert (s.tau_dir_mean, s.tau_dir_std) == (mean, math.sqrt((dirs - mean)**2 @ grid.weights))


def test_sgd_long_run_loss_decreases():
    # canonical desk-scale setting: relu net, batch 32, eta = 2/100
    ds = synth_dataset(SynthSpec(n=512, d=8, classes=4, cluster_spread=0.9, seed=11))
    net = MLPCost(ds, hidden_sizes=(32, 32), activation="relu")
    traj = sgd_run(net, net.init_params(7),
                   OptimizerConfig(eta=2 / 100, max_iter=12, batch_size=32, seed=5),
                   MetricFlags(rp=False, dir=False))
    assert traj.samples[-1].loss < traj.samples[1].loss


class _Sampled(Quadratic):
    """A quadratic with four examples, each minibatch gradient the full one plus ``noise``."""

    num_examples = 4

    def __init__(self, P, noise=0.0):
        super().__init__(P)
        self.noise = noise

    def stochastic_gradient(self, theta, batch):
        return self.gradient(theta) + self.noise


def test_gd_run_takes_a_gradient_norm_that_overflows_unwarned():
    # ||g||^2 = 1e320 overflows; the run ends diverged at t = 0 with an empty rp
    traj = gd_run(Quadratic(np.diag([1.0, 0.0])), [1e160, 1.0], OptimizerConfig(eta=0.1))
    assert traj.outcome == "diverged"
    assert [(s.iteration, s.grad_norm, s.rp) for s in traj.samples] == [(0, math.inf, None)]


@pytest.mark.parametrize("flags", [QUIET, MetricFlags(), MetricFlags(tau_sweep=True)],
                         ids=["quiet", "rp-dir", "tau-sweep"])
def test_gd_run_takes_a_relu_iterate_whose_logits_overflow_unwarned(flags):
    # at eta = 1e300 the next iterate's logits overflow in their matmul, and then give
    # inf - inf; the run ends diverged at t = 1, without a RuntimeWarning (an error here)
    ds = synth_dataset(SynthSpec(n=32, d=4, classes=2, cluster_spread=0.5, seed=2))
    net = MLPCost(ds, hidden_sizes=(6,), activation="relu")
    traj = gd_run(net, net.init_params(1), OptimizerConfig(eta=1e300, max_iter=10), flags)
    assert traj.outcome == "diverged"
    assert [(s.iteration, s.rp, s.dir) for s in traj.samples] == [(0, None, None), (1, None, None)]
    assert not math.isfinite(traj.samples[-1].loss)


def test_sgd_epoch_sample_takes_a_gradient_norm_that_overflows_unwarned():
    # the stop rule checks epoch 0 as gd_run checks iteration 0: diverged at the start
    cost = _Sampled(np.diag([1.0, 0.0]))
    traj = sgd_run(cost, [1e160, 1.0], OptimizerConfig(eta=0.1, max_iter=3, batch_size=2))
    assert traj.outcome == "diverged"
    assert [(s.iteration, s.grad_norm, s.rp) for s in traj.samples] == [(0, math.inf, None)]


class _FlatWithHugeBatches(CostFunction):
    """Loss 1 and gradient (1, 0) at every theta, finite or not; every minibatch
    gradient is (1e308, 0), so an SGD step from -1e308 overflows to -inf."""

    kind, dimension, num_examples = "flat", 2, 6

    def value(self, theta):
        return 1.0

    def gradient(self, theta):
        return np.array([1.0, 0.0])

    def stochastic_gradient(self, theta, batch):
        return np.array([1e308, 0.0])


def test_a_non_finite_sgd_iterate_ends_the_run_diverged():
    # the stop rule sees a finite loss and gradient at theta = (-inf, 0): only the epoch's
    # own check ends the run, after the second of the epoch's three steps; the overflow to
    # -inf is taken without a RuntimeWarning, which this suite turns into an error
    traj = sgd_run(_FlatWithHugeBatches(), [0.0, 0.0],
                   OptimizerConfig(eta=1.0, max_iter=5, batch_size=2))
    assert traj.outcome == "diverged"
    assert [s.iteration for s in traj.samples] == [0, 2]
    assert traj.final_theta[0] == -math.inf


def test_sgd_trace_leaves_expected_rp_empty_where_a_sample_step_overflows():
    # the full step (0.3, 0) is measurable, the sample steps (1e199, 0) are not
    cost = _Sampled(np.diag([1.0, 0.0]), noise=np.array([1e200, 0.0]))
    flags = MetricFlags(dir=False, expected_rp=True, expected_rp_batches=4)
    traj = sgd_run(cost, [3.0, 1.0], OptimizerConfig(eta=0.1, max_iter=1, batch_size=2), flags)
    first = traj.samples[0]
    assert (first.grad_norm, first.rp) == (3.0, None)


class _SkewHvp(Quadratic):
    """An hvp that is not symmetric: Lanczos cannot certify a Ritz pair of it."""

    def _hvp(self, theta, v):
        return np.array([[10.0, 5.0], [0.0, 9.99]]) @ v


class _SweepFails(Quadratic):
    """An iterate's own evaluation (value_and_gradient) succeeds; any other gradient call
    fails once TAU_NODES - 1 have been made, the tau sweep of one sample."""

    calls = 0

    def value_and_gradient(self, theta):
        return self.value(theta), super().gradient(theta)

    def gradient(self, theta):
        self.calls += 1
        if self.calls > TAU_NODES - 1:
            raise FloatingPointError("gradient failed")
        return super().gradient(theta)


@pytest.mark.parametrize("make_cost, flags, where", [
    # an uncertifiable sharpness estimate aborts the run; the abort must say where
    pytest.param(lambda: _SkewHvp(np.diag([10.0, 9.99])),
                 MetricFlags(rp=False, dir=False, sharpness=True), 0, id="sharpness"),
    # the sweep of the sample at iteration 3 runs at iteration 4, deferred to the next
    # iterate; its failure still names the sample's iteration
    pytest.param(lambda: _SweepFails(np.diag([10.0, 9.99])),
                 MetricFlags(rp=False, dir=False, tau_sweep=True), 3, id="deferred-sweep"),
])
def test_metric_evaluation_errors_name_the_iteration(make_cost, flags, where):
    config = OptimizerConfig(eta=0.01, max_iter=8, metric_cadence=3)
    with pytest.raises(RuntimeError, match=f"failed at iteration {where}$"):
        gd_run(make_cost(), [1.0, 1.0], config, flags)


def test_identity_and_tau_sweep_flags_recorded():
    q = Quadratic(np.diag([12.0, 3.0]))
    flags = MetricFlags(tau_sweep=True)
    traj = gd_run(q, [1.0, 0.5], OptimizerConfig(eta=0.05, max_iter=10), flags)
    s = traj.samples[1]
    assert s.identity_residual is not None and s.identity_residual <= 1e-12
    # dir is constant in tau on quadratics
    assert s.tau_dir_std == pytest.approx(0.0, abs=1e-9)
    assert s.tau_dir_mean == pytest.approx(s.dir, rel=1e-9)


def test_gd_outcome_agrees_with_divergence_oracle():
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(20):
        n = int(rng.integers(2, 6))
        lams = rng.uniform(0.5, 30.0, n)
        Qm, _ = np.linalg.qr(rng.standard_normal((n, n)))
        P = Qm @ np.diag(lams) @ Qm.T
        P = 0.5 * (P + P.T)
        cost = Quadratic(P)
        lmax = float(lams.max())
        for eta in np.linspace(0.5 / lmax, 3.5 / lmax, 10):
            if abs(eta * lmax - 2.0) <= 0.01:
                continue  # boundary cases excluded by contract
            traj = gd_run(cost, rng.standard_normal(n),
                          OptimizerConfig(eta=float(eta), max_iter=3000), QUIET)
            oracle = quadratic_divergence_oracle(P, float(eta))
            assert oracle == (traj.outcome == "diverged")
            checked += 1
    assert checked >= 150


# --- rp/dir from consecutive iterates ------------------------------------------


def _step_oracle(cost, theta, eta):
    """(loss, grad_norm, rp, dir) at theta from separate value and gradient calls."""
    loss = cost.value(theta)
    g = cost.gradient(theta)
    gnorm = float(np.linalg.norm(g))
    if not (np.isfinite(loss) and np.isfinite(gnorm) and gnorm >= grad_floor(loss)):
        return loss, gnorm, None, None
    v = eta * g
    after = theta - v
    rp = (cost.value(after) - loss) / (eta * gnorm**2)
    dir_ = float(v @ (g - cost.gradient(after))) / float(v @ v)
    return loss, gnorm, rp, dir_


def _small_net():
    ds = synth_dataset(SynthSpec(n=32, d=4, classes=2, cluster_spread=0.5, seed=2))
    return MLPCost(ds, hidden_sizes=(6,), activation="tanh")


def _runs():
    net = _small_net()
    quad = Quadratic(np.diag([40.0, 2.0]))
    return {
        # stop rule fires with the gradient above the floor: rp/dir defined at the end
        "converged_accuracy": (net, net.init_params(1),
                               dict(eta=2.0, max_iter=400, stop_accuracy=1.0), "converged"),
        # gradient floor: the terminal sample has rp/dir undefined
        "converged_floor": (quad, np.array([1.0, 1.0]), dict(eta=2 / 41, max_iter=2000),
                            "converged"),
        "diverged": (quad, np.array([1.0, 1.0]), dict(eta=2 / 39, max_iter=2000), "diverged"),
        "budget": (net, net.init_params(1), dict(eta=1.0, max_iter=45), "budget_exhausted"),
    }


@pytest.mark.parametrize("cadence", [1, 7])
@pytest.mark.parametrize("run", ["converged_accuracy", "converged_floor", "diverged", "budget"])
def test_gd_rp_dir_match_separate_evaluations(run, cadence):
    cost, theta0, kwargs, outcome = _runs()[run]
    eta = kwargs["eta"]
    traj = gd_run(cost, theta0, OptimizerConfig(metric_cadence=cadence, **kwargs),
                  MetricFlags(rp=True, dir=True), record_iterates=True)
    assert traj.outcome == outcome
    last = len(traj.iterates) - 1
    assert [s.iteration for s in traj.samples] == \
        [t for t in range(last + 1) if t % cadence == 0 or t == last]
    for s in traj.samples:
        want = _step_oracle(cost, traj.iterates[s.iteration], eta)
        assert (s.loss, s.grad_norm, s.rp, s.dir) == want, f"iteration {s.iteration}"
    if run != "converged_floor":
        assert traj.samples[-1].rp is not None and traj.samples[-1].dir is not None


@pytest.mark.parametrize("flags,cadence,extra", [
    (MetricFlags(rp=True, dir=True), 1, 1),
    (MetricFlags(rp=True, dir=False), 7, 1),
    (QUIET, 1, 0),
])
def test_gd_evaluates_once_per_iterate(flags, cadence, extra):
    ds = synth_dataset(SynthSpec(n=32, d=4, classes=2, cluster_spread=0.5, seed=2))
    net = MLPCost(ds, hidden_sizes=(6,), activation="tanh")
    cost = CountingCost(net)
    steps = 30
    traj = gd_run(cost, net.init_params(1),
                  OptimizerConfig(eta=0.5, max_iter=steps, metric_cadence=cadence), flags)
    assert traj.outcome == "budget_exhausted"
    # one per iterate 0..steps, plus the terminal sample's look-ahead when rp/dir are on
    assert cost.calls == {"value": 0, "gradient": 0, "value_and_gradient": steps + 1 + extra,
                          "stochastic_gradient": 0}


@pytest.mark.parametrize("rp_dir", [True, False])
@pytest.mark.parametrize("algorithm", ["gd", "sgd"])
def test_identity_residual_from_the_next_iterate_matches_verify_identity(algorithm, rp_dir):
    ds = synth_dataset(SynthSpec(n=32, d=4, classes=2, cluster_spread=0.5, seed=2))
    net = MLPCost(ds, hidden_sizes=(6,), activation="tanh")
    cost = CountingCost(net)
    flags = MetricFlags(rp=rp_dir, dir=rp_dir, tau_sweep=True)
    config = OptimizerConfig(eta=0.5, max_iter=12, metric_cadence=4, batch_size=8)
    if algorithm == "gd":
        traj = gd_run(cost, net.init_params(1), config, flags, record_iterates=True)
        thetas = [traj.iterates[s.iteration] for s in traj.samples]
        # 13 iterates and the terminal sample's look-ahead; 4 samples
        calls = {"value_and_gradient": 13 + 1, "gradient": 4 * (TAU_NODES - 1),
                 "stochastic_gradient": 0}
    else:
        traj = sgd_run(cost, net.init_params(1), config, flags, record_checkpoints=True)
        thetas = traj.iterates
        # 13 checkpoints, each with its look-ahead; 12 epochs of 4 minibatches
        calls = {"value_and_gradient": 13 * 2, "gradient": 13 * (TAU_NODES - 1),
                 "stochastic_gradient": 12 * 4}
    # the same counts with rp and dir off: the sweep alone owes the look-ahead, whose
    # gradient is its last node, so each sample adds TAU_NODES - 1 gradients
    assert cost.calls == {"value": 0, **calls}
    assert len(traj.samples) == (4 if algorithm == "gd" else 13)
    for s, theta in zip(traj.samples, thetas, strict=True):
        assert s.identity_residual == verify_identity(net, theta, 0.5).residual
        assert (s.rp is not None) == rp_dir and (s.dir is not None) == rp_dir


@pytest.mark.parametrize("sweep", [False, True], ids=["quiet", "tau-sweep"])
@pytest.mark.parametrize("algorithm", ["gd", "sgd"])
@pytest.mark.parametrize("stop_accuracy, outcome", [(1.0, "budget_exhausted"),
                                                    (0.8, "converged")])
def test_the_accuracy_stop_rule_runs_no_forward_pass_of_its_own(
        monkeypatch, algorithm, stop_accuracy, outcome, sweep):
    # the stop rule reads the logits the iterate's own evaluation just computed; GD
    # finishes a sample's tau sweep, whose gradients overwrite them, after that rule
    ds = synth_dataset(SynthSpec(n=64, d=4, classes=3, cluster_spread=0.6, seed=2))
    net = MLPCost(ds, hidden_sizes=(8,), activation="tanh")
    forwards, accuracies = [], []
    forward, accuracy = net._forward, net.accuracy
    monkeypatch.setattr(net, "_forward", lambda *a, **k: forwards.append(1) or forward(*a, **k))
    monkeypatch.setattr(net, "accuracy", lambda th: accuracies.append(1) or accuracy(th))
    config = OptimizerConfig(eta=0.5, max_iter=40, metric_cadence=1,
                             stop_accuracy=stop_accuracy,
                             batch_size=64 if algorithm == "sgd" else None)
    flags = MetricFlags(rp=False, dir=False, tau_sweep=sweep)
    if algorithm == "gd":
        traj = gd_run(net, net.init_params(0), config, flags)
        evaluations = traj.samples[-1].iteration + 1  # one value_and_gradient per iterate
    else:
        traj = sgd_run(net, net.init_params(0), config, flags)
        # per epoch: one minibatch gradient and the epoch sample's evaluation
        evaluations = 1 + 2 * (len(traj.samples) - 1)
    if sweep:
        # TAU_NODES - 1 gradients a sample, and the look-ahead of GD's terminal sample, or
        # of each SGD sample, whose gradient is the sweep's last node
        evaluations += ((TAU_NODES - 1) * len(traj.samples)
                        + (1 if algorithm == "gd" else len(traj.samples)))
    assert traj.outcome == outcome
    assert len(accuracies) == len(traj.samples)
    assert len(forwards) == evaluations
    fresh = MLPCost(ds, hidden_sizes=(8,), activation="tanh")
    assert (accuracy(traj.final_theta) >= stop_accuracy) == (outcome == "converged")
    assert accuracy(traj.final_theta) == fresh.accuracy(traj.final_theta)

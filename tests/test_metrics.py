import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gdscope import metrics
from gdscope import (
    ContractViolation,
    CostFunction,
    MLPCost,
    MetricFlags,
    NearStationaryError,
    OptimizerConfig,
    PowerIterationError,
    Quadratic,
    QuadratureGrid,
    SharpnessEstimate,
    SingleNeuron,
    SynthSpec,
    TanhQuadratic,
    WeightDecayWrapped,
    ZeroDirectionError,
    directional_smoothness,
    escape_experiment,
    expected_rp,
    expected_rp_rhs,
    gd_run,
    relative_progress,
    segment_max_sharpness,
    sgd_run,
    sharpness,
    synth_dataset,
    verify_identity,
)
from gdscope.experiments import build_cost, load_preset

from conftest import CountingCost
from test_mlp import NETS


class Cubic(CostFunction):
    """Scalar f = theta^3: the simplest cost whose dir genuinely varies in tau."""

    kind = "cubic"
    dimension = 1

    def value(self, theta):
        return float(self.check(theta)[0] ** 3)

    def gradient(self, theta):
        return np.array([3.0 * self.check(theta)[0] ** 2])


@pytest.fixture(scope="module")
def mid_training_mlp():
    """A width-32 tanh classifier stopped mid-descent, away from stationarity."""
    ds = synth_dataset(SynthSpec(n=48, d=5, classes=3, cluster_spread=0.6, seed=3))
    net = MLPCost(ds, hidden_sizes=(32,), activation="tanh")
    traj = gd_run(net, net.init_params(4), OptimizerConfig(eta=0.5, max_iter=200),
                  MetricFlags(rp=False, dir=False))
    return net, traj.final_theta


# --- relative progress ---------------------------------------------------------


def test_rp_one_dim_quadratic_closed_form():
    lam = 40.0
    cost = Quadratic([[lam]])
    # rp = -1 + eta*lam/2 exactly; zero at eta = 2/lam
    assert relative_progress(cost, [1.0], 2 / lam) == pytest.approx(0.0, abs=1e-14)
    assert relative_progress(cost, [-3.7], 2 / lam) == pytest.approx(0.0, abs=1e-14)
    assert relative_progress(cost, [1.0], 2 / 80) == pytest.approx(-0.5, abs=1e-14)


def test_rp_tanh_quadratic_independent_scalar_oracle():
    cost = TanhQuadratic(np.diag([40.0, 2.0]))
    theta = (0.3, 0.1)
    eta = 2 / 39
    # oracle: Def-style re-evaluation in plain python scalar arithmetic
    u = 20.0 * theta[0] ** 2 + theta[1] ** 2
    sech2 = 1.0 - math.tanh(u) ** 2
    g = (sech2 * 40.0 * theta[0], sech2 * 2.0 * theta[1])
    stepped = (theta[0] - eta * g[0], theta[1] - eta * g[1])
    f0 = math.tanh(u)
    f1 = math.tanh(20.0 * stepped[0] ** 2 + stepped[1] ** 2)
    want = (f1 - f0) / (eta * (g[0] ** 2 + g[1] ** 2))
    assert relative_progress(cost, np.array(theta), eta) == pytest.approx(want, abs=1e-12)


def test_rp_undefined_near_stationary():
    cost = Quadratic(np.diag([40.0, 2.0]))
    with pytest.raises(NearStationaryError):
        relative_progress(cost, [0.0, 0.0], 0.01)
    with pytest.raises(ContractViolation):
        relative_progress(cost, [1.0, 1.0], 0.0)


# --- the one rule for a measurable step --------------------------------------------

EDGE = Quadratic(np.diag([1.0, 0.0]))  # at (3, 1): loss 4.5, gradient (3, 0)
ENTRY_POINTS = {
    "relative_progress": lambda theta, eta: relative_progress(EDGE, theta, eta),
    "verify_identity": lambda theta, eta: verify_identity(EDGE, theta, eta),
    "segment_max_sharpness": lambda theta, eta: segment_max_sharpness(EDGE, theta, eta),
    "expected_rp": lambda theta, eta: expected_rp(
        EDGE, theta, eta, 1, 4, seed=0, grad_sampler=lambda rng: rng.standard_normal(2)),
    "expected_rp_rhs": lambda theta, eta: expected_rp_rhs(
        EDGE, theta, eta, 1, 4, seed=0, grad_sampler=lambda rng: rng.standard_normal(2)),
    # the step v stands in for eta * gradient
    "directional_smoothness": lambda theta, v: directional_smoothness(EDGE, theta, v),
    "escape_experiment": lambda theta, eta: escape_experiment(EDGE, theta, 1e-4, eta, 5, 3, 0),
}
METRICS = sorted(set(ENTRY_POINTS) - {"escape_experiment"})
ETA_TAKING = sorted(set(ENTRY_POINTS) - {"directional_smoothness"})


@pytest.mark.parametrize("entry, theta, arg, error", [
    # eta breaks the runs' rule 0 < eta < inf
    *[pytest.param(name, (3.0, 1.0), eta, ContractViolation, id=f"{name}-eta={eta}")
      for name in ETA_TAKING for eta in (-1.0, 0.0, math.inf, math.nan)],
    # the iterate: stationary, or its loss and gradient norm overflow
    *[pytest.param(name, theta, (1.0, 0.0) if name == "directional_smoothness" else 0.1,
                   NearStationaryError, id=f"{name}-theta={theta}")
      for name in METRICS for theta in ((0.0, 1.0), (1e200, 1.0))],
    # the step eta*g (or v) overflows, its squared norm overflows, or it underflows to 0
    *[pytest.param(name, (3.0, 1.0), arg, ZeroDirectionError, id=f"{name}-step={arg}")
      for name in METRICS
      for arg in (((1e308, 1e308), (1e200, 0.0), (1e-170, 0.0))
                  if name == "directional_smoothness" else (1e308, 1e200, 1e-320))],
])
def test_an_unmeasurable_step_raises_and_never_warns(entry, theta, arg, error):
    # no NaN, no 0.0, no value at all, and no RuntimeWarning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(error):
            ENTRY_POINTS[entry](np.array(theta), arg)


# --- directional smoothness ----------------------------------------------------


def test_dir_is_rayleigh_quotient_on_quadratics():
    cost = Quadratic(np.diag([40.0, 2.0]))
    theta = np.array([0.3, -0.8])
    assert directional_smoothness(cost, theta, [1.0, 0.0]) == pytest.approx(40.0, abs=1e-12)
    assert directional_smoothness(cost, theta, [0.0, 1.0]) == pytest.approx(2.0, abs=1e-12)
    v = np.array([1.0, 1.0]) / math.sqrt(2)
    assert directional_smoothness(cost, theta, v) == pytest.approx(21.0, abs=1e-12)


def test_dir_rejects_zero_direction():
    cost = Quadratic(np.diag([40.0, 2.0]))
    with pytest.raises(ZeroDirectionError):
        directional_smoothness(cost, [1.0, 1.0], [0.0, 0.0])
    with pytest.raises(ZeroDirectionError):
        directional_smoothness(cost, [1.0, 1.0], [1e-200, 0.0])


# --- weighted dir integral -----------------------------------------------------


def _integral(cost, theta, eta, grid=None):
    """The weighted dir integral, read back from the identity's right side."""
    return (verify_identity(cost, theta, eta, grid).rhs + 1.0) * 2.0 / eta


def _sweep(cost, theta, eta, taus):
    """dir_{eta*tau*grad}(theta) at each tau, one standalone call a node."""
    g = cost.gradient(theta)
    return np.array([directional_smoothness(cost, theta, (eta * tau) * g) for tau in taus])


def _fine_trapezoid(cost, theta, eta, nodes):
    """The weighted dir integral by the trapezoid on ``nodes`` equal steps of [0, 1]: an
    oracle that shares no quadrature code with the package. Its tau = 0 end is exact,
    as 2*tau*dir(tau) is 0 there."""
    taus = np.arange(1, nodes + 1) / nodes
    f = 2.0 * taus * _sweep(cost, theta, eta, taus)
    return (f.sum() - f[-1] / 2.0) / nodes


def test_integral_exact_for_constant_dir():
    cost = Quadratic(np.diag([40.0, 2.0]))
    got = _integral(cost, [1.0, 0.0], 2 / 40)
    assert got == pytest.approx(40.0, abs=1e-10)


def test_integral_cubic_against_brute_force_riemann():
    # dir is linear in tau on the cubic, so the default rule integrates it exactly
    cost = Cubic()
    theta, eta = np.array([1.0]), 0.1
    got = _integral(cost, theta, eta)

    # brute-force midpoint Riemann sum in independent scalar arithmetic
    n = 100_000
    grad0 = 3.0 * theta[0] ** 2
    total = 0.0
    for k in range(n):
        tau = (k + 0.5) / n
        v = eta * tau * grad0
        dir_v = (grad0 - 3.0 * (theta[0] - v) ** 2) / v
        total += 2.0 * tau * dir_v / n
    assert got == pytest.approx(total, abs=1e-9)


def test_integral_single_node_grid_degenerate_rule():
    cost = Quadratic(np.diag([40.0, 2.0]))
    theta, eta = np.array([1.0, 0.0]), 0.01
    dir_at_one = directional_smoothness(cost, theta, eta * cost.gradient(theta))
    got = _integral(cost, theta, eta, QuadratureGrid(1))
    assert got == pytest.approx(2 * 0.5 * dir_at_one, abs=1e-12)
    # the node tau = 1 with weight 1, exactly: the one-node expected-rp RHS keeps its bits
    assert QuadratureGrid(1).taus.tolist() == QuadratureGrid(1).weights.tolist() == [1.0]


@pytest.mark.parametrize("points", [1, 2, 3, 5, 16, 40, 128])
def test_the_rule_is_exact_on_monomials_up_to_degree_2n_minus_2(points):
    # against the closed moments integral_0^1 2*tau * tau^k dtau = 2/(k+2); the worst
    # error over n = 1..128 is 6.7e-16
    grid = QuadratureGrid(points)
    taus, weights = grid.taus, grid.weights
    assert taus.shape == weights.shape == (points,)
    assert taus[0] > 0.0 and np.all(np.diff(taus) > 0.0) and taus[-1] == 1.0
    assert np.all(weights > 0.0) and abs(weights.sum() - 1.0) <= 1e-15
    for k in range(2 * points - 1):
        assert abs(weights @ taus**k - 2.0 / (k + 2)) <= 2e-15, k


def test_grid_validation():
    # a grid is built from its node count alone: node arrays are refused, as are counts
    # that are not integers >= 1 or that exceed the largest rule
    for points in (np.array([0.5, 1.0]), [1.0], 0, -2, 2.5, metrics.MAX_TAU_NODES + 1):
        with pytest.raises(ContractViolation):
            QuadratureGrid(points)
    assert QuadratureGrid(np.int64(3)) == QuadratureGrid(3)


def test_import_leaves_numpy_polynomial_unloaded():
    # the rule needs only numpy.linalg; numpy.polynomial would add to every import's RSS
    src = Path(metrics.__file__).resolve().parent.parent
    code = "import sys, gdscope; print('numpy.polynomial' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


# --- the rp/dir identity -------------------------------------------------------


def test_identity_exact_on_quadratics():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        lams = rng.uniform(0.5, 30.0, n)
        Qm, _ = np.linalg.qr(rng.standard_normal((n, n)))
        P = Qm @ np.diag(lams) @ Qm.T
        cost = Quadratic(0.5 * (P + P.T))
        theta = rng.standard_normal(n)
        eta = float(rng.uniform(0.001, 0.2))
        assert verify_identity(cost, theta, eta).residual <= 1e-12


def test_identity_tanh_quadratic_to_the_rounding_of_rp():
    cost = TanhQuadratic(np.diag([40.0, 2.0]))
    theta, eta = np.array([0.5, 0.5]), 2 / 39
    # the rule's integral agrees with an independent fine trapezoid (5.9e-11 at 1000 steps)
    assert abs(_integral(cost, theta, eta) - _fine_trapezoid(cost, theta, eta, 2000)) <= 1e-10
    # what is left, 2.0e-10, is rp's rounding: the 100,000-step trapezoid leaves it too
    assert verify_identity(cost, theta, eta).residual <= 1e-9


def test_identity_mlp_mid_training(mid_training_mlp):
    net, theta = mid_training_mlp
    eta = 2 / 60
    assert verify_identity(net, theta, eta).residual <= 1e-11  # 3.7e-13
    assert abs(_integral(net, theta, eta) - _fine_trapezoid(net, theta, eta, 400)) <= 1e-10


def test_identity_residual_shrinks_under_refinement():
    cost = SingleNeuron("tanh")
    theta, eta = np.array([2.0, 0.4]), 0.02
    res8 = verify_identity(cost, theta, eta, QuadratureGrid(8)).residual
    res16 = verify_identity(cost, theta, eta, QuadratureGrid(16)).residual
    assert res16 <= res8 + 1e-12
    assert res16 <= 1e-13  # 6.7e-16



def test_identity_sides_equal_the_standalone_metrics(mid_training_mlp):
    # verify_identity evaluates theta once; both sides must still be bit-identical
    # to relative_progress and a directional_smoothness sweep computed on their own
    net, theta = mid_training_mlp
    eta = 2 / 60
    for grid in (None, QuadratureGrid(37)):
        check = verify_identity(net, theta, eta, grid)
        assert check.lhs == relative_progress(net, theta, eta)
        rule = grid or QuadratureGrid(metrics.TAU_NODES)
        assert check.rhs == -1.0 + 0.5 * eta * float(
            _sweep(net, theta, eta, rule.taus) @ rule.weights)
        assert check.residual == abs(check.lhs - check.rhs)


def test_verify_identity_evaluates_each_point_once(mid_training_mlp):
    # theta and theta - eta*g by value_and_gradient each: the second gives rp's loss and
    # the gradient of the node tau = 1, so the default grid costs TAU_NODES - 1 gradients
    net, theta = mid_training_mlp
    cost = CountingCost(net)
    check = verify_identity(cost, theta, 2 / 60)
    assert cost.calls == {"value": 0, "gradient": metrics.TAU_NODES - 1,
                          "value_and_gradient": 2, "stochastic_gradient": 0}
    assert check == verify_identity(net, theta, 2 / 60)

# --- single-tau approximation --------------------------------------------------


def test_rp_approx_residual_zero_on_quadratics():
    cost = Quadratic(np.diag([13.0, 4.0, 1.0]))
    rng = np.random.default_rng(12)
    for _ in range(10):
        theta = rng.standard_normal(3)
        assert verify_identity(cost, theta, 0.05, QuadratureGrid(1)).residual <= 1e-12


def test_rp_approx_residual_cubic_oracle():
    cost = Cubic()
    theta, eta = np.array([1.0]), 0.1
    got = verify_identity(cost, theta, eta, QuadratureGrid(1)).residual
    g = cost.gradient(theta)
    dir_full = directional_smoothness(cost, theta, eta * g)
    integral = _fine_trapezoid(cost, theta, eta, 10_000)
    want = abs(0.5 * eta * (dir_full - integral))
    assert got == pytest.approx(want, abs=1e-9)


def test_rp_approx_residual_bounded_by_tau_spread(mid_training_mlp):
    net, theta = mid_training_mlp
    eta = 0.5
    res = verify_identity(net, theta, eta, QuadratureGrid(1)).residual
    std = float(np.std(_sweep(net, theta, eta, np.arange(1, 101) / 100)))
    assert res <= std * eta / 2 + 1e-3


# --- sharpness -----------------------------------------------------------------


def test_sharpness_psd_quadratic():
    cost = Quadratic(np.diag([40.0, 2.0]))
    assert sharpness(cost, [1.0, 1.0], tol=1e-12) == pytest.approx(40.0, abs=1e-8)


def test_sharpness_indefinite_needs_the_shift():
    # power iteration would lock onto |-5|; the top Ritz value must be 3
    cost = Quadratic(np.diag([-5.0, 3.0]))
    assert sharpness(cost, [1.0, 1.0], tol=1e-12) == pytest.approx(3.0, abs=1e-8)


def test_sharpness_nonconvergence_carries_rayleigh(monkeypatch):
    # Lanczos is exact on a dim-3 matrix within 3 steps; a budget of 2 is not
    cost = Quadratic(np.diag([10.0, 9.99, 1.0]))
    counter = CountingHvp(cost)
    monkeypatch.setattr(cost, "hvp", counter)
    with pytest.raises(PowerIterationError) as kept:
        sharpness(cost, [1.0, 1.0, 1.0], tol=1e-15, max_iter=2)
    assert math.isfinite(kept.value.last_rayleigh)
    # the failure reports its work: every hvp, the one behind last_rayleigh included
    assert kept.value.steps == 2
    assert kept.value.hvps == counter.calls >= 3


def test_sharpness_rejects_bad_tol_and_budget():
    cost = Quadratic(np.diag([10.0, 1.0]))
    for kwargs in ({"tol": 0.0}, {"max_iter": 0}, {"max_iter": -3}):
        with pytest.raises(ContractViolation):
            sharpness(cost, [1.0, 1.0], **kwargs)


@pytest.mark.parametrize("tol", [math.inf, math.nan])
def test_sharpness_refuses_a_tolerance_that_is_not_finite(tol):
    # tol = inf "certified" 22.9 after 2 hvps, with residual 19.6 (the top eigenvalue is
    # 99.0); tol = nan ran every step, then raised PowerIterationError
    A = np.random.default_rng(8).standard_normal((30, 30))
    cost = Quadratic(A @ A.T)
    with pytest.raises(ContractViolation):
        sharpness(cost, np.zeros(30), tol=tol)
    with pytest.raises(ContractViolation):
        segment_max_sharpness(cost, np.ones(30), 0.001, tol=tol)


class SkewHvp(CostFunction):
    """A stub whose hvp is linear but not symmetric: no Hessian has this action."""

    kind = "skew_hvp"
    dimension = 3
    A = np.array([[1.0, 10.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.5]])

    def value(self, theta):
        return 0.0

    def gradient(self, theta):
        return np.zeros(3)

    def _hvp(self, theta, v):
        return self.A @ v


@pytest.mark.parametrize("seed", range(5))
def test_sharpness_refuses_a_non_symmetric_hvp(seed, monkeypatch):
    # the top eigenvalue is 2; stopping on the recurrence residual alone returns
    # 2.55 to 9.98 here, depending on the seed
    cost = SkewHvp()
    counter = CountingHvp(cost)
    monkeypatch.setattr(cost, "hvp", counter)
    with pytest.raises(PowerIterationError) as kept:
        sharpness(cost, np.zeros(3), seed=seed)
    assert math.isfinite(kept.value.last_rayleigh)
    assert 1 <= kept.value.steps <= 3
    assert kept.value.hvps == counter.calls > kept.value.steps


@pytest.mark.parametrize("tol", [1e-4, 1e-6])
def test_sharpness_resolves_a_close_top_pair(tol):
    # the top pair of the acceptance run's iterate 15: stopping on the change in
    # successive estimates read 2.5e-2 low at tol 1e-4 on this spectrum
    top = 1.0341
    for seed in range(10):
        rng = np.random.default_rng(seed)
        lams = np.concatenate(([top, 1.006], rng.uniform(-0.5, 0.9, 198)))
        Qm, _ = np.linalg.qr(rng.standard_normal((200, 200)))
        P = (Qm * lams) @ Qm.T
        got = sharpness(Quadratic(0.5 * (P + P.T)), np.zeros(200), tol=tol, seed=seed)
        assert abs(got - top) / top <= tol, (seed, got)


def test_segment_max_sharpness_constant_hessian():
    cost = Quadratic(np.diag([40.0, 2.0]))
    for samples in (2, 5, 11):
        got = segment_max_sharpness(cost, [1.0, 1.0], 0.01, samples=samples, tol=1e-10)
        assert got == pytest.approx(40.0, abs=1e-7)
    with pytest.raises(ContractViolation):
        segment_max_sharpness(cost, [1.0, 1.0], 0.01, samples=1)


def test_segment_max_dominates_endpoints():
    cost = TanhQuadratic(np.diag([40.0, 2.0]))
    theta = np.array([0.05, 0.3])
    eta = 0.3  # long step so the segment crosses a sharper region
    seg = segment_max_sharpness(cost, theta, eta, samples=21, tol=1e-8)
    end_a = sharpness(cost, theta, tol=1e-8)
    g = cost.gradient(theta)
    end_b = sharpness(cost, theta - eta * g, tol=1e-8)
    assert seg >= max(end_a, end_b) - 1e-6


class CountingHvp:
    """An hvp that counts its calls; install it with monkeypatch.setattr(cost, "hvp", ...)."""

    def __init__(self, cost):
        self.calls = 0
        self._hvp = cost.hvp

    def __call__(self, theta, v):
        self.calls += 1
        return self._hvp(theta, v)


@pytest.mark.parametrize("warm", [False, True])
def test_sharpness_estimate_reports_its_work(mid_training_mlp, monkeypatch, warm):
    rng = np.random.default_rng(8)
    lams = np.concatenate(([5.0, 4.9], rng.uniform(-3.0, 4.0, 38)))
    Qm, _ = np.linalg.qr(rng.standard_normal((40, 40)))
    P = (Qm * lams) @ Qm.T
    net, theta = mid_training_mlp
    for cost, point, tol in ((Quadratic(0.5 * (P + P.T)), np.zeros(40), 1e-8),
                             (net, theta, 1e-5)):
        start = rng.standard_normal(cost.dimension) if warm else None
        counter = CountingHvp(cost)
        monkeypatch.setattr(cost, "hvp", counter)
        est = sharpness(cost, point, tol=tol, seed=3, start=start)
        assert isinstance(est, SharpnessEstimate) and isinstance(est, float)
        assert est.hvps == counter.calls
        assert 1 <= est.steps < est.hvps  # at least one certifying hvp on top of the steps
        assert est.residual <= tol * (1.0 + abs(est))
        assert est.vector.shape == (cost.dimension,)
        assert np.linalg.norm(est.vector) == pytest.approx(1.0, abs=1e-12)
        assert float(est) == pytest.approx(float(est.vector @ cost.hvp(point, est.vector)),
                                           abs=tol * (1.0 + abs(est)))


def test_sharpness_rejects_a_bad_start():
    cost = Quadratic(np.diag([10.0, 1.0, 0.5]))
    for start in ([1.0, 0.0], [1.0, np.nan, 0.0], [np.inf, 0.0, 0.0], [0.0, 0.0, 0.0],
                  np.ones((3, 1))):
        with pytest.raises(ContractViolation):
            sharpness(cost, [1.0, 1.0, 1.0], start=start)


class CrossingTop(CostFunction):
    """f = -t0 + (1+2 t0) t1^2/2 + (2-t0) t2^2/2 + sum a_i t_i^2/2.

    From 0 with eta = 1 the step runs along e0 to t0 = 1, where the Hessian
    is diag(0, 1+2 t0, 2-t0, a): the top eigenvector jumps from e2 to e1 at
    t0 = 1/3, and the segment's largest sharpness is 3, at its end.
    """

    kind = "crossing_top"

    def __init__(self, a):
        self.a = np.asarray(a, dtype=np.float64)
        self.dimension = 3 + self.a.shape[0]

    def value(self, theta):
        t = self.check(theta)
        return float(-t[0] + (1 + 2 * t[0]) * t[1] ** 2 / 2 + (2 - t[0]) * t[2] ** 2 / 2
                     + self.a @ t[3:] ** 2 / 2)

    def gradient(self, theta):
        t = self.check(theta)
        return np.concatenate(([-1.0 + t[1] ** 2 - t[2] ** 2 / 2, (1 + 2 * t[0]) * t[1],
                                (2 - t[0]) * t[2]], self.a * t[3:]))

    def _hvp(self, theta, v):
        return np.concatenate(([2 * theta[1] * v[1] - theta[2] * v[2],
                                2 * theta[1] * v[0] + (1 + 2 * theta[0]) * v[1],
                                -theta[2] * v[0] + (2 - theta[0]) * v[2]], self.a * v[3:]))


@pytest.mark.parametrize("a", [(0.5, -0.3, 0.1)] + [
    np.random.default_rng(seed).uniform(-0.5, 0.9, 1500) for seed in range(5)],
    ids=["dim6"] + [f"dim1503-seed{seed}" for seed in range(5)])
def test_segment_max_survives_crossing_top_eigenvalues(a):
    # a start that is exactly the previous point's Ritz vector (e2) stays in
    # span(e2) and certifies 2 - t0 past the crossing: the max would read 2
    cost, tol = CrossingTop(a), 1e-6
    theta = np.zeros(cost.dimension)
    seg = segment_max_sharpness(cost, theta, 1.0, samples=11, tol=tol)
    step = -cost.gradient(theta)
    cold = max(sharpness(cost, theta + (i / 10) * step, tol=tol) for i in range(11))
    assert type(seg) is float
    assert abs(seg - cold) <= tol * (1.0 + abs(cold))
    assert abs(cold - 3.0) <= tol * 4.0


@pytest.fixture(scope="module")
def acceptance_unstable_run():
    """eta and iterates 0..90 of the mlp-gd-unstable preset's run (eta = 1)."""
    spec = load_preset("mlp-gd-unstable")
    cost, theta0 = build_cost(spec)
    eta = spec.etas[0]
    traj = gd_run(cost, theta0, replace(spec.optimizer_config(eta), max_iter=90),
                  MetricFlags(rp=False, dir=False), record_iterates=True)
    return cost, eta, traj.iterates


def _segment_estimates(monkeypatch, cost, theta, eta, **kwargs):
    """Run segment_max_sharpness, returning its value and every estimate it made."""
    made = []

    def recording(*args, **kw):
        made.append(sharpness(*args, **kw))
        return made[-1]

    with monkeypatch.context() as patched:
        patched.setattr(metrics, "sharpness", recording)
        seg = segment_max_sharpness(cost, theta, eta, **kwargs)
    return seg, made


@pytest.mark.parametrize("i", [15, 45, 90])
def test_warm_segment_makes_fewer_hvps_than_cold_points(acceptance_unstable_run,
                                                        monkeypatch, i):
    cost, eta, iterates = acceptance_unstable_run
    theta, tol, max_iter = iterates[i], 1e-4, 30_000
    counter = CountingHvp(cost)
    monkeypatch.setattr(cost, "hvp", counter)
    seg, made = _segment_estimates(monkeypatch, cost, theta, eta, samples=11, tol=tol,
                                   max_iter=max_iter)
    warm_hvps = counter.calls
    assert len(made) == 11 and warm_hvps == sum(est.hvps for est in made)
    assert seg == max(made)

    step = -eta * cost.gradient(theta)
    counter.calls = 0
    cold = [sharpness(cost, theta + (k / 10) * step, tol, max_iter) for k in range(11)]
    assert warm_hvps < counter.calls
    # the first point is theta itself, estimated cold with the caller's arguments;
    # a bound read against sharpness(cost, theta) relies on this
    assert float(made[0]) == float(cold[0]) == float(sharpness(cost, theta, tol, max_iter, 0))
    assert abs(seg - max(cold)) <= tol * (1.0 + max(cold))


def test_segment_first_point_is_the_cold_estimate_on_relu(monkeypatch):
    # on a relu net, whose exact hvp holds the activation pattern at theta fixed
    net, theta0 = build_cost(load_preset("mlp-relu-gd"))
    traj = gd_run(net, theta0, OptimizerConfig(eta=0.5, max_iter=30),
                  MetricFlags(rp=False, dir=False))
    theta = traj.final_theta
    seg, made = _segment_estimates(monkeypatch, net, theta, 0.5, samples=11, tol=1e-4,
                                   max_iter=30_000, seed=2)
    assert float(made[0]) == float(sharpness(net, theta, 1e-4, 30_000, 2))
    assert seg >= made[0]


# --- stochastic relative progress ----------------------------------------------


@pytest.fixture(scope="module")
def sgd_net():
    ds = synth_dataset(SynthSpec(n=64, d=4, classes=2, cluster_spread=0.6, seed=6))
    net = MLPCost(ds, hidden_sizes=(8,), activation="tanh")
    return net, net.init_params(3)


def test_expected_rp_full_batch_is_deterministic_rp(sgd_net):
    net, theta = sgd_net
    eta = 0.1
    est, err = expected_rp(net, theta, eta, batch_size=64, num_batches=1, seed=0)
    assert est == relative_progress(net, theta, eta)
    assert err == 0.0


def test_expected_rp_rhs_deterministic_quadratic():
    cost = Quadratic(np.diag([40.0, 2.0]))
    theta, eta = np.array([0.4, -0.7]), 0.02
    g = cost.gradient(theta)
    sampler = lambda rng: g  # deterministic full gradient
    lhs, _ = expected_rp(cost, theta, eta, 1, 1, seed=0, grad_sampler=sampler)
    rhs, _ = expected_rp_rhs(cost, theta, eta, 1, 1, seed=0, grad_sampler=sampler)
    want = -1.0 + 0.5 * eta * directional_smoothness(cost, theta, eta * g)
    assert rhs == pytest.approx(want, abs=1e-14)
    assert abs(lhs - rhs) <= 1e-12


def test_expected_rp_noisy_quadratic_closed_form():
    dim, lam, sigma, eta = 10, 3.0, 0.5, 0.1
    cost = Quadratic(lam * np.eye(dim))
    theta = np.random.default_rng(42).standard_normal(dim)
    g = cost.gradient(theta)
    gn2 = float(g @ g)
    closed = -1.0 + (eta * lam / 2.0) * (1.0 + sigma**2 * dim / gn2)
    sampler = lambda rng: cost.gradient(theta) + sigma * rng.standard_normal(dim)
    est, se = expected_rp(cost, theta, eta, 1, 8000, seed=7, grad_sampler=sampler)
    assert abs(est - closed) <= 3 * se


def test_expected_rp_rhs_quadrature_matches_lhs_under_noise():
    dim, lam, sigma, eta = 6, 2.0, 0.4, 0.08
    cost = Quadratic(lam * np.eye(dim))
    theta = np.random.default_rng(1).standard_normal(dim)
    sampler = lambda rng: cost.gradient(theta) + sigma * rng.standard_normal(dim)
    lhs, se1 = expected_rp(cost, theta, eta, 1, 4000, seed=3, grad_sampler=sampler)
    rhs, se2 = expected_rp_rhs(cost, theta, eta, 1, 4000, seed=99,
                               grid=QuadratureGrid(metrics.TAU_NODES), grad_sampler=sampler)
    assert abs(lhs - rhs) <= 3 * (se1 + se2)


def test_expected_rp_rhs_default_is_the_one_node_grid(sgd_net):
    # grid=None, the one-node grid and a per-batch directional_smoothness loop agree bit for bit
    net, theta = sgd_net
    eta, batch, batches, seed = 0.3, 16, 12, 5
    gnorm = float(np.linalg.norm(net.gradient(theta)))
    rng = np.random.default_rng(np.uint64(seed))
    weights = []
    for _ in range(batches):
        gb = net.stochastic_gradient(theta, rng.integers(0, net.num_examples, size=batch))
        weights.append(float(gb @ gb) / gnorm**2 * directional_smoothness(net, theta, eta * gb))
    want = (-1.0 + 0.5 * eta * float(np.mean(weights)),
            0.5 * eta * float(np.std(weights, ddof=1) / math.sqrt(batches)))
    assert expected_rp_rhs(net, theta, eta, batch, batches, seed) == want
    assert expected_rp_rhs(net, theta, eta, batch, batches, seed,
                           grid=QuadratureGrid(1)) == want


def _scalar_pair(cost, theta, eta, batch, batches, seed, sampler=None, grid=None,
                 lhs_only=False):
    """The two estimators as separate scalar loops: the oracle for the paired draw, its
    RHS dir at tau = 1 or, given a ``grid``, that grid's rule over its nodes. With
    ``lhs_only`` the RHS is not computed and comes back as None."""
    loss, g = cost.value(theta), cost.gradient(theta)
    gnorm = float(np.linalg.norm(g))
    rng = np.random.default_rng(np.uint64(seed))
    n = cost.num_examples
    lhs, weights = [], []
    for _ in range(batches):
        if sampler is not None:
            gb = sampler(rng)
        elif batch >= n:
            gb = cost.stochastic_gradient(theta, np.arange(n))
        else:
            gb = cost.stochastic_gradient(theta, rng.integers(0, n, size=batch))
        lhs.append((cost.value(theta - eta * gb) - loss) / (eta * gnorm**2))
        if lhs_only:
            continue
        if grid is None:
            integral = directional_smoothness(cost, theta, eta * gb)
        else:
            integral = np.array([directional_smoothness(cost, theta, (eta * tau) * gb)
                                 for tau in grid.taus]) @ grid.weights
        weights.append(float(gb @ gb) / gnorm**2 * integral)

    def mean_and_stderr(xs):
        return float(np.mean(xs)), float(np.std(xs, ddof=1) / math.sqrt(batches))

    if lhs_only:
        return mean_and_stderr(lhs), None
    (lhs_est, lhs_err), (w_est, w_err) = mean_and_stderr(lhs), mean_and_stderr(weights)
    return (lhs_est, lhs_err), (-1.0 + 0.5 * eta * w_est, 0.5 * eta * w_err)


def _pair_problem(kind):
    """(cost, theta, eta, batch, sampler) for one expected-rp problem."""
    if kind == "quadratic_sampler":
        cost = Quadratic(np.diag([3.0, 2.0, 0.5, 1.5]))
        theta = np.array([0.7, -0.4, 1.2, 0.1])
        g = cost.gradient(theta)
        noise = np.random.default_rng(0).standard_normal(4)
        return cost, theta, 0.2, 1, lambda rng: g + 0.5 * rng.standard_normal(4) * noise
    ds = synth_dataset(SynthSpec(n=64, d=4, classes=3, cluster_spread=0.6, seed=6))
    act = "tanh" if kind == "mlp_tanh" else "relu"
    cost = MLPCost(ds, hidden_sizes=(8, 6), activation=act)
    theta = cost.init_params(3)
    if kind == "mlp_relu_decay":
        cost = WeightDecayWrapped(cost, 0.01)
    return cost, theta, 0.5, 16, None


PAIR_KINDS = ["mlp_relu", "mlp_tanh", "mlp_relu_decay", "quadratic_sampler"]


@pytest.mark.parametrize("kind", PAIR_KINDS)
def test_expected_rp_views_match_the_scalar_loops(kind):
    cost, theta, eta, batch, sampler = _pair_problem(kind)
    args = (cost, theta, eta, batch, 24, 11)
    lhs, rhs = _scalar_pair(*args, sampler=sampler)
    # LHS first (the RHS is then the parked half), RHS first (a fresh draw), and each alone
    assert expected_rp(*args, grad_sampler=sampler) == lhs
    assert expected_rp_rhs(*args, grad_sampler=sampler) == rhs
    assert expected_rp_rhs(*args, grad_sampler=sampler) == rhs
    assert expected_rp(*args, grad_sampler=sampler) == lhs
    assert expected_rp(*args, grad_sampler=sampler) == lhs
    # a grid with more nodes, whose last node is tau = 1 too
    grid = QuadratureGrid(3)
    _, want = _scalar_pair(*args, sampler=sampler, grid=grid)
    assert expected_rp_rhs(*args, grid=grid, grad_sampler=sampler) == want
    assert expected_rp(*args, grad_sampler=sampler) == lhs


@pytest.mark.parametrize("kw", NETS)
def test_expected_rp_views_match_the_scalar_loops_on_every_net(kw):
    # the stacked draw (chunks of 4 batches of 16 rows here) against per-row stochastic_gradient
    ds = synth_dataset(SynthSpec(n=64, d=4, classes=3, cluster_spread=0.6, seed=6))
    cost = MLPCost(ds, hidden_sizes=(8, 6), **kw)
    theta = cost.init_params(3) + 0.2 * np.random.default_rng(2).standard_normal(cost.dimension)
    args = (cost, theta, 0.5, 16, 22, 7)
    lhs, rhs = _scalar_pair(*args)
    assert expected_rp(*args) == lhs
    assert expected_rp_rhs(*args) == rhs
    _, want = _scalar_pair(*args, grid=QuadratureGrid(3))
    assert expected_rp_rhs(*args, grid=QuadratureGrid(3)) == want


def _counting_stacks(cost):
    """Count ``cost``'s minibatch gradient calls: {"stochastic_gradient": calls,
    "stochastic_gradients": [the number of batches in each stacked call]}."""
    calls = {"stochastic_gradient": 0, "stochastic_gradients": []}
    single, stacked = cost.stochastic_gradient, cost.stochastic_gradients

    def counted_single(theta, batch):
        calls["stochastic_gradient"] += 1
        return single(theta, batch)

    def counted_stacked(theta, batches):
        calls["stochastic_gradients"].append(len(batches))
        return stacked(theta, batches)

    cost.stochastic_gradient, cost.stochastic_gradients = counted_single, counted_stacked
    return calls


def test_a_network_pair_takes_its_minibatch_gradients_one_backward_pass_at_a_time(sgd_net):
    # n = 64 and b = 16: each stacked call is one backward pass of n // b = 4 batches
    net, theta = sgd_net
    cost = MLPCost(net.dataset, hidden_sizes=(8,), activation="tanh")
    calls = _counting_stacks(cost)
    lhs = expected_rp(cost, theta, 0.3, 16, 160, seed=4)
    rhs = expected_rp_rhs(cost, theta, 0.3, 16, 160, seed=4)
    assert calls == {"stochastic_gradient": 0, "stochastic_gradients": [4] * 40}
    assert (lhs, rhs) == _scalar_pair(net, theta, 0.3, 16, 160, 4)


@pytest.mark.parametrize("batch, batches, chunks", [
    (16, 10, [4, 4, 2]),  # k not a multiple of n // b
    (16, 3, [3]),  # k < n // b
    (20, 7, [3, 3, 1]),  # b does not divide n
    (64, 3, [1, 1, 1]),  # b = n: each chunk is one full batch
    (100, 2, [1, 1]),  # b > n: the full batch too
])
def test_the_chunked_draw_matches_the_scalar_loops(sgd_net, batch, batches, chunks):
    net, theta = sgd_net
    cost = MLPCost(net.dataset, hidden_sizes=(8,), activation="tanh")
    calls = _counting_stacks(cost)
    args = (theta, 0.3, batch, batches, 9)
    lhs = expected_rp(cost, *args)
    rhs = expected_rp_rhs(cost, *args)
    assert calls == {"stochastic_gradient": 0, "stochastic_gradients": chunks}
    assert (lhs, rhs) == _scalar_pair(net, *args)
    _, want = _scalar_pair(net, *args, grid=QuadratureGrid(3))
    assert expected_rp_rhs(cost, *args, grid=QuadratureGrid(3)) == want


class ScaledBatches(CostFunction):
    """A dataset-backed quadratic whose minibatch gradient is the full gradient
    times the mean of the batch's per-example ``weights``."""

    kind = "scaled-batches"

    def __init__(self, weights):
        self.inner = Quadratic(np.diag([4.0, 1.0]))
        self.dimension = 2
        self.weights = np.asarray(weights, dtype=np.float64)
        self.calls = dict.fromkeys(("value", "value_and_gradient"), 0)

    @property
    def num_examples(self):
        return self.weights.shape[0]

    def value(self, theta):
        self.calls["value"] += 1
        return self.inner.value(theta)

    def gradient(self, theta):
        return self.inner.gradient(theta)

    def value_and_gradient(self, theta):
        self.calls["value_and_gradient"] += 1
        return self.inner.value_and_gradient(theta)

    def stochastic_gradient(self, theta, batch):
        return self.gradient(theta) * float(np.mean(self.weights[batch]))


# n = 4 examples in batches of 1: chunks of 4 batches, 12 batches in 3 chunks
SCALED_ARGS = ([0.5, -1.0], 0.1, 1, 12)


def _seed_first_drawing_in_the_last_chunk(example):
    """A seed whose 12 single-row batches draw ``example``, and only in the last 4."""
    for seed in range(100):
        rng = np.random.default_rng(np.uint64(seed))
        drawn = [int(rng.integers(0, 4, size=1)[0]) for _ in range(12)]
        if example in drawn and drawn.index(example) >= 8:
            return seed


def test_a_zero_gradient_sample_in_a_later_chunk_leaves_the_lhs_and_fails_the_rhs():
    seed = _seed_first_drawing_in_the_last_chunk(3)
    cost = ScaledBatches([1.0, 2.0, 0.5, 0.0])  # example 3's minibatch gradient is zero
    want, _ = _scalar_pair(cost, *SCALED_ARGS, seed, lhs_only=True)
    for rhs_first in (False, True):
        if rhs_first:
            with pytest.raises(ZeroDirectionError):
                expected_rp_rhs(cost, *SCALED_ARGS, seed)
        assert expected_rp(cost, *SCALED_ARGS, seed) == want
        if not rhs_first:
            with pytest.raises(ZeroDirectionError):
                expected_rp_rhs(cost, *SCALED_ARGS, seed)


def test_a_sample_step_that_overflows_in_the_last_chunk_fails_both_views_unwarned():
    # the suite turns numpy's RuntimeWarnings into errors, so an unguarded overflow would fail
    seed = _seed_first_drawing_in_the_last_chunk(3)
    cost = ScaledBatches([1.0, 2.0, 0.5, 1e200])  # ||0.1 * g * 1e200||^2 overflows
    for view in (expected_rp, expected_rp_rhs, expected_rp):  # both orders of the pair
        before = dict(cost.calls)
        with pytest.raises(ZeroDirectionError):
            view(cost, *SCALED_ARGS, seed)
        # theta and the first two chunks' 8 points were evaluated, the last chunk's none
        evaluated = sum(cost.calls.values()) - sum(before.values())
        assert evaluated == 1 + 8


def test_a_network_pair_holds_one_backward_pass_of_minibatch_gradients(traced_peak):
    # sgd-erp's net: n = 512 and b = 32, so 16 of the k = 160 gradients are held at once
    ds = synth_dataset(SynthSpec(n=512, d=8, classes=4, cluster_spread=0.9, seed=11))
    net = MLPCost(ds, hidden_sizes=(32, 32), activation="relu")
    theta = net.init_params(7)
    args = (net, theta, 0.2, 32, 160)
    expected_rp(*args, seed=1)  # the network's workspace is allocated on first use
    stack = 160 * net.dimension * 8
    peak = traced_peak(lambda: expected_rp(*args, seed=2))
    assert peak < stack / 2, (peak, stack)


def test_a_checkpoint_pair_draws_and_evaluates_once(sgd_net):
    # before the pairing, LHS then RHS made 2 evaluations at theta, 320 minibatch
    # gradients, 160 values and 160 gradients at the sample points
    net, theta = sgd_net
    cost = CountingCost(net)
    lhs = expected_rp(cost, theta, 0.3, 16, 160, seed=4)
    rhs = expected_rp_rhs(cost, theta, 0.3, 16, 160, seed=4)
    assert cost.calls == {"value": 0, "gradient": 0, "value_and_gradient": 161,
                          "stochastic_gradient": 160}
    assert sum(np.array_equal(p, theta) for p in cost.fused_at) == 1
    assert (lhs, rhs) == _scalar_pair(net, theta, 0.3, 16, 160, 4)
    # a wider grid evaluates its extra nodes by gradient, and tau = 1 by the fused call
    cost = CountingCost(net)
    expected_rp_rhs(cost, theta, 0.3, 16, 160, seed=4, grid=QuadratureGrid(2))
    assert cost.calls == {"value": 0, "gradient": 160, "value_and_gradient": 161,
                          "stochastic_gradient": 160}


def _calls_made(cost, call):
    before = dict(cost.calls)
    call()
    return {k: cost.calls[k] - before[k] for k in before}


def test_the_parked_half_is_taken_once_and_only_on_an_equal_key(sgd_net):
    net, theta = sgd_net
    eta, batch, batches, seed = 0.3, 16, 12, 5
    cost = CountingCost(net)
    pair = {"value": 0, "gradient": 0, "value_and_gradient": batches + 1,
            "stochastic_gradient": batches}
    nothing = dict.fromkeys(pair, 0)
    base = (theta, eta, batch, batches, seed)
    assert _calls_made(cost, lambda: expected_rp(cost, *base)) == pair
    # an equal theta in another array is an equal key
    assert _calls_made(cost, lambda: expected_rp_rhs(cost, theta.copy(), *base[1:])) == nothing
    # consumed: the same call again computes afresh, as does a view called twice;
    # the RHS leaves no LHS behind, so the LHS after it draws afresh too
    assert _calls_made(cost, lambda: expected_rp_rhs(cost, *base)) == pair
    assert _calls_made(cost, lambda: expected_rp_rhs(cost, *base)) == pair
    assert _calls_made(cost, lambda: expected_rp(cost, *base)) == pair

    other_cost = CountingCost(net)
    nudged = theta.copy()
    nudged[0] += 1e-12
    for changed in ((other_cost, theta, eta, batch, batches, seed),
                    (cost, theta, eta, batch, batches, seed + 1),
                    (cost, theta, eta * 1.5, batch, batches, seed),
                    (cost, nudged, eta, batch, batches, seed),
                    (cost, theta, eta, batch + 1, batches, seed),
                    (cost, theta, eta, batch, batches - 1, seed)):
        expected_rp(cost, *base)
        target = changed[0]
        made = _calls_made(target, lambda: expected_rp_rhs(*changed))
        assert made["stochastic_gradient"] == changed[4], changed[1:]
    assert cost.calls["value"] == cost.calls["gradient"] == 0


def test_a_different_sampler_is_a_different_key():
    cost, theta, eta, _, sampler = _pair_problem("quadratic_sampler")
    counted = CountingCost(cost)
    twin = lambda rng: sampler(rng)  # noqa: E731  same draws, another object
    expected_rp(counted, theta, eta, 1, 20, 3, grad_sampler=sampler)
    made = _calls_made(counted, lambda: expected_rp_rhs(counted, theta, eta, 1, 20, 3,
                                                         grad_sampler=twin))
    assert made["value_and_gradient"] == 21
    made = _calls_made(counted, lambda: expected_rp(counted, theta, eta, 1, 20, 3,
                                                     grad_sampler=twin))
    assert made["value_and_gradient"] == 21  # the RHS leaves no LHS behind
    # no sampler at all is a different key too: the quadratic has no dataset
    expected_rp(counted, theta, eta, 1, 20, 3, grad_sampler=sampler)
    with pytest.raises(ContractViolation):
        expected_rp_rhs(counted, theta, eta, 1, 20, 3)


def test_the_pair_memo_keeps_no_cost_alive(sgd_net):
    import gc
    import weakref

    net, theta = sgd_net
    cost = CountingCost(net)
    expected_rp(cost, theta, 0.3, 16, 4, seed=1)
    ref = weakref.ref(cost)
    del cost
    gc.collect()
    assert ref() is None


def test_a_zero_gradient_sample_leaves_the_lhs_and_fails_the_rhs():
    cost = Quadratic(np.diag([4.0, 1.0]))
    theta, eta = np.array([0.5, -1.0]), 0.1
    g = cost.gradient(theta)
    sampler = lambda rng: g * float(rng.integers(0, 2))  # noqa: E731  zero half the time
    n = 40
    # the LHS oracle: the scalar loop without the dir part
    rng, gnorm = np.random.default_rng(np.uint64(2)), float(np.linalg.norm(g))
    vals = [(cost.value(theta - eta * sampler(rng)) - cost.value(theta)) / (eta * gnorm**2)
            for _ in range(n)]
    want = (float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(n)))
    for rhs_first in (False, True):
        if rhs_first:
            with pytest.raises(ZeroDirectionError):
                expected_rp_rhs(cost, theta, eta, 1, n, 2, grad_sampler=sampler)
        assert expected_rp(cost, theta, eta, 1, n, 2, grad_sampler=sampler) == want
        if not rhs_first:
            with pytest.raises(ZeroDirectionError):
                expected_rp_rhs(cost, theta, eta, 1, n, 2, grad_sampler=sampler)


def test_a_sample_step_that_overflows_fails_both_views():
    # the full step 0.1 * (3, 0) is measurable; ||0.1 * (1e200, 0)||^2 overflows
    cost = Quadratic(np.diag([1.0, 0.0]))
    sampler = lambda rng: np.array([1e200, 0.0])  # noqa: E731
    for view in (expected_rp, expected_rp_rhs, expected_rp):  # both orders of the pair
        with pytest.raises(ZeroDirectionError):
            view(cost, [3.0, 1.0], 0.1, 1, 4, 0, grad_sampler=sampler)


def test_sgd_epoch_metric_evaluates_values_only(sgd_net):
    # the epoch rp reads only the LHS, so the sample points get one value each
    net, theta = sgd_net
    cost = CountingCost(net)
    traj = sgd_run(cost, theta, OptimizerConfig(eta=0.3, max_iter=2, batch_size=16, seed=1),
                   MetricFlags(expected_rp=True, dir=False, expected_rp_batches=10))
    assert cost.calls["value"] == 3 * 10
    assert all(s.rp is not None for s in traj.samples)


@pytest.mark.parametrize("dir_, evaluations", [(False, 3), (True, 6)])
def test_sgd_epoch_sample_evaluates_its_iterate_once(sgd_net, dir_, evaluations):
    # the stop rule, the sample and the expected-rp draw share the iterate's one
    # value_and_gradient; only dir adds the look-ahead at theta - eta*g
    net, theta = sgd_net
    cost = CountingCost(net)
    traj = sgd_run(cost, theta, OptimizerConfig(eta=0.3, max_iter=2, batch_size=16, seed=1),
                   MetricFlags(expected_rp=True, dir=dir_, expected_rp_batches=10),
                   record_checkpoints=True)
    assert cost.calls["value_and_gradient"] == evaluations
    seeds = np.random.default_rng([1, 1])
    for s, checkpoint in zip(traj.samples, traj.iterates, strict=True):
        seed = seeds.integers(0, 2**63)
        assert s.rp == expected_rp(net, checkpoint, 0.3, 16, 10, seed)[0]
        assert (s.dir is not None) == dir_


def test_expected_rp_can_go_positive_mid_training():
    # frozen replica: relu net driven hard by SGD keeps decreasing the loss in
    # the long run even though the expected one-step progress turns positive
    ds = synth_dataset(SynthSpec(n=512, d=8, classes=4, cluster_spread=0.9, seed=11))
    net = MLPCost(ds, hidden_sizes=(32, 32), activation="relu")
    traj = sgd_run(net, net.init_params(7),
                   OptimizerConfig(eta=2 / 10, max_iter=15, batch_size=32, seed=5),
                   MetricFlags(expected_rp=True, dir=False, expected_rp_batches=96))
    rps = [s.rp for s in traj.samples if s.rp is not None]
    losses = [s.loss for s in traj.samples]
    assert max(rps) > 0.0
    assert losses[-1] < losses[1]


def test_expected_rp_requires_sampler_or_dataset():
    cost = Quadratic(np.diag([4.0, 2.0]))
    with pytest.raises(ContractViolation):
        expected_rp(cost, [1.0, 1.0], 0.1, 4, 10, seed=0)


# --- regime-level properties ----------------------------------------------------


def test_descent_lemma_bound_in_stable_regime():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        lams = rng.uniform(0.5, 20.0, n)
        cost = Quadratic(np.diag(lams))
        L = float(lams.max())
        eta = float(rng.uniform(0.05, 0.95)) * 2 / L
        theta = rng.standard_normal(n)
        rp = relative_progress(cost, theta, eta)
        assert rp <= -(1 - L * eta / 2) + 1e-10


def test_oscillation_dir_locks_to_two_over_eta():
    cost = Quadratic(np.diag([40.0, 2.0]))
    eta = 2 / 40
    traj = gd_run(cost, [1.0, 1.0], OptimizerConfig(eta=eta, max_iter=200),
                  MetricFlags(rp=False, dir=False))
    g = cost.gradient(traj.final_theta)
    ratio = directional_smoothness(cost, traj.final_theta, eta * g) * eta / 2
    assert 0.999 <= ratio <= 1.001

import math

import numpy as np
import pytest

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
    SingleNeuron,
    SynthSpec,
    TanhQuadratic,
    ZeroDirectionError,
    directional_smoothness,
    expected_rp,
    expected_rp_rhs,
    gd_run,
    relative_progress,
    rp_approx_residual,
    segment_max_sharpness,
    sgd_run,
    sharpness,
    synth_dataset,
    tau_dir_stats,
    verify_identity,
    weighted_dir_integral,
)


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


def test_integral_exact_for_constant_dir():
    cost = Quadratic(np.diag([40.0, 2.0]))
    got = weighted_dir_integral(cost, [1.0, 0.0], 2 / 40)
    assert got == pytest.approx(40.0, abs=1e-10)


def test_integral_cubic_against_brute_force_riemann():
    cost = Cubic()
    theta, eta = np.array([1.0]), 0.1
    n = 100_000
    grid = QuadratureGrid(np.linspace(1.0 / n, 1.0, n))
    got = weighted_dir_integral(cost, theta, eta, grid)

    # brute-force midpoint Riemann sum in independent scalar arithmetic
    grad0 = 3.0 * theta[0] ** 2
    total = 0.0
    for k in range(n):
        tau = (k + 0.5) / n
        v = eta * tau * grad0
        dir_v = (grad0 - 3.0 * (theta[0] - v) ** 2) / v
        total += 2.0 * tau * dir_v / n
    assert got == pytest.approx(total, abs=1e-6)


def test_integral_single_node_grid_degenerate_rule():
    cost = Quadratic(np.diag([40.0, 2.0]))
    theta, eta = np.array([1.0, 0.0]), 0.01
    dir_at_one = directional_smoothness(cost, theta, eta * cost.gradient(theta))
    got = weighted_dir_integral(cost, theta, eta, QuadratureGrid(np.array([1.0])))
    assert got == pytest.approx(2 * 0.5 * dir_at_one, abs=1e-12)


def test_grid_validation():
    with pytest.raises(ContractViolation):
        QuadratureGrid(np.array([]))
    with pytest.raises(ContractViolation):
        QuadratureGrid(np.array([0.0, 0.5]))
    with pytest.raises(ContractViolation):
        QuadratureGrid(np.array([0.5, 0.5]))
    with pytest.raises(ContractViolation):
        QuadratureGrid(np.array([0.5, 1.5]))


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


def test_identity_tanh_quadratic_quadrature_error_only():
    cost = TanhQuadratic(np.diag([40.0, 2.0]))
    theta, eta = np.array([0.5, 0.5]), 2 / 39
    res_default = verify_identity(cost, theta, eta).residual
    assert res_default <= 1e-4
    # a dense grid pushes the residual to rounding level: what was left was
    # quadrature error, not a broken identity
    res_dense = verify_identity(cost, theta, eta, QuadratureGrid.default(100_000)).residual
    assert res_dense <= 1e-9


def test_identity_mlp_mid_training(mid_training_mlp):
    net, theta = mid_training_mlp
    eta = 2 / 60
    res = verify_identity(net, theta, eta).residual
    assert res <= 1e-3
    res_fine = verify_identity(net, theta, eta, QuadratureGrid.default(400)).residual
    assert res_fine <= res + 1e-12


def test_identity_residual_shrinks_under_refinement():
    cost = SingleNeuron("tanh")
    theta, eta = np.array([2.0, 0.4]), 0.02
    res50 = verify_identity(cost, theta, eta, QuadratureGrid.default(50)).residual
    res200 = verify_identity(cost, theta, eta, QuadratureGrid.default(200)).residual
    assert res200 <= res50 + 1e-12
    assert res200 <= 1e-3



def test_identity_sides_equal_the_standalone_metrics(mid_training_mlp):
    # verify_identity evaluates theta once; both sides must still be bit-identical
    # to relative_progress and weighted_dir_integral computed on their own
    net, theta = mid_training_mlp
    eta = 2 / 60
    for grid, zero_node in ((None, True), (QuadratureGrid.default(37), False)):
        check = verify_identity(net, theta, eta, grid, include_zero_node=zero_node)
        assert check.lhs == relative_progress(net, theta, eta)
        assert check.rhs == -1.0 + 0.5 * eta * weighted_dir_integral(
            net, theta, eta, grid, include_zero_node=zero_node)
        assert check.residual == abs(check.lhs - check.rhs)

# --- single-tau approximation --------------------------------------------------


def test_rp_approx_residual_zero_on_quadratics():
    cost = Quadratic(np.diag([13.0, 4.0, 1.0]))
    rng = np.random.default_rng(12)
    for _ in range(10):
        theta = rng.standard_normal(3)
        assert rp_approx_residual(cost, theta, 0.05) <= 1e-12


def test_rp_approx_residual_cubic_oracle():
    cost = Cubic()
    theta, eta = np.array([1.0]), 0.1
    got = rp_approx_residual(cost, theta, eta)
    g = cost.gradient(theta)
    dir_full = directional_smoothness(cost, theta, eta * g)
    integral = weighted_dir_integral(cost, theta, eta, QuadratureGrid.default(10_000))
    want = abs(0.5 * eta * (dir_full - integral))
    assert got == pytest.approx(want, abs=1e-9)


def test_rp_approx_residual_bounded_by_tau_spread(mid_training_mlp):
    net, theta = mid_training_mlp
    eta = 0.5
    res = rp_approx_residual(net, theta, eta)
    _, std = tau_dir_stats(net, theta, eta)
    assert res <= std * eta / 2 + 1e-3


# --- sharpness -----------------------------------------------------------------


def test_sharpness_psd_quadratic():
    cost = Quadratic(np.diag([40.0, 2.0]))
    assert sharpness(cost, [1.0, 1.0], tol=1e-12) == pytest.approx(40.0, abs=1e-8)


def test_sharpness_indefinite_needs_the_shift():
    # power iteration would lock onto |-5|; the top Ritz value must be 3
    cost = Quadratic(np.diag([-5.0, 3.0]))
    assert sharpness(cost, [1.0, 1.0], tol=1e-12) == pytest.approx(3.0, abs=1e-8)


def test_sharpness_nonconvergence_carries_rayleigh():
    # Lanczos is exact on a dim-3 matrix within 3 steps; a budget of 2 is not
    cost = Quadratic(np.diag([10.0, 9.99, 1.0]))
    with pytest.raises(PowerIterationError) as kept:
        sharpness(cost, [1.0, 1.0, 1.0], tol=1e-15, max_iter=2)
    assert math.isfinite(kept.value.last_rayleigh)


def test_sharpness_rejects_bad_tol_and_budget():
    cost = Quadratic(np.diag([10.0, 1.0]))
    for kwargs in ({"tol": 0.0}, {"max_iter": 0}, {"max_iter": -3}):
        with pytest.raises(ContractViolation):
            sharpness(cost, [1.0, 1.0], **kwargs)


class SkewHvp(CostFunction):
    """A stub whose hvp is linear but not symmetric: no Hessian has this action."""

    kind = "skew_hvp"
    dimension = 3
    A = np.array([[1.0, 10.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.5]])

    def value(self, theta):
        return 0.0

    def gradient(self, theta):
        return np.zeros(3)

    def hvp(self, theta, v):
        return self.A @ v


@pytest.mark.parametrize("seed", range(5))
def test_sharpness_refuses_a_non_symmetric_hvp(seed):
    # the top eigenvalue is 2; stopping on the recurrence residual alone returns
    # 2.55 to 9.98 here, depending on the seed
    with pytest.raises(PowerIterationError) as kept:
        sharpness(SkewHvp(), np.zeros(3), seed=seed)
    assert math.isfinite(kept.value.last_rayleigh)


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
                               grid=QuadratureGrid.default(), grad_sampler=sampler)
    assert abs(lhs - rhs) <= 3 * (se1 + se2)


def test_expected_rp_rhs_default_is_the_one_node_grid(sgd_net):
    # grid=None, the grid [1.0] and a per-batch directional_smoothness loop agree bit for bit
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
                           grid=QuadratureGrid(np.array([1.0]))) == want


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

import numpy as np
import pytest

from gdscope import (
    ContractViolation,
    MLPCost,
    MetricFlags,
    OptimizerConfig,
    Quadratic,
    SynthSpec,
    WeightDecayWrapped,
    directional_smoothness,
    eigenmode_trace,
    gd_run,
    homogeneity_orthogonality,
    jacobi_spectrum,
    quadratic_divergence_oracle,
    relative_progress,
    rp_dir_closed_forms,
    sharpness,
    synth_dataset,
)


def random_symmetric(rng, n, lo=-5.0, hi=5.0):
    lams = rng.uniform(lo, hi, n)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    P = Q @ np.diag(lams) @ Q.T
    return 0.5 * (P + P.T)


def test_jacobi_roundtrip_and_orthonormality():
    rng = np.random.default_rng(3)
    for n in (2, 5, 20, 60, 100):
        P = random_symmetric(rng, n)
        spec = jacobi_spectrum(P)
        recon = spec.eigenvectors @ np.diag(spec.eigenvalues) @ spec.eigenvectors.T
        assert np.linalg.norm(recon - P) <= 1e-10 * np.linalg.norm(P)
        gram = spec.eigenvectors.T @ spec.eigenvectors
        assert np.max(np.abs(gram - np.eye(n))) <= 1e-10


def test_jacobi_matches_lapack():
    rng = np.random.default_rng(4)
    for _ in range(10):
        P = random_symmetric(rng, int(rng.integers(2, 40)))
        got = jacobi_spectrum(P).eigenvalues
        want = np.linalg.eigvalsh(P)
        assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))


def test_jacobi_rejects_asymmetric():
    with pytest.raises(ContractViolation):
        jacobi_spectrum(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_divergence_oracle_cases():
    P = np.diag([40.0, 2.0])
    assert quadratic_divergence_oracle(P, 2 / 39) is True
    assert quadratic_divergence_oracle(P, 2 / 40) is False  # |1-eta*40| = 1 boundary
    assert quadratic_divergence_oracle(P, 2 / 41) is False
    # any negative eigenvalue diverges at every step size
    N = np.diag([-1.0, 2.0])
    for eta in (1e-3, 0.1, 1.0):
        assert quadratic_divergence_oracle(N, eta) is True
    with pytest.raises(ContractViolation):
        quadratic_divergence_oracle(P, 0.0)


def test_eigenmode_trace_diag_rates():
    P = np.diag([40.0, 2.0])
    theta0 = np.array([0.7, -0.3])
    eta = 2 / 40
    # ascending eigenvalue order: mode 0 is lambda=2, mode 1 is lambda=40
    for t in range(5):
        coeffs = eigenmode_trace(P, theta0, eta, t)
        spec = jacobi_spectrum(P)
        base = spec.eigenvectors.T @ theta0
        assert coeffs[0] == pytest.approx(0.9**t * base[0], rel=1e-12)
        assert coeffs[1] == pytest.approx((-1.0) ** t * base[1], rel=1e-12)


def test_eigenmode_trace_matches_gd_iterates():
    rng = np.random.default_rng(8)
    P = random_symmetric(rng, 4, lo=0.5, hi=20.0)
    theta0 = rng.standard_normal(4)
    # fastest mode decays like 0.9^t: after 100 steps every coefficient is
    # still far above float noise, so 1e-8 relative is a meaningful bar
    eta = 0.005
    cost = Quadratic(P)
    traj = gd_run(cost, theta0, OptimizerConfig(eta=eta, max_iter=100),
                  MetricFlags(rp=False, dir=False), record_iterates=True)
    assert len(traj.iterates) == 101
    spec = jacobi_spectrum(P)
    for t in (1, 10, 50, 100):
        want = eigenmode_trace(P, theta0, eta, t)
        got = spec.eigenvectors.T @ traj.iterates[t]
        denom = np.maximum(np.abs(want), 1e-12)
        assert np.max(np.abs(got - want) / denom) <= 1e-8


def test_long_run_oscillation_along_top_mode():
    P = np.diag([40.0, 2.0])
    cost = Quadratic(P)
    eta = 2 / 40
    traj = gd_run(cost, [1.0, 1.0], OptimizerConfig(eta=eta, max_iter=200),
                  MetricFlags(rp=False, dir=False), record_iterates=True)
    # iterates collapse onto the top eigenvector with alternating sign
    th200 = traj.iterates[200]
    assert abs(th200[1]) <= 1e-8
    assert th200[0] == pytest.approx((-1.0) ** 200 * 1.0, rel=1e-12)
    g = cost.gradient(th200)
    dir_val = directional_smoothness(cost, th200, eta * g)
    assert dir_val == pytest.approx(2 / eta, abs=1e-6)


# --- homogeneity ---------------------------------------------------------------


@pytest.fixture(scope="module")
def norm_layer_net():
    ds = synth_dataset(SynthSpec(n=32, d=4, classes=2, cluster_spread=0.5, seed=2))
    return MLPCost(ds, hidden_sizes=(6, 4), activation="relu", normalize_first=True)


def test_orthogonality_exact_for_scale_invariant_block(norm_layer_net):
    net = norm_layer_net
    for seed in range(20):
        theta = net.init_params(seed)
        assert abs(homogeneity_orthogonality(net, theta)) <= 1e-10


def test_decay_gradient_lower_bound(norm_layer_net):
    net = norm_layer_net
    gamma = 0.01
    wrapped = WeightDecayWrapped(net, gamma)
    idx = net.homogeneous_indices
    for seed in range(100):
        theta = net.init_params(seed)
        zeta_norm = float(np.linalg.norm(theta[idx]))
        zeta_grad = float(np.linalg.norm(wrapped.gradient(theta)[idx]))
        assert zeta_grad >= 2 * gamma * zeta_norm - 1e-8


def test_plain_tanh_net_is_negative_control():
    ds = synth_dataset(SynthSpec(n=32, d=4, classes=2, cluster_spread=0.5, seed=2))
    net = MLPCost(ds, hidden_sizes=(6, 4), activation="tanh")
    assert net.homogeneous_indices is None
    with pytest.raises(ContractViolation):
        homogeneity_orthogonality(net, net.init_params(0))
    # declaring the first layer anyway shows it is genuinely not homogeneous
    n_first = 6 * 4 + 6
    declared = WeightDecayWrapped(net, 0.0)
    declared.homogeneous_indices = np.arange(n_first)
    vals = [abs(homogeneity_orthogonality(declared, net.init_params(s))) for s in range(10)]
    assert max(vals) > 1e-4


def test_orthogonality_requires_nonzero_zeta(norm_layer_net):
    theta = norm_layer_net.init_params(0)
    theta[norm_layer_net.homogeneous_indices] = 0.0
    with pytest.raises(ContractViolation):
        homogeneity_orthogonality(norm_layer_net, theta)


def _shrunk_block_relu_net(scale):
    """A normalized relu net with its scale-invariant first layer scaled by ``scale``."""
    ds = synth_dataset(SynthSpec(n=32, d=4, classes=2, cluster_spread=0.5, seed=2))
    net = MLPCost(ds, hidden_sizes=(6, 4), activation="relu", normalize_first=True)
    theta = net.init_params(3)
    theta[net.homogeneous_indices] *= scale
    return net, theta


def test_normalized_block_sharpens_as_it_shrinks():
    # f(c*zeta) = f(zeta) for the scale-invariant block zeta, so its Hessian
    # block grows like 1/c^2 as c shrinks; no constant is pinned, only the growth
    measured = []
    for scale in (1e-1, 1e-2):
        net, theta = _shrunk_block_relu_net(scale)
        measured.append(sharpness(net, theta, tol=1e-5, max_iter=50_000))
    assert measured[1] > 10 * measured[0]


def test_relu_sharpness_matches_dense_central_difference_hessian():
    # pre-activations here are small enough that a finite-difference hvp with a
    # cbrt(eps)-scaled step straddles relu kinks: Lanczos over it certifies
    # nothing, and its dense matrix's top eigenvalue reads about 37400; the dense
    # reference, and the exact hvp, read about 3426
    net, theta = _shrunk_block_relu_net(1e-2)
    h = 1e-7
    H = np.empty((net.dimension, net.dimension))
    for j in range(net.dimension):
        e = np.zeros(net.dimension)
        e[j] = h
        H[:, j] = (net.gradient(theta + e) - net.gradient(theta - e)) / (2 * h)
    dense = jacobi_spectrum(0.5 * (H + H.T)).lambda_max
    got = sharpness(net, theta, tol=1e-5, max_iter=50_000)
    assert abs(got - dense) <= 1e-4 * abs(dense)


# --- closed forms ---------------------------------------------------------------


def test_rp_dir_closed_form_examples():
    P = np.diag([40.0, 2.0])
    rp, dir_val = rp_dir_closed_forms(P, [1.0, 0.0], 2 / 40)
    assert rp == pytest.approx(0.0, abs=1e-14)
    assert dir_val == pytest.approx(40.0, abs=1e-12)
    rp, dir_val = rp_dir_closed_forms(P, [0.0, 1.0], 2 / 40)
    assert dir_val == pytest.approx(2.0, abs=1e-12)
    assert rp == pytest.approx(-0.95, abs=1e-12)
    with pytest.raises(ContractViolation):
        rp_dir_closed_forms(P, [0.0, 0.0], 0.05)


def test_closed_forms_match_metrics_module():
    rng = np.random.default_rng(14)
    lams = rng.uniform(0.5, 25.0, 10)
    Q, _ = np.linalg.qr(rng.standard_normal((10, 10)))
    P = Q @ np.diag(lams) @ Q.T
    P = 0.5 * (P + P.T)
    cost = Quadratic(P)
    for _ in range(10):
        theta = rng.standard_normal(10)
        eta = float(rng.uniform(0.01, 0.2))
        rp_c, dir_c = rp_dir_closed_forms(P, theta, eta)
        assert abs(rp_c - relative_progress(cost, theta, eta)) <= 1e-10
        g = cost.gradient(theta)
        assert abs(dir_c - directional_smoothness(cost, theta, eta * g)) <= 1e-10
    # the tau-integral of a constant: rp = -1 + (eta/2)*dir identically
    rp_c, dir_c = rp_dir_closed_forms(P, rng.standard_normal(10), 0.07)
    assert rp_c == pytest.approx(-1 + 0.5 * 0.07 * dir_c, abs=1e-14)


def test_closed_forms_with_affine_term():
    rng = np.random.default_rng(15)
    P = random_symmetric(rng, 5, lo=0.5, hi=10.0)
    q = rng.standard_normal(5)
    cost = Quadratic(P, q)
    theta = rng.standard_normal(5)
    eta = 0.03
    rp_c, dir_c = rp_dir_closed_forms(P, theta, eta, q=q)
    assert abs(rp_c - relative_progress(cost, theta, eta)) <= 1e-10
    g = cost.gradient(theta)
    assert abs(dir_c - directional_smoothness(cost, theta, eta * g)) <= 1e-10

import math

import numpy as np
import pytest

from gdscope import (
    ContractViolation,
    Quadratic,
    SingleNeuron,
    TanhQuadratic,
    WeightDecayWrapped,
)


def central_fd_gradient(cost, theta, h=1e-5):
    theta = np.asarray(theta, dtype=float)
    out = np.zeros_like(theta)
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = h
        out[i] = (cost.value(theta + e) - cost.value(theta - e)) / (2 * h)
    return out


def test_quadratic_value_gradient():
    q = Quadratic(np.diag([40.0, 2.0]))
    assert q.value([1.0, 1.0]) == 21.0  # 20*1 + 1*1
    assert np.array_equal(q.gradient([1.0, 1.0]), [40.0, 2.0])


def test_quadratic_affine_terms():
    q = Quadratic(np.diag([2.0, 4.0]), q=[1.0, -1.0], r=3.0)
    theta = np.array([0.5, 0.25])
    want = 0.5 * (2 * 0.25 + 4 * 0.0625) + 0.5 - 0.25 + 3.0
    assert q.value(theta) == pytest.approx(want, abs=1e-14)
    assert np.allclose(q.gradient(theta), [2 * 0.5 + 1, 4 * 0.25 - 1])


def test_quadratic_symmetrization_and_rejection():
    # mild asymmetry is symmetrized away
    P = np.array([[2.0, 1.0 + 4e-13], [1.0, 3.0]])
    q = Quadratic(P)
    assert q.P[0, 1] == q.P[1, 0]
    with pytest.raises(ContractViolation):
        Quadratic(np.array([[2.0, 1.0], [0.5, 3.0]]))


def test_quadratic_hvp_is_analytic():
    q = Quadratic(np.diag([40.0, 2.0]))
    assert np.array_equal(q.hvp([1.0, 1.0], [1.0, 0.0]), [40.0, 0.0])
    assert np.array_equal(q.hvp([1.0, 1.0], [0.0, 2.0]), [0.0, 4.0])
    with pytest.raises(ContractViolation):
        q.hvp([1.0, 1.0], [0.0, 0.0])


def test_dimension_checked_on_every_evaluation():
    q = Quadratic(np.diag([40.0, 2.0]))
    with pytest.raises(ContractViolation):
        q.value([1.0, 1.0, 1.0])
    with pytest.raises(ContractViolation):
        q.gradient([1.0])


def test_overflow_returns_inf_never_nan():
    q = Quadratic(np.diag([40.0, 2.0]))
    v = q.value([1e200, 1e200])
    assert math.isinf(v) and v > 0
    lin = SingleNeuron("linear")
    assert math.isinf(lin.value([1e200, 1e200]))


def test_tanh_quadratic():
    tq = TanhQuadratic(np.diag([40.0, 2.0]))
    assert tq.value([0.0, 0.0]) == 0.0
    assert np.array_equal(tq.gradient([0.0, 0.0]), [0.0, 0.0])
    theta = np.array([0.11, -0.07])
    u = 20 * theta[0] ** 2 + theta[1] ** 2
    assert tq.value(theta) == pytest.approx(math.tanh(u), rel=1e-15)


def test_single_neuron_tanh_value_high_precision():
    # oracle: (13 * tanh(0.01))^2 at 50-digit precision
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    want = float((13 * mp.tanh(mp.mpf("0.01"))) ** 2)
    cost = SingleNeuron("tanh")
    assert cost.value([13.0, 0.01]) == pytest.approx(want, rel=1e-14)
    assert cost.value([13.0, 0.01]) == pytest.approx(0.01689887339717445, rel=1e-12)


def test_single_neuron_gradients_closed_form():
    lin = SingleNeuron("linear")
    t1, t2 = 1.7, -0.6
    assert np.allclose(lin.gradient([t1, t2]), [2 * t1 * t2**2, 2 * t1**2 * t2], rtol=1e-14)
    tnh = SingleNeuron("tanh")
    h = math.tanh(t2)
    dh = 1 - h * h
    assert np.allclose(
        tnh.gradient([t1, t2]), [2 * t1 * h * h, 2 * t1**2 * h * dh], rtol=1e-14
    )
    with pytest.raises(ContractViolation):
        SingleNeuron("relu")


def test_single_neuron_tanh_hvp_matches_value_second_differences():
    cost = SingleNeuron("tanh")
    theta = np.array([13.0, 0.01])
    got = cost.hvp(theta, [0.0, 1.0])
    # oracle: second-order central differences of value()
    h = 1e-4
    e2 = np.array([0.0, h])
    hess_col = np.zeros(2)
    for i, ei in enumerate(np.eye(2) * h):
        f_pp = cost.value(theta + ei + e2)
        f_pm = cost.value(theta + ei - e2)
        f_mp = cost.value(theta - ei + e2)
        f_mm = cost.value(theta - ei - e2)
        hess_col[i] = (f_pp - f_pm - f_mp + f_mm) / (4 * h * h)
    assert np.allclose(got, hess_col, rtol=1e-4)


@pytest.mark.parametrize("builder,theta_scale", [
    (lambda: Quadratic(np.diag([7.0, 3.0, 0.5])), 1.0),
    (lambda: TanhQuadratic(np.diag([7.0, 3.0, 0.5])), 0.3),
    (lambda: SingleNeuron("tanh"), 1.0),
    (lambda: SingleNeuron("linear"), 1.0),
])
def test_gradient_matches_finite_differences_everywhere(builder, theta_scale):
    cost = builder()
    rng = np.random.default_rng(99)
    for _ in range(50):
        theta = theta_scale * rng.standard_normal(cost.dimension)
        g = cost.gradient(theta)
        fd = central_fd_gradient(cost, theta)
        denom = np.maximum(np.abs(fd), 1e-6)
        assert np.max(np.abs(g - fd) / denom) < 1e-5


def test_hvp_symmetry_for_smooth_costs():
    from gdscope import MLPCost, SynthSpec, synth_dataset

    rng = np.random.default_rng(5)
    ds = synth_dataset(SynthSpec(n=16, d=3, classes=2, cluster_spread=0.5, seed=1))
    mlp = MLPCost(ds, hidden_sizes=(5,), activation="tanh")
    for cost, scale in [
        (Quadratic(np.diag([9.0, 1.0, 4.0])), 1.0),
        (TanhQuadratic(np.diag([9.0, 1.0, 4.0])), 0.2),
        (SingleNeuron("tanh"), 1.0),
        (mlp, 0.3),
    ]:
        for _ in range(20):
            theta = scale * rng.standard_normal(cost.dimension)
            u = rng.standard_normal(cost.dimension)
            v = rng.standard_normal(cost.dimension)
            a = float(u @ cost.hvp(theta, v))
            b = float(v @ cost.hvp(theta, u))
            assert abs(a - b) <= 1e-4 * max(1.0, abs(a), abs(b))


def test_hvp_linearity_analytic_quadratic():
    rng = np.random.default_rng(6)
    q = Quadratic(np.diag([11.0, 5.0, 2.0]))
    theta = rng.standard_normal(3)
    v = rng.standard_normal(3)
    for a in (0.5, 3.0, -7.0):
        lhs = q.hvp(theta, a * v)
        rhs = a * q.hvp(theta, v)
        assert np.max(np.abs(lhs - rhs)) <= 1e-6 * np.max(np.abs(rhs))


def test_weight_decay_wrapper():
    q = Quadratic(np.diag([4.0, 2.0]))
    theta = np.array([1.5, -2.0])
    v = np.array([0.3, 0.7])

    # gamma = 0 is the identity
    w0 = WeightDecayWrapped(q, 0.0)
    assert w0.value(theta) == q.value(theta)
    assert np.array_equal(w0.gradient(theta), q.gradient(theta))
    assert np.array_equal(w0.hvp(theta, v), q.hvp(theta, v))

    gamma = 0.25
    w = WeightDecayWrapped(q, gamma)
    assert w.value(theta) == pytest.approx(q.value(theta) + gamma * float(theta @ theta))
    assert np.allclose(w.gradient(theta), q.gradient(theta) + 2 * gamma * theta)
    assert np.allclose(w.hvp(theta, v), q.hvp(theta, v) + 2 * gamma * v)

    with pytest.raises(ContractViolation):
        WeightDecayWrapped(q, -0.1)


def test_parameters_must_be_finite():
    q = Quadratic(np.diag([1.0, 1.0]))
    with pytest.raises(ContractViolation):
        Quadratic(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    from gdscope import as_params
    with pytest.raises(ContractViolation):
        as_params([np.inf, 0.0], 2)
    assert as_params([1.0, 2.0], 2).dtype == np.float64
    del q


def _zoo(kind):
    from gdscope import MLPCost, SynthSpec, synth_dataset

    ds = synth_dataset(SynthSpec(n=24, d=3, classes=3, cluster_spread=0.6, seed=4))
    return {
        "quadratic": lambda: Quadratic(np.diag([7.0, 3.0, 0.5]), q=[0.5, -1.0, 0.2], r=2.0),
        "tanh_quadratic": lambda: TanhQuadratic(np.diag([7.0, 3.0, 0.5])),
        "single_neuron_linear": lambda: SingleNeuron("linear"),
        "single_neuron_tanh": lambda: SingleNeuron("tanh"),
        "mlp_tanh": lambda: MLPCost(ds, hidden_sizes=(5, 4), activation="tanh"),
        "mlp_relu": lambda: MLPCost(ds, hidden_sizes=(5, 4), activation="relu"),
        "mlp_relu_normalized": lambda: MLPCost(ds, hidden_sizes=(5, 4), activation="relu",
                                               normalize_first=True),
    }[kind]()


@pytest.mark.parametrize("wrapped", [False, True], ids=["bare", "weight_decay"])
@pytest.mark.parametrize("kind", ["quadratic", "tanh_quadratic", "single_neuron_linear",
                                  "single_neuron_tanh", "mlp_tanh", "mlp_relu",
                                  "mlp_relu_normalized"])
def test_value_and_gradient_is_exactly_value_then_gradient(kind, wrapped):
    cost = _zoo(kind)
    if wrapped:
        cost = WeightDecayWrapped(cost, 0.05)
    rng = np.random.default_rng(17)
    # the large scales saturate tanh and overflow the closed forms to inf
    for scale in (0.1, 1.0, 30.0, 1e155):
        for _ in range(5):
            theta = scale * rng.standard_normal(cost.dimension)
            with np.errstate(all="ignore"):
                value, grad = cost.value_and_gradient(theta)
                want_value, want_grad = cost.value(theta), cost.gradient(theta)
            assert value == want_value
            assert np.array_equal(grad, want_grad, equal_nan=True)

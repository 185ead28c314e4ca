import math
import warnings

import numpy as np
import pytest

from gdscope import (
    ContractViolation,
    CostFunction,
    MLPCost,
    Quadratic,
    SingleNeuron,
    SynthSpec,
    TanhQuadratic,
    WeightDecayWrapped,
    escape_experiment,
    expected_rp,
    expected_rp_rhs,
    segment_max_sharpness,
    sharpness,
    synth_dataset,
)
from gdscope.costs import as_rng
from gdscope.theory import jacobi_spectrum

EPS = float(np.finfo(np.float64).eps)


def central_fd_gradient(cost, theta, h=1e-5):
    theta = np.asarray(theta, dtype=float)
    out = np.zeros_like(theta)
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = h
        out[i] = (cost.value(theta + e) - cost.value(theta - e)) / (2 * h)
    return out


def fd_hvp_step(theta):
    """The step of ``central_fd_hvp``: cbrt(machine eps) * (1 + ||theta||)."""
    return EPS ** (1.0 / 3.0) * (1.0 + float(np.linalg.norm(theta)))


def central_fd_hvp(cost, theta, v):
    """The oracle for an exact hvp: a central difference of gradients along v,
    off by O(step^2) on a C^2 cost."""
    norm_v = float(np.linalg.norm(v))
    vhat = v / norm_v
    step = fd_hvp_step(theta)
    g_plus = cost.gradient(theta + step * vhat)
    g_minus = cost.gradient(theta - step * vhat)
    return (g_plus - g_minus) * (norm_v / (2.0 * step))


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
        (SingleNeuron("linear"), 1.0),
        (WeightDecayWrapped(TanhQuadratic(np.diag([9.0, 1.0, 4.0])), 0.05), 0.2),
        (mlp, 0.3),
    ]:
        for _ in range(20):
            theta = scale * rng.standard_normal(cost.dimension)
            u = rng.standard_normal(cost.dimension)
            v = rng.standard_normal(cost.dimension)
            Hv, Hu = cost.hvp(theta, v), cost.hvp(theta, u)
            # exact products: symmetric to rounding, relative to the Cauchy-Schwarz scale
            bound = max(np.linalg.norm(u) * np.linalg.norm(Hv),
                        np.linalg.norm(v) * np.linalg.norm(Hu))
            assert abs(u @ Hv - v @ Hu) <= 1e-12 * bound, (cost.kind, u @ Hv, v @ Hu)


def test_hvp_linearity_analytic_quadratic():
    rng = np.random.default_rng(6)
    for cost, scale in [
        (Quadratic(np.diag([11.0, 5.0, 2.0])), 1.0),
        (TanhQuadratic(np.diag([11.0, 5.0, 2.0])), 0.2),
        (SingleNeuron("tanh"), 1.0),
        (SingleNeuron("linear"), 1.0),
        (WeightDecayWrapped(TanhQuadratic(np.diag([11.0, 5.0, 2.0])), 0.05), 0.2),
    ]:
        theta = scale * rng.standard_normal(cost.dimension)
        v = rng.standard_normal(cost.dimension)
        for a in (0.5, 3.0, -7.0):
            lhs = cost.hvp(theta, a * v)
            rhs = a * cost.hvp(theta, v)
            # to rounding: 2000 random draws of these costs read at most 20 ulps
            assert np.max(np.abs(lhs - rhs)) <= 1e-14 * np.max(np.abs(rhs)), cost.kind


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


@pytest.mark.parametrize("wrapped", [False, True], ids=["bare", "weight_decay"])
@pytest.mark.parametrize("kind", ["quadratic", "tanh_quadratic", "single_neuron_linear",
                                  "single_neuron_tanh", "mlp_tanh", "mlp_relu",
                                  "mlp_relu_normalized"])
def test_hvp_is_the_exact_hessian_product(kind, wrapped):
    from test_mlp import _active

    cost = bare = _zoo(kind)
    gamma = 0.05 if wrapped else 0.0
    if wrapped:
        cost = WeightDecayWrapped(bare, gamma)
    rng = np.random.default_rng(23)
    if kind.startswith("mlp"):
        points = [bare.init_params(s) + 0.3 * rng.standard_normal(cost.dimension)
                  for s in range(3)]
    else:
        points = [0.6 * rng.standard_normal(cost.dimension) for _ in range(3)]
    checked = 0
    for theta in points:
        v = rng.standard_normal(cost.dimension)
        step = fd_hvp_step(theta)
        if kind.startswith("mlp_relu"):
            # a relu kink within a step of theta breaks the difference, not the R-pass
            vhat = v / np.linalg.norm(v)
            if not all(np.array_equal(_active(bare, theta), _active(bare, theta + t * vhat))
                       for t in (step, -step)):
                continue
        fd = central_fd_hvp(cost, theta, v)
        # the difference's error is O(step^2); a dropped curvature term is O(1)
        assert np.linalg.norm(cost.hvp(theta, v) - fd) <= step * np.linalg.norm(fd)
        checked += 1
    assert checked >= 2

    # the dense Hessian from the unit vectors: symmetric to rounding, and its top
    # eigenvalue is the certified sharpness
    theta = points[0]
    H = np.column_stack([cost.hvp(theta, e) for e in np.eye(cost.dimension)])
    assert np.max(np.abs(H - H.T)) <= 1e-14 * np.max(np.abs(H))
    dense = jacobi_spectrum(0.5 * (H + H.T)).lambda_max
    assert abs(sharpness(cost, theta, tol=1e-10) - dense) <= 1e-10 * (1.0 + abs(dense))

    if kind == "tanh_quadratic":
        # tanh(21) == 1.0 in floating point, with a finite inner gradient (40, 2):
        # the Hessian is the zero matrix there, plus the decay's 2 gamma I
        flat, saturated = TanhQuadratic(np.diag([40.0, 2.0])), np.array([1.0, 1.0])
        assert 1.0 - flat.value(saturated) ** 2 == 0.0
        if wrapped:
            flat = WeightDecayWrapped(flat, gamma)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = flat.hvp(saturated, [0.3, -0.7])
        assert np.array_equal(got, 2.0 * gamma * np.array([0.3, -0.7]))


class _ValueAndGradientOnly(CostFunction):
    kind = "value_and_gradient_only"
    dimension = 2

    def value(self, theta):
        return float(self.check(theta) @ theta)

    def gradient(self, theta):
        return 2.0 * self.check(theta)


def test_a_cost_without_an_hvp_has_no_sharpness():
    # no finite-difference fallback: the missing product is named, never approximated
    cost = _ValueAndGradientOnly()
    with pytest.raises(NotImplementedError, match="value_and_gradient_only"):
        cost.hvp([1.0, 2.0], [1.0, 0.0])
    with pytest.raises(NotImplementedError, match="value_and_gradient_only"):
        sharpness(cost, [1.0, 2.0])
    with pytest.raises(ContractViolation):  # the arguments are checked first
        cost.hvp([1.0, 2.0], [0.0, 0.0])


_SEEDED_COST = Quadratic(np.diag([4.0, 1.0]))
_NOISE = lambda rng: rng.standard_normal(2)  # noqa: E731
_SEEDED_NET = MLPCost(synth_dataset(SynthSpec(n=6, d=2)), hidden_sizes=(3,))

# every entry point that builds a generator from a caller's seed
SEEDED_ENTRY_POINTS = {
    "sharpness": lambda seed: sharpness(_SEEDED_COST, [1.0, 1.0], seed=seed),
    "segment_max_sharpness": lambda seed: segment_max_sharpness(
        _SEEDED_COST, [1.0, 1.0], 0.1, samples=2, seed=seed),
    "expected_rp": lambda seed: expected_rp(
        _SEEDED_COST, [1.0, 1.0], 0.1, 1, 4, seed, grad_sampler=_NOISE),
    "expected_rp_rhs": lambda seed: expected_rp_rhs(
        _SEEDED_COST, [1.0, 1.0], 0.1, 1, 4, seed, grad_sampler=_NOISE),
    "escape_experiment": lambda seed: escape_experiment(
        _SEEDED_COST, [0.0, 0.0], 1e-3, 0.1, 3, 2, seed),
    "init_params": lambda seed: _SEEDED_NET.init_params(seed),
    "synth_dataset": lambda seed: synth_dataset(SynthSpec(n=4, d=2, seed=seed)),
}


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, None])
@pytest.mark.parametrize("entry", sorted(SEEDED_ENTRY_POINTS))
def test_a_seed_outside_the_uint64_integers_is_a_contract_violation(entry, seed):
    # numpy raised OverflowError for -1 and 2**64, and read 1.5 as seed 1
    with pytest.raises(ContractViolation):
        SEEDED_ENTRY_POINTS[entry](seed)


@pytest.mark.parametrize("entry", sorted(SEEDED_ENTRY_POINTS))
def test_every_seeded_entry_point_takes_the_largest_seed(entry):
    SEEDED_ENTRY_POINTS[entry](np.uint64(2**64 - 1))


@pytest.mark.parametrize("seed", [0, 7, 2**63 - 1, 2**63, 2**64 - 1])
def test_an_integer_seed_of_any_type_gives_the_same_stream(seed):
    want = np.random.default_rng(np.uint64(seed)).standard_normal(5)
    types = [int, np.uint64] + ([np.int64] if seed < 2**63 else [])
    for as_type in types:
        assert np.array_equal(as_rng(as_type(seed)).standard_normal(5), want), as_type

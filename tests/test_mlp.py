import sys

import numpy as np
import pytest

from gdscope import (ContractViolation, MLPCost, Quadratic, SynthSpec, WeightDecayWrapped,
                     synth_dataset)
from gdscope.costs import _EPS_CBRT, CostFunction

from test_costs import central_fd_gradient


@pytest.fixture(scope="module")
def small_dataset():
    return synth_dataset(SynthSpec(n=4, d=2, classes=2, cluster_spread=0.5, seed=1))


@pytest.fixture(scope="module")
def blob_dataset():
    return synth_dataset(SynthSpec(n=48, d=5, classes=3, cluster_spread=0.6, seed=3))


def test_backprop_matches_finite_differences(small_dataset):
    mlp = MLPCost(small_dataset, hidden_sizes=(3,), activation="tanh")
    theta = mlp.init_params(7)
    g = mlp.gradient(theta)
    fd = central_fd_gradient(mlp, theta, h=1e-5)
    denom = np.maximum(np.abs(fd), 1e-6)
    assert np.max(np.abs(g - fd) / denom) < 1e-5


@pytest.mark.parametrize("activation", ["tanh", "relu", "linear"])
def test_backprop_all_activations(blob_dataset, activation):
    mlp = MLPCost(blob_dataset, hidden_sizes=(6, 5), activation=activation)
    rng = np.random.default_rng(17)
    checked = 0
    for seed in range(50):
        theta = mlp.init_params(seed) + 0.05 * rng.standard_normal(mlp.dimension)
        if activation == "relu":
            # skip points within 1e-4 of a kink, where the subgradient convention
            # and finite differences legitimately disagree
            layers = mlp.unpack(theta)
            a = blob_dataset.features
            near_kink = False
            for W, b in layers[:-1]:
                z = a @ W.T + b
                near_kink |= bool(np.any(np.abs(z) < 1e-4))
                a = np.maximum(z, 0.0)
            if near_kink:
                continue
        g = mlp.gradient(theta)
        fd = central_fd_gradient(mlp, theta, h=1e-6)
        denom = np.maximum(np.abs(fd), 1e-4)
        assert np.max(np.abs(g - fd) / denom) < 1e-4
        checked += 1
    assert checked >= 25


def test_normalization_layer_gradients_and_invariance(blob_dataset):
    net = MLPCost(blob_dataset, hidden_sizes=(6, 4), activation="relu", normalize_first=True)
    theta = net.init_params(2)
    fd = central_fd_gradient(net, theta, h=1e-6)
    g = net.gradient(theta)
    assert np.max(np.abs(g - fd)) < 1e-4

    v0 = net.value(theta)
    for c in (0.5, 2.0, 10.0):
        scaled = theta.copy()
        scaled[net.homogeneous_indices] *= c
        assert abs(net.value(scaled) - v0) <= 1e-10


def test_homogeneous_indices_only_for_exact_invariance(blob_dataset):
    assert MLPCost(blob_dataset, hidden_sizes=(4,), activation="tanh").homogeneous_indices is None
    assert MLPCost(blob_dataset, hidden_sizes=(4,), activation="relu").homogeneous_indices is None
    exact = MLPCost(blob_dataset, hidden_sizes=(4,), activation="relu", normalize_first=True)
    n_first = 4 * blob_dataset.d + 4
    assert np.array_equal(exact.homogeneous_indices, np.arange(n_first))


def test_stochastic_gradient_contracts(blob_dataset):
    mlp = MLPCost(blob_dataset, hidden_sizes=(6,), activation="tanh")
    theta = mlp.init_params(0)
    full = mlp.gradient(theta)

    # full batch in index order is bit-identical to gradient()
    assert np.array_equal(mlp.stochastic_gradient(theta, np.arange(blob_dataset.n)), full)

    # complementary halves average back to the full gradient
    h1 = mlp.stochastic_gradient(theta, np.arange(0, 24))
    h2 = mlp.stochastic_gradient(theta, np.arange(24, 48))
    assert np.max(np.abs(0.5 * (h1 + h2) - full)) <= 1e-12

    with pytest.raises(ContractViolation):
        mlp.stochastic_gradient(theta, [])
    with pytest.raises(ContractViolation):
        mlp.stochastic_gradient(theta, [48])


def test_stochastic_gradient_is_unbiased(blob_dataset):
    mlp = MLPCost(blob_dataset, hidden_sizes=(4,), activation="tanh")
    theta = mlp.init_params(1)
    full = mlp.gradient(theta)
    rng = np.random.default_rng(10)
    draws = 10_000
    acc = np.zeros_like(theta)
    acc2 = np.zeros_like(theta)
    for _ in range(draws):
        g = mlp.stochastic_gradient(theta, rng.integers(0, blob_dataset.n, size=32))
        acc += g
        acc2 += g * g
    mean = acc / draws
    se = np.sqrt(np.maximum(acc2 / draws - mean**2, 0.0) / draws)
    # every coordinate within 3 standard errors (tiny floor for exact coords)
    assert np.all(np.abs(mean - full) <= 3 * se + 1e-12)


def test_init_params_shape_and_determinism(blob_dataset):
    mlp = MLPCost(blob_dataset, hidden_sizes=(6, 5), activation="tanh")
    a = mlp.init_params(123)
    b = mlp.init_params(123)
    assert np.array_equal(a, b)
    assert a.shape == (mlp.dimension,)
    layers = mlp.unpack(a)
    for (W, bias), fan_in in zip(layers, [blob_dataset.d, 6, 5]):
        assert np.all(np.abs(W) <= 1.0 / np.sqrt(fan_in))
        assert np.all(bias == 0.0)


def test_accuracy_ties_break_to_lower_class(small_dataset):
    mlp = MLPCost(small_dataset, hidden_sizes=(), activation="linear")
    theta = np.zeros(mlp.dimension)  # all logits equal -> predict class 0
    pred_acc = mlp.accuracy(theta)
    want = float(np.mean(small_dataset.labels == 0))
    assert pred_acc == want


def test_layer_shape_validation(blob_dataset):
    with pytest.raises(ContractViolation):
        MLPCost(blob_dataset, hidden_sizes=(0,), activation="tanh")
    with pytest.raises(ContractViolation):
        MLPCost(blob_dataset, hidden_sizes=(4,), activation="swish")
    with pytest.raises(ContractViolation):
        MLPCost(blob_dataset, hidden_sizes=(), activation="relu", normalize_first=True)


NETS = [
    pytest.param(dict(activation="tanh"), id="tanh"),
    pytest.param(dict(activation="relu"), id="relu"),
    pytest.param(dict(activation="linear"), id="linear"),
    # a stable test id: the name this case had when the net also set eps = 0.1
    pytest.param(dict(activation="tanh", normalize_first=True), id="tanh-True-0.1"),
    pytest.param(dict(activation="relu", normalize_first=True), id="relu-True"),
    pytest.param(dict(activation="linear", normalize_first=True), id="linear-True"),
]


def _calls(net, rng):
    """An interleaved sequence of (name, call) over every entry point and several row counts."""
    thetas = [net.init_params(s) + 0.3 * rng.standard_normal(net.dimension) for s in range(3)]
    batches = [rng.integers(0, net.dataset.n, size=k) for k in (32, 7, 32)]
    v = rng.standard_normal(net.dimension)
    u = rng.standard_normal(net.dimension)
    stack = rng.integers(0, net.dataset.n, size=(11, 7))  # two chunks of the 48-row workspace
    return [
        ("gradient", lambda: net.gradient(thetas[0])),
        ("stochastic_gradient/32", lambda: net.stochastic_gradient(thetas[1], batches[0])),
        ("value", lambda: net.value(thetas[2])),
        ("hvp", lambda: net.hvp(thetas[0], v)),
        ("value_and_gradient", lambda: net.value_and_gradient(thetas[1])),
        ("logits", lambda: net.logits(thetas[2])),
        ("stochastic_gradient/7", lambda: net.stochastic_gradient(thetas[0], batches[1])),
        ("logits/7", lambda: net.logits(thetas[1], batches[1])),
        ("hvp again", lambda: net.hvp(thetas[0], u)),  # the state at thetas[0], reused
        ("stochastic_gradient/32 again", lambda: net.stochastic_gradient(thetas[2], batches[2])),
        ("gradient again", lambda: net.gradient(thetas[1])),
        ("hvp/thetas[1]", lambda: net.hvp(thetas[1], v)),  # another theta, recomputed
        ("stochastic_gradients/11x7", lambda: net.stochastic_gradients(thetas[2], stack)),
        ("accuracy", lambda: net.accuracy(thetas[0])),
    ]


def _flat(result):
    if isinstance(result, tuple):
        return np.concatenate([np.atleast_1d(np.asarray(r, dtype=np.float64)) for r in result])
    return np.atleast_1d(np.asarray(result, dtype=np.float64))


@pytest.mark.parametrize("kw", NETS)
def test_workspace_reuse_matches_a_fresh_cost(blob_dataset, kw):
    # one cost reused across calls must give the bits a freshly built cost gives for each call
    shared = MLPCost(blob_dataset, hidden_sizes=(6, 5), **kw)
    reused = _calls(shared, np.random.default_rng(4))
    for i, (name, call) in enumerate(reused):
        got = call()
        fresh = MLPCost(blob_dataset, hidden_sizes=(6, 5), **kw)
        want = _calls(fresh, np.random.default_rng(4))[i][1]()
        assert np.array_equal(_flat(got), _flat(want), equal_nan=True), name


@pytest.mark.parametrize("kw", NETS)
def test_returned_arrays_do_not_alias_the_workspace(blob_dataset, kw):
    net = MLPCost(blob_dataset, hidden_sizes=(6, 5), **kw)
    rng = np.random.default_rng(5)
    theta = net.init_params(1)
    kept = [
        net.gradient(theta),
        net.value_and_gradient(theta)[1],
        net.stochastic_gradient(theta, np.arange(32)),
        net.hvp(theta, rng.standard_normal(net.dimension)),
        net.logits(theta),
        net.logits(theta, np.arange(7)),
        net.stochastic_gradients(theta, np.arange(35).reshape(5, 7)),
    ]
    snapshots = [k.copy() for k in kept]
    for _, call in _calls(net, rng):
        call()
    for k, snap in zip(kept, snapshots):
        assert np.array_equal(k, snap)


def _minor_faults_per_warm_call(call, calls=100):
    import resource

    for _ in range(5):
        call()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(calls):
        call()
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / calls


def _page_fault_net():
    ds = synth_dataset(SynthSpec(n=512, d=8, classes=4, cluster_spread=0.9, seed=11))
    net = MLPCost(ds, hidden_sizes=(32, 32), activation="tanh")
    return net, net.init_params(7)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_minflt counts page faults on Linux")
def test_warm_value_and_gradient_does_not_page_fault():
    # each call used to map its (rows x width) temporaries afresh: 272 faults per call here
    net, theta = _page_fault_net()
    faults = _minor_faults_per_warm_call(lambda: net.value_and_gradient(theta))
    assert faults < 5, faults


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_minflt counts page faults on Linux")
def test_warm_hvp_does_not_page_fault():
    # R-passes at one theta write into the workspace and the kept curvature state
    net, theta = _page_fault_net()
    v = np.random.default_rng(3).standard_normal(net.dimension)
    faults = _minor_faults_per_warm_call(lambda: net.hvp(theta, v))
    assert faults < 5, faults


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_minflt counts page faults on Linux")
def test_warm_stacked_minibatch_gradients_do_not_page_fault():
    # a checkpoint's 160 batches of 32 rows, in chunks of the full-batch workspace
    net, theta = _page_fault_net()
    batches = np.random.default_rng(4).integers(0, net.dataset.n, size=(160, 32))
    faults = _minor_faults_per_warm_call(lambda: net.stochastic_gradients(theta, batches), 20)
    assert faults < 5, faults


def _stacks(n, rng):
    """(name, (k, b) batch stack) pairs for an n-row dataset, chunked n // b batches at a time."""
    return [
        ("partial chunk", rng.integers(0, n, size=(n // 5 + 3, 5))),
        ("b=1", rng.integers(0, n, size=(n + 2, 1))),
        ("b>n/2", rng.integers(0, n, size=(3, n // 2 + 1))),
        ("duplicates", np.array([[3, 3, 3, 7], [0, 0, n - 1, n - 1], [5, 5, 5, 5]])),
        ("b>n", rng.integers(0, n, size=(2, n + 9))),
        ("k=1", rng.integers(0, n, size=(1, 9))),
    ]


@pytest.mark.parametrize("kw", NETS)
def test_stochastic_gradients_are_the_rows_bit_for_bit(blob_dataset, kw):
    net = MLPCost(blob_dataset, hidden_sizes=(6, 5), **kw)
    rng = np.random.default_rng(12)
    theta = net.init_params(4) + 0.3 * rng.standard_normal(net.dimension)
    for name, batches in _stacks(blob_dataset.n, rng):
        got = net.stochastic_gradients(theta, batches)
        assert got.shape == (len(batches), net.dimension), name
        for row, batch in zip(got, batches):
            assert np.array_equal(row, net.stochastic_gradient(theta, batch)), name
        # the base class's row-by-row loop is the same oracle
        assert np.array_equal(got, CostFunction.stochastic_gradients(net, theta, batches)), name


@pytest.mark.parametrize("kw", NETS)
def test_stochastic_gradients_over_every_row_are_the_gradient(blob_dataset, kw):
    net = MLPCost(blob_dataset, hidden_sizes=(6, 5), **kw)
    theta = net.init_params(5)
    full = net.gradient(theta)
    rows = net.stochastic_gradients(theta, np.tile(np.arange(blob_dataset.n), (3, 1)))
    for row in rows:
        assert np.array_equal(row, full)


@pytest.mark.parametrize("kw", [*NETS, pytest.param(dict(activation="tanh", hidden_sizes=()),
                                                   id="no-hidden")])
def test_every_full_batch_entry_point_is_the_same_pass_bit_for_bit(blob_dataset, kw):
    # value, gradient, value_and_gradient and minibatches of every row share one pass
    kw = dict(kw)
    net = MLPCost(blob_dataset, hidden_sizes=kw.pop("hidden_sizes", (6, 5)), **kw)
    n = blob_dataset.n
    rng = np.random.default_rng(14)
    for theta in (net.init_params(3), net.init_params(4) + 0.3 * rng.standard_normal(net.dimension)):
        value, grad = net.value_and_gradient(theta)
        assert value == net.value(theta)
        assert np.array_equal(grad, net.gradient(theta))
        assert np.array_equal(grad, net.stochastic_gradient(theta, np.arange(n)))
        stacked = net.stochastic_gradients(theta, np.tile(np.arange(n), (2, 1)))
        assert np.array_equal(stacked, np.stack([grad, grad]))


@pytest.mark.parametrize("kw", NETS)
def test_weight_decayed_stochastic_gradients_are_the_rows(blob_dataset, kw):
    net = WeightDecayWrapped(MLPCost(blob_dataset, hidden_sizes=(6, 5), **kw), 0.03)
    rng = np.random.default_rng(13)
    theta = net.inner.init_params(6) + 0.3 * rng.standard_normal(net.dimension)
    batches = rng.integers(0, blob_dataset.n, size=(13, 8))
    got = net.stochastic_gradients(theta, batches)
    for row, batch in zip(got, batches):
        assert np.array_equal(row, net.stochastic_gradient(theta, batch))


def test_stochastic_gradients_contracts(blob_dataset):
    net = MLPCost(blob_dataset, hidden_sizes=(6,), activation="tanh")
    theta = net.init_params(0)
    bad = ([1, 2, 3], np.arange(5), [], np.empty((0, 4), dtype=int), np.empty((3, 0), dtype=int),
           [[0, 48]], [[-1, 0]], np.zeros((2, 2, 2), dtype=int))
    for cost in (net, WeightDecayWrapped(net, 0.1)):
        for batches in bad:
            with pytest.raises(ContractViolation):
                cost.stochastic_gradients(theta, batches)
            with pytest.raises(ContractViolation):
                CostFunction.stochastic_gradients(cost, theta, batches)
    with pytest.raises(ContractViolation):  # a cost without a dataset has none to stack
        Quadratic(np.eye(2)).stochastic_gradients(np.zeros(2), [[0]])


def _hvp_cases(net, seed, count=3):
    """(theta, direction) pairs away from the initialization."""
    rng = np.random.default_rng(seed)
    return [(net.init_params(s) + 0.3 * rng.standard_normal(net.dimension),
             rng.standard_normal(net.dimension)) for s in range(count)]


def _active(net, theta):
    """Which hidden pre-activations are positive, for every row and layer."""
    a, pattern = net.dataset.features, []
    for l, (W, b) in enumerate(net.unpack(theta)[:-1]):
        z = a @ W.T + b
        pattern.append(z > 0.0)
        a = np.maximum(z, 0.0)
        if l == 0 and net.normalize_first:
            r = np.linalg.norm(a, axis=1, keepdims=True)
            a = a / np.where(r > 0.0, r, 1.0)  # the cost's convention for a dead row
    return np.concatenate([p.ravel() for p in pattern])


@pytest.mark.parametrize("kw", NETS)
def test_hvp_matches_the_finite_difference_oracle(blob_dataset, kw):
    net = MLPCost(blob_dataset, hidden_sizes=(6, 5), **kw)
    checked = 0
    for theta, v in _hvp_cases(net, 8, count=5):
        step = _EPS_CBRT * (1.0 + np.linalg.norm(theta))  # CostFunction.hvp's step
        if kw["activation"] == "relu":
            # a relu kink within a step of theta breaks the difference, not the R-pass
            vhat = v / np.linalg.norm(v)
            if not all(np.array_equal(_active(net, theta), _active(net, theta + t * vhat))
                       for t in (step, -step)):
                continue
        exact = net.hvp(theta, v)
        fd = CostFunction.hvp(net, theta, v)
        # the difference's error is O(step^2); a dropped curvature term is O(1)
        assert np.linalg.norm(exact - fd) <= step * np.linalg.norm(fd)
        checked += 1
    assert checked >= 4


@pytest.mark.parametrize("kw", NETS)
def test_hvp_is_symmetric_to_rounding(blob_dataset, kw):
    # an exact Hessian product: u.Hw = w.Hu to rounding, relative to the
    # Cauchy-Schwarz scale; the finite difference misses this by 3.5e-12 or more
    net = MLPCost(blob_dataset, hidden_sizes=(6, 5), **kw)
    rng = np.random.default_rng(9)
    for theta, w in _hvp_cases(net, 9):
        u = rng.standard_normal(net.dimension)
        Hw, Hu = net.hvp(theta, w), net.hvp(theta, u)
        scale = max(np.linalg.norm(u) * np.linalg.norm(Hw), np.linalg.norm(w) * np.linalg.norm(Hu))
        assert abs(u @ Hw - w @ Hu) <= 1e-12 * scale, (u @ Hw, w @ Hu)


@pytest.mark.parametrize("kw", NETS)
def test_hvp_refuses_a_zero_direction(blob_dataset, kw):
    net = MLPCost(blob_dataset, hidden_sizes=(6, 5), **kw)
    theta = net.init_params(0)
    with pytest.raises(ContractViolation):
        net.hvp(theta, np.zeros(net.dimension))
    net.hvp(theta, np.ones(net.dimension))  # with a state kept at theta
    with pytest.raises(ContractViolation):
        net.hvp(theta, np.zeros(net.dimension))


@pytest.mark.parametrize("kw", NETS)
def test_hvp_after_theta_is_mutated_in_place_is_a_fresh_costs(blob_dataset, kw):
    # the state is keyed on theta's values, not on the array object
    net = MLPCost(blob_dataset, hidden_sizes=(6, 5), **kw)
    (theta, v), (other, _) = _hvp_cases(net, 10)[:2]
    first = net.hvp(theta, v)
    theta[:] = other
    got = net.hvp(theta, v)
    want = MLPCost(blob_dataset, hidden_sizes=(6, 5), **kw).hvp(other.copy(), v)
    assert np.array_equal(got, want)
    assert not np.array_equal(got, first)


def _head_cases(net, rng):
    """Parameter vectors whose logits are ordinary, overflow exp, and tie at the row max."""
    theta = net.init_params(2) + 0.3 * rng.standard_normal(net.dimension)
    classes, width = net.layer_sizes[-1], net.layer_sizes[-2]
    last_w = slice(net.dimension - classes * (width + 1), net.dimension - classes)
    last_b = slice(net.dimension - classes, net.dimension)
    big = theta.copy()
    big[last_w] *= 2e3  # logits in the thousands: exp overflows without the max shift
    tied_all = theta.copy()
    tied_all[last_w] = 0.0
    tied_all[last_b] = np.r_[2.0, 2.0, np.zeros(classes - 2)]  # every row ties classes 0 and 1
    tied_some = big.copy()
    W = tied_some[last_w].reshape(classes, width)
    W[-1] = W[0]
    tied_some[last_b.stop - 1] = tied_some[last_b.start]  # the last class copies class 0
    return {"plain": theta, "overflow": big, "tied_all": tied_all, "tied_some": tied_some}


@pytest.mark.parametrize("classes", [2, 4, 10])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_softmax_head_is_the_two_pass_formula_bit_for_bit(classes, activation):
    # the shared head against its formulas written out on class-major logits: sums
    # over classes, the loss mean and the bias gradient as vector products, and the
    # mean's 1/n folded into the softmax
    ds = synth_dataset(SynthSpec(n=60, d=3, classes=classes, cluster_spread=0.6, seed=classes))
    net = MLPCost(ds, hidden_sizes=(7,), activation=activation)
    n = ds.n
    onehot = np.eye(classes)[ds.labels].T
    for name, theta in _head_cases(net, np.random.default_rng(classes)).items():
        logits = np.ascontiguousarray(net.logits(theta).T)
        m = logits.max(axis=0)
        e = np.exp(logits - m)
        s = np.ones(classes) @ e
        lse = m + np.log(s)
        want_loss = float((lse - logits[ds.labels, np.arange(n)]) @ np.ones(n)) / n
        p = e / (s * n) - onehot / n
        want_bias_grad = p @ np.ones(n)

        value, grad = net.value_and_gradient(theta)
        assert value == net.value(theta) == want_loss, name
        assert np.array_equal(grad, net.gradient(theta)), name
        assert np.array_equal(grad[-classes:], want_bias_grad), name
        assert np.all(np.isfinite(grad)), name


@pytest.mark.parametrize("classes", [2, 4])
def test_accuracy_at_the_last_evaluated_theta_reads_its_logits(monkeypatch, classes):
    # bit for bit a fresh cost's accuracy, ties included, and with no forward pass
    ds = synth_dataset(SynthSpec(n=60, d=3, classes=classes, cluster_spread=0.6, seed=classes))
    net = MLPCost(ds, hidden_sizes=(7,), activation="tanh")
    forwards = []
    forward = net._forward
    monkeypatch.setattr(net, "_forward", lambda *a, **k: forwards.append(1) or forward(*a, **k))
    for name, theta in _head_cases(net, np.random.default_rng(classes)).items():
        want = MLPCost(ds, hidden_sizes=(7,), activation="tanh").accuracy(theta)
        for evaluate in (net.value, net.gradient, net.value_and_gradient):
            evaluate(theta)
            forwards.clear()
            assert net.accuracy(theta) == want, name
            assert net.accuracy(theta.copy()) == want, name  # equal by value
            assert not forwards, name
    # a minibatch pass keeps nothing, and a theta changed in place is evaluated afresh
    theta = net.init_params(5)
    net.value(theta)
    net.stochastic_gradient(3.0 * theta, np.arange(ds.n))
    theta *= 3.0
    forwards.clear()
    assert net.accuracy(theta) == MLPCost(ds, hidden_sizes=(7,), activation="tanh").accuracy(theta)
    assert len(forwards) == 1

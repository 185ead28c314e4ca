"""End-to-end acceptance criteria for the package.

Each criterion exercises a pinned, seeded configuration and checks a stated
tolerance. ``check_all`` runs them in order and returns one result per
criterion; the CLI ``check`` subcommand prints a machine-readable line for
each. The hidden corrupt_quadrature switch injects a broken quadrature rule
(the tau -> 0 node is dropped) to prove the identity criterion actually bites.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List

import numpy as np

from . import costs as C
from . import data as D
from . import metrics as M
from . import mlp as NN
from . import optimizer as O
from . import theory as T
from .errors import NearStationaryError


@dataclass
class CriterionResult:
    name: str
    measured: str
    bound: str
    passed: bool
    runtime_s: float = 0.0

    def report_line(self) -> str:
        return (f"criterion={self.name} measured=[{self.measured}] "
                f"bound=[{self.bound}] pass={'true' if self.passed else 'false'}")


def _result(name, measured, bound, passed) -> CriterionResult:
    return CriterionResult(name, measured, bound, bool(passed))


# --- shared fixtures -----------------------------------------------------------

BLOBS = D.SynthSpec(n=512, d=8, classes=4, cluster_spread=0.9, seed=11)
MLP_HIDDEN = (32, 32)
MLP_INIT_SEED = 7
ETA_STABLE = 2 / 20
ETA_UNSTABLE = 2 / 2


def _diag402():
    return C.Quadratic(np.diag([40.0, 2.0]))


def quadratic_stability_boundary() -> CriterionResult:
    """GD on diag(40,2) from (1,1): diverge / oscillate / converge across 2/L."""
    q = _diag402()
    got = {}
    agree = True
    for eta in (2 / 39, 2 / 40, 2 / 41):
        traj = O.gd_run(q, [1.0, 1.0], O.OptimizerConfig(eta=eta, max_iter=2000),
                        O.MetricFlags(rp=False, dir=False))
        got[eta] = traj.outcome
        agree &= T.quadratic_divergence_oracle(q.P, eta) == (traj.outcome == O.OUTCOME_DIVERGED)
    ok = (got[2 / 39] == O.OUTCOME_DIVERGED and got[2 / 40] == O.OUTCOME_BUDGET
          and got[2 / 41] == O.OUTCOME_CONVERGED and agree)
    measured = (f"2/39:{got[2/39]} 2/40:{got[2/40]} 2/41:{got[2/41]} "
                f"oracle_agreement={agree}")
    return _result("quadratic-stability-boundary", measured,
                   "diverged / budget_exhausted / converged, oracle agreement", ok)


def _identity_pool(rng):
    """100 seeded (cost, theta, eta) triples spanning the twice-differentiable zoo.

    eta * ||grad|| is kept bounded and gradients resolvable (||grad|| >= 1e-2):
    at saturated tanh points the rp numerator cancels to rounding noise, which
    would measure float error instead of quadrature error.
    """
    pool = []
    for _ in range(40):  # quadratics, exact case
        n = int(rng.integers(2, 11))
        lams = rng.uniform(0.2, 50.0, n)
        Qm, _ = np.linalg.qr(rng.standard_normal((n, n)))
        P = Qm @ np.diag(lams) @ Qm.T
        cost = C.Quadratic(0.5 * (P + P.T), rng.standard_normal(n) * 0.3)
        pool.append((cost, rng.standard_normal(n), float(rng.uniform(0.01, 0.1)), True))
    for _ in range(30):  # flattened quadratics, sampled in the non-saturated band
        n = int(rng.integers(2, 7))
        diag = rng.uniform(0.5, 30.0, n)
        cost = C.TanhQuadratic(np.diag(diag))
        direction = rng.standard_normal(n)
        u_target = rng.uniform(0.1, 1.2)
        theta = direction * np.sqrt(2.0 * u_target / float(direction @ (diag * direction)))
        pool.append((cost, theta, float(rng.uniform(0.005, 0.05)), False))
    for _ in range(15):  # single-neuron tanh nets
        cost = C.SingleNeuron("tanh")
        theta = np.array([rng.uniform(0.5, 3.0), rng.uniform(0.2, 1.0)])
        pool.append((cost, theta, float(rng.uniform(0.005, 0.05)), False))
    ds = D.synth_dataset(D.SynthSpec(n=32, d=4, classes=2, cluster_spread=0.6, seed=5))
    for k in range(15):  # small tanh classifiers
        cost = NN.MLPCost(ds, hidden_sizes=(8,), activation="tanh")
        pool.append((cost, cost.init_params(k), float(rng.uniform(0.02, 0.2)), False))
    for cost, theta, eta, _ in pool:
        gnorm = float(np.linalg.norm(cost.gradient(theta)))
        assert 1e-2 <= gnorm and eta * gnorm <= 20.0
    return pool


def rp_dir_identity(corrupt_quadrature: bool = False) -> CriterionResult:
    """rp equals -1 + (eta/2) * weighted dir integral across 100 random triples."""
    rng = np.random.default_rng(20240)
    include_zero = not corrupt_quadrature
    worst_quad = 0.0
    worst_other = 0.0
    refinement_ok = True
    for cost, theta, eta, is_quad in _identity_pool(rng):
        res = M.verify_identity(cost, theta, eta, include_zero_node=include_zero).residual
        if is_quad:
            worst_quad = max(worst_quad, res)
        else:
            worst_other = max(worst_other, res)
            res50 = M.verify_identity(cost, theta, eta, M.QuadratureGrid.default(50),
                                      include_zero_node=include_zero).residual
            res200 = M.verify_identity(cost, theta, eta, M.QuadratureGrid.default(200),
                                       include_zero_node=include_zero).residual
            refinement_ok &= res200 <= res50 + 1e-12
    ok = worst_quad <= 1e-10 and worst_other <= 1e-3 and refinement_ok
    measured = (f"max_residual quadratic={worst_quad:.2e} other={worst_other:.2e} "
                f"refinement_monotone={refinement_ok}")
    return _result("rp-dir-identity", measured,
                   "quadratic<=1e-10, other<=1e-3, residual shrinks at 200 vs 50 nodes", ok)


def edge_oscillation() -> CriterionResult:
    """At eta = 2/L the surviving top mode oscillates: dir * eta/2 -> 1."""
    q = _diag402()
    eta = 2 / 40
    traj = O.gd_run(q, [1.0, 1.0], O.OptimizerConfig(eta=eta, max_iter=200),
                    O.MetricFlags(rp=False, dir=False))
    g = q.gradient(traj.final_theta)
    ratio = M.directional_smoothness(q, traj.final_theta, eta * g) * eta / 2.0
    ok = 0.999 <= ratio <= 1.001
    return _result("edge-oscillation", f"dir*eta/2={ratio:.9f} after 200 steps",
                   "within [0.999, 1.001]", ok)


def flattened_quadratic_bounded() -> CriterionResult:
    """tanh-flattened quadratic at a diverging step size stays bounded for every step.

    Starts at (0.1, 0.1): from (1, 1) tanh(21) == 1.0, the gradient is 0 and no step is taken."""
    steps = 10_000
    cost = C.TanhQuadratic(np.diag([40.0, 2.0]))
    traj = O.gd_run(cost, [0.1, 0.1], O.OptimizerConfig(eta=2 / 39, max_iter=steps),
                    O.MetricFlags(rp=False, dir=False), record_iterates=True)
    taken = traj.samples[-1].iteration
    max_norm = max(float(np.linalg.norm(th)) for th in traj.iterates)
    ok = (traj.outcome == O.OUTCOME_BUDGET and taken == steps
          and np.isfinite(max_norm) and max_norm < 10.0)
    return _result("flattened-quadratic-bounded",
                   f"outcome={traj.outcome} steps={taken} max_norm={max_norm:.4f}",
                   f"budget_exhausted after {steps} steps, max ||theta|| < 10", ok)


def single_neuron_dichotomy() -> CriterionResult:
    """Linear net blows up; tanh net settles at curvature ~= 2/eta."""
    eta = 2 / 150
    flags = O.MetricFlags(rp=False, dir=False)
    lin = O.gd_run(C.SingleNeuron("linear"), [13.0, 0.01],
                   O.OptimizerConfig(eta=eta, max_iter=20_000, metric_cadence=100), flags)
    tanh_cost = C.SingleNeuron("tanh")
    tnh = O.gd_run(tanh_cost, [13.0, 0.01],
                   O.OptimizerConfig(eta=eta, max_iter=60_000, metric_cadence=100), flags)
    sharp = M.sharpness(tanh_cost, tnh.final_theta, tol=1e-8)
    rel = abs(sharp - 2 / eta) / (2 / eta)
    ok = (lin.outcome == O.OUTCOME_DIVERGED and tnh.outcome != O.OUTCOME_DIVERGED
          and tnh.final_loss < 1e-10 and rel <= 0.05)
    measured = (f"linear:{lin.outcome} tanh:{tnh.outcome} "
                f"final_sharpness={sharp:.2f} (2/eta={2/eta:.0f}, rel_err={rel:.3f})")
    return _result("single-neuron-dichotomy", measured,
                   "linear diverges, tanh converges with sharpness within 5% of 2/eta", ok)


def _classifier():
    return NN.MLPCost(D.synth_dataset(BLOBS), hidden_sizes=MLP_HIDDEN, activation="tanh")


def regime_signatures():
    """Returns (CriterionResult, unstable trajectory) so the segment bound can reuse it."""
    cost = _classifier()
    theta0 = cost.init_params(MLP_INIT_SEED)

    stable = O.gd_run(cost, theta0, O.OptimizerConfig(
        eta=ETA_STABLE, max_iter=6000, metric_cadence=5, stop_accuracy=0.95))
    call_s = O.classify_regime(stable, ETA_STABLE)

    unstable = O.gd_run(cost, theta0, O.OptimizerConfig(
        eta=ETA_UNSTABLE, max_iter=6000, metric_cadence=5, stop_accuracy=0.95),
        record_iterates=True)
    call_u = O.classify_regime(unstable, ETA_UNSTABLE)
    losses = [s.loss for s in unstable.samples]

    ok = (call_s.regime == O.REGIME_STABLE and call_s.frac_below_stable_cut >= 0.9
          and call_u.regime == O.REGIME_UNSTABLE and call_u.frac_near_zero >= 0.5
          and losses[-1] < losses[0])
    measured = (f"small-eta:{call_s.regime} (rp<-0.5 at {call_s.frac_below_stable_cut:.0%}) "
                f"large-eta:{call_u.regime} (|rp|<0.25 at {call_u.frac_near_zero:.0%}, "
                f"loss {losses[0]:.3f}->{losses[-1]:.3f})")
    result = _result("regime-signatures", measured,
                     "stable: >=90% rp below -0.5; unstable: >=50% rp near 0 with net loss drop",
                     ok)
    return result, (cost, unstable)


def segment_sharpness_bound(cost, unstable: O.Trajectory) -> CriterionResult:
    """(2/eta)(rp+1) <= max sharpness along the step segment, up to 1% of 2/eta."""
    eta = ETA_UNSTABLE
    tol = 0.01 * (2 / eta)
    iterates = unstable.iterates
    idx = list(range(15, len(iterates) - 1, 15))
    held = 0
    worst = -np.inf
    for i in idx:
        theta = iterates[i]
        try:
            rp = M.relative_progress(cost, theta, eta)
        except NearStationaryError:
            held += 1
            continue
        lhs = (2 / eta) * (rp + 1.0)
        seg = M.segment_max_sharpness(cost, theta, eta, samples=11, tol=1e-4, max_iter=30_000)
        slack = lhs - seg
        worst = max(worst, slack)
        held += slack <= tol
    frac = held / len(idx)
    ok = frac >= 0.99
    measured = f"bound held at {held}/{len(idx)} sampled iterates, worst lhs-rhs={worst:.4f}"
    return _result("segment-sharpness-bound", measured,
                   f">=99% of iterates within +{tol:.3f}", ok)


def homogeneous_block_gradient() -> CriterionResult:
    """Scale-invariant first layer: data-fit gradient orthogonal to the block,
    and with weight decay the block gradient never drops below 2*gamma*||zeta||."""
    ds = D.synth_dataset(D.SynthSpec(n=256, d=8, classes=4, cluster_spread=0.9, seed=11))
    net = NN.MLPCost(ds, hidden_sizes=(16, 16), activation="relu", normalize_first=True)
    gamma = 0.01
    wrapped = C.WeightDecayWrapped(net, gamma)
    zeta_idx = net.homogeneous_indices
    worst_ratio = 0.0
    decay_ok = True
    for seed in range(100):
        theta = net.init_params(seed)
        inner = abs(T.homogeneity_orthogonality(net, theta))
        grad = net.gradient(theta)
        zeta = theta[zeta_idx]
        scale = float(np.linalg.norm(grad)) * float(np.linalg.norm(zeta))
        worst_ratio = max(worst_ratio, inner / scale)
        zeta_grad = float(np.linalg.norm(wrapped.gradient(theta)[zeta_idx]))
        decay_ok &= zeta_grad >= 2 * gamma * float(np.linalg.norm(zeta)) - 1e-8
    ok = worst_ratio <= 1e-8 and decay_ok
    measured = (f"max |<grad_zeta, zeta>| / (||grad|| ||zeta||) = {worst_ratio:.2e} "
                f"over 100 points; decay lower bound held={decay_ok}")
    return _result("homogeneous-block-gradient", measured,
                   "orthogonality <= 1e-8 relative; ||grad_zeta|| >= 2*gamma*||zeta|| - 1e-8", ok)


def sgd_expected_rp() -> CriterionResult:
    """Stochastic rp: minibatch LHS/RHS agree on the relu net; closed form holds
    on the noise-injected isotropic quadratic."""
    ds = D.synth_dataset(BLOBS)
    net = NN.MLPCost(ds, hidden_sizes=MLP_HIDDEN, activation="relu")
    theta0 = net.init_params(MLP_INIT_SEED)
    worst_gap = 0.0
    checkpoints = 0
    for eta in (2 / 50, 2 / 100):
        traj = O.sgd_run(net, theta0, O.OptimizerConfig(
            eta=eta, max_iter=12, batch_size=32, seed=5),
            O.MetricFlags(rp=True, dir=False), record_checkpoints=True)
        for k, theta in enumerate(traj.iterates):
            # matching seeds pair the two estimators on identical batch draws
            lhs, _ = M.expected_rp(net, theta, eta, 32, 160, seed=1000 + k)
            rhs, _ = M.expected_rp_rhs(net, theta, eta, 32, 160, seed=1000 + k)
            worst_gap = max(worst_gap, abs(lhs - rhs))
            checkpoints += 1

    dim, lam, sigma, eta_q = 10, 3.0, 0.5, 0.1
    quad = C.Quadratic(lam * np.eye(dim))
    theta_q = np.random.default_rng(42).standard_normal(dim)
    gnorm2 = float(quad.gradient(theta_q) @ quad.gradient(theta_q))
    closed = -1.0 + (eta_q * lam / 2.0) * (1.0 + sigma**2 * dim / gnorm2)
    sampler = lambda rng: quad.gradient(theta_q) + sigma * rng.standard_normal(dim)
    est, se = M.expected_rp(quad, theta_q, eta_q, 1, 20_000, seed=7, grad_sampler=sampler)
    quad_ok = abs(est - closed) <= 3 * se

    ok = worst_gap <= 0.1 and quad_ok
    measured = (f"worst |lhs-rhs|={worst_gap:.4f} over {checkpoints} epoch checkpoints; "
                f"noisy quadratic |est-closed|={abs(est-closed):.2e} (3*se={3*se:.2e})")
    return _result("sgd-expected-rp", measured,
                   "|lhs-rhs| <= 0.1 at every checkpoint; closed form within 3 stderr", ok)


def sharpness_estimator() -> CriterionResult:
    """Certified Lanczos vs the dense Jacobi eigensolver, indefinite included."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for k in range(50):
        n = int(rng.integers(2, 51))
        lams = np.sort(rng.uniform(-8.0, 8.0, n))
        lams[-1] = lams[-2] + 0.1 + rng.uniform(0.0, 2.0)  # top eigengap >= 0.1
        Qm, _ = np.linalg.qr(rng.standard_normal((n, n)))
        P = Qm @ np.diag(lams) @ Qm.T
        P = 0.5 * (P + P.T)
        dense = T.jacobi_spectrum(P).lambda_max
        est = M.sharpness(C.Quadratic(P), np.zeros(n), tol=1e-10,
                          max_iter=100_000, seed=k)
        worst = max(worst, abs(est - dense) / abs(dense))
    ok = worst <= 1e-6
    return _result("sharpness-estimator", f"worst relative error {worst:.2e} over 50 matrices",
                   "<= 1e-6 vs dense eigensolver", ok)


def escape_experiment_criterion() -> CriterionResult:
    """All perturbed starts leave the sharp stationary point yet stay bounded."""
    cost = C.TanhQuadratic(np.diag([40.0, 2.0]))
    origin_sharp = M.sharpness(cost, [0.0, 0.0], tol=1e-8)
    res = O.escape_experiment(cost, [0.0, 0.0], perturb_scale=1e-4, eta=2 / 39,
                              iters=600, trials=100, seed=3)
    ctl = O.escape_experiment(cost, [0.0, 0.0], perturb_scale=1e-4, eta=2 / 41,
                              iters=600, trials=100, seed=3)
    ok = (origin_sharp > 39.0 and res.fraction == 1.0
          and res.max_iterate_norm < 10.0 and ctl.fraction == 0.0)
    measured = (f"sharpness(origin)={origin_sharp:.2f} escaped={res.fraction:.2f} "
                f"max_norm={res.max_iterate_norm:.3f}; control escaped={ctl.fraction:.2f}")
    return _result("escape-experiment", measured,
                   "fraction 1.0 bounded at eta=2/39; fraction 0.0 at eta=2/41", ok)


def check_all(corrupt_quadrature: bool = False) -> List[CriterionResult]:
    results: List[CriterionResult] = []

    def run(fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        result = out[0] if isinstance(out, tuple) else out
        result.runtime_s = round(time.perf_counter() - t0, 3)
        results.append(result)
        return out

    run(quadratic_stability_boundary)
    run(rp_dir_identity, corrupt_quadrature=corrupt_quadrature)
    run(edge_oscillation)
    run(flattened_quadratic_bounded)
    run(single_neuron_dichotomy)
    _, (cost, unstable) = run(regime_signatures)
    run(segment_sharpness_bound, cost, unstable)
    run(homogeneous_block_gradient)
    run(sgd_expected_rp)
    run(sharpness_estimator)
    run(escape_experiment_criterion)
    return results

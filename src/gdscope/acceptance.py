"""End-to-end acceptance criteria for the package.

Each criterion exercises a pinned, seeded configuration and checks a stated
tolerance; one with a shipped preset builds its run from that preset, which
``gdscope run <preset>`` replays. ``check_all`` runs them in order and returns
one result per criterion; the CLI ``check`` subcommand prints a
machine-readable line for each.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import List

import numpy as np

from . import costs as C
from . import data as D
from . import experiments as E
from . import metrics as M
from . import mlp as NN
from . import optimizer as O
from . import theory as T


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


def _preset_run(name):
    """(spec, cost, theta0) of the shipped preset ``name``."""
    spec = E.load_preset(name)
    cost, theta0 = E.build_cost(spec)
    return spec, cost, theta0


def quadratic_stability_boundary() -> CriterionResult:
    """quad-sweep, GD on diag(40,2) from (1,1): diverge / oscillate / converge across 2/L."""
    spec, q, theta0 = _preset_run("quad-sweep")
    outcomes = []
    agree = True
    for eta in spec.etas:
        traj = O.gd_run(q, theta0, spec.optimizer_config(eta), spec.flags)
        outcomes.append(traj.outcome)
        agree &= T.quadratic_divergence_oracle(q.P, eta) == (traj.outcome == O.OUTCOME_DIVERGED)
    ok = outcomes == [O.OUTCOME_DIVERGED, O.OUTCOME_BUDGET, O.OUTCOME_CONVERGED] and agree
    measured = " ".join(f"2/{2 / eta:.0f}:{got}" for eta, got in zip(spec.etas, outcomes))
    measured += f" oracle_agreement={agree}"
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


def rp_dir_identity() -> CriterionResult:
    """rp equals -1 + (eta/2) * weighted dir integral across 100 random triples."""
    rng = np.random.default_rng(20240)
    worst_quad = 0.0
    worst_other = 0.0
    refinement_ok = True
    finer = M.QuadratureGrid(2 * M.TAU_NODES)
    for cost, theta, eta, is_quad in _identity_pool(rng):
        res = M.verify_identity(cost, theta, eta).residual
        if is_quad:
            worst_quad = max(worst_quad, res)
        else:
            worst_other = max(worst_other, res)
            refinement_ok &= M.verify_identity(cost, theta, eta, finer).residual <= res + 1e-12
    ok = worst_quad <= 1e-10 and worst_other <= 1e-10 and refinement_ok
    measured = (f"max_residual quadratic={worst_quad:.2e} other={worst_other:.2e} "
                f"refinement_monotone={refinement_ok}")
    return _result("rp-dir-identity", measured,
                   f"quadratic<=1e-10, other<=1e-10, no worse at {2 * M.TAU_NODES} "
                   f"than {M.TAU_NODES} nodes", ok)


def edge_oscillation() -> CriterionResult:
    """quad-sweep at eta = 2/L: the surviving top mode oscillates, dir * eta/2 -> 1, read
    from the run's last sample."""
    spec, q, theta0 = _preset_run("quad-sweep")
    _, eta, _ = spec.etas  # diverging, 2/L, converging
    config = replace(spec.optimizer_config(eta), max_iter=200)
    last = O.gd_run(q, theta0, config, spec.flags).samples[-1]
    ratio = float("nan") if last.dir is None else last.dir * eta / 2.0
    ok = 0.999 <= ratio <= 1.001
    return _result("edge-oscillation", f"dir*eta/2={ratio:.9f} after {config.max_iter} steps",
                   "within [0.999, 1.001]", ok)


def flattened_quadratic_bounded() -> CriterionResult:
    """flat-quad: the tanh-flattened quadratic at a diverging step size stays bounded
    for every step."""
    spec, cost, theta0 = _preset_run("flat-quad")
    config = spec.optimizer_config(spec.etas[0])
    steps = config.max_iter
    traj = O.gd_run(cost, theta0, config, spec.flags, record_iterates=True)
    taken = traj.samples[-1].iteration
    max_norm = max(float(np.linalg.norm(th)) for th in traj.iterates)
    ok = (traj.outcome == O.OUTCOME_BUDGET and taken == steps
          and np.isfinite(max_norm) and max_norm < 10.0)
    return _result("flattened-quadratic-bounded",
                   f"outcome={traj.outcome} steps={taken} max_norm={max_norm:.4f}",
                   f"budget_exhausted after {steps} steps, max ||theta|| < 10", ok)


def single_neuron_dichotomy() -> CriterionResult:
    """single-neuron-linear blows up; single-neuron-tanh settles at curvature ~= 2/eta."""
    spec, cost, theta0 = _preset_run("single-neuron-linear")
    lin = O.gd_run(cost, theta0, spec.optimizer_config(spec.etas[0]), spec.flags)
    spec, tanh_cost, theta0 = _preset_run("single-neuron-tanh")
    eta = spec.etas[0]
    tnh = O.gd_run(tanh_cost, theta0, spec.optimizer_config(eta), spec.flags)
    sharp = M.sharpness(tanh_cost, tnh.final_theta, tol=1e-8)
    rel = abs(sharp - 2 / eta) / (2 / eta)
    ok = (lin.outcome == O.OUTCOME_DIVERGED and tnh.outcome != O.OUTCOME_DIVERGED
          and tnh.final_loss < 1e-10 and rel <= 0.05)
    measured = (f"linear:{lin.outcome} tanh:{tnh.outcome} "
                f"final_sharpness={sharp:.2f} (2/eta={2/eta:.0f}, rel_err={rel:.3f})")
    return _result("single-neuron-dichotomy", measured,
                   "linear diverges, tanh converges with sharpness within 5% of 2/eta", ok)


def regime_signatures():
    """Returns (CriterionResult, (cost, unstable trajectory, eta)) for the segment bound."""
    spec, cost, theta0 = _preset_run("mlp-gd-stable")
    stable = O.gd_run(cost, theta0, spec.optimizer_config(spec.etas[0]), spec.flags)
    call_s = O.classify_regime(stable)

    spec, cost, theta0 = _preset_run("mlp-gd-unstable")
    eta = spec.etas[0]
    unstable = O.gd_run(cost, theta0, spec.optimizer_config(eta), spec.flags,
                        record_iterates=True)
    call_u = O.classify_regime(unstable)
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
    return result, (cost, unstable, eta)


def segment_sharpness_bound(cost, unstable: O.Trajectory, eta: float) -> CriterionResult:
    """(2/eta)(rp+1) <= max sharpness along the step segment, up to 1% of 2/eta, with rp
    read from the run's cadence-5 samples. Rigorous on C² costs only (the mean-value
    theorem along the segment), as on this tanh net; on a relu net, whose gradient jumps
    where a pre-activation changes sign on the segment, the bound is empirical."""
    tol = 0.01 * (2 / eta)
    iterates = unstable.iterates
    rps = {s.iteration: s.rp for s in unstable.samples}
    idx = list(range(15, len(iterates) - 1, 15))
    held, worst = 0, -np.inf
    for i in idx:
        if rps[i] is None:  # the step is unmeasurable there: nothing to bound
            held += 1
            continue
        lhs = (2 / eta) * (rps[i] + 1.0)
        seg = M.segment_max_sharpness(cost, iterates[i], eta, samples=11, tol=1e-4,
                                      max_iter=30_000)
        slack = lhs - seg
        worst = max(worst, slack)
        held += slack <= tol
    frac = held / len(idx)
    ok = frac >= 0.99
    measured = f"bound held at {held}/{len(idx)} sampled iterates, worst lhs-rhs={worst:.4f}"
    return _result("segment-sharpness-bound", measured,
                   f">=99% of iterates within +{tol:.3f}", ok)


def homogeneous_block_gradient() -> CriterionResult:
    """norm-layer-decay: data-fit gradient orthogonal to the scale-invariant block,
    and with weight decay the block gradient never drops below 2*gamma*||zeta||."""
    _, wrapped, _ = _preset_run("norm-layer-decay")
    net, gamma = wrapped.inner, wrapped.gamma
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
    """Stochastic rp: minibatch LHS/RHS agree along sgd-check-relu's runs; closed
    form holds on the noise-injected isotropic quadratic."""
    spec, net, theta0 = _preset_run("sgd-check-relu")
    worst_gap = 0.0
    checkpoints = 0
    # the first two step sizes only: each costs about a second, and at the third
    # (2/150) the worst gap, 0.046, is no wider than at the second
    for eta in spec.etas[:2]:
        config = spec.optimizer_config(eta)
        traj = O.sgd_run(net, theta0, config, O.MetricFlags(rp=True, dir=False),
                         record_checkpoints=True)
        for k, theta in enumerate(traj.iterates):
            # matching seeds pair the two estimators on identical batch draws
            lhs, _ = M.expected_rp(net, theta, eta, config.batch_size, 160, seed=1000 + k)
            rhs, _ = M.expected_rp_rhs(net, theta, eta, config.batch_size, 160, seed=1000 + k)
            worst_gap = max(worst_gap, abs(lhs - rhs))
            checkpoints += 1

    dim, lam, sigma, eta_q = 10, 3.0, 0.5, 0.1
    quad = C.Quadratic(lam * np.eye(dim))
    theta_q = np.random.default_rng(42).standard_normal(dim)
    gnorm2 = float(quad.gradient(theta_q) @ quad.gradient(theta_q))
    closed = -1.0 + (eta_q * lam / 2.0) * (1.0 + sigma**2 * dim / gnorm2)
    sampler = lambda rng: quad.gradient(theta_q) + sigma * rng.standard_normal(dim)
    est, se = M.expected_rp(quad, theta_q, eta_q, 1, 20_000, seed=7, grad_sampler=sampler)
    # the RHS of the same draw, parked by the call above; on lam*I, dir is exactly
    # lam, so both sides have the closed form as their expectation
    est_rhs, se_rhs = M.expected_rp_rhs(quad, theta_q, eta_q, 1, 20_000, seed=7,
                                        grad_sampler=sampler)
    quad_ok = abs(est - closed) <= 3 * se and abs(est_rhs - closed) <= 3 * se_rhs

    ok = worst_gap <= 0.1 and quad_ok
    measured = (f"worst |lhs-rhs|={worst_gap:.4f} over {checkpoints} epoch checkpoints; "
                f"noisy quadratic |lhs-closed|={abs(est-closed):.2e} (3*se={3*se:.2e}), "
                f"|rhs-closed|={abs(est_rhs-closed):.2e} (3*se={3*se_rhs:.2e})")
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
    """flat-quad: all perturbed starts leave the sharp stationary point yet stay bounded."""
    spec, cost, _ = _preset_run("flat-quad")
    origin_sharp = M.sharpness(cost, [0.0, 0.0], tol=1e-8)
    res = O.escape_experiment(cost, [0.0, 0.0], perturb_scale=1e-4, eta=spec.etas[0],
                              iters=600, trials=100, seed=3)
    ctl = O.escape_experiment(cost, [0.0, 0.0], perturb_scale=1e-4, eta=2 / 41,
                              iters=600, trials=100, seed=3)
    ok = (origin_sharp > 39.0 and res.fraction == 1.0
          and res.max_iterate_norm < 10.0 and ctl.fraction == 0.0)
    measured = (f"sharpness(origin)={origin_sharp:.2f} escaped={res.fraction:.2f} "
                f"max_norm={res.max_iterate_norm:.3f}; control escaped={ctl.fraction:.2f}")
    return _result("escape-experiment", measured,
                   "fraction 1.0 bounded at eta=2/39; fraction 0.0 at eta=2/41", ok)


def check_all() -> List[CriterionResult]:
    results: List[CriterionResult] = []

    def run(fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        result = out[0] if isinstance(out, tuple) else out
        result.runtime_s = round(time.perf_counter() - t0, 3)
        results.append(result)
        return out

    run(quadratic_stability_boundary)
    run(rp_dir_identity)
    run(edge_oscillation)
    run(flattened_quadratic_bounded)
    run(single_neuron_dichotomy)
    _, unstable_run = run(regime_signatures)
    run(segment_sharpness_bound, *unstable_run)
    run(homogeneous_block_gradient)
    run(sgd_expected_rp)
    run(sharpness_estimator)
    run(escape_experiment_criterion)
    return results

"""Every shipped preset is a run that some check reads.

A preset is read by an acceptance criterion (``PRESETS_LOADED``, which the
criteria's ``load_preset`` spy verifies), by the benchmark's ``preset-w200``
workload, or by one claim test below, which runs it as shipped and asserts
what the preset's own comment says.
"""

import ast
from pathlib import Path

import pytest

from gdscope import acceptance, experiments
from gdscope import optimizer as O
from test_acceptance import PRESETS_LOADED

# the presets the claim tests below run, each through _run
CLAIMED = ("mlp-relu-gd", "mlp-relu-deep-gd", "sgd-relu", "tau-grid")


def _benchmark_preset():
    """perfbench's ``PresetW200.PRESET``, read from its source without importing it."""
    source = (Path(__file__).parents[1] / "perfbench" / "workloads.py").read_text()
    workload = next(node for node in ast.parse(source).body
                    if isinstance(node, ast.ClassDef) and node.name == "PresetW200")
    return next(ast.literal_eval(node.value) for node in workload.body
                if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "PRESET")


def _run(name):
    """The shipped preset's run, as ``gdscope run <name>`` makes it."""
    assert name in CLAIMED
    spec, cost, theta0 = acceptance._preset_run(name)
    run = O.sgd_run if spec.algorithm == "sgd" else O.gd_run
    return run(cost, theta0, spec.optimizer_config(spec.etas[0]), spec.flags)


def test_every_shipped_preset_has_one_reader():
    readers = [*PRESETS_LOADED, _benchmark_preset(), *CLAIMED]
    assert len(readers) == len(set(readers))  # a claim test only where nothing else reads
    assert set(experiments.preset_names()) == set(readers)


@pytest.mark.parametrize("name", ["mlp-relu-gd", "mlp-relu-deep-gd"])
def test_relu_gd_converges_with_rp_near_zero(name):
    # the relu variants of mlp-gd-unstable: the classifier's band rule, not its
    # majority fallback, calls the run unstable, and GD still converges
    traj = _run(name)
    call = O.classify_regime(traj)
    assert traj.outcome == O.OUTCOME_CONVERGED
    assert call.regime == O.REGIME_UNSTABLE and call.frac_near_zero >= O.UNSTABLE_FRAC
    assert traj.samples[-1].loss < traj.samples[0].loss, call.reason


def test_sgd_relu_expected_rp_goes_positive_while_the_loss_falls():
    # positive at many epoch checkpoints, though the full-batch loss falls across them
    traj = _run("sgd-relu")
    positive = [i for i, s in enumerate(traj.samples) if s.rp is not None and s.rp > 0]
    losses = [s.loss for s in traj.samples]
    assert len(positive) >= len(losses) // 4
    assert losses[positive[-1]] < losses[positive[0]] and losses[-1] < losses[0]


def test_tau_grid_holds_the_identity_at_every_sample():
    # along an unstable network run: the shipped start reads at most 1.4e-11, ten
    # perturbed starts at most 2.2e-7, and the 100-node trapezoid 9.8e-6
    residuals = [s.identity_residual for s in _run("tau-grid").samples]
    assert None not in residuals and max(residuals) <= 1e-6

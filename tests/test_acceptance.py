"""Package-level acceptance suite.

Runs every criterion at its stated tolerance exactly once (shared across the
module) and prints one machine-readable pass/fail line per criterion, the same
lines the ``gdscope check`` command emits. Stated runtime budgets are asserted
alongside the numerical bounds.
"""

from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from gdscope import acceptance, experiments, metrics

RUNTIME_BUDGETS_S = {
    "quadratic-stability-boundary": 1.0,
    "rp-dir-identity": 5.0,
    "edge-oscillation": 1.0,
    "flattened-quadratic-bounded": 1.0,
    "single-neuron-dichotomy": 1.0,
    "regime-signatures": 10.0,  # shared budget with the segment bound below
    "segment-sharpness-bound": 10.0,
    "homogeneous-block-gradient": 2.0,
    "sgd-expected-rp": 10.0,
    "sharpness-estimator": 2.0,
    "escape-experiment": 5.0,
}


# the shipped presets check_all builds its runs from, and how often: quad-sweep
# and flat-quad each feed two criteria
PRESETS_LOADED = {"quad-sweep": 2, "flat-quad": 2, "single-neuron-linear": 1,
                  "single-neuron-tanh": 1, "mlp-gd-stable": 1, "mlp-gd-unstable": 1,
                  "norm-layer-decay": 1, "sgd-check-relu": 1}


# one-shot metrics whose values the criteria read from their runs' traces instead
TRACED = ("relative_progress", "directional_smoothness")


def _spy(calls, name, fn):
    return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)


@pytest.fixture(scope="module")
def checked():
    """check_all's results by name, the preset names it loaded, and its calls of TRACED."""
    loaded, measured = [], []
    load = experiments.load_preset
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(experiments, "load_preset", lambda name: loaded.append(name) or load(name))
        for name in TRACED:
            patched.setattr(metrics, name, _spy(measured, name, getattr(metrics, name)))
        out = acceptance.check_all()
    print()
    for r in out:
        print(f"{r.report_line()} runtime={r.runtime_s}s")
    return {r.name: r for r in out}, loaded, measured


@pytest.fixture(scope="module")
def results(checked):
    return checked[0]


def test_all_criteria_present(results):
    assert set(results) == set(RUNTIME_BUDGETS_S)


def test_criteria_run_the_shipped_presets(checked):
    assert Counter(checked[1]) == PRESETS_LOADED


def test_criteria_read_rp_and_dir_from_their_traces(checked):
    assert checked[2] == []


@pytest.mark.parametrize("name", sorted(RUNTIME_BUDGETS_S))
def test_criterion(results, name):
    r = results[name]
    assert r.passed, r.report_line()


def test_runtime_budgets(results):
    shared = results["regime-signatures"].runtime_s + results["segment-sharpness-bound"].runtime_s
    assert shared < RUNTIME_BUDGETS_S["regime-signatures"]
    for name, budget in RUNTIME_BUDGETS_S.items():
        if name in ("regime-signatures", "segment-sharpness-bound"):
            continue
        assert results[name].runtime_s < budget, f"{name} took {results[name].runtime_s}s"


def _trapezoid_extrapolated(taus, dirs):
    """The trapezoid of 2*tau*dir(tau) over (0, taus), its tau = 0 end linearly
    extrapolated from the first two nodes: the rule the tau sweep used before."""
    g = 2.0 * taus * dirs
    g0 = g[..., :1] - taus[0] * (g[..., 1:2] - g[..., :1]) / (taus[1] - taus[0])
    y, x = np.concatenate((g0, g), axis=-1), np.concatenate(([0.0], taus))
    return ((y[..., 1:] + y[..., :-1]) * np.diff(x) / 2.0).sum(axis=-1)


def test_fault_injection_breaks_identity_criterion(monkeypatch):
    # the 100-node trapezoid, a rule linear in dir, as the default grid: its 1.1e-5 of
    # quadrature error must be caught, and by the right criterion
    taus = np.linspace(0.01, 1.0, 100)
    trapezoid = SimpleNamespace(taus=taus, weights=_trapezoid_extrapolated(taus, np.eye(100)))
    monkeypatch.setattr(metrics, "_DEFAULT_GRID", trapezoid)
    broken = acceptance.rp_dir_identity()
    assert not broken.passed
    assert broken.name == "rp-dir-identity"
    assert "rp-dir-identity" in broken.report_line()
    assert "other=1.13e-05" in broken.report_line()

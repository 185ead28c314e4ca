"""Package-level acceptance suite.

Runs every criterion at its stated tolerance exactly once (shared across the
module) and prints one machine-readable pass/fail line per criterion, the same
lines the ``gdscope check`` command emits. Stated runtime budgets are asserted
alongside the numerical bounds.
"""

import pytest

from gdscope import acceptance

RUNTIME_BUDGETS_S = {
    "quadratic-stability-boundary": 1.0,
    "rp-dir-identity": 5.0,
    "edge-oscillation": 1.0,
    "flattened-quadratic-bounded": 1.0,
    "single-neuron-dichotomy": 1.0,
    "regime-signatures": 20.0,  # shared budget with the segment bound below
    "segment-sharpness-bound": 20.0,
    "homogeneous-block-gradient": 2.0,
    "sgd-expected-rp": 20.0,
    "sharpness-estimator": 2.0,
    "escape-experiment": 5.0,
}


@pytest.fixture(scope="module")
def results():
    out = acceptance.check_all()
    print()
    for r in out:
        print(f"{r.report_line()} runtime={r.runtime_s}s")
    return {r.name: r for r in out}


def test_all_criteria_present(results):
    assert set(results) == set(RUNTIME_BUDGETS_S)


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


def test_fault_injection_breaks_identity_criterion():
    # a corrupted quadrature rule must be caught, and by the right criterion
    broken = acceptance.rp_dir_identity(corrupt_quadrature=True)
    assert not broken.passed
    assert broken.name == "rp-dir-identity"
    assert "rp-dir-identity" in broken.report_line()

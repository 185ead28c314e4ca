"""Every malformed value of a config field exits 2 through ``cli.main``."""

import contextlib
import io
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdscope import cli

QUAD = """\
[experiment]
name = bad-quad

[cost]
kind = quadratic
p_diag = {p_diag}
{q}
r = {r}
weight_decay = {weight_decay}

[init]
theta0 = {theta0}

[optimizer]
eta = {eta}
max_iter = 5
stop_accuracy = {stop_accuracy}
"""

MLP = """\
[experiment]
name = bad-mlp

[cost]
kind = mlp
hidden = {hidden}
activation = {activation}
weight_decay = {weight_decay}

[dataset]
n = 16
d = 3
classes = 2
spread = {spread}

[optimizer]
eta = 0.1
max_iter = 2
"""

GOOD = dict(p_diag="40, 2", q="", r="0", weight_decay="0", theta0="1, 1", eta="0.01",
            stop_accuracy="1", hidden="4", activation="tanh", spread="0.9")

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _num(x: float) -> str:
    return repr(float(x))


def _with_one_bad(bad) -> st.SearchStrategy:
    """Two comma-separated entries, at least one of them drawn from ``bad``."""
    return st.tuples(bad, FINITE).flatmap(
        lambda p: st.sampled_from([f"{_num(p[0])}, {_num(p[1])}", f"{_num(p[1])}, {_num(p[0])}"]))


def _wrong_length(lengths) -> st.SearchStrategy:
    return st.sampled_from(lengths).flatmap(
        lambda n: st.lists(FINITE, min_size=n, max_size=n).map(lambda xs: ", ".join(map(_num, xs))))


# field -> (config template, strategy of malformed values, text the error names)
MALFORMED = {
    "eta": (QUAD, (st.floats(max_value=0.0) | NON_FINITE).map(_num), "eta"),
    "stop_accuracy": (QUAD, (st.floats(max_value=0.0) | st.floats(min_value=1.0, exclude_min=True)
                             | NON_FINITE).map(_num), "stop_accuracy"),
    "p_diag": (QUAD, _with_one_bad(NON_FINITE), "cost.p_diag"),
    "theta0": (QUAD, _with_one_bad(NON_FINITE) | _wrong_length([1, 3, 4]), "init.theta0"),
    "q": (QUAD, (_with_one_bad(NON_FINITE) | _wrong_length([1, 3, 4])).map(lambda t: f"q = {t}"),
          "cost.q"),
    "r": (QUAD, NON_FINITE.map(_num), "cost.r"),
    "weight_decay": (QUAD, (st.floats(max_value=0.0, exclude_max=True) | NON_FINITE).map(_num),
                     "cost.weight_decay"),
    "hidden": (MLP, st.integers(max_value=0).map(str)
               | st.floats(allow_nan=False, allow_infinity=False)
                   .filter(lambda x: not x.is_integer()).map(_num), "cost.hidden"),
    "activation": (MLP, st.text("abcdefghijklmnopqrstuvwxyz_0123456789", min_size=1, max_size=12)
                   .filter(lambda a: a not in ("tanh", "relu", "linear")), "activation"),
    "spread": (MLP, (st.floats(max_value=0.0) | NON_FINITE).map(_num), "cluster_spread"),
}


def _exit_code(template: str, field: str, value: str):
    fields = dict(GOOD, **{field: value})
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "bad.cfg"
        cfg.write_text(template.format(**fields))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", str(cfg), "--outdir", tmp])
    return code, err.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(MALFORMED)).flatmap(
    lambda field: st.tuples(st.just(field), MALFORMED[field][1])))
def test_malformed_field_exits_2(case):
    field, value = case
    template, _, named = MALFORMED[field]
    code, err = _exit_code(template, field, value)
    assert code == 2, (field, value, err)
    assert named in err, (field, value, err)


def test_well_formed_templates_run():
    for template in (QUAD, MLP):
        assert _exit_code(template, "eta", GOOD["eta"])[0] == 0


# the MLP template's net has dimension 26
MLP_THETA0 = MLP + "\n[init]\ntheta0 = " + ", ".join(["0.1"] * 26) + "\n"
CIFAR = MLP.replace("n = 16\nd = 3\nclasses = 2\nspread = {spread}\n",
                    "source = cifar10\npath = data_batch_1.bin\n")


@pytest.mark.parametrize("template, section, key, value", [
    pytest.param(QUAD, "optimizer", "blowup_threshold", "1e12", id="blowup_threshold"),
    pytest.param(MLP, "cost", "normalize_eps", "0", id="normalize_eps"),
    pytest.param(QUAD + "\n[metrics]\ntau_sweep = true\n", "metrics", "tau_points", "abc",
                 id="tau_points"),
    pytest.param(QUAD + "\n[metrics]\n", "metrics", "identity", "true", id="identity"),
    pytest.param(QUAD + "\n[metrics]\n", "metrics", "tau_points", "0", id="tau_points-zero"),
    pytest.param(QUAD, "experiment", "colour", "red", id="experiment"),
    pytest.param(QUAD + "\n[output]\n", "output", "pth", "run.csv", id="output"),
    pytest.param(MLP, "dataset", "sead", "3", id="dataset"),
    pytest.param(MLP + "\n[init]\n", "init", "seeed", "3", id="init"),
    pytest.param(QUAD + "\n[dataset]\n", "dataset", "n", "32", id="dataset-closed-form"),
    pytest.param(QUAD, "init", "seed", "5", id="init.seed-closed-form"),
    pytest.param(MLP_THETA0, "init", "seed", "5", id="init.seed-beside-theta0"),
    pytest.param(MLP, "dataset", "n_take", "100", id="n_take-synthetic"),
    pytest.param(MLP, "dataset", "path", "data_batch_1.bin", id="path-synthetic"),
    pytest.param(CIFAR, "dataset", "n", "32", id="n-cifar10"),
    pytest.param(CIFAR, "dataset", "seed", "3", id="seed-cifar10")])
def test_removed_keys_exit_2_as_unknown(template, section, key, value):
    # nothing reads these keys: settings that no longer exist, typos, a seed beside a
    # given start or on a closed-form cost, the other data source's settings; a config
    # that sets one, to any value, is refused rather than ignored
    template = template.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")
    code, err = _exit_code(template, "eta", GOOD["eta"])
    assert code == 2, err
    assert f"{section}: unknown keys" in err and repr(key) in err, err


def test_sgd_on_a_closed_form_cost_exits_2():
    # sgd draws minibatches from a dataset, which a closed-form cost does not have
    template = QUAD.replace("max_iter = 5", "max_iter = 5\nalgorithm = sgd\nbatch_size = 4")
    code, err = _exit_code(template, "eta", GOOD["eta"])
    assert code == 2, err
    assert "optimizer.algorithm" in err and "quadratic" in err, err


SGD = MLP.replace("max_iter = 2", "max_iter = 2\nalgorithm = sgd\nbatch_size = 4")


@pytest.mark.parametrize("template, section, key, value", [
    pytest.param(SGD, "optimizer", "metric_cadence", "3", id="metric_cadence-sgd"),
    pytest.param(QUAD + "\n[metrics]\n", "metrics", "expected_rp", "true", id="expected_rp-gd"),
    pytest.param(QUAD + "\n[metrics]\n", "metrics", "expected_rp_batches", "8",
                 id="expected_rp_batches-gd"),
    pytest.param(QUAD, "optimizer", "batch_size", "4", id="batch_size-gd"),
    pytest.param(QUAD, "optimizer", "seed", "3", id="seed-gd")])
def test_a_key_the_algorithm_does_not_read_exits_2(template, section, key, value):
    # sgd samples every epoch, gd draws nothing at random and its rp is its own step's:
    # the key would be ignored
    assert _exit_code(template, "eta", GOOD["eta"])[0] == 0
    template = template.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")
    code, err = _exit_code(template, "eta", GOOD["eta"])
    assert code == 2, err
    assert f"{section}.{key}: read by" in err, err


def test_expected_rp_without_rp_exits_2():
    # expected rp is written to the rp column; with rp = false it used to fill that column
    # anyway, and a MetricFlags refusal outside the spec parser would exit 1
    metrics = SGD + "\n[metrics]\nexpected_rp = true\nexpected_rp_batches = 2\n"
    assert _exit_code(metrics, "eta", GOOD["eta"])[0] == 0
    code, err = _exit_code(metrics.replace("[metrics]\n", "[metrics]\nrp = false\n"),
                           "eta", GOOD["eta"])
    assert code == 2, err
    assert "metrics:" in err and "expected_rp" in err, err

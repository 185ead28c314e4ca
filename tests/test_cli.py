import ast
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gdscope import cli
from gdscope import experiments as X
from gdscope.acceptance import CriterionResult
from gdscope.errors import ConfigError

QUAD_CFG = """\
[experiment]
name = unit-quad

[cost]
kind = quadratic
p_diag = 40, 2

[init]
theta0 = 1, 1

[optimizer]
eta = 2/41
max_iter = 800

[output]
path = unit-quad.csv
"""


def _perfbench_csv_columns():
    """perfbench's fixed ``CSV_COLUMNS`` list, read from its source without importing it."""
    source = (Path(__file__).parents[1] / "perfbench" / "workloads.py").read_text()
    return next(ast.literal_eval(node.value) for node in ast.parse(source).body
                if isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", "") == "CSV_COLUMNS")


@pytest.fixture
def quad_cfg(tmp_path):
    path = tmp_path / "unit-quad.cfg"
    path.write_text(QUAD_CFG)
    return path


def test_run_writes_schema_and_header(quad_cfg, tmp_path, capsys):
    rc = cli.main(["run", str(quad_cfg), "--outdir", str(tmp_path)])
    assert rc == 0
    out = (tmp_path / "unit-quad.csv").read_text().splitlines()
    comments = [l for l in out if l.startswith("#")]
    rows = [l for l in out if not l.startswith("#")]
    assert rows[0] == "iter,loss,grad_norm,rp,dir,sharpness,identity_residual,tau_dir_mean,tau_dir_std"
    # the benchmark's preset-w200 check compares the header with its own copy of the columns
    assert X.CSV_HEADER == rows[0] == ",".join(_perfbench_csv_columns())
    # the resolved config is embedded in the header
    assert any("optimizer.eta = 2/41" in c for c in comments)
    assert any("cost.p_diag = 40, 2" in c for c in comments)
    # undefined metrics serialize as empty fields, never NaN text
    first = rows[1].split(",")
    assert len(first) == 9
    assert first[5] == "" and first[6] == ""
    assert "nan" not in out[-1].lower()
    summary = json.loads((tmp_path / "unit-quad.csv.summary.json").read_text())
    assert summary["outcome"] == "converged"
    assert summary["seed"] is None and "runtime_s" in summary  # gd reads no seed


def test_run_unknown_preset_is_usage_error(tmp_path, capsys):
    rc = cli.main(["run", "no-such-preset", "--outdir", str(tmp_path)])
    assert rc == 2
    assert "unknown preset" in capsys.readouterr().err


def test_missing_eta_names_the_field(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[experiment]\nname = x\n\n[cost]\nkind = quadratic\np_diag = 1\n")
    with pytest.raises(ConfigError, match="optimizer.eta"):
        X.parse_spec(bad)
    assert cli.main(["run", str(bad), "--outdir", str(tmp_path)]) == 2


def test_parse_error_carries_line_number(tmp_path):
    bad = tmp_path / "syntax.cfg"
    bad.write_text("[experiment]\nname = x\nthis line has no equals sign\n")
    with pytest.raises(ConfigError, match="line"):
        X.parse_spec(bad)


def test_unknown_keys_are_rejected(tmp_path):
    bad = tmp_path / "extra.cfg"
    bad.write_text(QUAD_CFG + "\n[metrics]\nbogus_flag = true\n")
    with pytest.raises(ConfigError, match="bogus_flag"):
        X.parse_spec(bad)


def test_cifar_path_validated_at_load(tmp_path):
    cfg = tmp_path / "cifar.cfg"
    cfg.write_text("""\
[experiment]
name = c

[cost]
kind = mlp

[dataset]
source = cifar10
path = /definitely/not/here.bin

[optimizer]
eta = 0.1
""")
    spec = X.parse_spec(cfg)
    with pytest.raises(ConfigError, match="dataset.path"):
        X.build_cost(spec)


CIFAR_CFG = """\
[experiment]
name = unit-cifar

[cost]
kind = mlp
hidden = 4

[dataset]
source = cifar10
path = {batch}
n_take = {n_take}

[optimizer]
eta = 0.01
max_iter = 2

[output]
path = unit-cifar.csv
"""


def test_cifar_spec_runs_from_a_local_batch_file(tmp_path, capsys):
    from test_data import _write_records

    batch = tmp_path / "data_batch_1.bin"
    _write_records(batch, [3, 7, 0, 9])  # four records in the 3073-byte layout
    cfg = tmp_path / "cifar.cfg"
    cfg.write_text(CIFAR_CFG.format(batch=batch, n_take=4))
    assert cli.main(["run", str(cfg), "--outdir", str(tmp_path)]) == 0
    rows = [l for l in (tmp_path / "unit-cifar.csv").read_text().splitlines()
            if not l.startswith("#")]
    assert rows[0].startswith("iter,") and rows[-1].startswith("2,")  # the last iterate
    summary = json.loads((tmp_path / "unit-cifar.csv.summary.json").read_text())
    assert summary["outcome"] == "budget_exhausted"
    capsys.readouterr()
    # a file the loader refuses is a malformed config, as a missing path is
    cfg.write_text(CIFAR_CFG.format(batch=batch, n_take=9))
    assert cli.main(["run", str(cfg), "--outdir", str(tmp_path)]) == 2
    assert "dataset: " in capsys.readouterr().err


def test_sweep_orders_and_labels(quad_cfg, tmp_path, capsys):
    rc = cli.main(["sweep", str(quad_cfg), "--eta", "2/39", "2/40", "2/41",
                   "--outdir", str(tmp_path)])
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    body = lines[1:]
    assert len(body) == 3
    assert "diverged" in body[0]
    assert "bounded-oscillation" in body[1]
    assert "converged" in body[2]


def test_sweep_agrees_with_divergence_oracle(quad_cfg, tmp_path):
    from gdscope import quadratic_divergence_oracle

    spec = X.parse_spec(quad_cfg)
    etas = [2 / 39, 2 / 40, 2 / 41, 0.01, 0.2]
    summaries = X.sweep_spec(spec, etas, outdir=str(tmp_path))
    assert [s.eta for s in summaries] == etas
    P = np.diag([40.0, 2.0])
    for s in summaries:
        assert quadratic_divergence_oracle(P, s.eta) == (s.outcome == "diverged")


def test_sweep_empty_eta_is_usage_error(quad_cfg, tmp_path):
    assert cli.main(["sweep", str(quad_cfg), "--outdir", str(tmp_path)]) == 2
    with pytest.raises(ConfigError):
        X.sweep_spec(X.parse_spec(quad_cfg), [], outdir=str(tmp_path))


def test_list_presets_names(capsys):
    assert cli.main(["list-presets"]) == 0
    out = capsys.readouterr().out
    for name in ("quad-sweep", "flat-quad", "single-neuron-tanh", "mlp-gd-stable",
                 "mlp-gd-unstable", "tau-grid", "sgd-relu"):
        assert name in out


def test_python_m_gdscope_runs_the_cli():
    src = Path(cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "gdscope", "list-presets"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert set(X.preset_names()) <= {line.split()[0] for line in done.stdout.splitlines()}
    bad = subprocess.run([sys.executable, "-m", "gdscope", "no-such-command"], env=env,
                         capture_output=True, text=True, timeout=60)
    assert bad.returncode == 2


def test_preset_specs_all_parse():
    for name in X.preset_names():
        spec = X.load_preset(name)
        assert spec.name == name
        assert spec.etas
        cost, theta0 = X.build_cost(spec)
        assert theta0.shape == (cost.dimension,)
        for eta in spec.etas:
            assert spec.optimizer_config(eta).eta == eta


def test_check_exit_codes(monkeypatch, capsys):
    from gdscope import acceptance

    fake_pass = [CriterionResult("a", "1", "1", True), CriterionResult("b", "2", "2", True)]
    monkeypatch.setattr(acceptance, "check_all", lambda: fake_pass)
    assert cli.main(["check"]) == 0
    out = capsys.readouterr().out
    assert "criterion=a" in out and "pass=true" in out

    fake_fail = [CriterionResult("rp-dir-identity", "x", "y", False)]
    monkeypatch.setattr(acceptance, "check_all", lambda: fake_fail)
    assert cli.main(["check"]) == 1
    assert "pass=false" in capsys.readouterr().out


def test_resolved_seed_embedded_in_header(quad_cfg, tmp_path):
    cli.main(["run", str(quad_cfg), "--outdir", str(tmp_path)])
    header = (tmp_path / "unit-quad.csv").read_text()
    assert "optimizer.seed" not in header  # gd reads no seed, so its trace records none
    assert "# resolved.metric_cadence = 1" in header
    sgd_cfg = tmp_path / "unit-sgd.cfg"
    sgd = MLP_CFG.replace("max_iter = 2", "max_iter = 2\nalgorithm = sgd\nbatch_size = 4")
    sgd_cfg.write_text(sgd + "\n[output]\npath = unit-sgd.csv\n")
    assert cli.main(["run", str(sgd_cfg), "--outdir", str(tmp_path)]) == 0
    assert "# resolved.optimizer.seed = 0" in (tmp_path / "unit-sgd.csv").read_text()
    assert json.loads((tmp_path / "unit-sgd.csv.summary.json").read_text())["seed"] == 0


def test_init_seed_recorded_only_where_one_was_read(tmp_path):
    # a closed-form cost, or a net given theta0, starts from theta0 and reads no seed
    theta0 = ", ".join(["0.1"] * 26)  # MLP_CFG's dimension
    for text, want in ((QUAD_CFG, []), (MLP_CFG, ["# resolved.init.seed = 0"]),
                       (MLP_CFG + "\n[init]\nseed = 3\n", ["# resolved.init.seed = 3"]),
                       (MLP_CFG + f"\n[init]\ntheta0 = {theta0}\n", [])):
        summary = X.run_spec(X.parse_spec(io.StringIO(text)), tmp_path)
        header = Path(summary.csv_path).read_text().splitlines()
        assert [l for l in header if l.startswith("# resolved.init")] == want


def test_fd_surrogate_sharpness_flagged_in_header(tmp_path):
    cfg = tmp_path / "relu-sharp.cfg"
    cfg.write_text("""\
[experiment]
name = relu-sharp

[cost]
kind = mlp
hidden = 4
activation = relu

[dataset]
source = synthetic
n = 16
d = 3
classes = 2
seed = 1

[init]
seed = 0

[optimizer]
eta = 0.1
max_iter = 2

[metrics]
sharpness = true

[output]
path = relu-sharp.csv
""")
    rc = cli.main(["run", str(cfg), "--outdir", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "relu-sharp.csv").read_text()
    # the relu hvp is exact, so the header no longer flags a surrogate
    assert "surrogate" not in text
    # sharpness column populated
    rows = [l for l in text.splitlines() if not l.startswith("#")]
    assert rows[1].split(",")[5] != ""


def test_outdir_env_var(monkeypatch):
    monkeypatch.setenv("GDSCOPE_OUTDIR", "/tmp/gdscope-envdir")
    parser = cli.build_parser()
    args = parser.parse_args(["run", "quad-sweep"])
    assert args.outdir == "/tmp/gdscope-envdir"


def test_parse_number_fractions():
    assert X.parse_number("2/39", where="t") == 2 / 39
    assert X.parse_number("0.05", where="t") == 0.05
    with pytest.raises(ConfigError, match="t:"):
        X.parse_number("abc", where="t")


def test_load_preset_from_stream_matches_name():
    spec = X.parse_spec(io.StringIO(QUAD_CFG), name_hint="inline")
    assert spec.name == "unit-quad"
    assert spec.etas == [2 / 41]


MLP_CFG = """\
[experiment]
name = unit-mlp

[cost]
kind = mlp
hidden = 4

[dataset]
source = synthetic
n = 16
d = 3
classes = 2

[optimizer]
eta = 0.1
max_iter = 2
"""


@pytest.mark.parametrize("field,text", [
    pytest.param("metrics.expected_rp_batches",
                 QUAD_CFG + "\n[metrics]\nexpected_rp_batches = 1.5\n", id="expected_rp_batches"),
    pytest.param("optimizer.max_iter", QUAD_CFG.replace("max_iter = 800", "max_iter = many"),
                 id="max_iter"),
    pytest.param("init.seed", MLP_CFG + "\n[init]\nseed = abc\n", id="init.seed"),
    pytest.param("init.seed", MLP_CFG + "\n[init]\nseed = -1\n", id="init.seed-negative"),
    pytest.param("dataset.seed", MLP_CFG.replace("classes = 2", "classes = 2\nseed = x"),
                 id="dataset.seed"),
    pytest.param("dataset.n_take", MLP_CFG.replace(
        "source = synthetic", "source = cifar10\npath = {batch}\nn_take = abc"), id="n_take"),
    # seeds past as_rng's [0, 2**64) left through numpy or as_rng with exit 1
    pytest.param("init.seed", MLP_CFG + f"\n[init]\nseed = {2**64}\n", id="init.seed-2**64"),
    pytest.param("dataset.seed", MLP_CFG.replace("classes = 2", f"classes = 2\nseed = {2**64}"),
                 id="dataset.seed-2**64"),
    pytest.param("optimizer: seed", MLP_CFG.replace(
        "max_iter = 2", f"max_iter = 2\nalgorithm = sgd\nbatch_size = 4\nseed = {2**64}"),
                 id="optimizer.seed-2**64"),
])
def test_malformed_integer_fields_exit_2(tmp_path, capsys, field, text):
    batch = tmp_path / "data_batch_1.bin"
    batch.write_bytes(b"")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text.replace("{batch}", str(batch)))
    assert cli.main(["run", str(cfg), "--outdir", str(tmp_path)]) == 2
    assert field in capsys.readouterr().err


def test_sgd_run_writes_sharpness_identity_and_tau_columns(tmp_path):
    cfg = tmp_path / "sgd-metrics.cfg"
    cfg.write_text(MLP_CFG.replace("hidden = 4", "hidden = 4\nactivation = relu")
                   .replace("max_iter = 2", "max_iter = 2\nalgorithm = sgd\nbatch_size = 4")
                   + "\n[metrics]\nsharpness = true\nidentity = true\ntau_sweep = true\n"
                   "\n[output]\npath = sgd-metrics.csv\n")
    assert cli.main(["run", str(cfg), "--outdir", str(tmp_path)]) == 0
    text = (tmp_path / "sgd-metrics.csv").read_text()
    assert "# algorithm = sgd" in text
    assert "# resolved.metric_cadence = every epoch" in text
    assert "surrogate" not in text
    rows = [l.split(",") for l in text.splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 3
    for row in rows:
        assert all(field != "" for field in row[5:]), row


@pytest.mark.parametrize("decay", ["0", "1e-12"])
def test_stop_accuracy_holds_under_weight_decay(decay, tmp_path):
    # the decayed classifier still has an accuracy, so its stop rule fires as without decay
    cfg = MLP_CFG.replace("hidden = 4", f"hidden = 4\nweight_decay = {decay}").replace(
        "eta = 0.1\nmax_iter = 2", "eta = 0.5\nmax_iter = 400\nstop_accuracy = 0.9")
    summary = X.run_spec(X.parse_spec(io.StringIO(cfg), name_hint="decayed"), str(tmp_path))
    assert (summary.outcome, summary.iterations) == ("converged", 7)


def test_weight_decayed_quadratic_keeps_the_gradient_floor_rule(tmp_path):
    # a quadratic has no accuracy, decayed or not: stop_accuracy cannot end its run
    cfg = QUAD_CFG.replace("p_diag = 40, 2", "p_diag = 40, 2\nweight_decay = 0.5").replace(
        "eta = 2/41\nmax_iter = 800", "eta = 1/41\nmax_iter = 800\nstop_accuracy = 0.5")
    spec = X.parse_spec(io.StringIO(cfg), name_hint="decayed-quad")
    assert not hasattr(X.build_cost(spec)[0], "accuracy")
    summary = X.run_spec(spec, str(tmp_path))
    assert summary.outcome == "converged"
    assert 1 < summary.iterations < 800


EXTREME_STEP_CFG = """\
[experiment]
name = extreme-step

[cost]
kind = quadratic
p_diag = 1, 0

[init]
theta0 = 3, 1

[optimizer]
eta = {eta}
max_iter = 5
{metrics}"""


@pytest.mark.parametrize("eta, metrics, outcome", [
    pytest.param("1e308", "[metrics]\nrp = false\ndir = false\n", "diverged", id="overflow-quiet"),
    pytest.param("1e308", "[metrics]\nrp = true\ndir = false\n", "diverged", id="overflow-rp"),
    pytest.param("1e308", "", "diverged", id="overflow-default"),
    pytest.param("1e308", "[metrics]\nrp = false\ndir = false\ntau_sweep = true\n", "diverged",
                 id="overflow-tau-sweep"),
    pytest.param("1e-320", "", "budget_exhausted", id="underflow-default"),
])
def test_a_step_that_overflows_or_underflows_leaves_its_metrics_undefined(
        tmp_path, capsys, eta, metrics, outcome):
    # eta * g overflows to inf, or eta*g.eta*g underflows to 0: rp, dir and the
    # identity along that step are undefined, and the trace is still written whole
    cfg = tmp_path / "extreme-step.cfg"
    cfg.write_text(EXTREME_STEP_CFG.format(eta=eta, metrics=metrics))
    assert cli.main(["run", str(cfg), "--outdir", str(tmp_path)]) == 0
    text = (tmp_path / "extreme-step.csv").read_text()
    assert "nan" not in text.lower()
    rows = [l.split(",") for l in text.splitlines() if not l.startswith("#")][1:]
    assert rows[0][:3] == ["0", "4.5", "3.0"] and rows[0][3:5] == ["", ""]
    summary = json.loads((tmp_path / "extreme-step.csv.summary.json").read_text())
    assert summary["outcome"] == outcome


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_a_non_finite_final_loss_is_written_as_null(tmp_path, capsys):
    # the overflowing step leaves an infinite loss; strict JSON has no Infinity
    cfg = tmp_path / "extreme-step.cfg"
    cfg.write_text(EXTREME_STEP_CFG.format(eta="1e308", metrics=""))
    assert cli.main(["run", str(cfg), "--outdir", str(tmp_path)]) == 0
    text = (tmp_path / "extreme-step.csv.summary.json").read_text()
    summary = json.loads(text, parse_constant=_reject_constant)
    assert summary["outcome"] == "diverged"
    assert summary["final_loss"] is None
    assert isinstance(summary["eta"], float) and isinstance(summary["runtime_s"], float)

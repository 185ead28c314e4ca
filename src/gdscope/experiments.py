"""Declarative experiment specs: flat key-value configs in, CSV traces out.

A spec is an INI-style file with sections (experiment / cost / dataset /
init / optimizer / metrics / output). Presets shipping with the package are
just such files, so every canned experiment is diffable and versionable.
Each output CSV embeds the fully resolved config (and, for sgd, the seed) as
'#' comment lines, making any trace reproducible from its own header.
"""

from __future__ import annotations

import configparser
import io
import json
import math
import time
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import costs as C
from . import data as D
from . import metrics as M
from . import mlp as NN
from . import optimizer as O
from .errors import ConfigError, ContractViolation, DatasetFormatError

CSV_HEADER = ",".join(("iter", *M.METRIC_FIELDS))

_SECTIONS = ("experiment", "cost", "dataset", "init", "optimizer", "metrics", "output")
# keys only one algorithm reads: a spec for the other refuses them rather than ignore them
_READ_ONLY_BY = {"metric_cadence": "gd", "batch_size": "sgd", "seed": "sgd",
                 "expected_rp": "sgd", "expected_rp_batches": "sgd"}


def parse_number(text: str, *, where: str) -> float:
    """Floats, with 'a/b' fractions accepted so step sizes stay exact in configs."""
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return float(num) / float(den)
        return float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{where}: cannot parse number {text!r}") from exc


def parse_int(text: str, *, where: str, minimum: Optional[int] = None) -> int:
    """Integers, with an optional lower bound; errors name the field."""
    try:
        value = int(text.strip())
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse integer {text.strip()!r}") from exc
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where}: must be >= {minimum}, got {value}")
    return value


def _parse_list(text: str, where: str, parse=parse_number) -> list:
    items = [t for t in (p.strip() for p in text.split(",")) if t]
    if not items:
        raise ConfigError(f"{where}: empty list")
    return [parse(t, where=where) for t in items]


def _refuse_unknown(where: str, left: dict) -> None:
    """A key nothing read is refused, never ignored: ``left`` holds a section's unread keys."""
    if left:
        raise ConfigError(f"{where}: unknown keys {sorted(left)}")


def _checked(where: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, with a ContractViolation or DatasetFormatError reported
    as a ConfigError on ``where``."""
    try:
        return build(*args, **kwargs)
    except (ContractViolation, DatasetFormatError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_bool(text: str, where: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "on", "1"):
        return True
    if t in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"{where}: expected a boolean, got {text!r}")


@dataclass
class ExperimentSpec:
    """One declarative run: cost description, optimizer settings, metric flags."""

    name: str
    cost: dict
    dataset: dict
    init: dict
    etas: List[float]
    optimizer: dict
    algorithm: str
    flags: O.MetricFlags
    output_path: str
    resolved: List[str] = field(default_factory=list)  # header echo lines

    def optimizer_config(self, eta: float) -> O.OptimizerConfig:
        return _checked("optimizer", O.OptimizerConfig, eta=eta, **self.optimizer)


def _section(cp: configparser.ConfigParser, name: str) -> dict:
    return dict(cp[name]) if cp.has_section(name) else {}


def parse_spec(source, name_hint: str = "<config>") -> ExperimentSpec:
    """Parse a spec from a path or file-like object; errors carry field names."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        if hasattr(source, "read"):
            cp.read_file(source, source=name_hint)
        else:
            with open(source, "r") as fh:
                cp.read_file(fh, source=str(source))
    except OSError as exc:
        raise ConfigError(f"cannot read config {source}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    for sec in cp.sections():
        if sec not in _SECTIONS:
            raise ConfigError(f"unknown config section [{sec}]")

    exp = _section(cp, "experiment")
    name = exp.pop("name", "").strip()
    if not name:
        raise ConfigError("experiment.name: required and nonempty")
    _refuse_unknown("experiment", exp)

    cost = _section(cp, "cost")
    if "kind" not in cost:
        raise ConfigError("cost.kind: required")

    dataset = _section(cp, "dataset")
    init = _section(cp, "init")

    opt = _section(cp, "optimizer")
    if "eta" not in opt:
        raise ConfigError("optimizer.eta: required")
    etas = _parse_list(opt.pop("eta"), "optimizer.eta")
    algorithm = opt.pop("algorithm", "gd").strip().lower()
    if algorithm not in ("gd", "sgd"):
        raise ConfigError(f"optimizer.algorithm: expected gd or sgd, got {algorithm!r}")

    opt_kwargs = {}
    for key, minimum in (("max_iter", 1), ("metric_cadence", 1), ("seed", 0), ("batch_size", 1)):
        if key in opt:
            opt_kwargs[key] = parse_int(opt.pop(key), where=f"optimizer.{key}", minimum=minimum)
    if "stop_accuracy" in opt:
        opt_kwargs["stop_accuracy"] = parse_number(opt.pop("stop_accuracy"),
                                                   where="optimizer.stop_accuracy")
    _refuse_unknown("optimizer", opt)
    if algorithm == "sgd" and "batch_size" not in opt_kwargs:
        raise ConfigError("optimizer.batch_size: required for sgd")

    met = _section(cp, "metrics")
    flag_kwargs = {}
    for key in ("rp", "dir", "sharpness", "tau_sweep", "expected_rp"):
        if key in met:
            flag_kwargs[key] = _parse_bool(met.pop(key), f"metrics.{key}")
    if "expected_rp_batches" in met:
        flag_kwargs["expected_rp_batches"] = parse_int(
            met.pop("expected_rp_batches"), where="metrics.expected_rp_batches", minimum=1)
    _refuse_unknown("metrics", met)
    for where, keys in (("optimizer", opt_kwargs), ("metrics", flag_kwargs)):
        for key in keys:
            if _READ_ONLY_BY.get(key, algorithm) != algorithm:
                raise ConfigError(f"{where}.{key}: read by {_READ_ONLY_BY[key]} only, "
                                  f"and algorithm = {algorithm}")
    flags = _checked("metrics", O.MetricFlags, **flag_kwargs)

    out = _section(cp, "output")
    output_path = out.pop("path", f"{name}.csv")
    _refuse_unknown("output", out)

    resolved = []
    for sec in cp.sections():
        for key, val in cp[sec].items():
            resolved.append(f"{sec}.{key} = {val}")

    return ExperimentSpec(
        name=name, cost=cost, dataset=dataset, init=init, etas=etas,
        optimizer=opt_kwargs, algorithm=algorithm, flags=flags,
        output_path=output_path, resolved=resolved,
    )


def _build_dataset(sec: dict) -> D.Dataset:
    """The data of an mlp's [dataset] section; ``sec`` loses every key its source reads,
    and a key that source does not read is refused."""
    source = sec.pop("source", "synthetic").strip().lower()
    if source == "synthetic":
        synth = _checked(
            "dataset", D.SynthSpec,
            n=parse_int(sec.pop("n", "512"), where="dataset.n"),
            d=parse_int(sec.pop("d", "16"), where="dataset.d"),
            classes=parse_int(sec.pop("classes", "4"), where="dataset.classes"),
            cluster_spread=parse_number(sec.pop("spread", "0.35"), where="dataset.spread"),
            seed=parse_int(sec.pop("seed", "0"), where="dataset.seed", minimum=0),
        )
        _refuse_unknown("dataset", sec)
        return _checked("dataset.seed", D.synth_dataset, synth)
    if source == "cifar10":
        n_take = parse_int(sec.pop("n_take", "5000"), where="dataset.n_take", minimum=1)
        path = sec.pop("path", "").strip()
        _refuse_unknown("dataset", sec)
        if not path:
            raise ConfigError("dataset.path: required for source=cifar10")
        if not Path(path).exists():
            raise ConfigError(f"dataset.path: {path} does not exist")
        return _checked("dataset", D.load_cifar10_binary, path, n_take)
    raise ConfigError(f"dataset.source: unknown source {source!r}")


def build_cost(spec: ExperimentSpec):
    """Instantiate (cost, theta0) from the spec's cost/dataset/init sections; a key that
    none of them reads, such as a [dataset] key of a closed-form cost, is refused."""
    sec, dataset, init = dict(spec.cost), dict(spec.dataset), dict(spec.init)
    kind = sec.pop("kind").strip().lower()
    gamma = parse_number(sec.pop("weight_decay", "0"), where="cost.weight_decay")

    if kind in ("quadratic", "tanh_quadratic"):
        if "p_diag" not in sec:
            raise ConfigError("cost.p_diag: required for quadratic kinds")
        diag = _parse_list(sec.pop("p_diag"), "cost.p_diag")
        q = None
        if "q" in sec:
            q = _checked("cost.q", C.as_params, _parse_list(sec.pop("q"), "cost.q"), len(diag))
        r = _checked("cost.r", C.as_finite, parse_number(sec.pop("r", "0"), where="cost.r"), "r")
        quadratic = C.Quadratic if kind == "quadratic" else C.TanhQuadratic
        cost = _checked("cost.p_diag", quadratic, np.diag(diag), q, r)
    elif kind in ("single_neuron_linear", "single_neuron_tanh"):
        cost = C.SingleNeuron(kind.rsplit("_", 1)[-1])
    elif kind == "mlp":
        data = _build_dataset(dataset)
        hidden = _parse_list(sec.pop("hidden", "32, 32"), "cost.hidden",
                             lambda t, where: parse_int(t, where=where, minimum=1))
        cost = _checked(
            "cost", NN.MLPCost, data,
            hidden_sizes=hidden,
            activation=sec.pop("activation", "tanh").strip().lower(),
            normalize_first=_parse_bool(sec.pop("normalize_first", "false"), "cost.normalize_first"),
        )
    else:
        raise ConfigError(f"cost.kind: unknown kind {kind!r}")
    _refuse_unknown("cost", sec)
    _refuse_unknown("dataset", dataset)

    if gamma != 0:
        cost = _checked("cost.weight_decay", C.WeightDecayWrapped, cost, gamma)

    if "theta0" in init:
        theta0 = _checked("init.theta0", C.as_params,
                          _parse_list(init.pop("theta0"), "init.theta0"), cost.dimension)
    elif kind == "mlp":
        inner = cost.inner if isinstance(cost, C.WeightDecayWrapped) else cost
        theta0 = _checked("init.seed", inner.init_params,
                          parse_int(init.pop("seed", "0"), where="init.seed", minimum=0))
    else:
        raise ConfigError("init.theta0: required for closed-form costs")
    _refuse_unknown("init", init)  # a seed beside theta0 draws nothing
    return cost, theta0


def _fmt(x) -> str:
    """A CSV field: undefined (None or NaN) is empty, never NaN text."""
    return "" if x is None or math.isnan(x) else repr(float(x))


def write_trace_csv(path, spec: ExperimentSpec, eta: float, cost, samples,
                    config: O.OptimizerConfig) -> None:
    lines = [
        "# gdscope trace",
        f"# name = {spec.name}",
        f"# eta = {eta!r}",
        f"# algorithm = {spec.algorithm}",
    ]
    lines += [f"# {item}" for item in spec.resolved]
    # resolved runtime settings, so the trace is reproducible even where the
    # config file relied on defaults; a run that reads no seed records none
    if _READ_ONLY_BY["seed"] == spec.algorithm:
        lines.append(f"# resolved.optimizer.seed = {config.seed}")
    lines += [
        f"# resolved.optimizer.max_iter = {config.max_iter}",
        "# resolved.metric_cadence = "
        + ("every epoch" if spec.algorithm == "sgd" else str(config.cadence_for(cost))),
    ]
    if "theta0" not in spec.init:  # an mlp start drawn from a seed; a given theta0 reads none
        lines.append(f"# resolved.init.seed = {spec.init.get('seed', 0)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
        fh.write(CSV_HEADER + "\n")
        for s in samples:
            fh.write(f"{s.iteration},{','.join(_fmt(getattr(s, f)) for f in M.METRIC_FIELDS)}\n")


@dataclass
class RunSummary:
    name: str
    eta: float
    outcome: str
    label: str
    regime: Optional[str]
    regime_reason: Optional[str]
    final_loss: float
    iterations: int
    runtime_s: float
    seed: Optional[int]  # None for gd, which reads no seed
    csv_path: str

    def to_json(self) -> str:
        """The summary as JSON. JSON has no Infinity or NaN, so a non-finite float
        (the final loss of a diverged run) is written as null."""
        fields = {k: None if isinstance(v, float) and not math.isfinite(v) else v
                  for k, v in self.__dict__.items()}
        return json.dumps(fields, sort_keys=True, allow_nan=False)


_LABELS = {O.OUTCOME_BUDGET: "bounded-oscillation"}  # other outcomes are their own label


def run_spec(spec: ExperimentSpec, outdir=".", eta: Optional[float] = None,
             suffix: str = "") -> RunSummary:
    """Execute one (spec, eta) run and write its trace + summary files."""
    the_eta = spec.etas[0] if eta is None else eta
    config = spec.optimizer_config(the_eta)
    cost, theta0 = build_cost(spec)
    if spec.algorithm == "sgd" and cost.num_examples is None:
        raise ConfigError(f"optimizer.algorithm: sgd needs a dataset-backed cost, "
                          f"not cost.kind = {spec.cost['kind'].strip()}")
    started = time.perf_counter()
    if spec.algorithm == "sgd":
        traj = O.sgd_run(cost, theta0, config, spec.flags)
    else:
        traj = O.gd_run(cost, theta0, config, spec.flags)
    runtime = time.perf_counter() - started

    regime = reason = None
    defined_rp = sum(1 for s in traj.samples if s.rp is not None)
    if traj.outcome == O.OUTCOME_DIVERGED or defined_rp >= O.MIN_RP_SAMPLES:
        call = O.classify_regime(traj)
        regime, reason = call.regime, call.reason

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    if suffix:
        base = Path(spec.output_path)
        csv_path = outdir / f"{base.stem}{suffix}{base.suffix or '.csv'}"
    else:
        csv_path = outdir / spec.output_path
    write_trace_csv(csv_path, spec, the_eta, cost, traj.samples, config)

    summary = RunSummary(
        name=spec.name, eta=the_eta, outcome=traj.outcome,
        label=_LABELS.get(traj.outcome, traj.outcome), regime=regime, regime_reason=reason,
        final_loss=traj.final_loss, iterations=traj.samples[-1].iteration,
        runtime_s=round(runtime, 4), csv_path=str(csv_path),
        seed=config.seed if _READ_ONLY_BY["seed"] == spec.algorithm else None,
    )
    with open(str(csv_path) + ".summary.json", "w") as fh:
        fh.write(summary.to_json() + "\n")
    return summary


def sweep_spec(spec: ExperimentSpec, etas: List[float], outdir=".") -> List[RunSummary]:
    """Run one spec at each step size in turn; results ordered like the input."""
    if not etas:
        raise ConfigError("sweep needs a nonempty eta list")
    return [run_spec(spec, outdir, eta, f".eta{i}") for i, eta in enumerate(etas)]


# --- presets ------------------------------------------------------------------


def preset_names() -> List[str]:
    files = resources.files("gdscope").joinpath("presets")
    return sorted(p.name[: -len(".cfg")] for p in files.iterdir() if p.name.endswith(".cfg"))


def load_preset(name: str) -> ExperimentSpec:
    files = resources.files("gdscope").joinpath("presets")
    res = files.joinpath(f"{name}.cfg")
    if not res.is_file():
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        )
    return parse_spec(io.StringIO(res.read_text()), name_hint=f"preset:{name}")


def resolve_spec(ref: str) -> ExperimentSpec:
    """A config path if one exists at ref, otherwise a preset name."""
    if Path(ref).exists():
        return parse_spec(ref)
    return load_preset(ref)

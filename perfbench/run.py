"""gdscope benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload gd-trace --seed 0 --seconds 10 --trace 0

Run it from the root of a source checkout: gdscope is imported from ``src/``
next to this directory, and the run fails (exit 2) without it. Scratch files
and span dumps go under ``.bench_build/perfbench/`` in the checkout.

With ``--trace 0`` the calls run bare for ``--seconds`` and the end-to-end
metrics are reported. With ``--trace 1`` the time is split: an untraced half,
then a traced half whose spans give the per-layer metrics. Either way every
call's output is checked afterwards, outside the timed span. The last stdout
line is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; the line before it records the environment.
"""

import os
import sys

# BLAS is pinned to one thread before anything imports numpy.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOAD_NAMES = ("gd-trace", "sharpness-segment", "sgd-erp", "preset-w200")
SETUP_REPEATS = 5
RATIO_PAIRS = 2

END_TO_END_UNITS = {"items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "data.synth_dataset.ms": "ms",
    "mlp.value.calls_per_item": "calls/item",
    "mlp.value.us_p50": "us",
    "mlp.value.self_frac": "frac",
    "mlp.value.repeat_frac": "frac",
    "mlp.gradient.calls_per_item": "calls/item",
    "mlp.gradient.us_p50": "us",
    "mlp.gradient.self_frac": "frac",
    "mlp.gradient.repeat_frac": "frac",
    "mlp.gradient.gflops_per_s": "GFLOP/s",
    "mlp.stochastic_gradient.calls_per_item": "calls/item",
    "mlp.stochastic_gradient.us_p50": "us",
    "mlp.stochastic_gradient.self_frac": "frac",
    "mlp.stochastic_gradient.repeat_frac": "frac",
    "mlp.accuracy.calls_per_item": "calls/item",
    "mlp.accuracy.self_frac": "frac",
    "costs.hvp.calls_per_item": "calls/item",
    "costs.hvp.us_p50": "us",
    "costs.hvp.self_frac": "frac",
    "metrics.directional_smoothness.calls_per_item": "calls/item",
    "metrics.directional_smoothness.self_frac": "frac",
    "metrics.sharpness.ms_p50": "ms",
    "metrics.sharpness.hvps_per_call": "hvps/call",
    "metrics.sharpness.failed": "count",
    "metrics.segment_max_sharpness.ms_p50": "ms",
    "metrics.expected_rp.ms_p50": "ms",
    "metrics.expected_rp.self_frac": "frac",
    "metrics.expected_rp_rhs.ms_p50": "ms",
    "metrics.expected_rp_rhs.self_frac": "frac",
    "optimizer.gd_run.self_frac": "frac",
    "optimizer.sgd_run.self_frac": "frac",
    "optimizer.instrument_ratio": "ratio",
    "experiments.parse_spec.ms": "ms",
    "experiments.build_cost.ms": "ms",
    "experiments.write_trace_csv.ms": "ms",
    "experiments.run_spec.self_frac": "frac",
    "trace.overhead_frac": "frac",
}


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name", "unknown"), blas.get("version", "unknown")
    except (TypeError, KeyError, ValueError):  # numpy without the dict form
        blas_name = blas_version = "unknown"
    return {
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": platform.python_version(),
    }


@dataclass
class Phase:
    """Calls made back to back, timed as one span."""

    calls: int = 0
    items: int = 0
    attempted: int = 0
    wall_s: float = 0.0
    outputs: list = field(default_factory=list)
    output_items: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    @property
    def items_per_s(self) -> float:
        return self.items / self.wall_s


def run_phase(workload, st, seconds, max_calls=None, on_call=None) -> Phase:
    """Call until ``seconds`` have passed and a pass is complete, or ``max_calls`` calls."""
    per_pass = workload.calls_per_pass(st)
    phase = Phase()
    started = time.perf_counter()
    while True:
        if on_call is not None:
            on_call()
        phase.attempted += workload.call_items(st)
        try:
            items, out = workload.call(st)
        except Exception as exc:  # a raising call fails all its items; keep measuring
            phase.errors.append(f"{type(exc).__name__}: {exc}")
        else:
            phase.items += items
            phase.outputs.append(out)
            phase.output_items.append(items)
        phase.calls += 1
        phase.wall_s = time.perf_counter() - started
        if max_calls is not None:
            if phase.calls >= max_calls:
                return phase
        elif phase.wall_s >= seconds and phase.calls % per_pass == 0:
            return phase


def gate(workload, st, phases) -> tuple:
    """(attempted, failed, reasons) over every phase's calls."""
    attempted = sum(p.attempted for p in phases)
    failed = attempted - sum(p.items for p in phases)
    reasons = [e for p in phases for e in p.errors]
    outputs = [o for p in phases for o in p.outputs]
    sizes = [n for p in phases for n in p.output_items]
    if not outputs:
        return attempted, failed, reasons + ["no call completed"]
    bad = {}
    for index, reason in workload.check(st, outputs):
        bad.setdefault(index, reason)
    failed += sum(sizes[i] for i in bad)
    return attempted, failed, reasons + list(bad.values())


def instrument_ratio(workload, st) -> float:
    """Wall of instrumented over bare gd_run for the same steps, median of pairs."""
    pair = workload.instrumented_vs_bare(st)
    if pair is None:
        return 0.0
    ratios = []
    for _ in range(RATIO_PAIRS):
        times = []
        for thunk in pair:
            started = time.perf_counter()
            thunk()
            times.append(time.perf_counter() - started)
        ratios.append(times[0] / times[1])
    return statistics.median(ratios)


@dataclass
class Report:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    reasons: list
    phases: list
    fingerprints: list

    def result_line(self, units) -> str:
        metrics = {name: {"value": self.metrics[name], "unit": unit}
                   for name, unit in units.items()}
        return json.dumps({"correct": self.correct, "attempted": self.attempted,
                           "failed": self.failed, "metrics": metrics})


def measure_untraced(workload, seed, seconds, max_calls, workdir):
    """Set up several times (median reported), then call for ``seconds``."""
    setups = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        st = workload.setup(seed, workdir)
        setups.append(time.perf_counter() - started)
    phase = run_phase(workload, st, seconds, max_calls)
    metrics = {"items_per_s": phase.items_per_s,
               "setup_s": statistics.median(setups),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    return st, [phase], metrics


def measure_traced(workload, seed, seconds, max_calls, workdir, spans_path, header):
    """Untraced half, then the same calls traced; per-layer metrics from the traced half."""
    from tracing import TIMED, Tracer

    tracer = Tracer()
    tracer.install()
    st = workload.setup(seed, workdir)
    tracer.uninstall()
    for cost in st.costs:
        tracer.attach(cost)
    untraced = run_phase(workload, st, None if seconds is None else seconds / 2, max_calls)
    workload.rewind(st)
    tracer.phase = TIMED
    tracer.install()
    try:
        traced = run_phase(workload, st, None, untraced.calls, on_call=tracer.new_unit)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(traced.items, traced.wall_s)
    metrics["optimizer.instrument_ratio"] = instrument_ratio(workload, st)
    metrics["trace.overhead_frac"] = (untraced.items_per_s / traced.items_per_s - 1.0
                                      if traced.items else 0.0)
    tracer.write_spans(spans_path, header)
    return st, [untraced, traced], metrics


def run(name, seed, seconds, trace, max_calls=None, env=None) -> Report:
    """One workload run; ``max_calls`` replaces the time limit with a call count."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=BUILD_DIR))
    try:
        if trace:
            st, phases, metrics = measure_traced(
                workload, seed, seconds, max_calls, workdir,
                BUILD_DIR / f"spans-{name}-seed{seed}.csv",
                [json.dumps(env or {}), f"workload={name} seed={seed}"])
        else:
            st, phases, metrics = measure_untraced(workload, seed, seconds, max_calls, workdir)
        attempted, failed, reasons = gate(workload, st, phases)
        fingerprints = [[workload.fingerprint(o) for o in p.outputs] for p in phases]
        if trace and fingerprints[0] != fingerprints[1]:
            reasons.append("traced calls returned other results than the same untraced calls")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return Report(failed == 0 and not reasons, attempted, failed, metrics, reasons,
                  phases, fingerprints)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 is the acceptance fixture")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "gdscope" / "__init__.py").is_file():
        print(f"error: gdscope sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    env = environment()
    report = run(args.workload, args.seed, args.seconds, bool(args.trace), env=env)
    for reason in report.reasons:
        print(f"gate failed: {reason}", file=sys.stderr)
    print(json.dumps({"environment": env, "workload": args.workload, "seed": args.seed,
                      "trace": args.trace}))
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(report.result_line(units))
    return 0


if __name__ == "__main__":
    sys.exit(main())

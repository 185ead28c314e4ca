"""Spans around gdscope's public calls, recorded from the benchmark's side.

A ``Tracer`` patches module-level functions (``gdscope.metrics.sharpness``,
``gdscope.optimizer.gd_run``, ...) and wraps methods on individual cost
instances. Callers inside gdscope look those names up at call time, so nested
calls (``segment_max_sharpness`` -> ``sharpness`` -> ``hvp`` -> ``gradient``)
become nested spans. Spans stay in memory; self time is computed from child
spans when the run ends, and ``write_spans`` dumps them afterwards.

Wrapper bookkeeping (argument hashing, span records) happens outside the
callee's own interval and is charged to neither the callee nor its parent.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import statistics
from collections import Counter, defaultdict
from time import perf_counter_ns

import numpy as np

from gdscope import data as D
from gdscope import experiments as E
from gdscope import metrics as M
from gdscope import optimizer as O

# span record fields
NAME, PARENT, W0, T0, T1, W1, PHASE, FAILED = range(8)

TIMED = "timed"


def _theta_key(theta, *_args, **_kwargs):
    return hashlib.blake2b(np.ascontiguousarray(theta, dtype=np.float64),
                           digest_size=16).digest()


def _batch_key(theta, batch, *_args, **_kwargs):
    h = hashlib.blake2b(np.ascontiguousarray(theta, dtype=np.float64), digest_size=16)
    h.update(np.ascontiguousarray(batch, dtype=np.intp))
    return h.digest()


# (method, span name, repeat key, parent span under which the call is not a span).
# MLPCost.gradient is stochastic_gradient over every row; that inner call
# stays part of the gradient span, so stochastic_gradient counts minibatches only.
COST_METHODS = (
    ("value", "mlp.value", _theta_key, None),
    ("gradient", "mlp.gradient", _theta_key, None),
    ("stochastic_gradient", "mlp.stochastic_gradient", _batch_key, "mlp.gradient"),
    ("accuracy", "mlp.accuracy", None, None),
    ("hvp", "costs.hvp", None, None),
)

MODULE_FUNCS = (
    (D, "synth_dataset", "data.synth_dataset"),
    (M, "directional_smoothness", "metrics.directional_smoothness"),
    (M, "sharpness", "metrics.sharpness"),
    (M, "segment_max_sharpness", "metrics.segment_max_sharpness"),
    (M, "expected_rp", "metrics.expected_rp"),
    (M, "expected_rp_rhs", "metrics.expected_rp_rhs"),
    (O, "gd_run", "optimizer.gd_run"),
    (O, "sgd_run", "optimizer.sgd_run"),
    (E, "parse_spec", "experiments.parse_spec"),
    (E, "write_trace_csv", "experiments.write_trace_csv"),
    (E, "run_spec", "experiments.run_spec"),
)


def gradient_flops(cost) -> int:
    """Matmul flops of one full-batch MLP gradient, from the layer sizes:
    forward z = a W^T, backward dW = dz^T a, and dz W for every layer but the first."""
    n = cost.num_examples
    flops = 0
    for layer, (fan_in, fan_out) in enumerate(zip(cost.layer_sizes, cost.layer_sizes[1:])):
        matmuls = 3 if layer > 0 else 2
        flops += matmuls * 2 * n * fan_in * fan_out
    return flops


class Tracer:
    """Records spans while installed; ``uninstall`` restores every patched name."""

    def __init__(self):
        self.spans: list = []
        self.phase = "setup"
        self.repeats: Counter = Counter()  # span name -> timed calls already seen
        self.flops_per_gradient = 0
        self._stack: list = []
        self._seen = defaultdict(set)
        self._costs: list = []
        self._restore: list = []  # (object, attribute, original or None for an instance attr)
        self._installed = False

    # --- patching -----------------------------------------------------------

    def install(self):
        for module, attr, name in MODULE_FUNCS:
            self._patch(module, attr, self._wrap(name, getattr(module, attr)))
        build = self._wrap("experiments.build_cost", E.build_cost)

        def build_cost(*args, **kwargs):
            cost, theta0 = build(*args, **kwargs)
            self.attach(cost)
            return cost, theta0

        self._patch(E, "build_cost", build_cost)
        for cost in self._costs:
            self._wrap_cost(cost)
        self._installed = True

    def uninstall(self):
        for obj, attr, original in reversed(self._restore):
            if original is None:
                vars(obj).pop(attr, None)
            else:
                setattr(obj, attr, original)
        self._restore.clear()
        self._installed = False

    def attach(self, cost):
        """Trace this cost instance's methods now (if installed) and on every install."""
        if any(c is cost for c in self._costs):
            return
        self._costs.append(cost)
        self.flops_per_gradient = gradient_flops(cost)
        if self._installed:
            self._wrap_cost(cost)

    def _wrap_cost(self, cost):
        for attr, name, key, skip_under in COST_METHODS:
            # instance attribute shadows the class method; popped on uninstall
            self._restore.append((cost, attr, None))
            setattr(cost, attr, self._wrap(name, getattr(cost, attr), key, skip_under))

    def _patch(self, obj, attr, replacement):
        self._restore.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, replacement)

    def new_unit(self):
        """Start a new unit of work: repeat detection looks back only this far."""
        self._seen.clear()

    def _wrap(self, name, fn, key=None, skip_under=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            w0 = perf_counter_ns()
            if skip_under is not None and stack and spans[stack[-1]][NAME] == skip_under:
                return fn(*args, **kwargs)
            if key is not None and self.phase == TIMED:
                digest = key(*args, **kwargs)
                seen = self._seen[name]
                if digest in seen:
                    self.repeats[name] += 1
                else:
                    seen.add(digest)
            rec = [name, stack[-1] if stack else -1, w0, 0, 0, 0, self.phase, False]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[T0] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[FAILED] = True
                raise
            finally:
                rec[T1] = perf_counter_ns()
                stack.pop()
                rec[W1] = perf_counter_ns()

        return wrapper

    # --- reduction ----------------------------------------------------------

    def self_times(self):
        """Per span: its own interval minus the wrapper intervals of its children."""
        covered = [0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                covered[rec[PARENT]] += rec[W1] - rec[W0]
        return [rec[T1] - rec[T0] - cov for rec, cov in zip(self.spans, covered)]

    def layer_metrics(self, items: int, wall_s: float) -> dict:
        """Per-layer figures over the timed phase; 0.0 for a layer the workload never calls."""
        selfs = self.self_times()
        durations = defaultdict(list)
        self_ns = Counter()
        failed = Counter()
        hvps_in_sharpness = 0
        for rec, own in zip(self.spans, selfs):
            if rec[PHASE] != TIMED:
                continue
            name = rec[NAME]
            durations[name].append(rec[T1] - rec[T0])
            self_ns[name] += own
            failed[name] += rec[FAILED]
            if name == "costs.hvp" and rec[PARENT] >= 0 \
                    and self.spans[rec[PARENT]][NAME] == "metrics.sharpness":
                hvps_in_sharpness += 1
        wall_ns = wall_s * 1e9

        def calls(name):
            return len(durations[name])

        def per_item(name):
            return calls(name) / items if items else 0.0

        def p50(name, unit_ns):
            return statistics.median(durations[name]) / unit_ns if durations[name] else 0.0

        def self_frac(name):
            return self_ns[name] / wall_ns

        def repeat_frac(name):
            return self.repeats[name] / calls(name) if calls(name) else 0.0

        synth = [rec[T1] - rec[T0] for rec in self.spans if rec[NAME] == "data.synth_dataset"]
        grad_ns = sum(durations["mlp.gradient"])
        out = {
            "data.synth_dataset.ms": statistics.median(synth) / 1e6 if synth else 0.0,
            "mlp.gradient.gflops_per_s":
                calls("mlp.gradient") * self.flops_per_gradient / grad_ns if grad_ns else 0.0,
            "mlp.accuracy.calls_per_item": per_item("mlp.accuracy"),
            "mlp.accuracy.self_frac": self_frac("mlp.accuracy"),
            "costs.hvp.calls_per_item": per_item("costs.hvp"),
            "costs.hvp.us_p50": p50("costs.hvp", 1e3),
            "costs.hvp.self_frac": self_frac("costs.hvp"),
            "metrics.directional_smoothness.calls_per_item":
                per_item("metrics.directional_smoothness"),
            "metrics.directional_smoothness.self_frac":
                self_frac("metrics.directional_smoothness"),
            "metrics.sharpness.ms_p50": p50("metrics.sharpness", 1e6),
            "metrics.sharpness.hvps_per_call":
                hvps_in_sharpness / calls("metrics.sharpness")
                if calls("metrics.sharpness") else 0.0,
            "metrics.sharpness.failed": float(failed["metrics.sharpness"]),
            "metrics.segment_max_sharpness.ms_p50": p50("metrics.segment_max_sharpness", 1e6),
            "optimizer.gd_run.self_frac": self_frac("optimizer.gd_run"),
            "optimizer.sgd_run.self_frac": self_frac("optimizer.sgd_run"),
            "experiments.run_spec.self_frac": self_frac("experiments.run_spec"),
        }
        for layer in ("value", "gradient", "stochastic_gradient"):
            name = f"mlp.{layer}"
            out[f"{name}.calls_per_item"] = per_item(name)
            out[f"{name}.us_p50"] = p50(name, 1e3)
            out[f"{name}.self_frac"] = self_frac(name)
            out[f"{name}.repeat_frac"] = repeat_frac(name)
        for name in ("metrics.expected_rp", "metrics.expected_rp_rhs"):
            out[f"{name}.ms_p50"] = p50(name, 1e6)
            out[f"{name}.self_frac"] = self_frac(name)
        for name in ("parse_spec", "build_cost", "write_trace_csv"):
            out[f"experiments.{name}.ms"] = p50(f"experiments.{name}", 1e6)
        return out

    def write_spans(self, path, header_lines=()):
        selfs = self.self_times()
        with open(path, "w", newline="") as fh:
            for line in header_lines:
                fh.write(f"# {line}\n")
            writer = csv.writer(fh)
            writer.writerow(["id", "parent", "name", "phase", "start_ns", "end_ns",
                             "self_ns", "failed"])
            for i, (rec, own) in enumerate(zip(self.spans, selfs)):
                writer.writerow([i, rec[PARENT], rec[NAME], rec[PHASE], rec[T0], rec[T1],
                                 own, int(rec[FAILED])])

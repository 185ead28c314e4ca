"""The four benchmark workloads and the gates on their outputs.

Every workload builds its inputs from the workload seed ``s``: blobs data seed
``11 + s`` and init seed ``7 + s``, so ``s = 0`` is the acceptance fixture
(n=512, d=8, 4 classes, spread 0.9). It then runs one *call* at a time through
gdscope's public modules; the harness times the calls and afterwards hands
every call's output to ``check``, which recomputes what it can with code of
its own (a replayed GD loop, a dense Hessian) rather than asking the code
under test twice.

All gdscope functions are looked up on their modules at call time, so the
tracer's patches see every call.
"""

from __future__ import annotations

import configparser
import csv
import io
import json
import math
from collections import deque
from importlib import resources
from types import SimpleNamespace

import numpy as np

from gdscope import data as D
from gdscope import experiments as E
from gdscope import metrics as M
from gdscope import mlp as NN
from gdscope import optimizer as O

DATA_SEED = 11
INIT_SEED = 7
HIDDEN = (32, 32)
WARM_UP_EVALS = 20
REL_TOL = 1e-9  # replayed floats that are computed the same way agree to rounding


def blobs(seed: int) -> D.SynthSpec:
    return D.SynthSpec(n=512, d=8, classes=4, cluster_spread=0.9, seed=DATA_SEED + seed)


def classifier(seed: int, activation: str, hidden=HIDDEN):
    cost = NN.MLPCost(D.synth_dataset(blobs(seed)), hidden, activation)
    return cost, cost.init_params(INIT_SEED + seed)


def warm_up(cost, theta):
    """A fixed number of evaluations, so first-call costs stay out of the timed span."""
    for _ in range(WARM_UP_EVALS):
        cost.value(theta)
        cost.gradient(theta)


def close(a, b) -> bool:
    """a (None where the program left a metric undefined) agrees with b to rounding."""
    return a is not None and abs(a - b) <= REL_TOL * (1.0 + abs(b))


def rp_oracle(loss, next_loss, eta, grad_norm):
    return (next_loss - loss) / (eta * grad_norm**2)


def dir_oracle(eta, g, g_next):
    """<eta g_t, g_t - g_{t+1}> / ||eta g_t||^2 along the GD step."""
    v = eta * g
    return float(v @ (g - g_next)) / float(v @ v)


def replay_gd(cost, theta0, eta, steps):
    """Plain GD written out here: (loss, grad_norm, gradient) at iterates 0..steps."""
    theta = theta0.copy()
    out = []
    for _ in range(steps + 1):
        g = cost.gradient(theta)
        out.append((cost.value(theta), float(np.linalg.norm(g)), g))
        theta = theta - eta * g
    return out


class Workload:
    """Interface the harness drives; see the four subclasses below."""

    name = ""

    def setup(self, seed, workdir):
        """Build the inputs and warm up; the harness times this as set-up.

        The returned state lists in ``costs`` the cost instances to trace."""
        raise NotImplementedError

    def calls_per_pass(self, st) -> int:
        """Calls that make up one pass over the workload's problems; runs end on a whole pass."""
        return 1

    def call_items(self, st) -> int:
        """Items one call attempts; all of them count as failed if the call raises."""
        raise NotImplementedError

    def call(self, st):
        """One timed call: returns (items completed, output for ``check``)."""
        raise NotImplementedError

    def check(self, st, outputs) -> list:
        """(output index, reason) for every output that fails a gate."""
        raise NotImplementedError

    def rewind(self, st):
        """Reset the state so the next calls repeat the calls made since set-up."""

    def fingerprint(self, out):
        """What must be identical between two runs of the same call."""
        return out

    def instrumented_vs_bare(self, st):
        """(instrumented, bare) gd_run thunks over the same steps, or None."""
        return None


class GdTrace(Workload):
    """Instrumented GD (rp+dir at cadence 1) on the tanh classifier at eta = 1.

    Item: one GD step. A call is one ``gd_run`` with a fixed step budget and no
    stop rule, restarted from theta0.
    """

    name = "gd-trace"
    ETA = 1.0
    STEPS = 300

    def setup(self, seed, workdir):
        cost, theta0 = classifier(seed, "tanh")
        warm_up(cost, theta0)
        config = O.OptimizerConfig(eta=self.ETA, max_iter=self.STEPS, metric_cadence=1)
        return SimpleNamespace(cost=cost, costs=[cost], theta0=theta0, config=config,
                               flags=O.MetricFlags(rp=True, dir=True))

    def call_items(self, st):
        return self.STEPS

    def call(self, st):
        traj = O.gd_run(st.cost, st.theta0, st.config, st.flags)
        return traj.samples[-1].iteration, traj

    def fingerprint(self, traj):
        return tuple((s.loss, s.grad_norm, s.rp, s.dir) for s in traj.samples)

    def instrumented_vs_bare(self, st):
        bare = O.MetricFlags(rp=False, dir=False)
        return (lambda: O.gd_run(st.cost, st.theta0, st.config, st.flags),
                lambda: O.gd_run(st.cost, st.theta0, st.config, bare))

    def check(self, st, outputs):
        failures = []
        eta = self.ETA
        first = self.fingerprint(outputs[0])
        for i, traj in enumerate(outputs):
            s = traj.samples
            if len(s) != self.STEPS + 1:
                failures.append((i, f"{len(s)} samples, want {self.STEPS + 1}"))
                continue
            bad = [t for t in range(self.STEPS)
                   if s[t].rp != rp_oracle(s[t].loss, s[t + 1].loss, eta, s[t].grad_norm)]
            if bad:
                failures.append((i, f"rp(t) != (loss[t+1]-loss[t])/(eta*|g|^2) at t={bad[0]}"))
            if i and self.fingerprint(traj) != first:
                failures.append((i, "rerun from the same theta0 differs from the first call"))
        if len(outputs[0].samples) == self.STEPS + 1:
            replay = replay_gd(st.cost, st.theta0, eta, self.STEPS)
            s = outputs[0].samples
            for t, (loss, gnorm, g) in enumerate(replay):
                if not (close(s[t].loss, loss) and close(s[t].grad_norm, gnorm)):
                    failures.append((0, f"loss/grad_norm at t={t} differ from the replayed GD"))
                    break
                if t < self.STEPS and not close(s[t].dir, dir_oracle(eta, g, replay[t + 1][2])):
                    failures.append((0, f"dir at t={t} differs from its definition"))
                    break
        return failures


class SharpnessSegment(Workload):
    """Max sharpness along the step segment at sampled iterates of unstable runs.

    Set-up runs bare GD at eta = 1 to 95% training accuracy for the fixtures of
    workload seeds 0 and 1 (the acceptance trajectory and the second fixture)
    and samples every 15th iterate of each. The problems are the sampled
    iterates at the start, the middle and a quarter of the way along each
    trajectory, alternating between the trajectories. Item: one sharpness
    estimate; a call is one ``segment_max_sharpness`` with 11 points, so 11
    items, and a pass is one call per problem.

    The problems are the same for every workload seed. One estimate takes
    from about 30 to over 170 hvps depending on the point and the start
    vector, and a run makes fewer than 20 calls, so problems drawn from the
    workload seed spread items_per_s by more than any allowed bound.
    """

    name = "sharpness-segment"
    FIXTURES = (0, 1)
    POSITIONS = (0.0, 0.5, 0.25)  # fractions of the sampled iterates
    ETA = 1.0
    POINTS = 11
    TOL = 1e-4
    MAX_ITER = 30_000
    STRIDE = 15
    BOUND_SLACK = 0.01  # acceptance: lhs <= segment max + 1% of 2/eta
    DENSE_REL_TOL = 0.01
    FD_STEP = 1e-5

    def setup(self, seed, workdir):
        runs = []
        for fixture in self.FIXTURES:
            cost, theta0 = classifier(fixture, "tanh")
            traj = O.gd_run(cost, theta0, O.OptimizerConfig(
                eta=self.ETA, max_iter=6000, metric_cadence=5, stop_accuracy=0.95),
                O.MetricFlags(rp=False, dir=False), record_iterates=True)
            warm_up(cost, theta0)
            sampled = list(range(self.STRIDE, len(traj.iterates) - 1, self.STRIDE))
            runs.append(SimpleNamespace(
                cost=cost, iterates=traj.iterates, outcome=traj.outcome,
                picks=[sampled[int(f * len(sampled))] for f in self.POSITIONS]))
        problems = [(k, r.picks[j]) for j in range(len(self.POSITIONS))
                    for k, r in enumerate(runs)]
        return SimpleNamespace(costs=[r.cost for r in runs], runs=runs, problems=problems,
                               next=0)

    def calls_per_pass(self, st):
        return len(st.problems)

    def call_items(self, st):
        return self.POINTS

    def rewind(self, st):
        st.next = 0

    def call(self, st):
        k, i = st.problems[st.next % len(st.problems)]
        st.next += 1
        seg = M.segment_max_sharpness(st.runs[k].cost, st.runs[k].iterates[i], self.ETA,
                                      samples=self.POINTS, tol=self.TOL, max_iter=self.MAX_ITER)
        return self.POINTS, (k, i, seg)

    def dense_lambda_max(self, cost, theta):
        """Top eigenvalue of a central-difference Hessian built column by column."""
        dim = cost.dimension
        H = np.empty((dim, dim))
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = self.FD_STEP
            H[:, j] = (cost.gradient(theta + e) - cost.gradient(theta - e)) / (2 * self.FD_STEP)
        return float(np.linalg.eigvalsh(0.5 * (H + H.T))[-1])

    def check(self, st, outputs):
        failures = []
        eta = self.ETA
        for n, (k, i, seg) in enumerate(outputs):
            run = st.runs[k]
            if run.outcome != O.OUTCOME_CONVERGED:
                failures.append((n, f"fixture {k}: set-up trajectory ended {run.outcome}"))
                continue
            theta = run.iterates[i]
            g = run.cost.gradient(theta)
            loss = run.cost.value(theta)
            rp = rp_oracle(loss, run.cost.value(theta - eta * g), eta, float(np.linalg.norm(g)))
            lhs = (2 / eta) * (rp + 1.0)
            if not (math.isfinite(seg) and lhs <= seg + self.BOUND_SLACK * (2 / eta)):
                failures.append((n, f"fixture {k} iterate {i}: (2/eta)(rp+1)={lhs:.4f} > "
                                    f"segment max {seg:.4f} + slack"))
        k, i, seg = outputs[0]
        cost, theta = st.runs[k].cost, st.runs[k].iterates[i]
        # the segment's first point is theta itself, estimated with the same arguments
        est = M.sharpness(cost, theta, self.TOL, self.MAX_ITER)
        dense = self.dense_lambda_max(cost, theta)
        rel = abs(est - dense) / abs(dense)
        if rel > self.DENSE_REL_TOL or seg < est:
            failures.append((0, f"fixture {k} iterate {i}: estimate {est:.6f} vs dense "
                                f"{dense:.6f} (rel {rel:.2e}), segment max {seg:.6f}"))
        return failures


class SgdErp(Workload):
    """SGD on the relu classifier with expected-rp estimates at every epoch checkpoint.

    A round runs ``sgd_run`` (batch 32, 12 epochs) at eta 2/50, then 2/100;
    every checkpoint runs ``expected_rp`` and ``expected_rp_rhs`` on the same
    160 batches. Item: one checkpoint. A call is one checkpoint, preceded by
    the ``sgd_run`` that produces it when the previous round is used up; a
    pass is one ``sgd_run`` and its 13 checkpoints.
    """

    name = "sgd-erp"
    ETAS = (2 / 50, 2 / 100)
    EPOCHS = 12
    BATCH = 32
    SGD_SEED = 5
    MC_BATCHES = 160
    MC_SEED = 1000
    MAX_GAP = 0.1

    def setup(self, seed, workdir):
        cost, theta0 = classifier(seed, "relu")
        warm_up(cost, theta0)
        rows = np.arange(self.BATCH)
        for _ in range(WARM_UP_EVALS):
            cost.stochastic_gradient(theta0, rows)
        return SimpleNamespace(cost=cost, costs=[cost], theta0=theta0, pending=deque(), runs=0)

    def calls_per_pass(self, st):
        return self.EPOCHS + 1

    def call_items(self, st):
        return 1

    def rewind(self, st):
        st.pending.clear()
        st.runs = 0

    def call(self, st):
        if not st.pending:
            eta = self.ETAS[st.runs % len(self.ETAS)]
            st.runs += 1
            traj = O.sgd_run(st.cost, st.theta0, O.OptimizerConfig(
                eta=eta, max_iter=self.EPOCHS, batch_size=self.BATCH, seed=self.SGD_SEED),
                O.MetricFlags(rp=True, dir=False), record_checkpoints=True)
            run = (eta, traj.outcome, len(traj.iterates))
            st.pending.extend((run, k, theta) for k, theta in enumerate(traj.iterates))
        run, k, theta = st.pending.popleft()
        eta = run[0]
        # matching seeds pair the two estimators on identical batch draws
        lhs, _ = M.expected_rp(st.cost, theta, eta, self.BATCH, self.MC_BATCHES,
                               seed=self.MC_SEED + k)
        rhs, _ = M.expected_rp_rhs(st.cost, theta, eta, self.BATCH, self.MC_BATCHES,
                                   seed=self.MC_SEED + k)
        return 1, (run, k, lhs, rhs)

    def check(self, st, outputs):
        failures = []
        for i, ((eta, outcome, checkpoints), k, lhs, rhs) in enumerate(outputs):
            if outcome != O.OUTCOME_BUDGET or checkpoints != self.EPOCHS + 1:
                failures.append((i, f"sgd_run at eta={eta}: {outcome}, {checkpoints} checkpoints"))
            elif not (math.isfinite(lhs) and math.isfinite(rhs)
                      and abs(lhs - rhs) <= self.MAX_GAP):
                failures.append((i, f"eta={eta} checkpoint {k}: lhs={lhs} rhs={rhs}"))
        return failures


CSV_COLUMNS = ["iter", "loss", "grad_norm", "rp", "dir", "sharpness", "identity_residual",
               "tau_dir_mean", "tau_dir_std"]


class PresetW200(Workload):
    """``experiments.run_spec`` on the mlp-gd-width200 preset with a capped step budget.

    Each call parses the spec text and runs it, writing the CSV trace and the
    summary JSON to a directory of its own. Item: one GD step.
    """

    name = "preset-w200"
    PRESET = "mlp-gd-width200"
    STEPS = 100
    HIDDEN = (200, 200)

    def spec_text(self, seed):
        cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        cp.read_string(resources.files("gdscope").joinpath(f"presets/{self.PRESET}.cfg")
                       .read_text())
        cp["dataset"]["seed"] = str(DATA_SEED + seed)
        cp["init"]["seed"] = str(INIT_SEED + seed)
        cp["optimizer"]["max_iter"] = str(self.STEPS)
        cp["output"]["path"] = "trace.csv"
        buf = io.StringIO()
        cp.write(buf)
        return buf.getvalue()

    def setup(self, seed, workdir):
        text = self.spec_text(seed)
        spec = E.parse_spec(io.StringIO(text))
        cost, theta0 = E.build_cost(spec)
        warm_up(cost, theta0)
        cadence = spec.optimizer_config(spec.etas[0]).cadence_for(cost)
        # run_spec builds its own costs; the tracer picks them up from build_cost
        return SimpleNamespace(costs=[], seed=seed, text=text, spec=spec, cadence=cadence,
                               workdir=workdir, calls=0)

    def call_items(self, st):
        return self.STEPS

    def call(self, st):
        spec = E.parse_spec(io.StringIO(st.text), name_hint=self.PRESET)
        outdir = st.workdir / f"call{st.calls}"
        st.calls += 1
        summary = E.run_spec(spec, outdir)
        return summary.iterations, summary

    def fingerprint(self, summary):
        return (summary.outcome, summary.iterations, summary.final_loss)

    def instrumented_vs_bare(self, st):
        cost, theta0 = E.build_cost(st.spec)
        config = st.spec.optimizer_config(st.spec.etas[0])
        bare = O.MetricFlags(rp=False, dir=False)
        return (lambda: O.gd_run(cost, theta0, config, st.spec.flags),
                lambda: O.gd_run(cost, theta0, config, bare))

    def read_outputs(self, summary):
        """Parse the CSV trace with the fixed schema; raise ValueError on any deviation."""
        with open(summary.csv_path) as fh:
            lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
        if not lines or lines[0].split(",") != CSV_COLUMNS:
            raise ValueError(f"header {lines[:1]} is not {','.join(CSV_COLUMNS)}")
        rows = []
        for row in csv.DictReader(lines):
            if None in row or any(v is None for v in row.values()):
                raise ValueError(f"row with {len(row)} fields")
            if any("nan" in v.lower() for v in row.values()):
                raise ValueError(f"nan text in row {row}")
            parsed = {k: (float(v) if v else None) for k, v in row.items()}
            parsed["iter"] = int(row["iter"])
            rows.append(parsed)
        with open(summary.csv_path + ".summary.json") as fh:
            written = json.load(fh)
        return rows, written

    def check(self, st, outputs):
        failures = []
        cadence = st.cadence
        for i, summary in enumerate(outputs):
            try:
                rows, written = self.read_outputs(summary)
            except (OSError, ValueError, KeyError) as exc:
                failures.append((i, f"unreadable outputs: {exc}"))
                continue
            n = written.get("iterations")
            want = [t for t in range(n + 1) if t % cadence == 0 or t == n] \
                if isinstance(n, int) else None
            if [r["iter"] for r in rows] != want:
                failures.append((i, f"{len(rows)} rows do not match {n} iterations"))
            elif any(r["loss"] is None or r["grad_norm"] is None for r in rows):
                failures.append((i, "row without loss or grad_norm"))
            elif written.get("final_loss") != rows[-1]["loss"] \
                    or written != json.loads(summary.to_json()):
                failures.append((i, "summary JSON disagrees with the trace"))
            elif not ((written["outcome"] == O.OUTCOME_BUDGET and n == self.STEPS)
                      or (written["outcome"] == O.OUTCOME_CONVERGED and n <= self.STEPS)):
                failures.append((i, f"outcome {written['outcome']} after {n} of "
                                    f"{self.STEPS} steps"))
            elif i == 0:
                failures.extend((0, msg) for msg in self.replay_check(st, rows, n))
        return failures

    def replay_check(self, st, rows, steps):
        """Rows against GD replayed here on a cost built without the spec machinery."""
        cost, theta0 = classifier(st.seed, "tanh", self.HIDDEN)
        eta = st.spec.etas[0]
        replay = replay_gd(cost, theta0, eta, steps)
        for row in rows:
            t = row["iter"]
            loss, gnorm, g = replay[t]
            if not (close(row["loss"], loss) and close(row["grad_norm"], gnorm)):
                return [f"row {t}: loss/grad_norm differ from the replayed GD"]
            if t < steps:
                if row["rp"] != rp_oracle(loss, replay[t + 1][0], eta, gnorm):
                    return [f"row {t}: rp differs from (loss[t+1]-loss[t])/(eta*|g|^2)"]
                if not close(row["dir"], dir_oracle(eta, g, replay[t + 1][2])):
                    return [f"row {t}: dir differs from its definition"]
        return []


WORKLOADS = {w.name: w for w in (GdTrace(), SharpnessSegment(), SgdErp(), PresetW200())}

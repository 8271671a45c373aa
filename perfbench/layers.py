"""Traced run: per-layer metrics of barypoly's five modules on a workload's inputs.

The layers are the package's modules: stationary, dynamics, analysis,
geometry and cli.  Spans are recorded from the benchmark's side only: the
calls a module makes into another barypoly module are wrapped for the
duration of the traced operations, and the benchmark opens one root span
per operation.  Spans stay in memory and are written out when the run ends,
together with each layer's self time.
"""
from __future__ import annotations

import inspect
import json
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from timing import run_child

LAYERS = ("stationary", "dynamics", "analysis", "geometry", "cli")
CHECK_NAMES = (
    "stationary_certificate", "fixed_point", "spectral", "instability_growth",
    "unique_fixed_point_grid", "order_preserved", "ratio_monotone", "spread_contraction",
    "contraction_certificates", "spread_geometric_bound", "t_ratio_transfer",
    "phase_alternation", "even_odd_limits", "comparison_domination",
    "dual_convergence", "polygon_collapse",
)

# Every metric the traced run prints, with its unit; BENCHMARK.json lists the same.
PER_LAYER = (
    [("stationary.certificate_us", "us"),
     ("dynamics.conjugate_step_us.p5", "us"),
     ("dynamics.conjugate_step_us.p1024", "us"),
     ("dynamics.run_trajectory_s", "s"),
     ("dynamics.states_recorded", "count"),
     ("dynamics.steps_computed", "count"),
     ("dynamics.recorded_per_step", "ratio"),
     ("analysis.trajectory_checks_s", "s")]
    + [(f"analysis.check.{n}_s", "s") for n in CHECK_NAMES]
    + [("analysis.spectral_check_ms.p1024", "ms"),
       ("analysis.pairs_compared", "count"),
       ("analysis.certificates_emitted", "count"),
       ("analysis.audited_share", "ratio"),
       ("geometry.polygon_step_us", "us"),
       ("geometry.limit_point_us", "us"),
       ("geometry.dual_sequence_ms", "ms"),
       ("cli.interpreter_ms", "ms"),
       ("cli.import_numpy_ms", "ms"),
       ("cli.import_ms", "ms")]
    + [(f"cli.main_ms.{c}", "ms") for c in ("alpha", "trajectory", "verify", "figure")]
    + [("cli.figure_iterates_ms", "ms")]
    + [(f"{layer}.self_ms", "ms") for layer in LAYERS]
    + [("trace.spans", "count"), ("trace.overhead_share", "ratio")]
)

REPEATS = 3
# the reference seed of the README and of the dual_convergence check
DUAL_WEIGHTS = (0.3, 0.08, 0.06, 0.04, 0.01)
INTERPRETER_STARTS = 5


class Tracer:
    """In-memory spans: [name, parent index, start ns, end ns, op id]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._patched: list[tuple] = []

    def call(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        if not self._stack:
            self._op += 1
        self.spans.append([name, self._stack[-1] if self._stack else -1, time.perf_counter_ns(), 0, self._op])
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx][3] = time.perf_counter_ns()

    def install(self, modules) -> None:
        """Wrap every function a module imported from another barypoly module."""
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                home = getattr(fn, "__module__", "") or ""
                if inspect.isfunction(fn) and home.startswith("barypoly.") and home != mod.__name__:
                    name = f"{home.rsplit('.', 1)[1]}.{fn.__name__}"
                    setattr(mod, attr, self._wrapped(name, fn))
                    self._patched.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def _wrapped(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def self_ns(self) -> dict[str, int]:
        """Per layer: span time minus the time its direct children cover."""
        child = [0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(LAYERS, 0)
        for i, (name, _, start, end, _) in enumerate(self.spans):
            out[name.split(".", 1)[0]] += end - start - child[i]
        return out


def _median_time(fn, repeats: int = REPEATS, inner: int = 1) -> float:
    """Median over repeats of the mean seconds per call, after one warm call."""
    fn()
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        samples.append((time.perf_counter() - t0) / inner)
    return statistics.median(samples)


def _interpreter_ms(code: str) -> float:
    """Median wall time of a fresh interpreter running code (same environment)."""
    samples = []
    for _ in range(INTERPRETER_STARTS):
        status, elapsed = run_child([sys.executable, "-c", code], 60)
        if status != 0:
            raise RuntimeError(f"python -c {code!r} exited with {status}")
        samples.append(elapsed)
    return 1e3 * statistics.median(samples)


def _near_alpha_state(bp, rng, p: int):
    # a state close to the fixed point steps without saturating at any p
    alpha = bp.solve_alpha(p)
    return bp.ConjugateTuple.of(sorted(alpha * (1.0 + 1e-3 * rng.uniform(-1.0, 1.0, size=p))))


def _record_metrics(bp, spec: dict) -> dict:
    """dynamics and analysis metrics on the records of the workload's sweep seeds."""
    rng = np.random.default_rng(spec["rng_seed"])
    seeds = [(p, sorted(rng.uniform(1e-3, 1.0 - 1e-3, size=p)))
             for p in spec["p_values"] for _ in range(spec["seeds_per_p"])]
    alphas = {p: bp.solve_alpha(p) for p in spec["p_values"]}

    def build():
        return [bp.run_trajectory(bp.ConjugateTuple.of(u), spec["max_steps"], alphas[p]) for p, u in seeds]

    records = build()
    verdicts = [bp.trajectory_checks(r) for r in records]
    m = {
        "dynamics.run_trajectory_s": _median_time(build),
        "analysis.trajectory_checks_s": _median_time(lambda: [bp.trajectory_checks(r) for r in records]),
    }
    # a step's state is recorded unless it saturates; the seed is not a step
    recorded = sum(len(r) - 1 for r in records)
    steps = recorded + sum(r.saturation_step is not None for r in records)
    m["dynamics.states_recorded"] = recorded
    m["dynamics.steps_computed"] = steps
    m["dynamics.recorded_per_step"] = recorded / steps
    # ratio_monotone visits every pair for states two apart; t_ratio_transfer
    # visits every pair on even states
    m["analysis.pairs_compared"] = sum(
        r.p * (r.p - 1) // 2 * (max(len(r) - 2, 0) + (len(r) + 1) // 2) for r in records)
    m["analysis.certificates_emitted"] = sum(
        res.witness.get("certificates", 0) for v in verdicts for res in v if res.name == "contraction_certificates")
    m["analysis.audited_share"] = sum(len(r) >= 3 for r in records) / len(records)
    for name in CHECK_NAMES:
        m[f"analysis.check.{name}_s"] = _median_time(lambda: bp.default_suite(checks=[name], **spec))
    return m


def _probe_metrics(bp, cli_wl, spec: dict) -> dict:
    from barypoly import cli

    rng = np.random.default_rng(spec["rng_seed"])
    m = {}
    ps = spec["p_values"]
    m["stationary.certificate_us"] = 1e6 * _median_time(lambda: [bp.certificate(p) for p in ps], inner=20) / len(ps)
    for p, inner in ((5, 2000), (1024, 20)):
        state = _near_alpha_state(bp, rng, p)
        m[f"dynamics.conjugate_step_us.p{p}"] = 1e6 * _median_time(lambda: bp.conjugate_step(state), inner=inner)
    m["analysis.spectral_check_ms.p1024"] = 1e3 * _median_time(lambda: bp.spectral_check(1024))

    pts = bp.PointSet.of(rng.uniform(-1.0, 1.0, size=(5, 2)))
    t = bp.WeightTuple.of(rng.uniform(0.1, 0.9, size=5))
    m["geometry.polygon_step_us"] = 1e6 * _median_time(lambda: bp.polygon_step(pts, t), inner=2000)
    m["geometry.limit_point_us"] = 1e6 * _median_time(lambda: bp.limit_point(pts, t), inner=2000)
    inp = cli_wl.inputs(1)
    polygon = cli._points_from_config(cli.RunConfig(), 5)
    m["geometry.dual_sequence_ms"] = 1e3 * _median_time(
        lambda: bp.dual_sequence(polygon, bp.WeightTuple.of(DUAL_WEIGHTS), 60), inner=5)
    fig_t = bp.WeightTuple.of(inp["figure"])
    m["cli.figure_iterates_ms"] = 1e3 * _median_time(lambda: cli.figure_iterates(polygon, fig_t), inner=5)

    bare = _interpreter_ms("pass")
    m["cli.interpreter_ms"] = bare
    m["cli.import_numpy_ms"] = _interpreter_ms("import numpy") - bare
    m["cli.import_ms"] = _interpreter_ms("import barypoly.cli") - bare
    return m


def _call(name, fn, *args):
    return fn(*args)


def trace_run(wl, cli_wl, trace_path: Path) -> dict:
    """Per-layer metrics on wl's inputs; cli_wl supplies the command inputs."""
    import barypoly as bp
    from barypoly import analysis, cli, dynamics, geometry, stationary

    spec = wl.sweep_spec()
    metrics = _record_metrics(bp, spec)
    metrics.update(_probe_metrics(bp, cli_wl, spec))
    for cmd in cli_wl.commands:
        metrics[f"cli.main_ms.{cmd}"] = 1e3 * _median_time(lambda: cli_wl.run_in_process(cli.main, 1, cmd))

    # The workload's own operations, each run untraced and then traced; the
    # difference is the tracing overhead.
    tracer = Tracer()
    elapsed = {False: 0.0, True: 0.0}
    outputs: list = []
    for k in (1, 2):
        for traced in (False, True):
            call = tracer.call if traced else _call
            if traced:
                tracer.install((analysis, cli, dynamics, geometry, stationary))
            try:
                t0 = time.perf_counter()
                if wl.name == "cli":
                    outputs += [(k, cmd, *call("cli.main", wl.run_in_process, cli.main, k, cmd))
                                for cmd in wl.commands]
                else:
                    outputs.append(call("analysis.default_suite", wl.op, k))
                elapsed[traced] += time.perf_counter() - t0
            finally:
                tracer.uninstall()
    failed, errors = wl.check_outputs(outputs)

    ops = tracer._op + 1
    self_ns = tracer.self_ns()
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = self_ns[layer] / 1e6 / ops
    metrics["trace.spans"] = len(tracer.spans) / ops
    metrics["trace.overhead_share"] = elapsed[True] / elapsed[False] - 1.0

    t_origin = tracer.spans[0][2] if tracer.spans else 0
    trace_path.write_text(json.dumps({
        "workload": wl.name,
        "columns": ["name", "parent", "start_ns", "end_ns", "op"],
        "spans": [[n, p, s - t_origin, e - t_origin, o] for n, p, s, e, o in tracer.spans],
        "self_ms_per_op": {layer: metrics[f"{layer}.self_ms"] for layer in LAYERS},
        "overhead_share": metrics["trace.overhead_share"],
    }), encoding="utf-8")

    missing = [n for n, _ in PER_LAYER if n not in metrics or not math.isfinite(metrics[n])]
    if missing:
        errors.append(f"traced run produced no value for {missing}")
    units = dict(PER_LAYER)
    return {
        "attempted": len(outputs),
        "failed": failed,
        "errors": errors,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n, _ in PER_LAYER if n in metrics},
        "trace_file": str(trace_path),
    }

"""Spans around calls into gridfilt's public functions, for the traced run.

The tracer rebinds, while it is installed, every module-level name under which
a gridfilt module refers to a traced function (``gridfilt.estimators.solve``,
``gridfilt.solver.project_l1_ball``, ...), so the program itself is not
edited. Calls that happen once per trial, anchor or solve keep a span each
(name, start, end, parent span, request); calls made once per iteration or
per shift (``project_l1_ball``, ``convolve``, ``dft_window`` ...) are only
counted and timed, in an aggregate kept on their parent span.

A call's self time is its duration minus the durations of the traced calls
made inside it. Calls run on one thread and never overlap, so the self times
of all calls in a request add up to the request's traced wall time.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import sys
import time
import tracemalloc
from collections import defaultdict

SPAN = "span"
AGGREGATE = "aggregate"

# (layer name, defining module, attribute, kind)
TARGETS = (
    ("cli.main", "gridfilt.cli", "main", SPAN),
    ("harness.monte_carlo", "gridfilt.harness", "monte_carlo", SPAN),
    ("harness.run_trial", "gridfilt.harness", "run_trial", SPAN),
    ("harness.check_gaussian_max", "gridfilt.harness", "check_gaussian_max", SPAN),
    ("harness.check_theta_moment", "gridfilt.harness", "check_theta_moment", SPAN),
    ("harness.sample_noise", "gridfilt.harness", "sample_noise", AGGREGATE),
    ("estimators.denoise_point", "gridfilt.estimators", "denoise_point", SPAN),
    ("estimators.theta_stat", "gridfilt.estimators", "theta_stat", AGGREGATE),
    ("solver.build_instance", "gridfilt.solver", "build_filtering_instance", SPAN),
    ("solver.solve", "gridfilt.solver", "solve", SPAN),
    ("solver.dual_lower_bound", "gridfilt.solver", "dual_lower_bound", SPAN),
    ("solver.project_l1_ball", "gridfilt.solver", "project_l1_ball", AGGREGATE),
    ("fields.convolve", "gridfilt.fields", "convolve", AGGREGATE),
    ("fields.dft_window", "gridfilt.fields", "dft_window", AGGREGATE),
    ("signals.eval_exp_poly", "gridfilt.signals", "eval_exp_poly", SPAN),
    ("signals.certificate_filter", "gridfilt.signals", "Certificate.filter",
     AGGREGATE),
)


class Tracer:
    """In-memory span recorder; install it around the code to be traced."""

    def __init__(self):
        self.spans: list[dict] = []
        # request -> layer -> [calls, total seconds, self seconds]
        self.totals = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        # (iterations, converged, gap) of every solve, per request
        self.solves = defaultdict(list)
        self.solve_peak_mib = 0.0
        self._first_instances: dict = {}
        self._stack: list[list] = []   # open calls: [child seconds, span id, aggregates]
        self._request = None
        self._restore: list = []
        self._ids = itertools.count()

    # ------------------------------------------------------------ recording

    def _wrap(self, layer: str, fn, kind: str):
        stack = self._stack
        spans = self.spans
        ids = self._ids

        def traced(*args, **kwargs):
            frame = [0.0, next(ids), None]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                self_s = duration - frame[0]
                total = self.totals[self._request][layer]
                total[0] += 1
                total[1] += duration
                total[2] += self_s
                if parent is not None:
                    parent[0] += duration
                if kind == SPAN:
                    spans.append({
                        "id": frame[1], "parent": None if parent is None else parent[1],
                        "request": self._request, "name": layer,
                        "start": start, "end": end, "self_s": self_s,
                        "aggregates": frame[2] or {}})
                elif parent is not None:
                    if parent[2] is None:
                        parent[2] = {}
                    agg = parent[2].setdefault(layer, [0, 0.0])
                    agg[0] += 1
                    agg[1] += duration

        traced.__wrapped__ = fn
        return traced

    def _solve_probe(self, solve):
        """Record each solve's result, and the first instance of each problem size."""
        from gridfilt.errors import ConvergenceError

        def recorded(inst, *args, **kwargs):
            self._first_instances.setdefault((inst.mode, inst.d, inst.T_alg), inst)
            result = None
            try:
                result = solve(inst, *args, **kwargs)
                return result
            except ConvergenceError as exc:
                result = exc.result
                raise
            finally:
                if result is not None:
                    self.solves[self._request].append(
                        (result.iterations, result.converged, result.gap))

        return recorded

    def measure_solve_peak(self, max_iter: int = 200) -> None:
        """Peak memory allocated inside ``solve``, once per problem size seen.

        Each recorded instance is solved again, untraced and with a short
        iteration budget, under ``tracemalloc``: the solver's arrays all exist
        after the first iterations, and ``tracemalloc`` slows allocation-heavy
        code several times over, so it never runs inside a timed call.
        """
        from gridfilt import solver
        from gridfilt.errors import ConvergenceError

        for inst in self._first_instances.values():
            tracemalloc.start()
            try:
                solver.solve(inst, max_iter=max_iter)
            except ConvergenceError:
                pass
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self.solve_peak_mib = max(self.solve_peak_mib, peak / 2 ** 20)

    # ---------------------------------------------------------- installation

    @contextlib.contextmanager
    def installed(self, request: str):
        """Trace calls made inside the block, filed under ``request``."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "gridfilt" or name.startswith("gridfilt.")]
        self._request = request
        try:
            for layer, modname, attr, kind in TARGETS:
                owner = importlib.import_module(modname)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    self._rebind(cls, meth, self._wrap(layer, original, kind))
                    continue
                original = getattr(owner, attr)
                fn = self._solve_probe(original) if layer == "solver.solve" else original
                wrapper = self._wrap(layer, fn, kind)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, name, wrapper)
            yield self
        finally:
            for owner, name, original in reversed(self._restore):
                setattr(owner, name, original)
            self._restore.clear()
            self._request = None

    def _rebind(self, owner, name, value) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    # -------------------------------------------------------------- results

    def total(self, request: str, layer: str) -> tuple[int, float, float]:
        """(calls, seconds, self seconds) of a layer within one request."""
        calls, seconds, self_s = self.totals.get(request, {}).get(layer, (0, 0.0, 0.0))
        return calls, seconds, self_s

    def self_time_sum(self, request: str) -> float:
        return sum(t[2] for t in self.totals.get(request, {}).values())

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def per_layer_metrics(tracer: Tracer, calls: int, traced_wall: float,
                      untraced_wall: float, rmse_ratio_oracle: float) -> dict:
    """Per-layer metrics per CLI call, from the ``cli`` request of a traced run.

    ``signals.eval_exp_poly.s`` also counts the benchmark's own set-up, and
    ``solver.dual_lower_bound.s`` is timed in the verification pass, which
    also gives ``rmse_ratio_oracle``.
    """
    def per_call(layer, field):
        return tracer.total("cli", layer)[field] / calls

    solve_s = tracer.total("cli", "solver.solve")[1]
    project_s = tracer.total("cli", "solver.project_l1_ball")[1]
    solves = tracer.solves["cli"]
    iterations = sum(s[0] for s in solves)
    metrics = {
        "estimators.rmse_ratio_oracle": rmse_ratio_oracle,
        "solver.project_l1_ball.calls": per_call("solver.project_l1_ball", 0),
        "solver.project_l1_ball.s": per_call("solver.project_l1_ball", 1),
        "solver.project_l1_ball.share": project_s / solve_s if solve_s else 0.0,
        "solver.us_per_iter": 1e6 * solve_s / iterations if iterations else 0.0,
        "solver.iters_per_solve": iterations / len(solves) if solves else 0.0,
        "solver.converged_ratio": (sum(1 for s in solves if s[1]) / len(solves)
                                   if solves else 0.0),
        "solver.solve.calls": per_call("solver.solve", 0),
        "solver.solve.s": per_call("solver.solve", 1),
        "solver.solve.self_s": per_call("solver.solve", 2),
        "solver.build_instance.s": per_call("solver.build_instance", 1),
        "solver.solve.peak_mib": tracer.solve_peak_mib,
        "solver.dual_lower_bound.s": tracer.total("verify", "solver.dual_lower_bound")[1],
        "solver.gap_max": max((s[2] for s in solves), default=0.0),
        "estimators.theta_stat.calls": per_call("estimators.theta_stat", 0),
        "estimators.theta_stat.s": per_call("estimators.theta_stat", 1),
        "fields.dft_window.calls": per_call("fields.dft_window", 0),
        "fields.dft_window.s": per_call("fields.dft_window", 1),
        "harness.check_theta_moment.s": per_call("harness.check_theta_moment", 1),
        "harness.run_trial.self_s": per_call("harness.run_trial", 2),
        "harness.sample_noise.s": per_call("harness.sample_noise", 1),
        "harness.check_gaussian_max.s": per_call("harness.check_gaussian_max", 1),
        "fields.convolve.calls": per_call("fields.convolve", 0),
        "fields.convolve.s": per_call("fields.convolve", 1),
        "signals.certificate_filter.s": per_call("signals.certificate_filter", 1),
        "cli.self_s": per_call("cli.main", 2),
        "signals.eval_exp_poly.s": (tracer.total("setup", "signals.eval_exp_poly")[1]
                                    + per_call("signals.eval_exp_poly", 1)),
        "trace.overhead": traced_wall / untraced_wall,
    }
    return {k: float(v) for k, v in metrics.items()}

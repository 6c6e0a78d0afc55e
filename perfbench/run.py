#!/usr/bin/env python3
"""Seeded benchmark of the gridfilt command line program.

    python3 perfbench/run.py --workload field-d2 --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout. The run builds the workload's inputs
from the seed (``workloads.py``), then calls ``gridfilt.cli.main`` in-process
on them, again and again, for about ``--seconds`` seconds; every call must
write byte-identical files. It verifies the first call's output without
trusting the solver (``verify.py``) and prints, as the last line of standard
output, one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``. The line before it
records the output digest, the unconverged share, the environment and the
seed; a readable summary goes to standard error.

Set-up time is the median over several fresh interpreters, each importing
gridfilt (with numpy and yaml already loaded) and building the inputs. Throughput comes from the fastest call of
the run: on a shared machine, interference from other tenants only ever slows
a call, and identical calls were seen to differ by up to 50%. The traced run
alternates untraced and traced calls, so the tracing overhead is measured on
the same inputs; its spans are written to ``.perfbench_work/``. numpy's BLAS
keeps its default thread count, which is recorded with the results.

Exit status: 0 when the output is verified, 1 when it is not, 2 when the
gridfilt sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 5


@dataclass
class Call:
    code: int
    wall: float
    digest: str
    traced: bool


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR",
                        help="only build the inputs in DIR and print the seconds taken")
    return parser.parse_args(argv)


def probe_setup(args, workdir: str, k: int) -> float:
    """Set-up time of one fresh interpreter, from ``import gridfilt`` to the inputs."""
    target = os.path.join(workdir, f"probe{k}")
    os.makedirs(target)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe", target],
        capture_output=True, text=True, timeout=120)
    if proc.returncode:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or None if not found."""
    import ctypes
    import glob

    import numpy
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import platform

    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "nproc": len(os.sched_getaffinity(0))}


def warm_up(seconds: float = 0.2) -> None:
    """Start BLAS's threads before timing; the first product pays for it."""
    import numpy as np
    a = np.ones((256, 256), dtype=complex)
    v = np.ones(256, dtype=complex)
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        a @ v


def traced(tracer, request: str):
    """The tracer installed for ``request``, or no tracing without a tracer."""
    return contextlib.nullcontext() if tracer is None else tracer.installed(request)


def measure(inputs, workdir: str, seconds: float, tracer) -> list[Call]:
    """Call the CLI for at most about ``seconds`` seconds, and at least once.

    With a tracer, each round is an untraced call followed by a traced one,
    and there are at least two rounds.
    The first call's output stays in ``workdir/call0`` for verification.
    """
    from gridfilt import cli

    from perfbench import verify

    def one(k: int, trace_call: bool) -> Call:
        out_dir = os.path.join(workdir, f"call{k}")
        argv = inputs.argv + ["--out", out_dir, "--quiet"]
        start = time.perf_counter()
        with traced(tracer if trace_call else None, "cli"):
            code = cli.main(argv)
        wall = time.perf_counter() - start
        call = Call(code, wall, verify.digest(out_dir, inputs.outputs), trace_call)
        if k:
            shutil.rmtree(out_dir)
        return call

    calls: list[Call] = []
    start = time.perf_counter()
    rounds = 0
    min_rounds = 1 if tracer is None else 2   # tracing overhead is a ratio of minima
    while True:
        calls.append(one(len(calls), False))
        if tracer is not None:
            calls.append(one(len(calls), True))
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= min_rounds and elapsed + elapsed / rounds > seconds:
            return calls   # the next round would overrun


def result_line(correct: bool, attempted: int, failed: int, metrics: dict,
                spec: list[dict]) -> str:
    missing = [m["name"] for m in spec if m["name"] not in metrics]
    if missing:
        raise KeyError(f"metrics not computed: {missing}")
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec}})


def run(args) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    spec = bench["per_layer" if args.trace else "end_to_end"]
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-", dir=WORK)
    try:
        setup_s = statistics.median(probe_setup(args, workdir, k)
                                    for k in range(SETUP_REPEATS))
        from perfbench import tracing, verify, workloads

        tracer = tracing.Tracer() if args.trace else None
        inputs_dir = os.path.join(workdir, "inputs")
        os.makedirs(inputs_dir)
        with traced(tracer, "setup"):
            inputs = workloads.WORKLOADS[args.workload].setup(args.seed, inputs_dir)
        warm_up()
        errors = []
        try:
            calls = measure(inputs, workdir, args.seconds, tracer)
        except Exception:
            traceback.print_exc()
            print(result_line(False, inputs.items, inputs.items, {}, []))
            return 1
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        with traced(tracer, "verify"):
            outcome = verify.check(inputs, os.path.join(workdir, "call0"))
        errors += outcome.errors
        reference = calls[0].digest
        for k, call in enumerate(calls):
            if call.code not in inputs.ok_codes:
                errors.append(f"call {k}: gridfilt exited {call.code}")
            if call.digest != reference:
                errors.append(f"call {k}: output digest {call.digest} differs "
                              f"from the verified {reference}")
        ok = not outcome.errors
        attempted = inputs.items * len(calls)
        failed = sum(inputs.items for call in calls
                     if not (ok and call.code in inputs.ok_codes
                             and call.digest == reference))

        untraced_walls = [c.wall for c in calls if not c.traced]
        if tracer is not None:
            traced_walls = [c.wall for c in calls if c.traced]
            tracer.measure_solve_peak()
            covered = tracer.self_time_sum("cli")
            if abs(covered - sum(traced_walls)) > 0.01 * sum(traced_walls):
                errors.append(f"span self times add up to {covered:.4f} s, "
                              f"traced wall time is {sum(traced_walls):.4f} s")
            metrics = tracing.per_layer_metrics(
                tracer, len(traced_walls), min(traced_walls), min(untraced_walls),
                outcome.rmse_ratio_oracle)
            spans_path = os.path.join(
                WORK, f"spans-{args.workload}-s{args.seed}-{os.getpid()}.jsonl")
            tracer.write_spans(spans_path)
        else:
            spans_path = None
            metrics = {
                "setup_s": setup_s,
                "estimates_per_s": inputs.items / min(untraced_walls),
                "peak_rss_mib": peak_rss_mib,
            }

        info = {"workload": args.workload, "seed": args.seed, "calls": len(calls),
                "estimates_per_call": inputs.items, "digest": reference,
                "unconverged": outcome.unconverged, "verified_rows": outcome.rows,
                "unconverged_frac": outcome.unconverged / max(outcome.rows, 1),
                "rmse_ratio_oracle": outcome.rmse_ratio_oracle,
                "call_walls_s": [c.wall for c in calls], "env": environment(),
                "spans": spans_path and os.path.relpath(spans_path, ROOT)}
        summarize(info, metrics, spec, errors)
        print(json.dumps(info))
        print(result_line(not errors, attempted, failed, metrics, spec))
        return 1 if errors else 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def summarize(info: dict, metrics: dict, spec: list[dict], errors: list[str]) -> None:
    out = sys.stderr
    print(f"{info['workload']} seed {info['seed']}: {info['calls']} calls of "
          f"{info['estimates_per_call']} estimates, digest {info['digest'][:16]}",
          file=out)
    for m in spec:
        print(f"  {m['name']:32s} {metrics[m['name']]:.6g} {m['unit']}", file=out)
    print(f"  {'unconverged_frac':32s} {info['unconverged_frac']:.6g} "
          f"({info['unconverged']} of {info['verified_rows']} estimates above tol)",
          file=out)
    env = info["env"]
    print(f"  python {env['python']}, numpy {env['numpy']}, {env['blas']} with "
          f"{env['blas_threads']} threads, nproc {env['nproc']}", file=out)
    for e in errors:
        print(f"VERIFY FAIL {e}", file=out)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gridfilt", "cli.py")):
        print(f"gridfilt sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    if args.setup_probe:
        # numpy and yaml load before the clock starts: their import is a fixed
        # cost of the dependencies, IO-bound and the noisiest part of set-up.
        import numpy  # noqa: F401
        import yaml  # noqa: F401
        start = time.perf_counter()
        from perfbench import workloads
        workloads.WORKLOADS[args.workload].setup(args.seed, args.setup_probe)
        print(time.perf_counter() - start)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())

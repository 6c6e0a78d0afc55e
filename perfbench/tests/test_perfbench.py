"""Tests of the benchmark itself: workload paths, tracing, names and verification.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import csv
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from gridfilt import cli  # noqa: E402

from perfbench import run, tracing, verify, workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)

TINY = {
    "mc-d1": workloads.MonteCarlo(trials=1),
    "field-d2": dataclasses.replace(workloads.WORKLOADS["field-d2"], T=1,
                                    anchors=((0, 0), (1, 1))),
}


def call_cli(inputs, out_dir):
    return cli.main(inputs.argv + ["--out", str(out_dir), "--quiet"])


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """Each tiny workload set up, called twice, and its first output kept."""
    runs = {}
    for name, spec in TINY.items():
        base = tmp_path_factory.mktemp(name)
        inputs = spec.setup(7, str(base))
        codes = [call_cli(inputs, base / f"call{k}") for k in range(2)]
        runs[name] = (inputs, base / "call0", codes)
    return runs


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_runs_and_verifies(tiny_runs, name):
    inputs, out_dir, codes = tiny_runs[name]
    assert all(code in inputs.ok_codes for code in codes)
    outcome = verify.check(inputs, str(out_dir))
    assert outcome.errors == []
    assert outcome.rows == inputs.items
    assert outcome.rmse_ratio_oracle > 0
    digests = {verify.digest(str(out_dir.parent / f"call{k}"), inputs.outputs)
               for k in range(2)}
    assert len(digests) == 1


def test_benchmark_names_and_units():
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    names = [m["name"] for m in metrics + BENCH["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in metrics:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    assert {w["name"] for w in BENCH["workloads"]} == set(workloads.WORKLOADS)


def test_traced_call_self_times_add_up(tmp_path):
    inputs = TINY["field-d2"].setup(3, str(tmp_path))
    tracer = tracing.Tracer()
    with tracer.installed("cli"):
        code = call_cli(inputs, tmp_path / "out")
    assert code in inputs.ok_codes
    # tracing is removed again on exit
    assert cli.main.__module__ == "gridfilt.cli"
    assert not hasattr(cli.denoise_point, "__wrapped__")

    spans = {s["id"]: s for s in tracer.spans}
    children = {}
    for s in spans.values():
        children.setdefault(s["parent"], []).append(s)
    for s in spans.values():
        inner = sum(c["end"] - c["start"] for c in children.get(s["id"], []))
        inner += sum(seconds for _, seconds in s["aggregates"].values())
        assert s["self_s"] == pytest.approx(s["end"] - s["start"] - inner,
                                            rel=1e-9, abs=1e-12)
    (root,) = children[None]
    assert root["name"] == "cli.main"
    assert tracer.self_time_sum("cli") == pytest.approx(root["end"] - root["start"],
                                                        rel=1e-9)
    assert tracer.total("cli", "solver.solve")[0] == inputs.items

    tracer.measure_solve_peak()
    metrics = tracing.per_layer_metrics(tracer, 1, 1.0, 1.0, 1.0)
    assert sorted(metrics) == sorted(m["name"] for m in BENCH["per_layer"])
    assert metrics["solver.solve.peak_mib"] > 0
    assert metrics["solver.project_l1_ball.calls"] > 0


def _tamper(path, column, change):
    """Change one value of the first data row of a CSV file."""
    with open(path, newline="") as fh:
        lines = fh.readlines()
    comments = [line for line in lines if line.startswith("#")]
    rows = list(csv.reader(line for line in lines if not line.startswith("#")))
    col = rows[0].index(column)
    rows[1][col] = repr(change(float(rows[1][col])))
    with open(path, "w", newline="") as fh:
        fh.writelines(comments)
        csv.writer(fh).writerows(rows)


@pytest.mark.parametrize("column,change", [
    ("objective", lambda v: 0.5 * v),
    ("dual_bound", lambda v: v + 1.0),
    ("gap", lambda v: v + 1.0),
    ("re_estimate", lambda v: v + 100.0),
])
def test_verification_rejects_tampered_estimate_row(tiny_runs, tmp_path, column,
                                                    change):
    inputs, out_dir, _ = tiny_runs["field-d2"]
    shutil.copytree(out_dir, tmp_path / "out")
    _tamper(tmp_path / "out" / "estimates.csv", column, change)
    assert verify.check(inputs, str(tmp_path / "out")).errors


@pytest.mark.parametrize("column,change", [
    ("re_oracle", lambda v: v + 0.01),
    ("solver_gap", lambda v: 1.0),
])
def test_verification_rejects_tampered_trial_row(tiny_runs, tmp_path, column, change):
    inputs, out_dir, _ = tiny_runs["mc-d1"]
    shutil.copytree(out_dir, tmp_path / "out")
    _tamper(tmp_path / "out" / inputs.outputs[1], column, change)
    assert verify.check(inputs, str(tmp_path / "out")).errors


def test_run_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-d1", "--seed", "2",
         "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-d1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_result_line_requires_every_metric():
    spec = BENCH["end_to_end"]
    with pytest.raises(KeyError):
        run.result_line(True, 1, 0, {spec[0]["name"]: 1.0}, spec)

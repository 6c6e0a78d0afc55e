"""Golden outputs: fresh runs of the configs in ``tests/golden`` against the
files committed next to them.

The bench config writes ``bench_stats.csv``, ``bench_trials.csv`` and
``bench_stats.json``; the denoise and predict configs each write an estimates
CSV from the field that ``generate.yaml`` writes. Strings and integers must
match exactly, and floats to ``|a - b| <= REL_TOL * max(1, |b|)`` with ``b``
the golden value. That holds across BLAS kernels (they move a cell by at most
about 1e-14 on this scale), and not across a change of any estimate. A
failure names the file, the row and the column (or the JSON key path).

A change that moves outputs on purpose regenerates the files: run
``gridfilt generate --config generate.yaml --out DIR``, then ``bench``,
``denoise`` and ``predict`` with their configs copied into ``DIR``, and copy
the five output files back.
"""

import csv
import json
import shutil
from pathlib import Path

import pytest

from gridfilt.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
REL_TOL = 1e-12

CSV_OUTPUTS = {
    "bench.yaml": ["bench_stats.csv", "bench_trials.csv"],
    "denoise.yaml": ["denoise_estimates.csv"],
    "predict.yaml": ["predict_estimates.csv"],
}


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """A directory holding every output of the golden configs, run afresh."""
    out = tmp_path_factory.mktemp("golden")
    for name in ("generate.yaml", *CSV_OUTPUTS):
        shutil.copy(GOLDEN / name, out)
    for command, name in (("generate", "generate.yaml"), ("bench", "bench.yaml"),
                          ("denoise", "denoise.yaml"), ("predict", "predict.yaml")):
        assert main([command, "--config", str(out / name), "--out", str(out),
                     "--quiet"]) == 0, name
    return out


def _int(cell: str):
    try:
        return int(cell)
    except ValueError:
        return None


def _float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _close(a: float, b: float) -> bool:
    """``a`` matches the golden ``b``: equal (infinities included), both NaN,
    or within ``REL_TOL`` of ``b``'s scale."""
    if a == b or (a != a and b != b):
        return True
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


def csv_mismatches(fresh_rows, golden_rows) -> list[str]:
    """Each cell where ``fresh_rows`` departs from ``golden_rows``, as
    ``row R, column C: fresh != golden``; a column is named by the header,
    the first row with as many cells as the data rows."""
    if len(fresh_rows) != len(golden_rows):
        return [f"{len(fresh_rows)} rows, golden has {len(golden_rows)}"]
    header = next((row for row in golden_rows if len(row) > 1), [])
    bad = []
    for r, (got, want) in enumerate(zip(fresh_rows, golden_rows)):
        if len(got) != len(want):
            bad.append(f"row {r}: {len(got)} cells, golden has {len(want)}")
            continue
        for c, (a, b) in enumerate(zip(got, want)):
            ia, ib = _int(a), _int(b)
            fa, fb = _float(a), _float(b)
            if ia is not None and ib is not None:
                ok = ia == ib
            elif fa is not None and fb is not None:
                ok = _close(fa, fb)
            else:
                ok = a == b
            if not ok:
                column = header[c] if c < len(header) else c
                bad.append(f"row {r}, column {column}: {a} != {b}")
    return bad


def json_mismatches(got, want, path: str = "") -> list[str]:
    """Each leaf where ``got`` departs from ``want``, named by its key path."""
    where = path or "(root)"
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got} "
                    f"!= {sorted(want)}"]
        return [m for k in sorted(want)
                for m in json_mismatches(got[k], want[k], f"{path}.{k}" if path else k)]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: {got!r} != {want!r}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in json_mismatches(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        ok = _close(float(got), want)
    else:
        ok = type(got) is type(want) and got == want
    return [] if ok else [f"{where}: {got!r} != {want!r}"]


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("name", [n for names in CSV_OUTPUTS.values() for n in names])
def test_csv_output_matches_golden(fresh, name):
    bad = csv_mismatches(_csv_rows(fresh / name), _csv_rows(GOLDEN / name))
    assert not bad, f"{name}: " + "; ".join(bad[:10])


def test_stats_json_matches_golden(fresh):
    name = "bench_stats.json"
    bad = json_mismatches(json.loads((fresh / name).read_text()),
                          json.loads((GOLDEN / name).read_text()))
    assert not bad, f"{name}: " + "; ".join(bad[:10])


def test_csv_comparison_names_the_cell():
    golden = [["# master_seed=1"], ["trial", "seed", "estimate"],
              ["0", "18446744073709551615", "0.5"]]
    assert csv_mismatches(golden, golden) == []
    # a float within the tolerance of the golden value's scale passes
    assert csv_mismatches([golden[0], golden[1], ["0", golden[2][1], "0.5000000000001"]],
                          golden) == []
    moved = [golden[0], golden[1], ["0", golden[2][1], "0.500000001"]]
    assert csv_mismatches(moved, golden) == [
        "row 2, column estimate: 0.500000001 != 0.5"]
    # integers compare exactly, even where a float would round them together
    seed = [golden[0], golden[1], ["0", "18446744073709551614", "0.5"]]
    assert csv_mismatches(seed, golden) == [
        "row 2, column seed: 18446744073709551614 != 18446744073709551615"]
    # a float cell printed as an integer ("0") still compares as a float
    assert csv_mismatches([["1e-17"]], [["0"]]) == []


def test_json_comparison_names_the_key_path():
    golden = {"checks": {"a": [{"N": 1, "x": 2.0}]}, "failures": []}
    assert json_mismatches(golden, golden) == []
    moved = {"checks": {"a": [{"N": 1, "x": 2.0 + 1e-9}]}, "failures": []}
    assert json_mismatches(moved, golden) == [
        f"checks.a[0].x: {2.0 + 1e-9!r} != 2.0"]
    assert json_mismatches({"checks": golden["checks"], "failures": ["x"]},
                           golden) == ["failures: ['x'] != []"]

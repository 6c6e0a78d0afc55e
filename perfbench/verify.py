"""Checks of the CLI's output files, made without trusting the solve that wrote them.

``mc-d1``: the bench must pass, every trial must carry a certified gap of at
most tol, and the truth and oracle columns must match values the benchmark
recomputes from the trial seeds.

``field-d2``: each anchor is solved again through the public
``denoise_point``. That reference filter is checked with ``solver.objective``
(support and J) and against the spectral l1 budget, its dual vector with
``solver.dual_lower_bound``, and each CLI row is then cross-checked by weak
duality against the reference.

Every check adds a message to ``Outcome.errors``; an empty list means the
output is correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from gridfilt import estimators, harness, solver
from gridfilt.errors import ConvergenceError
from gridfilt.fields import Box, convolve

# relative slack for comparing values that agree in exact arithmetic
REL = 1e-9


@dataclass
class Outcome:
    rows: int = 0                 # estimates read back
    unconverged: int = 0          # rows whose certified gap exceeds tol
    sq_err_adaptive: float = 0.0  # pooled squared errors against the truth
    sq_err_oracle: float = 0.0
    errors: list[str] = field(default_factory=list)

    @property
    def rmse_ratio_oracle(self) -> float:
        return math.sqrt(self.sq_err_adaptive / self.sq_err_oracle)


def digest(out_dir: str, names) -> str:
    """SHA-256 over the named output files, in name order."""
    h = hashlib.sha256()
    for name in sorted(names):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _cplx(row: dict, name: str) -> complex:
    return complex(float(row["re_" + name]), float(row["im_" + name]))


def _close(a: complex, b: complex) -> bool:
    return abs(a - b) <= REL * (1.0 + abs(b))


def check(inputs, out_dir: str) -> Outcome:
    """Verify one CLI call's outputs in ``out_dir``."""
    if inputs.experiments:
        return check_bench(inputs, out_dir)
    return check_estimates(inputs, out_dir)


def check_bench(inputs, out_dir: str) -> Outcome:
    out = Outcome()
    with open(os.path.join(out_dir, inputs.outputs[2])) as fh:
        stats = json.load(fh)
    out.errors += [f"bench check failed: {f}" for f in stats["failures"]]
    rows = _rows(os.path.join(out_dir, inputs.outputs[1]))
    if len(rows) != inputs.trials * len(inputs.experiments):
        out.errors.append(f"{len(rows)} trial rows, expected "
                          f"{inputs.trials * len(inputs.experiments)}")
        return out
    for k, row in enumerate(rows):
        exp = inputs.experiments[k // inputs.trials]
        seed = harness.derive_seed(inputs.master_seed, k % inputs.trials)
        where = f"trial row {k}"
        if int(row["seed"]) != seed:
            out.errors.append(f"{where}: seed {row['seed']}, expected {seed}")
            continue
        truth = exp.signal.value(exp.anchor)
        y = exp.signal + harness.sample_noise(exp.signal.box,
                                              harness.NoiseSpec(exp.sigma, seed))
        t = exp.anchor
        oracle = convolve(exp.cert.filter(exp.T), y, Box(t, t)).value(t)
        estimate = _cplx(row, "estimate")
        gap = float(row["solver_gap"])
        if not _close(_cplx(row, "truth"), truth):
            out.errors.append(f"{where}: truth column differs from the signal")
        if not _close(_cplx(row, "oracle"), oracle):
            out.errors.append(f"{where}: oracle column differs from the certificate "
                              "filter applied to the trial's data")
        if not (np.isfinite(estimate) and 0.0 <= gap <= inputs.tol):
            out.errors.append(f"{where}: estimate {estimate} with gap {gap} "
                              f"(tol {inputs.tol})")
        out.rows += 1
        out.unconverged += gap > inputs.tol
        out.sq_err_adaptive += abs(estimate - truth) ** 2
        out.sq_err_oracle += abs(oracle - truth) ** 2
    return out


def _reference(inputs, t):
    """The anchor's instance and its reference solve."""
    y, setup = inputs.observations, inputs.setup
    inst = solver.build_filtering_instance(y, t, setup.T, setup.rho)
    try:
        res = estimators.denoise_point(y, t, setup, tol=inputs.tol).solve
    except ConvergenceError as exc:
        res = exc.result
    return inst, res


def check_estimates(inputs, out_dir: str) -> Outcome:
    out = Outcome()
    rows = _rows(os.path.join(out_dir, inputs.outputs[0]))
    anchors = [tuple(int(v) for v in row["anchor"].split(";")) for row in rows]
    if anchors != inputs.anchors:
        out.errors.append(f"estimate rows for anchors {anchors}, expected {inputs.anchors}")
        return out
    y = inputs.observations
    q_oracle = inputs.cert.filter(inputs.setup.T)
    for t, row in zip(anchors, rows):
        where = f"anchor {t}"
        value = _cplx(row, "estimate")
        J, D, gap = (float(row[k]) for k in ("objective", "dual_bound", "gap"))
        if not all(map(np.isfinite, (value, J, D, gap))):
            out.errors.append(f"{where}: non-finite value in {row}")
            continue
        inst, ref = _reference(inputs, t)
        eps = REL * (1.0 + abs(J) + abs(ref.objective))

        # the reference filter: support and objective, l1 budget, dual bound
        J_ref = solver.objective(inst, ref.phi)
        if abs(J_ref - ref.objective) > eps:
            out.errors.append(f"{where}: reference objective {ref.objective} but "
                              f"J(phi) = {J_ref}")
        l1 = ref.phi.star_norm(inst.W, 1)
        if l1 > inst.l1_bound * (1 + REL):
            out.errors.append(f"{where}: spectral l1 norm {l1} above the budget "
                              f"{inst.l1_bound}")
        D_chk = solver.dual_lower_bound(inst, ref.dual_u)
        if D_chk > J_ref + eps:
            out.errors.append(f"{where}: dual bound {D_chk} above J {J_ref}")
        if D_chk < ref.dual_bound - eps:
            out.errors.append(f"{where}: reference dual bound {ref.dual_bound} but "
                              f"the dual vector certifies only {D_chk}")

        # the CLI row, by weak duality against the checked reference
        if J < D_chk - eps:
            out.errors.append(f"{where}: objective {J} below the certified lower "
                              f"bound {D_chk}")
        if D > J_ref + eps or D > J + eps:
            out.errors.append(f"{where}: dual bound {D} above an attained "
                              f"objective ({J_ref}, {J})")
        if abs(gap - (J - D)) > eps:
            out.errors.append(f"{where}: gap {gap} is not objective - dual bound")
        # |y_t - estimate| is the centre of the residual window, whose unitary
        # transform is bounded by J in sup norm; any feasible filter has
        # |estimate| <= l1_bound * |y on its support|_2.
        if abs(y.value(t) - value) > (
                math.sqrt((2 * inst.W + 1) ** inst.d) * J + eps):
            out.errors.append(f"{where}: estimate {value} inconsistent with "
                              f"objective {J}")
        reads = Box.cube(inst.d, inst.W, t)
        if abs(value) > inst.l1_bound * np.linalg.norm(y.restrict(reads).data) + eps:
            out.errors.append(f"{where}: estimate {value} larger than any feasible "
                              "filter can produce")

        truth = inputs.signal.value(t)
        oracle = convolve(q_oracle, y, Box(t, t)).value(t)
        out.rows += 1
        out.unconverged += gap > inputs.tol
        out.sq_err_adaptive += abs(value - truth) ** 2
        out.sq_err_oracle += abs(oracle - truth) ** 2
    return out

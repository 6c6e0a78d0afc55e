"""Command line front end.

Subcommands: ``generate`` (write signal / noisy observation fields),
``denoise`` / ``predict`` (estimate at anchor points from a field file; a
``predict`` setup has a lag ``kappa``, which alone makes it a prediction),
``bench`` (Monte Carlo experiments plus statistical checks, with pass/fail
summary), ``certify`` (build a certificate filter and report its bounds).

Every run is driven by one YAML config document (strict schema: unknown keys
are rejected, and so are keys the run would not read; the setup parameters
rho, T, sigma have no defaults).
Every subcommand takes ``--config``, ``--out`` (output directory) and
``--quiet``. ``--seed`` (overrides the config's seed) goes with
``generate`` and ``bench``, and ``--tol`` (overrides the solver tolerance)
with ``denoise``, ``predict`` and ``bench``. A flag that a subcommand does
not take is a usage error, exit 2.

Exit codes: 0 success; 1 failed bench check; 2 config error (a missing or
unknown key, a malformed value such as a scalar or an empty list where a
nonempty list belongs, a parameter out of range, a difference operator that
is not regular, or an output path that cannot be written), or an unreadable
observations file; 3 generation error, only an overflow (of a signal, or of
noise whose level times a draw exceeds the largest float) or a harmonic
signal whose Jacobi iteration misses its budget, in any subcommand that
builds a signal or samples noise; 4 window coverage error, or a non-finite
observation in an anchor's window (before any solve); 5 solver
non-convergence, which takes precedence over 1 (every output is still
written: ``denoise``/``predict`` write every estimate row with its certified
gap, and ``bench`` runs every experiment and check, records each trial with
its certified gap, and names every trial whose gap exceeds the tolerance); 6
certificate bound violation.

Every output path is resolved and checked (``_out_paths``) before any
sampling, solving or writing. Every output file is written here: each CSV
through ``_write_csv`` (floats at ``.17g``, an anchor's coordinates joined
by ``;``) and each JSON through ``_write_json`` (sorted keys, indent 2).
``denoise``/``predict`` write an estimates CSV (``ESTIMATE_COLUMNS``, a row
per anchor; a T = 0 row's bounds are 0); ``bench`` a stats CSV
(``STATS_COLUMNS``, the fields of ``harness.ExperimentStats``) and a trials
CSV (``TRIAL_COLUMNS``), each after a ``# master_seed=<seed>`` line, and a
stats JSON (``experiments``, ``master_seed``, ``checks``, ``failures``);
``certify`` a report JSON (``entries``, ``violated``). Fields are ZDF1 files
(``fields.write_zdf``).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
from dataclasses import asdict, astuple, fields

import numpy as np
import yaml

from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    ParamError,
    RegularityError,
)
from .estimators import DenoiseSetup, denoise_point, risk_bound
from .fields import Box, Field, Filter, convolve, read_zdf, write_zdf
from .harness import (
    ExperimentStats,
    NoiseSpec,
    _gaussian_max_args,
    _gaussian_max_report,
    _gaussian_maxima,
    _seed_arg,
    _sigma_arg,
    _theta_moment_args,
    _theta_order_arg,
    _trials_arg,
    check_theta_moment,
    monte_carlo,
    sample_noise,
)
from .signals import (
    Certificate,
    ExpPolynomial,
    combine_certificates,
    eval_exp_poly,
    exp_certificate_1d,
    exp_poly_certificate,
    four_neighbor_averaging,
    harmonic_filter,
    lift_certificate,
    make_regular_operator,
    modulate_certificate,
    poly_certificate_1d,
    predictor_exp_certificate,
    random_discrete_harmonic,
    reproduction_residual,
    simple_exp_certificate,
    tensor_certificate,
)
from .solver import _tol_arg, read_observations


# --------------------------------------------------------------------------
# strict config handling
# --------------------------------------------------------------------------


@contextlib.contextmanager
def _at(ctx: str):
    """Raise a ``ParamError`` from the block again as a ``ConfigError``, and
    a ``DomainError`` again as a ``DomainError``, each naming ``ctx``."""
    try:
        yield
    except ParamError as exc:
        raise ConfigError(f"{ctx}: {exc}") from exc
    except DomainError as exc:
        raise DomainError(f"{ctx}: {exc}") from exc


def _section(node, ctx: str, required, optional=()) -> dict:
    """``node`` as a mapping with every key of ``required``, any of
    ``optional`` and nothing else; otherwise a ``ConfigError`` at ``ctx``."""
    if not isinstance(node, dict):
        raise ConfigError(f"{ctx}: expected a mapping, got {type(node).__name__}")
    unknown = set(node) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{ctx}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(node)
    if missing:
        raise ConfigError(f"{ctx}: missing required keys {sorted(missing)}")
    return node


def _list(node, ctx: str, item) -> list:
    """``node`` as a nonempty list, entry ``i`` read by ``item(entry,
    f"{ctx}[{i}]")``."""
    if not isinstance(node, list) or not node:
        raise ConfigError(f"{ctx}: expected a nonempty list, got {node!r}")
    return [item(v, f"{ctx}[{i}]") for i, v in enumerate(node)]


def _number(node, ctx: str) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ConfigError(f"{ctx}: expected a number, got {node!r}")
    return float(node)


def _integer(node, ctx: str) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        raise ConfigError(f"{ctx}: expected an integer, got {node!r}")
    return node


def _point(node, ctx: str) -> tuple[int, ...]:
    return tuple(_list(node, ctx, _integer))


def _parse_box(node, ctx: str) -> Box:
    node = _section(node, ctx, ("lo", "hi"))
    return Box(_point(node["lo"], ctx + ".lo"), _point(node["hi"], ctx + ".hi"))


def _complex(node: dict, ctx: str, re: str = "re", im: str = "im") -> complex:
    """``node[re] + i node[im]``, a missing part read as 0."""
    return complex(_number(node.get(re, 0.0), f"{ctx}.{re}"),
                   _number(node.get(im, 0.0), f"{ctx}.{im}"))


def _parse_complex(node, ctx: str) -> complex:
    return _complex(_section(node, ctx, (), ("re", "im")), ctx)


def _parse_term(node, ctx: str) -> tuple:
    """One ``(c, alpha, omega)`` term of an exponential polynomial."""
    node = _section(node, ctx, ("re_c", "im_c", "alpha", "re_omega", "im_omega"))
    alpha = _point(node["alpha"], ctx + ".alpha")
    re_w, im_w = (_list(node[k], f"{ctx}.{k}", _number)
                  for k in ("re_omega", "im_omega"))
    if not len(alpha) == len(re_w) == len(im_w):
        raise ConfigError(f"{ctx}: alpha, re_omega, im_omega must be lists "
                          "of one common length d")
    return _complex(node, ctx, "re_c", "im_c"), alpha, tuple(map(complex, re_w, im_w))


def _parse_exp_poly(node, ctx: str) -> ExpPolynomial:
    return ExpPolynomial(tuple(_list(node, ctx, _parse_term)))


def _dimension(d: int, what: str, box: Box, ctx: str) -> None:
    """A ``ConfigError`` naming ``ctx`` unless the ``what`` of dimension
    ``d`` matches the dimension of ``box``."""
    if d != box.d:
        raise ConfigError(f"{ctx}: a {d}-d {what} for a {box.d}-d box")


def _parse_operator(node, box: Box, ctx: str) -> Filter:
    """The stencil filter of a regular operator for ``box``."""
    if node == "four_neighbor":
        op = four_neighbor_averaging(2)
    else:
        node = _section(node, ctx, ("offsets", "weights"))
        offsets = _list(node["offsets"], ctx + ".offsets", _point)
        weights = _list(node["weights"], ctx + ".weights", _parse_complex)
        with _at(ctx + ".offsets"):  # a repeated offset, say
            op = make_regular_operator(offsets, weights)
    _dimension(op.d, "operator", box, ctx)
    return op


def _build_signal(node, box: Box, ctx: str) -> Field:
    with _at(ctx):
        kind = _section(node, ctx, ("kind",), node)["kind"]  # other keys: per kind
        if kind == "exp_poly":
            _section(node, ctx, ("kind", "terms"))
            return eval_exp_poly(_parse_exp_poly(node["terms"], ctx + ".terms"), box)
        if kind == "harmonic":
            _section(node, ctx, ("kind", "operator", "boundary"), ("seed",))
            op = _parse_operator(node["operator"], box, ctx + ".operator")
            boundary = node["boundary"]
            if boundary == "saddle":
                if "seed" in node:
                    raise ConfigError(f"{ctx}.seed: read only with the 'random' "
                                      "boundary")
                if box.d != 2:
                    raise ConfigError(f"{ctx}: the saddle boundary needs d = 2")
                x = np.arange(box.lo[0], box.hi[0] + 1)
                y = np.arange(box.lo[1], box.hi[1] + 1)
                bnd = Field(box, (x[:, None] ** 2 - y[None, :] ** 2).astype(complex))
            elif boundary == "random":
                seed = _seed(None, node.get("seed", 0), ctx + ".seed")
                bnd = sample_noise(box, NoiseSpec(1.0, seed))
            else:
                raise ConfigError(f"{ctx}.boundary: expected 'saddle' or 'random'")
            return random_discrete_harmonic(op, box, bnd)
        raise ConfigError(f"{ctx}.kind: expected 'exp_poly' or 'harmonic', got {kind!r}")


def _build_certificate(node, ctx: str) -> Certificate:
    with _at(ctx):
        kind = _section(node, ctx, ("kind",), node)["kind"]  # other keys: per kind
        if kind == "exp":
            _section(node, ctx, ("kind",), ("re_omega", "im_omega"))
            return exp_certificate_1d(_complex(node, ctx, "re_omega", "im_omega"))
        if kind == "poly":
            _section(node, ctx, ("kind", "degree"))
            return poly_certificate_1d(_integer(node["degree"], ctx + ".degree"))
        if kind == "simple_exp":
            _section(node, ctx, ("kind", "freq_sets"))
            return simple_exp_certificate(_list(
                node["freq_sets"], ctx + ".freq_sets",
                lambda fs, fs_ctx: _list(fs, fs_ctx, _parse_complex)))
        if kind == "predictor_exp":
            _section(node, ctx, ("kind", "kappa"), ("re_omega", "im_omega"))
            return predictor_exp_certificate(
                _complex(node, ctx, "re_omega", "im_omega"),
                _integer(node["kappa"], ctx + ".kappa"))
        if kind == "exp_poly":
            _section(node, ctx, ("kind", "terms"))
            return exp_poly_certificate(_parse_exp_poly(node["terms"], ctx + ".terms"))
        if kind == "modulate":
            _section(node, ctx, ("kind", "base", "omega"))
            return modulate_certificate(_build_certificate(node["base"], ctx + ".base"),
                                        _list(node["omega"], ctx + ".omega", _number))
        if kind == "lift":
            _section(node, ctx, ("kind", "base", "d_plus"))
            return lift_certificate(_build_certificate(node["base"], ctx + ".base"),
                                    _integer(node["d_plus"], ctx + ".d_plus"))
        if kind == "tensor":
            _section(node, ctx, ("kind", "a", "b"))
            return tensor_certificate(_build_certificate(node["a"], ctx + ".a"),
                                      _build_certificate(node["b"], ctx + ".b"))
        if kind == "combine":
            _section(node, ctx, ("kind", "parts", "lambdas"))
            return combine_certificates(
                _list(node["parts"], ctx + ".parts", _build_certificate),
                _list(node["lambdas"], ctx + ".lambdas", _parse_complex))
        raise ConfigError(f"{ctx}.kind: unknown certificate kind {kind!r}")


def _load_config(path, required, optional=()) -> dict:
    """The config document at ``path``, its top-level keys checked. Parsed
    by libyaml's safe loader where PyYAML was built with it, else by the pure
    Python one: the same document either way."""
    try:
        with open(path) as fh:
            doc = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    return _section(doc, "config", required, optional)


def _checked(read, node, ctx: str, check):
    """``read(node, ctx)``, checked by the library's rule ``check`` at ``ctx``."""
    value = read(node, ctx)
    with _at(ctx):
        check(value)
    return value


def _tolerance(args, cfg: dict, default: float) -> float:
    """The solver tolerance, from ``--tol`` or else ``config.tol``."""
    if args.tol is not None:
        return _checked(_number, args.tol, "--tol", _tol_arg)
    return _checked(_number, cfg.get("tol", default), "config.tol", _tol_arg)


def _seed(override: int | None, node, ctx: str) -> int:
    """The seed from ``--seed`` (``override``) or else ``node`` at ``ctx``."""
    if override is not None:
        return _checked(_integer, override, "--seed", _seed_arg)
    return _checked(_integer, node, ctx, _seed_arg)


def _out_paths(args, out: dict) -> dict:
    """The path of each file of ``config.out`` (key to file name), checked
    before any work: ``--out`` is created, each file's parent must be a
    directory, and a relative name is read under ``--out``."""
    if args.out:
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out: cannot create the output directory: "
                              f"{exc}") from exc
    paths = {}
    for key, name in out.items():
        if not isinstance(name, str) or not name:
            raise ConfigError(f"config.out.{key}: expected a file name, "
                              f"got {name!r}")
        # an absolute name discards the base
        path = os.path.join(args.out or ".", name)
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            raise ConfigError(f"config.out.{key}: cannot write {path!r}, as "
                              f"{parent!r} is not a directory")
        if os.path.isdir(path):
            raise ConfigError(f"config.out.{key}: cannot write {path!r}, as "
                              "it is a directory")
        paths[key] = path
    return paths


def _info(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


# --------------------------------------------------------------------------
# output files
# --------------------------------------------------------------------------

ESTIMATE_COLUMNS = ["anchor", "re_estimate", "im_estimate", "objective",
                    "dual_bound", "gap"]

TRIAL_COLUMNS = [
    "trial", "seed", "anchor", "re_truth", "im_truth", "re_estimate",
    "im_estimate", "re_oracle", "im_oracle", "sq_err_adaptive",
    "sq_err_oracle", "solver_gap", "theta_stat",
]

STATS_COLUMNS = [f.name for f in fields(ExperimentStats)]


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _anchor_str(anchor) -> str:
    return ";".join(str(a) for a in anchor)


def _write_csv(path, columns, rows, comment: str = "") -> None:
    """A header row of ``columns``, then ``rows`` with every cell through
    ``_fmt``; a nonempty ``comment`` goes first, as a ``# `` line."""
    with open(path, "w", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([_fmt(x) for x in row] for row in rows)


def _write_json(path, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _trial_rows(records):
    """The rows of the trials CSV, in ``TRIAL_COLUMNS`` order."""
    for i, r in enumerate(records):
        yield (i, r.seed, _anchor_str(r.anchor), r.truth.real, r.truth.imag,
               r.estimate.real, r.estimate.imag, r.oracle_estimate.real,
               r.oracle_estimate.imag, r.sq_err_adaptive, r.sq_err_oracle,
               r.solver_gap, r.theta_stat)


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def cmd_generate(args) -> int:
    cfg = _load_config(args.config, ("signal", "box", "out"), ("noise",))
    box = _parse_box(cfg["box"], "config.box")
    out = _section(cfg["out"], "config.out", ("signal",), ("observations",))
    spec = None
    if cfg.get("noise") is not None:
        noise = _section(cfg["noise"], "config.noise", ("sigma", "seed"))
        if "observations" not in out:
            raise ConfigError("config.out: noise given but no observations path")
        spec = NoiseSpec(
            _checked(_number, noise["sigma"], "config.noise.sigma", _sigma_arg),
            _seed(args.seed, noise["seed"], "config.noise.seed"))
    elif "observations" in out:
        raise ConfigError("config.out.observations: no noise given, so no "
                          "observations would be written")
    paths = _out_paths(args, out)
    signal = _build_signal(cfg["signal"], box, "config.signal")
    # sampled before any write, so a noise overflow (exit 3) writes no file
    y = None if spec is None else signal + sample_noise(box, spec)
    write_zdf(signal, paths["signal"])
    _info(args, f"wrote signal field on {box} to {out['signal']}")
    if y is not None:
        write_zdf(y, paths["observations"])
        _info(args, f"wrote observations (sigma={spec.sigma}, seed={spec.seed}) "
                    f"to {out['observations']}")
    return 0


def _parse_setup(node, lagged: bool, ctx: str) -> DenoiseSetup:
    """The setup at ``ctx``, with a lag ``kappa`` exactly when ``lagged``."""
    node = _section(node, ctx, ("rho", "T", "kappa") if lagged else ("rho", "T"))
    kappa = _integer(node["kappa"], ctx + ".kappa") if lagged else None
    rho, T = _number(node["rho"], ctx + ".rho"), _integer(node["T"], ctx + ".T")
    with _at(ctx):
        return DenoiseSetup(rho=rho, T=T, kappa=kappa)


def _run_estimates(args, lagged: bool) -> int:
    cfg = _load_config(args.config, ("observations", "setup", "anchors", "out"),
                       ("tol",))
    out = _section(cfg["out"], "config.out", ("estimates",))
    setup = _parse_setup(cfg["setup"], lagged, "config.setup")
    anchors = _list(cfg["anchors"], "config.anchors", _point)
    tol = _tolerance(args, cfg, 1e-6)
    obs_path = cfg["observations"]
    if not os.path.isabs(obs_path):
        obs_path = os.path.join(os.path.dirname(args.config) or ".", obs_path)
    try:
        y = read_zdf(obs_path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read observations: {exc}") from exc
    reads = []
    for i, t in enumerate(anchors):
        ctx = f"config.anchors[{i}]"
        _dimension(len(t), "anchor", y.box, ctx)
        with _at(ctx):
            reads.append(read_observations(y, t, setup.T, setup.kappa).box)
    path = _out_paths(args, out)["estimates"]
    rows = []
    any_unconverged = False
    for t, read in zip(anchors, reads):
        _info(args, f"anchor {t}: reading observations on [{read.lo}, {read.hi}]")
        est = denoise_point(y, t, setup, tol=tol)
        sol = est.solve
        if sol is not None and not sol.converged:
            any_unconverged = True
            _info(args, f"anchor {t}: gap {sol.gap:.3e} above tolerance, "
                        "row flagged")
        bounds = (0, 0, 0) if sol is None else (sol.objective, sol.dual_bound,
                                                sol.gap)
        rows.append((_anchor_str(t), est.value.real, est.value.imag, *bounds))
    _write_csv(path, ESTIMATE_COLUMNS, rows)
    _info(args, f"wrote {len(rows)} estimates to {path}")
    return 5 if any_unconverged else 0


def cmd_denoise(args) -> int:
    return _run_estimates(args, lagged=False)


def cmd_predict(args) -> int:
    return _run_estimates(args, lagged=True)


def cmd_bench(args) -> int:
    cfg = _load_config(args.config, ("master_seed", "trials", "experiments", "out"),
                       ("tol", "checks"))
    master_seed = _seed(args.seed, cfg["master_seed"], "config.master_seed")
    trials = _checked(_integer, cfg["trials"], "config.trials", _trials_arg)
    tol = _tolerance(args, cfg, 1e-5)
    out = _section(cfg["out"], "config.out", ("stats_csv",),
                   ("stats_json", "trials_csv"))

    # the whole config is checked before any sampling; with no experiments,
    # only the checks run, and there must be some
    experiments = cfg["experiments"]
    if experiments != [] or not cfg.get("checks"):
        experiments = _list(experiments, "config.experiments", _parse_experiment)
    checks = _parse_checks(cfg.get("checks"))
    paths = _out_paths(args, out)

    failures: list[str] = []
    missed: list[str] = []
    all_stats = []
    all_records = []
    # The Gaussian-maximum draws run on a worker thread while the experiments
    # run here: numpy draws without the GIL, so they take the second core from
    # the GIL-bound solves. The worker calls only harness._gaussian_maxima,
    # which the benchmark's tracer, with its one stack of open calls, does not
    # wrap. The reports are built after the join, in config order, as on one
    # thread. Imported here, as it adds about 7 ms to every start.
    from concurrent.futures import ThreadPoolExecutor

    Ns, gm_trials = checks.get("gaussian_max", ((), 0))
    with ThreadPoolExecutor(1, thread_name_prefix="gridfilt-worker") as pool:
        draws = pool.submit(lambda: [_gaussian_maxima(N, gm_trials, master_seed)
                                     for N in Ns])
        for label, signal, cert, anchor, T, sigma in experiments:
            _info(args, f"running experiment {label!r}: {trials} trials, "
                        f"T={T}, sigma={sigma}")
            stats, records = monte_carlo(signal, cert, anchor, T, sigma,
                                         trials, master_seed, label=label, tol=tol)
            all_stats.append(stats)
            all_records.extend(records)
            missed.extend(
                f"trial {k} (seed {r.seed}) of {label}: duality gap "
                f"{r.solver_gap:.3e} above tolerance {tol:.3e}"
                for k, r in enumerate(records) if r.solver_gap > tol)
            if stats.rmse_adaptive > stats.bound:
                failures.append(f"{label}: rmse {stats.rmse_adaptive:.6g} "
                                f"exceeds bound {stats.bound:.6g}")
            if stats.pathwise_violations:
                failures.append(f"{label}: {stats.pathwise_violations} pathwise "
                                "bound violations")
            _info(args, f"  rmse_adaptive={stats.rmse_adaptive:.6g} "
                        f"bound={stats.bound:.6g} ratio={stats.ratio:.4f}")
    drawn = draws.result()   # raises a draw's error

    check_reports = {}
    if "gaussian_max" in checks:
        reports = []
        for N, max_mag in zip(Ns, drawn):
            rep = _gaussian_max_report(N, max_mag)
            reports.append(rep)
            if not (rep.mean_ok and rep.tails_ok):
                failures.append(
                    f"gaussian_max N={N}: bound violated (each of the 4 "
                    "one-sided 3-SE comparisons fails by chance with "
                    "probability about 0.135% where its bound is attained, "
                    "as at N = 1: at most 0.54% of seeds)")
            _info(args, f"  gaussian max N={N}: mean {rep.mean_max_sq:.4f} "
                        f"<= {rep.bound_mean:.4f}")
        check_reports["gaussian_max"] = [rep.__dict__ for rep in reports]
    if "theta_moment" in checks:
        tm_T, tm_sigma, tm_trials = checks["theta_moment"]
        rep = check_theta_moment(tm_T, tm_sigma, tm_trials, seed=master_seed)
        if not rep.ok:
            failures.append("theta_moment: bound violated")
        check_reports["theta_moment"] = rep.__dict__
        _info(args, f"  theta moment: {rep.mean_sq:.4f} <= {rep.bound:.4f}")

    failures += missed
    header = f"master_seed={master_seed}"
    _write_csv(paths["stats_csv"], STATS_COLUMNS, map(astuple, all_stats), header)
    if "trials_csv" in paths:
        _write_csv(paths["trials_csv"], TRIAL_COLUMNS, _trial_rows(all_records),
                   header)
    if "stats_json" in paths:
        _write_json(paths["stats_json"], {
            "experiments": [asdict(s) for s in all_stats],
            "master_seed": master_seed,
            "checks": check_reports,
            "failures": failures})
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    _info(args, "all checks passed" if not failures else
          f"{len(failures)} failures")
    if missed:
        return 5
    return 1 if failures else 0


def _parse_experiment(exp, ctx: str) -> tuple:
    """``(label, signal, certificate, anchor, T, sigma)`` of one bench
    experiment; the estimator takes its rho and lag from the certificate."""
    exp = _section(exp, ctx, ("label", "signal", "box", "certificate", "T", "sigma",
                              "anchor"))
    box = _parse_box(exp["box"], ctx + ".box")
    cert = _build_certificate(exp["certificate"], ctx + ".certificate")
    _dimension(cert.d, "certificate", box, ctx + ".certificate")
    signal = _build_signal(exp["signal"], box, ctx + ".signal")
    T = _integer(exp["T"], ctx + ".T")
    sigma = _checked(_number, exp["sigma"], ctx + ".sigma", _sigma_arg)
    anchor = _point(exp["anchor"], ctx + ".anchor")
    _dimension(len(anchor), "anchor", box, ctx + ".anchor")
    with _at(ctx + ".T"):
        cert.filter(T)  # the trials' oracle: a bad T stops the run before sampling
    with _at(ctx):
        # the reported bound: one that overflows stops the run before sampling
        risk_bound(box.d, T, cert.rho, cert.theta, sigma)
    with _at(f"{ctx} ({exp['label']})"):
        # a trial's noise statistic reads this set, and its other reads lie in it
        read_observations(signal, anchor, T)
    return str(exp["label"]), signal, cert, anchor, T, sigma


def _parse_checks(node) -> dict:
    """The bench's checks by name: ``gaussian_max`` to ``(Ns, trials)`` and
    ``theta_moment`` to ``(T, sigma, trials)``, each validated."""
    if node is None:
        return {}
    node = _section(node, "config.checks", (), ("gaussian_max", "theta_moment"))
    checks = {}
    if "gaussian_max" in node:
        ctx = "config.checks.gaussian_max"
        gm = _section(node["gaussian_max"], ctx, ("Ns", "trials"))
        Ns = _list(gm["Ns"], ctx + ".Ns", _integer)
        trials = _integer(gm["trials"], ctx + ".trials")
        with _at(ctx):
            for N in Ns:
                _gaussian_max_args(N, trials)
        checks["gaussian_max"] = (Ns, trials)
    if "theta_moment" in node:
        ctx = "config.checks.theta_moment"
        tm = _section(node["theta_moment"], ctx, ("T", "sigma", "trials"))
        checks["theta_moment"] = (
            _checked(_integer, tm["T"], ctx + ".T", _theta_order_arg),
            _checked(_number, tm["sigma"], ctx + ".sigma", _sigma_arg),
            _checked(_integer, tm["trials"], ctx + ".trials", _theta_moment_args))
    return checks


def _check_residual(signal: Field, q: Filter, cube: Box, entry: dict,
                    slack: float, rel_tol: float) -> bool:
    """Record ``q``'s reproduction residual on ``cube`` in ``entry``.

    The residual violates the certificate when it exceeds ``slack + rel_tol
    * scale``, where ``scale``, the roundoff scale of ``q(D)s`` on the cube,
    is the largest value of ``|q|(D)|s|`` there; it reads only the cells
    that ``q(D)s`` reads. A violation is flagged in ``entry`` and returned.
    """
    res = reproduction_residual(q, signal, cube)
    entry["residual"] = res
    moduli = Filter(Field(q.field.box, np.abs(q.field.data)), q.order, q.kappa)
    scale = float(np.abs(convolve(moduli, Field(signal.box, np.abs(signal.data)),
                                  cube).data).max())
    if res > slack + rel_tol * scale:
        entry["residual_violation"] = True
        return True
    return False


def cmd_certify(args) -> int:
    cfg = _load_config(args.config, ("box", "out"),
                       ("certificate", "T", "harmonic", "signal", "anchor",
                        "eval_radius"))
    if ("certificate" in cfg) == ("harmonic" in cfg):
        raise ConfigError("config: give exactly one of 'certificate' or 'harmonic'")
    if "certificate" in cfg:
        T = _section(cfg, "config", ("T",), cfg)["T"]
        Ts = (_list(T, "config.T", _integer) if isinstance(T, list)
              else [_integer(T, "config.T")])
    elif "T" in cfg:
        raise ConfigError("config.T: not read with 'harmonic', whose filter "
                          "order comes from n and c24")
    out = _section(cfg["out"], "config.out", ("filter", "report"))
    box = _parse_box(cfg["box"], "config.box")
    # a given signal's reproduction residual is measured on this cube, and
    # without a signal nothing reads it
    for key in ("anchor", "eval_radius"):
        if key in cfg and "signal" not in cfg:
            raise ConfigError(f"config.{key}: read only with 'signal', to "
                              "place the cube of its reproduction residual")
    radius = _integer(cfg.get("eval_radius", 2), "config.eval_radius")
    anchor = _point(cfg.get("anchor", [0] * box.d), "config.anchor")
    _dimension(len(anchor), "anchor", box, "config.anchor")
    with _at("config.eval_radius"):  # the anchor fits, so only the order rule fires
        cube = Box.cube(box.d, radius, anchor)
    paths = _out_paths(args, out)
    signal = _build_signal(cfg["signal"], box, "config.signal") \
        if "signal" in cfg else None

    entries = []
    violated = False
    last_filter = None
    if "certificate" in cfg:
        checked = f"T={Ts}"
        cert = _build_certificate(cfg["certificate"], "config.certificate")
        _dimension(cert.d, "certificate", box, "config.certificate")
        for T in Ts:
            with _at("config.T"):
                q = cert.filter(T)
            last_filter = q
            norm_bound = cert.rho * (2 * T + 1) ** (-cert.d / 2)
            entry = {
                "T": T,
                "l2": q.l2(),
                "l2_bound": norm_bound,
                "theta_scaled": cert.theta * (2 * T + 1) ** (-cert.d / 2),
            }
            if q.l2() > norm_bound * (1 + 1e-9):
                entry["l2_violation"] = True
                violated = True
            if signal is not None:
                violated |= _check_residual(signal, q, cube, entry,
                                            entry["theta_scaled"], 1e-9)
            entries.append(entry)
    else:
        node = _section(cfg["harmonic"], "config.harmonic", ("operator", "n"),
                        ("c24",))
        op = _parse_operator(node["operator"], box, "config.harmonic.operator")
        n = _integer(node["n"], "config.harmonic.n")
        c24 = _integer(node.get("c24", 1), "config.harmonic.c24")
        with _at("config.harmonic"):
            q = harmonic_filter(op, n, c24)
        last_filter = q
        checked = f"order {q.order}"
        entry = {"n": n, "c24": c24, "order": q.order, "l2": q.l2(),
                 "l2_scaled": q.l2() * (2 * q.order + 1) ** (op.d / 2)}
        if signal is not None:
            violated |= _check_residual(signal, q, cube, entry, 0.0, 1e-10)
        entries.append(entry)

    write_zdf(last_filter.field, paths["filter"])
    _write_json(paths["report"],
                {"entries": entries, "violated": violated})
    if violated:
        print("FAIL certificate bounds violated (implementation bug)",
              file=sys.stderr)
        return 6
    _info(args, f"certificate ok over {checked}")
    return 0


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


_OVERRIDES = {
    "--seed": {"type": int, "help": "override the config's seed"},
    "--tol": {"type": float, "help": "override the solver tolerance"},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridfilt",
        description="Adaptive min-max filtering on integer grids")
    sub = parser.add_subparsers(dest="command", required=True)
    # each subcommand takes only the overrides it reads
    for name, handler, overrides in (
            ("generate", cmd_generate, ("--seed",)),
            ("denoise", cmd_denoise, ("--tol",)),
            ("predict", cmd_predict, ("--tol",)),
            ("bench", cmd_bench, ("--seed", "--tol")),
            ("certify", cmd_certify, ())):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--out", default=None, help="output directory")
        for flag in overrides:
            p.add_argument(flag, default=None, **_OVERRIDES[flag])
        p.add_argument("--quiet", action="store_true")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, ParamError, RegularityError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"coverage error: {exc}", file=sys.stderr)
        return 4
    except (ConvergenceError, OverflowError) as exc:
        print(f"generation error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

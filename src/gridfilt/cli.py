"""Command line front end.

Subcommands: ``generate`` (write signal / noisy observation fields),
``denoise`` / ``predict`` (estimate at anchor points from a field file),
``bench`` (Monte Carlo experiments plus statistical checks, with pass/fail
summary), ``certify`` (build a certificate filter and report its bounds).

Every run is driven by one YAML config document (strict schema: unknown keys
are rejected, and the setup parameters rho, T, sigma have no defaults).
Global flags: ``--config``, ``--out`` (output directory), ``--seed``
(overrides the config's master seed), ``--tol`` (solver tolerance),
``--quiet``.

Exit codes: 0 success; 1 failed bench check; 2 config error, or an
unreadable observations file; 3 generation error (an overflow, or a harmonic
signal whose Jacobi iteration misses its budget), in any subcommand that
builds a signal; 4 window coverage error, or a non-finite observation in an
anchor's window; 5 solver non-convergence, which takes precedence over 1
(every output is still written: ``denoise``/``predict`` write every estimate
row with its certified gap, and ``bench`` runs every experiment and check,
records each trial with its certified gap, and names every trial whose gap
exceeds the tolerance); 6 certificate bound violation.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np
import yaml

from .errors import ConfigError, ConvergenceError, DomainError, ParamError
from .estimators import DenoiseSetup, denoise_point
from .fields import (
    FILTERING,
    PREDICTION,
    Box,
    Field,
    Filter,
    read_zdf,
    write_zdf,
)
from .harness import (
    NoiseSpec,
    _gaussian_max_args,
    _seed_arg,
    _theta_moment_args,
    check_gaussian_max,
    check_theta_moment,
    monte_carlo,
    sample_noise,
    write_stats_csv,
    write_stats_json,
    write_trials_csv,
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
from .solver import program_boxes

ESTIMATE_COLUMNS = ["anchor", "re_estimate", "im_estimate", "objective",
                    "dual_bound", "gap"]


# --------------------------------------------------------------------------
# strict config handling
# --------------------------------------------------------------------------


def _require_mapping(node, context: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{context}: expected a mapping, got {type(node).__name__}")
    return node


def _check_keys(node: dict, allowed: set, required: set, context: str) -> None:
    unknown = set(node) - allowed
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")
    missing = required - set(node)
    if missing:
        raise ConfigError(f"{context}: missing required keys {sorted(missing)}")


def _number(node, context: str) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ConfigError(f"{context}: expected a number, got {node!r}")
    return float(node)


def _integer(node, context: str) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        raise ConfigError(f"{context}: expected an integer, got {node!r}")
    return node


def _int_list(node, context: str) -> list[int]:
    if not isinstance(node, list) or not node:
        raise ConfigError(f"{context}: expected a nonempty list of integers")
    return [_integer(v, context) for v in node]


def _parse_box(node, context: str) -> Box:
    node = _require_mapping(node, context)
    _check_keys(node, {"lo", "hi"}, {"lo", "hi"}, context)
    return Box(tuple(_int_list(node["lo"], context + ".lo")),
               tuple(_int_list(node["hi"], context + ".hi")))


def _parse_complex(node, context: str) -> complex:
    node = _require_mapping(node, context)
    _check_keys(node, {"re", "im"}, set(), context)
    return complex(_number(node.get("re", 0.0), context),
                   _number(node.get("im", 0.0), context))


def _parse_exp_poly(node, context: str) -> ExpPolynomial:
    node = _require_mapping(node, context)
    _check_keys(node, {"terms"}, {"terms"}, context)
    if not isinstance(node["terms"], list) or not node["terms"]:
        raise ConfigError(f"{context}.terms: expected a nonempty list")
    terms = []
    for i, term in enumerate(node["terms"]):
        tctx = f"{context}.terms[{i}]"
        term = _require_mapping(term, tctx)
        _check_keys(term, {"re_c", "im_c", "alpha", "re_omega", "im_omega"},
                    {"re_c", "im_c", "alpha", "re_omega", "im_omega"}, tctx)
        alpha = _int_list(term["alpha"], tctx + ".alpha")
        re_w = term["re_omega"]
        im_w = term["im_omega"]
        if not (isinstance(re_w, list) and isinstance(im_w, list)
                and len(re_w) == len(im_w) == len(alpha)):
            raise ConfigError(f"{tctx}: alpha, re_omega, im_omega must be lists "
                              "of one common length d")
        c = complex(_number(term["re_c"], tctx), _number(term["im_c"], tctx))
        omega = tuple(complex(_number(a, tctx), _number(b, tctx))
                      for a, b in zip(re_w, im_w))
        terms.append((c, tuple(alpha), omega))
    return ExpPolynomial(tuple(terms))


def _parse_operator(node, context: str):
    if node == "four_neighbor":
        return four_neighbor_averaging(2)
    node = _require_mapping(node, context)
    _check_keys(node, {"offsets", "weights"}, {"offsets", "weights"}, context)
    offsets = [tuple(_int_list(o, context + ".offsets")) for o in node["offsets"]]
    weights = [_parse_complex(w, context + ".weights") for w in node["weights"]]
    return make_regular_operator(offsets, weights)


def _build_signal(node, box: Box, context: str) -> Field:
    node = _require_mapping(node, context)
    kind = node.get("kind")
    if kind == "exp_poly":
        rest = {k: v for k, v in node.items() if k != "kind"}
        poly = _parse_exp_poly(rest, context)
        return eval_exp_poly(poly, box)
    if kind == "harmonic":
        _check_keys(node, {"kind", "operator", "boundary", "seed"},
                    {"kind", "operator", "boundary"}, context)
        op = _parse_operator(node["operator"], context + ".operator")
        boundary = node["boundary"]
        if boundary == "saddle":
            if box.d != 2:
                raise ConfigError(f"{context}: the saddle boundary needs d = 2")
            x = np.arange(box.lo[0], box.hi[0] + 1)
            y = np.arange(box.lo[1], box.hi[1] + 1)
            bnd = Field(box, (x[:, None] ** 2 - y[None, :] ** 2).astype(complex))
        elif boundary == "random":
            seed = _seed(None, node.get("seed", 0), context + ".seed")
            bnd = sample_noise(box, NoiseSpec(1.0, seed))
        else:
            raise ConfigError(f"{context}.boundary: expected 'saddle' or 'random'")
        return random_discrete_harmonic(op, box, bnd)
    raise ConfigError(f"{context}.kind: expected 'exp_poly' or 'harmonic', got {kind!r}")


def _build_certificate(node, context: str) -> Certificate:
    node = _require_mapping(node, context)
    kind = node.get("kind")
    if kind is None:
        raise ConfigError(f"{context}: missing 'kind'")
    if kind == "exp":
        _check_keys(node, {"kind", "re_omega", "im_omega"}, {"kind"}, context)
        return exp_certificate_1d(complex(_number(node.get("re_omega", 0.0), context),
                                          _number(node.get("im_omega", 0.0), context)))
    if kind == "poly":
        _check_keys(node, {"kind", "degree"}, {"kind", "degree"}, context)
        return poly_certificate_1d(_integer(node["degree"], context))
    if kind == "simple_exp":
        _check_keys(node, {"kind", "freq_sets"}, {"kind", "freq_sets"}, context)
        sets = [[_parse_complex(w, context) for w in fs] for fs in node["freq_sets"]]
        return simple_exp_certificate(sets)
    if kind == "predictor_exp":
        _check_keys(node, {"kind", "re_omega", "im_omega", "kappa"},
                    {"kind", "kappa"}, context)
        return predictor_exp_certificate(
            complex(_number(node.get("re_omega", 0.0), context),
                    _number(node.get("im_omega", 0.0), context)),
            _integer(node["kappa"], context))
    if kind == "exp_poly":
        _check_keys(node, {"kind", "terms", "epsilon"}, {"kind", "terms"}, context)
        poly = _parse_exp_poly({"terms": node["terms"]}, context)
        eps = _number(node.get("epsilon", 1e-3), context)
        return exp_poly_certificate(poly, epsilon=eps)
    if kind == "modulate":
        _check_keys(node, {"kind", "base", "omega"}, {"kind", "base", "omega"},
                    context)
        base = _build_certificate(node["base"], context + ".base")
        omega = [_number(v, context + ".omega") for v in node["omega"]]
        return modulate_certificate(base, omega)
    if kind == "lift":
        _check_keys(node, {"kind", "base", "d_plus"}, {"kind", "base", "d_plus"},
                    context)
        return lift_certificate(_build_certificate(node["base"], context + ".base"),
                                _integer(node["d_plus"], context))
    if kind == "tensor":
        _check_keys(node, {"kind", "a", "b"}, {"kind", "a", "b"}, context)
        return tensor_certificate(_build_certificate(node["a"], context + ".a"),
                                  _build_certificate(node["b"], context + ".b"))
    if kind == "combine":
        _check_keys(node, {"kind", "parts", "lambdas"}, {"kind", "parts", "lambdas"},
                    context)
        parts = [_build_certificate(p, f"{context}.parts[{i}]")
                 for i, p in enumerate(node["parts"])]
        lambdas = [_parse_complex(l, context + ".lambdas") for l in node["lambdas"]]
        return combine_certificates(parts, lambdas)
    raise ConfigError(f"{context}.kind: unknown certificate kind {kind!r}")


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    return _require_mapping(doc, "config")


def _tolerance(args, cfg: dict, default: float) -> float:
    """The solver tolerance, from ``--tol`` or else ``config.tol``; a value
    that is not positive (NaN included) is an error naming its source."""
    if args.tol is not None:
        tol, source = args.tol, "--tol"
    else:
        tol, source = _number(cfg.get("tol", default), "config.tol"), "config.tol"
    if not tol > 0:
        raise ConfigError(f"{source}: tol must be positive, got {tol}")
    return tol


def _seed(override: int | None, node, context: str) -> int:
    """The seed from ``--seed`` (``override``) or else ``node`` at ``context``;
    one that Philox cannot take is an error naming its source."""
    if override is not None:
        seed, source = override, "--seed"
    else:
        seed, source = _integer(node, context), context
    try:
        _seed_arg(seed)
    except ParamError as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    return seed


def _out_path(args, name: str) -> str:
    if os.path.isabs(name):
        return name
    base = args.out if args.out else "."
    os.makedirs(base, exist_ok=True)
    return os.path.join(base, name)


def _info(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def cmd_generate(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg, {"signal", "box", "noise", "out"}, {"signal", "box", "out"},
                "config")
    box = _parse_box(cfg["box"], "config.box")
    out = _require_mapping(cfg["out"], "config.out")
    _check_keys(out, {"signal", "observations"}, {"signal"}, "config.out")
    noise_cfg = cfg.get("noise")
    spec = None
    if noise_cfg is not None:
        noise_cfg = _require_mapping(noise_cfg, "config.noise")
        _check_keys(noise_cfg, {"sigma", "seed"}, {"sigma", "seed"}, "config.noise")
        if "observations" not in out:
            raise ConfigError("config.out: noise given but no observations path")
        spec = NoiseSpec(_number(noise_cfg["sigma"], "config.noise.sigma"),
                         _seed(args.seed, noise_cfg["seed"], "config.noise.seed"))
    try:
        signal = _build_signal(cfg["signal"], box, "config.signal")
    except (ConfigError, ParamError):
        raise
    except Exception as exc:
        _info(args, f"generation failed: {exc}")
        return 3
    write_zdf(signal, _out_path(args, out["signal"]))
    _info(args, f"wrote signal field on {box} to {out['signal']}")
    if spec is not None:
        y = signal + sample_noise(box, spec)
        write_zdf(y, _out_path(args, out["observations"]))
        _info(args, f"wrote observations (sigma={spec.sigma}, seed={spec.seed}) "
                    f"to {out['observations']}")
    return 0


def _parse_setup(node, mode: str, context: str) -> DenoiseSetup:
    node = _require_mapping(node, context)
    keys = {"rho", "T"} | ({"kappa"} if mode == PREDICTION else set())
    _check_keys(node, keys, keys, context)
    kappa = _integer(node["kappa"], context) if mode == PREDICTION else None
    try:
        return DenoiseSetup(rho=_number(node["rho"], context),
                            T=_integer(node["T"], context),
                            mode=mode, kappa=kappa)
    except ParamError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _run_estimates(args, mode: str) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg, {"observations", "setup", "anchors", "tol", "out"},
                {"observations", "setup", "anchors", "out"}, "config")
    out = _require_mapping(cfg["out"], "config.out")
    _check_keys(out, {"estimates"}, {"estimates"}, "config.out")
    setup = _parse_setup(cfg["setup"], mode, "config.setup")
    anchors = cfg["anchors"]
    if not isinstance(anchors, list) or not anchors:
        raise ConfigError("config.anchors: expected a nonempty list of points")
    anchors = [tuple(_int_list(a, "config.anchors")) for a in anchors]
    tol = _tolerance(args, cfg, 1e-6)
    obs_path = cfg["observations"]
    if not os.path.isabs(obs_path):
        obs_path = os.path.join(os.path.dirname(args.config) or ".", obs_path)
    try:
        y = read_zdf(obs_path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read observations: {exc}") from exc
    rows = []
    any_unconverged = False
    for t in anchors:
        read = program_boxes(mode, t, setup.T, setup.kappa)[0]
        _info(args, f"anchor {t}: reading observations on [{read.lo}, {read.hi}]")
        est = denoise_point(y, t, setup, tol=tol)
        if est.solve is not None and not est.solve.converged:
            any_unconverged = True
            _info(args, f"anchor {t}: gap {est.solve.gap:.3e} above tolerance, "
                        "row flagged")
        rows.append((t, est.value, est.solve))
    path = _out_path(args, out["estimates"])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ESTIMATE_COLUMNS)
        for t, value, sol in rows:
            anchor_s = ";".join(str(x) for x in t)
            if sol is None:
                writer.writerow([anchor_s, f"{value.real:.17g}",
                                 f"{value.imag:.17g}", "0", "0", "0"])
            else:
                writer.writerow([
                    anchor_s, f"{value.real:.17g}", f"{value.imag:.17g}",
                    f"{sol.objective:.17g}", f"{sol.dual_bound:.17g}",
                    f"{sol.gap:.17g}",
                ])
    _info(args, f"wrote {len(rows)} estimates to {path}")
    return 5 if any_unconverged else 0


def cmd_denoise(args) -> int:
    return _run_estimates(args, FILTERING)


def cmd_predict(args) -> int:
    return _run_estimates(args, PREDICTION)


def cmd_bench(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg, {"master_seed", "trials", "tol", "experiments", "checks",
                      "out"},
                {"master_seed", "trials", "experiments", "out"}, "config")
    master_seed = _seed(args.seed, cfg["master_seed"], "config.master_seed")
    trials = _integer(cfg["trials"], "config.trials")
    if trials < 1:
        raise ConfigError("config.trials: need at least one trial")
    tol = _tolerance(args, cfg, 1e-5)
    out = _require_mapping(cfg["out"], "config.out")
    _check_keys(out, {"stats_csv", "stats_json", "trials_csv"}, {"stats_csv"},
                "config.out")

    # the whole config is checked before any sampling
    experiments = cfg["experiments"]
    if not isinstance(experiments, list):
        raise ConfigError("config.experiments: expected a list")
    experiments = [_parse_experiment(exp, f"config.experiments[{i}]")
                   for i, exp in enumerate(experiments)]
    checks = _parse_checks(cfg.get("checks"))

    failures: list[str] = []
    missed: list[str] = []
    all_stats = []
    all_records = []
    for label, signal, cert, anchor, setup, sigma in experiments:
        _info(args, f"running experiment {label!r}: {trials} trials, "
                    f"T={setup.T}, sigma={sigma}")
        stats, records = monte_carlo(signal, cert, anchor, setup, sigma, trials,
                                     master_seed, label=label, tol=tol)
        all_stats.append(stats)
        all_records.extend(records)
        missed.extend(
            f"trial {k} (seed {r.seed}) of {label}: duality gap "
            f"{r.solver_gap:.3e} above tolerance {tol:.3e}"
            for k, r in enumerate(records) if r.solver_gap > tol)
        if stats.rmse_adaptive > stats.bound:
            failures.append(f"{label}: rmse {stats.rmse_adaptive:.6g} exceeds "
                            f"bound {stats.bound:.6g}")
        if stats.pathwise_violations:
            failures.append(f"{label}: {stats.pathwise_violations} pathwise "
                            "bound violations")
        _info(args, f"  rmse_adaptive={stats.rmse_adaptive:.6g} "
                    f"bound={stats.bound:.6g} ratio={stats.ratio:.4f}")

    check_reports = {}
    if "gaussian_max" in checks:
        Ns, gm_trials = checks["gaussian_max"]
        reports = []
        for N in Ns:
            rep = check_gaussian_max(N, gm_trials, seed=master_seed)
            reports.append(rep)
            if not (rep.mean_ok and rep.tails_ok):
                failures.append(f"gaussian_max N={N}: bound violated")
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
    write_stats_csv(_out_path(args, out["stats_csv"]), all_stats, header)
    if "trials_csv" in out:
        write_trials_csv(_out_path(args, out["trials_csv"]), all_records, header)
    if "stats_json" in out:
        write_stats_json(_out_path(args, out["stats_json"]), all_stats,
                         extra={"master_seed": master_seed,
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
    """``(label, signal, certificate, anchor, setup, sigma)`` of one bench
    experiment."""
    exp = _require_mapping(exp, ctx)
    _check_keys(exp, {"label", "signal", "box", "certificate", "T", "sigma",
                      "anchor", "kappa"},
                {"label", "signal", "box", "certificate", "T", "sigma",
                 "anchor"}, ctx)
    box = _parse_box(exp["box"], ctx + ".box")
    cert = _build_certificate(exp["certificate"], ctx + ".certificate")
    if cert.d != box.d:
        raise ConfigError(f"{ctx}.certificate: a {cert.d}-d certificate for a "
                          f"{box.d}-d box")
    signal = _build_signal(exp["signal"], box, ctx + ".signal")
    T = _integer(exp["T"], ctx + ".T")
    sigma = _number(exp["sigma"], ctx + ".sigma")
    if not sigma >= 0:
        raise ConfigError(f"{ctx}.sigma: sigma must be nonnegative, got {sigma}")
    anchor = tuple(_int_list(exp["anchor"], ctx + ".anchor"))
    kappa = None
    if cert.kind == PREDICTION:
        kappa = _integer(exp.get("kappa", cert.kappa), ctx + ".kappa")
    elif "kappa" in exp:
        raise ConfigError(f"{ctx}.kappa: a filtering certificate takes no lag")
    try:
        setup = DenoiseSetup(rho=cert.rho, T=T, mode=cert.kind, kappa=kappa)
        # a trial's noise statistic reads this cube, and its other reads too
        reads = Box.cube(box.d, 4 * T, anchor)
    except ParamError as exc:
        raise ConfigError(f"{ctx}: {exc}") from exc
    if not box.contains_box(reads):
        raise DomainError(f"{ctx} ({exp['label']}): a trial at anchor {anchor} "
                          f"reads {reads}, but the box is {box}")
    return str(exp["label"]), signal, cert, anchor, setup, sigma


def _parse_checks(node) -> dict:
    """The bench's checks by name: ``gaussian_max`` to ``(Ns, trials)`` and
    ``theta_moment`` to ``(T, sigma, trials)``, each validated."""
    if node is None:
        return {}
    node = _require_mapping(node, "config.checks")
    _check_keys(node, {"gaussian_max", "theta_moment"}, set(), "config.checks")
    checks = {}
    if "gaussian_max" in node:
        ctx = "config.checks.gaussian_max"
        gm = _require_mapping(node["gaussian_max"], ctx)
        _check_keys(gm, {"Ns", "trials"}, {"Ns", "trials"}, ctx)
        Ns = _int_list(gm["Ns"], ctx + ".Ns")
        trials = _integer(gm["trials"], ctx + ".trials")
        for N in Ns:
            _gaussian_max_args(N, trials)
        checks["gaussian_max"] = (Ns, trials)
    if "theta_moment" in node:
        ctx = "config.checks.theta_moment"
        tm = _require_mapping(node["theta_moment"], ctx)
        _check_keys(tm, {"T", "sigma", "trials"}, {"T", "sigma", "trials"}, ctx)
        checks["theta_moment"] = (_integer(tm["T"], ctx + ".T"),
                                  _number(tm["sigma"], ctx + ".sigma"),
                                  _integer(tm["trials"], ctx + ".trials"))
        _theta_moment_args(checks["theta_moment"][2])
    return checks


def _check_residual(cfg: dict, box: Box, signal: Field, q: Filter, entry: dict,
                    slack: float, rel_tol: float, enforce: bool = True) -> bool:
    """Record ``q``'s reproduction residual on the evaluation cube in ``entry``.

    The residual violates the certificate when ``enforce`` is set and it
    exceeds ``slack + rel_tol * max(scale, 1)``, where ``scale`` is the
    signal's largest modulus; a violation is flagged in ``entry`` and
    returned.
    """
    radius = _integer(cfg.get("eval_radius", 2), "config.eval_radius")
    anchor = tuple(_int_list(cfg.get("anchor", [0] * box.d), "config.anchor"))
    res = reproduction_residual(q, signal, Box.cube(box.d, radius, anchor))
    entry["residual"] = res
    scale = float(np.abs(signal.data).max())
    if enforce and res > slack + rel_tol * max(scale, 1.0):
        entry["residual_violation"] = True
        return True
    return False


def cmd_certify(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg, {"certificate", "harmonic", "T", "signal", "box", "anchor",
                      "eval_radius", "out"},
                {"T", "box", "out"}, "config")
    if ("certificate" in cfg) == ("harmonic" in cfg):
        raise ConfigError("config: give exactly one of 'certificate' or 'harmonic'")
    out = _require_mapping(cfg["out"], "config.out")
    _check_keys(out, {"filter", "report"}, {"filter", "report"}, "config.out")
    box = _parse_box(cfg["box"], "config.box")
    Ts = (_int_list(cfg["T"], "config.T") if isinstance(cfg["T"], list)
          else [_integer(cfg["T"], "config.T")])

    entries = []
    violated = False
    last_filter = None
    if "certificate" in cfg:
        cert = _build_certificate(cfg["certificate"], "config.certificate")
        signal = _build_signal(cfg["signal"], box, "config.signal") \
            if "signal" in cfg else None
        for T in Ts:
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
                violated |= _check_residual(cfg, box, signal, q, entry,
                                            entry["theta_scaled"], 1e-9, cert.exact)
            entries.append(entry)
    else:
        node = _require_mapping(cfg["harmonic"], "config.harmonic")
        _check_keys(node, {"operator", "n", "c24"}, {"operator", "n"},
                    "config.harmonic")
        op = _parse_operator(node["operator"], "config.harmonic.operator")
        n = _integer(node["n"], "config.harmonic.n")
        c24 = _integer(node.get("c24", 1), "config.harmonic.c24")
        q = harmonic_filter(op, n, c24)
        last_filter = q
        entry = {"n": n, "c24": c24, "order": q.order, "l2": q.l2(),
                 "l2_scaled": q.l2() * (2 * q.order + 1) ** (op.d / 2)}
        if "signal" in cfg:
            signal = _build_signal(cfg["signal"], box, "config.signal")
            violated |= _check_residual(cfg, box, signal, q, entry, 0.0, 1e-10)
        entries.append(entry)

    write_zdf(last_filter.field, _out_path(args, out["filter"]))
    with open(_out_path(args, out["report"]), "w") as fh:
        json.dump({"entries": entries, "violated": violated}, fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
    if violated:
        print("FAIL certificate bounds violated (implementation bug)",
              file=sys.stderr)
        return 6
    _info(args, f"certificate ok over T={Ts}")
    return 0


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridfilt",
        description="Adaptive min-max filtering on integer grids")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in (("generate", cmd_generate), ("denoise", cmd_denoise),
                          ("predict", cmd_predict), ("bench", cmd_bench),
                          ("certify", cmd_certify)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's seed")
        p.add_argument("--tol", type=float, default=None,
                       help="override the solver tolerance")
        p.add_argument("--quiet", action="store_true")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"coverage error: {exc}", file=sys.stderr)
        return 4
    except ParamError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, OverflowError) as exc:
        print(f"generation error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: inputs built from a seed, and the CLI call that runs them.

``setup`` builds everything the program receives (signal, noisy observation
file, YAML config) plus what verification needs to check the output on its
own (the signal, the observations and the certificate), and returns the CLI
arguments of one call. The program receives all trials or anchors of a
workload in that one call. gridfilt functions are called through their
modules, so that a traced run also times the set-up.

* ``mc-d1``: ``gridfilt bench`` on ``mc_d1.yaml``, the default bench with fewer
  trials: many independent small solves (n = 17 and 33), where per-call
  numpy overhead dominates.
* ``field-d2``: ``gridfilt denoise`` at a 2x2 grid of neighbouring anchors of
  one 2-D plane wave, T = 4 (n = 289): the dense operator dominates.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import yaml

from gridfilt import harness, signals
from gridfilt.estimators import DenoiseSetup
from gridfilt.fields import Box, Field, write_zdf
from gridfilt.signals import (
    Certificate,
    ExpPolynomial,
    exp_certificate_1d,
    exp_poly_certificate,
)

MC_CONFIG = os.path.join(os.path.dirname(os.path.abspath(__file__)), "mc_d1.yaml")


@dataclass(frozen=True)
class Experiment:
    """One Monte Carlo experiment of the bench config, rebuilt for verification."""

    signal: Field
    cert: Certificate
    T: int
    sigma: float
    anchor: tuple[int, ...]


@dataclass
class Inputs:
    """A workload's generated inputs and the CLI call that consumes them."""

    argv: list[str]            # CLI arguments, without --out
    items: int                 # estimates (trials or anchors) per CLI call
    outputs: tuple[str, ...]   # files one call writes; the digest covers them
    ok_codes: tuple[int, ...]  # exit codes of a call that wrote every row
                               # (denoise exits 5 when a gap is above tol)
    tol: float
    # mc-d1
    master_seed: int = 0
    trials: int = 0
    experiments: list[Experiment] = field(default_factory=list)
    # field-d2
    signal: Field | None = None
    observations: Field | None = None
    cert: Certificate | None = None
    setup: DenoiseSetup | None = None
    anchors: list[tuple[int, ...]] = field(default_factory=list)


def _exp_poly(terms) -> ExpPolynomial:
    return ExpPolynomial(tuple(
        (complex(t["re_c"], t["im_c"]), tuple(t["alpha"]),
         tuple(complex(a, b) for a, b in zip(t["re_omega"], t["im_omega"])))
        for t in terms))


def _write_yaml(path: str, doc: dict) -> str:
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)
    return path


@dataclass(frozen=True)
class MonteCarlo:
    """``gridfilt bench`` on the benchmark's copy of the default bench config."""

    trials: int | None = None   # None keeps the config's trial count

    def setup(self, seed: int, workdir: str) -> Inputs:
        with open(MC_CONFIG) as fh:
            doc = yaml.safe_load(fh)
        doc["master_seed"] = seed
        if self.trials is not None:
            doc["trials"] = self.trials
        experiments = []
        for exp in doc["experiments"]:
            box = Box(tuple(exp["box"]["lo"]), tuple(exp["box"]["hi"]))
            cert = exp["certificate"]
            experiments.append(Experiment(
                signals.eval_exp_poly(_exp_poly(exp["signal"]["terms"]), box),
                exp_certificate_1d(complex(cert["re_omega"], cert["im_omega"])),
                exp["T"], exp["sigma"], tuple(exp["anchor"])))
        config = _write_yaml(os.path.join(workdir, "bench.yaml"), doc)
        out = doc["out"]
        return Inputs(
            argv=["bench", "--config", config],
            items=doc["trials"] * len(experiments),
            outputs=(out["stats_csv"], out["trials_csv"], out["stats_json"]),
            ok_codes=(0,), tol=doc["tol"], master_seed=seed,
            trials=doc["trials"], experiments=experiments)


@dataclass(frozen=True)
class Denoise:
    """``gridfilt denoise`` at a list of anchors of one noisy field."""

    terms: tuple                  # (c, alpha, omega) of the exponential polynomial
    box: Box
    anchors: tuple
    T: int
    sigma: float = 0.1
    tol: float = 1e-5

    def setup(self, seed: int, workdir: str) -> Inputs:
        poly = ExpPolynomial(self.terms)
        signal = signals.eval_exp_poly(poly, self.box)
        y = signal + harness.sample_noise(self.box, harness.NoiseSpec(self.sigma, seed))
        write_zdf(y, os.path.join(workdir, "obs.zdf"))
        cert = exp_poly_certificate(poly)
        config = _write_yaml(os.path.join(workdir, "denoise.yaml"), {
            "observations": "obs.zdf",
            "setup": {"rho": float(cert.rho), "T": self.T},
            "anchors": [list(t) for t in self.anchors],
            "tol": self.tol,
            "out": {"estimates": "estimates.csv"},
        })
        return Inputs(
            argv=["denoise", "--config", config], items=len(self.anchors),
            outputs=("estimates.csv",), ok_codes=(0, 5), tol=self.tol,
            signal=signal, observations=y, cert=cert,
            setup=DenoiseSetup(rho=cert.rho, T=self.T),
            anchors=[tuple(t) for t in self.anchors])


WORKLOADS = {
    "mc-d1": MonteCarlo(),
    "field-d2": Denoise(
        terms=((1.0, (0, 0), (0.4j, 0.25j)),),
        box=Box((-16, -16), (17, 17)),
        anchors=((0, 0), (0, 1), (1, 0), (1, 1)),
        T=4),
}

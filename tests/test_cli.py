"""Command line interface: round trips, exit codes, golden layouts."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
import yaml

from gridfilt import read_zdf
from gridfilt.cli import main


def write_config(path, doc) -> str:
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def constant_signal(value=1.0):
    return {
        "kind": "exp_poly",
        "terms": [{"re_c": value, "im_c": 0.0, "alpha": [0],
                   "re_omega": [0.0], "im_omega": [0.0]}],
    }


def alternating_signal():
    return {
        "kind": "exp_poly",
        "terms": [{"re_c": 1.0, "im_c": 0.0, "alpha": [0],
                   "re_omega": [0.0], "im_omega": [math.pi]}],
    }


# ---------------------------------------------------------------- generate


def test_generate_constant(tmp_path):
    cfg = write_config(tmp_path / "gen.yaml", {
        "signal": constant_signal(2.5),
        "box": {"lo": [-16], "hi": [16]},
        "out": {"signal": "sig.zdf"},
    })
    assert main(["generate", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    f = read_zdf(tmp_path / "sig.zdf")
    assert f.box.size == 33
    assert np.allclose(f.data, 2.5)


def test_generate_alternating(tmp_path):
    cfg = write_config(tmp_path / "gen.yaml", {
        "signal": alternating_signal(),
        "box": {"lo": [-8], "hi": [8]},
        "out": {"signal": "sig.zdf"},
    })
    assert main(["generate", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    f = read_zdf(tmp_path / "sig.zdf")
    expected = [(-1.0) ** t for t in range(-8, 9)]
    assert np.allclose(f.data, expected)


def test_generate_deterministic_bytes(tmp_path):
    doc = {
        "signal": constant_signal(),
        "box": {"lo": [-8], "hi": [8]},
        "noise": {"sigma": 0.2, "seed": 11},
        "out": {"signal": "sig.zdf", "observations": "obs.zdf"},
    }
    c1 = write_config(tmp_path / "a.yaml", doc)
    assert main(["generate", "--config", c1, "--out", str(tmp_path / "r1"),
                 "--quiet"]) == 0
    assert main(["generate", "--config", c1, "--out", str(tmp_path / "r2"),
                 "--quiet"]) == 0
    for name in ("sig.zdf", "obs.zdf"):
        assert (tmp_path / "r1" / name).read_bytes() == \
            (tmp_path / "r2" / name).read_bytes()


def test_generate_overflow_exit_code(tmp_path):
    cfg = write_config(tmp_path / "gen.yaml", {
        "signal": {"kind": "exp_poly",
                   "terms": [{"re_c": 1.0, "im_c": 0.0, "alpha": [0],
                              "re_omega": [60.0], "im_omega": [0.0]}]},
        "box": {"lo": [-100], "hi": [100]},
        "out": {"signal": "sig.zdf"},
    })
    assert main(["generate", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 3


# ---------------------------------------------------------------- denoise / predict


def make_observations(tmp_path, signal, box, sigma=0.0, seed=1):
    cfg = write_config(tmp_path / "gen.yaml", {
        "signal": signal,
        "box": box,
        "noise": {"sigma": sigma, "seed": seed},
        "out": {"signal": "sig.zdf", "observations": "obs.zdf"},
    })
    assert main(["generate", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    return tmp_path / "obs.zdf"


def read_estimates(path):
    rows = {}
    lines = path.read_text().splitlines()
    assert lines[0] == "anchor,re_estimate,im_estimate,objective,dual_bound,gap"
    for line in lines[1:]:
        parts = line.split(",")
        anchor = tuple(int(v) for v in parts[0].split(";"))
        rows[anchor] = (complex(float(parts[1]), float(parts[2])),
                        float(parts[3]), float(parts[4]), float(parts[5]))
    return rows


def test_denoise_T0_equals_observations(tmp_path):
    obs = make_observations(tmp_path, constant_signal(), {"lo": [-8], "hi": [8]},
                            sigma=0.5, seed=2)
    cfg = write_config(tmp_path / "den.yaml", {
        "observations": str(obs),
        "setup": {"rho": 1.0, "T": 0},
        "anchors": [[0], [3], [-5]],
        "out": {"estimates": "est.csv"},
    })
    assert main(["denoise", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    rows = read_estimates(tmp_path / "est.csv")
    y = read_zdf(obs)
    for t in ((0,), (3,), (-5,)):
        value, obj, dual, gap = rows[t]
        assert value == y.value(t)
        assert obj == dual == gap == 0.0


def test_denoise_recovers_noiseless_signal(tmp_path):
    obs = make_observations(tmp_path, alternating_signal(), {"lo": [-16], "hi": [16]})
    cfg = write_config(tmp_path / "den.yaml", {
        "observations": str(obs),
        "setup": {"rho": math.sqrt(2), "T": 2},
        "anchors": [[0], [1], [-3]],
        "out": {"estimates": "est.csv"},
    })
    assert main(["denoise", "--config", cfg, "--out", str(tmp_path), "--quiet",
                 "--tol", "1e-9"]) == 0
    rows = read_estimates(tmp_path / "est.csv")
    for t, sign in (((0,), 1), ((1,), -1), ((-3,), -1)):
        assert abs(rows[t][0] - sign) < 1e-6


def test_denoise_coverage_exit_code(tmp_path):
    obs = make_observations(tmp_path, constant_signal(), {"lo": [-8], "hi": [8]})
    cfg = write_config(tmp_path / "den.yaml", {
        "observations": str(obs),
        "setup": {"rho": 1.0, "T": 4},
        "anchors": [[0]],
        "out": {"estimates": "est.csv"},
    })
    assert main(["denoise", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 4


def test_denoise_rejects_unknown_keys(tmp_path):
    obs = make_observations(tmp_path, constant_signal(), {"lo": [-8], "hi": [8]})
    cfg = write_config(tmp_path / "den.yaml", {
        "observations": str(obs),
        "setup": {"rho": 1.0, "T": 1, "extra": 5},
        "anchors": [[0]],
        "out": {"estimates": "est.csv"},
    })
    assert main(["denoise", "--config", cfg, "--quiet"]) == 2


def test_denoise_requires_rho(tmp_path):
    obs = make_observations(tmp_path, constant_signal(), {"lo": [-8], "hi": [8]})
    cfg = write_config(tmp_path / "den.yaml", {
        "observations": str(obs),
        "setup": {"T": 1},
        "anchors": [[0]],
        "out": {"estimates": "est.csv"},
    })
    assert main(["denoise", "--config", cfg, "--quiet"]) == 2


def denoise_config(tmp_path, obs):
    return write_config(tmp_path / "den.yaml", {
        "observations": str(obs),
        "setup": {"rho": 1.0, "T": 1},
        "anchors": [[0]],
        "out": {"estimates": "est.csv"},
    })


def test_denoise_unreadable_observations_exit_code(tmp_path, capsys):
    obs = make_observations(tmp_path, constant_signal(), {"lo": [-8], "hi": [8]})
    raw = obs.read_bytes()
    bad_magic = tmp_path / "magic.zdf"
    bad_magic.write_bytes(b"NOPE" + raw[4:])
    truncated = tmp_path / "short.zdf"
    truncated.write_bytes(raw[:10])
    for path in (tmp_path / "missing.zdf", bad_magic, truncated):
        cfg = denoise_config(tmp_path, path)
        assert main(["denoise", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "cannot read observations" in capsys.readouterr().err


def test_denoise_non_finite_observation_exit_code(tmp_path, capsys):
    from gridfilt import Box, Field, write_zdf

    data = np.ones(17, dtype=complex)
    data[8 + 3] = np.nan
    obs = tmp_path / "obs.zdf"
    write_zdf(Field(Box((-8,), (8,)), data), obs)
    assert main(["denoise", "--config", denoise_config(tmp_path, obs),
                 "--out", str(tmp_path)]) == 4
    assert "(3,) is not finite" in capsys.readouterr().err


def test_denoise_T0_non_finite_observation_exit_code(tmp_path, capsys):
    from gridfilt import Box, Field, write_zdf

    data = np.ones(17, dtype=complex)
    data[8] = np.nan
    obs = tmp_path / "obs.zdf"
    write_zdf(Field(Box((-8,), (8,)), data), obs)
    cfg = write_config(tmp_path / "den.yaml", {
        "observations": str(obs),
        "setup": {"rho": 1.0, "T": 0},
        "anchors": [[0]],
        "out": {"estimates": "est.csv"},
    })
    assert main(["denoise", "--config", cfg, "--out", str(tmp_path)]) == 4
    assert "(0,) is not finite" in capsys.readouterr().err
    assert not (tmp_path / "est.csv").exists()


def test_predict_nonconvergence_still_writes_rows(tmp_path):
    # near-noiseless prediction instances have a tiny positive optimum; the
    # default iteration budget cannot certify a 1e-9 absolute gap there
    sig = {"kind": "exp_poly",
           "terms": [{"re_c": 1.0, "im_c": 0.0, "alpha": [0],
                      "re_omega": [-0.1], "im_omega": [0.5]}]}
    obs = make_observations(tmp_path, sig, {"lo": [-20], "hi": [0]},
                            sigma=0.02, seed=5)
    cfg = write_config(tmp_path / "pred.yaml", {
        "observations": str(obs),
        "setup": {"rho": 2 * math.sqrt(3), "T": 4, "kappa": 1},
        "anchors": [[0]],
        "out": {"estimates": "est.csv"},
    })
    assert main(["predict", "--config", cfg, "--out", str(tmp_path), "--quiet",
                 "--tol", "1e-9"]) == 5
    rows = read_estimates(tmp_path / "est.csv")
    assert (0,) in rows
    assert rows[(0,)][3] > 1e-9  # gap column records the achieved gap


def test_predict_runs_and_logs_window(tmp_path, capsys):
    obs = make_observations(tmp_path, constant_signal(), {"lo": [-33], "hi": [0]})
    cfg = write_config(tmp_path / "pred.yaml", {
        "observations": str(obs),
        "setup": {"rho": 2 * math.sqrt(3), "T": 2, "kappa": 1},
        "anchors": [[0]],
        "out": {"estimates": "est.csv"},
    })
    assert main(["predict", "--config", cfg, "--out", str(tmp_path),
                 "--tol", "1e-9"]) == 0
    err = capsys.readouterr().err
    assert "reading observations on [(-8,), (-1,)]" in err
    rows = read_estimates(tmp_path / "est.csv")
    assert abs(rows[(0,)][0] - 1.0) < 1e-6


def test_anchor_sweep_on_shifted_data(tmp_path):
    sig = alternating_signal()
    (tmp_path / "a").mkdir()
    obs1 = make_observations(tmp_path / "a", sig, {"lo": [-16], "hi": [16]},
                             sigma=0.1, seed=9)
    # same field shifted by +2 (regenerate on a shifted box with same seed
    # gives a different draw, so shift the file contents instead)
    from gridfilt import Field, shift, write_zdf

    y = read_zdf(obs1)
    (tmp_path / "b").mkdir(exist_ok=True)
    obs2 = tmp_path / "b" / "obs.zdf"
    write_zdf(shift(y, (2,)), obs2)
    mk = lambda obs, anchors, sub: write_config(tmp_path / f"{sub}.yaml", {
        "observations": str(obs),
        "setup": {"rho": math.sqrt(2), "T": 2},
        "anchors": anchors,
        "out": {"estimates": f"{sub}.csv"},
    })
    assert main(["denoise", "--config", mk(obs1, [[0], [1]], "e1"),
                 "--out", str(tmp_path), "--quiet"]) == 0
    assert main(["denoise", "--config", mk(obs2, [[2], [3]], "e2"),
                 "--out", str(tmp_path), "--quiet"]) == 0
    r1 = read_estimates(tmp_path / "e1.csv")
    r2 = read_estimates(tmp_path / "e2.csv")
    assert r1[(0,)][0] == r2[(2,)][0]
    assert r1[(1,)][0] == r2[(3,)][0]


# ---------------------------------------------------------------- bench


def bench_doc(trials=10):
    return {
        "master_seed": 77,
        "trials": trials,
        "tol": 1e-5,
        "experiments": [{
            "label": "const",
            "signal": constant_signal(),
            "box": {"lo": [-8], "hi": [8]},
            "certificate": {"kind": "exp", "re_omega": 0.0, "im_omega": 0.0},
            "T": 2,
            "sigma": 0.1,
            "anchor": [0],
        }],
        "checks": {"gaussian_max": {"Ns": [1, 16], "trials": 2000}},
        "out": {"stats_csv": "stats.csv", "trials_csv": "trials.csv",
                "stats_json": "stats.json"},
    }


def test_bench_passes_and_reproduces(tmp_path):
    cfg = write_config(tmp_path / "bench.yaml", bench_doc())
    assert main(["bench", "--config", cfg, "--out", str(tmp_path / "r1"),
                 "--quiet"]) == 0
    assert main(["bench", "--config", cfg, "--out", str(tmp_path / "r2"),
                 "--quiet"]) == 0
    for name in ("stats.csv", "trials.csv", "stats.json"):
        assert (tmp_path / "r1" / name).read_bytes() == \
            (tmp_path / "r2" / name).read_bytes()
    header = (tmp_path / "r1" / "stats.csv").read_text().splitlines()[0]
    assert header == "# master_seed=77"
    payload = json.loads((tmp_path / "r1" / "stats.json").read_text())
    assert payload["failures"] == []
    assert payload["experiments"][0]["ratio"] < 1.0


def test_bench_zero_trials_config_error(tmp_path):
    doc = bench_doc(trials=0)
    cfg = write_config(tmp_path / "bench.yaml", doc)
    assert main(["bench", "--config", cfg, "--quiet"]) == 2


def test_bench_budget_miss_exit_code(tmp_path, monkeypatch, capsys):
    # a trial that misses the iteration budget is a solver failure (5), not a
    # failed bench check (1); every output is still written, with the trial's
    # certified gap in its row
    import functools

    from gridfilt import cli

    monkeypatch.setattr(cli, "monte_carlo",
                        functools.partial(cli.monte_carlo, max_iter=50))
    cfg = write_config(tmp_path / "bench.yaml", bench_doc(trials=3))
    assert main(["bench", "--config", cfg, "--out", str(tmp_path)]) == 5
    err = capsys.readouterr().err
    payload = json.loads((tmp_path / "stats.json").read_text())
    assert payload["checks"]["gaussian_max"]
    rows = (tmp_path / "trials.csv").read_text().splitlines()[2:]
    assert len(rows) == 3
    for i, row in enumerate(rows):
        cols = row.split(",")
        assert int(cols[0]) == i and float(cols[11]) > 1e-5  # solver_gap
        named = (f"trial {i} (seed {cols[1]}) of const: "
                 f"duality gap {float(cols[11]):.3e}")
        assert named in err
        assert any(f.startswith(named) for f in payload["failures"])
    stats = (tmp_path / "stats.csv").read_text().splitlines()
    assert len(stats) == 3 and stats[2].startswith("const,")


@pytest.mark.parametrize("check,trials", [("gaussian_max", 1),
                                          ("theta_moment", 1),
                                          ("theta_moment", 0)])
def test_bench_check_with_too_few_trials_exit_code(tmp_path, monkeypatch, capsys,
                                                 check, trials):
    # rejected before any trial is sampled
    from gridfilt import cli

    monkeypatch.setattr(cli, "monte_carlo", _refuse)
    doc = bench_doc(trials=3)
    doc["checks"] = {"gaussian_max": {"Ns": [16], "trials": 2000},
                     "theta_moment": {"T": 2, "sigma": 0.7, "trials": 300}}
    doc["checks"][check]["trials"] = trials
    cfg = write_config(tmp_path / "bench.yaml", doc)
    assert main(["bench", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "trials >= 2" in capsys.readouterr().err


def test_bench_rejects_bad_later_experiment_before_sampling(tmp_path, monkeypatch,
                                                          capsys):
    from gridfilt import cli

    monkeypatch.setattr(cli, "monte_carlo", _refuse)
    doc = bench_doc(trials=3)
    second = dict(doc["experiments"][0], label="second")
    del second["sigma"]
    doc["experiments"].append(second)
    cfg = write_config(tmp_path / "bench.yaml", doc)
    assert main(["bench", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "config.experiments[1]: missing required keys ['sigma']" in \
        capsys.readouterr().err
    assert not (tmp_path / "stats.csv").exists()


def test_bench_check_trials_key_named(tmp_path, capsys):
    doc = bench_doc(trials=3)
    doc["checks"] = {"theta_moment": {"T": 2, "sigma": 0.7, "trials": "many"}}
    cfg = write_config(tmp_path / "bench.yaml", doc)
    assert main(["bench", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "config.checks.theta_moment.trials: expected an integer" in \
        capsys.readouterr().err


def test_bench_filtering_kappa_config_error(tmp_path, capsys):
    doc = bench_doc(trials=3)
    doc["experiments"][0]["kappa"] = 7
    cfg = write_config(tmp_path / "bench.yaml", doc)
    assert main(["bench", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "config.experiments[0].kappa" in capsys.readouterr().err


def test_bench_uncovered_anchor_exit_code(tmp_path, monkeypatch, capsys):
    # T = 2 reads [-4, 12] around anchor 4: outside the box [-8, 8]; found
    # before any trial is sampled
    from gridfilt import cli

    monkeypatch.setattr(cli, "monte_carlo", _refuse)
    doc = bench_doc()
    doc["experiments"][0]["anchor"] = [4]
    cfg = write_config(tmp_path / "bench.yaml", doc)
    assert main(["bench", "--config", cfg, "--out", str(tmp_path)]) == 4
    assert "config.experiments[0] (const)" in capsys.readouterr().err
    assert not (tmp_path / "stats.csv").exists()


def test_bench_certificate_dimension_mismatch_before_sampling(tmp_path, monkeypatch,
                                                              capsys):
    # a 1-d certificate for a 2-d box is a config error, found before any
    # trial is sampled
    from gridfilt import cli

    monkeypatch.setattr(cli, "monte_carlo", _refuse)
    doc = bench_doc(trials=3)
    doc["experiments"][0].update(
        signal={"kind": "exp_poly",
                "terms": [{"re_c": 1.0, "im_c": 0.0, "alpha": [0, 0],
                           "re_omega": [0.0, 0.0], "im_omega": [0.0, 0.0]}]},
        box={"lo": [-8, -8], "hi": [8, 8]}, anchor=[0, 0])
    cfg = write_config(tmp_path / "bench.yaml", doc)
    assert main(["bench", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "config.experiments[0].certificate: a 1-d certificate for a 2-d box" \
        in capsys.readouterr().err
    assert not (tmp_path / "stats.csv").exists()


def _harmonic_signal_fails(monkeypatch):
    """Make every harmonic signal miss its Jacobi budget."""
    from gridfilt import signals

    monkeypatch.setattr(signals, "JACOBI_MAX_ITER", 1)
    return {"kind": "harmonic", "operator": "four_neighbor", "boundary": "saddle"}


def test_bench_harmonic_generation_failure_exit_code(tmp_path, monkeypatch, capsys):
    # a signal that cannot be generated is a generation error (3), not a
    # solver failure (5)
    from gridfilt import cli

    monkeypatch.setattr(cli, "monte_carlo", _refuse)
    doc = bench_doc(trials=3)
    doc["experiments"][0].update(
        signal=_harmonic_signal_fails(monkeypatch),
        box={"lo": [-8, -8], "hi": [8, 8]}, anchor=[0, 0],
        certificate={"kind": "tensor", "a": {"kind": "exp"}, "b": {"kind": "exp"}})
    cfg = write_config(tmp_path / "bench.yaml", doc)
    assert main(["bench", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert "generation error: Jacobi iteration" in capsys.readouterr().err
    assert not (tmp_path / "stats.csv").exists()


def test_certify_harmonic_generation_failure_exit_code(tmp_path, monkeypatch,
                                                      capsys):
    cfg = write_config(tmp_path / "cert.yaml", {
        "harmonic": {"operator": "four_neighbor", "n": 2},
        "T": [1],
        "signal": _harmonic_signal_fails(monkeypatch),
        "box": {"lo": [-20, -20], "hi": [20, 20]},
        "anchor": [0, 0],
        "eval_radius": 4,
        "out": {"filter": "q.zdf", "report": "report.json"},
    })
    assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert "generation error: Jacobi iteration" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


# (key of experiment 1, its bad value, exit code, what the message must say)
BAD_EXPERIMENT_FIELDS = [
    ("sigma", -0.1, 2, "config.experiments[1].sigma: sigma must be nonnegative"),
    ("T", -1, 2, "config.experiments[1]: T must be nonnegative"),
    ("anchor", [4], 4, "config.experiments[1] (second): a trial at anchor (4,)"),
]


@pytest.mark.parametrize("key,value,code,message", BAD_EXPERIMENT_FIELDS)
def test_bench_rejects_bad_experiment_field_before_sampling(
        tmp_path, monkeypatch, capsys, key, value, code, message):
    from gridfilt import cli

    monkeypatch.setattr(cli, "monte_carlo", _refuse)
    doc = bench_doc(trials=3)
    doc["experiments"].append(dict(doc["experiments"][0], label="second",
                                   **{key: value}))
    cfg = write_config(tmp_path / "bench.yaml", doc)
    assert main(["bench", "--config", cfg, "--out", str(tmp_path)]) == code
    err = capsys.readouterr().err
    assert message in err and "trial 0" not in err
    assert not (tmp_path / "stats.csv").exists()


def test_bench_nan_tol_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path / "bench.yaml", bench_doc())
    assert main(["bench", "--config", cfg, "--out", str(tmp_path),
                 "--tol", "nan"]) == 2
    assert "tol must be positive" in capsys.readouterr().err


# (--tol value, config.tol value, the source the message must name)
BAD_TOLS = [("nan", None, "--tol"), ("0", 1e-5, "--tol"), ("-1e-6", None, "--tol"),
            (None, float("nan"), "config.tol"), (None, -1e-5, "config.tol"),
            (None, 0.0, "config.tol")]


def _refuse(*args, **kwargs):
    raise AssertionError("ran before the whole config was checked")


@pytest.mark.parametrize("flag,value,source", BAD_TOLS)
def test_bench_rejects_bad_tol_before_sampling(tmp_path, monkeypatch, capsys,
                                               flag, value, source):
    from gridfilt import cli

    monkeypatch.setattr(cli, "monte_carlo", _refuse)
    doc = bench_doc()
    doc.pop("tol")
    if value is not None:
        doc["tol"] = value
    argv = ["bench", "--config", write_config(tmp_path / "bench.yaml", doc),
            "--out", str(tmp_path)]
    assert main(argv + ([f"--tol={flag}"] if flag else [])) == 2
    err = capsys.readouterr().err
    assert f"{source}: tol must be positive" in err and "trial" not in err
    assert not (tmp_path / "stats.csv").exists()


@pytest.mark.parametrize("flag,value,source", BAD_TOLS)
def test_denoise_rejects_bad_tol_before_solving(tmp_path, monkeypatch, capsys,
                                                flag, value, source):
    from gridfilt import cli

    obs = make_observations(tmp_path, constant_signal(), {"lo": [-16], "hi": [16]})
    monkeypatch.setattr(cli, "denoise_point", _refuse)
    doc = {"observations": str(obs), "setup": {"rho": 1.0, "T": 2},
           "anchors": [[0]], "out": {"estimates": "est.csv"}}
    if value is not None:
        doc["tol"] = value
    argv = ["denoise", "--config", write_config(tmp_path / "den.yaml", doc),
            "--out", str(tmp_path)]
    assert main(argv + ([f"--tol={flag}"] if flag else [])) == 2
    assert f"{source}: tol must be positive" in capsys.readouterr().err
    assert not (tmp_path / "est.csv").exists()


# (--seed value, config seed value, the source the message must name)
BAD_SEEDS = [("-1", None, "--seed"), (str(2 ** 128), None, "--seed"),
             (None, -1, "config"), (None, 2 ** 128, "config")]


@pytest.mark.parametrize("flag,value,source", BAD_SEEDS)
def test_bench_rejects_bad_seed_before_sampling(tmp_path, monkeypatch, capsys,
                                                flag, value, source):
    from gridfilt import cli

    monkeypatch.setattr(cli, "monte_carlo", _refuse)
    monkeypatch.setattr(cli, "check_gaussian_max", _refuse)
    doc = bench_doc()
    if value is not None:
        doc["master_seed"] = value
    argv = ["bench", "--config", write_config(tmp_path / "bench.yaml", doc),
            "--out", str(tmp_path)]
    assert main(argv + ([f"--seed={flag}"] if flag else [])) == 2
    source = "config.master_seed" if source == "config" else source
    assert f"{source}: seed must be in [0, 2**128)" in capsys.readouterr().err
    assert not (tmp_path / "stats.csv").exists()


@pytest.mark.parametrize("flag,value,source", BAD_SEEDS)
def test_generate_rejects_bad_noise_seed_before_writing(tmp_path, capsys,
                                                       flag, value, source):
    doc = {"signal": constant_signal(), "box": {"lo": [-4], "hi": [4]},
           "noise": {"sigma": 0.1, "seed": 1 if value is None else value},
           "out": {"signal": "s.zdf", "observations": "y.zdf"}}
    argv = ["generate", "--config", write_config(tmp_path / "gen.yaml", doc),
            "--out", str(tmp_path)]
    assert main(argv + ([f"--seed={flag}"] if flag else [])) == 2
    source = "config.noise.seed" if source == "config" else source
    assert f"{source}: seed must be in [0, 2**128)" in capsys.readouterr().err
    assert not (tmp_path / "s.zdf").exists() and not (tmp_path / "y.zdf").exists()


def test_bench_seed_flag_overrides(tmp_path):
    cfg = write_config(tmp_path / "bench.yaml", bench_doc())
    assert main(["bench", "--config", cfg, "--out", str(tmp_path / "r1"),
                 "--seed", "123", "--quiet"]) == 0
    header = (tmp_path / "r1" / "stats.csv").read_text().splitlines()[0]
    assert header == "# master_seed=123"


# ---------------------------------------------------------------- certify


def test_certify_poly_report(tmp_path):
    cfg = write_config(tmp_path / "cert.yaml", {
        "certificate": {"kind": "poly", "degree": 1},
        "T": [1],
        "signal": {"kind": "exp_poly",
                   "terms": [{"re_c": 1.0, "im_c": 0.0, "alpha": [1],
                              "re_omega": [0.0], "im_omega": [0.0]}]},
        "box": {"lo": [-10], "hi": [10]},
        "anchor": [0],
        "eval_radius": 3,
        "out": {"filter": "q.zdf", "report": "report.json"},
    })
    assert main(["certify", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    entry = report["entries"][0]
    assert entry["l2"] == pytest.approx(3 ** -0.5)
    assert entry["l2_bound"] == pytest.approx(16 / math.sqrt(3))
    assert entry["residual"] < 1e-12
    q = read_zdf(tmp_path / "q.zdf")
    assert np.allclose(q.data, 1 / 3)


def test_certify_modulation_preserves_l2(tmp_path):
    base = {"kind": "exp", "re_omega": 0.0, "im_omega": 0.0}
    out = {}
    for name, cert in (("plain", base),
                       ("mod", {"kind": "modulate", "base": base, "omega": [0.8]})):
        cfg = write_config(tmp_path / f"{name}.yaml", {
            "certificate": cert,
            "T": [3],
            "box": {"lo": [-10], "hi": [10]},
            "out": {"filter": f"{name}.zdf", "report": f"{name}.json"},
        })
        assert main(["certify", "--config", cfg, "--out", str(tmp_path),
                     "--quiet"]) == 0
        out[name] = json.loads((tmp_path / f"{name}.json").read_text())
    assert out["plain"]["entries"][0]["l2"] == \
        pytest.approx(out["mod"]["entries"][0]["l2"])


def test_certify_harmonic_saddle(tmp_path):
    cfg = write_config(tmp_path / "cert.yaml", {
        "harmonic": {"operator": "four_neighbor", "n": 2},
        "T": [1],
        "signal": {"kind": "harmonic", "operator": "four_neighbor",
                   "boundary": "saddle"},
        "box": {"lo": [-20, -20], "hi": [20, 20]},
        "anchor": [0, 0],
        "eval_radius": 4,
        "out": {"filter": "q.zdf", "report": "report.json"},
    })
    assert main(["certify", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["entries"][0]["residual"] <= 1e-10 * 400  # scale of x^2-y^2


def test_certify_empty_T_list_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "cert.yaml", {
        "certificate": {"kind": "poly", "degree": 1},
        "T": [],
        "box": {"lo": [-10], "hi": [10]},
        "out": {"filter": "q.zdf", "report": "report.json"},
    })
    assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "config.T: expected a nonempty list" in capsys.readouterr().err
    assert not (tmp_path / "q.zdf").exists()


def test_certify_detects_violation(tmp_path):
    # an exact constant certificate measured against an alternating signal
    # must fail its own residual bound and exit 6
    cfg = write_config(tmp_path / "cert.yaml", {
        "certificate": {"kind": "exp", "re_omega": 0.0, "im_omega": 0.0},
        "T": [2],
        "signal": alternating_signal(),
        "box": {"lo": [-10], "hi": [10]},
        "anchor": [0],
        "eval_radius": 2,
        "out": {"filter": "q.zdf", "report": "report.json"},
    })
    assert main(["certify", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 6


# ---------------------------------------------------------------- module entry


def test_module_entry_point(tmp_path):
    cfg = write_config(tmp_path / "gen.yaml", {
        "signal": constant_signal(),
        "box": {"lo": [-4], "hi": [4]},
        "out": {"signal": "sig.zdf"},
    })
    proc = subprocess.run(
        [sys.executable, "-m", "gridfilt.cli", "generate", "--config", cfg,
         "--out", str(tmp_path), "--quiet"],
        capture_output=True)
    assert proc.returncode == 0
    assert (tmp_path / "sig.zdf").exists()

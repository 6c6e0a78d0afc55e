"""Public API: every exported name resolves, and so does every name the
benchmark's tracer wraps."""

import importlib
import importlib.util
import os
import pkgutil

import numpy as np
import pytest

import gridfilt
from gridfilt import Box, Field, solver

MODULES = sorted(m.name for m in pkgutil.iter_modules(gridfilt.__path__))


def test_modules_found():
    assert {"cli", "estimators", "fields", "harness", "signals", "solver"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"gridfilt.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def _tracing_targets():
    """``TARGETS`` of the benchmark's tracer, loaded from its file."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


def test_traced_names_resolve():
    # the traced benchmark run rebinds these names; a rename would silently
    # drop a layer from its trace
    for layer, modname, attr, _ in _tracing_targets():
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, f"{layer}: {modname}.{attr} is gone"
    # the batched solver looks the projection up by its module-level name
    assert "project_l1_ball" in solver._pdhg.__code__.co_names


def test_benchmark_builder_name_and_instance_attributes():
    # perfbench/tracing.py times builds through the older name and files
    # solves by (mode, d, T_alg); perfbench/verify.py reads W, d, l1_bound
    assert solver.build_filtering_instance is solver.build_instance
    assert "build_filtering_instance" not in solver.__all__
    y = Field(Box.cube(1, 8), np.ones(17, dtype=complex))
    for kappa, mode in ((None, "filtering"), (1, "prediction")):
        inst = solver.build_instance(y, (0,), 2, 1.0, kappa)
        assert (inst.mode, inst.d, inst.T_alg, inst.W) == (mode, 1, 2, 4)
        assert inst.l1_bound == 2 ** 0.5 * 5 ** -0.5

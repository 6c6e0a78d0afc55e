"""Public API: every exported name resolves and has a reader in the program
or the benchmark, and every name the benchmark's tracer wraps resolves."""

import ast
import importlib
import importlib.util
import pkgutil
import types
from pathlib import Path

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


ROOT = Path(__file__).resolve().parent.parent


def _scope_locals(node) -> set:
    """Names a function or lambda binds itself: its parameters and every
    name stored in its body (nested scopes included, which can only hide
    a reader, never invent one)."""
    args = node.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    return names | {n.id for n in ast.walk(node)
                    if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load)}


class _Reads(ast.NodeVisitor):
    """Every gridfilt object a file's code reads, as pairs ``(id(object),
    id(top-level definition the read sits in))``, the second None at module
    level. A name resolves through the file's globals and imports, and a
    dotted name through the modules it passes, so ``np.linalg.norm`` is
    numpy's object whatever ``gridfilt`` calls ``norm``."""

    def __init__(self, names: dict, package: str):
        self.names, self.package = dict(names), package
        self.reads, self.shadow, self.top = set(), [], None

    def _import(self, modname: str, attr: str | None = None):
        if not modname.startswith("gridfilt"):
            return None
        module = importlib.import_module(modname)
        if attr is None:
            return module
        if not hasattr(module, attr):  # a submodule not imported yet
            importlib.import_module(f"{modname}.{attr}")
        return getattr(module, attr)

    def visit_Import(self, node):
        for alias in node.names:
            if alias.asname:
                self.names[alias.asname] = self._import(alias.name)
            else:
                top = alias.name.split(".")[0]
                self.names[top] = self._import(top)

    def visit_ImportFrom(self, node):
        modname = node.module or ""
        if node.level:
            modname = ".".join(filter(None, [self.package, modname]))
        for alias in node.names:
            self.names[alias.asname or alias.name] = self._import(modname, alias.name)

    def _resolve(self, node):
        if isinstance(node, ast.Name):
            if any(node.id in scope for scope in self.shadow):
                return None
            return self.names.get(node.id)
        if isinstance(node, ast.Attribute):
            owner = self._resolve(node.value)
            if isinstance(owner, types.ModuleType):
                return getattr(owner, node.attr, None)
        return None

    def _read(self, node):
        obj = self._resolve(node)
        if obj is not None:
            self.reads.add((id(obj), self.top))

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self._read(node)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self._read(node)
        self.generic_visit(node)

    def _scope(self, node, bound: set):
        outer = self.top
        if not self.shadow and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            self.top = id(self.names.get(node.name))
        self.shadow.append(bound)
        self.generic_visit(node)
        self.shadow.pop()
        self.top = outer

    def visit_FunctionDef(self, node):
        self._scope(node, _scope_locals(node))

    visit_AsyncFunctionDef = visit_Lambda = visit_FunctionDef

    def visit_ClassDef(self, node):
        self._scope(node, set())


def _program_reads() -> set:
    """:class:`_Reads` of every file of ``src/gridfilt`` and of ``perfbench``
    outside its tests."""
    reads = set()
    for name in MODULES:
        module = importlib.import_module(f"gridfilt.{name}")
        visitor = _Reads(vars(module), "gridfilt")
        visitor.visit(ast.parse(Path(module.__file__).read_text()))
        reads |= visitor.reads
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        visitor = _Reads({}, "perfbench")
        visitor.visit(ast.parse(path.read_text()))
        reads |= visitor.reads
    return reads


def test_every_exported_name_has_a_reader():
    # a public name that only tests call is surface with no user; it must be
    # read by the program outside its own definition, by the benchmark, or
    # be a name the benchmark's tracer wraps
    reads = _program_reads()
    traced = {id(getattr(importlib.import_module(modname), attr.split(".")[0]))
              for _, modname, attr, _ in _tracing_targets()}
    unread = []
    for name in MODULES:
        module = importlib.import_module(f"gridfilt.{name}")
        for attr in getattr(module, "__all__", ()):
            obj = id(getattr(module, attr))
            if obj not in traced and not any(
                    o == obj and top != obj for o, top in reads):
                unread.append(f"{name}.{attr}")
    assert unread == []


def _tracing_targets():
    """``TARGETS`` of the benchmark's tracer, loaded from its file."""
    path = ROOT / "perfbench" / "tracing.py"
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

"""Architecture guard: the GPU device model stays out of the CPU engine.

``repro.gpusim`` models the paper's TITAN X for Table II and the batching
ablation.  The query path — the engine, the parallel and distributed
backends and the service — sizes its batches from host memory and must not
depend on it; the only consumer on that path is the ``simulated`` backend,
which imports the instrumented kernels inside its ``run_selfjoin``.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib.util
import inspect
from pathlib import Path

import pytest

import repro
from repro.core.selfjoin import SelfJoinConfig
from repro.engine import QueryPlanner, list_backends
from repro.engine.backends import ExecutionBackend, _resolve_provider

PACKAGE_ROOT = Path(repro.__file__).parent
QUERY_PATH_PACKAGES = ("engine", "parallel", "distributed", "service")

#: (module path relative to the package root, enclosing function) of the
#: one place on the query path allowed to import the device model.
ALLOWED_GPUSIM_IMPORTS = {("engine/backends.py", "SimulatedBackend.run_selfjoin")}


def _imports_gpusim(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name == "repro.gpusim"
                   or alias.name.startswith("repro.gpusim.")
                   for alias in node.names)
    if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
        if node.module == "repro":
            return any(alias.name == "gpusim" for alias in node.names)
        return node.module == "repro.gpusim" \
            or node.module.startswith("repro.gpusim.")
    return False


def _gpusim_imports(tree: ast.Module):
    """Yield ``(enclosing qualname, line)`` of every ``repro.gpusim`` import.

    The qualname is ``""`` for a module-level import (including imports
    under ``if`` / ``try`` at module level).
    """
    def visit(node: ast.AST, scope: tuple):
        for child in ast.iter_child_nodes(node):
            if _imports_gpusim(child):
                yield ".".join(scope), child.lineno
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                yield from visit(child, scope + (child.name,))
            else:
                yield from visit(child, scope)

    yield from visit(tree, ())


def _query_path_modules():
    for package in QUERY_PATH_PACKAGES:
        yield from sorted((PACKAGE_ROOT / package).rglob("*.py"))


def test_query_path_modules_found():
    modules = list(_query_path_modules())
    assert len(modules) >= len(QUERY_PATH_PACKAGES)


@pytest.mark.parametrize(
    "path", list(_query_path_modules()),
    ids=lambda p: p.relative_to(PACKAGE_ROOT).as_posix())
def test_no_device_model_import_on_query_path(path):
    relative = path.relative_to(PACKAGE_ROOT).as_posix()
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    offending = [(scope or "<module>", line)
                 for scope, line in _gpusim_imports(tree)
                 if (relative, scope) not in ALLOWED_GPUSIM_IMPORTS]
    assert offending == [], f"{relative} imports repro.gpusim at {offending}"


def test_guard_detects_module_level_and_nested_imports():
    tree = ast.parse("import repro.gpusim.device\n"
                     "from repro import gpusim\n"
                     "def f():\n    from repro.gpusim.streams import x\n"
                     "from repro.gpusimulator import y\n")
    assert list(_gpusim_imports(tree)) == [("", 1), ("", 2), ("f", 4)]


@pytest.mark.parametrize("name", list_backends())
def test_run_selfjoin_takes_no_device_parameters(name):
    backend_cls = _resolve_provider(name).factory
    params = inspect.signature(backend_cls.run_selfjoin).parameters
    assert not {"device", "threads_per_block"} & set(params), name


def test_abstract_run_selfjoin_takes_no_device_parameters():
    params = inspect.signature(ExecutionBackend.run_selfjoin).parameters
    assert not {"device", "threads_per_block"} & set(params)


def test_query_planner_parameters():
    params = list(inspect.signature(QueryPlanner.__init__).parameters)[1:]
    assert params == ["backend", "max_candidate_pairs", "validate_index",
                      "max_dims", "batch_planner"]


def test_selfjoin_config_fields():
    assert [f.name for f in dataclasses.fields(SelfJoinConfig)] == [
        "unicomp", "kernel", "batching", "min_batches", "include_self",
        "sort_result", "max_candidate_pairs", "validate_index", "max_dims"]


def test_no_cupy_backend():
    assert "cupy" not in list_backends()
    assert importlib.util.find_spec("repro.parallel.cupy_backend") is None

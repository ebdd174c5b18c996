"""Architecture guards, checked on the source tree with ``ast``.

* The GPU device model stays out of the CPU engine.  ``repro.gpusim``
  models the paper's TITAN X for Table II and the batching ablation.  The
  query path — the engine, the parallel and distributed backends and the
  service — sizes its batches from host memory and must not depend on it;
  the only consumer on that path is the ``simulated`` backend, which
  imports the instrumented kernels inside its ``run_selfjoin``.  A fresh
  interpreter also checks what the query path imports from elsewhere
  (``execute_batched`` imports the device model when called).
* One shard executor.  Only ``repro/parallel/executor.py`` builds the
  work-stealing scheduler and the ordered merger, and no parallel or
  distributed module dispatches through ``imap_unordered``: every parallel
  backend runs the executor's one loop.
* One session lifecycle.  ``ShardExecutionBackend`` alone implements
  ``attach``/``detach`` for the shard backends; no subclass of it in the
  parallel or distributed packages defines either, so a pool and a TCP
  attachment open, close and are found the same way.
* One set of shard-backend counters.  ``ShardExecutionBackend`` alone
  defines ``_record_schedule``, and no ``Transport`` subclass adds to a
  ``stats`` object: the executor loop counts dispatches and lost workers
  into its schedule report, and the base counts datasets and joins.
* One counter type.  The owner-held stats types (``SessionStats``,
  ``ShardStats``, ``ServiceStats``, ``WorkerStats``, ``StoreReadStats``)
  derive from :class:`repro.utils.counters.Counters`.  No class of the
  engine, parallel, service, distributed or data packages locks or
  snapshots counters its own way, no code there bumps an owner's
  ``stats`` field but through ``add``, and no module but
  ``utils/counters.py`` spells a counter dataclass out field by field for
  the wire.
* One kernel seam.  :mod:`repro.core.kernels` exposes the self-join and
  probe operators and their cost functions; no other module of the
  package imports or reads an ``_``-prefixed name of it.
* One dims chooser, off the paper's paths.  Only
  ``QueryPlanner.index_dataset`` calls ``choose_index_dims``, and the
  experiments, ``GPUSelfJoin`` and the ``simulated`` backend never reach
  it, so the paper's figures and Table II keep the all-dims grid.
* One frame server.  Only :mod:`repro.service.framing` binds a listener
  (``asyncio.start_server``): the query service and the shard worker run
  its one connection loop and shutdown order.
* Lazy packages.  The package ``__init__`` modules resolve their public
  names on first use (:mod:`repro.utils.lazy`), so ``import repro`` loads
  only :mod:`repro.utils`, and a ``repro-worker`` process loads the shard
  bodies (:mod:`repro.parallel.compute`) and none of the driver's backend,
  executor loop or scheduler, the service, planner, session, apps, public
  self-join API, device model or process pool.
* One NumPy kernel route.  On the NumPy tier every production backend
  runs the vectorized walker and emitter, however dense the cells.  The
  per-cell oracle, :mod:`repro.baselines.cellwise`, is for tests only: no
  module of the engine, parallel, distributed, service or core packages
  imports it.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.baselines.cellwise import probe_cellwise, selfjoin_cellwise
from repro.core.gridindex import GridIndex
from repro.core.result import PairFragments
from repro.core.selfjoin import GPUSelfJoin, SelfJoinConfig
from repro.data.synthetic import uniform_dataset
from repro.engine import EngineSession, Query, QueryPlanner, list_backends, run_query
from repro.engine import planner as planner_module
from repro.engine.backends import ExecutionBackend, _resolve_provider

PACKAGE_ROOT = Path(repro.__file__).parent
QUERY_PATH_PACKAGES = ("engine", "parallel", "distributed", "service")

#: (module path relative to the package root, enclosing function) of the
#: one place on the query path allowed to import the device model.
ALLOWED_GPUSIM_IMPORTS = {("engine/backends.py", "SimulatedBackend.run_selfjoin")}


def _imports(node: ast.AST, module: str) -> bool:
    """Whether ``node`` imports ``module`` or one of its submodules."""
    def within(name: str) -> bool:
        return name == module or name.startswith(module + ".")

    if isinstance(node, ast.Import):
        return any(within(alias.name) for alias in node.names)
    if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
        return within(node.module) or any(
            within(f"{node.module}.{alias.name}") for alias in node.names)
    return False


def _scoped(tree: ast.Module, match):
    """Yield ``(enclosing qualname, line)`` of every node ``match`` accepts.

    The qualname is ``""`` at module level (including under ``if`` /
    ``try`` at module level).
    """
    def visit(node: ast.AST, scope: tuple):
        for child in ast.iter_child_nodes(node):
            if match(child):
                yield ".".join(scope), child.lineno
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                yield from visit(child, scope + (child.name,))
            else:
                yield from visit(child, scope)

    yield from visit(tree, ())


def _module_imports(tree: ast.Module, module: str):
    """``(enclosing qualname, line)`` of every import of ``module``."""
    return _scoped(tree, lambda node: _imports(node, module))


def _gpusim_imports(tree: ast.Module):
    """``(enclosing qualname, line)`` of every ``repro.gpusim`` import."""
    return _module_imports(tree, "repro.gpusim")


def _query_path_modules(packages=QUERY_PATH_PACKAGES):
    for package in packages:
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


def _loaded_by(statement: str) -> list:
    """The modules a fresh interpreter has loaded after ``statement``."""
    code = f"import sys\n{statement}\nprint('\\n'.join(sorted(sys.modules)))\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE_ROOT.parent)] + [p for p in os.environ.get(
            "PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.split()


def _within(name: str, packages) -> bool:
    return any(name == p or name.startswith(p + ".") for p in packages)


def test_query_path_does_not_load_the_device_model():
    """A fresh interpreter that imports the engine, a distributed worker
    and the service server has not loaded ``repro.gpusim``: the AST guard
    above sees only the query-path packages, this sees what they import."""
    loaded = _loaded_by("import repro.engine, repro.distributed.worker, "
                        "repro.service.server")
    assert [m for m in loaded if _within(m, ["repro.gpusim"])] == []


def test_guard_detects_module_level_and_nested_imports():
    tree = ast.parse("import repro.gpusim.device\n"
                     "from repro import gpusim\n"
                     "def f():\n    from repro.gpusim.streams import x\n"
                     "from repro.gpusimulator import y\n")
    assert list(_gpusim_imports(tree)) == [("", 1), ("", 2), ("f", 4)]


#: The per-cell oracle, and the packages that may not import it.
ORACLE = "repro.baselines.cellwise"
ORACLE_FREE_PACKAGES = QUERY_PATH_PACKAGES + ("core",)


@pytest.mark.parametrize(
    "path", list(_query_path_modules(ORACLE_FREE_PACKAGES)),
    ids=lambda p: p.relative_to(PACKAGE_ROOT).as_posix())
def test_no_oracle_import_on_query_path_or_core(path):
    relative = path.relative_to(PACKAGE_ROOT).as_posix()
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    offending = [(scope or "<module>", line)
                 for scope, line in _module_imports(tree, ORACLE)]
    assert offending == [], f"{relative} imports {ORACLE} at {offending}"


def test_oracle_guard_detects_every_import_form():
    tree = ast.parse("import repro.baselines.cellwise\n"
                     "from repro.baselines import cellwise\n"
                     "def f():\n"
                     "    from repro.baselines.cellwise import probe_cellwise\n"
                     "from repro.baselines import bruteforce\n")
    assert list(_module_imports(tree, ORACLE)) == [("", 1), ("", 2), ("f", 4)]


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


# --------------------------------------------------------------------------
# one shard executor
# --------------------------------------------------------------------------
EXECUTOR_MODULE = "parallel/executor.py"
EXECUTOR_ONLY = {"WorkStealingScheduler", "OrderedShardMerger"}


def _call_name(node: ast.AST):
    """The bare or dotted name a call node calls (``None`` otherwise)."""
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
    return None


def _called_names(tree: ast.AST):
    """Yield ``(name, line)`` of every call to a bare or dotted name."""
    for node in ast.walk(tree):
        name = _call_name(node)
        if name is not None:
            yield name, node.lineno


def _package_modules():
    yield from sorted(PACKAGE_ROOT.rglob("*.py"))


@pytest.mark.parametrize(
    "path", list(_package_modules()),
    ids=lambda p: p.relative_to(PACKAGE_ROOT).as_posix())
def test_only_the_executor_builds_scheduler_and_merger(path):
    relative = path.relative_to(PACKAGE_ROOT).as_posix()
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    built = [(name, line) for name, line in _called_names(tree)
             if name in EXECUTOR_ONLY]
    if relative == EXECUTOR_MODULE:
        assert {name for name, _ in built} == EXECUTOR_ONLY
    else:
        assert built == [], f"{relative} builds {built}"


@pytest.mark.parametrize(
    "path", [p for package in ("parallel", "distributed")
             for p in sorted((PACKAGE_ROOT / package).rglob("*.py"))],
    ids=lambda p: p.relative_to(PACKAGE_ROOT).as_posix())
def test_no_imap_unordered_dispatch(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    calls = [line for name, line in _called_names(tree)
             if name == "imap_unordered"]
    assert calls == [], f"imap_unordered called at lines {calls}"


def test_executor_guard_sees_bare_and_dotted_calls():
    tree = ast.parse("WorkStealingScheduler(t, w)\n"
                     "scheduler.OrderedShardMerger(s, r)\n"
                     "pool.imap_unordered(f, xs)\n")
    assert list(_called_names(tree)) == [
        ("WorkStealingScheduler", 1), ("OrderedShardMerger", 2),
        ("imap_unordered", 3)]


# --------------------------------------------------------------------------
# one session lifecycle for the shard backends
# --------------------------------------------------------------------------
SHARD_BASE = "ShardExecutionBackend"
LIFECYCLE_HOOKS = {"attach", "detach"}
TRANSPORT_BASE = "Transport"


def _base_name(node: ast.AST):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _subclasses(trees, base: str) -> dict:
    """Every class deriving from ``base``, directly or through another
    such class, by name."""
    classes = [node for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)]
    found: dict = {}
    grew = True
    while grew:
        grew = False
        for node in classes:
            if node.name not in found and any(
                    _base_name(parent) in found.keys() | {base}
                    for parent in node.bases):
                found[node.name] = node
                grew = True
    return found


def _shard_backend_hooks(trees, hooks=LIFECYCLE_HOOKS) -> dict:
    """Every ``ShardExecutionBackend`` subclass mapped to the ``hooks`` it
    defines (as a method or an assigned attribute)."""
    found = {}
    for name, node in _subclasses(trees, SHARD_BASE).items():
        defined = set()
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add(item.name)
            elif isinstance(item, ast.Assign):
                defined |= {target.id for target in item.targets
                            if isinstance(target, ast.Name)}
        found[name] = sorted(defined & hooks)
    return found


def _stats_writes(trees) -> dict:
    """Every ``Transport`` subclass mapped to the lines where it adds to
    something reached through a ``stats`` name or attribute."""
    def on_stats(target: ast.AST) -> bool:
        return any(isinstance(node, ast.Attribute) and node.attr == "stats"
                   or isinstance(node, ast.Name) and node.id == "stats"
                   for node in ast.walk(target))

    return {name: [node.lineno for node in ast.walk(cls)
                   if isinstance(node, ast.AugAssign)
                   and on_stats(node.target)]
            for name, cls in _subclasses(trees, TRANSPORT_BASE).items()}


def _shard_package_trees():
    return [ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for package in ("parallel", "distributed")
            for path in sorted((PACKAGE_ROOT / package).rglob("*.py"))]


def test_only_the_shard_base_implements_attach_and_detach():
    hooks = _shard_backend_hooks(_shard_package_trees())
    assert {"ShardedBackend", "MultiprocessBackend",
            "DistributedBackend"} <= hooks.keys()
    assert {name: defined for name, defined in hooks.items() if defined} == {}


def test_only_the_shard_base_records_the_schedule():
    hooks = _shard_backend_hooks(_shard_package_trees(), {"_record_schedule"})
    assert {"ShardedBackend", "MultiprocessBackend",
            "DistributedBackend"} <= hooks.keys()
    assert {name: defined for name, defined in hooks.items() if defined} == {}


def test_no_transport_counts_into_stats():
    writes = _stats_writes(_shard_package_trees())
    assert {"InlineTransport", "_PoolTransport", "_TcpTransport"} \
        <= writes.keys()
    assert {name: lines for name, lines in writes.items() if lines} == {}


def test_lifecycle_guard_sees_direct_and_indirect_subclasses():
    tree = ast.parse("class A(executor.ShardExecutionBackend):\n"
                     "    def attach(self, session): pass\n"
                     "class B(A):\n"
                     "    detach = A.attach\n"
                     "class C(ExecutionBackend):\n"
                     "    def attach(self, session): pass\n")
    assert _shard_backend_hooks([tree]) == {"A": ["attach"], "B": ["detach"]}


def test_counter_guard_sees_direct_and_indirect_transports():
    tree = ast.parse("class T(executor.Transport):\n"
                     "    def submit(self, w, t, op):\n"
                     "        self.backend.stats.shards += 1\n"
                     "class U(T):\n"
                     "    def close(self):\n"
                     "        with lock:\n"
                     "            stats['lost'] += 1\n"
                     "        self.closed += 1\n"
                     "class V(ShardExecutionBackend):\n"
                     "    def _open(self):\n"
                     "        self.stats.opened += 1\n"
                     "    def _record_schedule(self, report): pass\n")
    assert _stats_writes([tree]) == {"T": [3], "U": [7]}
    assert _shard_backend_hooks([tree], {"_record_schedule"}) == {
        "V": ["_record_schedule"]}


# --------------------------------------------------------------------------
# one counter type
# --------------------------------------------------------------------------
COUNTER_PACKAGES = ("engine", "parallel", "service", "distributed", "data")
COUNTERS_MODULE = "utils/counters.py"


def _owner_stats_types():
    from repro.data.store import StoreReadStats
    from repro.distributed.worker import WorkerStats
    from repro.engine.session import SessionStats
    from repro.parallel.executor import ShardStats
    from repro.service.server import ServiceStats

    return [SessionStats, ShardStats, ServiceStats, WorkerStats,
            StoreReadStats]


def _counter_fields() -> dict:
    """Every counter dataclass, travelling ones included, by name, mapped
    to its public field names."""
    from repro.core.kernels import KernelStats
    from repro.parallel.scheduler import ScheduleReport

    return {cls.__name__: {f.name for f in dataclasses.fields(cls)
                           if not f.name.startswith("_")}
            for cls in _owner_stats_types() + [KernelStats, ScheduleReport]}


def _own_counter_handling(tree: ast.Module):
    """``(enclosing qualname, line)`` of every place that handles counters
    its own way: a ``snapshot`` method that takes a lock or delegates to
    neither ``super().snapshot()`` nor :func:`repro.utils.counters.snapshot`,
    a class-level lock field, and a write to a field of a ``stats`` or
    ``read_stats`` attribute (``x.stats.f += 1``, ``setattr(x.stats, ...)``)
    rather than a call of its ``add``."""
    def on_owner_stats(node: ast.AST) -> bool:
        return isinstance(node, ast.Attribute) \
            and node.attr in ("stats", "read_stats") \
            and isinstance(node.value, (ast.Name, ast.Attribute))

    def match(node: ast.AST) -> bool:
        if isinstance(node, ast.FunctionDef) and node.name == "snapshot":
            calls = {_dotted(call.func) for call in ast.walk(node)
                     if isinstance(call, ast.Call)}
            locks = any(isinstance(inner, ast.With)
                        for inner in ast.walk(node))
            delegates = "snapshot" in calls or any(
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "snapshot"
                and _call_name(call.func.value) == "super"
                for call in ast.walk(node))
            return locks or not delegates
        if isinstance(node, ast.ClassDef):
            return any(isinstance(item, ast.AnnAssign)
                       and "Lock" in ast.unparse(item)
                       for item in node.body)
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            return any(isinstance(target, ast.Attribute)
                       and on_owner_stats(target.value)
                       for target in targets)
        return isinstance(node, ast.Call) and _call_name(node) == "setattr" \
            and bool(node.args) and on_owner_stats(node.args[0])

    return _scoped(tree, match)


def _counter_wire_code(tree: ast.Module, counter_fields: dict):
    """``(enclosing qualname, line)`` of every dict display keyed by two or
    more fields of one counter dataclass (a hand-written encoder), and of
    every construction of one from values read out of a dict (a
    hand-written decoder)."""
    def reads_a_dict(node: ast.AST) -> bool:
        return any(isinstance(inner, ast.Subscript)
                   or isinstance(inner, ast.Call)
                   and isinstance(inner.func, ast.Attribute)
                   and inner.func.attr == "get"
                   for inner in ast.walk(node))

    def match(node: ast.AST) -> bool:
        if isinstance(node, ast.Dict):
            keys = {key.value for key in node.keys
                    if isinstance(key, ast.Constant)}
            return any(len(keys & names) >= 2
                       for names in counter_fields.values())
        return isinstance(node, ast.Call) \
            and _call_name(node) in counter_fields \
            and any(reads_a_dict(keyword.value) for keyword in node.keywords)

    return _scoped(tree, match)


def test_the_owner_stats_types_are_counters():
    from repro.utils.counters import Counters

    for cls in _owner_stats_types():
        assert issubclass(cls, Counters), cls
        assert [f.name for f in dataclasses.fields(cls)
                if f.name.startswith("_")] == ["_lock"], cls


@pytest.mark.parametrize(
    "path", list(_query_path_modules(COUNTER_PACKAGES)),
    ids=lambda p: p.relative_to(PACKAGE_ROOT).as_posix())
def test_no_own_counter_locks_snapshots_or_bumps(path):
    relative = path.relative_to(PACKAGE_ROOT).as_posix()
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = list(_own_counter_handling(tree))
    assert found == [], f"{relative} handles counters itself at {found}"


def test_only_the_counters_module_puts_counters_on_the_wire():
    counter_fields = _counter_fields()
    offending = {}
    for path in _package_modules():
        relative = path.relative_to(PACKAGE_ROOT).as_posix()
        if relative == COUNTERS_MODULE:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found = list(_counter_wire_code(tree, counter_fields))
        if found:
            offending[relative] = found
    assert offending == {}


def test_counter_guards_see_every_form():
    tree = ast.parse(
        "class Stats:\n"
        "    _lock: threading.Lock = field(default_factory=threading.Lock)\n"
        "    def snapshot(self):\n"
        "        with self._lock:\n"
        "            return snapshot(self)\n"
        "class Derived(Counters):\n"
        "    def snapshot(self):\n"
        "        return {**super().snapshot(), 'ratio': 1.0}\n"
        "class Plain:\n"
        "    def snapshot(self):\n"
        "        return {'hits': self.hits}\n"
        "def bump(self, stats):\n"
        "    self.stats.hits += 1\n"
        "    self.backend.stats.last = report\n"
        "    setattr(self.stats, name, 1)\n"
        "    stats.hits += 1\n"
        "    self.stats.add(hits=1)\n")
    assert list(_own_counter_handling(tree)) == [
        ("", 1), ("Stats", 3), ("Plain", 10),
        ("bump", 13), ("bump", 14), ("bump", 15)]
    tree = ast.parse(
        "def to_wire(stats):\n"
        "    return {'cells_checked': int(stats.cells_checked),\n"
        "            'distance_calcs': int(stats.distance_calcs)}\n"
        "def from_wire(data):\n"
        "    return KernelStats(distance_calcs=int(data.get('d', 0)))\n"
        "def fine(out):\n"
        "    return KernelStats(result_pairs=out.result.num_pairs), \\\n"
        "        {'status': 'ok', 'stats': snapshot(out)}\n")
    assert list(_counter_wire_code(tree, _counter_fields())) == [
        ("to_wire", 2), ("from_wire", 5)]


# --------------------------------------------------------------------------
# one kernel seam
# --------------------------------------------------------------------------
KERNELS = "repro.core.kernels"
KERNELS_MODULE = "core/kernels.py"


def _dotted(node: ast.AST):
    """The dotted name of a ``Name``/``Attribute`` chain (``None`` otherwise)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        parent = _dotted(node.value)
        return None if parent is None else f"{parent}.{node.attr}"
    return None


def _private_kernel_uses(tree: ast.Module):
    """``(enclosing qualname, line)`` of every ``_``-prefixed name taken
    from ``repro.core.kernels``: imported from it, or read as an attribute
    of a name the module is bound to."""
    bound = {KERNELS}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname for alias in node.names
                      if alias.name == KERNELS and alias.asname}
        elif isinstance(node, ast.ImportFrom) and node.module == "repro.core":
            bound |= {alias.asname or alias.name for alias in node.names
                      if alias.name == "kernels"}

    def private(name: str) -> bool:
        return name.startswith("_") and not name.endswith("__")

    def match(node: ast.AST) -> bool:
        if isinstance(node, ast.ImportFrom):
            return node.module == KERNELS and any(
                private(alias.name) for alias in node.names)
        return isinstance(node, ast.Attribute) and private(node.attr) \
            and _dotted(node.value) in bound

    return _scoped(tree, match)


def test_only_the_kernels_use_their_private_names():
    """The two operators and their cost functions are the whole seam: no
    other module reaches into the walker, the emitter or the tier body."""
    offending = {}
    for path in _package_modules():
        relative = path.relative_to(PACKAGE_ROOT).as_posix()
        if relative == KERNELS_MODULE:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found = list(_private_kernel_uses(tree))
        if found:
            offending[relative] = found
    assert offending == {}


def test_kernel_seam_guard_sees_every_form():
    tree = ast.parse("from repro.core.kernels import run_probe, _emit_pairs\n"
                     "from repro.core import kernels\n"
                     "import repro.core.kernels as K\n"
                     "import repro.core.kernels\n"
                     "def f():\n"
                     "    kernels._walk_cell_pairs(index, coords)\n"
                     "    return K._JoinSide, repro.core.kernels._run_operator\n"
                     "kernels.run_selfjoin, kernels.__name__, other._emit_pairs\n"
                     "from repro.core.kernels import KernelStats\n")
    assert list(_private_kernel_uses(tree)) == [
        ("", 1), ("f", 6), ("f", 7), ("f", 7)]


# --------------------------------------------------------------------------
# one dims chooser, off the paper's paths
# --------------------------------------------------------------------------
CHOOSER = "choose_index_dims"
ALLOWED_CHOOSER_CALLS = {("engine/planner.py", "QueryPlanner.index_dataset")}


def test_only_index_dataset_calls_the_chooser():
    calls = set()
    for path in _package_modules():
        relative = path.relative_to(PACKAGE_ROOT).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        calls |= {(relative, scope) for scope, _ in
                  _scoped(tree, lambda node: _call_name(node) == CHOOSER)}
    assert calls == ALLOWED_CHOOSER_CALLS


@pytest.fixture
def chooser_refused(monkeypatch):
    """Make any call to the dims chooser fail the test."""
    def refuse(index):
        raise AssertionError(f"{CHOOSER} ran on a {index.num_dims}-D index")

    monkeypatch.setattr(planner_module, CHOOSER, refuse)


def _six_dim_points(n=150):
    # 6-D, where the chooser would drop a dimension.
    return uniform_dataset(n, 6, seed=1, low=0.0, high=1.0)


def test_refusal_is_effective(chooser_refused):
    with pytest.raises(AssertionError, match=CHOOSER):
        run_query(Query.self_join(_six_dim_points(), 0.25))


@pytest.mark.parametrize("kernel", ["vectorized", "simulated"])
def test_gpuselfjoin_never_calls_the_chooser(chooser_refused, kernel):
    points = _six_dim_points()
    result, report = GPUSelfJoin(SelfJoinConfig(kernel=kernel)) \
        .join_with_report(points, 0.25)
    assert report.index_stats.num_grid_dims == 6
    assert result.num_pairs > 0


def test_simulated_backend_never_calls_the_chooser(chooser_refused):
    points = _six_dim_points()
    run_query(Query.self_join(points, 0.25), backend="simulated")
    with EngineSession(points, backend="simulated") as session:
        session.self_join(0.25)
        session.range_query(points[:5], 0.25)
        assert session.index_for(0.25).num_grid_dims == 6


def test_experiments_never_call_the_chooser(chooser_refused):
    from repro.experiments import engine_compare, fig5, scaling, table2
    from repro.experiments.runner import run_algorithm_sweep

    points = _six_dim_points()
    for algorithm in ("Engine[vectorized]", "Engine[sharded]",
                      "Engine[multiprocess]"):
        run_algorithm_sweep(algorithm, points, [0.25])
    engine_compare.run_engine_compare(
        n_points=150, backends=("vectorized", "sharded", "simulated"))
    scaling.run_scaling(n_points=300, workers=(1,))
    table2.run_table2(n_points=150, timing_repeats=1)
    fig5.run_fig5(n_points=150, datasets=("Syn6D2M",),
                  algorithms=("GPU: unicomp", "Engine[vectorized]"))


# --------------------------------------------------------------------------
# one NumPy kernel route
# --------------------------------------------------------------------------
def _dense_case(kind: str):
    """A GLOBAL or UNICOMP self-join, or a probe, over 2-D cells averaging
    at least 16 points, and the oracle's result for it."""
    rng = np.random.default_rng(19)
    points = rng.uniform(0.0, 2.0, (400, 2))
    index = GridIndex.build(points, 1.0)
    assert index.cell_counts.mean() >= 16
    if kind == "probe":
        queries = rng.uniform(0.0, 2.0, (100, 2))
        sink = PairFragments(queries.shape[0])
        probe_cellwise(queries, index, sink)
        return Query.bipartite_join(queries, points, 1.0), sink
    unicomp = kind == "unicomp"
    sink = PairFragments(index.num_points)
    selfjoin_cellwise(index, sink, unicomp=unicomp)
    return Query.self_join(points, 1.0, unicomp=unicomp), sink


@pytest.mark.parametrize("kind", ["global", "unicomp", "probe"])
@pytest.mark.parametrize("backend", ["vectorized(kernel=numpy)",
                                     "sharded(4, kernel=numpy)",
                                     "multiprocess(2, kernel=numpy)"])
def test_numpy_tier_never_runs_a_cellwise_kernel(backend, kind):
    """Dense cells still take the one vectorized route on the NumPy tier
    (no compiled kernel is counted), and find the oracle's pairs; the
    import guard above keeps the oracle itself off that route."""
    query, expected = _dense_case(kind)
    result = run_query(query, backend=backend)
    assert result.stats.tier == "numpy"
    assert result.stats.kernel_counts == {}
    assert result.neighbor_table.same_contents_as(expected.to_neighbor_table())


# --------------------------------------------------------------------------
# one frame server
# --------------------------------------------------------------------------
FRAMING_MODULE = "service/framing.py"
LISTENER_CALLS = {"start_server", "create_server"}


def test_only_the_frame_server_binds_a_listener():
    """The query service and the shard worker share one listener, one
    connection loop and one shutdown order: no other module binds."""
    binds = {}
    for path in _package_modules():
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        calls = [(name, line) for name, line in _called_names(tree)
                 if name in LISTENER_CALLS]
        if calls:
            binds[path.relative_to(PACKAGE_ROOT).as_posix()] = calls
    assert list(binds) == [FRAMING_MODULE], binds


# --------------------------------------------------------------------------
# lazy packages
# --------------------------------------------------------------------------
#: What a ``repro-worker`` process runs none of, so must not import: the
#: driver's backend, executor loop, scheduler and shard planner, the
#: service's server side, the planner and session, the apps, the public
#: self-join API, the device model and the process pool.
WORKER_UNUSED = ("repro.distributed.backend", "repro.parallel.executor",
                 "repro.parallel.scheduler", "repro.parallel.shards",
                 "repro.service.server", "repro.service.client",
                 "repro.service.catalog", "repro.engine.planner",
                 "repro.engine.session", "repro.apps", "repro.core.selfjoin",
                 "repro.gpusim", "multiprocessing")

LAZY_PACKAGES = ("repro", "repro.core", "repro.data", "repro.engine",
                 "repro.parallel", "repro.service", "repro.distributed",
                 "repro.apps")


def test_worker_entry_point_loads_the_shard_path_only():
    loaded = _loaded_by("import repro.distributed.__main__")
    assert "repro.parallel.compute" in loaded
    assert [m for m in loaded if _within(m, WORKER_UNUSED)] == []


def test_import_repro_loads_only_the_utilities():
    loaded = _loaded_by("import repro")
    assert [m for m in loaded if m.startswith("repro.")
            and not _within(m, ["repro.utils"])] == []


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_lazy_package_names_resolve(name):
    package = importlib.import_module(name)
    assert set(package.__all__) <= set(dir(package))
    for export in package.__all__:
        assert getattr(package, export) is not None, export
    with pytest.raises(AttributeError):
        getattr(package, "no_such_name")


def test_exported_names_shadow_their_submodules():
    """``repro.core.selfjoin`` and ``repro.apps.dbscan`` name functions,
    as the eager imports left them, even when the submodule of the same
    name is imported first."""
    loaded = _loaded_by(
        "import repro.core.selfjoin, repro.apps.dbscan, repro.apps.crossmatch\n"
        "from repro.core import selfjoin\n"
        "from repro.apps import crossmatch, dbscan\n"
        "import repro\n"
        "assert all(callable(f) for f in ("
        "selfjoin, dbscan, crossmatch, repro.core.selfjoin, repro.selfjoin))")
    assert "repro.core.selfjoin" in loaded

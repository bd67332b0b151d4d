"""The layering of ``src/repro``: one import DAG, pinned.

Every package has a rank (DESIGN.md §3), and a module imports only
modules of its own rank or below: the kernel never imports the data
layer built on it.  The walk reads every module's AST and counts the
imports inside functions too, because a function-level import is how a
cycle hides.  Exactly the function-level imports in
:data:`LATE_IMPORTS` may exist, each with its reason, and without them
the module graph is acyclic.
"""

import ast
import os
import subprocess
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Rank of each top-level package or module under ``repro`` (``""`` is
#: the ``repro`` package itself).
RANKS = {
    "errors": 0,
    "obs": 1,
    "gov": 2,
    "xst": 3,
    "core": 4,
    "notation": 4,
    "cst": 5,
    "relational": 6,
    "server": 7,
    "workloads": 7,
    "cli": 8,
    "__main__": 8,
    "": 8,
}

#: ``(importer, function, imported module)`` -> why the import is late.
LATE_IMPORTS = {
    ("repro.relational.query", "Database._execute_observed",
     "repro.relational.profile"):
        "the REPRO_OBS=1 span walker lives beside explain_analyze, "
        "which runs the planner (optimizer, cost), and the planner "
        "imports query for its node table",
    ("repro.cli", "_command_serve", "repro.server"):
        "the only import that loads asyncio, which `import repro.cli` "
        "does not pay for",
}


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _rank(module: str) -> int:
    parts = module.split(".")
    return RANKS[parts[1] if len(parts) > 1 else ""]


def _is_type_checking(node: ast.AST) -> bool:
    return isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(
        node.test
    )


class _Imports(ast.NodeVisitor):
    """Each ``repro`` import statement of one module as
    ``(function or None, {imported modules})``."""

    def __init__(self, module: str, is_package: bool, modules):
        self.package = module if is_package else module.rpartition(".")[0]
        self.modules = modules
        self.scope = []
        self.found = []

    def _enter(self, node, is_function: bool) -> None:
        self.scope.append((node.name, is_function))
        self.generic_visit(node)
        self.scope.pop()

    def visit_ClassDef(self, node) -> None:
        self._enter(node, False)

    def visit_FunctionDef(self, node) -> None:
        self._enter(node, True)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_If(self, node) -> None:
        if not _is_type_checking(node):
            self.generic_visit(node)

    def _record(self, targets) -> None:
        targets = {name for name in targets if name.split(".")[0] == "repro"}
        if targets:
            # A class body runs at import time, like the module's.
            in_function = any(is_function for _, is_function in self.scope)
            where = (
                ".".join(name for name, _ in self.scope)
                if in_function else None
            )
            self.found.append((where, targets))

    def visit_Import(self, node) -> None:
        self._record(alias.name for alias in node.names)

    def visit_ImportFrom(self, node) -> None:
        base = node.module or ""
        if node.level:
            package = self.package.split(".")
            package = package[: len(package) - node.level + 1]
            base = ".".join(package + ([base] if base else []))
        # ``from pkg import sub`` imports the submodule.
        self._record(
            base + "." + alias.name
            if base + "." + alias.name in self.modules else base
            for alias in node.names
        )


@pytest.fixture(scope="module")
def imports():
    """``{importer: [(function or None, {imported modules}), ...]}``."""
    paths = {_module_name(path): path for path in SRC.rglob("*.py")}
    found = {}
    for module, path in paths.items():
        walker = _Imports(module, path.name == "__init__.py", paths)
        walker.visit(ast.parse(path.read_text(), str(path)))
        found[module] = walker.found
    return found


def test_no_import_goes_up_a_rank(imports):
    upward = sorted(
        (importer, target)
        for importer, statements in imports.items()
        for _, targets in statements
        for target in targets
        if _rank(target) > _rank(importer)
    )
    assert upward == []


def test_the_module_graph_is_acyclic_without_the_late_imports(imports):
    graph = {}
    for importer, statements in imports.items():
        graph[importer] = {
            target
            for where, targets in statements
            for target in targets
            if target != importer
            and (importer, where, target) not in LATE_IMPORTS
        }
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as error:
        pytest.fail("import cycle: %s" % " -> ".join(error.args[1]))


def test_the_function_level_imports_are_exactly_the_named_ones(imports):
    late = sorted(
        (importer, where, target)
        for importer, statements in imports.items()
        for where, targets in statements
        if where is not None
        for target in targets
    )
    assert late == sorted(LATE_IMPORTS)


def test_importing_the_cli_does_not_load_asyncio():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = "import sys, repro.cli; print('asyncio' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True,
        text=True, check=True,
    )
    assert out.stdout.strip() == "False"


#: Every module ``import repro.server`` loads, by package: the whole
#: ``repro.relational`` package comes with it (its ``__init__``
#: re-exports every submodule), so this is the set a trim starts from.
SERVER_MODULES = {
    "": ("", "errors", "notation"),
    "core": ("", "arrows", "composition", "iteration", "lattice",
             "process", "sequences", "sigma", "spaces"),
    "gov": ("", "admission", "breaker", "governor", "result"),
    "obs": ("", "digest", "instrument", "metrics", "recorder", "slowlog",
            "trace"),
    "relational": ("", "algebra", "columnar", "constraints", "cost",
                   "csvio", "disk", "distributed", "faults", "ivm",
                   "ivm.cache", "ivm.delta", "optimizer", "profile",
                   "query", "relation", "representations", "schema",
                   "sharding", "sql", "storage", "tx", "views", "wal"),
    "server": ("", "client", "protocol", "service", "session"),
    "xst": ("", "algebra", "builders", "closure", "domain", "image",
            "ordering", "products", "relative_product", "rescope",
            "restrict", "serialization", "tuples", "values", "xset"),
}


def test_importing_the_server_loads_exactly_these_modules():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = ("import sys, repro.server; print(' '.join(name for name in "
             "sys.modules if name.split('.')[0] == 'repro'))")
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True,
        text=True, check=True,
    )
    expected = {
        ".".join(part for part in ("repro", package, name) if part)
        for package, names in SERVER_MODULES.items()
        for name in names
    }
    assert set(out.stdout.split()) == expected


@pytest.mark.parametrize(
    "module", ["repro.relational.stats", "repro.obs.feedback"]
)
def test_a_retired_module_is_not_importable(module):
    # Estimates are read off the value: no statistics catalog and no
    # feedback overlay remain to import, not even as an alias.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = "import importlib.util as u; print(u.find_spec(%r))" % module
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True,
        text=True, check=True,
    )
    assert out.stdout.strip() == "None"

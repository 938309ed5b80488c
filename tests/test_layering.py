"""Package layering: a declared order, and every subpackage imports on its own.

:data:`LAYERS` lists the packages and top-level modules of ``repro`` lowest
first.  A ``repro.*`` import may only reach its own entry or an earlier one,
at module level and inside a function body alike, so the import graph
between layers stays acyclic.  One function-level import points up, on
purpose (:data:`UPWARD_IMPORTS`): ``api`` reaches :mod:`repro.server` in the
CLI's ``serve`` command, so plain CLI runs never load the service stack.

Each name table lives in the module that defines its values (media in
``core``, codecs in ``dbcoder``, distortions in ``media``, executors in
``pipeline``, backends in ``store``), so every name resolves without an
upward import.  Segment jobs carry their codec and channel, so no executor
worker looks a name up: none of :data:`SEGMENT_JOB_FUNCTIONS` touches a
name table.

An import cycle between package layers only shows when the *first* import in
a process enters it from the wrong side, so each subpackage is also imported
in a fresh interpreter of its own.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "repro"
SUBPACKAGES = sorted(
    ".".join(init.parent.relative_to(SRC).parts)
    for init in PACKAGE.rglob("__init__.py")
    if init.parent != PACKAGE
)


@pytest.mark.parametrize("package", SUBPACKAGES)
def test_subpackage_imports_in_a_fresh_interpreter(package):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", f"import {package}"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_core_imports_no_higher_layer():
    """``repro.core`` sits below the pipeline, store and facade layers."""
    higher = ("repro.pipeline", "repro.store", "repro.api")
    for path in sorted((PACKAGE / "core").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module:
                modules = [node.module]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            for module in modules:
                assert not module.startswith(higher), f"{path.name} imports {module}"


#: The package layering, lowest first (packages and top-level modules).
LAYERS = (
    "errors", "util", "dynarisc", "verisc", "bootstrap", "dbms", "media",
    "mocoder", "nested", "dbcoder", "baselines", "core", "pipeline", "store",
    "api", "server", "devtools",
)

#: The function-level imports allowed to point up the layers:
#: ``(file under src/repro, function, imported module)``.
UPWARD_IMPORTS = {
    ("api/cli.py", "_cmd_serve", "repro.server"),
    ("api/cli.py", "_cmd_serve", "repro.server.cache"),
}


def _layer(module: str) -> str:
    """The :data:`LAYERS` entry a dotted ``repro.*`` module name belongs to."""
    return module.split(".")[1]


def _imported_modules(node: ast.stmt):
    """The ``repro.*`` modules one import statement names (none for any
    other statement)."""
    if isinstance(node, ast.ImportFrom) and node.module:
        if node.module == "repro":
            yield from (f"repro.{alias.name}" for alias in node.names)
        elif node.module.startswith("repro."):
            yield node.module
    elif isinstance(node, ast.Import):
        yield from (alias.name for alias in node.names if alias.name.startswith("repro."))


def _layer_paths(layer: str) -> "list[Path]":
    package = PACKAGE / layer
    return sorted(package.rglob("*.py")) if package.is_dir() else [PACKAGE / f"{layer}.py"]


def _import_time_modules(body: "list[ast.stmt]"):
    """Every ``repro.*`` module imported when ``body`` runs at import time:
    function bodies and ``if TYPE_CHECKING:`` blocks are skipped."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test).endswith("TYPE_CHECKING"):
            yield from _import_time_modules(node.orelse)
            continue
        yield from _imported_modules(node)
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from _import_time_modules(getattr(node, field, []))


def test_layers_cover_the_package():
    entries = {path.stem for path in PACKAGE.glob("*.py")} | {
        path.parent.name for path in PACKAGE.glob("*/__init__.py")
    }
    assert entries - {"__init__", "__main__"} == set(LAYERS)


@pytest.mark.parametrize("layer", LAYERS)
def test_module_level_imports_point_down_the_layers(layer):
    rank = LAYERS.index(layer)
    for path in _layer_paths(layer):
        for module in _import_time_modules(ast.parse(path.read_text()).body):
            target = _layer(module)
            assert LAYERS.index(target) <= rank, (
                f"{path.relative_to(SRC)} imports {module} at module level, but "
                f"{target!r} sits above {layer!r} in the layering"
            )


def test_function_level_imports_point_down_the_layers():
    """An import inside a function body obeys :data:`LAYERS` too, but for
    :data:`UPWARD_IMPORTS`: a lower layer that named a higher one at run
    time would hide a cycle from the module-level check."""
    upward = set()
    for rank, layer in enumerate(LAYERS):
        for path in _layer_paths(layer):
            for function in ast.walk(ast.parse(path.read_text())):
                if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(function):
                    if not isinstance(node, (ast.Import, ast.ImportFrom)):
                        continue
                    for module in _imported_modules(node):
                        if LAYERS.index(_layer(module)) <= rank:
                            continue
                        site = (path.relative_to(PACKAGE).as_posix(), function.name, module)
                        assert site in UPWARD_IMPORTS, (
                            f"{path.relative_to(SRC)}:{node.lineno} imports {module} in "
                            f"{function.name}, but {_layer(module)!r} sits above "
                            f"{layer!r} in the layering"
                        )
                        upward.add(site)
    assert upward == UPWARD_IMPORTS


#: The functions the pipeline runs inside executor workers, per segment.
SEGMENT_JOB_FUNCTIONS = ("_encode_segment_job", "_decode_job", "_finish_segment")

#: The name tables and the lookups that read them.
NAME_LOOKUPS = {
    "PROFILES", "MEDIA_ALIASES", "EXECUTORS", "DISTORTIONS", "BACKENDS",
    "get_profile", "media_name", "codec_name", "executor_name", "distortion_name",
    "resolve_name", "get_executor",
}


def test_segment_jobs_import_no_registry():
    """A worker decodes with the codec its job carries: it imports nothing
    and reads no name table, whatever the start method."""
    tree = ast.parse((PACKAGE / "pipeline" / "pipeline.py").read_text())
    functions = {
        node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    for name in SEGMENT_JOB_FUNCTIONS:
        for node in ast.walk(functions[name]):
            assert not isinstance(node, (ast.Import, ast.ImportFrom)), (
                f"{name} imports at line {node.lineno}"
            )
            if isinstance(node, ast.Name):
                assert node.id not in NAME_LOOKUPS, (
                    f"{name} reads {node.id} at line {node.lineno}"
                )


def test_src_holds_no_oracles():
    """One implementation per operation in ``src/``: oracles and reference
    implementations live in ``tests/oracles/``, and nothing in the package
    reaches into the test tree for them."""
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                assert not node.name.endswith("_reference"), (
                    f"{path.relative_to(SRC)}:{node.lineno} defines {node.name}; "
                    "move it to tests/oracles/"
                )
            if isinstance(node, ast.ImportFrom) and node.module and not node.level:
                modules = [node.module]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] not in ("oracles", "tests"), (
                    f"{path.relative_to(SRC)}:{node.lineno} imports {module}"
                )

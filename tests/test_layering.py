"""Package layering: a declared order, and every subpackage imports on its own.

:data:`LAYERS` lists the packages and top-level modules of ``repro`` lowest
first.  A module-level ``repro.*`` import may only reach its own entry or an
earlier one, so the import graph between layers stays acyclic.  Imports
inside a function body run on first call, not at import time, and stay
allowed in any direction; the library uses them on purpose where a lower
layer names a higher one at run time:

* ``core``, ``pipeline`` and ``store`` reach :mod:`repro.registry`
  (``from repro import registry`` inside the function that resolves a
  name): ``core.profiles.get_profile`` and ``store`` resolve media and
  backends, and ``pipeline`` resolves an executor (``get_executor``), an
  archive's codec (``ArchivePipeline.__init__``) and a channel's media and
  distortion (``ChannelSpec.build_channel``, when a spec is made), all on
  the calling thread.  Segment jobs carry their codec and channel, so no
  executor worker looks a name up, and none of
  :data:`SEGMENT_JOB_FUNCTIONS` imports the registry;
* ``api`` reaches :mod:`repro.server` in the CLI's ``serve`` command, so
  plain CLI runs never load the service stack.

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
    "registry", "api", "server", "devtools",
)


def _layer(module: str) -> str:
    """The :data:`LAYERS` entry a dotted ``repro.*`` module name belongs to."""
    return module.split(".")[1]


def _import_time_modules(body: "list[ast.stmt]"):
    """Every ``repro.*`` module imported when ``body`` runs at import time:
    function bodies and ``if TYPE_CHECKING:`` blocks are skipped."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test).endswith("TYPE_CHECKING"):
            yield from _import_time_modules(node.orelse)
            continue
        if isinstance(node, ast.ImportFrom) and node.module:
            if node.module == "repro":
                yield from (f"repro.{alias.name}" for alias in node.names)
            elif node.module.startswith("repro."):
                yield node.module
        elif isinstance(node, ast.Import):
            yield from (
                alias.name for alias in node.names if alias.name.startswith("repro.")
            )
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
    package = PACKAGE / layer
    paths = sorted(package.rglob("*.py")) if package.is_dir() else [PACKAGE / f"{layer}.py"]
    for path in paths:
        for module in _import_time_modules(ast.parse(path.read_text()).body):
            target = _layer(module)
            assert LAYERS.index(target) <= rank, (
                f"{path.relative_to(SRC)} imports {module} at module level, but "
                f"{target!r} sits above {layer!r} in the layering"
            )


#: The functions the pipeline runs inside executor workers, per segment.
SEGMENT_JOB_FUNCTIONS = ("_encode_segment_job", "_decode_job", "_finish_segment")


def test_segment_jobs_import_no_registry():
    """A worker decodes with the codec its job carries; it never looks a
    name up in :mod:`repro.registry`, whatever the start method."""
    tree = ast.parse((PACKAGE / "pipeline" / "pipeline.py").read_text())
    functions = {
        node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    for name in SEGMENT_JOB_FUNCTIONS:
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.ImportFrom):
                imported = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            else:
                continue
            for module in imported:
                assert not module.startswith("repro.registry"), (
                    f"{name} imports {module} at line {node.lineno}"
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

"""Package layering: every ``repro`` subpackage imports on its own.

An import cycle between package layers only shows when the *first* import in
a process enters it from the wrong side, so each subpackage is imported in a
fresh interpreter of its own.
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

"""Every exported name resolves.

:mod:`repro` re-exports its public names lazily (PEP 562) through its
``_EXPORTS`` table, so a stale entry would fail only when a user touches
the name.  Every other module's ``__all__`` is held to the same rule: each
entry names something the module defines.
"""

import importlib
from pathlib import Path

import repro

SRC = Path(__file__).resolve().parent.parent / "src"


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = sorted(_module_name(path) for path in (SRC / "repro").rglob("*.py"))


def test_every_all_entry_exists():
    missing = []
    for name in MODULES:
        module = importlib.import_module(name)
        missing += [
            f"{name}.{entry}" for entry in getattr(module, "__all__", ())
            if not hasattr(module, entry)
        ]
    assert not missing, f"__all__ entries that do not exist: {missing}"


def test_top_level_exports_resolve_through_the_lazy_table():
    assert set(repro.__all__) == {*repro._EXPORTS, "__version__"}
    for name, target in repro._EXPORTS.items():
        if target == "repro":  # the name is a submodule
            assert getattr(repro, name) is importlib.import_module(f"repro.{name}")
        else:
            assert getattr(repro, name) is getattr(importlib.import_module(target), name), name

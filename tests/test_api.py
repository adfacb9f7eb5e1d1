"""The public surface: every `__all__` resolves, `nilpairs` re-exports only
names its home modules declare, the reference twins stay in
`nilpairs.oracles` without being re-exported, and no module imports a name
it does not use."""

import ast
import importlib
import pathlib
import pkgutil
from types import ModuleType

import nilpairs
import nilpairs.oracles

MODULES = [importlib.import_module(f"nilpairs.{m.name}") for m in pkgutil.iter_modules(nilpairs.__path__)]


def _public_names(mod: ModuleType) -> list[str]:
    return [n for n, v in vars(mod).items() if not n.startswith("_") and not isinstance(v, ModuleType)]


def test_every_all_entry_resolves():
    for mod in MODULES:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.__all__ lists missing {name!r}"


def test_reexports_come_from_a_home_all():
    for name in _public_names(nilpairs):
        obj = getattr(nilpairs, name)
        homes = [mod for mod in MODULES if name in getattr(mod, "__all__", ())]
        assert homes, f"nilpairs.{name} is in no module's __all__"
        assert all(getattr(mod, name) is obj for mod in homes), name
        if callable(obj):  # functions and classes record where they were defined
            assert obj.__module__ in {mod.__name__ for mod in homes}, name


def test_oracles_are_not_reexported():
    assert nilpairs.oracles.__all__
    for name in nilpairs.oracles.__all__:
        assert not hasattr(nilpairs, name), name
    for name in ("BlockGrid", "block_matrix", "batched_rank_sequences"):
        assert not hasattr(nilpairs, name), name


def test_no_unused_imports():
    # __init__.py is exempt: its imports are the re-exports
    for path in sorted(pathlib.Path(nilpairs.__path__[0]).glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = set(getattr(importlib.import_module(f"nilpairs.{path.stem}"), "__all__", ()))
        unused = sorted(imported - used - exported)
        assert not unused, f"{path.name} imports {unused} without using them"

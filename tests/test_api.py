"""The public surface: every `__all__` resolves, `nilpairs` re-exports only
names its home modules declare, and the reference twins stay in
`nilpairs.oracles` without being re-exported."""

import importlib
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

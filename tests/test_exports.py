"""The public surface: every name a module exports exists."""

import importlib
import pkgutil

import soleknot


def test_every_all_entry_resolves():
    missing = []
    for info in pkgutil.iter_modules(soleknot.__path__):
        mod = importlib.import_module(f"soleknot.{info.name}")
        missing += [
            f"{info.name}.{name}" for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)
        ]
    assert missing == []

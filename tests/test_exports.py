"""Every exported name resolves."""

import importlib
import pkgutil

import kaczfact


def test_every_exported_name_resolves():
    modules = [kaczfact] + [importlib.import_module(f"kaczfact.{m.name}") for m in pkgutil.iter_modules(kaczfact.__path__)]
    exported = [(mod, name) for mod in modules for name in getattr(mod, "__all__", ())]
    assert len(exported) > len(kaczfact.__all__)
    assert [f"{mod.__name__}.{name}" for mod, name in exported if not hasattr(mod, name)] == []

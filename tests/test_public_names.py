"""Every exported name exists: a function deleted from a module must also
leave its ``__all__`` and the package's."""

import importlib
import pkgutil

import yulesimon


def test_every_exported_name_resolves():
    modules = [yulesimon] + [
        importlib.import_module(f"yulesimon.{info.name}")
        for info in pkgutil.iter_modules(yulesimon.__path__)
    ]
    stale = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert stale == []

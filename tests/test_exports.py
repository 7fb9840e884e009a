import importlib
import pkgutil

import errest


def test_every_export_resolves():
    modules = [errest] + [
        importlib.import_module(f"errest.{info.name}")
        for info in pkgutil.iter_modules(errest.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"

import importlib
import pkgutil
import types

import errest

SUBMODULES = [
    importlib.import_module(f"errest.{info.name}")
    for info in pkgutil.iter_modules(errest.__path__)
]


def test_every_export_resolves():
    for module in [errest, *SUBMODULES]:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"


def test_package_reexports_only_listed_names():
    listed = {name for module in SUBMODULES for name in module.__all__}
    for name, value in vars(errest).items():
        if name.startswith("_") or isinstance(value, types.ModuleType):
            continue
        assert name in listed, f"errest.{name} is in no submodule's __all__"

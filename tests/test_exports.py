import importlib
import importlib.util
from pathlib import Path
import pkgutil
import types

import errest
from errest.sim import GroundTruth
from errest.switch import SwitchReplay

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


def test_benchmark_tracer_finds_and_restores_every_target():
    # the benchmark's tracer raises when a name it traces is gone, so deleting a traced
    # name fails here too; it must also put back every reference it rebinds
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = [errest, *SUBMODULES]
    before = [dict(vars(module)) for module in modules]
    methods = SwitchReplay.__dict__["snapshot"], GroundTruth.__dict__["switches_needed"]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert any(vars(module)[name] is not value
                   for module, attrs in zip(modules, before) for name, value in attrs.items())
    finally:
        tracer.uninstall()
    for module, attrs in zip(modules, before):
        assert vars(module).keys() == attrs.keys()
        for name, value in attrs.items():
            assert vars(module)[name] is value, f"{module.__name__}.{name} was not restored"
    assert SwitchReplay.__dict__["snapshot"] is methods[0]
    assert GroundTruth.__dict__["switches_needed"] is methods[1]

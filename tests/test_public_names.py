"""The package's public surface: declared names exist, exports are declared,
and the README's library quick start runs."""

import importlib
import pkgutil
import re
import types
from pathlib import Path

import pytest

import netkalman

MODULES = [importlib.import_module(f"netkalman.{info.name}")
           for info in pkgutil.iter_modules(netkalman.__path__)]
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_all_entry_exists(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names undefined {missing}"


def test_every_package_export_is_declared_by_its_module():
    declared = {name for module in MODULES for name in getattr(module, "__all__", ())}
    exported = {name for name, value in vars(netkalman).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported <= declared, f"exported but in no module's __all__: {exported - declared}"


def test_readme_library_quick_start_runs(capsys):
    match = re.search(r"## Library quick start\n\n```python\n(.*?)```", README.read_text(), re.S)
    assert match, "README has no library quick start block"
    exec(compile(match.group(1), str(README), "exec"), {})
    assert "BoundedCertified" in capsys.readouterr().out

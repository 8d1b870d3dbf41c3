"""The package's public surface: every export resolves, and the README's
quick tour runs as written."""

import importlib
import pkgutil
import re
import types
from pathlib import Path

import profile_lab

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_export_resolves_and_has_one_home():
    homes: dict[str, list[str]] = {}
    for info in pkgutil.iter_modules(profile_lab.__path__):
        module = importlib.import_module(f"profile_lab.{info.name}")
        for attr in getattr(module, "__all__", ()):
            assert hasattr(module, attr), f"{info.name}.__all__ names {attr}"
            homes.setdefault(attr, []).append(info.name)
    public = [attr for attr in vars(profile_lab)
              if not attr.startswith("_")
              and not isinstance(getattr(profile_lab, attr), types.ModuleType)]
    assert public
    for attr in public:
        assert len(homes.get(attr, ())) == 1, (attr, homes.get(attr))


def test_readme_quick_tour_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})

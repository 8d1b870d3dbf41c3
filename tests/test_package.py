"""The package's public surface: every export resolves, every public name
has a user, and the README's quick tour runs as written."""

import ast
import importlib
import pkgutil
import re
import types
from pathlib import Path

import profile_lab

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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


def test_every_public_name_has_a_user():
    # a name in a module's __all__ is loaded by library code (not merely
    # mentioned in a docstring), documented in README or used by the
    # benchmark; test-only helpers live in tests/oracles.py instead
    src = Path(profile_lab.__file__).resolve().parent
    loaded = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                loaded.add(node.attr)
    docs = README.read_text() + "".join(
        path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py")))
    unused = []
    for info in pkgutil.iter_modules(profile_lab.__path__):
        module = importlib.import_module(f"profile_lab.{info.name}")
        for attr in getattr(module, "__all__", ()):
            if (attr not in loaded
                    and not re.search(rf"\b{re.escape(attr)}\b", docs)):
                unused.append(f"{info.name}.{attr}")
    assert not unused

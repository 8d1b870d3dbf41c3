"""The package's public surface: every export resolves, every public name
has a user, and the README's quick tour runs as written."""

import ast
import dataclasses
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


def _loaded_names(source: str) -> set[str]:
    """The names that ``source`` loads, as a variable or an attribute, and
    the strings it holds outside its ``__all__`` list (the CLI prints report
    fields by name); a name merely mentioned in a docstring is counted too,
    but a name listed in ``__all__`` is not thereby used."""
    tree = ast.parse(source)
    exports = {id(node) for stmt in ast.walk(tree)
               if isinstance(stmt, ast.Assign)
               and any(isinstance(t, ast.Name) and t.id == "__all__"
                       for t in stmt.targets)
               for node in ast.walk(stmt.value)}
    loaded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loaded.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in exports):
            loaded.add(node.value)
    return loaded


def _unused(modules, loaded: set[str], docs: str) -> list[str]:
    """The names in each (name, module)'s ``__all__``, and the public
    methods, properties and fields of the classes there, that are neither
    ``loaded`` nor documented in ``docs``."""
    unused = []
    for label, module in modules:
        for attr in getattr(module, "__all__", ()):
            obj = getattr(module, attr)
            names = [(f"{label}.{attr}", attr, rf"\b{attr}\b")]
            if isinstance(obj, type):
                members = set(vars(obj))
                if dataclasses.is_dataclass(obj):
                    members |= {f.name for f in dataclasses.fields(obj)}
                # a member is documented where it is read off an object
                names += [(f"{label}.{attr}.{m}", m, rf"\.{m}\b")
                          for m in sorted(members) if not m.startswith("_")]
            unused += [label for label, name, pattern in names
                       if name not in loaded and not re.search(pattern, docs)]
    return unused


def test_every_public_name_has_a_user():
    # a name in a module's __all__, and a public member of a class there, is
    # used by library code, documented in README or used by the benchmark;
    # test-only helpers live in tests/oracles.py instead
    src = Path(profile_lab.__file__).resolve().parent
    loaded = set().union(*(_loaded_names(path.read_text())
                           for path in src.glob("*.py")))
    docs = README.read_text() + "".join(
        path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py")))
    modules = [(info.name, importlib.import_module(f"profile_lab.{info.name}"))
               for info in pkgutil.iter_modules(profile_lab.__path__)]
    assert not _unused(modules, loaded, docs)


def test_a_name_only_listed_in_all_has_no_user():
    source = (
        '__all__ = ["orphan", "Report"]\n'
        'class Report:\n'
        '    def field(self): pass\n'
        '    def stray(self): pass\n'
        'def orphan(): pass\n'
        'def _report(): print(getattr(Report(), "field")())\n')
    module = types.ModuleType("scratch")
    exec(compile(source, "scratch.py", "exec"), vars(module))
    assert (_unused([("scratch", module)], _loaded_names(source), "")
            == ["scratch.orphan", "scratch.Report.stray"])
    assert not _unused([("scratch", module)], _loaded_names(source),
                       "orphan() and r.stray")

import ast
import importlib
import pathlib

import tailvol

MODULES = ("filters", "estimation", "measure", "expansion", "replication", "calibration", "pricer")


def test_package_exports_are_the_module_lists():
    lists = [importlib.import_module(f"tailvol.{m}").__all__ for m in MODULES]
    names = [name for names in lists for name in names]
    # each public name is declared by exactly one module
    assert len(names) == len(set(names))
    assert sorted(tailvol.__all__) == sorted(["__version__", *names])
    for name in tailvol.__all__:
        assert getattr(tailvol, name) is not None
    for module, names in zip(MODULES, lists):
        for name in names:
            assert getattr(tailvol, name) is getattr(importlib.import_module(f"tailvol.{module}"), name)


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but never references (``__all__`` re-exports count
    as references; ``__future__`` and star imports are exempt)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_import_check_flags_a_stray_name():
    source = "from __future__ import annotations\nimport math\nfrom os import path, sep\n__all__ = ['sep']\n"
    assert _unused_imports(source) == ["math (line 2)", "path (line 3)"]


def test_modules_import_no_unused_names():
    src = pathlib.Path(tailvol.__file__).parent
    unused = {path.name: _unused_imports(path.read_text()) for path in sorted(src.glob("*.py"))}
    assert {name: names for name, names in unused.items() if names} == {}

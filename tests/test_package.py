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


def _unread_parameters(source: str) -> list[str]:
    """Parameters of a function or lambda that its body never reads, as
    ``function.parameter (line n)``; ``self`` and ``cls`` are exempt, and a
    read in a nested function counts."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
            params += [arg for arg in (args.vararg, args.kwarg) if arg is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                name.id for stmt in body for name in ast.walk(stmt)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
            }
            out += [
                f"{getattr(node, 'name', '<lambda>')}.{arg.arg} (line {arg.lineno})"
                for arg in params if arg.arg not in read | {"self", "cls"}
            ]
    return out


def test_unread_parameter_check_flags_a_stray_parameter():
    source = (
        "def f(a, b, *, c=1):\n    return a + c\n"
        "class K:\n    def m(self, x):\n        return lambda y: x\n"
        "def g(z, **kw):\n    def h():\n        return z\n    return h\n"
    )
    assert _unread_parameters(source) == [
        "f.b (line 1)", "g.kw (line 6)", "<lambda>.y (line 5)"
    ]


def test_functions_read_every_parameter():
    src = pathlib.Path(tailvol.__file__).parent
    unread = {path.name: _unread_parameters(path.read_text()) for path in sorted(src.glob("*.py"))}
    assert {name: params for name, params in unread.items() if params} == {}


def _quadrature_and_stats_imports(source: str) -> list[str]:
    """Imports of scipy.integrate or scipy.stats (or anything inside them),
    as ``module (line n)``; the closed forms made both unnecessary."""
    banned = ("scipy.integrate", "scipy.stats")
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        hits = [n for n in names if any(n == b or n.startswith(b + ".") for b in banned)]
        out += [f"{hits[0]} (line {node.lineno})"] if hits else []
    return out


def test_banned_import_check_flags_integrate_and_stats():
    source = (
        "import scipy.stats\nfrom scipy import integrate, special\n"
        "def f():\n    from scipy.stats import t\n    return t\n"
        "from scipy.special import ndtr\nimport scipy.signal\nfrom . import filters\n"
    )
    assert _quadrature_and_stats_imports(source) == [
        "scipy.stats (line 1)", "scipy.integrate (line 2)", "scipy.stats (line 4)"
    ]


def test_modules_import_neither_scipy_integrate_nor_stats():
    src = pathlib.Path(tailvol.__file__).parent
    found = {path.name: _quadrature_and_stats_imports(path.read_text()) for path in sorted(src.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}

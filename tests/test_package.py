import ast
import datetime
import importlib
import importlib.util
import inspect
import json
import math
import os
import pathlib
import random
import subprocess
import sys

import tailvol
import tailvol.data
from tailvol.data import dump_json
from tailvol.replication import OptionKind, bs_price

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


def _resolves(module: str, name: str = "*") -> bool:
    """Whether ``from module import name`` works (``import module`` for ``*``)."""
    try:
        found = importlib.import_module(module)
    except ImportError:
        return False
    return name == "*" or hasattr(found, name) or _resolves(f"{module}.{name}")


def _unresolved_tailvol_imports(source: str) -> list[str]:
    """Names imported from ``tailvol`` that the package does not define, as
    ``module.name (line n)``; nothing in the source runs."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            pairs = [(alias.name, "*") for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            pairs = [(node.module, alias.name) for alias in node.names]
        else:
            continue
        out += [
            f"{module}{'' if name == '*' else '.' + name} (line {node.lineno})"
            for module, name in pairs
            if module.split(".")[0] == "tailvol" and not _resolves(module, name)
        ]
    return out


def test_scripts_import_only_names_the_package_defines():
    source = (
        "import numpy\nimport tailvol.nope\nfrom tailvol import data, fit_garch, Gone\n"
        "from tailvol.measure import Gone\n"
    )
    assert _unresolved_tailvol_imports(source) == [
        "tailvol.nope (line 2)", "tailvol.Gone (line 3)", "tailvol.measure.Gone (line 4)"
    ]
    scripts = sorted((pathlib.Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))
    assert scripts
    unresolved = {path.name: _unresolved_tailvol_imports(path.read_text()) for path in scripts}
    assert {name: names for name, names in unresolved.items() if names} == {}


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


def _underscore_parameters(source: str) -> list[str]:
    """Parameters named with a leading ``_`` of the module's public functions
    and of the public methods of its public classes, as
    ``function.parameter (line n)``."""
    out = []

    def visit(body: list[ast.stmt], prefix: str) -> None:
        for node in body:
            if getattr(node, "name", "_").startswith("_"):
                continue
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
                params += [arg for arg in (args.vararg, args.kwarg) if arg is not None]
                out.extend(
                    f"{prefix}{node.name}.{arg.arg} (line {arg.lineno})"
                    for arg in params if arg.arg.startswith("_")
                )

    visit(ast.parse(source).body, "")
    return out


def test_underscore_parameter_check_flags_public_functions_and_methods():
    source = (
        "def f(a, _b=1, *, _c=None):\n    pass\n"
        "def _g(_d):\n    pass\n"
        "class K:\n    def m(self, _e, **_kw):\n        def inner(_f):\n            pass\n"
        "    def _n(self, _h):\n        pass\n"
        "class _P:\n    def m(self, _i):\n        pass\n"
    )
    assert _underscore_parameters(source) == [
        "f._b (line 1)", "f._c (line 1)", "K.m._e (line 6)", "K.m._kw (line 6)"
    ]


def test_public_functions_take_no_underscore_parameters():
    # a leading underscore marks a parameter that only tests pass: what a
    # public function takes, a program may pass
    src = pathlib.Path(tailvol.__file__).parent
    found = {path.name: _underscore_parameters(path.read_text()) for path in sorted(src.glob("*.py"))}
    assert {name: params for name, params in found.items() if params} == {}


def _imports_of(source: str, banned: tuple[str, ...]) -> list[str]:
    """Imports of the ``banned`` modules (or anything inside them), as
    ``module (line n)``."""
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
        "import scipyx\nfrom .scipy import optimize\n"
    )
    assert _imports_of(source, ("scipy.integrate", "scipy.stats")) == [
        "scipy.stats (line 1)", "scipy.integrate (line 2)", "scipy.stats (line 4)"
    ]
    assert _imports_of(source, ("scipy",)) == [
        "scipy.stats (line 1)", "scipy (line 2)", "scipy.special (line 6)",
        "scipy.signal (line 7)", "scipy.stats (line 4)",
    ]


def test_no_module_imports_scipy():
    # implied vols bisect, the lambda2 stage runs its own golden section, the
    # Black CDF is math.erfc and the pooled-NLL fit is a numpy projected BFGS
    src = pathlib.Path(tailvol.__file__).parent
    found = {path.name: _imports_of(path.read_text(), ("scipy",)) for path in sorted(src.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def _gaussian_draws(source: str, allowed: str | None) -> list[str]:
    """Uses of ``ndtri`` or ``standard_normal`` and calls of a ``.normal``
    method outside the function named ``allowed``, as ``name (line n)``."""
    out = []

    def visit(node: ast.AST, inside: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name):
                name = child.id
            elif isinstance(child, ast.Attribute):
                name = child.attr
            elif isinstance(child, ast.alias):
                name = child.asname or child.name
            else:
                name = None
            banned = name in ("ndtri", "standard_normal") or (
                name == "normal" and isinstance(node, ast.Call) and child is node.func
            )
            out.extend([f"{name} (line {child.lineno})"] if banned and not inside else [])
            own = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and child.name == allowed
            visit(child, inside or own)

    visit(ast.parse(source), False)
    return out


def test_gaussian_draw_check_flags_draws_outside_the_one_source():
    source = (
        "from scipy.special import ndtri\nimport numpy as np\n"
        "def _standard_normals(rng, size):\n    return ndtri(rng.random(size))\n"
        "def f(rng):\n    return rng.standard_normal(3) + np.random.normal(size=3) + rng.standard_t(5)\n"
        "class K:\n    draw = staticmethod(ndtri)\n    normal = 1.0\n"
    )
    assert _gaussian_draws(source, "_standard_normals") == [
        "ndtri (line 1)", "standard_normal (line 6)", "normal (line 6)", "ndtri (line 8)"
    ]
    assert _gaussian_draws(source, None) == [
        "ndtri (line 1)", "ndtri (line 4)", "standard_normal (line 6)", "normal (line 6)",
        "ndtri (line 8)",
    ]


def test_gaussian_draws_come_only_from_standard_normals():
    src = pathlib.Path(tailvol.__file__).parent
    found = {
        path.name: _gaussian_draws(
            path.read_text(), "_standard_normals" if path.name == "filters.py" else None
        )
        for path in sorted(src.glob("*.py"))
    }
    assert {name: hits for name, hits in found.items() if hits} == {}


def _names_outside(source: str, banned: tuple[str, ...], allowed: str | None) -> list[str]:
    """Mentions of the ``banned`` names (a name, an attribute, or a part of
    an imported module or name) outside the function named ``allowed``, as
    ``name (line n)``."""
    out = []

    def visit(node: ast.AST, inside: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name):
                names = [child.id]
            elif isinstance(child, ast.Attribute):
                names = [child.attr]
            elif isinstance(child, ast.alias):
                names = child.name.split(".")
            elif isinstance(child, ast.ImportFrom):
                names = (child.module or "").split(".")
            else:
                names = []
            out.extend(f"{name} (line {child.lineno})" for name in names
                       if name in banned and not inside)
            own = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and child.name == allowed
            visit(child, inside or own)

    visit(ast.parse(source), False)
    return out


_STREAM_NAMES = ("SFC64", "Philox", "SeedSequence", "default_rng")


def test_stream_check_flags_generators_built_outside_the_one_rule():
    source = (
        "import numpy as np\nfrom numpy.random import Philox as P, default_rng\n"
        "def _stream(seed, *key):\n"
        "    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=key)))\n"
        "def f(seed):\n    return np.random.Generator(P(np.random.SeedSequence(seed)))\n"
        "class K:\n    bits = staticmethod(np.random.Philox)\n"
        "    fast = np.random.SFC64\n"
    )
    assert _names_outside(source, _STREAM_NAMES, "_stream") == [
        "Philox (line 2)", "default_rng (line 2)", "SeedSequence (line 6)", "Philox (line 8)",
        "SFC64 (line 9)",
    ]
    assert _names_outside(source, _STREAM_NAMES, None) == [
        "Philox (line 2)", "default_rng (line 2)", "SFC64 (line 4)", "SeedSequence (line 4)",
        "SeedSequence (line 6)", "Philox (line 8)", "SFC64 (line 9)",
    ]


def test_random_streams_come_only_from_stream():
    # one rule turns a seed into a stream, so a seed means the same draws in
    # the real-world simulator, the estimation restarts and the pricer
    src = pathlib.Path(tailvol.__file__).parent
    found = {
        path.name: _names_outside(path.read_text(), _STREAM_NAMES,
                                  "_stream" if path.name == "filters.py" else None)
        for path in sorted(src.glob("*.py"))
    }
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_linalg_check_flags_every_use_outside_the_eigensystem():
    source = (
        "import numpy as np\nimport numpy.linalg\nfrom numpy.linalg import inv\n"
        "from scipy import linalg as la\n"
        "def omega_eigen(spec, premia):\n    return np.linalg.inv(np.linalg.eig(spec)[1])\n"
        "def f(a):\n    eig = np.linalg.eig(a)\n    return eig, numpy.linalg.solve(a, a)\n"
    )
    assert _names_outside(source, ("linalg",), "omega_eigen") == [
        "linalg (line 2)", "linalg (line 3)", "linalg (line 4)", "linalg (line 8)",
        "linalg (line 9)",
    ]
    assert len(_names_outside(source, ("linalg",), None)) == 7


def test_eigenvectors_stay_inside_omega_eigen():
    # every reader contracts with EigenSystem.modes, so the eigensolver and
    # the inverse of its vectors have one home
    src = pathlib.Path(tailvol.__file__).parent
    found = {
        path.name: _names_outside(path.read_text(), ("linalg",),
                                  "omega_eigen" if path.name == "measure.py" else None)
        for path in sorted(src.glob("*.py"))
    }
    assert {name: hits for name, hits in found.items() if hits} == {}


def _rescan_names(source: str) -> list[str]:
    """Every mention of ``filter_path`` or ``_filter_drivers`` (a name, an
    attribute or an imported alias), as ``name (line n)``."""
    banned = ("filter_path", "_filter_drivers")
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        else:
            continue
        out += [f"{name} (line {node.lineno})" for name in names if name in banned]
    return out


def test_rescan_check_flags_every_mention():
    source = (
        "from .filters import _filter_drivers, filter_path as scan\nfrom . import filters\n"
        "def f(r, spec):\n    return filters.filter_path(_filter_drivers(r, spec)[0], 5.0, 1.0)\n"
        "def g(path):\n    return path\n"
    )
    assert sorted(_rescan_names(source)) == [
        "_filter_drivers (line 1)", "_filter_drivers (line 4)",
        "filter_path (line 1)", "filter_path (line 4)",
    ]


def test_only_the_filters_and_estimation_rescan_returns():
    # the simulator keeps the levels it steps, so no other module (the
    # pricer's drift check above all) re-derives them from returns
    src = pathlib.Path(tailvol.__file__).parent
    found = {
        path.name: _rescan_names(path.read_text())
        for path in sorted(src.glob("*.py"))
        if path.name not in ("filters.py", "estimation.py")
    }
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_traced_lookups_resolve_to_callables(monkeypatch):
    # the benchmark's tracer wraps these names; a renamed function would
    # break only its traced runs
    bench = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
    before = sorted(bench.rglob("*"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_trace", bench / "bench_trace.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    lookups = module.targets(None)
    assert lookups
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, *_ in lookups
               if not callable(getattr(owner, attr, None))]
    assert missing == []
    assert sorted(bench.rglob("*")) == before


def _fresh_report(code: str, report: str, cwd: pathlib.Path):
    """What the expression ``report`` evaluates to (as JSON) after a fresh
    interpreter runs ``code`` against this checkout of the package."""
    src = str(pathlib.Path(tailvol.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport json, sys, threading\nprint(json.dumps({report}))"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


def test_import_tailvol_starts_no_thread_and_loads_no_thread_pool(tmp_path):
    report = "[threading.active_count(), 'concurrent.futures' in sys.modules]"
    assert _fresh_report("import tailvol", report, tmp_path) == [1, False]


def _write_model_files(tmp_path: pathlib.Path) -> None:
    """A three-filter ``spec.json``, a flat ``state.json`` and ``premia.json``."""
    spec = {
        "dt_years": 1.0 / 252.0,
        "filters": [
            {"length_days": None, "weight": 0.2, "kind": "symmetric"},
            {"length_days": 10.0, "weight": 0.4, "kind": "symmetric"},
            {"length_days": 5.0, "weight": 0.4, "kind": "asymmetric"},
        ],
    }
    dump_json(tmp_path / "spec.json", spec)
    dump_json(tmp_path / "state.json", {"x": [0.04] * 3, "nu": 0.04, "as_of": "2024-01-02", "burn_in": False})
    dump_json(tmp_path / "premia.json", {"lambda2": 0.2, "lambda3": 0.1, "lambda4": 1.0})


def _write_command_inputs(tmp_path: pathlib.Path) -> dict[str, list[str]]:
    """The model files, two return series and an option chain in
    ``tmp_path``, and an argv per command that reads them (in the order the
    commands run: ``filters`` and ``calibrate`` write their own outputs)."""
    _write_model_files(tmp_path)
    rng = random.Random(3)
    for j in range(2):
        rows = [f"{datetime.date(2020, 1, 1) + datetime.timedelta(days=d)},{rng.gauss(0.0, 0.01)!r}"
                for d in range(300)]
        (tmp_path / f"p{j}.csv").write_text("date,return\n" + "\n".join(rows) + "\n")
    rows = ["expiry_years,strike,kind,mid,forward,rate,implied_vol"]
    for t in (0.25, 0.5):
        for i in range(41):
            k = math.exp(1.2 * math.sqrt(t) * (i / 20.0 - 1.0))
            kind = OptionKind.PUT if k <= 1.0 else OptionKind.CALL
            rows.append(f"{t!r},{k!r},{kind.value},{bs_price(1.0, k, t, 0.2, kind)!r},1.0,0.0,0.2")
    (tmp_path / "chains.csv").write_text("\n".join(rows) + "\n")
    model = ["--spec", "spec.json", "--state", "state.json", "--premia", "premia.json"]
    argvs = [
        ["estimate", "p0.csv", "p1.csv", "--kinds", "symmetric,asymmetric",
         "--init-weights", "0.3,0.3", "--init-lengths", "30,10", "--out", "fit.json"],
        ["filters", "p0.csv", "--spec", "spec.json", "--out", "states.csv", "--state-out", "s.json"],
        ["varswap", *model, "--maturities", "0.25,1.0", "--out", "varswap.csv"],
        ["moments", *model, "--expiries", "0.25,1.0", "--out", "moments.csv"],
        ["calibrate", "--spec", "spec.json", "--state", "state.json", "--chains", "chains.csv",
         "--mode", "saturate_kurtosis", "--delta-range", "0.01,0.99", "--out", "premia_fit.json"],
        ["smile", *model, "--expiries", "0.25", "--strikes", "0.9:1.1:5", "--paths", "2000",
         "--out", "smile.csv"],
        ["validate", "--spec", "spec.json", "--premia", "premia.json"],
    ]
    return {argv[0]: argv for argv in argvs}


def _run_commands(argvs) -> str:
    """Source that runs each argv through ``tailvol.cli.main`` as looked up
    at call time, and stops at the first that fails."""
    return (
        "import tailvol.cli\n"
        f"for argv in {list(argvs)!r}:\n"
        "    rc = tailvol.cli.main(argv)\n"
        "    if rc != 0:\n"
        "        raise SystemExit(f'{argv[0]} exited {rc}')"
    )


def test_every_command_loads_no_scipy(tmp_path):
    # numpy alone runs the package: the Black CDF is math.erfc, implied vols
    # bisect, the lambda2 stage runs its own golden section and the
    # likelihood search is a projected BFGS; a fresh process also catches a
    # dynamic import, which the AST guard above cannot
    argvs = _write_command_inputs(tmp_path)
    report = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"
    assert _fresh_report(_run_commands(argvs.values()), report, tmp_path) == []
    written = ("fit.json", "states.csv", "varswap.csv", "moments.csv", "premia_fit.json", "smile.csv")
    assert all((tmp_path / name).stat().st_size > 0 for name in written)


_LOADED = "sorted(m.split('.', 1)[1] for m in sys.modules if m.startswith('tailvol.'))"


def test_import_tailvol_loads_no_submodule(tmp_path):
    # the library loads on the first use of a public name, not on import
    assert _fresh_report("import tailvol", _LOADED, tmp_path) == []
    # each way in, used first, sees the whole surface
    for code in (
        "import tailvol\nassert tailvol.fit_garch is tailvol.estimation.fit_garch",
        "from tailvol import *\nimport tailvol\nassert all(name in globals() for name in tailvol.__all__)",
        "import tailvol\nlisted = dir(tailvol)\nassert set(tailvol.__all__) <= set(listed)",
    ):
        assert _fresh_report(code, _LOADED, tmp_path) == sorted(MODULES)


# what every command reads and raises: its files, filter specs and premia
_BASE = ["cli", "data", "filters", "measure"]


def test_each_command_loads_only_its_own_layers(tmp_path):
    # a cold command compiles and runs only the modules its work calls
    argvs = _write_command_inputs(tmp_path)
    expected = {
        "estimate": [*_BASE, "estimation"],
        "filters": _BASE,
        "varswap": _BASE,
        "moments": [*_BASE, "expansion"],
        "calibrate": [*_BASE, "calibration", "expansion", "replication"],
        "smile": [*_BASE, "expansion", "pricer", "replication"],
        "validate": _BASE,
    }
    assert list(expected) == list(argvs)
    loaded = {cmd: _fresh_report(_run_commands([argv]), _LOADED, tmp_path) for cmd, argv in argvs.items()}
    assert loaded == {cmd: sorted(modules) for cmd, modules in expected.items()}


def test_wrappers_set_on_cli_before_first_use_see_every_call(tmp_path):
    # the benchmark's tracer wraps names on tailvol.cli; a name a command
    # binds on first use must be looked up there at call time, or a traced
    # run would count none of its calls
    argvs = _write_command_inputs(tmp_path)
    bench = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
    before = sorted(bench.rglob("*"))
    code = (
        f"import sys\nsys.dont_write_bytecode = True\nsys.path.insert(0, {str(bench)!r})\n"
        "import tailvol, tailvol.cli as cli\nfrom bench_trace import targets\n"
        "names = [attr for owner, attr, *_ in targets(None) if owner is cli]\n"
        "unbound = [name for name in names if name not in vars(cli)]\n"
        "calls = dict.fromkeys(names, 0)\n"
        "def counted(name, fn):\n"
        "    def wrapper(*args, **kwargs):\n"
        "        calls[name] += 1\n"
        "        return fn(*args, **kwargs)\n"
        "    return wrapper\n"
        "for name in names:\n"
        "    setattr(cli, name, counted(name, vars(cli).get(name) or getattr(tailvol, name)))\n"
        f"{_run_commands(argvs.values())}"
    )
    report = "[sorted(unbound), sorted(set(names) & set(cli._HOMES)), [n for n, k in calls.items() if not k]]"
    unbound, lazy, uncalled = _fresh_report(code, report, tmp_path)
    assert "fit_garch" in lazy and unbound == lazy
    assert uncalled == []
    assert sorted(bench.rglob("*")) == before


def _mentions(source: str) -> set[str]:
    """Every identifier a source names (a name, an attribute or an imported
    name) and every string constant, since the benchmark's tracer looks
    functions up by name."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def _uncalled(public: dict[str, list[str]], sources: dict[str, str]) -> list[str]:
    """Public functions, as ``module.name``, that no source but their own
    module names; ``public`` maps a module's path to its function names,
    ``sources`` maps every path (the modules' included) to its text."""
    named = {path: _mentions(text) for path, text in sources.items()}
    return [
        f"{pathlib.Path(module).stem}.{name}" for module, names in public.items() for name in names
        if not any(name in seen for path, seen in named.items() if path != module)
    ]


def test_surface_check_flags_a_function_only_its_module_names():
    sources = {
        "a": "def f():\n    return h()\ndef g():\n    pass\ndef h():\n    pass\n__all__ = ['f', 'g', 'h']\n",
        "b": "from a import g as gg\nLOOKUP = ('h', 'f is traced')\n",
        "c": "def f():\n    '''h'''\n    # calls f\n",
    }
    assert _uncalled({"a": ["f", "g", "h"]}, sources) == ["a.f"]


def test_every_public_function_has_a_program_caller():
    # program callers: the package's other modules, the scripts, the
    # benchmark and the acceptance scorecard; unit tests alone keep nothing
    # public
    root = pathlib.Path(__file__).resolve().parent.parent
    src = pathlib.Path(tailvol.__file__).parent
    files = [
        *src.glob("*.py"), *(root / "scripts").glob("*.py"), *(root / "perfbench").rglob("*.py"),
        root / "tests" / "test_acceptance.py",
    ]
    sources = {str(path): path.read_text() for path in files}
    public = {
        str(src / f"{module.__name__.rsplit('.', 1)[1]}.py"): [
            name for name in module.__all__ if inspect.isfunction(getattr(module, name))
        ]
        for module in (*(importlib.import_module(f"tailvol.{m}") for m in MODULES), tailvol.data)
    }
    assert all(public.values()) and set(public) <= set(sources)
    assert _uncalled(public, sources) == []

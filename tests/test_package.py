import importlib

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

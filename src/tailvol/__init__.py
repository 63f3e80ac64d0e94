"""Multi-scale variance filters, tail-risk premia and option pricing.

A daily variance forecast built from exponential moving averages of squared
returns on several time scales, the change of measure that three tail-risk
premia induce on its continuous-time limit, and the pricing tools that fall
out: variance swaps and forward variances in closed form, smile asymptotics
from a cumulant expansion, model-free moment replication from option strips,
sequential premia calibration, and a Monte Carlo pricer for everything else.

``import tailvol`` loads none of the library: the first use of a public
name (or of ``__all__``, as ``from tailvol import *`` makes) imports the
library modules and binds their names here (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

#: The library modules whose ``__all__`` lists make up the package surface;
#: ``tailvol.data`` and ``tailvol.cli`` are reached as submodules.
_MODULES = ("filters", "estimation", "measure", "expansion", "replication", "calibration", "pricer")


def __getattr__(name: str):
    # private names and the two submodules outside the surface load nothing,
    # so ``from tailvol import data`` stays as light as ``import tailvol.data``
    if name == "__all__" or not (name.startswith("_") or name in ("cli", "data")):
        modules = [import_module(f".{module}", __name__) for module in _MODULES]
        names = {public: getattr(module, public) for module in modules for public in module.__all__}
        globals().update(names, __all__=["__version__", *names])
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    __getattr__("__all__")
    return sorted(globals())

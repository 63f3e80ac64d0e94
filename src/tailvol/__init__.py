"""Multi-scale variance filters, tail-risk premia and option pricing.

A daily variance forecast built from exponential moving averages of squared
returns on several time scales, the change of measure that three tail-risk
premia induce on its continuous-time limit, and the pricing tools that fall
out: variance swaps and forward variances in closed form, smile asymptotics
from a cumulant expansion, model-free moment replication from option strips,
sequential premia calibration, and a Monte Carlo pricer for everything else.
"""

from . import calibration, estimation, expansion, filters, measure, pricer, replication
from .calibration import *  # noqa: F401,F403
from .estimation import *  # noqa: F401,F403
from .expansion import *  # noqa: F401,F403
from .filters import *  # noqa: F401,F403
from .measure import *  # noqa: F401,F403
from .pricer import *  # noqa: F401,F403
from .replication import *  # noqa: F401,F403

__version__ = "0.1.0"

#: The library modules whose ``__all__`` lists make up the package surface;
#: ``tailvol.data`` and ``tailvol.cli`` are reached as submodules.
_MODULES = (filters, estimation, measure, expansion, replication, calibration, pricer)

__all__ = ["__version__", *(name for module in _MODULES for name in module.__all__)]

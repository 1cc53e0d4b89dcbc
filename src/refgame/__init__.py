"""Duopoly price competition under logit demand with reference effects.

Two firms repeatedly price substitutable products for consumers whose
utility depends on both the posted price and a memory-based reference
price. The package provides the market primitives, a decentralized
projected-gradient learning dynamic, solvers for the per-period
equilibrium policy and its stationary point, and the numerical
diagnostics (drift positivity, Hessian certificates, decay-rate
windows) that characterize when and how fast the dynamic stabilizes.
"""

from . import analysis, config, dynamics, equilibrium, model
from .analysis import *  # noqa: F403
from .config import *  # noqa: F403
from .dynamics import *  # noqa: F403
from .equilibrium import *  # noqa: F403
from .model import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *model.__all__,
    *dynamics.__all__,
    *equilibrium.__all__,
    *analysis.__all__,
    *config.__all__,
]

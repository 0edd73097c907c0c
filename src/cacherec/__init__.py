"""Cache-aware recommendation: models, optimizers, simulator, experiments.

The package optimizes a row-stochastic recommendation matrix so that a
user population following recommendations generates requests that are
cheap to serve from a local cache, subject to per-row quality floors.
It provides the request-chain model, exact and iterative stationary
solves, a myopic per-row LP policy, an alternating augmented-Lagrangian
stationary-cost policy, dataset preparation, a Monte-Carlo session
simulator, and a reproducible experiment sweep driver.

Solver warnings, such as a subproblem stopped at its iteration cap, go to
the ``cacherec`` logger, which carries only a `logging.NullHandler`:
configure logging (for example ``logging.basicConfig()``) to see them.
"""

import logging

from . import datasets, experiments, markov, model, optim, qp, serialize, simulate

__version__ = "1.2.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())

# Re-export every submodule's public names; `cli` is the console entry point.
__all__ = ["__version__"]
for _module in (model, markov, qp, optim, datasets, simulate, serialize, experiments):
    globals().update({name: getattr(_module, name) for name in _module.__all__})
    __all__ += _module.__all__
del _module

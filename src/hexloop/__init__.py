"""Loop model on the hexagonal lattice.

Exact partition-function engines, the spin (cluster) representation on
hexagons, a discrete-observable verifier, a seedable Monte Carlo sampler with
external fields, correlation-inequality checkers and event observables, plus
a command line front end (``hexloop``).
"""

__version__ = "0.1.0"

from .errors import HexloopError

__all__ = ["HexloopError", "__version__"]

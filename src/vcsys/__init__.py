"""Modeling kit for hierarchical systems of value chains.

Build a nested description of chain actors and their connections (in code
or in the ``.vcs`` text format), validate it, flatten it to an
atomic-level graph, run deterministic flow dynamics over it with a
replayable history, and compute structural diagnostics: linkage classes,
source-to-end-market brokerage, reachability, weak and missing links.

Each module lists its own public names in its ``__all__``; the package
exports their union.
"""

from . import analysis, export, flatten, model, sdl, sim

# Read before the star imports, which rebind ``flatten`` to the function.
__all__ = sorted(
    name for module in (analysis, export, flatten, model, sdl, sim) for name in module.__all__
)

from .analysis import *  # noqa: E402, F403
from .export import *  # noqa: E402, F403
from .flatten import *  # noqa: E402, F403
from .model import *  # noqa: E402, F403
from .sdl import *  # noqa: E402, F403
from .sim import *  # noqa: E402, F403

__version__ = "0.1.0"

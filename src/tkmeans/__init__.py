"""Robust heavy-tailed clustering, baselines, metrics, and a benchmark harness.

Each module names its public API in its own ``__all__``; the package re-exports all of them.
"""

from . import baselines, core, datasets, errors, harness, metrics, mixtures, results, specialfn
from .baselines import *  # noqa: F403
from .core import *  # noqa: F403
from .datasets import *  # noqa: F403
from .errors import *  # noqa: F403
from .harness import *  # noqa: F403
from .metrics import *  # noqa: F403
from .mixtures import *  # noqa: F403
from .results import *  # noqa: F403
from .specialfn import *  # noqa: F403

__version__ = "0.1.0"

__all__ = []
__all__ += baselines.__all__
__all__ += core.__all__
__all__ += datasets.__all__
__all__ += errors.__all__
__all__ += harness.__all__
__all__ += metrics.__all__
__all__ += mixtures.__all__
__all__ += results.__all__
__all__ += specialfn.__all__

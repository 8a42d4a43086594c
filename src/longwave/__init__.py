"""1-D long-wave simulation toolkit.

Solvers for the symmetric coupled long-wave system over flat and uneven
bottoms and the uncoupled right-going dispersive equation, plus the classical
and topography-corrected surface reconstructions that tie them together, and an
experiment driver that cross-compares the models over step and sinusoidal
topographies.

The package publishes each module's ``__all__`` and the exception classes of
``errors``.
"""

__version__ = "0.1.0"

from .errors import *
from .grid import *
from .findiff import *
from .kdv import *
from .boussinesq import *
from .reconstruct import *
from .scenarios import *

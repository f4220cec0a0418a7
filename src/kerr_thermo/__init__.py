"""Thermometry with a driven Kerr-nonlinear resonator probe.

A small numpy-only toolkit that evolves the damped Kerr resonator, certifies
thermalization through Gibbs-state fidelity, and quantifies the precision of
reservoir-temperature estimation via quantum and classical Fisher information
under homodyne and heterodyne detection.

Each library module's ``__all__`` is the one list of its public names; the
package exports them all, in module order.
"""

from .errors import *
from .fock import *
from .dynamics import *
from .fidelity import *
from .estimation import *
from .measurement import *
from .spectral import *
from . import dynamics, errors, estimation, fidelity, fock, measurement, spectral

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (errors, fock, dynamics, fidelity, estimation, measurement, spectral)
    for name in module.__all__
]

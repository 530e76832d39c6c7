"""Localization diagnostics for quasi-1D Anderson-Bernoulli operators.

The package turns the transfer-matrix machinery of matrix-valued random
Schroedinger operators on the line into executable computations: density
certificates for the group generated by the binary transfer matrices,
a genericity check of the interaction, Lyapunov spectrum estimation,
and finite-volume spectral statistics (integrated density of states,
eigenfunction decay).
"""

__version__ = "0.1.0"

from .errors import *
from .linalg import *
from .model import *
from .furstenberg import *
from .lyapunov import *
from .spectrum import *
from .config import *
from .seeding import *

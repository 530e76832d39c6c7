"""Localization diagnostics for quasi-1D Anderson-Bernoulli operators.

The package turns the transfer-matrix machinery of matrix-valued random
Schroedinger operators on the line into executable computations: density
certificates for the group generated by the binary transfer matrices,
a genericity check of the interaction, Lyapunov spectrum estimation,
and finite-volume spectral statistics (integrated density of states,
eigenfunction decay).

Importing the package sets ``OPENBLAS_NUM_THREADS`` to 1 unless it is
already set, so that OpenBLAS, loaded with numpy right below (and again
with scipy's LAPACK extension by ``localize``), starts no worker threads;
see the README's "Threads" paragraph.
"""

import os

# The dense kernels here are of order 2N and the banded solves call BLAS on
# vectors, too small for a second thread to pay: on 2 cores the idle OpenBLAS
# worker spun for 0.13-0.15 s of CPU per library load, and the README
# localize run (L = 400) took 2.43 s wall with two threads, 1.85 s with one.
# Only a default: a value already in the environment is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .errors import *
from .linalg import *
from .model import *
from .furstenberg import *
from .lyapunov import *
from .spectrum import *
from .config import *
from .seeding import *

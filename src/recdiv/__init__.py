"""Exact Dirichlet-convolution toolkit for recursive divisor sums.

Tabulates arithmetic functions exactly on 1..N, convolves and inverts
them in the Dirichlet ring, counts ordered factorizations, evaluates
the associated Dirichlet series numerically, and checks the algebraic
identities tying all of it together.
"""

from . import bfile, identities, oracles, sequences, series
from .bfile import *
from .identities import *
from .oracles import *
from .sequences import *
from .series import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *sequences.__all__,
    *identities.__all__,
    *oracles.__all__,
    *series.__all__,
    *bfile.__all__,
]

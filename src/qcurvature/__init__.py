"""Exact symbolic calculator for deformed q-differentials at roots of unity.

Computes the expansion of powers of the deformed differential d + a in the
free graded setting.  The production route is the q-binomial power formula
D^N = sum_k [N choose k]_q M(k) d^(N-k), with M(k) from its closed product
formula; the weighted-path model, direct noncommutative normal ordering and
the recursion defining M(k) are oracles.  Every route is cross-validated
exactly over Z[q] and modulo cyclotomic polynomials.  Each word
e_{s_1} * ... * e_{s_m} is a :class:`Comp`, also a vertex of the path model.
Each module's ``__all__`` names its public API; the package re-exports them.
"""

from . import curvature, cyclo, freealg, paths
from .cyclo import *
from .paths import *
from .freealg import *
from .curvature import *

__version__ = "0.1.0"

__all__ = cyclo.__all__ + paths.__all__ + freealg.__all__ + curvature.__all__

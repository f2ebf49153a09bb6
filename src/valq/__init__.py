"""Exact quantum cluster algebras from valued quivers.

Desk-scale machinery for acyclic skew-symmetrizable exchange matrices:
quantum seed mutation over an exact quantum torus, a commutative twin
engine, finite-field quiver representations with reflection functors,
cluster characters with interpolated counting polynomials, and a
verification harness that re-proves structural identities by
exhaustive computation.
"""

from .exchange import (
    BUILTIN_MATRICES,
    ExchangeData,
    build_exchange_data,
    builtin_exchange_data,
)
from .laurent import LaurentPoly
from .qtorus import QTorusElem, QuantumSeed

__all__ = [
    "BUILTIN_MATRICES",
    "ExchangeData",
    "LaurentPoly",
    "QTorusElem",
    "QuantumSeed",
    "build_exchange_data",
    "builtin_exchange_data",
]

__version__ = "0.1.0"

"""Numerical laboratory for the discrete Hilbert transform and its relatives."""

from dhtlab.numerics import (
    Exponent,
    QuadResult,
    QuadratureError,
    catalan_beta2,
    integrate,
    pichorides_constant,
)

__all__ = [
    "Exponent",
    "QuadResult",
    "QuadratureError",
    "catalan_beta2",
    "integrate",
    "pichorides_constant",
]

__version__ = "0.1.0"

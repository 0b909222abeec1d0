"""Numerical laboratory for the discrete Hilbert transform and its relatives.

The names below come from ``dhtlab.numerics`` on first use (PEP 562), so
``import dhtlab`` alone loads no numpy.
"""

import importlib

__all__ = [
    "Exponent",
    "QuadResult",
    "QuadratureError",
    "catalan_beta2",
    "integrate",
    "pichorides_constant",
]

__version__ = "0.1.0"


def __getattr__(name):
    if name in __all__:
        return getattr(importlib.import_module("dhtlab.numerics"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

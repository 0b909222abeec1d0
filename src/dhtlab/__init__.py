"""Numerical laboratory for the discrete Hilbert transform and its relatives."""

__version__ = "0.1.0"
